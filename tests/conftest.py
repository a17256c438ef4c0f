"""Shared fixtures: alphabets, systems quoted from worked examples, generators."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from ncpoly import (
    Alphabet,
    Als,
    BlockFactorization,
    LinearEntry,
    NcPolynomial,
    block_diag,
    entry_grid,
    hstack,
    parse,
    vstack,
)
from ncpoly.linalg import add_row, integer_scaled, solve_rows
from ncpoly.realization import _zero_cell_rows

BENCH19_TEXT = (
    "3cyxb + 3xbyxb + 2cyxax + cybxb - cyaxb - 2xbyxax + 4xbybxb - 3xbyaxb"
    " + 3xaxyxb - 3bxbyxb + 6axbyxb + 2xaxyxax + xaxybxb - xaxyaxb"
    " - 2bxbyxax - bxbybxb + bxbyaxb + 5axbybxb - 4axbyaxb"
)


@pytest.fixture
def ab_xy() -> Alphabet:
    return Alphabet(("x", "y"))


@pytest.fixture
def ab_xyz() -> Alphabet:
    return Alphabet(("x", "y", "z"))


@pytest.fixture
def bench19_alphabet() -> Alphabet:
    return Alphabet(("x", "y", "a", "b", "c"))


@pytest.fixture
def bench19_poly(bench19_alphabet) -> NcPolynomial:
    return parse(BENCH19_TEXT, bench19_alphabet)


@pytest.fixture
def intro_als(ab_xy) -> Als:
    """4-dim minimal system for x - xyx."""
    return Als.from_cells(
        ab_xy,
        [
            ["1", "-x", "0", "-x"],
            ["0", "1", "y", "0"],
            ["0", "0", "1", "-x"],
            ["0", "0", "0", "1"],
        ],
        [0, 0, 0, 1],
    )


@pytest.fixture
def anticommutator_als(ab_xy) -> Als:
    """4-dim minimal system for xy + yx with N = 2."""
    return Als.from_cells(
        ab_xy,
        [
            ["1", "-x", "-y", "0"],
            ["0", "1", "0", "-y"],
            ["0", "0", "1", "-x"],
            ["0", "0", "0", "1"],
        ],
        [0, 0, 0, 1],
    )


@pytest.fixture
def remark_alphabet() -> Alphabet:
    return Alphabet(("a", "b", "c", "x", "y", "z"))


@pytest.fixture
def seven_dim_remark(remark_alphabet) -> Als:
    """Sparse but non-minimal 7-dim system for ab(xyz+yz+z+1) + acxyz."""
    return Als.from_cells(
        remark_alphabet,
        [
            ["1", "-a", "0", "0", "0", "0", "0"],
            ["0", "1", "-b", "-c", "0", "0", "0"],
            ["0", "0", "1", "-1", "-1", "-1", "-1"],
            ["0", "0", "0", "1", "-x", "0", "0"],
            ["0", "0", "0", "0", "1", "-y", "0"],
            ["0", "0", "0", "0", "0", "1", "-z"],
            ["0", "0", "0", "0", "0", "0", "1"],
        ],
        [0, 0, 0, 0, 0, 0, 1],
    )


@pytest.fixture
def six_dim_remark(remark_alphabet) -> Als:
    """Minimal 6-dim system for the same polynomial (denser: N_s = 6)."""
    return Als.from_cells(
        remark_alphabet,
        [
            ["1", "-a", "0", "0", "0", "0"],
            ["0", "1", "-b-c", "-b", "-b", "-b"],
            ["0", "0", "1", "-x", "0", "0"],
            ["0", "0", "0", "1", "-y", "0"],
            ["0", "0", "0", "0", "1", "-z"],
            ["0", "0", "0", "0", "0", "1"],
        ],
        [0, 0, 0, 0, 0, 1],
    )


@pytest.fixture
def triple_product_alphabet() -> Alphabet:
    return Alphabet(("a", "b", "c", "d", "e", "x"))


@pytest.fixture
def triple_product_als(triple_product_alphabet) -> Als:
    """5-dim minimal system for 2aexc + 2bxc - aexd - bxd."""
    return Als.from_cells(
        triple_product_alphabet,
        [
            ["1", "-a", "-b", "-a", "0"],
            ["0", "1", "-e", "0", "2c-d"],
            ["0", "0", "1", "-x", "0"],
            ["0", "0", "0", "1", "d-2c"],
            ["0", "0", "0", "0", "1"],
        ],
        [0, 0, 0, 0, 1],
    )


@pytest.fixture
def bench19_chain(bench19_alphabet) -> BlockFactorization:
    """The 8 factor matrices assembled into a strict chain.

    (X1 X2 X3 + X4) Y Z1 Z2 Z3 == [X1|1] diag(X2,1) [X3;X4] Y Z1 Z2 Z3.
    """
    g = lambda cells: entry_grid(bench19_alphabet, cells)
    x1 = g([["1+a", "1+b", "x"]])
    x2 = g([["x", "0", "0"], ["0", "x", "0"], ["0", "0", "a"]])
    x3 = g([["b", "0"], ["0", "-b"], ["0", "x"]])
    x4 = g([["0", "c"]])
    y = g([["y", "0"], ["0", "y"]])
    z1 = g([["6+5b-4a", "0"], ["3+b-a", "2x"]])
    z2 = g([["0", "x"], ["a", "0"]])
    z3 = g([["x"], ["b"]])
    one = g([["1"]])
    return BlockFactorization(
        bench19_alphabet,
        [hstack(x1, one), block_diag(x2, one), vstack(x3, x4), y, z1, z2, z3],
    )


def random_polynomial(
    rng: random.Random,
    alphabet: Alphabet,
    max_terms: int = 10,
    max_degree: int = 5,
    coeff_range: int = 3,
) -> NcPolynomial:
    """Random canonical polynomial with small integer coefficients."""
    d = len(alphabet)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.randrange(d) for _ in range(rng.randint(0, max_degree)))
        coeff = rng.choice([c for c in range(-coeff_range, coeff_range + 1) if c])
        terms[word] = Fraction(coeff)
    return NcPolynomial(alphabet, terms)


def assert_bitwise_equal(a, b) -> None:
    """Same dtype and shape; float entries equal bit for bit, signed zeros too."""
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert np.array_equal(a, b)
    else:
        assert a.tobytes() == b.tobytes()


# -- the family-rank minimality certificate --------------------------------------


def family_rank(family):
    """Rank of the family's coefficient rows over their joint word support.

    Ranked by the rational ``reference_rank``, so the certificate shares no
    elimination code with ``is_minimal``.
    """
    terms = [q.term_map() for q in family]
    support = set().union(*terms)  # the rank does not depend on column order
    if not support:
        return 0
    return reference_rank([[t.get(w, Fraction(0)) for w in support] for t in terms])


def reference_is_minimal(als):
    """Minimal exactly when both solution families are linearly independent.

    Both families are expanded symbolically and ranked as coefficient rows
    over their joint word support.
    """
    n = als.n
    return family_rank(als.left_family()) == n and family_rank(als.right_family()) == n


# -- dense references on plain lists -------------------------------------------


def matmul(a, b):
    """Product of two matrices given as lists of rows of Fractions."""
    return [
        [
            sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0))
            for j in range(len(b[0]))
        ]
        for row in a
    ]


def dense_unitriangular(n, cells):
    """I + cells as n rows of Fractions; cells are ((i, j), x) pairs."""
    matrix = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for (i, j), x in cells:
        matrix[i][j] = x
    return matrix


def dense_transformation(als, trans):
    """Reference: P A_c Q for every pencil component c and P v, as dense products."""
    n, d = als.n, len(als.alphabet)
    p, q = dense_unitriangular(n, trans.p), dense_unitriangular(n, trans.q)
    components = [
        matmul(matmul(p, [[entry.coeffs[c] for entry in row] for row in als.rows]), q)
        for c in range(d + 1)
    ]
    rows = [
        [LinearEntry(tuple(components[c][i][j] for c in range(d + 1))) for j in range(n)]
        for i in range(n)
    ]
    rhs = [sum((p[i][k] * als.rhs[k] for k in range(n)), Fraction(0)) for i in range(n)]
    return Als(als.alphabet, rows, rhs)


def reference_eliminate(rows):
    """Gauss-Jordan on Fractions with normalized pivots, in place.

    Returns (rows, pivot column indices).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    target = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(target, n_rows) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[target], rows[pivot_row] = rows[pivot_row], rows[target]
        inv = 1 / Fraction(rows[target][col])
        rows[target] = [x * inv for x in rows[target]]
        for r in range(n_rows):
            if r != target and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[target])]
        pivots.append(col)
        target += 1
        if target == n_rows:
            break
    return rows, pivots


def reference_rank(rows):
    """Rank by ``reference_eliminate`` on a copy of the rows."""
    return len(reference_eliminate([[Fraction(x) for x in row] for row in rows])[1])


def sparse_row(row):
    """A dense row of rationals as ``add_row`` takes it: its nonzero
    integer-scaled entries by column."""
    ints, _ = integer_scaled([Fraction(x) for x in row])
    return {c: x for c, x in enumerate(ints) if x}


def kernel_rank(rows):
    """Rank by ``linalg.add_row``: the size of the basis the rows build."""
    basis = {}
    for row in rows:
        add_row(basis, sparse_row(row))
    return len(basis)


# -- the general split solve -----------------------------------------------------


def block_unknowns(als, target_rows, target_cols, row_sources, col_sources):
    """The row and column ops on the target cells, from any sources, and the
    cells' targets.

    Row i gains alpha[i, r] * row r for row sources r > i, and column j
    gains beta[c, j] * column c for column sources 0 < c < j.  Returns the
    unknowns, numbered row ops first as ``("row", i, r)`` and
    ``("col", c, j)``, and per target cell (rows outer) the cell's entry
    with the ``(unknown, entry)`` pairs that multiply the unknowns in it,
    leaving out the bilinear alpha*A*beta terms.
    """
    a = als.rows
    variables = [("row", i, r) for i in target_rows for r in row_sources if r > i]
    variables += [("col", c, j) for j in target_cols for c in col_sources if 0 < c < j]
    index = {var: pos for pos, var in enumerate(variables)}
    targets = []
    for i in target_rows:
        for j in target_cols:
            terms = [(index["row", i, r], a[r][j]) for r in row_sources if r > i]
            terms += [(index["col", c, j], a[i][c]) for c in col_sources if 0 < c < j]
            targets.append((a[i][j], terms))
    return variables, targets


def zero_block_ops(als, target_rows, target_cols, row_sources, col_sources, comps=None):
    """One exact linear solve for row/column ops zeroing the target cells.

    The split solve over any sources, which the former split strategies
    used: the unknowns are those of ``block_unknowns``, and the given
    pencil components (all by default) of the target cells are zeroed.
    Exact when every row source lies below every column source, which
    kills the bilinear terms.  Returns the nonzero (alpha, beta) as dicts,
    or ``None`` when inconsistent.
    """
    variables, targets = block_unknowns(
        als, target_rows, target_cols, row_sources, col_sources
    )
    if comps is None:
        comps = range(len(als.alphabet) + 1)
    eqs = _zero_cell_rows(targets, comps, len(variables))
    solution = None if eqs is None else solve_rows(*eqs, len(variables))
    if solution is None:
        return None
    ops = {"row": {}, "col": {}}
    for (kind, s, t), x in zip(variables, solution):
        if x != 0:
            ops[kind][s, t] = x
    return ops["row"], ops["col"]
