"""Factorization of polynomials through zero blocks in minimal systems.

A minimal polynomial ALS of dimension n represents a product q1*q2 with
rank(q_i) = n_i (n_1 + n_2 = n + 1) exactly when some polynomial
transformation (P, Q) pushes an (n_1 - 1) x (n_2 - 1) block of zeros into
the upper right corner of the system matrix.  Finding such (P, Q) is a
non-linear problem in general.  This module first tries its linear part:
two joint solves whose row sources all lie below their column sources (so
each bilinear term multiplies a zero cell below the diagonal, and a
solution zeroes the block exactly), and a bounded alternation of partial
row/column passes.  Then it solves the full equations over the union of
the joint solves' unknowns: their one bilinear term per cell passes
through the split row's diagonal 1, so the letter equations stay linear,
and when they leave at most one free parameter the constant equations
become quadratics in it whose rational roots are tried.  More parameters
are not searched (the cap), so a ``None`` result means "no split found",
never "irreducible".

Block factorizations (chains of rectangular pencil matrices whose product
is a polynomial) are verified symbolically in the free algebra and can be
embedded as block systems with the factors on the superdiagonal.
"""

from __future__ import annotations

import random
from math import isqrt
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg, minimizer
from .errors import FormatError
from .freepoly import Alphabet, NcPolynomial
from .realization import (
    AdmissibleTransformation,
    Als,
    CellLike,
    LinearEntry,
    _Target,
    _Work,
    _coerce_cell,
    _entry_row_str,
    _parse_entry_row,
    _unit_rows,
    _zero_cell_rows,
    apply_transformation,
)

Grid = tuple[tuple[LinearEntry, ...], ...]
_Ops = dict[tuple[int, int], Fraction]  # off-diagonal cells of P or Q
_MAX_PASSES = 3  # alternations of row and column passes per split position
# Free parameters the full split solve handles: with one, each constant
# equation is a quadratic in it.  A position whose letter equations leave
# more is "capped": it is not searched, and a miss there is retried on
# rebuilt systems (see _split_with_retries).
_MAX_KERNEL_DIM = 1


def entry_grid(alphabet: Alphabet, cells: Sequence[Sequence[CellLike]]) -> Grid:
    """Rectangular grid of pencil entries from entry-like cells."""
    rows = tuple(
        tuple(_coerce_cell(cell, alphabet) for cell in row) for row in cells
    )
    if not rows or not rows[0]:
        raise ValueError("grid must be non-empty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("grid rows must have equal length")
    return rows


def hstack(*grids: Grid) -> Grid:
    height = len(grids[0])
    if any(len(g) != height for g in grids):
        raise ValueError("hstack needs equal heights")
    return tuple(
        tuple(entry for g in grids for entry in g[i]) for i in range(height)
    )


def vstack(*grids: Grid) -> Grid:
    width = len(grids[0][0])
    if any(len(g[0]) != width for g in grids):
        raise ValueError("vstack needs equal widths")
    return tuple(row for g in grids for row in g)


def block_diag(*grids: Grid) -> Grid:
    d = grids[0][0][0].width
    total_rows = sum(len(g) for g in grids)
    total_cols = sum(len(g[0]) for g in grids)
    zero = LinearEntry.zero(d)
    out = [[zero] * total_cols for _ in range(total_rows)]
    r = c = 0
    for g in grids:
        for i, row in enumerate(g):
            for j, entry in enumerate(row):
                out[r + i][c + j] = entry
        r += len(g)
        c += len(g[0])
    return tuple(tuple(row) for row in out)


class BlockFactorization:
    """Chain of pencil matrices (1 x k1)(k1 x k2)...(k_r x 1)."""

    __slots__ = ("alphabet", "factors")

    def __init__(self, alphabet: Alphabet, factors: Sequence[Grid]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        if len(factors[0]) != 1:
            raise ValueError("first factor must have one row")
        if len(factors[-1][0]) != 1:
            raise ValueError("last factor must have one column")
        for left, right in zip(factors, factors[1:]):
            if len(left[0]) != len(right):
                raise ValueError("factor dimensions do not chain")
        d = len(alphabet)
        for grid in factors:
            for row in grid:
                for entry in row:
                    if entry.width != d:
                        raise ValueError("entry width does not match the alphabet")
        self.alphabet = alphabet
        self.factors = factors

    @classmethod
    def from_cells(
        cls, alphabet: Alphabet, factors: Sequence[Sequence[Sequence[CellLike]]]
    ) -> "BlockFactorization":
        return cls(alphabet, [entry_grid(alphabet, grid) for grid in factors])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockFactorization):
            return NotImplemented
        return self.alphabet == other.alphabet and self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.alphabet, self.factors))

    def polynomial(self) -> NcPolynomial:
        """Symbolic product of the chain: the polynomial of ``to_block_als``."""
        return self.to_block_als().polynomial()

    def to_block_als(self) -> Als:
        """Polynomial ALS with -factor blocks on the block superdiagonal."""
        sizes = [1] + [len(grid[0]) for grid in self.factors]
        n = sum(sizes)
        rows = _unit_rows(n, len(self.alphabet))
        offset = 0
        for b, grid in enumerate(self.factors):
            col_offset = offset + sizes[b]
            for i, grid_row in enumerate(grid):
                for j, entry in enumerate(grid_row):
                    if not entry.is_zero:
                        rows[offset + i][col_offset + j] = -entry
            offset = col_offset
        rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
        return Als(self.alphabet, rows, rhs)


def verify_block_factorization(bf: BlockFactorization, p: NcPolynomial) -> bool:
    """True iff the symbolic chain product equals p exactly."""
    if bf.alphabet != p.alphabet:
        raise ValueError("factorization and polynomial use different alphabets")
    return bf.polynomial() == p


# -- split search --------------------------------------------------------------


@dataclass(frozen=True)
class FactorSplit:
    """A certified zero-block split of a minimal polynomial ALS."""

    transformed: Als
    n1: int
    n2: int
    transformation: AdmissibleTransformation

    def __post_init__(self):
        n = self.transformed.n
        if not 2 <= self.n1 <= n - 1:
            raise ValueError(f"split position n1 = {self.n1} is outside 2..{n - 1}")
        if self.n1 + self.n2 != n + 1:
            raise ValueError("factor ranks must satisfy n1 + n2 = n + 1")
        if self.transformation.n != n:
            raise ValueError("transformation size does not match the system")
        if not _block_is_zero(self.transformed, self.n1):
            raise ValueError("zero-block certificate does not hold")


def _block_is_zero(als: Als, n1: int) -> bool:
    return all(als.rows[i][j].is_zero for i in range(n1 - 1) for j in range(n1, als.n))


def _block_unknowns(
    als: Als,
    target_rows: Sequence[int],
    target_cols: Sequence[int],
    row_sources: Sequence[int],
    col_sources: Sequence[int],
) -> tuple[list[tuple[str, int, int]], list[_Target]]:
    """The row and column ops on the target cells, and the cells' targets.

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


def _ops_of(
    variables: Sequence[tuple[str, int, int]], solution: Sequence[Fraction]
) -> tuple[_Ops, _Ops]:
    """The nonzero row ops (P cells) and column ops (Q cells) of a solution."""
    ops: dict[str, _Ops] = {"row": {}, "col": {}}
    for (kind, s, t), x in zip(variables, solution):
        if x != 0:
            ops[kind][s, t] = x
    return ops["row"], ops["col"]


def _zero_block_ops(
    als: Als,
    target_rows: Sequence[int],
    target_cols: Sequence[int],
    comps: Sequence[int],
    row_sources: Sequence[int],
    col_sources: Sequence[int],
) -> Optional[tuple[_Ops, _Ops]]:
    """One exact linear solve for row/column ops zeroing the target cells.

    The unknowns are those of ``_block_unknowns``; only the given pencil
    components of the target cells are zeroed.  Sources are 0-based; every
    row source must exceed every column source, which kills the bilinear
    alpha*A*beta terms and makes the equations exactly linear.  Returns
    the nonzero (alpha, beta), or ``None`` when inconsistent.
    """
    variables, targets = _block_unknowns(
        als, target_rows, target_cols, row_sources, col_sources
    )
    eqs = _zero_cell_rows(targets, comps, len(variables))
    solution = None if eqs is None else linalg.solve_rows(*eqs, len(variables))
    if solution is None:
        return None
    return _ops_of(variables, solution)


def _rational_roots(c0: Fraction, c1: Fraction, c2: Fraction) -> list[Fraction]:
    """The rational roots of c0 + c1*t + c2*t^2, not all coefficients zero.

    The roots come in increasing order.
    """
    if not c2:
        return [-c0 / c1] if c1 else []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    num, den = isqrt(disc.numerator), isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return []
    roots = {(-c1 + sign * Fraction(num, den)) / (2 * c2) for sign in (1, -1)}
    return sorted(roots)


def _full_split_ops(als: Als, n1: int) -> tuple[Optional[tuple[_Ops, _Ops]], bool]:
    """Ops zeroing the block at split position n1, bilinear term included.

    The unknowns are the union of the two joint solves': alpha[i, r] for
    target rows i <= n1-2 and row sources r = n1-1..n-2, beta[c, j] for
    column sources c = 1..n1-1 and target columns j >= n1.  A bilinear
    term alpha[i, r] * A[r, c] * beta[c, j] needs A[r, c] != 0, so r <= c,
    which leaves r = c = n1-1, where A is 1: the letter components of the
    equations are linear, and the constant component of cell (i, j) gains
    alpha[i, n1-1] * beta[n1-1, j].  The letter equations are solved
    exactly, as a particular solution plus a kernel.  Without a kernel
    the constant equations are checked at that solution; with a kernel of
    dimension 1 each becomes a quadratic in its parameter t, and the
    rational roots of the first nonzero one are tried in turn.  A larger
    kernel is not searched (see ``_MAX_KERNEL_DIM``).

    Returns (the nonzero (alpha, beta) or ``None``, whether the kernel was
    too large).  Row sources stop above row n-1, so ``P v = v``.
    """
    n, d = als.n, len(als.alphabet)
    split = n1 - 1
    variables, targets = _block_unknowns(
        als, range(split), range(n1, n), range(split, n - 1), range(1, n1)
    )
    width = len(variables)
    eqs = _zero_cell_rows(targets, range(1, d + 1), width)
    space = None if eqs is None else linalg.solution_space(*eqs, width)
    if space is None:
        return None, False
    x0, kernel = space
    if len(kernel) > _MAX_KERNEL_DIM:
        return None, True
    k = kernel[0] if kernel else [Fraction(0)] * width
    # the alpha[i, n1-1] and beta[n1-1, j] unknowns, in target order
    alphas = [v for v, (kind, _, r) in enumerate(variables) if kind == "row" and r == split]
    betas = [v for v, (kind, c, _) in enumerate(variables) if kind == "col" and c == split]
    quadratics = []
    cells = ((a, b) for a in alphas for b in betas)
    for (entry, terms), (a, b) in zip(targets, cells):
        c0 = entry.coeffs[0] + sum(x0[v] * e.coeffs[0] for v, e in terms) + x0[a] * x0[b]
        c1 = sum(k[v] * e.coeffs[0] for v, e in terms) + x0[a] * k[b] + k[a] * x0[b]
        quadratics.append((c0, c1, k[a] * k[b]))
    first = next((q for q in quadratics if any(q)), None)
    for t in [Fraction(0)] if first is None else _rational_roots(*first):
        if all(c0 + t * (c1 + t * c2) == 0 for c0, c1, c2 in quadratics):
            return _ops_of(variables, [x + t * y for x, y in zip(x0, k)]), False
    return None, False


def _single_pass_ops(
    als: Als,
    target_rows: Sequence[int],
    target_cols: Sequence[int],
    row_sources: Sequence[int],
    col_sources: Sequence[int],
) -> Optional[_Ops]:
    """Nonzero ops of one row's (or one column's) pass, else ``None``.

    Only one kind of source is given, so only one kind of op comes back.
    All pencil components are tried first, then the letter components
    alone, which leaves a scalar residue for the other side.
    """
    d = len(als.alphabet)
    for comps in (range(d + 1), range(1, d + 1)):
        found = _zero_block_ops(
            als, target_rows, target_cols, comps, row_sources, col_sources
        )
        ops = found[0] or found[1] if found else None
        if ops:
            return ops
    return None


def _add_rows(cells: _Ops, i: int, ops: _Ops) -> None:
    """Row i of I + cells gains x times row r for each op (i, r) -> x, in place.

    Composes a row op with an accumulated unitriangular matrix held as its
    off-diagonal cells; a column op composes as a row op on the transpose.
    No op reads row i itself, so every source row is read before row i is
    written.
    """
    added = [(r, x) for (_, r), x in ops.items()]
    added += [(k, x * y) for r, x in added for (s, k), y in cells.items() if s == r]
    for k, x in added:
        cells[i, k] = cells.get((i, k), 0) + x


def _partial_passes(
    als: Als, n1: int
) -> Optional[tuple[Als, AdmissibleTransformation]]:
    """Alternating per-row / per-column cleanup passes.

    Each pass zeroes whatever single rows or columns of the target block
    are individually reachable on the current matrix; when a row or column
    cannot be zeroed completely, its letter components alone are tried,
    leaving a scalar residue for the other side of the alternation.  Later
    passes see the transformed system, so sequentially applied row and
    column ops compose exactly even where a one-shot joint solve would be
    bilinear.  Bounded, so possibly incomplete by design.  Each op is one
    sparse unitriangular row or column op, mixed into one working system in
    place (validated once, when frozen) and composed into the cells of P
    and of Q's transpose.
    """
    n = als.n
    work = _Work.thaw(als)
    p_cells: _Ops = {}
    qt_cells: _Ops = {}  # Q transposed: column ops compose as row ops
    for _ in range(_MAX_PASSES):
        changed = False
        for i in range(n1 - 1):
            alpha = _single_pass_ops(work, [i], range(n1, n), range(1, n - 1), ())
            if alpha is None:
                continue
            work.mix(alpha, {})
            _add_rows(p_cells, i, alpha)
            changed = True
        for j in range(n1, n):
            beta = _single_pass_ops(work, range(n1 - 1), [j], (), range(1, j))
            if beta is None:
                continue
            work.mix({}, beta)
            _add_rows(qt_cells, j, {(j, c): x for (c, _), x in beta.items()})
            changed = True
        if _block_is_zero(work, n1):
            q_cells = {(c, j): x for (j, c), x in qt_cells.items()}
            return work.freeze(), AdmissibleTransformation(n, p_cells, q_cells)
        if not changed:
            return None
    return None


def find_split(als: Als) -> Optional[FactorSplit]:
    """Search split positions n1 = 2..n-1, in order, for a certified zero block.

    First, per position in order: the two joint solves (split row n1 - 1
    as a row source, then as a column source), which subsume the
    rows-only and columns-only solves, then bounded alternating passes.
    Only when all of these miss everywhere does the full solve, bilinear
    term included (``_full_split_ops``), run at n1 = 2..n-1.  Equal systems
    give equal results.  The input must be minimal (the factorization
    criterion presupposes it): a system on which some minimization
    equation is solvable raises ``ValueError``.  ``None`` means "no split
    found": the full solve is capped at one free parameter.
    """
    n = als.n
    if n < 3:
        return None
    if not als.is_polynomial_form:
        raise ValueError("split search needs a polynomial ALS")
    if not minimizer._is_reduced(als):
        raise ValueError("split search needs a minimal system; minimize first")
    comps = range(len(als.alphabet) + 1)
    for n1 in range(2, n):
        for row_sources, col_sources in (
            (range(n1 - 1, n - 1), range(1, n1 - 1)),  # split row as a row source
            (range(n1, n - 1), range(1, n1)),  # split row as a column source
        ):
            found = _zero_block_ops(
                als, range(n1 - 1), range(n1, n), comps, row_sources, col_sources
            )
            if found is not None:
                return _certified(als, n1, found)
        partial = _partial_passes(als, n1)
        if partial is not None:
            transformed, trans = partial
            return FactorSplit(transformed, n1, n + 1 - n1, trans)
    for n1 in range(2, n):
        found = _full_split_ops(als, n1)[0]
        if found is not None:
            return _certified(als, n1, found)
    return None


def _certified(als: Als, n1: int, ops: tuple[_Ops, _Ops]) -> FactorSplit:
    """The split that the row and column ops give at position n1."""
    trans = AdmissibleTransformation(als.n, *ops)
    return FactorSplit(apply_transformation(als, trans), n1, als.n + 1 - n1, trans)


def _capped(als: Als) -> bool:
    """Whether the full solve left too many free parameters at some position."""
    return any(_full_split_ops(als, n1)[1] for n1 in range(2, als.n))


def extract_factors(split: FactorSplit) -> tuple[Als, Als]:
    """Read the two factor systems off a certified split.

    The left factor lives on rows/columns 1..n1 with lam = 1; the right
    factor on rows/columns n1..n with the original lam.  Their product is
    checked against the represented polynomial exactly.
    """
    als = split.transformed
    n1 = split.n1
    left = Als(
        als.alphabet,
        [row[:n1] for row in als.rows[:n1]],
        [Fraction(0)] * (n1 - 1) + [Fraction(1)],
    )
    right = Als(
        als.alphabet,
        [row[n1 - 1 :] for row in als.rows[n1 - 1 :]],
        als.rhs[n1 - 1 :],
    )
    if left.polynomial() * right.polynomial() != als.polynomial():
        raise RuntimeError("internal inconsistency: extracted factors do not multiply back")
    return left, right


_RETRY_LIMIT_DIM = 10  # beyond this a single search is already expensive


def _split_with_retries(als: Als) -> Optional[FactorSplit]:
    """find_split, retried on alternative minimal representatives.

    Only a miss where the full solve was capped at some position is
    retried; without a cap every position's full equations were solved,
    and the miss is final for this system.  After a capped miss, whether
    the search reaches a zero block depends on the concrete system matrix,
    not just on the polynomial, so we rebuild the system with shuffled
    monomial insertion orders (from a fixed seed) and try again.
    find_split is deterministic, so a rebuilt system equal to one already
    searched would miss again: each distinct system is searched once.
    """
    split = find_split(als)
    if split is not None or als.n > _RETRY_LIMIT_DIM or not _capped(als):
        return split
    poly = als.polynomial()
    words = sorted(poly.support())
    local = random.Random(0x5EED)
    searched = {als}
    for _ in range(5):
        local.shuffle(words)
        candidate = minimizer.build_als(poly, insertion_order=list(words))
        if candidate not in searched:
            searched.add(candidate)
            split = find_split(candidate)
            if split is not None:
                return split
    return None


def _atoms_from_system(als: Als) -> list[Als]:
    if als.n < 3:
        return [als]
    split = _split_with_retries(als)
    if split is None:
        return [als]
    left, right = extract_factors(split)
    return _atoms_from_system(left) + _atoms_from_system(right)


def factor_atoms(p: NcPolynomial) -> list[NcPolynomial]:
    """Split recursively until no further split is found.

    The returned factors multiply back to p in order.  Factors are atoms
    *as far as the split search can tell*; a single-element result is not
    a proof of irreducibility.  A miss on a system where the full solve
    was capped at some position is double-checked on a few rebuilt
    representatives (small dimensions only); any other miss is final.
    Split factors are minimal (their ranks n1 + n2 = n + 1 add up as for
    any product) and are searched again as they are.  The result depends
    on p alone.
    """
    if p.is_zero or p.is_scalar:
        raise ValueError("factorization needs a non-scalar polynomial")
    systems = _atoms_from_system(minimizer.build_als(p))
    return [als.polynomial() for als in systems]


# -- matrix reducibility pattern ------------------------------------------------


def check_k_reducibility_pattern(als: Als, i: int, k: int) -> bool:
    """Cellwise test of the k-reducibility pattern at block row i (1-based).

    Checks the system matrix as given (no transformation search): an upper
    right i x (n-i-k) zero block together with an identity k x k diagonal
    block in rows i+1..i+k.  Meaningful for minimal systems, where the
    pattern certifies a factorization of p into matrices of inner size k.
    """
    n = als.n
    if n < 3 or not 1 <= k <= n - 2 or not 1 <= i <= n - k - 1:
        raise IndexError(f"no pattern position (i={i}, k={k}) in dimension {n}")
    for row in range(i):
        for col in range(i + k, n):
            if not als.rows[row][col].is_zero:
                return False
    for row in range(i, i + k):
        for col in range(i, i + k):
            if row != col and not als.rows[row][col].is_zero:
                return False
    return True


# -- serialization ---------------------------------------------------------------

_FACTORS_TAG = "ncpoly-factors 1"


def dump_factors(bf: BlockFactorization) -> str:
    lines = [
        _FACTORS_TAG,
        "alphabet " + ",".join(bf.alphabet.letters),
        f"count {len(bf.factors)}",
    ]
    for grid in bf.factors:
        lines.append(f"factor {len(grid)} {len(grid[0])}")
        lines.extend(_entry_row_str(row) for row in grid)
    return "\n".join(lines) + "\n"


def load_factors(text: str) -> BlockFactorization:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != _FACTORS_TAG:
        raise FormatError("not a block-factor file (missing format tag)")
    try:
        keys = [line.split()[0] for line in lines[1:3]]
        alphabet = Alphabet(lines[1].split(" ", 1)[1].split(","))
        count = int(lines[2].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"malformed factor header: {exc}") from exc
    if keys != ["alphabet", "count"]:
        raise FormatError("factor header must be 'alphabet', 'count'")
    d = len(alphabet)
    factors = []
    at = 3
    for _ in range(count):
        if at >= len(lines) or not lines[at].startswith("factor "):
            raise FormatError("expected a 'factor rows cols' line")
        try:
            _, rows_s, cols_s = lines[at].split()
            height, width = int(rows_s), int(cols_s)
        except ValueError as exc:
            raise FormatError("malformed factor size line") from exc
        at += 1
        if height < 1 or width < 1:
            raise FormatError("factor sizes must be positive")
        if at + height > len(lines):
            raise FormatError(f"truncated factor: expected {height} rows")
        rows = lines[at:at + height]
        factors.append(tuple(_parse_entry_row(row, width, d) for row in rows))
        at += height
    if at != len(lines):
        raise FormatError("unexpected lines after the last factor")
    try:
        return BlockFactorization(alphabet, factors)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
