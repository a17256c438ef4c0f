"""Factorization of polynomials through zero blocks in minimal systems.

A minimal polynomial ALS of dimension n represents a product q1*q2 with
rank(q_i) = n_i (n_1 + n_2 = n + 1) exactly when some polynomial
transformation (P, Q) pushes an (n_1 - 1) x (n_2 - 1) block of zeros into
the upper right corner of the system matrix.  Finding such (P, Q) is a
non-linear problem in general.  Each split position has one set of
unknowns: row ops from rows n1-1..n-2 into the block's rows, and column
ops from columns 1..n1-1 into its columns.  Their one bilinear term per
cell passes through the split row's diagonal 1.  This module first tries
the linear part: two joint solves, each the split equations with one
side of the split row (its column ops, then its row ops) held at 0, so
the bilinear term vanishes and a solution zeroes the block exactly.  Then
it solves the full equations on the same unknowns: their letter
equations stay linear, and when they leave at most one free parameter the
constant equations become quadratics in it whose rational roots are
tried.  More parameters are not searched (the cap), so a ``None`` result
means "no split found", never "irreducible".
"""

from __future__ import annotations

import random
from math import isqrt
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import linalg, minimizer
from .freepoly import NcPolynomial
from .realization import (
    AdmissibleTransformation,
    Als,
    _Target,
    _zero_cell_rows,
    apply_transformation,
)

_Ops = dict[tuple[int, int], Fraction]  # off-diagonal cells of P or Q
# A split position's unknowns and target cells (see _split_unknowns)
_SplitUnknowns = tuple[list[tuple[str, int, int]], list[_Target]]
# Free parameters the full split solve handles: with one, each constant
# equation is a quadratic in it.  A position whose letter equations leave
# more is "capped": it is not searched, and a miss there is retried on
# rebuilt systems (see _split_with_retries).
_MAX_KERNEL_DIM = 1


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
        if not check_k_reducibility_pattern(self.transformed, self.n1 - 1, 1):
            raise ValueError("zero-block certificate does not hold")


def _split_unknowns(als: Als, n1: int) -> _SplitUnknowns:
    """The unknowns and target cells of the split equations at position n1.

    Target rows i = 0..n1-2 gain alpha[i, r] * row r for r = n1-1..n-2,
    and target columns j = n1..n-1 gain beta[c, j] * column c for
    c = 1..n1-1.  Returns the unknowns, numbered row ops first as
    ``("row", i, r)`` and ``("col", c, j)``, and per target cell (rows
    outer) the cell's entry with the ``(unknown, entry)`` pairs that
    multiply the unknowns in it, leaving out the bilinear alpha*A*beta
    terms.  Each cell's pairs start with its split-row row op
    alpha[i, n1-1] and end with its split-row column op beta[n1-1, j].
    Row sources stop above row n-1, so ``P v = v``.
    """
    a, n = als.rows, als.n
    rows, cols = range(n1 - 1, n - 1), range(1, n1)
    variables = [("row", i, r) for i in range(n1 - 1) for r in rows]
    variables += [("col", c, j) for j in range(n1, n) for c in cols]
    index = {var: pos for pos, var in enumerate(variables)}
    targets = []
    for i in range(n1 - 1):
        for j in range(n1, n):
            terms = [(index["row", i, r], a[r][j]) for r in rows]
            terms += [(index["col", c, j], a[i][c]) for c in cols]
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


def _joint_split_ops(
    als: Als, unknowns: _SplitUnknowns
) -> Iterator[Optional[tuple[_Ops, _Ops]]]:
    """The two joint solves at one position, in turn: nonzero ops or ``None``.

    Each is the split equations of ``_split_unknowns`` with one side of
    the split row held at 0: first its column ops beta[n1-1, j], each
    cell's last pair (the row is a row source only), then its row ops
    alpha[i, n1-1], each cell's first pair (a column source only).  Either
    way the one bilinear term alpha*beta is 0, so the equations are
    exactly linear, and every pencil component of the target cells is
    zeroed.  A held unknown sits in no equation and comes back 0.
    """
    variables, targets = unknowns
    width = len(variables)
    for kept in (slice(None, -1), slice(1, None)):
        eqs = _zero_cell_rows(
            [(entry, terms[kept]) for entry, terms in targets],
            range(len(als.alphabet) + 1),
            width,
        )
        solution = None if eqs is None else linalg.solve_rows(*eqs, width)
        yield None if solution is None else _ops_of(variables, solution)


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


def _full_split_ops(
    als: Als, unknowns: _SplitUnknowns
) -> tuple[Optional[tuple[_Ops, _Ops]], bool]:
    """Ops zeroing the block at one split position, bilinear term included.

    ``unknowns`` are the position's (``_split_unknowns(als, n1)``), split
    row n1-1 a row and a column source at once.  A bilinear term
    alpha[i, r] * A[r, c] * beta[c, j] needs A[r, c] != 0, so r <= c,
    which leaves r = c = n1-1, where A is 1: the letter components of the
    equations are linear, and the constant component of cell (i, j) gains
    alpha[i, n1-1] * beta[n1-1, j].  The letter equations are solved
    exactly, as a particular solution plus a kernel.  Without a kernel
    the constant equations are checked at that solution; with a kernel of
    dimension 1 each becomes a quadratic in its parameter t, and the
    rational roots of the first nonzero one are tried in turn.  A larger
    kernel is not searched (see ``_MAX_KERNEL_DIM``).

    Returns (the nonzero (alpha, beta) or ``None``, whether the kernel was
    too large).
    """
    variables, targets = unknowns
    width = len(variables)
    eqs = _zero_cell_rows(targets, range(1, len(als.alphabet) + 1), width)
    space = None if eqs is None else linalg.solution_space(*eqs, width)
    if space is None:
        return None, False
    x0, kernel = space
    if len(kernel) > _MAX_KERNEL_DIM:
        return None, True
    k = kernel[0] if kernel else [Fraction(0)] * width
    quadratics = []
    for entry, terms in targets:
        a, b = terms[0][0], terms[-1][0]  # alpha[i, n1-1], beta[n1-1, j]
        c0 = entry.coeffs[0] + sum(x0[v] * e.coeffs[0] for v, e in terms) + x0[a] * x0[b]
        c1 = sum(k[v] * e.coeffs[0] for v, e in terms) + x0[a] * k[b] + k[a] * x0[b]
        quadratics.append((c0, c1, k[a] * k[b]))
    first = next((q for q in quadratics if any(q)), None)
    for t in [Fraction(0)] if first is None else _rational_roots(*first):
        if all(c0 + t * (c1 + t * c2) == 0 for c0, c1, c2 in quadratics):
            return _ops_of(variables, [x + t * y for x, y in zip(x0, k)]), False
    return None, False


def find_split(als: Als) -> Optional[FactorSplit]:
    """Search split positions n1 = 2..n-1, in order, for a certified zero block.

    Each position's unknowns and target cells are built once
    (``_split_unknowns``).  First, per position in order, the two joint
    solves: the split equations with split row n1 - 1 held at 0 on one
    side, as a row source only and then as a column source only, which
    subsume the rows-only and columns-only solves.  Only when both miss
    everywhere does the full solve, bilinear term included
    (``_full_split_ops``), run at n1 = 2..n-1 on the same unknowns.  Equal
    systems give equal results.  The input must be minimal (the
    factorization criterion presupposes it): a system on which some
    minimization equation is solvable raises ``ValueError``.  ``None``
    means "no split found": the full solve is capped at one free
    parameter.
    """
    n = als.n
    if n < 3:
        return None
    if not als.is_polynomial_form:
        raise ValueError("split search needs a polynomial ALS")
    if not minimizer._is_reduced(als):
        raise ValueError("split search needs a minimal system; minimize first")
    positions = []
    for n1 in range(2, n):
        unknowns = _split_unknowns(als, n1)
        for found in _joint_split_ops(als, unknowns):
            if found is not None:
                return _certified(als, n1, found)
        positions.append((n1, unknowns))
    for n1, unknowns in positions:
        found = _full_split_ops(als, unknowns)[0]
        if found is not None:
            return _certified(als, n1, found)
    return None


def _certified(als: Als, n1: int, ops: tuple[_Ops, _Ops]) -> FactorSplit:
    """The split that the row and column ops give at position n1."""
    trans = AdmissibleTransformation(als.n, *ops)
    return FactorSplit(apply_transformation(als, trans), n1, als.n + 1 - n1, trans)


def _capped(als: Als) -> bool:
    """Whether the full solve left too many free parameters at some position."""
    return any(_full_split_ops(als, _split_unknowns(als, n1))[1] for n1 in range(2, als.n))


def extract_factors(split: FactorSplit) -> tuple[Als, Als]:
    """Read the two factor systems off a certified split.

    The left factor lives on rows/columns 1..n1 with lam = 1; the right
    factor on rows/columns n1..n with the original lam.  Their product is
    checked against the represented polynomial exactly.
    """
    left, right = _factor_systems(split)
    if left.polynomial() * right.polynomial() != split.transformed.polynomial():
        raise RuntimeError("internal inconsistency: extracted factors do not multiply back")
    return left, right


def _factor_systems(split: FactorSplit) -> tuple[Als, Als]:
    """The two factor systems of ``extract_factors``, unchecked."""
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


def _atoms_from_system(als: Als, poly: NcPolynomial) -> list[NcPolynomial]:
    """The atoms of ``poly``, searched on ``als``, a minimal system for it.

    Each split's two factor polynomials are computed once, checked to
    multiply back to ``poly`` (so the check covers the transformation
    too), and carried into the search of their factor systems.
    """
    if als.n < 3:
        return [poly]
    split = _split_with_retries(als)
    if split is None:
        return [poly]
    left, right = _factor_systems(split)
    left_poly, right_poly = left.polynomial(), right.polynomial()
    if left_poly * right_poly != poly:
        raise RuntimeError("internal inconsistency: split factors do not multiply back")
    return _atoms_from_system(left, left_poly) + _atoms_from_system(right, right_poly)


def factor_atoms(p: NcPolynomial) -> list[NcPolynomial]:
    """Split recursively until no further split is found.

    The returned factors multiply back to p in order.  Factors are atoms
    *as far as the split search can tell*; a single-element result is not
    a proof of irreducibility.  A miss on a system where the full solve
    was capped at some position is double-checked on a few rebuilt
    representatives (small dimensions only); any other miss is final.
    Split factors are minimal (their ranks n1 + n2 = n + 1 add up as for
    any product) and are searched again as they are.  Each factor's
    polynomial is computed once, from its system, and checked against its
    parent's.  The result depends on p alone.
    """
    if p.is_zero or p.is_scalar:
        raise ValueError("factorization needs a non-scalar polynomial")
    return _atoms_from_system(minimizer.build_als(p), p)


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

