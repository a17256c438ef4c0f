"""Minimization of polynomial admissible linear systems.

A system is minimal exactly when both its left family ``s = A^-1 v`` and
right family ``t = u A^-1`` are linearly independent over the rationals.
Dependencies are detected by solving *minimization equations*: small exact
linear systems whose solutions (T, U) turn into row/column transformations
after which one row/column can be removed without changing the represented
polynomial.

Pivot indices in this module are 1-based, matching the block decomposition

    [A_11  A_12  A_13]       [v_1]
    [  0    1    A_23]   v = [v_2]
    [  0    0    A_33]       [v_3]

with row/column ``k`` in the middle.  The left equations at pivot k are
``U + A_23 + T A_33 = 0`` and ``v_2 + T v_3 = 0``; the right equations are
``A_11 U + A_12 + T = 0``.  Both split per pencil component into rational
systems because T and U are scalar.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .freepoly import NcPolynomial, Word, word_key
from .realization import (
    Als,
    _transform,
    als_add,
    minimal_monomial,
    restore_polynomial_form,
)


def solve_left_minimization(
    als: Als, k: int
) -> Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Solve U + A_23 + T A_33 = 0 and v_2 + T v_3 = 0 at pivot k.

    Returns (T, U) with entries in K^{1 x (n-k)}, or None.  At k = 1 the
    transformation must keep the first row of Q equal to e1, which forces
    U = 0; solvability there certifies that the represented polynomial is
    zero.
    """
    n = als.n
    if not 1 <= k <= n - 1:
        raise IndexError(f"left pivot {k} out of range for dimension {n}")
    a23 = als.rows[k - 1][k:]
    a33 = [row[k:] for row in als.rows[k:]]
    q = n - k
    d = len(als.alphabet)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    components = range(d + 1) if k == 1 else range(1, d + 1)
    for comp in components:
        for j in range(q):
            row = [a33[r][j].coeffs[comp] for r in range(q)]
            b = a23[j].coeffs[comp]
            if any(row):
                rows.append(row)
                rhs.append(-b)
            elif b:
                return None  # 0 = b: unsolvable, no elimination needed
    rows.append(list(als.rhs[k:]))
    rhs.append(-als.rhs[k - 1])
    t = linalg.solve_rows(rows, rhs, q)
    if t is None:
        return None
    live = [(r, x) for r, x in enumerate(t) if x]  # free variables are 0
    u = [
        -(
            a23[j].constant
            + sum((x * a33[r][j].constant for r, x in live), Fraction(0))
        )
        for j in range(q)
    ]
    return tuple(t), tuple(u)


def solve_right_minimization(
    als: Als, k: int
) -> Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Solve A_11 U + A_12 + T = 0 at pivot k.

    Returns (T, U) with entries in K^{(k-1) x 1}, or None.  Admissibility
    forbids touching the first column, so U_1 = 0 is imposed.
    """
    n = als.n
    if not 2 <= k <= n:
        raise IndexError(f"right pivot {k} out of range for dimension {n}")
    q = k - 1
    a11 = [row[:q] for row in als.rows[:q]]
    a12 = [row[q] for row in als.rows[:q]]
    d = len(als.alphabet)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for comp in range(1, d + 1):
        for i in range(q):
            row = [a11[i][c].coeffs[comp] for c in range(q)]
            b = a12[i].coeffs[comp]
            if any(row):
                rows.append(row)
                rhs.append(-b)
            elif b:
                return None  # 0 = b: unsolvable, no elimination needed
    rows.append([Fraction(1)] + [Fraction(0)] * (q - 1))  # U_1 = 0
    rhs.append(Fraction(0))
    u = linalg.solve_rows(rows, rhs, q)
    if u is None:
        return None
    live = [(c, x) for c, x in enumerate(u) if x]  # free variables are 0
    t = [
        -(
            a12[i].constant
            + sum((a11[i][c].constant * x for c, x in live), Fraction(0))
        )
        for i in range(q)
    ]
    return tuple(t), tuple(u)


def _drop(als: Als, k: int) -> Als:
    """Remove row/column k (1-based)."""
    p = k - 1
    return Als(
        als.alphabet,
        [row[:p] + row[k:] for i, row in enumerate(als.rows) if i != p],
        als.rhs[:p] + als.rhs[k:],
    )


def _left_step(als: Als, k: int, t, u) -> Als:
    """Row k += T . (rows below), column k+j += U_j . column k; drop k."""
    p = k - 1
    row_mix = {p: [(p, Fraction(1))] + [(k + j, x) for j, x in enumerate(t) if x]}
    col_mix = {k + j: [(k + j, Fraction(1)), (p, x)] for j, x in enumerate(u) if x}
    als = _transform(als, row_mix, col_mix)
    assert all(entry.is_zero for entry in als.rows[p][k:]) and als.rhs[p] == 0
    return _drop(als, k)


def _right_step(als: Als, k: int, t, u) -> Als:
    """Row i += T_i . row k (i < k), column k += sum_i U_i . column i; drop k."""
    p = k - 1
    row_mix = {i: [(i, Fraction(1)), (p, x)] for i, x in enumerate(t) if x}
    col_mix = {p: [(i, x) for i, x in enumerate(u) if x] + [(p, Fraction(1))]}
    als = _transform(als, row_mix, col_mix)
    assert all(row[p].is_zero for row in als.rows[:p])
    return _drop(als, k)


def _trim(als: Als) -> Als:
    """Cut the rows and columns after the last nonzero v_i.

    Back substitution makes every cut s_j zero, so s_1, the represented
    polynomial, is unchanged, and the last right-hand side entry of the
    result is nonzero.  Needs some v_i != 0.
    """
    m = max(i for i, x in enumerate(als.rhs) if x) + 1
    if m == als.n:
        return als
    return Als(als.alphabet, [row[:m] for row in als.rows[:m]], als.rhs[:m])


def minimize(als: Als, trace: Optional[list[str]] = None) -> Als:
    """Reduce to a minimal polynomial ALS for the same polynomial.

    Scans pivots with the decrement rule so every removable row/column is
    found; the final dimension equals the rank of the polynomial.  Returns
    the empty system exactly when the polynomial is zero.  Input may have a
    general right-hand side, v_n = 0 included; the system is cut after its
    last nonzero v_i and polynomial form is restored first (and again at
    the end, since a removal at the last pivot can disturb it).
    """
    if als.is_empty:
        return als
    if all(x == 0 for x in als.rhs):
        return Als.empty(als.alphabet)
    als = restore_polynomial_form(_trim(als))
    k = 2
    while k <= als.n:
        n = als.n
        pivot = n + 1 - k
        left = solve_left_minimization(als, pivot) if pivot >= 1 else None
        if left is not None:
            if pivot == 1:
                return Als.empty(als.alphabet)
            als = _left_step(als, pivot, *left)
            if trace is not None:
                trace.append(f"L k={pivot} dim={als.n}")
            if k > 2 and 2 * k > n + 1:
                k -= 1
            continue
        right = solve_right_minimization(als, k)
        if right is not None:
            als = _right_step(als, k, *right)
            if trace is not None:
                trace.append(f"R k={k} dim={als.n}")
            if k > 2 and 2 * k > n + 1:
                k -= 1
            continue
        k += 1
    if all(x == 0 for x in als.rhs):
        return Als.empty(als.alphabet)
    return restore_polynomial_form(als)


def _is_reduced(als: Als) -> bool:
    """True when no minimization equation of ``als`` is solvable.

    These are the solvers and pivots ``minimize`` scans (left at 1..n-1,
    right at 2..n), so True means ``minimize`` would not shrink the
    system; for a polynomial ALS that is minimality.  Unsolvable equations
    mostly stop at their first 0 = b row, so on a minimal system this is
    far cheaper than the family ranks of ``is_minimal``, which stays the
    independent certificate.
    """
    n = als.n
    return all(solve_left_minimization(als, k) is None for k in range(1, n)) and all(
        solve_right_minimization(als, k) is None for k in range(2, n + 1)
    )


def build_als(
    p: NcPolynomial, insertion_order: Optional[Sequence[Word]] = None
) -> Als:
    """Minimal polynomial ALS for p, built monomial by monomial.

    Each monomial's bidiagonal system is added and the sum is minimized
    before the next one, keeping intermediate dimensions near-minimal.
    The default insertion order is canonical deglex (lowest degree first);
    the final dimension is order-independent, though the sparsity of the
    result is not.
    """
    if insertion_order is None:
        words = sorted(p.support(), key=word_key)
    else:
        words = list(insertion_order)
        if sorted(words, key=word_key) != sorted(p.support(), key=word_key):
            raise ValueError("insertion order must be a permutation of the support")
    acc = Als.empty(p.alphabet)
    for word in words:
        mono = minimal_monomial(p.alphabet, word, p.coefficient(word))
        acc = minimize(als_add(acc, mono))
    return acc


def rank_of(p: NcPolynomial) -> int:
    """Dimension of a minimal linear representation of p.

    rank 0 iff p = 0; rank 1 for nonzero scalars; degree + 1 in the
    univariate case.
    """
    return build_als(p).n


def _family_rank(family: Sequence[NcPolynomial]) -> int:
    support = sorted(set().union(*(q.support() for q in family)), key=word_key)
    if not support:
        return 0
    matrix = linalg.RatMatrix(
        [[q.coefficient(w) for w in support] for q in family]
    )
    return linalg.rank(matrix)


def is_minimal(als: Als) -> bool:
    """Exact minimality certificate: both families linearly independent.

    The families are computed symbolically and stacked as coefficient
    vectors over their joint word support; independence is a rational rank
    computation.
    """
    if als.is_empty:
        return True
    n = als.n
    return (
        _family_rank(als.left_family()) == n
        and _family_rank(als.right_family()) == n
    )
