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
from .freepoly import Alphabet, NcPolynomial, Word, word_key
from .realization import (
    Als,
    LinearEntry,
    _append_summand,
    _mix_in_place,
    _monomial_block,
    _restoring_cells,
)


_ZERO = Fraction(0)


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
    a = als.rows
    q = n - k
    d = len(als.alphabet)
    # Column j of A_33 below its diagonal is zero; on it, the scalar 1.  So
    # a letter equation reads rows r < j, the constant one (k = 1) r <= j.
    if k == 1:
        components = range(d + 1)
        columns = [
            [(r, e) for r in range(j + 1) if not (e := a[k + r][k + j]).is_zero]
            for j in range(q)
        ]
    else:
        components = range(1, d + 1)
        columns = [
            [(r, e) for r in range(j) if not (e := a[k + r][k + j]).is_scalar]
            for j in range(q)
        ]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for comp in components:
        for j, column in enumerate(columns):
            row = None
            for r, entry in column:
                x = entry.coeffs[comp]
                if x:
                    if row is None:
                        row = [_ZERO] * q
                    row[r] = x
            b = a[k - 1][k + j].coeffs[comp]
            if row is not None:
                rows.append(row)
                rhs.append(-b)
            elif b:
                return None  # 0 = b: unsolvable, no elimination needed
    rows.append(list(als.rhs[k:]))
    rhs.append(-als.rhs[k - 1])
    t = linalg.solve_rows(rows, rhs, q)
    if t is None:
        return None
    live = [(k + r, x) for r, x in enumerate(t) if x]  # free variables are 0
    u = [
        -(
            a[k - 1][c].constant
            + sum((x * e for i, x in live if (e := a[i][c].constant)), _ZERO)
        )
        for c in range(k, n)
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
    a = als.rows
    q = k - 1
    d = len(als.alphabet)
    # Row i of A_11 has letters only right of its diagonal.
    lines = [
        [(c, e) for c in range(i + 1, q) if not (e := a[i][c]).is_scalar]
        for i in range(q)
    ]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for comp in range(1, d + 1):
        for i, line in enumerate(lines):
            row = None
            for c, entry in line:
                x = entry.coeffs[comp]
                if x:
                    if row is None:
                        row = [_ZERO] * q
                    row[c] = x
            b = a[i][q].coeffs[comp]
            if row is not None:
                rows.append(row)
                rhs.append(-b)
            elif b:
                return None  # 0 = b: unsolvable, no elimination needed
    rows.append([Fraction(1)] + [_ZERO] * (q - 1))  # U_1 = 0
    rhs.append(_ZERO)
    u = linalg.solve_rows(rows, rhs, q)
    if u is None:
        return None
    live = [(c, x) for c, x in enumerate(u) if x]  # free variables are 0
    t = [
        -(
            a[i][q].constant
            + sum((e * x for c, x in live if (e := a[i][c].constant)), _ZERO)
        )
        for i in range(q)
    ]
    return tuple(t), tuple(u)


class _Work:
    """A system under minimization: mutable rows and right-hand side.

    The steps below edit it in place and validate nothing; the solvers read
    it like an ``Als`` (``rows``, ``rhs``, ``alphabet``, ``n``).  ``freeze``
    validates it once, as the ``Als`` it returns.
    """

    __slots__ = ("alphabet", "rows", "rhs", "zero")

    def __init__(self, alphabet: Alphabet, rows=(), rhs=()):
        self.alphabet = alphabet
        self.rows = [list(row) for row in rows]
        self.rhs = list(rhs)
        self.zero = LinearEntry.zero(len(alphabet))

    @property
    def n(self) -> int:
        return len(self.rows)

    def freeze(self) -> Als:
        return Als(self.alphabet, self.rows, self.rhs)

    def mix(self, p_cells, q_cells) -> None:
        _mix_in_place(self.rows, self.rhs, p_cells, q_cells, self.zero)

    def cut(self, m: int) -> None:
        """Keep the first m rows and columns."""
        del self.rows[m:], self.rhs[m:]
        for row in self.rows:
            del row[m:]

    def drop(self, k: int) -> None:
        """Remove row/column k (1-based)."""
        p = k - 1
        del self.rows[p], self.rhs[p]
        for row in self.rows:
            del row[p]

    def restore_polynomial_form(self) -> None:
        """As ``realization.restore_polynomial_form``, in place."""
        self.mix(_restoring_cells(self.rhs), {})


def _left_step(work: _Work, k: int, t, u) -> None:
    """Row k += T . (rows below), column k+j += U_j . column k; drop k."""
    p = k - 1
    work.mix(
        {(p, k + j): x for j, x in enumerate(t) if x},
        {(p, k + j): x for j, x in enumerate(u) if x},
    )
    assert all(entry.is_zero for entry in work.rows[p][k:]) and work.rhs[p] == 0
    work.drop(k)


def _right_step(work: _Work, k: int, t, u) -> None:
    """Row i += T_i . row k (i < k), column k += sum_i U_i . column i; drop k."""
    p = k - 1
    work.mix(
        {(i, p): x for i, x in enumerate(t) if x},
        {(i, p): x for i, x in enumerate(u) if x},
    )
    assert all(row[p].is_zero for row in work.rows[:p])
    work.drop(k)


def _trim(work: _Work) -> None:
    """Cut the rows and columns after the last nonzero v_i.

    Back substitution makes every cut s_j zero, so s_1, the represented
    polynomial, is unchanged, and the last right-hand side entry of the
    result is nonzero.  Needs some v_i != 0.
    """
    work.cut(max(i for i, x in enumerate(work.rhs) if x) + 1)


def _reduce(work: _Work, trace: Optional[list[str]]) -> None:
    """Minimize the working system in place (see ``minimize``)."""
    if not any(work.rhs):
        work.cut(0)
        return
    _trim(work)
    work.restore_polynomial_form()
    k = 2
    while k <= work.n:
        n = work.n
        pivot = n + 1 - k
        left = solve_left_minimization(work, pivot) if pivot >= 1 else None
        if left is not None:
            if pivot == 1:
                work.cut(0)
                if trace is not None:
                    trace.append("L k=1 dim=0")
                return
            _left_step(work, pivot, *left)
            if trace is not None:
                trace.append(f"L k={pivot} dim={work.n}")
            if k > 2 and 2 * k > n + 1:
                k -= 1
            continue
        right = solve_right_minimization(work, k)
        if right is not None:
            _right_step(work, k, *right)
            if trace is not None:
                trace.append(f"R k={k} dim={work.n}")
            if k > 2 and 2 * k > n + 1:
                k -= 1
            continue
        k += 1
    if not any(work.rhs):
        work.cut(0)
        return
    work.restore_polynomial_form()


def minimize(als: Als, trace: Optional[list[str]] = None) -> Als:
    """Reduce to a minimal polynomial ALS for the same polynomial.

    Scans pivots with the decrement rule so every removable row/column is
    found; the final dimension equals the rank of the polynomial.  Returns
    the empty system exactly when the polynomial is zero.  Input may have a
    general right-hand side, v_n = 0 included; the system is cut after its
    last nonzero v_i and polynomial form is restored first (and again at
    the end, since a removal at the last pivot can disturb it).  The steps
    edit one working copy; the result is validated once.
    """
    if als.is_empty:
        return als
    work = _Work(als.alphabet, als.rows, als.rhs)
    _reduce(work, trace)
    return work.freeze()


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
    All of it happens on one working system, validated once at the end.
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
    work = _Work(p.alphabet)
    d = len(p.alphabet)
    for word in words:
        rows, rhs = _monomial_block(word, p.coefficient(word), d)
        _append_summand(work.rows, work.rhs, rows, rhs, d)
        _reduce(work, None)
    return work.freeze()


def rank_of(p: NcPolynomial) -> int:
    """Dimension of a minimal linear representation of p.

    rank 0 iff p = 0; rank 1 for nonzero scalars; degree + 1 in the
    univariate case.
    """
    return build_als(p).n


def _family_rank(family: Sequence[NcPolynomial]) -> int:
    """Rank of the family's coefficient rows over their joint word support."""
    terms = [q.term_map() for q in family]
    support = set().union(*terms)  # the rank does not depend on column order
    if not support:
        return 0
    return linalg.rank([[t.get(w, _ZERO) for w in support] for t in terms])


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
