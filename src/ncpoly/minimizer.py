"""Minimization of polynomial admissible linear systems.

A system is minimal exactly when both its left family ``s = A^-1 v`` and
right family ``t = u A^-1`` are linearly independent over the rationals,
that is, when its dimension is the rank of its polynomial: the dimension
of the span of the polynomial's left quotients, which ``rank_of`` and
``is_minimal`` compute.  Dependencies are detected by solving
*minimization equations*: small exact linear systems whose solutions
(T, U) turn into row/column transformations after which one row/column
can be removed without changing the represented polynomial.

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
from math import gcd
from typing import Optional, Sequence

from . import linalg
from .freepoly import NcPolynomial, Word, word_key
from .realization import Als, _Work, _zero_cell_rows


def solve_left_minimization(
    als: Als, k: int
) -> Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Solve U + A_23 + T A_33 = 0 and v_2 + T v_3 = 0 at pivot k.

    Returns (T, U) with entries in K^{1 x (n-k)}, or None.  At k = 1 the
    transformation must keep the first row of Q equal to e1, which forces
    U = 0; solvability there certifies that the represented polynomial is
    zero.  A letter in cell (k-1, k) (0-based) decides None at once: the
    cell's one unknown, the first entry of T, multiplies the diagonal 1 of
    row k, so the letter cannot cancel.
    """
    n = als.n
    if not 1 <= k <= n - 1:
        raise IndexError(f"left pivot {k} out of range for dimension {n}")
    a = als.rows
    if not a[k - 1][k].is_scalar:
        return None
    q = n - k
    # Target: row k-1 right of the pivot.  T_r multiplies row k+r, which is
    # zero left of its diagonal.  T zeroes the letters (at k = 1 also the
    # constants); U takes the constants.
    targets = []
    for c in range(k, n):
        column = [(i - k, e) for i in range(k, c + 1) if not (e := a[i][c]).is_zero]
        targets.append((a[k - 1][c], column))
    comps = range(0 if k == 1 else 1, len(als.alphabet) + 1)
    eqs = _zero_cell_rows(targets, comps, q)
    if eqs is None:
        return None
    rows, rhs = eqs
    rows.append(list(als.rhs[k:]))
    rhs.append(-als.rhs[k - 1])
    t = linalg.solve_rows(rows, rhs, q)
    if t is None:
        return None
    assert als.rhs[k - 1] + sum(x * v for x, v in zip(t, als.rhs[k:]) if x) == 0
    return tuple(t), _other_unknown(targets, t, k == 1)


def solve_right_minimization(
    als: Als, k: int
) -> Optional[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Solve A_11 U + A_12 + T = 0 at pivot k.

    Returns (T, U) with entries in K^{(k-1) x 1}, or None.  Admissibility
    forbids touching the first column, so U_1 must be 0.  No letter of
    A_11 lies in its first column, so U_1 is a free unknown, and free
    unknowns are 0.  A letter in cell (k-2, k-1) (0-based) decides None at
    once: the cell's one unknown, the last entry of U, multiplies the
    diagonal 1 of row k-2, so the letter cannot cancel.
    """
    n = als.n
    if not 2 <= k <= n:
        raise IndexError(f"right pivot {k} out of range for dimension {n}")
    a = als.rows
    if not a[k - 2][k - 1].is_scalar:
        return None
    q = k - 1
    # Target: column k-1 above the diagonal.  U_c multiplies column c,
    # which is zero below its diagonal.  U zeroes the letters; T takes
    # the constants.
    targets = [
        (a[i][q], [(c, e) for c in range(i, q) if not (e := a[i][c]).is_zero])
        for i in range(q)
    ]
    eqs = _zero_cell_rows(targets, range(1, len(als.alphabet) + 1), q)
    u = None if eqs is None else linalg.solve_rows(*eqs, q)
    if u is None:
        return None
    return _other_unknown(targets, u, False), tuple(u)


def _other_unknown(targets, x, constants_zeroed: bool) -> tuple[Fraction, ...]:
    """The other unknown, U on the left and T on the right, for the unknowns x.

    Each target's residual ``entry + sum x_v * e_v`` is computed once.  It
    is the line that the removal step drops, less the other unknown, so its
    letters (and, where the solver zeroed them, its constants) must be
    zero: this is the check that the removal keeps the polynomial.  The
    other unknown is minus the residual's constant part.
    """
    out = []
    for entry, terms in targets:
        residual = list(entry.coeffs)
        for v, e in terms:
            if xv := x[v]:
                for c, y in enumerate(e.coeffs):
                    if y:
                        residual[c] += xv * y
        assert not any(residual[1:]) and not (constants_zeroed and residual[0])
        out.append(-residual[0])
    return tuple(out)


def _left_step(work: _Work, k: int, u) -> None:
    """Column k+j += U_j . column k; drop k.

    Row k += T . (rows below) would zero row k and v_k (the solver checked
    the residual), so that row mix is never formed.  Row k is dropped
    first, so the column moves write only the rows that stay: the row that
    takes its place is zero in column k, so they read the rows above.
    """
    work.drop_row(k)
    for j, x in enumerate(u, k):
        if x:
            work.add_cols(j, [(x, k - 1)])
    work.drop_col(k)


def _right_step(work: _Work, k: int, t) -> None:
    """Row i += T_i . row k for i < k; drop k.

    Column k += sum_i U_i . column i would zero column k above the diagonal
    (the solver checked the residual), so that column mix is never formed.
    Column k is dropped first, so the row moves write only the columns
    that stay: row k then reads on from the column after its diagonal.
    """
    work.drop_col(k)
    for i, x in enumerate(t):
        if x:
            work.add_rows(i, [(x, k - 1)])
    work.drop_row(k)


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
            _left_step(work, pivot, left[1])
            if trace is not None:
                trace.append(f"L k={pivot} dim={work.n}")
            if k > 2 and 2 * k > n + 1:
                k -= 1
            continue
        right = solve_right_minimization(work, k)
        if right is not None:
            _right_step(work, k, right[0])
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
    work = _Work.thaw(als)
    _reduce(work, trace)
    return work.freeze()


def _is_reduced(als: Als) -> bool:
    """True when no minimization equation of ``als`` is solvable.

    These are the solvers and pivots ``minimize`` scans (left at 1..n-1,
    right at 2..n), so True means ``minimize`` would not shrink the
    system; for a polynomial ALS that is minimality.  On a minimal system
    most pivots are decided by the letter in one superdiagonal cell, and
    most other equations stop at their first 0 = b row, so this is far
    cheaper than ``is_minimal``, which expands the polynomial and ranks
    its left quotients and stays the independent certificate.
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
    for word in words:
        work.add_monomial(word, p.coefficient(word))
        _reduce(work, None)
    return work.freeze()


def _quotient_rank(p: NcPolynomial) -> int:
    """Dimension of the span of the left quotients ``w^-1 p``: the rank of p.

    ``(w^-1 p)(u) = p(wu)``, and the span is the smallest space that holds
    p and is closed under every ``x^-1``, so the closure takes ``x^-1`` of
    each basis vector once.  Vectors are sparse word-keyed integer rows
    (the coefficients scaled to ints once; rank does not see the scale),
    not ``linalg``'s dense rows: their words are known only as the closure
    grows, and p_6's 1,093 prefixes would make every row that long.
    Each new vector is reduced fraction-free against the basis in the
    order it grew: every basis vector is zero at the pivots of those
    before it, so a subtraction never brings back an earlier pivot.  The
    pivot is a word of highest degree, which the lower-degree quotients
    rarely hold.
    """
    terms = p.term_map()
    start = dict(zip(terms, linalg.integer_scaled(list(terms.values()))[0]))
    basis: list[tuple[Word, dict[Word, int]]] = []
    if start:
        basis.append((max(start, key=len), start))
    d = len(p.alphabet)
    for _, vector in basis:  # grows while it is read
        quotients: list[dict[Word, int]] = [{} for _ in range(d)]
        for word, c in vector.items():
            if word:
                quotients[word[0]][word[1:]] = c
        for q in quotients:
            for pivot, b in basis:
                a = q.get(pivot)
                if a:
                    pb = b[pivot]
                    g = gcd(a, pb)
                    a, pb = a // g, pb // g
                    if pb != 1:
                        for word in q:
                            q[word] *= pb
                    for word, c in b.items():
                        x = q.get(word, 0) - a * c
                        if x:
                            q[word] = x
                        else:
                            del q[word]
            if q:
                g = gcd(*q.values())
                if g != 1:
                    q = {word: c // g for word, c in q.items()}
                basis.append((max(q, key=len), q))
    return len(basis)


def rank_of(p: NcPolynomial) -> int:
    """Dimension of a minimal linear representation of p.

    The dimension of the span of p's left quotients (``_quotient_rank``);
    no system is built.  rank 0 iff p = 0; rank 1 for nonzero scalars;
    degree + 1 in the univariate case.
    """
    return _quotient_rank(p)


def is_minimal(als: Als) -> bool:
    """Exact minimality certificate: the dimension equals the rank.

    An ALS of dimension n for p is minimal exactly when n is the rank of
    p, the dimension of the span of p's left quotients.  The polynomial is
    expanded once, from the left family, and ranked by ``_quotient_rank``;
    neither the minimization equations nor the right family are used.
    """
    return als.n == _quotient_rank(als.polynomial())
