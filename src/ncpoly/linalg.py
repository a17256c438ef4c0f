"""Exact-rational linear algebra on rows given as plain lists.

Rows hold ``Fraction`` entries; ``to_fraction`` is the one place where
other numbers (ints, strings, floats) become ``Fraction`` and values that
already are pass through untouched.  All solving and ranking goes through
one kernel, ``_eliminate``: each row is scaled to integers by the lcm of
its denominators (``integer_scaled``, which exact evaluation shares), then
fraction-free Gauss-Jordan runs on Python ints with first-nonzero pivoting
(exact arithmetic needs no magnitude pivoting) and keeps every row
primitive.  Solutions set all free variables to zero, so results are
deterministic; ``solution_space`` adds one kernel vector per free
variable.  These routines back the minimization equations, the
family-rank reference in the tests, and the factorization solves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence


def to_fraction(x) -> Fraction:
    """``x`` as an exact ``Fraction``; a ``Fraction`` is returned as is."""
    return x if type(x) is Fraction else Fraction(x)


def integer_scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm ``l`` of their denominators, and ``l``.

    ``values[i] == ints[i] / l`` with Python ints.  This is the package's one
    Fraction-to-integer step: elimination rows and exact evaluation use it.
    """
    den = 1
    for x in values:
        d = x.denominator
        if d != 1 and den % d:
            den = den // gcd(den, d) * d
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """The row scaled by the lcm of its denominators, as Python ints."""
    return integer_scaled(row)[0]


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (folded pairwise, no tuple)."""
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return row
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on integer rows, in place.

    The pivot is the first nonzero entry at or below the current target row.
    Every other row with a nonzero entry ``a`` in the pivot column becomes
    ``p*row - a*pivot_row`` divided by its gcd, so each reduced row is a
    nonzero rational multiple of the row that rational Gauss-Jordan with a
    normalized pivot would give: same zero pattern, same pivots, and the
    value of a pivot variable is ``row[-1] / row[pivot]``.  Returns
    (rows, pivot column indices).
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    target = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(target, n_rows) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[target], rows[pivot_row] = rows[pivot_row], rows[target]
        prow = rows[target]
        p = prow[col]
        for r in range(n_rows):
            row = rows[r]
            a = row[col]
            if a and r != target:
                rows[r] = _primitive([p * x - a * y for x, y in zip(row, prow)])
        pivots.append(col)
        target += 1
        if target == n_rows:
            break
    return rows, pivots


def _solve(rows: list[list[int]], width: int) -> Optional[list[Fraction]]:
    """Solve augmented integer rows (constant in column ``width``).

    Free variables are zero; ``None`` when the system is inconsistent.
    """
    reduced, pivots = _eliminate(rows)
    if width in pivots:
        return None  # a pivot in the constant column: inconsistent
    return _particular(reduced, pivots, width)


def _particular(reduced: list[list[int]], pivots: list[int], width: int) -> list[Fraction]:
    """The solution of consistent reduced rows whose free variables are zero."""
    solution = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        row = reduced[r]
        solution[col] = Fraction(row[width], row[col])
    return solution


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of equal-length rows of Fractions or ints (fraction-free)."""
    return len(_eliminate([_integer_row(row) for row in rows])[1])


def _augmented(
    rows: Sequence[Sequence], rhs: Sequence[Fraction], width: int
) -> Optional[list[list[int]]]:
    """Checked rows with their right-hand sides appended, as integer rows.

    ``0 = 0`` rows are dropped, and the first ``0 = b`` row with ``b != 0``
    returns ``None``.  Every row's length is checked first.
    """
    if len(rhs) != len(rows):
        raise ValueError("right-hand side must match the number of rows")
    if any(len(row) != width for row in rows):
        raise ValueError(f"rows must have length {width}")
    augmented = []
    for row, b in zip(rows, rhs):
        row = [to_fraction(x) for x in row]
        if not any(row):
            if b:
                return None
            continue
        row.append(b)
        augmented.append(_integer_row(row))
    return augmented


def solve_rows(
    rows: Sequence[Sequence], rhs: Sequence, width: int
) -> Optional[list[Fraction]]:
    """Solve a system given as plain lists; tolerates empty systems.

    ``rows`` are coefficient rows of length ``width``; returns a flat
    solution list (free variables zero) or ``None`` if inconsistent.
    An all-zero row is settled without elimination: ``0 = 0`` is dropped
    and ``0 = b`` with ``b != 0`` returns ``None`` at once.  Neither
    changes the result, because the reduced row echelon form of the
    remaining rows is unique.  Every row's length, and the number of
    right-hand sides, is checked first.
    """
    augmented = _augmented(rows, [to_fraction(x) for x in rhs], width)
    return None if augmented is None else _solve(augmented, width)


def solution_space(
    rows: Sequence[Sequence], rhs: Sequence, width: int
) -> Optional[tuple[list[Fraction], list[list[Fraction]]]]:
    """Every solution of a system given as plain lists, or ``None``.

    Returns ``(x0, kernel)``: ``x0`` is the solution ``solve_rows`` gives
    (free variables zero), and ``kernel`` holds one vector per free
    variable, that variable 1 and the other free ones 0, so the solutions
    are exactly ``x0`` plus the span of ``kernel``, and ``len(kernel)`` is
    ``width`` minus the rank of the rows.  ``None`` when inconsistent.
    """
    augmented = _augmented(rows, [to_fraction(x) for x in rhs], width)
    if augmented is None:
        return None
    reduced, pivots = _eliminate(augmented)
    if width in pivots:
        return None
    kernel = []
    for free in sorted(set(range(width)) - set(pivots)):
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for r, col in enumerate(pivots):
            row = reduced[r]
            if row[free]:
                vector[col] = Fraction(-row[free], row[col])
        kernel.append(vector)
    return _particular(reduced, pivots, width), kernel
