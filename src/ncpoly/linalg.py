"""Exact-rational linear algebra: one sparse integer elimination kernel.

``to_fraction`` is the one place where other numbers (ints, strings,
floats) become ``Fraction``; values that already are pass through
untouched.  All solving and ranking goes through one kernel,
``add_row``: it keeps sparse integer rows (column -> nonzero int) in
reduced echelon form and grows the basis one row at a time.  A new row is
reduced fraction-free at every pivot it holds; a nonzero remainder is
divided by its gcd and joins with its least column, under the caller's
order, as pivot, and every other row is reduced at that pivot, so each
pivot is zero in every row but its own.  With least-column pivots the
basis is the reduced row echelon form of the rows added, up to one
nonzero factor per row, whatever order they come in.

``rank``, ``solve_rows`` and ``solution_space`` take dense rows of
rationals, scale each to integers by the lcm of its denominators
(``integer_scaled``, which exact evaluation shares) and keep its nonzero
entries; the right-hand side is column ``width``.  A pivot there means no
solution.  Solutions set all free variables to zero, so results are
deterministic; ``solution_space`` adds one kernel vector per free
variable.  These routines back the minimization equations, the
factorization solves, and (through ``add_row`` on word-keyed rows) the
rank of a polynomial's left-quotient space.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Hashable, Optional, Sequence


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


def _cancel(row: dict, other: dict, col) -> dict:
    """``p*row - a*other``, zero in column ``col``, as a new row.

    ``a/p`` is ``row[col]/other[col]`` in lowest terms, so no entry grows
    by more than the two pivots force.
    """
    a, p = row[col], other[col]
    g = gcd(a, p)
    a, p = a // g, p // g
    out = {c: p * x for c, x in row.items()} if p != 1 else dict(row)
    for c, x in other.items():
        y = out.get(c, 0) - a * x
        if y:
            out[c] = y
        else:
            del out[c]
    return out


def _by_gcd(row: dict) -> dict:
    """The nonzero row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def add_row(
    basis: dict, row: dict, least: Callable[[dict], Hashable] = min
) -> Optional[Hashable]:
    """Reduce ``row`` against ``basis`` and add what remains; its pivot, or None.

    ``basis`` maps each pivot to its row and is in reduced echelon form:
    every pivot is zero in every other row, and every row is primitive.
    ``least(row)`` names a column of ``row`` that is least under an order
    the caller keeps for the basis (ties allowed): ``min``, the least
    index, or the longest word.  Each basis row is zero at the other
    pivots, so cancelling one pivot of ``row`` brings back none: the
    pivots ``row`` holds are cancelled once each, in any order.  A nonzero
    remainder joins, divided by its gcd, with ``least`` of it as pivot,
    and every row holding that pivot is reduced there.  Its entries are
    no less than the pivot, so each row keeps a least column as its pivot.
    Rows are replaced, never changed in place, so a row the caller read
    from ``basis`` keeps the value it joined with (``row`` itself may
    join, uncopied).  Returns None when ``row`` lies in the span of the
    basis.
    """
    for pivot in basis.keys() & row.keys():
        row = _cancel(row, basis[pivot], pivot)
    if not row:
        return None
    row = _by_gcd(row)
    pivot = least(row)
    for other, r in basis.items():
        if pivot in r:
            basis[other] = _by_gcd(_cancel(r, row, pivot))
    basis[pivot] = row
    return pivot


def _sparse(values: Sequence) -> dict:
    """The nonzero values as Fractions scaled to integers, by column."""
    row = {c: to_fraction(x) for c, x in enumerate(values) if x}
    return {c: x for c, x in zip(row, integer_scaled(list(row.values()))[0]) if x}


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of equal-length rows of Fractions or ints (fraction-free).

    Raises ``ValueError`` when the rows differ in length.
    """
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("rows must have equal length")
    basis: dict = {}
    for row in rows:
        add_row(basis, _sparse(row))
    return len(basis)


def _reduced(rows: Sequence[Sequence], rhs: Sequence, width: int) -> Optional[dict]:
    """The basis of the checked rows with their right-hand sides in column
    ``width``, or ``None`` once a row's pivot is that column.

    Every row's length, and the number of right-hand sides, is checked
    first.
    """
    if len(rhs) != len(rows):
        raise ValueError("right-hand side must match the number of rows")
    if any(len(row) != width for row in rows):
        raise ValueError(f"rows must have length {width}")
    basis: dict = {}
    for row, b in zip(rows, rhs):
        if add_row(basis, _sparse([*row, b])) == width:
            return None
    return basis


def _particular(basis: dict, width: int) -> list[Fraction]:
    """The solution of a consistent basis whose free variables are zero."""
    solution = [Fraction(0)] * width
    for col, row in basis.items():
        solution[col] = Fraction(row.get(width, 0), row[col])
    return solution


def solve_rows(
    rows: Sequence[Sequence], rhs: Sequence, width: int
) -> Optional[list[Fraction]]:
    """Solve a system given as plain lists; tolerates empty systems.

    ``rows`` are coefficient rows of length ``width``; returns a flat
    solution list (free variables zero) or ``None`` if inconsistent, as
    it is once a row reduces to ``0 = b`` with ``b != 0``.  Every row's
    length, and the number of right-hand sides, is checked first.
    """
    basis = _reduced(rows, rhs, width)
    return None if basis is None else _particular(basis, width)


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
    basis = _reduced(rows, rhs, width)
    if basis is None:
        return None
    kernel = []
    for free in range(width):
        if free in basis:
            continue
        vector = [Fraction(0)] * width
        vector[free] = Fraction(1)
        for col, row in basis.items():
            if free in row:
                vector[col] = Fraction(-row[free], row[col])
        kernel.append(vector)
    return _particular(basis, width), kernel
