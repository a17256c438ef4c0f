"""Dense exact-rational linear algebra.

Matrices hold ``Fraction`` entries; ``to_fraction`` is the one place where
other numbers (ints, strings, floats) become ``Fraction`` and values that
already are pass through untouched.  All solving and ranking goes through
one kernel, ``_eliminate``: each row is scaled to integers by the lcm of
its denominators (``integer_scaled``, which exact evaluation shares), then
fraction-free Gauss-Jordan runs on Python ints with first-nonzero pivoting
(exact arithmetic needs no magnitude pivoting) and keeps every row
primitive.  Solutions set all free variables to zero, so results are
deterministic.  These routines back the minimization equations, the
family-rank tests, and the factorization solves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence


def to_fraction(x) -> Fraction:
    """``x`` as an exact ``Fraction``; a ``Fraction`` is returned as is."""
    return x if type(x) is Fraction else Fraction(x)


class RatMatrix:
    """Immutable rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries: Iterable[Iterable]):
        data = tuple(tuple(map(to_fraction, row)) for row in entries)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("rows must be non-empty and of equal length")
        self.data = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries: Sequence) -> "RatMatrix":
        return cls([[x] for x in entries])

    def __getitem__(self, index: tuple[int, int]) -> Fraction:
        i, j = index
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        return RatMatrix(
            [
                [
                    sum(
                        (self.data[i][k] * other.data[k][j] for k in range(self.cols)),
                        Fraction(0),
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"RatMatrix[{body}]"


def integer_scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm ``l`` of their denominators, and ``l``.

    ``values[i] == ints[i] / l`` with Python ints.  This is the package's one
    Fraction-to-integer step: elimination rows and exact products use it.
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
    solution = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        row = reduced[r]
        solution[col] = Fraction(row[width], row[col])
    return solution


def rank(a: RatMatrix) -> int:
    """Exact rank by fraction-free Gaussian elimination."""
    return len(_eliminate([_integer_row(row) for row in a.data])[1])


def is_invertible(a: RatMatrix) -> bool:
    if a.rows != a.cols:
        raise ValueError("invertibility is only defined for square matrices")
    return rank(a) == a.rows


def solve_linear(a: RatMatrix, b: RatMatrix) -> Optional[RatMatrix]:
    """Solve A x = b exactly.

    Returns the particular solution with all free variables set to zero,
    or ``None`` when the system is inconsistent.
    """
    if b.cols != 1 or b.rows != a.rows:
        raise ValueError("right-hand side must be a column of matching height")
    rows = [_integer_row(row + b.data[i]) for i, row in enumerate(a.data)]
    solution = _solve(rows, a.cols)
    return None if solution is None else RatMatrix.column(solution)


def solve_rows(
    rows: Sequence[Sequence], rhs: Sequence, width: int
) -> Optional[list[Fraction]]:
    """Solve a system given as plain lists; tolerates empty systems.

    ``rows`` are coefficient rows of length ``width``; returns a flat
    solution list (free variables zero) or ``None`` if inconsistent.
    An all-zero row is settled without elimination: ``0 = 0`` is dropped
    and ``0 = b`` with ``b != 0`` returns ``None`` at once.  Neither
    changes the result, because the reduced row echelon form of the
    remaining rows is unique.  Every row's length is checked first.
    """
    rhs = [to_fraction(x) for x in rhs]
    if width == 0:
        return [] if all(x == 0 for x in rhs) else None
    if not rows:
        return [Fraction(0)] * width
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
    return _solve(augmented, width)
