"""Evaluation of linear systems on matrix tuples, with multiplication counts.

Evaluating a polynomial ALS never inverts anything.  One substitution loop
serves every evaluator: it keeps a list of tracked values, and each step
appends ``-sum_j a_ij s_j`` (left family: entry on the left, bottom-up from
``s_n = lam*I`` to ``s_1 = p``) or ``-sum_i t_i a_ij`` (right family: entry
on the right, top-down from ``t_1 = I``).  A block factorization is the
right family of its block system, walked one factor at a time; a product of
systems folds the left-evaluated factors with the same counted product.
Each pencil entry ``c0*I + c1*X1 + ... + cd*Xd`` is formed just before its
product (additions and scalings only) and dropped after it; an entry that
is one letter with coefficient 1 is that letter's matrix itself, read and
never written.  Entries and step totals accumulate in place, and an entry's
constant or a step's scalar is added on the diagonal, so no identity matrix
is built.  An exact product scales each operand to Python ints by the lcm
of its denominators, multiplies the ints once and divides by the product
of the two lcms, instead of reducing a ``Fraction`` at every scalar step.

A tracked value is a plain scalar, standing for that multiple of the
identity, or a full matrix.  Only matrix-times-matrix products are counted;
products with scalars are O(m^2) scalings and stay uncounted, which is
exactly why the static counts N_s / N_t exclude the last column
respectively the first row.

Exact and float evaluation run the same code: only ``MatrixTuple`` knows its
mode, through ``coeff`` (a rational in the tuple's arithmetic) and
``identity``, and its arrays carry it as their dtype (``Fraction`` objects
or float64), which is all the product looks at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import FormatError
from .factorizer import BlockFactorization
from .freepoly import identity_matrix
from .linalg import integer_scaled, to_fraction
from .realization import Als, LinearEntry, _frac_str, _parse_frac

RAT = "rat"
F64 = "f64"


@dataclass(frozen=True)
class MatrixTuple:
    """One square matrix per letter, all of the same size and mode.

    The constructor stores its own copies in the mode's arithmetic: every
    exact entry becomes a ``Fraction`` (``linalg.to_fraction``) in an object
    array, every f64 matrix a float64 array.
    """

    mats: tuple[np.ndarray, ...]
    mode: str  # RAT (Fraction entries) or F64

    def __post_init__(self):
        if self.mode not in (RAT, F64):
            raise ValueError(f"mode must be {RAT!r} or {F64!r}")
        dtype = object if self.mode == RAT else float
        mats = tuple(np.array(mat, dtype=dtype) for mat in self.mats)
        if not mats:
            raise ValueError("need at least one matrix")
        m = mats[0].shape[0] if mats[0].ndim else 0
        for mat in mats:
            if mat.shape != (m, m):
                raise ValueError("matrices must all be square of the same size")
        if self.mode == RAT:
            mats = tuple(
                np.array([to_fraction(x) for x in mat.ravel().tolist()],
                         dtype=object).reshape(m, m)
                for mat in mats
            )
        object.__setattr__(self, "mats", mats)

    @classmethod
    def exact(cls, mats: Sequence[Sequence[Sequence]]) -> "MatrixTuple":
        return cls(tuple(mats), RAT)

    @classmethod
    def floating(cls, mats: Sequence) -> "MatrixTuple":
        return cls(tuple(mats), F64)

    @property
    def m(self) -> int:
        return self.mats[0].shape[0]

    @property
    def d(self) -> int:
        return len(self.mats)

    @property
    def is_exact(self) -> bool:
        return self.mode == RAT

    def coeff(self, value: Fraction):
        """A rational in this tuple's arithmetic: Fraction, or float in f64."""
        return value if self.is_exact else float(value)

    def identity(self) -> np.ndarray:
        """A fresh m x m identity in this tuple's arithmetic."""
        return identity_matrix(self.m, self.is_exact)

    def to_float(self) -> "MatrixTuple":
        if self.mode == F64:
            return self
        return MatrixTuple(self.mats, F64)


@dataclass(frozen=True)
class EvalReport:
    """Evaluation result plus the number of matrix products actually done."""

    result: np.ndarray
    mult_count: int
    side: str  # "left" or "right"


def random_rational_tuple(
    rng, d: int, m: int, max_num: int = 4, max_den: int = 4
) -> MatrixTuple:
    """Seeded random exact tuple; handy for oracle-equivalence checks."""
    mats = [
        [
            [
                Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        for _ in range(d)
    ]
    return MatrixTuple.exact(mats)


# -- the substitution loop ------------------------------------------------------
#
# A tracked value is a plain scalar, standing for that multiple of the
# identity, or an ndarray.  Every ndarray the loop creates is its own and
# may be written in place; a letter matrix of the tuple is only read.


def _exact_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` on ``Fraction`` arrays, as one product of Python ints.

    Each operand is scaled to ints by the lcm of its denominators, so the
    inner products add ints and only the m^2 results are reduced, each as
    ``Fraction(c, la * lb)``.
    """
    ints_a, la = integer_scaled(left.ravel().tolist())
    ints_b, lb = integer_scaled(right.ravel().tolist())
    product = (
        np.array(ints_a, dtype=object).reshape(left.shape)
        @ np.array(ints_b, dtype=object).reshape(right.shape)
    )
    den = la * lb
    entries = [Fraction(c, den) for c in product.ravel().tolist()]
    return np.array(entries, dtype=object).reshape(product.shape)


def _product(left, right):
    """left * right on tracked values, and 1 if it was a matrix product.

    An ndarray result is always a new array.  A scalar-zero operand gives
    scalar zero, so a zero factor keeps the rest of a fold scalar and free.
    """
    if isinstance(left, np.ndarray):
        if isinstance(right, np.ndarray):
            if left.dtype == object:
                return _exact_matmul(left, right), 1
            return left @ right, 1
        return (left * right if right else right), 0
    return (left * right if left else left), 0


def _add_to_diagonal(mat: np.ndarray, scalar) -> None:
    """mat += scalar * I, in place."""
    diagonal = np.arange(mat.shape[0])
    mat[diagonal, diagonal] += scalar


def _entry_value(entry: LinearEntry, tup: MatrixTuple):
    """A pencil entry's value; additions and scalings only, no products.

    A single letter with coefficient 1 is ``tup.mats[k]`` itself, which
    the caller must not write; any other matrix entry is a new array.
    """
    if entry.is_scalar:
        return tup.coeff(entry.constant)
    letters = [(k, c) for k, c in enumerate(entry.coeffs[1:]) if c]
    if len(letters) == 1 and letters[0][1] == 1 and not entry.constant:
        return tup.mats[letters[0][0]]
    acc = None
    for k, coeff in letters:
        mat = tup.mats[k]
        if acc is None:
            acc = mat.copy() if coeff == 1 else tup.coeff(coeff) * mat
        elif coeff == 1:
            acc += mat
        elif coeff == -1:
            acc -= mat
        else:
            acc += tup.coeff(coeff) * mat
    if entry.constant:
        _add_to_diagonal(acc, tup.coeff(entry.constant))
    return acc


def _substitute(tup: MatrixTuple, values: list, steps, entry_left: bool) -> int:
    """Append one tracked value per step; return the matrix products done.

    A step is ``(negate, terms)`` with ``terms`` pairs ``(src, entry)``; it
    appends ``-/+ sum of values[src] * entry``, the entry on the left (left
    family) or on the right (right family).  Zero entries and scalar-zero
    values are skipped; each entry is formed just before its product.  The
    step's matrix total is the first term's new array, summed into in place.
    """
    count = 0
    for negate, terms in steps:
        scalar, total = tup.coeff(Fraction(0)), None
        for src, entry in terms:
            value = values[src]
            if entry.is_zero or (not isinstance(value, np.ndarray) and value == 0):
                continue
            if entry_left:
                term, counted = _product(_entry_value(entry, tup), value)
            else:
                term, counted = _product(value, _entry_value(entry, tup))
            count += counted
            if not isinstance(term, np.ndarray):
                scalar = scalar - term if negate else scalar + term
            elif total is None:
                total = np.negative(term, out=term) if negate else term
            elif negate:
                total -= term
            else:
                total += term
            del term  # free it before the next entry is formed
        if total is not None and scalar:
            _add_to_diagonal(total, scalar)
        values.append(scalar if total is None else total)
    return count


def _report(tup: MatrixTuple, value, count: int, side: str) -> EvalReport:
    if not isinstance(value, np.ndarray):
        value = value * tup.identity()
    return EvalReport(value, count, side)


def _check_compatible(alphabet, tup: MatrixTuple) -> None:
    if tup.d != len(alphabet):
        raise ValueError(
            f"tuple has {tup.d} matrices but the alphabet has {len(alphabet)}"
        )


def _left_value(als: Als, tup: MatrixTuple):
    """Tracked value of s_1 and the matrix products spent on it."""
    _check_compatible(als.alphabet, tup)
    if als.is_empty:
        return tup.coeff(Fraction(0)), 0
    n = als.n
    values = [tup.coeff(als.lam)]  # values[k] holds s_{n-k} (1-based s)
    steps = (
        (True, [(n - 1 - j, als.rows[i][j]) for j in range(i + 1, n)])
        for i in range(n - 2, -1, -1)
    )
    count = _substitute(tup, values, steps, entry_left=True)
    return values[-1], count


def evaluate_left(als: Als, tup: MatrixTuple) -> EvalReport:
    """Back substitution s_n = lam*I, s_i = -sum_{j>i} a_ij s_j; result s_1."""
    return _report(tup, *_left_value(als, tup), "left")


def evaluate_right(als: Als, tup: MatrixTuple) -> EvalReport:
    """Forward substitution t_1 = I, t_j = -sum_{i<j} t_i a_ij; result lam*t_n."""
    _check_compatible(als.alphabet, tup)
    if als.is_empty:
        return _report(tup, tup.coeff(Fraction(0)), 0, "right")
    lam = tup.coeff(als.lam)
    values = [tup.coeff(Fraction(1))]
    steps = (
        (True, [(i, als.rows[i][j]) for i in range(j)]) for j in range(1, als.n)
    )
    count = _substitute(tup, values, steps, entry_left=False)
    return _report(tup, lam * values[-1], count, "right")


# -- static multiplication counts ---------------------------------------------


def count_ns(als: Als) -> int:
    """Non-scalar entries in the upper-left (n-1) x (n-1) block."""
    n = als.n
    if n < 2:
        return 0
    return sum(
        1
        for i in range(n - 1)
        for j in range(i + 1, n - 1)
        if not als.rows[i][j].is_scalar
    )


def count_nt(als: Als) -> int:
    """Non-scalar entries in the lower-right (n-1) x (n-1) block."""
    n = als.n
    if n < 2:
        return 0
    return sum(
        1
        for i in range(1, n)
        for j in range(i + 1, n)
        if not als.rows[i][j].is_scalar
    )


def count_n(als: Als) -> int:
    """min(N_s, N_t): the cheaper of the two evaluation directions."""
    if als.n < 2:
        return 0
    return min(count_ns(als), count_nt(als))


def complexity_bounds(n: int) -> tuple[int, int]:
    """Bounds n-2 <= N(p) <= (n-1)(n-2)/2 for a polynomial of rank n >= 2."""
    if n < 2:
        raise ValueError("bounds are defined for rank >= 2")
    return n - 2, (n - 1) * (n - 2) // 2


# -- block factorizations -------------------------------------------------------


def evaluate_block_factorization(
    bf: BlockFactorization, tup: MatrixTuple
) -> EvalReport:
    """Evaluate a chain of rectangular pencil matrices left to right.

    This is the right family of ``bf.to_block_als()``, walked one factor at
    a time without building that system: the values of a factor's columns
    depend only on those of its rows, so two blocks of values are alive at
    once.
    """
    _check_compatible(bf.alphabet, tup)
    row = [tup.coeff(Fraction(1))]
    count = 0
    for grid in bf.factors:
        steps = ((False, list(enumerate(column))) for column in zip(*grid))
        count += _substitute(tup, row, steps, entry_left=False)
        row = row[len(grid):]
    return _report(tup, row[0], count, "right")


def evaluate_product(systems: Sequence[Als], tup: MatrixTuple) -> EvalReport:
    """Evaluate a product of polynomials, each given by a polynomial ALS.

    Every factor is evaluated through its own system (left side), then the
    results are chained left to right with the same counted product, so
    scalar factors never cost a product, and after a zero factor no later
    factor does either.
    """
    if not systems:
        raise ValueError("need at least one factor")
    value, count = tup.coeff(Fraction(1)), 0
    for als in systems:
        factor, factor_count = _left_value(als, tup)
        value, counted = _product(value, factor)
        count += factor_count + counted
    return _report(tup, value, count, "left")


# -- matrix tuple files ---------------------------------------------------------


def _matrix_lines(mat: np.ndarray, exact: bool) -> list[str]:
    """Rows of one matrix as in matrix files: n/d rationals or float reprs."""
    fmt = _frac_str if exact else (lambda x: repr(float(x)))
    return [" ".join(fmt(x) for x in row) for row in mat]


def _parse_float(token: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise FormatError(f"bad float {token!r}") from exc
    if not math.isfinite(value):
        raise FormatError(f"float must be finite, got {token!r}")
    return value


def dump_matrix_tuple(tup: MatrixTuple) -> str:
    lines = [f"{tup.m} {tup.d} {tup.mode}"]
    for mat in tup.mats:
        lines.extend(_matrix_lines(mat, tup.is_exact))
    return "\n".join(lines) + "\n"


def load_matrix_tuple(text: str) -> MatrixTuple:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise FormatError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3 or header[2] not in (RAT, F64):
        raise FormatError("matrix header must be 'm d mode' with mode rat|f64")
    try:
        m, d = int(header[0]), int(header[1])
    except ValueError as exc:
        raise FormatError("matrix header must be 'm d mode'") from exc
    if m < 1 or d < 1:
        raise FormatError("matrix size m and count d must be positive")
    if len(lines) != 1 + m * d:
        raise FormatError(f"expected {m * d} matrix rows, found {len(lines) - 1}")
    parse_token = _parse_frac if header[2] == RAT else _parse_float
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != m:
            raise FormatError(f"expected {m} entries per row")
        rows.append([parse_token(tok) for tok in tokens])
    return MatrixTuple(tuple(rows[k * m:(k + 1) * m] for k in range(d)), header[2])
