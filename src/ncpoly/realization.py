"""Admissible linear systems (ALS) for non-commutative polynomials.

An ALS is a triple ``(u, A, v)`` with ``u = e1`` fixed, ``A`` an upper
unitriangular n x n matrix of affine-linear entries, and ``v`` a rational
vector.  The represented polynomial is the first component of the unique
solution ``s`` of ``A s = v``.  The n = 0 system encodes the zero
polynomial.

Entries are *pencils*: an entry is ``c0 + c1*x1 + ... + cd*xd`` stored as a
``(d+1)``-vector of rationals, so the whole matrix can be viewed as
``A = A0 + A1 (x) x1 + ... + Ad (x) xd`` with scalar coefficient matrices.

A *polynomial* ALS additionally has ``v = (0, ..., 0, lam)`` with nonzero
``lam``.  Every system is built and changed on one mutable ``_Work``: each
constructor and transformation, the minimizer's and the factorizer's
included, thaws an ``Als`` into one or starts an empty one, edits it in
place and freezes it once, which validates the result.

Block factorizations (chains of rectangular pencil matrices whose product
is a polynomial) are kept with their block systems, the factors on the
block superdiagonal, and are verified symbolically in the free algebra.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .linalg import to_fraction
from .errors import FormatError
from .freepoly import Alphabet, NcPolynomial, Word, parse

CellLike = Union["LinearEntry", "NcPolynomial", int, Fraction, str]


@dataclass(frozen=True)
class LinearEntry:
    """Affine-linear form c0 + c1*x1 + ... + cd*xd as a coefficient tuple."""

    coeffs: tuple[Fraction, ...]  # length d+1; index 0 is the constant part
    # Set once from coeffs: system edits and evaluation read them per cell.
    is_scalar: bool = field(init=False, compare=False, repr=False)
    is_zero: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(map(to_fraction, self.coeffs))
        if not coeffs:
            raise ValueError("entry needs at least the constant coefficient")
        is_scalar = not any(coeffs[1:])
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "is_scalar", is_scalar)
        object.__setattr__(self, "is_zero", is_scalar and not coeffs[0])

    @classmethod
    def zero(cls, d: int) -> "LinearEntry":
        """The zero entry of width d: one shared instance per width."""
        return _shared_entry(0, d)

    @classmethod
    def one(cls, d: int) -> "LinearEntry":
        """The scalar 1 of width d: one shared instance per width."""
        return _shared_entry(1, d)

    @classmethod
    def scalar(cls, value, d: int) -> "LinearEntry":
        return cls((Fraction(value),) + (Fraction(0),) * d)

    @classmethod
    def letter(cls, index: int, d: int, coeff=1) -> "LinearEntry":
        if not 0 <= index < d:
            raise ValueError(f"letter index {index} not in 0..{d - 1}")
        coeffs = [Fraction(0)] * (d + 1)
        coeffs[index + 1] = Fraction(coeff)
        return cls(tuple(coeffs))

    @classmethod
    def from_polynomial(cls, p: NcPolynomial) -> "LinearEntry":
        if p.degree() > 1:
            raise ValueError("entry must be affine-linear (degree <= 1)")
        coeffs = [Fraction(0)] * (len(p.alphabet) + 1)
        for word, coeff in p.terms():
            coeffs[0 if not word else word[0] + 1] = coeff
        return cls(tuple(coeffs))

    @property
    def width(self) -> int:
        return len(self.coeffs) - 1

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0]

    def __neg__(self) -> "LinearEntry":
        return LinearEntry(tuple(-c for c in self.coeffs))

    def add_constant(self, value) -> "LinearEntry":
        coeffs = list(self.coeffs)
        coeffs[0] += Fraction(value)
        return LinearEntry(tuple(coeffs))

    def to_polynomial(self, alphabet: Alphabet) -> NcPolynomial:
        terms: dict[Word, Fraction] = {(): self.coeffs[0]}
        for i, coeff in enumerate(self.coeffs[1:]):
            terms[(i,)] = coeff
        return NcPolynomial(alphabet, terms)


@functools.cache
def _shared_entry(value: int, d: int) -> LinearEntry:
    """The scalar ``value`` of width d, built once per (value, d).

    Entries are frozen, so the constant zero and one can be shared by every
    system; ``Als`` accepts them below and on the diagonal by identity
    instead of re-checking their coefficients.
    """
    return LinearEntry((Fraction(value),) + (Fraction(0),) * d)


def _unit_rows(n: int, d: int) -> list[list[LinearEntry]]:
    """The n x n identity as mutable rows of the shared zero and one."""
    zero, one = LinearEntry.zero(d), LinearEntry.one(d)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = one
    return rows


def _coerce_cell(cell: CellLike, alphabet: Alphabet) -> LinearEntry:
    if isinstance(cell, LinearEntry):
        if cell.width != len(alphabet):
            raise ValueError("entry width does not match the alphabet")
        return cell
    if isinstance(cell, NcPolynomial):
        if cell.alphabet != alphabet:
            raise ValueError("cell polynomial uses a different alphabet")
        return LinearEntry.from_polynomial(cell)
    if isinstance(cell, str):
        return LinearEntry.from_polynomial(parse(cell, alphabet))
    return LinearEntry.scalar(cell, len(alphabet))


class Als:
    """Upper unitriangular admissible linear system (u is implicitly e1)."""

    # ``_plans``: the evaluator's compiled plans, filled on first use.
    __slots__ = ("alphabet", "rows", "rhs", "_plans")

    def __init__(
        self,
        alphabet: Alphabet,
        rows: Sequence[Sequence[LinearEntry]],
        rhs: Sequence,
    ):
        rows = tuple(tuple(row) for row in rows)
        rhs = tuple(map(to_fraction, rhs))
        n = len(rows)
        d = len(alphabet)
        zero, one = LinearEntry.zero(d), LinearEntry.one(d)
        if len(rhs) != n:
            raise ValueError("right-hand side length must equal the dimension")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("system matrix must be square")
            for j, entry in enumerate(row):
                if (entry is zero and i > j) or (entry is one and i == j):
                    continue  # the shared constants need no re-check
                if entry.width != d:
                    raise ValueError("entry width does not match the alphabet")
                if i == j and entry.coeffs != one.coeffs:
                    raise ValueError(f"diagonal entry ({i},{j}) must be scalar 1")
                if i > j and not entry.is_zero:
                    raise ValueError(f"entry ({i},{j}) below the diagonal must be 0")
        self.alphabet = alphabet
        self.rows = rows
        self.rhs = rhs
        self._plans = {}

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "Als":
        """The dimension-0 system representing the zero polynomial."""
        return cls(alphabet, (), ())

    @classmethod
    def from_cells(
        cls,
        alphabet: Alphabet,
        cells: Sequence[Sequence[CellLike]],
        rhs: Sequence,
    ) -> "Als":
        """Build a system from a grid of entry-like cells.

        Cells may be ``LinearEntry``, affine-linear ``NcPolynomial``,
        numbers, or strings parsed over the alphabet ("-x", "2c-d", ...).
        """
        rows = [[_coerce_cell(cell, alphabet) for cell in row] for row in cells]
        return cls(alphabet, rows, rhs)

    # -- basic inspection ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        return self.n == 0

    @property
    def is_polynomial_form(self) -> bool:
        """v = (0, ..., 0, lam) with lam != 0; vacuously true when empty."""
        if self.is_empty:
            return True
        return all(x == 0 for x in self.rhs[:-1]) and self.rhs[-1] != 0

    @property
    def lam(self) -> Fraction:
        if self.is_empty or not self.is_polynomial_form:
            raise ValueError("system is not in polynomial form")
        return self.rhs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Als):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.rows == other.rows
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.rows, self.rhs))

    def __repr__(self) -> str:
        return f"Als(dim={self.n}, alphabet={','.join(self.alphabet.letters)})"

    # -- symbolic solution ---------------------------------------------------

    def left_family(self) -> list[NcPolynomial]:
        """s = A^-1 v by back substitution; s[0] is the represented polynomial.

        s_i = v_i - sum_j A_ij s_j, where the letter x of A_ij is prefixed
        to every word of s_j.
        """
        n = self.n
        family: list[Optional[NcPolynomial]] = [None] * n
        for i in range(n - 1, -1, -1):
            terms = {(): self.rhs[i]}
            for j in range(i + 1, n):
                _subtract_product(terms, self.rows[i][j], family[j], True)
            family[i] = NcPolynomial(self.alphabet, terms)
        return family  # type: ignore[return-value]

    def right_family(self) -> list[NcPolynomial]:
        """t = u A^-1 by forward substitution; t[0] is always 1.

        t_j = -sum_i t_i A_ij, where the letter x of A_ij is appended to
        every word of t_i.
        """
        n = self.n
        family: list[NcPolynomial] = []
        for j in range(n):
            if j == 0:
                family.append(NcPolynomial.one(self.alphabet))
                continue
            terms: dict[Word, Fraction] = {}
            for i in range(j):
                _subtract_product(terms, self.rows[i][j], family[i], False)
            family.append(NcPolynomial(self.alphabet, terms))
        return family

    def polynomial(self) -> NcPolynomial:
        """The represented polynomial (symbolic back substitution)."""
        if self.is_empty:
            return NcPolynomial.zero(self.alphabet)
        return self.left_family()[0]


def _subtract_product(
    terms: dict[Word, Fraction], entry: LinearEntry, p: NcPolynomial, prefix: bool
) -> None:
    """terms -= entry * p (prefix) or p * entry (not prefix), in place.

    One dict update per nonzero coefficient of the entry and word of p.
    """
    coeffs = [(c, x) for c, x in enumerate(entry.coeffs) if x]
    if not coeffs:
        return
    for word, value in p.term_map().items():
        for c, x in coeffs:
            key = word if c == 0 else ((c - 1,) + word if prefix else word + (c - 1,))
            terms[key] = terms.get(key, 0) - x * value


# Sparse scalar cells (i, j) -> x, such as the coupling block of ``append``.
_Cells = Mapping[tuple[int, int], Fraction]
_ZERO = Fraction(0)


@dataclass(frozen=True)
class AdmissibleTransformation:
    """Unitriangular n x n pair (P, Q), given by its off-diagonal cells.

    ``p`` and ``q`` map (i, j) to P[i, j] and Q[i, j] (0-based); every other
    cell is that of the identity.  P cells need 0 <= i < j < n and Q cells
    1 <= i < j < n, so the first row of Q stays e1, and such a pair is
    invertible by construction.  Zero cells are dropped and the others are
    kept as sorted ``((i, j), value)`` tuples, so transformations compare
    and hash by value.
    """

    n: int
    p: tuple[tuple[tuple[int, int], Fraction], ...] = ()
    q: tuple[tuple[tuple[int, int], Fraction], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "p", _upper_cells(self.p, 0, self.n, "P"))
        object.__setattr__(self, "q", _upper_cells(self.q, 1, self.n, "Q"))


def _upper_cells(cells, first: int, n: int, name: str) -> tuple:
    """The nonzero cells of a mapping (or pairs), checked and sorted."""
    out = []
    for (i, j), x in sorted(dict(cells).items()):
        x = to_fraction(x)
        if not x:
            continue
        if not first <= i < j < n:
            raise ValueError(f"{name} cell {(i, j)} not in {first} <= i < j < {n}")
        out.append(((i, j), x))
    return tuple(out)


def _combine(
    entry: LinearEntry, terms: Sequence[tuple[Fraction, LinearEntry]], zero: LinearEntry
) -> LinearEntry:
    """entry + sum of x * e over ``terms`` (x, e); a zero sum is the shared ``zero``."""
    coeffs = list(entry.coeffs)
    for x, e in terms:
        for c, y in enumerate(e.coeffs):
            if y:
                coeffs[c] += x * y
    return LinearEntry(tuple(coeffs)) if any(coeffs) else zero


class _Work:
    """A system being built or changed: mutable rows and right-hand side.

    The edits validate nothing; ``freeze`` validates the result once, as the
    ``Als`` it returns.  Solvers read it like an ``Als`` (``rows``, ``rhs``,
    ``alphabet``, ``n``).
    """

    __slots__ = ("alphabet", "rows", "rhs", "zero")

    def __init__(self, alphabet: Alphabet, rows=(), rhs=()):
        self.alphabet = alphabet
        self.rows = [list(row) for row in rows]
        self.rhs = list(rhs)
        self.zero = LinearEntry.zero(len(alphabet))

    @classmethod
    def thaw(cls, als: Als) -> "_Work":
        return cls(als.alphabet, als.rows, als.rhs)

    @property
    def n(self) -> int:
        return len(self.rows)

    def freeze(self) -> Als:
        return Als(self.alphabet, self.rows, self.rhs)

    def add_rows(self, i: int, terms: Sequence[tuple[Fraction, int]]) -> None:
        """Row i += sum of x * row r over ``terms`` (x, r), right-hand side included.

        Each source row r lies below row i and is zero left of its diagonal,
        so it is read from there rightward.
        """
        rows, rhs = self.rows, self.rhs
        row = rows[i]
        sums: dict[int, list[tuple[Fraction, LinearEntry]]] = {}
        for x, r in terms:
            for j, entry in enumerate(rows[r][r:], r):
                if not entry.is_zero:
                    sums.setdefault(j, []).append((x, entry))
            if value := rhs[r]:
                rhs[i] += x * value
        for j, added in sums.items():
            row[j] = _combine(row[j], added, self.zero)

    def add_cols(self, j: int, terms: Sequence[tuple[Fraction, int]]) -> None:
        """Column j += sum of x * column c over ``terms`` (x, c).

        Each source column c lies left of column j and is zero below its
        diagonal, so it is read down to there.
        """
        rows = self.rows
        sums: dict[int, list[tuple[Fraction, LinearEntry]]] = {}
        for x, c in terms:
            for i in range(c + 1):
                if not (entry := rows[i][c]).is_zero:
                    sums.setdefault(i, []).append((x, entry))
        for i, added in sums.items():
            rows[i][j] = _combine(rows[i][j], added, self.zero)

    def mix(self, trans: AdmissibleTransformation) -> None:
        """(A, v) -> (P A Q, P v) for the pair (P, Q) of ``trans``, in place.

        Row i gains P[i, r] times row r, top row first, then column j gains
        Q[c, j] times column c, rightmost column first.  Every source lies
        below its target row or left of its target column, so it is read
        before it is changed.
        """
        row_terms: dict[int, list[tuple[Fraction, int]]] = {}
        for (i, r), x in trans.p:
            row_terms.setdefault(i, []).append((x, r))
        for i in sorted(row_terms):
            self.add_rows(i, row_terms[i])
        col_terms: dict[int, list[tuple[Fraction, int]]] = {}
        for (c, j), x in trans.q:
            col_terms.setdefault(j, []).append((x, c))
        for j in sorted(col_terms, reverse=True):
            self.add_cols(j, col_terms[j])

    def append(self, b_rows, b_rhs, coupling: _Cells) -> None:
        """Extend (A, v) in place to ([[A, C], [0, B]], (v, w)): the one block layout.

        (B, w) is given by ``b_rows`` and ``b_rhs``, and C sparsely by ``coupling``.
        """
        na, nb = self.n, len(b_rows)
        for row in self.rows:
            row.extend([self.zero] * nb)
        self.rows.extend([self.zero] * na + list(row) for row in b_rows)
        for (i, j), value in coupling.items():
            self.rows[i][na + j] = LinearEntry.scalar(value, len(self.alphabet))
        self.rhs.extend(b_rhs)

    def add_monomial(self, word: Word, coeff: Fraction) -> None:
        """Add the bidiagonal system of coeff * word as in ``als_add``."""
        d = len(self.alphabet)
        rows = _unit_rows(len(word) + 1, d)
        for i, letter in enumerate(word):
            rows[i][i + 1] = LinearEntry.letter(letter, d, -1)
        coupling = {(0, 0): Fraction(-1)} if self.rows else {}
        self.append(rows, [Fraction(0)] * len(word) + [coeff], coupling)

    def cut(self, m: int) -> None:
        """Keep the first m rows and columns."""
        del self.rows[m:], self.rhs[m:]
        for row in self.rows:
            del row[m:]

    def drop_row(self, k: int) -> None:
        """Remove row k (1-based) and its right-hand side."""
        del self.rows[k - 1], self.rhs[k - 1]

    def drop_col(self, k: int) -> None:
        """Remove column k (1-based)."""
        for row in self.rows:
            del row[k - 1]

    def restore_polynomial_form(self) -> None:
        """As ``restore_polynomial_form``, in place; a no-op in polynomial form."""
        lam = self.rhs[-1]
        if lam == 0:
            raise ValueError(
                "cannot restore polynomial form: v_n is zero (see minimize)"
            )
        last = self.n - 1
        for i, v in enumerate(self.rhs[:last]):
            if v:
                self.add_rows(i, [(-v / lam, last)])


# A cell to zero: its entry, and the (unknown, entry) pairs that multiply
# each unknown in it, so the transformed cell is entry + sum x_v * e_v.
_Target = tuple[LinearEntry, Sequence[tuple[int, LinearEntry]]]


def _zero_cell_rows(
    targets: Sequence[_Target], comps: Iterable[int], width: int
) -> Optional[tuple[list[list[Fraction]], list[Fraction]]]:
    """Equations ``(rows, rhs)`` zeroing the given pencil components of targets.

    This is where every minimization and split equation is built: one row
    per component, then per target, over ``width`` unknowns.  A ``0 = 0``
    row is dropped, and the first ``0 = b`` row with ``b != 0`` returns
    ``None``: nothing is eliminated for a system that has no solution.
    """
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for comp in comps:
        for entry, terms in targets:
            row = None
            for v, e in terms:
                x = e.coeffs[comp]
                if x:
                    if row is None:
                        row = [_ZERO] * width
                    row[v] = x
            b = entry.coeffs[comp]
            if row is not None:
                rows.append(row)
                rhs.append(-b)
            elif b:
                return None
    return rows, rhs


def apply_transformation(als: Als, trans: AdmissibleTransformation) -> Als:
    """Transform (A, v) -> (P A Q, P v); the represented polynomial is unchanged.

    The pair is unitriangular, so the result stays upper unitriangular.
    Raises ``ValueError`` when the sizes differ.
    """
    if trans.n != als.n:
        raise ValueError("transformation size does not match the system")
    work = _Work.thaw(als)
    work.mix(trans)
    return work.freeze()


# -- constructors ------------------------------------------------------------


def minimal_monomial(alphabet: Alphabet, word: Word, coeff=1) -> Als:
    """Minimal polynomial ALS for coeff * word, of dimension len(word) + 1.

    The system is bidiagonal: superdiagonal entries -x_{i1}, ..., -x_{ik}
    and v = coeff * e_{k+1}.  ``coeff = 0`` yields the empty system.
    """
    coeff = Fraction(coeff)
    work = _Work(alphabet)
    if coeff:
        work.add_monomial(tuple(word), coeff)
    return work.freeze()


def als_add(a: Als, b: Als) -> Als:
    """System for the sum of the represented polynomials (not yet minimal).

    Block shape [[A_a, -e1 e1^T], [0, A_b]] with v = (v_a, v_b); dimension
    n_a + n_b.  The right-hand side is generally not in polynomial form;
    minimization restores it.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("operands use different alphabets")
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    work = _Work.thaw(a)
    work.append(b.rows, b.rhs, {(0, 0): Fraction(-1)})
    return work.freeze()


def als_mul(a: Als, b: Als) -> Als:
    """System for the product (left factor first); dimension n_a + n_b.

    Block shape [[A_a, -v_a e1^T], [0, A_b]] with v = (0, v_b).  A scalar
    operand (dimension 1) scales the other side's right-hand side instead.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("operands use different alphabets")
    if a.is_empty or b.is_empty:
        return Als.empty(a.alphabet)
    if a.n == 1 or b.n == 1:
        scalar, other = (a, b) if a.n == 1 else (b, a)
        if not scalar.rhs[0]:
            return Als.empty(a.alphabet)
        work = _Work.thaw(other)
        work.rhs = [scalar.rhs[0] * x for x in work.rhs]
        return work.freeze()
    work = _Work(a.alphabet, a.rows, [Fraction(0)] * a.n)
    work.append(b.rows, b.rhs, {(i, 0): -x for i, x in enumerate(a.rhs) if x})
    return work.freeze()


def restore_polynomial_form(als: Als) -> Als:
    """Zero out v_1..v_{n-1}: row i += (-v_i / lam) * row n.

    Requires lam = v_n != 0.  Only column n of the system matrix changes
    (the last row of A is e_n), so the result stays upper unitriangular
    and lam is preserved as stored, never rescaled.
    """
    if als.is_empty or als.is_polynomial_form:
        return als
    work = _Work.thaw(als)
    work.restore_polynomial_form()
    return work.freeze()


# -- companion systems --------------------------------------------------------


def _check_companion_args(
    alphabet: Alphabet, factors: Sequence[CellLike], consts: Sequence
) -> tuple[list[LinearEntry], list[Fraction]]:
    entries = [_coerce_cell(f, alphabet) for f in factors]
    if not entries:
        raise ValueError("need at least one pencil factor")
    for i, entry in enumerate(entries):
        if entry.is_scalar:
            raise ValueError(f"pencil factor {i + 1} is scalar; need rank 2")
    consts = [Fraction(c) for c in consts]
    if len(consts) != len(entries):
        raise ValueError("need exactly one constant per pencil factor")
    return entries, consts


def left_companion(
    alphabet: Alphabet, factors: Sequence[CellLike], consts: Sequence
) -> Als:
    """Companion-style system for q_m...q_1 + a_{m-1} q_{m-1}...q_1 + ... + a_0.

    ``factors`` lists q_1..q_m (affine-linear, non-scalar), ``consts`` lists
    a_0..a_{m-1}.  Dimension m + 1; the first row carries the constants.
    """
    q, a = _check_companion_args(alphabet, factors, consts)
    m = len(q)
    d = len(alphabet)
    n = m + 1
    rows = _unit_rows(n, d)
    rows[0][1] = (-q[m - 1]).add_constant(-a[m - 1])
    for col in range(2, n):
        rows[0][col] = LinearEntry.scalar(-a[m - col], d)
    for i in range(1, m):
        rows[i][i + 1] = -q[m - 1 - i]
    return Als(alphabet, rows, [Fraction(0)] * m + [Fraction(1)])


def right_companion(
    alphabet: Alphabet, factors: Sequence[CellLike], consts: Sequence
) -> Als:
    """Companion-style system for a_0 + a_1 q_1 + ... + q_1 q_2 ... q_m.

    For univariate monic input (all q_i = x), evaluating the left family
    bottom-up reproduces the classical nested (Horner) evaluation scheme.
    """
    q, a = _check_companion_args(alphabet, factors, consts)
    m = len(q)
    d = len(alphabet)
    n = m + 1
    rows = _unit_rows(n, d)
    for i in range(m - 1):
        rows[i][i + 1] = -q[i]
        rows[i][m] = LinearEntry.scalar(-a[i], d)
    rows[m - 1][m] = (-q[m - 1]).add_constant(-a[m - 1])
    return Als(alphabet, rows, [Fraction(0)] * m + [Fraction(1)])


# -- block chains -------------------------------------------------------------

Grid = tuple[tuple[LinearEntry, ...], ...]


def entry_grid(alphabet: Alphabet, cells: Sequence[Sequence[CellLike]]) -> Grid:
    """Rectangular grid of pencil entries from entry-like cells."""
    rows = tuple(
        tuple(_coerce_cell(cell, alphabet) for cell in row) for row in cells
    )
    _check_rectangular(rows)
    return rows


def _check_rectangular(grid: Grid) -> None:
    """Raise ``ValueError`` unless the grid is non-empty with rows of one length."""
    if not grid or not grid[0]:
        raise ValueError("grid must be non-empty")
    if any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("grid rows must have equal length")


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
    """Chain of pencil matrices (1 x k1)(k1 x k2)...(k_r x 1).

    The chain is kept with its block system, built once: a polynomial ALS
    with the negated factors on the block superdiagonal.  Building it
    checks every entry's width, zero entries included.
    """

    __slots__ = ("alphabet", "factors", "_system")

    def __init__(self, alphabet: Alphabet, factors: Sequence[Grid]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        for grid in factors:  # grids built directly skip entry_grid's check
            _check_rectangular(grid)
        if len(factors[0]) != 1:
            raise ValueError("first factor must have one row")
        if len(factors[-1][0]) != 1:
            raise ValueError("last factor must have one column")
        for left, right in zip(factors, factors[1:]):
            if len(left[0]) != len(right):
                raise ValueError("factor dimensions do not chain")
        sizes = [1] + [len(grid[0]) for grid in factors]
        n = sum(sizes)
        rows = _unit_rows(n, len(alphabet))
        offset = 0
        for b, grid in enumerate(factors):
            col_offset = offset + sizes[b]
            for i, grid_row in enumerate(grid):
                for j, entry in enumerate(grid_row):
                    rows[offset + i][col_offset + j] = -entry
            offset = col_offset
        rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
        self.alphabet = alphabet
        self.factors = factors
        self._system = Als(alphabet, rows, rhs)

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
        """Symbolic product of the chain: the polynomial of its block system."""
        return self._system.polynomial()

    def to_block_als(self) -> Als:
        """Polynomial ALS with -factor blocks on the block superdiagonal."""
        return self._system


def verify_block_factorization(bf: BlockFactorization, p: NcPolynomial) -> bool:
    """True iff the symbolic chain product equals p exactly."""
    if bf.alphabet != p.alphabet:
        raise ValueError("factorization and polynomial use different alphabets")
    return bf.polynomial() == p


def format_system(als: Als) -> str:
    """Human-readable display of A and v (zeros shown as '.')."""
    if als.is_empty:
        return "(empty system: the zero polynomial)"
    cells = []
    for i, row in enumerate(als.rows):
        rendered = [
            "." if e.is_zero else str(e.to_polynomial(als.alphabet)) for e in row
        ]
        rendered.append(f"| {als.rhs[i]}")
        cells.append(rendered)
    widths = [
        max(len(cells[i][j]) for i in range(als.n)) for j in range(als.n + 1)
    ]
    lines = [
        "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row))
        for row in cells
    ]
    return "\n".join(lines)


# -- serialization ------------------------------------------------------------

_FORMAT_TAG = "ncpoly-als 1"


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {token!r}") from exc


def _entry_row_str(row: Sequence[LinearEntry]) -> str:
    """One row of entries: coefficients space-separated, cells joined by ' | '."""
    return " | ".join(" ".join(_frac_str(c) for c in entry.coeffs) for entry in row)


def _parse_entry_row(line: str, width: int, d: int) -> tuple[LinearEntry, ...]:
    cells = line.split("|")
    if len(cells) != width:
        raise FormatError(f"row has {len(cells)} cells, expected {width}")
    row = []
    for cell in cells:
        coeffs = tuple(_parse_frac(tok) for tok in cell.split())
        if len(coeffs) != d + 1:
            raise FormatError(f"cell needs {d + 1} coefficients")
        row.append(LinearEntry(coeffs))
    return tuple(row)


def _lambda_pos(als: Als) -> int:
    """The 1-based position of lam in polynomial form, otherwise 0."""
    return als.n if als.is_polynomial_form else 0


def dump_als(als: Als) -> str:
    """Stable text serialization; bit-exact round trip with load_als."""
    lines = [
        _FORMAT_TAG,
        f"dim {als.n}",
        "alphabet " + ",".join(als.alphabet.letters),
        f"lambda-pos {_lambda_pos(als)}",
        "matrix",
    ]
    lines.extend(_entry_row_str(row) for row in als.rows)
    lines.append("rhs")
    if als.n:
        lines.append(" ".join(_frac_str(x) for x in als.rhs))
    return "\n".join(lines) + "\n"


def _lines(text: str) -> list[str]:
    """The non-blank lines of a file, without the whitespace around them."""
    return [line.strip() for line in text.splitlines() if line.strip()]


def _header(lines: Sequence[str], keys: tuple, kind: str) -> list[str]:
    """The values of the ``key value`` header ``lines``, which name ``keys``.

    Each line holds exactly its key and one value; anything else raises
    ``FormatError``.
    """
    tokens = [line.split() for line in lines]
    if tuple(t[0] for t in tokens) != keys:
        raise FormatError(f"{kind} header must be " + ", ".join(map(repr, keys)))
    for key, t in zip(keys, tokens):
        if len(t) != 2:
            raise FormatError(f"header line {key!r} must hold exactly one value")
    return [t[1] for t in tokens]


def load_als(text: str) -> Als:
    lines = _lines(text)
    if not lines or lines[0] != _FORMAT_TAG:
        raise FormatError("not an ALS file (missing format tag)")
    keys = ("dim", "alphabet", "lambda-pos")
    dim, letters, lambda_pos = _header(lines[1:4], keys, "ALS")
    try:
        dim, lambda_pos = int(dim), int(lambda_pos)
        alphabet = Alphabet(letters.split(","))
    except ValueError as exc:
        raise FormatError(f"malformed ALS header: {exc}") from exc
    expected_lines = 6 + dim + (1 if dim else 0)
    if len(lines) < expected_lines:
        raise FormatError("truncated ALS file")
    if lines[4] != "matrix":
        raise FormatError("expected 'matrix' section")
    d = len(alphabet)
    rows = [_parse_entry_row(lines[5 + i], dim, d) for i in range(dim)]
    if lines[5 + dim] != "rhs":
        raise FormatError("expected 'rhs' section")
    if dim:
        rhs = [_parse_frac(tok) for tok in lines[6 + dim].split()]
        if len(rhs) != dim:
            raise FormatError("right-hand side length mismatch")
    else:
        rhs = []
    if len(lines) > expected_lines:
        raise FormatError("unexpected lines after the right-hand side")
    try:
        als = Als(alphabet, rows, rhs)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if lambda_pos != _lambda_pos(als):
        raise FormatError(f"lambda-pos must be {_lambda_pos(als)}, not {lambda_pos}")
    return als


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
    lines = _lines(text)
    if not lines or lines[0] != _FACTORS_TAG:
        raise FormatError("not a block-factor file (missing format tag)")
    letters, count = _header(lines[1:3], ("alphabet", "count"), "factor")
    try:
        alphabet = Alphabet(letters.split(","))
        count = int(count)
    except ValueError as exc:
        raise FormatError(f"malformed factor header: {exc}") from exc
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
