"""Evaluation of linear systems on matrix tuples, with multiplication counts.

Evaluating a polynomial ALS never inverts anything.  Every evaluator walks
a plan through one loop.  A plan is compiled once per system, side and
arithmetic and kept with the system, which never changes.  Each step
appends a tracked value: ``-sum_j a_ij s_j`` for the left family (entry on
the left, bottom-up from ``s_n = lam*I`` to ``s_1 = p``) or
``-sum_i t_i a_ij`` for the right family (entry on the right, top-down from
``t_1 = I``, with ``lam`` folded into the last step).  A block
factorization's plan is the right family of its block system; a product
of systems folds the left-evaluated factors with one-step plans whose
operand is the factor.  Every walk drops each tracked value after the
last step that reads it.

A plan step lists its nonzero entries ``c0*I + c*L`` with the step's sign
already folded into ``c0`` and ``c``.  ``L`` is one letter's matrix of the
tuple, read and never written, when the entry has one letter, whatever
its coefficient (``x``, ``-x``, ``2x + 3``).  Otherwise it is a letter
combination normalized to leading coefficient 1, so ``x + y`` and
``-2x - 2y`` share one; an evaluation forms each combination once, on
first use, and drops it after its last step.  The loop collects a step's
parts (its products, the constant multiples ``c0 * v`` of matrix values
and the scaled letters of scalar values) and its scalar, and hands them
to the step function of the tuple's arithmetic.  In float64 the step's
first product owns its storage and is scaled in place, later parts are
added into it, and the scalar is added on its diagonal, so no identity
matrix is built.

Exact evaluation works on integer forms ``(ints, l)``, a matrix as Python
ints over a common denominator ``l``.  An exact tuple makes its letters'
forms once, when it is built, and the loop reads them as they are.  An
exact step sums its parts on ints (``_integer_sum``): it scales each
tracked ``Fraction`` array to ints on first read, keeps that form until
its last read, sums over one common denominator with the scalar on the
diagonal as an int, and then builds its ``Fraction`` entries once,
instead of reducing a ``Fraction`` at every scalar step.  A combination
``sum c_k * L_k`` is such a sum with the scaled letters as parts and
scalar zero, summed by ``_float_step`` in float64 and by ``_integer_sum``
in exact mode, so there a combination is formed directly on the letters'
ints and stays an integer form, never ``Fraction`` entries.

A tracked value is a plain scalar, standing for that multiple of the
identity, or a full matrix.  Only matrix-times-matrix products are counted;
products with scalars are O(m^2) scalings and stay uncounted, which is
exactly why the static counts N_s / N_t exclude the last column
respectively the first row.

Exact and float evaluation run the same code: only ``MatrixTuple`` knows its
mode, through ``coeff`` (a rational in the tuple's arithmetic, which
converts a plan's coefficients), ``identity`` and ``is_exact`` (which
picks the step function, the one that also sums combinations), and its
arrays carry it as their dtype (``Fraction`` objects or float64).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import isfinite, lcm
from typing import Sequence

from .errors import FormatError
from .freepoly import identity_matrix, np
from .linalg import integer_scaled, to_fraction
from .realization import Als, BlockFactorization, _frac_str, _parse_frac

RAT = "rat"
F64 = "f64"


def _entry_error(mats, mode: str) -> ValueError:
    """The error naming the first entry of ``mats`` that is not a finite number.

    In exact mode that is an entry ``to_fraction`` rejects (``None``,
    complex, ``inf``, nan, ``"1/0"``).  Ragged rows are a shape error.
    """
    for mat in mats:
        for x in np.array(mat, dtype=object).ravel().tolist():
            if np.ndim(x):
                return ValueError("matrices must all be square of the same size")
            try:
                if mode == RAT:
                    to_fraction(x)
                    continue
                if isfinite(float(x)):
                    continue
            except (TypeError, ValueError, ArithmeticError):
                pass
            kind = "rational" if mode == RAT else "float64"
            return ValueError(f"entry {x!r} is not a finite {kind} number")
    return ValueError("entries must be finite numbers")


@dataclass(frozen=True, eq=False)
class MatrixTuple:
    """One square matrix per letter, all of the same size and mode.

    The constructor stores its own copies in the mode's arithmetic: every
    exact entry becomes a ``Fraction`` (``linalg.to_fraction``) in an object
    array, every f64 matrix a float64 array.  An exact tuple also makes
    each matrix's integer form ``(ints, l)`` once, with ``l`` the lcm of
    its denominators and ``mats[k] == ints / l``; exact evaluation reads
    the letters only through these forms.  It raises ``ValueError`` for
    no matrices, matrices that are not square, of different sizes or
    0 x 0, and for an entry that is not a finite number (a rational in
    exact mode), naming that entry.  Equal tuples have the same mode and
    equal matrices; like the arrays, a tuple is unhashable.
    """

    mats: tuple[np.ndarray, ...]
    mode: str  # RAT (Fraction entries) or F64
    _forms: tuple | None = field(init=False, repr=False)  # exact only

    def __post_init__(self):
        if self.mode not in (RAT, F64):
            raise ValueError(f"mode must be {RAT!r} or {F64!r}")
        dtype = object if self.mode == RAT else float
        try:
            mats = tuple(np.array(mat, dtype=dtype) for mat in self.mats)
        except (TypeError, ValueError, ArithmeticError) as exc:
            # f64 only: an entry float() rejects, or ragged rows
            raise _entry_error(self.mats, self.mode) from exc
        if not mats:
            raise ValueError("need at least one matrix")
        m = mats[0].shape[0] if mats[0].ndim else 0
        for mat in mats:
            if mat.shape != (m, m):
                raise ValueError("matrices must all be square of the same size")
        if m < 1:
            raise ValueError("matrices must be at least 1 x 1")
        forms = None
        if self.mode == F64:
            if not all(np.isfinite(mat).all() for mat in mats):
                raise _entry_error(self.mats, self.mode)
        else:
            try:
                entries = [[to_fraction(x) for x in mat.ravel().tolist()]
                           for mat in mats]
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise _entry_error(self.mats, self.mode) from exc
            mats = tuple(np.array(flat, dtype=object).reshape(m, m)
                         for flat in entries)
            forms = tuple(_integer_form(mat) for mat in mats)
        object.__setattr__(self, "mats", mats)
        object.__setattr__(self, "_forms", forms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        same_shape = (self.mode, self.d, self.m) == (other.mode, other.d, other.m)
        return same_shape and all(map(np.array_equal, self.mats, other.mats))

    __hash__ = None

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
    """Evaluation result plus the number of matrix products actually done.

    ``formed`` counts the letter combinations the evaluation built as
    m x m matrices (entries of one letter use the tuple's own matrix).
    """

    result: np.ndarray
    mult_count: int
    side: str  # "left" or "right"
    formed: int


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


# -- evaluation plans -------------------------------------------------------------
#
# A tracked value is a plain scalar, standing for that multiple of the
# identity, or an ndarray.  Every ndarray the loop creates is its own and
# may be written in place; a letter matrix of the tuple is only read.


@dataclass(frozen=True)
class _Plan:
    """One walk of a system, compiled once per side and arithmetic.

    The walk starts from the tracked value ``start`` and appends one value
    per step ``(terms, finished, freed)``.  A term ``(src, constant,
    letter, factor)`` adds ``constant * v + factor * (L @ v)`` with
    ``v = values[src]`` (``v @ L`` when the entry is on the right), the
    step's sign and scale already folded into ``constant`` and ``factor``.
    ``L`` is the tuple's own matrix ``letter`` for ``letter < d`` and
    combination ``letter - d`` otherwise; a scalar entry has no letter.
    After the step, the ``finished`` combinations and the ``freed`` values
    are dropped: those the step is the last to read.
    """

    start: object
    entry_left: bool
    combos: tuple  # per combination ((letter, coefficient), ...), the first 1
    steps: tuple


def _compile(d: int, start, entry_left: bool, steps, coeff) -> _Plan:
    """The plan of ``steps``, each ``(scale, [(src, entry), ...])``.

    Zero entries are left out and every coefficient is converted once with
    ``coeff``.  An entry of two or more letters is its first nonzero
    letter coefficient times a combination that starts with coefficient 1,
    so ``x + y`` and ``-2x - 2y`` share one.  Each combination and value
    is dropped after its last read, or at once if no step reads it.
    """
    combos: dict = {}
    last_step = {}  # combination letter -> last step reading it
    # value index -> last step reading it, else the step that makes it
    last_read = {src: max(src - 1, 0) for src in range(len(steps))}
    compiled = []
    for index, (scale, terms) in enumerate(steps):
        plan_terms = []
        for src, entry in terms:
            if entry.is_zero:
                continue
            last_read[src] = index
            constant = coeff(scale * entry.constant)
            letters = [(k, c) for k, c in enumerate(entry.coeffs[1:]) if c]
            if not letters:
                plan_terms.append((src, constant, None, 0))
                continue
            letter, lead = letters[0]
            if len(letters) > 1:
                key = tuple((k, c / lead) for k, c in letters)
                letter = combos.setdefault(key, d + len(combos))
                last_step[letter] = index
            plan_terms.append((src, constant, letter, coeff(scale * lead)))
        compiled.append(tuple(plan_terms))
    finished: dict = {}
    for letter, index in last_step.items():
        finished.setdefault(index, []).append(letter)
    freed: dict = {}
    for src, index in last_read.items():
        freed.setdefault(index, []).append(src)
    return _Plan(
        coeff(start),
        entry_left,
        tuple(tuple((k, coeff(c)) for k, c in key) for key in combos),
        tuple(
            (terms, tuple(finished.get(index, ())), tuple(freed.get(index, ())))
            for index, terms in enumerate(compiled)
        ),
    )


def _walk_steps(als: Als, side: str):
    """(start, steps) of a system's walk on one side, as ``_compile`` takes."""
    n, rows = als.n, als.rows
    if n == 0:
        return Fraction(0), []
    lam = als.lam
    if side == "left":  # values[k] holds s_{n-k} (1-based s), from s_n = lam
        return lam, [
            (-1, [(n - 1 - j, rows[i][j]) for j in range(i + 1, n)])
            for i in range(n - 2, -1, -1)
        ]
    # values[j] holds t_{j+1}, from t_1 = 1; lam scales the last step
    return lam if n == 1 else Fraction(1), [
        (-lam if j == n - 1 else -1, [(i, rows[i][j]) for i in range(j)])
        for j in range(1, n)
    ]


def _plan(als: Als, side: str, tup: MatrixTuple) -> _Plan:
    """The system's plan for this side and the tuple's arithmetic.

    It is compiled on first use and kept in the system's ``_plans`` slot:
    systems never change, so a plan never goes stale.
    """
    key = (side, tup.mode)
    plan = als._plans.get(key)
    if plan is None:
        start, steps = _walk_steps(als, side)
        plan = _compile(len(als.alphabet), start, side == "left", steps, tup.coeff)
        als._plans[key] = plan
    return plan


def _accumulate(total, mat: np.ndarray, factor, owned: bool = False):
    """float64 ``total + factor * mat``, written into ``total`` when there is one.

    With no total the result is ``mat`` itself, scaled in place, when the
    caller owns it (a fresh product), and a new array otherwise.
    """
    if total is None:
        if not owned:
            return mat.copy() if factor == 1 else factor * mat
        if factor == -1:
            return np.negative(mat, out=mat)
        if factor != 1:
            mat *= factor
        return mat
    if factor == 1:
        total += mat
    elif factor == -1:
        total -= mat
    else:
        total += factor * mat
    return total


def _add_to_diagonal(mat: np.ndarray, scalar) -> None:
    """mat += scalar * I, in place."""
    diagonal = np.arange(mat.shape[0])
    mat[diagonal, diagonal] += scalar


def _float_step(parts, scalar):
    """One float64 step: ``sum coef * (left @ right)`` plus ``scalar * I``.

    A part ``(coef, left, right)`` with no ``right`` is ``coef * left``.  The
    first product owns its storage and is scaled in place, later parts are
    added into it, and each product is freed before the next is made.
    """
    total = None
    for coef, left, right in parts:
        if right is None:
            total = _accumulate(total, left, coef)
        else:
            product = left @ right
            total = _accumulate(total, product, coef, owned=True)
            del product
    if total is None:
        return scalar
    if scalar:
        _add_to_diagonal(total, scalar)
    return total


def _integer_form(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """``(ints, l)`` with ``mat == ints / l``, ``l`` the lcm of its denominators."""
    ints, den = integer_scaled(mat.ravel().tolist())
    return np.array(ints, dtype=object).reshape(mat.shape), den


def _integer_sum(forms: dict, parts, scalar) -> tuple[np.ndarray, int]:
    """The integer form ``(ints, l)`` of ``_float_step``'s sum of ``parts``.

    An operand is a letter or combination already in integer form
    ``(ints, l)``, taken as it is, or a tracked ``Fraction`` array.  A
    tracked array is scaled to its integer form on first read and kept in
    ``forms`` (by ``id``, beside the array, until its last read).  The
    parts are multiplied and summed on ints over one common denominator,
    the lcm of each part's denominators times its coefficient's, and the
    scalar goes on the diagonal as an int.  ``parts`` is not empty.
    """

    def form(mat):
        if isinstance(mat, tuple):
            return mat
        entry = forms.get(id(mat))
        if entry is None:
            entry = forms[id(mat)] = (mat, *_integer_form(mat))
        return entry[1:]

    scaled, den = [], scalar.denominator
    for coef, left, right in parts:
        a, part_den = form(left)
        b = None
        if right is not None:
            b, right_den = form(right)
            part_den *= right_den
        part_den *= coef.denominator
        den = lcm(den, part_den)
        scaled.append((coef.numerator, part_den, a, b))
    total = None
    for num, part_den, a, b in scaled:
        k = num * (den // part_den)
        if b is None:
            term = k * a
        else:
            term = a @ b
            if k != 1:
                term *= k
        if total is None:
            total = term
        else:
            total += term
    if scalar:
        _add_to_diagonal(total, scalar.numerator * (den // scalar.denominator))
    return total, den


def _exact_step(forms: dict, parts, scalar):
    """The step of ``_float_step`` in exact arithmetic.

    The parts are summed on ints by ``_integer_sum`` and the step's
    ``Fraction`` entries are built once, from that sum.
    """
    if not parts:
        return scalar
    total, den = _integer_sum(forms, parts, scalar)
    entries = [Fraction(c, den) for c in total.ravel().tolist()]
    return np.array(entries, dtype=object).reshape(total.shape)


def _run(plan: _Plan, tup: MatrixTuple, values: list, operands: list):
    """Walk ``plan`` on ``values``; return the products done and combinations formed.

    ``operands`` holds the tuple's letters as evaluation reads them
    (integer forms in exact mode, the float64 arrays otherwise) and
    ``None`` for each of the plan's combinations, which is formed on first
    use.  Terms whose value is scalar zero are skipped.  Each step's
    parts, the products ``factor * (L @ v)`` (``v @ L`` on the right), the
    scaled values ``constant * v`` and the scaled operands
    ``(factor * s) * L`` of a scalar value ``s``, go with the step's
    scalar to the step function of the tuple's arithmetic.  A combination
    ``sum c_k * L_k`` is the sum of the parts ``c_k * L_k`` with scalar
    zero: ``_float_step`` forms it in float64, and ``_integer_sum`` in
    exact mode, so it stays an integer form, as the letters are read.
    """
    forms = {}  # integer forms of the tracked values an exact step has read
    if tup.is_exact:
        step, combine = partial(_exact_step, forms), partial(_integer_sum, forms)
    else:
        step = combine = _float_step
    zero = tup.coeff(Fraction(0))
    count = formed = 0

    def operand(letter):
        nonlocal formed
        mat = operands[letter]
        if mat is None:
            parts = [(c, operands[k], None) for k, c in plan.combos[letter - tup.d]]
            mat = operands[letter] = combine(parts, zero)
            formed += 1
        return mat

    for terms, finished, freed in plan.steps:
        scalar, parts = zero, []
        for src, constant, letter, factor in terms:
            value = values[src]
            if isinstance(value, np.ndarray):
                if letter is not None:
                    mat = operand(letter)
                    parts.append((factor, mat, value) if plan.entry_left
                                 else (factor, value, mat))
                    count += 1
                if constant:
                    parts.append((constant, value, None))
            elif value:
                if constant:
                    scalar += constant * value
                if letter is not None:
                    parts.append((factor * value, operand(letter), None))
        values.append(step(parts, scalar))
        for letter in finished:
            operands[letter] = None
        for src in freed:
            forms.pop(id(values[src]), None)
            values[src] = None
    return count, formed


def _walk(als: Als, side: str, tup: MatrixTuple):
    """Tracked value of the system's walk, products done, combinations formed."""
    _check_compatible(als.alphabet, tup)
    plan = _plan(als, side, tup)
    values = [plan.start]
    letters = tup._forms if tup.is_exact else tup.mats
    operands = [*letters, *[None] * len(plan.combos)]
    count, formed = _run(plan, tup, values, operands)
    return values[-1], count, formed


def _report(tup: MatrixTuple, value, count: int, formed: int, side: str) -> EvalReport:
    if not isinstance(value, np.ndarray):
        value = value * tup.identity()
    return EvalReport(value, count, side, formed)


def _require_als(system) -> None:
    # A BlockFactorization is evaluated by evaluate_block_factorization,
    # through the right walk of its block system.
    if not isinstance(system, Als):
        raise TypeError(f"expected an Als, got {type(system).__name__}")


def _check_compatible(alphabet, tup: MatrixTuple) -> None:
    if tup.d != len(alphabet):
        raise ValueError(
            f"tuple has {tup.d} matrices but the alphabet has {len(alphabet)}"
        )


def evaluate_left(als: Als, tup: MatrixTuple) -> EvalReport:
    """Back substitution s_n = lam*I, s_i = -sum_{j>i} a_ij s_j; result s_1.

    Raises ``TypeError`` for anything but an ``Als``.
    """
    _require_als(als)
    return _report(tup, *_walk(als, "left", tup), "left")


def evaluate_right(als: Als, tup: MatrixTuple) -> EvalReport:
    """Forward substitution t_1 = I, t_j = -sum_{i<j} t_i a_ij; result lam*t_n.

    Raises ``TypeError`` for anything but an ``Als``.
    """
    _require_als(als)
    return _report(tup, *_walk(als, "right", tup), "right")


# -- static multiplication counts ---------------------------------------------


def _non_scalar(als: Als, lo: int, hi: int) -> int:
    """Non-scalar entries above the diagonal in rows and columns lo..hi-1."""
    rows = als.rows
    return sum(
        1
        for i in range(lo, hi)
        for j in range(i + 1, hi)
        if not rows[i][j].is_scalar
    )


def count_ns(als: Als) -> int:
    """Non-scalar entries in the upper-left (n-1) x (n-1) block."""
    return _non_scalar(als, 0, als.n - 1)


def count_nt(als: Als) -> int:
    """Non-scalar entries in the lower-right (n-1) x (n-1) block."""
    return _non_scalar(als, 1, als.n)


def count_n(als: Als) -> int:
    """min(N_s, N_t): the cheaper of the two evaluation directions."""
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

    This is the right family of ``bf.to_block_als()``: a factor's columns
    read only the values of its rows, so each value is dropped within the
    next factor and at most one factor's rows and columns are alive at
    once.  Raises ``TypeError`` for anything but a ``BlockFactorization``.
    """
    if not isinstance(bf, BlockFactorization):
        raise TypeError(f"expected a BlockFactorization, got {type(bf).__name__}")
    return _report(tup, *_walk(bf.to_block_als(), "right", tup), "right")


def evaluate_product(systems: Sequence[Als], tup: MatrixTuple) -> EvalReport:
    """Evaluate a product of polynomials, each given by a polynomial ALS.

    Every factor is evaluated through its own system (left side), then
    folded into the product left to right by a one-step plan with the
    factor as its operand, so scalar factors never cost a product, and
    after a zero factor no later factor does either.  Raises ``TypeError``
    for a factor that is not an ``Als``.
    """
    systems = tuple(systems)
    if not systems:
        raise ValueError("need at least one factor")
    for als in systems:
        _require_als(als)
    if any(als.alphabet != systems[0].alphabet for als in systems):
        raise ValueError("operands use different alphabets")
    product, count, formed = tup.coeff(Fraction(1)), 0, 0
    for als in systems:
        factor, factor_count, factor_formed = _walk(als, "left", tup)
        if isinstance(factor, np.ndarray):
            term = (0, tup.coeff(Fraction(0)), 0, tup.coeff(Fraction(1)))
        else:
            term = (0, factor, None, 0)
        fold = _Plan(None, False, (), (((term,), (), (0,)),))
        values = [product]
        counted, _ = _run(fold, tup, values, [factor])
        product = values[-1]
        count += factor_count + counted
        formed += factor_formed
    return _report(tup, product, count, formed, "left")


# -- matrix tuple files ---------------------------------------------------------


def _matrix_lines(mat: np.ndarray, exact: bool) -> list[str]:
    """Rows of one matrix as in matrix files: n/d rationals or float reprs."""
    fmt = _frac_str if exact else (lambda x: repr(float(x)))
    return [" ".join(fmt(x) for x in row) for row in mat]


def _parse_float(token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise FormatError(f"bad float {token!r}") from exc


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
    if len(lines) != 1 + m * d:
        raise FormatError(f"expected {m * d} matrix rows, found {len(lines) - 1}")
    parse_token = _parse_frac if header[2] == RAT else _parse_float
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != m:
            raise FormatError(f"expected {m} entries per row")
        rows.append([parse_token(tok) for tok in tokens])
    try:
        return MatrixTuple(tuple(rows[k * m:(k + 1) * m] for k in range(d)), header[2])
    except ValueError as exc:  # the constructor's checks: sizes, finite floats
        raise FormatError(str(exc)) from exc
