"""The four workloads: seeded set-up, timed ops and their oracle checks.

``setup(api, seed)`` builds everything a workload's ops need and returns a
``Prepared``; its time is the benchmark's ``setup_s``.  Each ``Op`` has a
``run`` (the timed call into the library) and a ``check`` (the oracle,
never timed).  ``api`` is the imported ``ncpoly`` package; ops look library
functions up on it at call time, so the tracer's patched names take effect.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

import inputs

F64_RTOL = 1e-9  # relative Frobenius distance allowed against the reference
SMALL, LARGE = "small", "large"
SIZES = {"eval-rat": {SMALL: 4, LARGE: 8}, "eval-f64": {SMALL: 128, LARGE: 384}}
# Tuples per system and size.  Three small for each large keeps the median
# op inside the small-m group and the p90 inside the large-m group, well
# away from the step between them.
TUPLES = {SMALL: 6, LARGE: 2}
CORPUS_SIZE = 110
FACTOR_PRODUCTS = 94
FACTOR_NO_SPLIT = 12
COMPANION_DEGREES = (9, 16)


class OracleFailure(Exception):
    """An op's output disagrees with its independent check."""


class CountMismatch(Exception):
    """An evaluation did a different number of products than counted."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    tally: Callable[[object], dict] = lambda result: {}
    # Eval ops: system group, size class, side, m and the evaluated target.
    meta: dict = field(default_factory=dict)


@dataclass
class Prepared:
    ops: list[Op]
    cli_poly: tuple[str, str]  # polynomial text, comma-separated letters
    ref_mats: dict = field(default_factory=dict)  # size -> (A, B) for ref_product
    companions: list = field(default_factory=list)  # (Als, tuple) for the baseline


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise OracleFailure(f"set-up certificate failed: {what}")


def _seeded(seed: int, *parts) -> random.Random:
    return random.Random("/".join(str(p) for p in (seed,) + parts))


# -- compile -------------------------------------------------------------------


def setup_compile(api, seed: int) -> Prepared:
    rng = random.Random(seed)
    items = []  # (label, text, Alphabet, golden rank or None)
    for index, (d, words) in enumerate(inputs.corpus_skeletons(CORPUS_SIZE)):
        alphabet = api.Alphabet(tuple("wxyz"[:d]))
        poly = api.NcPolynomial(alphabet, inputs.corpus_polynomial(rng, words))
        items.append((f"corpus{index}", str(poly), alphabet, None))
    for name, text, letters, rank in inputs.COMPILE_NAMED:
        items.append((name, text, api.Alphabet(letters), rank))
    p3 = api.families.power_polynomial(3)
    items.append(("p3", str(p3), p3.alphabet, 4))
    ops = [_compile_op(api, seed, *item) for item in items]
    _, text, alphabet, _ = next(item for item in items if item[0] == "product")
    return Prepared(ops, (text, ",".join(alphabet.letters)))


def _compile_op(api, seed, label, text, alphabet, golden) -> Op:
    def run():
        poly = api.parse(text, alphabet)
        als = api.build_als(poly)
        return poly, als, api.is_minimal(als), api.count_ns(als), api.count_nt(als)

    def check(result):
        poly, als, minimal, _, _ = result
        if not minimal:
            raise OracleFailure(f"{label}: system is not certified minimal")
        if golden is not None and als.n != golden:
            raise OracleFailure(f"{label}: rank {als.n}, golden {golden}")
        tup = api.random_rational_tuple(_seeded(seed, "check", label), len(alphabet), 3)
        expected = api.naive_evaluate(poly, tup.mats)
        for evaluate in (api.evaluate_left, api.evaluate_right):
            if not np.array_equal(evaluate(als, tup).result, expected):
                raise OracleFailure(f"{label}: system disagrees with naive_evaluate")

    return Op(label, run, check, lambda r: {"compiled_N": min(r[3], r[4])})


# -- factor ----------------------------------------------------------------------


def setup_factor(api, seed: int) -> Prepared:
    rng = random.Random(seed)
    cases = []  # (label, polynomial, check on the atom count)
    for text, letters, count in inputs.FACTOR_GOLDENS:
        poly = api.parse(text, api.Alphabet(letters))
        cases.append((f"golden:{text}", poly, _exactly(count)))
    letters = tuple("abcdef")
    for index, skeleton in enumerate(inputs.factor_skeletons(FACTOR_PRODUCTS)):
        k = len(skeleton)
        alphabet = api.Alphabet(letters[: 2 * k])
        factors = [
            api.NcPolynomial(
                alphabet, inputs.affine_factor(rng, terms, (2 * j, 2 * j + 1))
            )
            for j, terms in enumerate(skeleton)
        ]
        product = reduce(lambda a, b: a * b, factors)
        cases.append((f"product{index}", product, _at_least(k)))
    univariate, bivariate = api.Alphabet(("x",)), api.Alphabet(("x", "y"))
    for index in range(FACTOR_NO_SPLIT):
        if index % 6 == 5:  # the bivariate ones cost four times as much
            poly = api.NcPolynomial(bivariate, inputs.anticommutator_like(rng))
        else:
            p, q = inputs.irreducible_quadratic(rng)
            c = Fraction(rng.choice(inputs.NONZERO))
            poly = api.NcPolynomial(
                univariate, {(0, 0): c, (0,): c * p, (): c * q}
            )
        cases.append((f"nosplit{index}", poly, _exactly(1)))
    ops = [_factor_op(api, *case) for case in cases]
    product = cases[len(inputs.FACTOR_GOLDENS)][1]
    return Prepared(ops, (str(product), ",".join(product.alphabet.letters)))


def _exactly(count: int):
    return lambda n: n == count, f"exactly {count}"


def _at_least(count: int):
    return lambda n: n >= count, f"at least {count}"


def _factor_op(api, label, poly, expect) -> Op:
    accepts, wanted = expect

    def check(atoms):
        if reduce(lambda a, b: a * b, atoms) != poly:
            raise OracleFailure(f"{label}: atoms do not multiply back")
        if not accepts(len(atoms)):
            raise OracleFailure(f"{label}: {len(atoms)} atoms, expected {wanted}")

    return Op(label, lambda: api.factor_atoms(poly), check, lambda r: {"atoms": len(r)})


# -- eval-rat / eval-f64 -----------------------------------------------------------


@dataclass
class _System:
    name: str  # product_share group
    target: object  # Als, or BlockFactorization for the chain
    sides: dict  # side -> counted products it must do
    poly_key: str  # systems with one key represent one polynomial
    tuple_key: str  # systems with one key share their tuples


def _eval_systems(api, seed: int) -> tuple[list[_System], dict]:
    """Build and certify every evaluated system; returns them and polys."""
    fam = api.families
    systems, polys = [], {}

    def add(name, als, poly_key, tuple_key=None, minimal=True):
        _require(api.is_minimal(als) == minimal, f"{name} is minimal: {minimal}")
        sides = {"left": api.count_ns(als), "right": api.count_nt(als)}
        systems.append(_System(name, als, sides, poly_key, tuple_key or poly_key))

    q5 = api.minimize(fam.convolution_system(5))
    _require(q5.n == 6, "q5 has rank 6")
    add("q5", q5, "q5")
    p6 = api.minimize(fam.power_system(6))
    _require(p6.n == 7, "p6 has rank 7")
    add("p6", p6, "p6")

    b19_alphabet = api.Alphabet(inputs.BENCH19_LETTERS)
    b19_poly = api.parse(inputs.BENCH19_TEXT, b19_alphabet)
    b19 = api.build_als(b19_poly)
    _require(b19.n == inputs.BENCH19_RANK, "bench19 has rank 16")
    add("bench19", b19, "bench19")
    polys["bench19"] = b19_poly
    grid = {k: api.entry_grid(b19_alphabet, v) for k, v in inputs.BENCH19_CHAIN.items()}
    one = api.entry_grid(b19_alphabet, [["1"]])
    chain = api.BlockFactorization(
        b19_alphabet,
        [
            api.hstack(grid["x1"], one),
            api.block_diag(grid["x2"], one),
            api.vstack(grid["x3"], grid["x4"]),
            grid["y"], grid["z1"], grid["z2"], grid["z3"],
        ],
    )
    _require(api.verify_block_factorization(chain, b19_poly),
             "chain multiplies to bench19")
    systems.append(
        _System("bench19_chain", chain, {"chain": inputs.BENCH19_CHAIN_PRODUCTS},
                "bench19", "bench19")
    )

    remark = api.Alphabet(inputs.REMARK_LETTERS)
    r7 = api.Als.from_cells(remark, inputs.REMARK7_CELLS, [0] * 6 + [1])
    r6 = api.Als.from_cells(remark, inputs.REMARK6_CELLS, [0] * 5 + [1])
    _require(r7.polynomial() == r6.polynomial(), "remark systems agree")
    add("remark7", r7, "remark", minimal=False)
    add("remark6", r6, "remark")
    _require([s.sides for s in systems[-2:]] == [{"left": 5, "right": 5},
                                                 {"left": 6, "right": 7}],
             "remark systems have N_s, N_t = 5, 5 and 6, 7")

    univariate = api.Alphabet(("x",))
    rng = _seeded(seed, "companion")
    for degree in COMPANION_DEGREES:
        consts = inputs.companion_consts(rng, degree)
        als = api.right_companion(univariate, ["x"] * degree, consts)
        add("companion", als, f"companion{degree}", "companion")
    return systems, polys


def _closed_form(poly_key: str, mats: tuple, eye: np.ndarray):
    """(x+y+z)^6 and the q_5 recursion: cheap references independent of ALS."""
    if poly_key == "p6":
        s = mats[0] + mats[1] + mats[2]
        out = s
        for _ in range(5):
            out = out @ s
        return out
    if poly_key == "q5":
        levels = [eye]
        for k in range(1, 6):
            total = None
            for j in range(1, k + 1):
                base = 3 * (j - 1)
                term = (mats[base] + mats[base + 1] + mats[base + 2]) @ levels[k - j]
                total = term if total is None else total + term
            levels.append(total)
        return levels[5]
    return None


def _make_tuple(api, mode: str, seed: int, key: str, d: int, m: int, index: int):
    if mode == "rat":
        return api.random_rational_tuple(_seeded(seed, key, m, index), d, m)
    rng = np.random.default_rng([seed, zlib.crc32(key.encode()), m, index])
    return api.MatrixTuple.floating(list(rng.standard_normal((d, m, m)) / np.sqrt(m)))


def setup_eval(api, seed: int, workload: str) -> Prepared:
    mode = "rat" if workload == "eval-rat" else "f64"
    systems, polys = _eval_systems(api, seed)
    tuples = {}
    for system in systems:
        d = len(system.target.alphabet)
        for size, m in SIZES[workload].items():
            for index in range(TUPLES[size]):
                key = (system.tuple_key, size, index)
                if key not in tuples:
                    tuples[key] = _make_tuple(
                        api, mode, seed, system.tuple_key, d, m, index)
    references = _References(api, mode, systems, polys)
    ops = []
    for system in systems:
        for size, m in SIZES[workload].items():
            for index in range(TUPLES[size]):
                tup = tuples[(system.tuple_key, size, index)]
                for side, products in system.sides.items():
                    ops.append(_eval_op(api, system, side, products, size, m, index,
                                        tup, references))
    ref_mats = {}
    for size in SIZES[workload]:
        mats = tuples[("p6", size, 0)].mats
        ref_mats[size] = (mats[0], mats[1])
    companions = [
        (s.target, tuples[(s.tuple_key, SMALL, 0)])
        for s in systems if s.name == "companion"
    ]
    r6 = next(s.target for s in systems if s.name == "remark6")
    text = str(r6.polynomial())
    cli_poly = (text, ",".join(inputs.REMARK_LETTERS))
    return Prepared(ops, cli_poly, ref_mats, companions)


class _References:
    """Oracle values per (polynomial, tuple), computed on first use."""

    def __init__(self, api, mode, systems, polys):
        self.api = api
        self.exact = mode == "rat"
        self.systems = {s.poly_key: s for s in systems}
        self.polys = polys
        self.cache = {}

    def poly(self, key):
        if key not in self.polys:
            fam = self.api.families
            if key == "q5":
                self.polys[key] = fam.convolution_polynomial(5)
            elif key == "p6":
                self.polys[key] = fam.power_polynomial(6)
            else:
                self.polys[key] = self.systems[key].target.polynomial()
        return self.polys[key]

    def get(self, poly_key, size, index, tup):
        cache_key = (poly_key, size, index)
        if cache_key not in self.cache:
            eye = self.api.freepoly.identity_matrix(tup.m, self.exact)
            value = _closed_form(poly_key, tup.mats, eye)
            # The term-by-term oracle costs thousands of products on p6 and
            # q5, so it checks their closed form on one seeded tuple only.
            if value is None or (size == SMALL and index == 0):
                naive = self.api.naive_evaluate(self.poly(poly_key), tup.mats)
                if value is not None and not self.agree(value, naive):
                    raise OracleFailure(f"{poly_key}: closed form disagrees with naive")
                value = naive
            self.cache[cache_key] = value
        return self.cache[cache_key]

    def agree(self, result, reference) -> bool:
        if self.exact:
            return bool(np.array_equal(result, reference))
        scale = np.linalg.norm(reference)
        return bool(np.linalg.norm(result - reference) <= F64_RTOL * max(scale, 1.0))


def _eval_op(api, system, side, products, size, m, index, tup, references) -> Op:
    target = system.target
    if side == "left":
        run = lambda: api.evaluate_left(target, tup)
    elif side == "right":
        run = lambda: api.evaluate_right(target, tup)
    else:
        run = lambda: api.evaluate_block_factorization(target, tup)
    label = f"{system.name}.{side}.m{m}.t{index}"

    def check(report):
        if report.mult_count != products:
            raise CountMismatch(
                f"{label}: {report.mult_count} products, counted {products}")
        reference = references.get(system.poly_key, size, index, tup)
        if not references.agree(report.result, reference):
            raise OracleFailure(f"{label}: result disagrees with the reference")

    meta = {"group": system.name, "size": size, "side": side, "m": m, "target": target}
    return Op(label, run, check, lambda r: {"products": r.mult_count}, meta)


SETUPS = {
    "compile": setup_compile,
    "factor": setup_factor,
    "eval-rat": lambda api, seed: setup_eval(api, seed, "eval-rat"),
    "eval-f64": lambda api, seed: setup_eval(api, seed, "eval-f64"),
}
