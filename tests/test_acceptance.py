"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live).  Expensive artifacts are memoized at module level so the
minimality-certification criterion can inspect every system the earlier
criteria produced, whether or not they ran first.
"""

import operator
import random
import time
from fractions import Fraction
from functools import reduce

import numpy as np

from ncpoly import (
    Alphabet,
    NcPolynomial,
    build_als,
    complexity_bounds,
    count_n,
    count_ns,
    count_nt,
    evaluate_block_factorization,
    evaluate_left,
    evaluate_product,
    evaluate_right,
    factor_atoms,
    find_split,
    is_minimal,
    minimize,
    naive_evaluate,
    naive_mult_count,
    parse,
    random_rational_tuple,
    right_companion,
    verify_block_factorization,
)
from ncpoly.families import (
    convolution_polynomial,
    convolution_system,
    power_polynomial,
    power_system,
)
from ncpoly.freepoly import identity_matrix

from conftest import BENCH19_TEXT

_CACHE: dict = {}


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {description}{detail}")
    assert ok, f"criterion {number} failed: {description}"


def table_artifacts():
    """Criterion-1 rows: (family, k, system, polynomial) with verified systems."""
    if "table" not in _CACHE:
        rows = []
        for family, kmax, poly_of, system_of in (
            ("p", 6, power_polynomial, power_system),
            ("q", 5, convolution_polynomial, convolution_system),
        ):
            for k in range(kmax + 1):
                poly = poly_of(k)
                system = minimize(system_of(k))
                assert system.polynomial() == poly
                rows.append((family, k, system, poly))
        _CACHE["table"] = rows
    return _CACHE["table"]


def golden_rank_artifacts():
    """Criterion-2 systems: (name, system, expected rank, build seconds)."""
    if "goldens" not in _CACHE:
        ab = Alphabet(("x", "y", "z"))
        bench19 = parse(BENCH19_TEXT, Alphabet(("x", "y", "a", "b", "c")))
        cases = [
            ("x - x*y*x", parse("x - x*y*x", ab), 4),
            ("x + 1 - y*x", parse("x + 1 - y*x", ab), 3),
            ("(x*y+1)*(z*x-3)", parse("(x*y+1)*(z*x-3)", ab), 5),
            ("19-term benchmark", bench19, 16),
        ]
        out = []
        for name, poly, expected in cases:
            start = time.perf_counter()
            system = build_als(poly)
            elapsed = time.perf_counter() - start
            out.append((name, system, expected, elapsed))
        _CACHE["goldens"] = out
    return _CACHE["goldens"]


def random_corpus():
    """Criterion-3 corpus: 300 seeded (polynomial, system, tuple) triples."""
    if "corpus" not in _CACHE:
        rng = random.Random(20240901)
        triples = []
        for index in range(300):
            d = 1 + index % 4
            alphabet = Alphabet(tuple("wxyz"[:d]))
            terms = {}
            for _ in range(rng.randint(1, 10)):
                word = tuple(rng.randrange(d) for _ in range(rng.randint(0, 5)))
                terms[word] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            poly = NcPolynomial(alphabet, terms)
            system = build_als(poly)
            tup = random_rational_tuple(rng, d, 3)
            triples.append((poly, system, tup))
        _CACHE["corpus"] = triples
    return _CACHE["corpus"]


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    rows = table_artifacts()
    ok = True
    for family, k, system, poly in rows:
        rank = system.n
        terms = len(poly)
        naive = naive_mult_count(poly)
        cost = count_n(system)
        ok &= rank == k + 1
        if family == "p":
            ok &= terms == 3**k
            ok &= naive == ((k - 1) * 3**k if k >= 1 else 0)
            ok &= cost == (k - 1 if k >= 2 else 0)
        else:
            ok &= terms == (3 * 4 ** (k - 1) if k >= 1 else 1)
            if 2 <= k <= 5:
                ok &= naive == {2: 9, 3: 72, 4: 432, 5: 2304}[k]
            ok &= cost == k * (k - 1) // 2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60
    _report(
        1,
        "Table 1 reproduction, exact integers for p_k (k<=6) and q_k (k<=5)",
        ok,
        f" [{elapsed:.2f}s]",
    )


def test_criterion_2_golden_ranks():
    ok = True
    details = []
    for name, system, expected, elapsed in golden_rank_artifacts():
        ok &= system.n == expected and elapsed < 10
        details.append(f"{name}={system.n} ({elapsed:.2f}s)")
    _report(2, "golden ranks 4/3/5/16", ok, " [" + ", ".join(details) + "]")


def test_criterion_3_oracle_equivalence():
    failures = 0
    for poly, system, tup in random_corpus():
        reference = naive_evaluate(poly, tup.mats)
        left = evaluate_left(system, tup).result
        right = evaluate_right(system, tup).result
        if not (np.array_equal(left, reference) and np.array_equal(right, reference)):
            failures += 1
    _report(
        3,
        "left = right = naive on 300 seeded random polynomials, exact",
        failures == 0,
        f" [{failures} failures]",
    )


def test_criterion_4_minimality_certification():
    systems = [system for _, _, system, _ in table_artifacts()]
    systems += [system for _, system, _, _ in golden_rank_artifacts()]
    systems += [system for _, system, _ in random_corpus()]
    ok = True
    for system in systems:
        if not is_minimal(system):
            ok = False
            break
        n = system.n
        if n >= 2:
            lo, hi = complexity_bounds(n)
            if not lo <= count_n(system) <= hi:
                ok = False
                break
    _report(
        4,
        f"minimality and count bounds on all {len(systems)} produced systems",
        ok,
    )


def test_criterion_5_factorization_goldens():
    ab = Alphabet(("x", "y", "z"))
    triple_ab = Alphabet(("a", "b", "c", "d", "e", "x"))
    triple = parse("2aexc + 2bxc - aexd - bxd", triple_ab)
    ok = True

    atoms = factor_atoms(parse("x - x*y*x", ab))
    ok &= len(atoms) == 2

    atoms = factor_atoms(parse("x*y*z", ab))
    ok &= len(atoms) == 3

    triple_atoms = factor_atoms(triple)
    ok &= len(triple_atoms) == 3
    ok &= naive_mult_count(triple) == 10
    tup = random_rational_tuple(random.Random(5), 6, 3)
    factored = evaluate_product([build_als(a) for a in triple_atoms], tup)
    ok &= factored.mult_count == 3
    ok &= np.array_equal(factored.result, naive_evaluate(triple, tup.mats))

    ok &= len(factor_atoms(parse("x*y + y*x", ab))) == 1

    for poly, expected in (
        (parse("x - x*y*x", ab), 2),
        (parse("x*y*z", ab), 3),
        (triple, 3),
        (parse("x*y + y*x", ab), 1),
    ):
        atoms = factor_atoms(poly)
        ok &= len(atoms) == expected and reduce(operator.mul, atoms) == poly
        rng = random.Random(expected)
        words = sorted(poly.support())
        for _ in range(10):
            rng.shuffle(words)
            split = find_split(build_als(poly, insertion_order=list(words)))
            ok &= (split is not None) == (expected > 1)

    _report(
        5,
        "factorization goldens (2/3/3 atoms, costs 10 vs 3, no split for xy+yx;"
        " a split found exactly for the products on 10 shuffled representatives)",
        ok,
    )


def test_criterion_6_block_factorization(bench19_chain, bench19_poly):
    ok = verify_block_factorization(bench19_chain, bench19_poly)
    tup = random_rational_tuple(random.Random(6), 5, 3)
    report = evaluate_block_factorization(bench19_chain, tup)
    ok &= report.mult_count == 15
    ok &= np.array_equal(report.result, naive_evaluate(bench19_poly, tup.mats))
    ok &= naive_mult_count(bench19_poly) == 97
    _report(6, "19-term block factorization verifies; 15 vs 97 multiplications", ok)


def test_criterion_7_nonminimal_sparse_system(seven_dim_remark, six_dim_remark):
    ok = count_ns(seven_dim_remark) == 5 and count_nt(seven_dim_remark) == 5
    ok &= count_ns(six_dim_remark) == 6 and count_nt(six_dim_remark) == 7
    poly = seven_dim_remark.polynomial()
    ok &= six_dim_remark.polynomial() == poly
    tup = random_rational_tuple(random.Random(7), 6, 3)
    reference = naive_evaluate(poly, tup.mats)
    for system in (seven_dim_remark, six_dim_remark):
        ok &= np.array_equal(evaluate_left(system, tup).result, reference)
        ok &= np.array_equal(evaluate_right(system, tup).result, reference)
    _report(
        7,
        "7-dim system has N_s = N_t = 5; minimal 6-dim has N_s = 6, N_t = 7",
        ok,
    )


def test_criterion_8_univariate_horner():
    ab = Alphabet(("x",))
    rng = random.Random(8)
    ok = True
    for _ in range(50):
        degree = rng.randint(1, 10)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in range(degree)]
        system = right_companion(ab, ["x"] * degree, coeffs)
        for m in (1, 4):
            tup = random_rational_tuple(rng, 1, m)
            report = evaluate_left(system, tup)
            ok &= report.mult_count == degree - 1
            horner = identity_matrix(m)
            for coeff in reversed(coeffs):
                horner = horner @ tup.mats[0] + coeff * identity_matrix(m)
            ok &= np.array_equal(report.result, horner)
    _report(
        8,
        "right companion systems evaluate with degree-1 products and match"
        " nested evaluation at m = 1 and m = 4",
        ok,
    )
