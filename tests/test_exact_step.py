"""The exact plan step against the substitution loop, on adversarial inputs.

An exact step multiplies and sums on Python ints over one common
denominator and builds its ``Fraction`` entries once.  ``Reference`` (from
``test_eval_plan``) reduces a ``Fraction`` array at every product, so the
two agree entry for entry only if no scaling, denominator or diagonal
scalar is lost: large coprime denominators, a zero letter, fractional
``lam`` and pencil coefficients, the bench19 chain, and products with
scalar and zero factors.
"""

import random
from fractions import Fraction

import numpy as np

from ncpoly import (
    AdmissibleTransformation,
    Alphabet,
    Als,
    MatrixTuple,
    apply_transformation,
    build_als,
    evaluate_block_factorization,
    evaluate_left,
    evaluate_product,
    evaluate_right,
    minimize,
    parse,
    random_rational_tuple,
    right_companion,
)
from ncpoly import evaluator
from ncpoly.families import convolution_system

from conftest import random_polynomial
from test_eval_plan import Reference


def expected(method, *args):
    """``Reference``'s (result, mult_count) and the combinations it forms.

    A combination is a multi-letter entry normalized to leading coefficient
    1, counted once per walk, as the plan forms it.
    """
    keys = set()

    class Counting(Reference):
        @classmethod
        def entry_value(cls, entry, tup):
            letters = [(k, c) for k, c in enumerate(entry.coeffs[1:]) if c]
            if len(letters) > 1:
                keys.add(tuple((k, c / letters[0][1]) for k, c in letters))
            return super().entry_value(entry, tup)

    result, count = getattr(Counting, method)(*args)
    return result, count, len(keys)


def assert_same(report, want):
    result, count, formed = want
    assert (report.mult_count, report.formed) == (count, formed)
    assert report.result.shape == result.shape
    assert all(type(x) is Fraction for x in report.result.ravel())
    assert report.result.ravel().tolist() == result.ravel().tolist()


def check_sides(als, tup):
    assert_same(evaluate_left(als, tup), expected("left", als, tup))
    assert_same(evaluate_right(als, tup), expected("right", als, tup))


def coprime_tuple(rng, d, m):
    return random_rational_tuple(rng, d, m, max_num=50, max_den=97)


def with_zero_letter(tup, k):
    mats = list(tup.mats)
    mats[k] = np.zeros((tup.m, tup.m), dtype=int)
    return MatrixTuple.exact(mats)


def fractional_systems(ab):
    """Systems with fractional ``lam`` and fractional pencil coefficients."""
    lam = Fraction(-3, 7)
    yield Als.from_cells(ab, [["1", "2/3x - 5/7y + 1/2", "-3/4y", "x + y"],
                              ["0", "1", "1/5x + 1/9", "-7/2x - 7/2y"],
                              ["0", "0", "1", "11/13y - 1/3"],
                              ["0", "0", "0", "1"]], [0, 0, 0, lam])
    als = build_als(parse("3/7*x*y - 5/11*y*x + 2/13*x*x*y - 1/17", ab))
    yield als
    p = {(0, 1): Fraction(2, 9), (1, 2): Fraction(-5, 3)}
    q = {(1, 2): Fraction(7, 4), (2, als.n - 1): Fraction(1, 6)}
    yield apply_transformation(als, AdmissibleTransformation(als.n, p, q))


def test_random_systems_on_coprime_denominators():
    rng = random.Random(41)
    for letters in (("x",), ("x", "y"), ("x", "y", "z")):
        ab = Alphabet(letters)
        for _ in range(8):
            als = build_als(random_polynomial(rng, ab, max_degree=4))
            for m in (1, 2, 4):
                tup = coprime_tuple(rng, len(letters), m)
                check_sides(als, tup)
                check_sides(als, with_zero_letter(tup, rng.randrange(len(letters))))


def test_fractional_lam_and_coefficients():
    rng = random.Random(42)
    ab = Alphabet(("x", "y"))
    for als in fractional_systems(ab):
        for m in (1, 3, 5):
            tup = coprime_tuple(rng, 2, m)
            check_sides(als, tup)
            for k in range(2):
                check_sides(als, with_zero_letter(tup, k))


def test_companions_on_coprime_denominators():
    rng = random.Random(43)
    ab = Alphabet(("x",))
    factors = ["2/3x", "-5x", "x", "7/11x", "-x", "3x"]
    consts = [Fraction(-7, 5), Fraction(1, 3), 2, Fraction(-9, 13), 0, 5]
    als = right_companion(ab, factors, consts)
    for m in (2, 4):
        check_sides(als, coprime_tuple(rng, 1, m))


def test_bench19_chain(bench19_chain):
    rng = random.Random(44)
    for m in (1, 3):
        tup = coprime_tuple(rng, 5, m)
        for mats in (tup, with_zero_letter(tup, 2)):
            assert_same(evaluate_block_factorization(bench19_chain, mats),
                        expected("chain", bench19_chain, mats))
            check_sides(bench19_chain.to_block_als(), mats)


def test_chain_releases_dropped_values(bench19_chain, monkeypatch):
    # The integer forms alive at any step are those of tracked values the
    # walk still holds: a step reads only the values of the previous
    # block's rows (4 at most), and those are dropped once the block's last
    # column is done.  Letters and combinations are never kept there.
    sizes = []
    exact_step = evaluator._exact_step

    def spy(forms, parts, scalar):
        sizes.append(len(forms))
        assert not any(mat is own for mat, *_ in forms.values() for own in tup.mats)
        return exact_step(forms, parts, scalar)

    monkeypatch.setattr(evaluator, "_exact_step", spy)
    tup = coprime_tuple(random.Random(45), 5, 2)
    evaluate_block_factorization(bench19_chain, tup)
    assert max(sizes) <= max(len(grid) for grid in bench19_chain.factors) == 4
    assert len(sizes) == sum(len(grid[0]) for grid in bench19_chain.factors)


def spy_forms(monkeypatch, start):
    """Record, per step, the integer forms alive and the values made so far.

    ``made`` starts at the walk's start value and gains each step's result,
    so ``made[k]`` is the plan's ``values[k]``.
    """
    made, alive = [start], []
    exact_step = evaluator._exact_step

    def spy(forms, parts, scalar):
        alive.append([mat for mat, *_ in forms.values()])
        made.append(exact_step(forms, parts, scalar))
        return made[-1]

    monkeypatch.setattr(evaluator, "_exact_step", spy)
    return made, alive


def test_companion_left_walk_keeps_one_form(monkeypatch):
    # Each s_i of the left walk is read by the next step only (s_n, read by
    # all, is the scalar lam), so its form goes with that step.
    ab = Alphabet(("x",))
    consts = [Fraction(k - 7, k + 1) for k in range(16)]
    als = right_companion(ab, ["x"] * 16, consts)
    _, alive = spy_forms(monkeypatch, Fraction(1))
    evaluate_left(als, coprime_tuple(random.Random(47), 1, 2))
    assert len(alive) == 16
    assert max(map(len, alive)) <= 1


def test_walks_hold_no_form_past_its_last_read(
    bench19_poly, six_dim_remark, monkeypatch
):
    q5 = minimize(convolution_system(5))
    rng = random.Random(48)
    for als in (build_als(bench19_poly), q5, six_dim_remark):
        tup = coprime_tuple(rng, len(als.alphabet), 2)
        for side, evaluate in (("left", evaluate_left), ("right", evaluate_right)):
            plan = evaluator._plan(als, side, tup)
            last_read = {}
            for index, (terms, *_) in enumerate(plan.steps):
                for src, *_ in terms:
                    last_read[src] = index
            made, alive = spy_forms(monkeypatch, plan.start)
            evaluate(als, tup)
            assert len(alive) == len(plan.steps) > 0
            for index, mats in enumerate(alive):
                for mat in mats:
                    (src,) = [k for k, value in enumerate(made) if value is mat]
                    assert last_read[src] >= index


def test_products_with_scalar_and_zero_factors():
    rng = random.Random(46)
    ab = Alphabet(("x", "y"))
    texts = ("2/3x - 5/7y + 1", "x*y - 3/11", "7/5", "-x - y", "y*x*y + 1/2x")
    systems = [build_als(parse(text, ab)) for text in texts]
    for zero_at in (0, 2, len(texts)):
        factors = systems[:zero_at] + [Als.empty(ab)] + systems[zero_at:]
        for chosen in (systems, factors, [systems[2], systems[2]], [systems[1]]):
            tup = coprime_tuple(rng, 2, 3)
            result, count, _ = expected("product_of", chosen, tup)
            formed = sum(expected("left", als, tup)[2] for als in chosen)
            assert_same(evaluate_product(chosen, tup), (result, count, formed))
