"""Instrumented evaluation, static counts, bounds, block chains, file formats."""

import random
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from ncpoly import (
    Alphabet,
    Als,
    BlockFactorization,
    LinearEntry,
    MatrixTuple,
    build_als,
    complexity_bounds,
    count_n,
    count_ns,
    count_nt,
    dump_matrix_tuple,
    evaluate_block_factorization,
    evaluate_left,
    evaluate_product,
    evaluate_right,
    factor_atoms,
    load_matrix_tuple,
    minimal_monomial,
    minimize,
    naive_evaluate,
    parse,
    random_rational_tuple,
    right_companion,
    verify_block_factorization,
)
from ncpoly import evaluator
from ncpoly.errors import FormatError
from ncpoly.evaluator import _Plan, _plan, _run
from ncpoly.families import convolution_system, power_polynomial, power_system
from ncpoly.freepoly import identity_matrix

from conftest import assert_bitwise_equal, random_polynomial


class TestEvaluateSides:
    def test_intro_system_costs_two(self, intro_als, ab_xy):
        rng = random.Random(1)
        tup = random_rational_tuple(rng, 2, 3)
        reference = naive_evaluate(parse("x - x*y*x", ab_xy), tup.mats)
        left = evaluate_left(intro_als, tup)
        right = evaluate_right(intro_als, tup)
        assert left.mult_count == 2 and right.mult_count == 2
        assert np.array_equal(left.result, reference)
        assert np.array_equal(right.result, reference)
        assert left.side == "left" and right.side == "right"

    def test_scalar_system_is_free(self, ab_xy):
        als = minimal_monomial(ab_xy, (), 5)
        tup = random_rational_tuple(random.Random(2), 2, 2)
        report = evaluate_left(als, tup)
        assert report.mult_count == 0
        assert np.array_equal(report.result, 5 * identity_matrix(2))

    def test_power_cube_costs_two(self, ab_xyz):
        als = power_system(3)
        tup = random_rational_tuple(random.Random(3), 3, 3)
        report = evaluate_left(als, tup)
        assert report.mult_count == 2
        assert np.array_equal(
            report.result, naive_evaluate(power_polynomial(3), tup.mats)
        )

    def test_letter_system_right_side_is_free(self, ab_xy):
        als = minimal_monomial(ab_xy, (0,))
        tup = random_rational_tuple(random.Random(4), 2, 3)
        report = evaluate_right(als, tup)
        assert report.mult_count == 0
        assert np.array_equal(report.result, tup.mats[0])

    def test_remark_systems_cost_five_each_side(self, seven_dim_remark):
        tup = random_rational_tuple(random.Random(5), 6, 2)
        assert evaluate_left(seven_dim_remark, tup).mult_count == 5
        assert evaluate_right(seven_dim_remark, tup).mult_count == 5

    def test_empty_system_evaluates_to_zero(self, ab_xy):
        from ncpoly import Als

        tup = random_rational_tuple(random.Random(6), 2, 3)
        report = evaluate_left(Als.empty(ab_xy), tup)
        assert report.mult_count == 0
        assert np.array_equal(report.result, 0 * identity_matrix(3))

    def test_rejects_non_polynomial_form(self, ab_xy):
        als = Als.from_cells(ab_xy, [["1", "-x"], ["0", "1"]], [1, 1])
        tup = random_rational_tuple(random.Random(7), 2, 2)
        with pytest.raises(ValueError):
            evaluate_left(als, tup)

    def test_rejects_wrong_tuple_size(self, intro_als):
        tup = random_rational_tuple(random.Random(8), 3, 2)
        with pytest.raises(ValueError):
            evaluate_left(intro_als, tup)

    def test_instrumented_counts_never_exceed_static(self, ab_xyz):
        rng = random.Random(9)
        tup = random_rational_tuple(rng, 3, 2)
        for _ in range(20):
            p = random_polynomial(rng, ab_xyz, max_terms=6, max_degree=4)
            als = build_als(p)
            if als.is_empty:
                continue
            assert evaluate_left(als, tup).mult_count <= count_ns(als)
            assert evaluate_right(als, tup).mult_count <= count_nt(als)


class TestStaticCounts:
    def test_remark_sparse_system(self, seven_dim_remark):
        assert count_ns(seven_dim_remark) == 5
        assert count_nt(seven_dim_remark) == 5
        assert count_n(seven_dim_remark) == 5

    def test_remark_minimal_system(self, six_dim_remark):
        assert count_ns(six_dim_remark) == 6
        assert count_nt(six_dim_remark) == 7
        assert count_n(six_dim_remark) == 6

    def test_monomial_staircase(self, ab_xy):
        for length in range(1, 6):
            als = minimal_monomial(ab_xy, (0,) * length)
            assert count_ns(als) == length - 1
            assert count_nt(als) == length - 1

    def test_small_systems_are_zero(self, ab_xy):
        assert count_n(minimal_monomial(ab_xy, (0,))) == 0
        assert count_n(minimal_monomial(ab_xy, (), 5)) == 0

    def test_intro_counts(self, intro_als):
        assert count_ns(intro_als) == 2 and count_nt(intro_als) == 2


class TestComplexityBounds:
    def test_rank_sixteen(self):
        assert complexity_bounds(16) == (14, 105)

    def test_linear_polynomials_are_free(self):
        assert complexity_bounds(2) == (0, 0)

    def test_rank_five(self):
        assert complexity_bounds(5) == (3, 6)

    def test_rejects_small_rank(self):
        with pytest.raises(ValueError):
            complexity_bounds(1)


class TestBlockFactorization:
    def test_bench19_chain_counts_fifteen(self, bench19_chain, bench19_poly):
        assert verify_block_factorization(bench19_chain, bench19_poly)
        tup = random_rational_tuple(random.Random(10), 5, 3)
        report = evaluate_block_factorization(bench19_chain, tup)
        assert report.mult_count == 15
        assert np.array_equal(report.result, naive_evaluate(bench19_poly, tup.mats))

    def test_anticommutator_outer_product(self, ab_xy):
        bf = BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["y"], ["x"]]])
        assert verify_block_factorization(bf, parse("x*y + y*x", ab_xy))
        tup = random_rational_tuple(random.Random(11), 2, 3)
        report = evaluate_block_factorization(bf, tup)
        assert report.mult_count == 2
        x, y = tup.mats
        assert np.array_equal(report.result, x @ y + y @ x)

    def test_single_cell_chain(self, ab_xy):
        bf = BlockFactorization.from_cells(ab_xy, [[["x"]]])
        tup = random_rational_tuple(random.Random(12), 2, 2)
        report = evaluate_block_factorization(bf, tup)
        assert report.mult_count == 0
        assert np.array_equal(report.result, tup.mats[0])

    def test_mismatched_product_fails_verification(self, ab_xy):
        bf = BlockFactorization.from_cells(ab_xy, [[["x"]], [["y"]]])
        assert not verify_block_factorization(bf, parse("x*y + 1", ab_xy))

    def test_broken_chain_rejected(self, ab_xy):
        with pytest.raises(ValueError):
            BlockFactorization.from_cells(
                ab_xy, [[["x", "y"]], [["x", "y"]]]  # 1x2 then 1x2: no chain
            )

    def test_entry_of_another_width_rejected(self, ab_xy):
        # built directly, not through entry_grid, with a zero entry of width 3
        x, y = LinearEntry.letter(0, 2), LinearEntry.letter(1, 2)
        factors = [((x, LinearEntry.zero(3)),), ((y,), (LinearEntry.one(2),))]
        with pytest.raises(ValueError, match="^entry width does not match the alphabet$"):
            BlockFactorization(ab_xy, factors)

    def test_ragged_factor_rejected(self, ab_xy):
        # built directly, not through entry_grid: the second factor's rows
        # have lengths 1 and 2, and sizing it by its first row would put the
        # longer row's x into the third factor's column (2*y*x + x*y*x)
        x, y = LinearEntry.letter(0, 2), LinearEntry.letter(1, 2)
        factors = [((x, y),), ((y,), (LinearEntry.one(2), x)), ((x,),)]
        with pytest.raises(ValueError, match="^grid rows must have equal length$"):
            BlockFactorization(ab_xy, factors)

    def test_empty_factor_rejected(self, ab_xy):
        x = LinearEntry.letter(0, 2)
        for factors in ([((x,),), ()], [((x,),), ((),)]):
            with pytest.raises(ValueError, match="^grid must be non-empty$"):
                BlockFactorization(ab_xy, factors)

    def test_plan_compiles_once_per_side_and_arithmetic(self, ab_xy, monkeypatch):
        compiled = []
        compile_plan = evaluator._compile

        def counting(*args):
            compiled.append(args[2])  # entry_left
            return compile_plan(*args)

        monkeypatch.setattr(evaluator, "_compile", counting)
        bf = BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["y"], ["x"]]])
        tup = random_rational_tuple(random.Random(24), 2, 3)
        for mats in (tup, tup, tup.to_float(), tup.to_float()):
            evaluate_block_factorization(bf, mats)
        evaluate_right(bf.to_block_als(), tup)
        evaluate_left(bf.to_block_als(), tup)
        assert compiled == [False, False, True]

    def test_als_evaluators_reject_a_chain(self, ab_xy):
        # [[x, 1]] [[y], [1]] is 1 + x*y; a left-family walk of its right
        # family would give y*x + 1, so only its own evaluator takes it.
        bf = BlockFactorization.from_cells(ab_xy, [[["x", "1"]], [["y"], ["1"]]])
        tup = random_rational_tuple(random.Random(23), 2, 3)
        want = naive_evaluate(parse("1 + x*y", ab_xy), tup.mats)
        assert np.array_equal(evaluate_block_factorization(bf, tup).result, want)
        xy = build_als(parse("x*y", ab_xy))
        calls = (
            lambda: evaluate_left(bf, tup),
            lambda: evaluate_right(bf, tup),
            lambda: evaluate_product([bf], tup),
            lambda: evaluate_product([xy, bf], tup),
        )
        for call in calls:
            with pytest.raises(TypeError, match="BlockFactorization"):
                call()

    def test_chain_evaluator_rejects_anything_but_a_chain(self, ab_xy):
        # an Als has a right-family walk too, and a matrix grid has none
        tup = random_rational_tuple(random.Random(23), 2, 3)
        xy = build_als(parse("x*y", ab_xy))
        for other in (xy, [[xy]], None):
            with pytest.raises(TypeError, match="^expected a BlockFactorization, got"):
                evaluate_block_factorization(other, tup)

    def test_block_als_represents_the_product(self, bench19_chain, bench19_poly):
        block_als = bench19_chain.to_block_als()
        assert block_als.n == 18
        assert block_als.polynomial() == bench19_poly
        tup = random_rational_tuple(random.Random(13), 5, 2)
        assert np.array_equal(
            evaluate_left(block_als, tup).result,
            naive_evaluate(bench19_poly, tup.mats),
        )
        for mats in (tup, tup.to_float()):
            chain = evaluate_block_factorization(bench19_chain, mats)
            right = evaluate_right(block_als, mats)
            assert chain.mult_count == right.mult_count == 15
            assert chain.side == right.side == "right"
            assert_bitwise_equal(chain.result, right.result)


class TestEvaluateProduct:
    def test_triple_product_factored_costs_three(self, triple_product_als):
        p = triple_product_als.polynomial()
        atoms = factor_atoms(p)
        systems = [build_als(a) for a in atoms]
        tup = random_rational_tuple(random.Random(14), 6, 3)
        report = evaluate_product(systems, tup)
        assert report.mult_count == 3
        assert np.array_equal(report.result, naive_evaluate(p, tup.mats))

    def test_single_factor(self, intro_als, ab_xy):
        tup = random_rational_tuple(random.Random(15), 2, 2)
        report = evaluate_product([intro_als], tup)
        assert report.mult_count == 2

    def test_zero_factor_is_free(self, ab_xy):
        tup = random_rational_tuple(random.Random(15), 2, 2)
        report = evaluate_product([build_als(parse("x", ab_xy)), Als.empty(ab_xy)], tup)
        assert report.mult_count == 0
        assert np.array_equal(report.result, 0 * identity_matrix(2))

    def test_zero_factor_after_a_matrix_keeps_the_rest_free(self, ab_xy):
        systems = [build_als(parse(t, ab_xy)) for t in ("x", "y")]
        systems.insert(1, Als.empty(ab_xy))
        tup = random_rational_tuple(random.Random(15), 2, 2)
        for mats in (tup, tup.to_float()):
            report = evaluate_product(systems, mats)
            assert report.mult_count == 0
            assert np.array_equal(report.result, np.zeros((2, 2)))


    def test_generator_gives_the_list_result(self, ab_xy):
        polys = [parse(t, ab_xy) for t in ("x + 2*y", "y*x - 1", "3*x*y")]
        systems = [build_als(p) for p in polys]
        tup = random_rational_tuple(random.Random(17), 2, 3)
        listed = evaluate_product(systems, tup)
        generated = evaluate_product((als for als in systems), tup)
        assert generated.mult_count == listed.mult_count > 0
        assert np.array_equal(generated.result, listed.result)
        product = polys[0] * polys[1] * polys[2]
        assert np.array_equal(generated.result, naive_evaluate(product, tup.mats))

    def test_rejects_systems_over_different_alphabets(self):
        polys = [parse("a*b", Alphabet(("a", "b"))), parse("x+y", Alphabet(("x", "y")))]
        tup = random_rational_tuple(random.Random(16), 2, 2)
        with pytest.raises(ValueError, match="^operands use different alphabets$"):
            polys[0] * polys[1]  # as multiplying the polynomials does
        with pytest.raises(ValueError, match="^operands use different alphabets$"):
            evaluate_product([build_als(p) for p in polys], tup)


class TestHornerCounts:
    def horner_oracle(self, coeffs_low_to_high, x):
        m = x.shape[0]
        acc = identity_matrix(m)  # monic leading coefficient
        for coeff in reversed(coeffs_low_to_high):
            acc = acc @ x + coeff * identity_matrix(m)
        return acc

    def test_right_companion_matches_horner_rule(self):
        ab = Alphabet(("x",))
        rng = random.Random(16)
        for _ in range(10):
            degree = rng.randint(1, 10)
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(degree)]
            als = right_companion(ab, ["x"] * degree, coeffs)
            for m in (1, 4):
                tup = random_rational_tuple(rng, 1, m)
                report = evaluate_left(als, tup)
                assert report.mult_count == degree - 1
                assert np.array_equal(
                    report.result, self.horner_oracle(coeffs, tup.mats[0])
                )

    def test_quadratic_costs_one(self):
        ab = Alphabet(("x",))
        als = right_companion(ab, ["x", "x"], [1, 0])  # x^2 + 1
        tup = random_rational_tuple(random.Random(17), 1, 3)
        report = evaluate_left(als, tup)
        assert report.mult_count == 1
        assert np.array_equal(
            report.result, tup.mats[0] @ tup.mats[0] + identity_matrix(3)
        )


class TestFloatMode:
    def test_matches_exact_within_tolerance(self, ab_xy):
        rng = random.Random(18)
        for _ in range(10):
            p = random_polynomial(rng, ab_xy, max_terms=6, max_degree=4)
            als = build_als(p)
            if als.is_empty:
                continue
            m = rng.randint(1, 8)
            exact = MatrixTuple.exact(
                [
                    [
                        [Fraction(rng.randint(-100, 100), 101) for _ in range(m)]
                        for _ in range(m)
                    ]
                    for _ in range(2)
                ]
            )
            approx = exact.to_float()
            want = np.array(
                [[float(v) for v in row] for row in evaluate_left(als, exact).result]
            )
            got = evaluate_left(als, approx).result
            assert got.dtype == float
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)
            assert (
                evaluate_left(als, approx).mult_count
                == evaluate_left(als, exact).mult_count
            )


def fraction_matmul(a, b):
    """Reference product: Fraction arithmetic at every scalar step."""
    return np.array(
        [
            [
                sum((a[i, k] * b[k, j] for k in range(a.shape[1])), Fraction(0))
                for j in range(b.shape[1])
            ]
            for i in range(a.shape[0])
        ],
        dtype=object,
    )


class TestExactProduct:
    """The integer product over a common denominator against Fraction @."""

    def random_matrix(self, rng, m, max_num, max_den):
        return np.array(
            [
                [
                    Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
                    for _ in range(m)
                ]
                for _ in range(m)
            ],
            dtype=object,
        )

    def pairs(self):
        rng = random.Random(20)
        for m in range(1, 9):
            zero = np.full((m, m), Fraction(0), dtype=object)
            for max_num, max_den in ((4, 4), (9, 1), (10**6, 10**12), (1, 10**12)):
                a = self.random_matrix(rng, m, max_num, max_den)
                b = self.random_matrix(rng, m, max_num, max_den)
                yield a, b
                yield a, a
                yield zero, b
                yield a, zero
            yield zero, zero
            yield identity_matrix(m), self.random_matrix(rng, m, 3, 10**12)

    def test_matches_fraction_matmul(self):
        # The chain x | y does one product: the plan loop's x @ y.
        xy = BlockFactorization.from_cells(Alphabet(("x", "y")), [[["x"]], [["y"]]])
        for a, b in self.pairs():
            report = evaluate_block_factorization(xy, MatrixTuple.exact([a, b]))
            product = report.result
            assert report.mult_count == 1
            assert product.dtype == object and product.shape == a.shape
            assert all(type(x) is Fraction for x in product.ravel())
            assert np.array_equal(product, fraction_matmul(a, b))


class RecordingOperands(list):
    """A walk's operands that keep every combination written into them."""

    def __init__(self, operands):
        super().__init__(operands)
        self.formed = {}

    def __setitem__(self, letter, mat):
        if mat is not None:
            self.formed[letter] = mat
        super().__setitem__(letter, mat)


def walk_combinations(plan, tup):
    """The combinations ``_run`` forms walking ``plan`` on ``tup``, by letter."""
    letters = tup._forms if tup.is_exact else tup.mats
    operands = RecordingOperands([*letters, *[None] * len(plan.combos)])
    _run(plan, tup, [plan.start], operands)
    return operands.formed


class TestBorrowedLetters:
    """An entry of one letter, whatever its coefficients, reads the tuple's
    own matrix and never writes it; other entries read a formed combination."""

    CELLS = ["y", "-y", "2y", "y + 3", "x + y", "-2x - 2y", "3"]

    def chain(self, ab):
        cells = self.CELLS
        return BlockFactorization.from_cells(ab, [[["x"]], [cells], [[1]] * len(cells)])

    def test_single_letter_entry_is_the_tuple_matrix(self, ab_xy, monkeypatch):
        bf = self.chain(ab_xy)
        tup = random_rational_tuple(random.Random(21), 2, 3)
        for mats in (tup, tup.to_float()):
            plan = _plan(bf.to_block_als(), "right", mats)
            terms = [terms for terms, _, _ in plan.steps[1:1 + len(self.CELLS)]]
            # (src, constant, letter, factor); letter 2 is the combination
            # x + y; src 1 is the block system's value of the middle row
            assert [term for (term,) in terms] == [
                (1, 0, 1, 1), (1, 0, 1, -1), (1, 0, 1, 2), (1, 3, 1, 1),
                (1, 0, 2, 1), (1, 0, 2, -2), (1, 3, None, 0),
            ]
            assert plan.combos == (((0, 1), (1, 1)),)
            (combination,) = walk_combinations(plan, mats).values()
            letters = mats.mats
            if mats.is_exact:  # the walk reads the letters' integer forms
                combination, letters = combination[0], [ints for ints, _ in mats._forms]
            assert not any(np.shares_memory(combination, mat) for mat in letters)
        read, scaled = [], []
        exact_step, integer_form = evaluator._exact_step, evaluator._integer_form

        def step_spy(forms, parts, scalar):
            read.extend(right for _, _, right in parts if right is not None)
            return exact_step(forms, parts, scalar)

        def form_spy(mat):
            scaled.append(mat)
            return integer_form(mat)

        monkeypatch.setattr(evaluator, "_exact_step", step_spy)
        monkeypatch.setattr(evaluator, "_integer_form", form_spy)
        assert evaluate_block_factorization(bf, tup).formed == 1
        # Exact steps read a letter as the tuple's own integer form.
        assert [mat is tup._forms[1] for mat in read] == [True] * 4 + [False] * 2
        assert read[4] is read[5]
        assert not any(np.shares_memory(read[4][0], ints) for ints, _ in tup._forms)
        # The letters' forms are the tuple's and the combination is formed
        # on ints, so only the eight tracked values that later steps read
        # are scaled, each once.
        assert len({id(mat) for mat in scaled}) == len(scaled) == 8
        assert not any(mat is own for mat in scaled for own in tup.mats)

    def evaluations(self, tup, systems, chains):
        for als in systems:
            yield evaluate_left(als, tup)
            yield evaluate_right(als, tup)
        for bf in chains:
            yield evaluate_block_factorization(bf, tup)
        yield evaluate_product(systems, tup)

    def test_tuples_are_unchanged_and_unshared(
        self, ab_xy, intro_als, bench19_chain, bench19_poly
    ):
        rng = random.Random(22)
        scaled = Als.from_cells(ab_xy, [["1", "x", "-2y", "x + 3"],
                                        ["0", "1", "x + y", "-x - y"],
                                        ["0", "0", "1", "2y - 1"],
                                        ["0", "0", "0", "1"]], [0, 0, 0, 3])
        xy_systems = [intro_als, build_als(parse("x + y", ab_xy)),
                      minimal_monomial(ab_xy, (0,)), minimal_monomial(ab_xy, (1, 0)),
                      scaled]
        xy_chains = [BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["y"], ["x"]]]),
                     BlockFactorization.from_cells(ab_xy, [[["x"]]]),
                     self.chain(ab_xy)]
        cases = [(2, xy_systems, xy_chains),
                 (5, [bench19_chain.to_block_als(), build_als(bench19_poly)],
                  [bench19_chain])]
        for d, systems, chains in cases:
            exact = random_rational_tuple(rng, d, 3)
            forms = [(ints.copy(), den) for ints, den in exact._forms]
            for tup in (exact, exact.to_float()):
                before = [mat.copy() for mat in tup.mats]
                raw = [mat.tobytes() for mat in tup.mats]
                for report in self.evaluations(tup, systems, chains):
                    for mat in tup.mats:
                        assert not np.shares_memory(report.result, mat)
                    for (ints, den), (old_ints, old_den) in zip(exact._forms, forms):
                        assert not np.shares_memory(report.result, ints)
                        assert den == old_den and np.array_equal(ints, old_ints)
                for mat, old, old_raw in zip(tup.mats, before, raw):
                    if tup.is_exact:
                        assert np.array_equal(mat, old)
                    else:
                        assert mat.tobytes() == old_raw


class TestHeldValues:
    """A walk holds a value only while a later step reads it."""

    def test_held_values_are_read_later(self, ab_xy, monkeypatch):
        walks = []  # (plan, values) of each walk run
        checked = []
        run, float_step = evaluator._run, evaluator._float_step

        def run_spy(plan, tup, values, operands):
            walks.append((plan, values))
            return run(plan, tup, values, operands)

        def step_spy(parts, scalar):
            plan, values = walks[-1]
            index = len(values) - 1  # the step about to append its value
            read = {src for terms, *_ in plan.steps[index:] for src, *_ in terms}
            held = {k for k, value in enumerate(values) if value is not None}
            assert held <= read
            checked.append(index)
            return float_step(parts, scalar)

        monkeypatch.setattr(evaluator, "_run", run_spy)
        monkeypatch.setattr(evaluator, "_float_step", step_spy)
        # the chain's x column is read by no step
        unread = BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["0"], ["2"]]])
        factors = [build_als(parse(text, ab_xy)) for text in ("x*y + 2", "y*x*y - x")]
        tup = random_rational_tuple(random.Random(22), 2, 3).to_float()
        evaluate_block_factorization(unread, tup)
        for als in (unread.to_block_als(), *factors):
            evaluate_left(als, tup)
            evaluate_right(als, tup)
        evaluate_product(factors, tup)
        assert len(checked) == sum(len(plan.steps) for plan, _ in walks) > 20
        for plan, values in walks:
            assert all(value is None for value in values[:-1])


class TestIntegerForms:
    """An exact tuple makes each letter's integer form once, when built."""

    def test_forms_are_the_matrices_over_their_lcm(self):
        rng = random.Random(24)
        tuples = [random_rational_tuple(rng, 3, m, max_num=50, max_den=97)
                  for m in (1, 2, 4)]
        tuples.append(MatrixTuple.exact([[[0, 2], [-3, 5]], [["1/2", "2/3"], [0, 0]]]))
        for tup in tuples:
            assert len(tup._forms) == tup.d
            for mat, (ints, den) in zip(tup.mats, tup._forms):
                entries = mat.ravel().tolist()
                assert den == lcm(*(x.denominator for x in entries))
                assert ints.shape == mat.shape and ints.dtype == object
                assert all(type(c) is int for c in ints.ravel().tolist())
                assert [Fraction(c, den) for c in ints.ravel().tolist()] == entries
                assert not np.shares_memory(ints, mat)
        assert random_rational_tuple(rng, 2, 2).to_float()._forms is None

    def test_forms_are_made_once_per_tuple(self, ab_xy, intro_als, monkeypatch):
        tup = random_rational_tuple(random.Random(25), 2, 3)
        systems = [intro_als, build_als(parse("x*y + 2x*x - 3y*x*y + 1", ab_xy)),
                   Als.from_cells(ab_xy, [["1", "x + y", "-2x - 2y"],
                                          ["0", "1", "x - 3y"],
                                          ["0", "0", "1"]], [0, 0, 2])]
        chain = BlockFactorization.from_cells(
            ab_xy, [[["x", "x + y"]], [["y - x"], ["2x + 2y"]]])
        scaled, tracked = [], []
        exact_step, integer_form = evaluator._exact_step, evaluator._integer_form

        def step_spy(forms, parts, scalar):
            tracked.append(exact_step(forms, parts, scalar))
            return tracked[-1]

        def form_spy(mat):
            scaled.append(mat)
            return integer_form(mat)

        monkeypatch.setattr(evaluator, "_exact_step", step_spy)
        monkeypatch.setattr(evaluator, "_integer_form", form_spy)
        formed = sum(evaluate_left(als, tup).formed + evaluate_right(als, tup).formed
                     for als in systems)
        formed += evaluate_block_factorization(chain, tup).formed
        formed += evaluate_product(systems, tup).formed
        assert formed > 0 and scaled
        # Every scaled matrix is a value some step returned (a product's
        # factor among them): no letter and no combination is scaled.
        for mat in scaled:
            assert any(mat is value for value in tracked)
        scaled.clear()
        MatrixTuple.exact(tup.mats)
        assert len(scaled) == tup.d


class TestFormedCombinations:
    """``EvalReport.formed``: letter combinations built as m x m matrices."""

    def test_pinned_counts_on_both_sides(
        self, bench19_poly, six_dim_remark, seven_dim_remark
    ):
        rng = random.Random(23)
        companions = [
            right_companion(Alphabet(("x",)), ["x"] * k,
                            [Fraction(rng.choice((-2, 3))) for _ in range(k)])
            for k in (9, 16)
        ]
        cases = [(minimize(convolution_system(5)), 5), (minimize(power_system(6)), 1),
                 (build_als(bench19_poly), 2), (six_dim_remark, 1),
                 (seven_dim_remark, 0)] + [(als, 0) for als in companions]
        for als, formed in cases:
            tup = random_rational_tuple(rng, len(als.alphabet), 2)
            for mats in (tup, tup.to_float()):
                assert evaluate_left(als, mats).formed == formed
                assert evaluate_right(als, mats).formed == formed

    def test_product_adds_up_its_factors(self, ab_xy):
        systems = [build_als(parse(text, ab_xy)) for text in ("x + y", "2x - 2y + 1")]
        tup = random_rational_tuple(random.Random(24), 2, 2)
        assert [evaluate_left(als, tup).formed for als in systems] == [1, 1]
        assert evaluate_product(systems, tup).formed == 2


def reference_combination(letters, mats):
    """Reference float64 ``sum c_k * mats[k]`` (the first coefficient is 1):
    a copy of the first letter, then scaled adds."""
    (first, _), *rest = letters
    total = mats[first].copy()
    for k, coeff in rest:
        total += coeff * mats[k]
    return total


def reference_integer_combination(letters, forms):
    """Reference integer form of ``sum c_k * L_k`` from the letters' forms,
    over the lcm of ``l_k * c_k.denominator``."""
    den = 1
    for k, coeff in letters:
        den = lcm(den, forms[k][1] * coeff.denominator)
    total = None
    for k, coeff in letters:
        ints, letter_den = forms[k]
        term = ints * (coeff.numerator * (den // (letter_den * coeff.denominator)))
        if total is None:
            total = term
        else:
            total += term
    return total, den


class TestStepFormedCombinations:
    """The walk forms a combination as a step of scaled letters with scalar
    zero, equal to the references bit for bit: float64 bytes, and in exact
    mode the same ints over the same denominator."""

    def assert_same(self, formed, letters, tup):
        if tup.is_exact:
            ints, den = formed
            want_ints, want_den = reference_integer_combination(letters, tup._forms)
            assert den == want_den and ints.dtype == object
            assert ints.shape == want_ints.shape
            assert ints.ravel().tolist() == want_ints.ravel().tolist()
            assert all(type(x) is int for x in ints.ravel().tolist())
        else:
            assert_bitwise_equal(formed, reference_combination(letters, tup.mats))

    def tuples(self, rng, d, m):
        tup = random_rational_tuple(rng, d, m, max_num=50, max_den=97)
        return tup, tup.to_float()

    def test_random_letter_lists(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(40):
            d, m = rng.randint(1, 4), rng.randint(1, 5)
            combos = [
                [(rng.randrange(d), Fraction(1))] + [
                    (rng.randrange(d),
                     Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 97)))
                    for _ in range(rng.randint(1, 4))
                ]
                for _ in range(3)
            ]
            for tup in self.tuples(rng, d, m):
                one = tup.coeff(Fraction(1))
                for combo in combos:
                    letters = tuple((k, tup.coeff(c)) for k, c in combo)
                    # one step reads the combination, scaled by the start value 1
                    plan = _Plan(one, True, (letters,), ((((0, 0, d, one),), (), ()),))
                    (formed,) = walk_combinations(plan, tup).values()
                    self.assert_same(formed, letters, tup)
                    checked += 1
        assert checked == 240

    def test_plan_combinations(self, bench19_poly, six_dim_remark):
        systems = [minimize(convolution_system(5)), minimize(power_system(6)),
                   build_als(bench19_poly), six_dim_remark]
        rng = random.Random(32)
        formed_count = 0
        for als in systems:
            for tup in self.tuples(rng, len(als.alphabet), 3):
                for side in ("left", "right"):
                    plan = _plan(als, side, tup)
                    formed = walk_combinations(plan, tup)
                    assert sorted(formed) == list(range(tup.d, tup.d + len(plan.combos)))
                    for letter, mat in formed.items():
                        self.assert_same(mat, plan.combos[letter - tup.d], tup)
                    formed_count += len(formed)
        assert formed_count == 2 * 2 * (5 + 1 + 2 + 1)


class TestMatrixTupleBoundary:
    def test_exact_entries_become_fractions(self):
        x_squared_plus_one = build_als(parse("x^2 + 1", Alphabet(("x",))))
        want = np.array(
            [[Fraction(37, 4), Fraction(11)], [Fraction(33, 2), Fraction(23)]],
            dtype=object,
        )
        for mat in (np.array([[1.5, 2], [3, 4]]), [["3/2", 2], [3, Fraction(4)]]):
            tup = MatrixTuple((mat,), "rat")
            assert tup.mats[0].dtype == object
            result = evaluate_left(x_squared_plus_one, tup).result
            assert all(type(x) is Fraction for x in result.ravel())
            assert np.array_equal(result, want)
        ints = MatrixTuple((np.array([[1, 2], [3, 4]], dtype=object),), "rat")
        assert all(type(x) is Fraction for x in ints.mats[0].ravel())

    def test_float_entries_become_float64(self):
        tup = MatrixTuple((np.array([[1, 2], [3, 4]]), [[Fraction(1, 2), 0], [0, 1]]),
                          "f64")
        assert all(mat.dtype == np.float64 for mat in tup.mats)
        assert tup.mats[1][0, 0] == 0.5

    def test_constructor_copies(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        tup = MatrixTuple.floating([mat])
        mat[0, 0] = 9.0
        assert tup.mats[0][0, 0] == 1.0

    def test_value_equality(self):
        tup = random_rational_tuple(random.Random(4), 2, 3)
        again = MatrixTuple.exact([mat.tolist() for mat in tup.mats])
        assert tup == again and not tup != again
        assert tup != tup.to_float() and tup.to_float() == again.to_float()
        assert tup != MatrixTuple.exact([mat.tolist() for mat in tup.mats[:1]])
        assert tup != random_rational_tuple(random.Random(4), 2, 2)
        changed = [mat.tolist() for mat in tup.mats]
        changed[1][2][0] += 1
        assert tup != MatrixTuple.exact(changed)
        assert tup != "rat"
        with pytest.raises(TypeError):
            hash(tup)

    def test_rejects_empty_and_non_finite_matrices(self):
        for mode in ("rat", "f64"):
            with pytest.raises(ValueError, match="at least 1 x 1"):
                MatrixTuple((np.zeros((0, 0)),) * 2, mode)
        for value in (np.nan, np.inf, -np.inf):
            mat = np.eye(2)
            mat[1, 0] = value
            with pytest.raises(ValueError, match="finite"):
                MatrixTuple.floating([np.eye(2), mat])

    def test_empty_matrices_report_their_size(self):
        # an empty first matrix reads as a 1-D array: the size error, not
        # the shape error, names what is wrong
        with pytest.raises(ValueError, match="at least 1 x 1"):
            MatrixTuple.exact([[]])
        with pytest.raises(ValueError, match="at least 1 x 1"):
            random_rational_tuple(random.Random(0), 2, 0)
        with pytest.raises(FormatError, match="at least 1 x 1"):
            load_matrix_tuple("0 1 rat\n")

    @pytest.mark.parametrize("mode", ["rat", "f64"])
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"),
                                     None, 1j, "inf", object()])
    def test_bad_entry_is_a_value_error_naming_it(self, mode, bad):
        mats = ([[1, 0], [0, 1]], [[2, "1/2" if mode == "rat" else 0.5], [bad, 3]])
        with pytest.raises(ValueError, match=f"^entry {re.escape(repr(bad))} is not"):
            MatrixTuple(mats, mode)

    def test_bad_rational_literals(self):
        for bad in ("1/0", "abc", "1e400x"):
            message = f"^entry {bad!r} is not a finite rational"
            with pytest.raises(ValueError, match=message):
                MatrixTuple.exact([[[1, bad], [0, 1]]])
        with pytest.raises(ValueError, match="^entry 'abc'"):
            MatrixTuple.floating([[[1, "abc"], [0, 1]]])
        with pytest.raises(ValueError, match=r"^entry 1000\d+ is not a finite float64"):
            MatrixTuple.floating([[[1, 10**400], [0, 1]]])

    def test_rejects_non_square_input(self):
        for mats in ([[1, 2], [3]], [1, 2], 5, [[[1]]]):
            for mode in ("rat", "f64"):
                with pytest.raises(ValueError):
                    MatrixTuple((mats,), mode)


class TestMatrixTupleFiles:
    def test_exact_round_trip(self):
        tup = random_rational_tuple(random.Random(19), 3, 2)
        again = load_matrix_tuple(dump_matrix_tuple(tup))
        assert again.mode == "rat"
        for a, b in zip(tup.mats, again.mats):
            assert np.array_equal(a, b)

    def test_float_round_trip(self):
        tup = MatrixTuple.floating([[[0.5, -1.25], [3.0, 2.125]]])
        again = load_matrix_tuple(dump_matrix_tuple(tup))
        assert again.mode == "f64"
        assert np.array_equal(tup.mats[0], again.mats[0])

    def test_bad_header(self):
        with pytest.raises(FormatError):
            load_matrix_tuple("3 x rat\n")
        with pytest.raises(FormatError):
            load_matrix_tuple("2 1 complex\n1 0\n0 1\n")

    def test_wrong_row_count(self):
        with pytest.raises(FormatError):
            load_matrix_tuple("2 1 rat\n1/1 0/1\n")

    def test_rejects_empty_sizes(self):
        for text in ("0 1 rat\n", "2 0 rat\n"):
            with pytest.raises(FormatError):
                load_matrix_tuple(text)

    def test_rejects_non_finite_floats(self):
        for token in ("nan", "inf", "-inf"):
            with pytest.raises(FormatError):
                load_matrix_tuple(f"1 1 f64\n{token}\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            MatrixTuple.exact([[[1, 2, 3], [4, 5, 6]]])
