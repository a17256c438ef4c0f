"""Minimization equations, the reduction algorithm, rank, and minimality."""

import hashlib
import importlib.util
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from ncpoly import (
    AdmissibleTransformation,
    Alphabet,
    Als,
    NcPolynomial,
    als_add,
    als_mul,
    apply_transformation,
    build_als,
    dump_als,
    evaluate_left,
    evaluate_right,
    factor_atoms,
    is_minimal,
    minimal_monomial,
    minimize,
    naive_evaluate,
    parse,
    random_rational_tuple,
    rank_of,
    restore_polynomial_form,
    right_companion,
    solve_left_minimization,
    solve_right_minimization,
)

from ncpoly import linalg, minimizer
from ncpoly.families import (
    convolution_polynomial,
    convolution_system,
    power_polynomial,
    power_system,
)
from ncpoly.factorizer import _joint_split_ops, _split_unknowns
from ncpoly.freepoly import word_key
from ncpoly.linalg import integer_scaled
from ncpoly.minimizer import _is_reduced, _quotient_rank
from ncpoly.realization import LinearEntry, _Work

from conftest import (
    BENCH19_TEXT,
    dense_transformation,
    family_rank,
    random_polynomial,
    reference_is_minimal,
    reference_rank,
    zero_block_ops,
)


def system_for_x(ab):
    return Als.from_cells(ab, [["1", "-x"], ["0", "1"]], [0, 1])


def system_for_one_minus_yx(ab):
    return Als.from_cells(
        ab, [["1", "y", "-1"], ["0", "1", "-x"], ["0", "0", "1"]], [0, 0, 1]
    )


def dependent_row_stage(ab):
    """The 4-dim stage of minimizing x + (1 - yx); left pivot 2 solves."""
    return Als.from_cells(
        ab,
        [
            ["1", "-x", "y", "-1"],
            ["0", "1", "0", "0"],
            ["0", "0", "1", "-x"],
            ["0", "0", "0", "1"],
        ],
        [0, 1, 0, 1],
    )


class TestSolveLeftMinimization:
    def test_dependent_row_in_sum_intermediate(self, ab_xy):
        # the 4-dim stage of minimizing x + (1 - yx): s_2 = 1 depends on s_4 = 1;
        # the fix subtracts row 4 from row 2 and adds column 2 to column 4
        t, u = solve_left_minimization(dependent_row_stage(ab_xy), 2)
        assert t == (Fraction(0), Fraction(-1))
        assert u == (Fraction(0), Fraction(1))

    def test_minimal_monomial_has_independent_left_family(self, ab_xy):
        als = minimal_monomial(ab_xy, (0, 1, 0))
        assert all(
            solve_left_minimization(als, k) is None for k in range(1, als.n)
        )

    def test_pivot_one_detects_zero(self, ab_xy):
        # terminal state of minimizing x + (-x); solvability with U = 0 means p = 0
        tail = Als.from_cells(ab_xy, [["1", "0"], ["0", "1"]], [0, -1])
        assert solve_left_minimization(tail, 1) == ((Fraction(0),), (Fraction(0),))
        # contrast: a unit polynomial forces U != 0, so pivot 1 must fail
        unit = Als.from_cells(ab_xy, [["1", "-1"], ["0", "1"]], [0, 1])
        assert solve_left_minimization(unit, 1) is None

    def test_index_errors(self, intro_als):
        with pytest.raises(IndexError):
            solve_left_minimization(intro_als, 0)
        with pytest.raises(IndexError):
            solve_left_minimization(intro_als, intro_als.n)


class TestSolveRightMinimization:
    def test_zero_right_component_in_sum(self, ab_xy):
        total = restore_polynomial_form(
            als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        )
        t, u = solve_right_minimization(total, 3)
        assert t == (Fraction(1), Fraction(0))  # add row 3 to row 1
        assert u == (Fraction(0), Fraction(0))

    def test_product_coupling_column(self, ab_xy):
        product = als_mul(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        t, u = solve_right_minimization(product, 3)
        assert t == (Fraction(0), Fraction(1))  # add row 3 to row 2
        assert u == (Fraction(0), Fraction(0))

    def test_independent_right_family(self, ab_xy):
        als = system_for_x(ab_xy)
        assert solve_right_minimization(als, 2) is None

    def test_index_errors(self, intro_als):
        with pytest.raises(IndexError):
            solve_right_minimization(intro_als, 1)
        with pytest.raises(IndexError):
            solve_right_minimization(intro_als, intro_als.n + 1)


class TestMinimize:
    def test_sum_reduces_to_dimension_three(self, ab_xy):
        trace = []
        reduced = minimize(
            als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy)), trace
        )
        assert trace == ["R k=3 dim=4", "L k=2 dim=3"]
        assert reduced == Als.from_cells(
            ab_xy,
            [["1", "y", "-1-x"], ["0", "1", "-x"], ["0", "0", "1"]],
            [0, 0, 1],
        )
        assert reduced.polynomial() == parse("1 + x - y*x", ab_xy)

    def test_product_reduces_to_dimension_four(self, ab_xy):
        trace = []
        reduced = minimize(
            als_mul(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy)), trace
        )
        assert trace == ["R k=3 dim=4"]
        assert reduced == Als.from_cells(
            ab_xy,
            [
                ["1", "-x", "0", "0"],
                ["0", "1", "y", "-1"],
                ["0", "0", "1", "-x"],
                ["0", "0", "0", "1"],
            ],
            [0, 0, 0, 1],
        )

    def test_opposites_collapse_to_empty(self, ab_xy):
        trace = []
        total = als_add(minimal_monomial(ab_xy, (0,)), minimal_monomial(ab_xy, (0,), -1))
        assert minimize(total, trace).is_empty
        # the pivot-1 collapse is a step too: the trace ends at dimension 0
        assert trace == ["L k=2 dim=3", "R k=2 dim=2", "L k=1 dim=0"]

    def test_idempotent_on_minimal_input(self, ab_xyz):
        als = minimal_monomial(ab_xyz, (0, 1, 2))
        assert minimize(als) == als

    def test_empty_input(self, ab_xy):
        assert minimize(Als.empty(ab_xy)).is_empty

    def test_accepted_steps_make_removal_admissible(self, ab_xy):
        # turn each solver solution into the full (P(T), Q(U)) pair and check
        # the removal precondition: A_23 = 0 and v_2 = 0, or A_12 = 0
        total = restore_polynomial_form(
            als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        )
        n = total.n
        k = 3
        t, u = solve_right_minimization(total, k)
        trans = AdmissibleTransformation(
            n,
            {(i, k - 1): t[i] for i in range(k - 1)},
            {(i, k - 1): u[i] for i in range(k - 1)},
        )
        moved = apply_transformation(total, trans)
        assert moved == dense_transformation(total, trans)
        assert all(moved.rows[i][k - 1].is_zero for i in range(k - 1))
        assert moved.polynomial() == total.polynomial()


class TestGeneralRightHandSide:
    """minimize accepts any right-hand side, a zero last entry included."""

    @pytest.mark.parametrize(
        "cells, rhs, expected",
        [
            ([["1", "-x"], ["0", "1"]], [1, 0], "1"),
            ([["1", "-x", "0"], ["0", "1", "-y"], ["0", "0", "1"]], [0, 1, 0], "x"),
            (
                [["1", "-x", "y"], ["0", "1", "-x"], ["0", "0", "1"]],
                [2, 3, 0],
                "2 + 3*x",
            ),
            ([["1", "-x", "y"], ["0", "1", "-x"], ["0", "0", "1"]], [5, 0, 0], "5"),
            ([["1", "-x", "y"], ["0", "1", "0"], ["0", "0", "1"]], [0, 0, 0], "0"),
        ],
    )
    def test_zero_last_entry(self, ab_xy, cells, rhs, expected):
        als = Als.from_cells(ab_xy, cells, rhs)
        p = parse(expected, ab_xy)
        assert als.polynomial() == p
        reduced = minimize(als)
        assert reduced.polynomial() == p
        assert reduced.is_polynomial_form and is_minimal(reduced)
        assert reduced.n == rank_of(p)


def random_admissible(rng, n):
    """Sparse unitriangular (P, Q) with Q's first row e1 and P's last column e_n.

    Such a transformation keeps a polynomial system in polynomial form.
    """
    p, q = {}, {}
    for i in range(n):
        for j in range(i + 1, n):
            if j < n - 1 and rng.random() < 0.3:
                p[i, j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if i > 0 and rng.random() < 0.3:
                q[i, j] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return AdmissibleTransformation(n, p, q)


class TestScanMatchesFamilyRanks:
    """find_split's pivot-scan precondition agrees with is_minimal."""

    def seeded_systems(self, rng, alphabet, count):
        """Minimal systems as built and scrambled, and un-minimized sums."""
        for _ in range(count):
            p = random_polynomial(rng, alphabet, max_terms=6, max_degree=3)
            q = random_polynomial(rng, alphabet, max_terms=3, max_degree=2)
            built = build_als(p)
            yield built
            yield apply_transformation(built, random_admissible(rng, built.n))
            yield restore_polynomial_form(als_add(built, build_als(q)))
            raw = Als.empty(alphabet)
            for word, coeff in p.terms():
                raw = als_add(raw, minimal_monomial(alphabet, word, coeff))
                yield restore_polynomial_form(raw)

    def test_seeded_systems(self, ab_xy, ab_xyz, seven_dim_remark, six_dim_remark):
        systems = [seven_dim_remark, six_dim_remark]
        systems += [power_system(k) for k in range(5)]
        systems += [convolution_system(k) for k in range(1, 4)]
        rng = random.Random(23)
        for alphabet in (ab_xy, ab_xyz):
            systems.extend(self.seeded_systems(rng, alphabet, 12))
        verdicts = [0, 0]
        for als in systems:
            minimal = is_minimal(als)
            assert _is_reduced(als) == minimal
            verdicts[minimal] += 1
        assert all(verdicts)  # both verdicts occur, so both paths are compared


def reference_minimize(als, trace=None):
    """The per-step minimizer: each step is apply_transformation, drop, a full Als."""

    def drop(als, k):
        p = k - 1
        rows = [row[:p] + row[k:] for i, row in enumerate(als.rows) if i != p]
        return Als(als.alphabet, rows, als.rhs[:p] + als.rhs[k:])

    if als.is_empty:
        return als
    if all(x == 0 for x in als.rhs):
        return Als.empty(als.alphabet)
    m = max(i for i, x in enumerate(als.rhs) if x) + 1
    als = Als(als.alphabet, [row[:m] for row in als.rows[:m]], als.rhs[:m])
    als = restore_polynomial_form(als)
    k = 2
    while k <= als.n:
        n = als.n
        pivot = n + 1 - k
        left = solve_left_minimization(als, pivot) if pivot >= 1 else None
        if left is not None:
            if pivot == 1:
                if trace is not None:
                    trace.append("L k=1 dim=0")
                return Als.empty(als.alphabet)
            t, u = left
            p = pivot - 1
            trans = AdmissibleTransformation(
                n,
                {(p, pivot + j): x for j, x in enumerate(t)},
                {(p, pivot + j): x for j, x in enumerate(u)},
            )
            als = apply_transformation(als, trans)
            assert all(e.is_zero for e in als.rows[p][pivot:]) and als.rhs[p] == 0
            als = drop(als, pivot)
            if trace is not None:
                trace.append(f"L k={pivot} dim={als.n}")
        else:
            right = solve_right_minimization(als, k)
            if right is None:
                k += 1
                continue
            t, u = right
            p = k - 1
            trans = AdmissibleTransformation(
                n,
                {(i, p): x for i, x in enumerate(t)},
                {(i, p): x for i, x in enumerate(u)},
            )
            als = apply_transformation(als, trans)
            assert all(row[p].is_zero for row in als.rows[:p])
            als = drop(als, k)
            if trace is not None:
                trace.append(f"R k={k} dim={als.n}")
        if k > 2 and 2 * k > n + 1:
            k -= 1
    if all(x == 0 for x in als.rhs):
        return Als.empty(als.alphabet)
    return restore_polynomial_form(als)


def reference_build_als(p, insertion_order=None):
    """The per-monomial builder: als_add, then the per-step minimizer."""
    words = insertion_order or sorted(p.support(), key=word_key)
    acc = Als.empty(p.alphabet)
    for word in words:
        mono = minimal_monomial(p.alphabet, word, p.coefficient(word))
        acc = reference_minimize(als_add(acc, mono))
    return acc


def outcome(reduce, als):
    """dump_als and trace of the reduced system, or the ValueError raised."""
    trace = []
    try:
        return dump_als(reduce(als, trace)), trace
    except ValueError as exc:
        return "ValueError", str(exc)


class TestWorkingSystemMatchesPerStepReference:
    """minimize/build_als on one working system equal the per-step versions."""

    def seeded_inputs(self, rng, alphabet, count):
        for _ in range(count):
            p = random_polynomial(rng, alphabet, max_terms=6, max_degree=3)
            q = random_polynomial(rng, alphabet, max_terms=4, max_degree=2)
            built, other = build_als(p), build_als(q)
            yield als_add(built, other)
            yield als_add(other, build_als(-p))  # sums to -p + q
            yield als_add(build_als(-p), built)  # sums to zero
            yield als_mul(built, other)
            raw = Als.empty(alphabet)
            for word, coeff in p.terms():
                raw = als_add(raw, minimal_monomial(alphabet, word, coeff))
            yield raw
            yield apply_transformation(raw, random_admissible(rng, raw.n))
            yield apply_transformation(built, random_admissible(rng, built.n))
            rhs = [Fraction(rng.randint(-2, 2)) for _ in range(raw.n - 1)] + [0]
            yield Als(alphabet, raw.rows, rhs)  # general rhs with v_n = 0

    def test_minimize_on_seeded_systems(self, ab_xy, ab_xyz, seven_dim_remark):
        systems = [seven_dim_remark, convolution_system(3), power_system(3)]
        rng = random.Random(41)
        for alphabet in (ab_xy, ab_xyz):
            systems.extend(self.seeded_inputs(rng, alphabet, 10))
        shrunk = 0
        for als in systems:
            expected = outcome(reference_minimize, als)
            assert outcome(minimize, als) == expected
            shrunk += expected[0] != "ValueError" and bool(expected[1])
        assert shrunk > len(systems) // 2  # most inputs take minimization steps

    def test_build_als_with_shuffled_insertion_orders(self, ab_xy, ab_xyz):
        rng = random.Random(43)
        for alphabet in (ab_xy, ab_xyz):
            for _ in range(6):
                p = random_polynomial(rng, alphabet, max_terms=7, max_degree=3)
                words = sorted(p.support(), key=word_key)
                assert dump_als(build_als(p)) == dump_als(reference_build_als(p))
                for _ in range(3):
                    rng.shuffle(words)
                    assert dump_als(build_als(p, list(words))) == dump_als(
                        reference_build_als(p, list(words))
                    )

    def test_broken_step_fails_final_validation(self, ab_xy, monkeypatch):
        # a step that leaves a letter below the diagonal is caught once, when
        # the working system is frozen into the returned Als
        step = minimizer._right_step

        def broken_step(work, k, t):
            step(work, k, t)
            work.rows[-1][0] = LinearEntry.letter(0, len(work.alphabet))

        monkeypatch.setattr(minimizer, "_right_step", broken_step)
        total = als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        with pytest.raises(ValueError, match="below the diagonal"):
            minimize(total)


class TestRemovalCheck:
    """The solvers check the line each removal step drops.

    The steps never form that line: a left step only mixes columns and a
    right step only rows.  So the solver asserts that each target's
    residual, entry + sum x_v * e_v, has no letters (at left pivot 1 no
    constants either) and that the left right-hand-side row cancels.
    """

    def perturb(self, monkeypatch, index):
        solve = linalg.solve_rows

        def perturbed(rows, rhs, width):
            x = solve(rows, rhs, width)
            x[index] += 1
            return x

        monkeypatch.setattr(linalg, "solve_rows", perturbed)

    def test_left_pivot_letter_residual(self, ab_xy, monkeypatch):
        stage = dependent_row_stage(ab_xy)
        assert solve_left_minimization(stage, 2) is not None
        # T = (1, -1) still cancels v_2, but adds the -x of row 3 to cell (2, 4)
        self.perturb(monkeypatch, 0)
        with pytest.raises(AssertionError):
            solve_left_minimization(stage, 2)

    def test_left_pivot_right_hand_side(self, ab_xy, monkeypatch):
        # T = (0, 0) leaves no letter, but v_2 = 1 is not cancelled
        self.perturb(monkeypatch, 1)
        with pytest.raises(AssertionError):
            solve_left_minimization(dependent_row_stage(ab_xy), 2)

    def test_left_pivot_one_constants(self, ab_xy, monkeypatch):
        tail = Als.from_cells(ab_xy, [["1", "0"], ["0", "1"]], [0, -1])
        self.perturb(monkeypatch, 0)
        with pytest.raises(AssertionError):
            solve_left_minimization(tail, 1)

    def test_right_pivot_letter_residual(self, ab_xy, monkeypatch):
        total = restore_polynomial_form(
            als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        )
        assert solve_right_minimization(total, 3) is not None
        # U = (0, 1) adds the -x of column 2 to cell (1, 3)
        self.perturb(monkeypatch, 1)
        with pytest.raises(AssertionError):
            solve_right_minimization(total, 3)


class TestBuildAlsFormsOnlyKeptWork:
    """Call counts on a fixed corpus, so discarded work cannot come back.

    ``build_als`` forms no row or column mix (steps and restorations edit
    only the lines they keep), and builds no more minimization equations
    than its scan asks for.  Counts, not times, so the test is
    deterministic.
    """

    # the scan's 1,461 solver calls on this corpus; the rest are decided
    # by one cell (see TestOneCellDecision)
    MAX_EQUATION_BUILDS = 470

    def test_seeded_corpus(self, ab_xy, ab_xyz, monkeypatch):
        def no_mix(*args):
            raise AssertionError("build_als formed a mix")

        builds = []
        zero_cell_rows = minimizer._zero_cell_rows

        def counted(*args):
            builds.append(args)
            return zero_cell_rows(*args)

        monkeypatch.setattr(_Work, "mix", no_mix)
        monkeypatch.setattr(minimizer, "_zero_cell_rows", counted)
        rng = random.Random(19)
        for alphabet in (ab_xy, ab_xyz):
            for _ in range(20):
                p = random_polynomial(rng, alphabet, max_terms=8, max_degree=3)
                assert build_als(p).polynomial() == p
        assert len(builds) <= self.MAX_EQUATION_BUILDS


def former_left_solve(als, k):
    """The left solver before the one-cell decision."""
    n = als.n
    a = als.rows
    q = n - k
    targets = []
    for c in range(k, n):
        column = [(i - k, e) for i in range(k, c + 1) if not (e := a[i][c]).is_zero]
        targets.append((a[k - 1][c], column))
    comps = range(0 if k == 1 else 1, len(als.alphabet) + 1)
    eqs = minimizer._zero_cell_rows(targets, comps, q)
    if eqs is None:
        return None
    rows, rhs = eqs
    rows.append(list(als.rhs[k:]))
    rhs.append(-als.rhs[k - 1])
    t = linalg.solve_rows(rows, rhs, q)
    if t is None:
        return None
    return tuple(t), minimizer._other_unknown(targets, t, k == 1)


def former_right_solve(als, k):
    """The right solver before the one-cell decision."""
    a = als.rows
    q = k - 1
    targets = [
        (a[i][q], [(c, e) for c in range(i, q) if not (e := a[i][c]).is_zero])
        for i in range(q)
    ]
    eqs = minimizer._zero_cell_rows(targets, range(1, len(als.alphabet) + 1), q)
    u = None if eqs is None else linalg.solve_rows(*eqs, q)
    if u is None:
        return None
    return minimizer._other_unknown(targets, u, False), tuple(u)


def former_is_reduced(als):
    n = als.n
    return all(former_left_solve(als, k) is None for k in range(1, n)) and all(
        former_right_solve(als, k) is None for k in range(2, n + 1)
    )


def decisive_letter(als, side, k):
    """Whether the cell that decides pivot k on this side holds a letter."""
    i = k - 1 if side == "left" else k - 2
    return not als.rows[i][i + 1].is_scalar


class TestOneCellDecision:
    """A letter in cell (k-1, k) (left) or (k-2, k-1) (right) decides None.

    The systems are every working system that ``build_als`` scans on
    seeded polynomials, and the minimal q_5 and p_6, where every pivot is
    decided this way.
    """

    def systems(self, ab_xy, ab_xyz):
        seen = {}
        solve = minimizer.solve_left_minimization

        def recording(work, k):
            key = (tuple(map(tuple, work.rows)), tuple(work.rhs))
            seen.setdefault(key, _Work(work.alphabet, work.rows, work.rhs))
            return solve(work, k)

        rng = random.Random(20)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(minimizer, "solve_left_minimization", recording)
            for alphabet in (ab_xy, ab_xyz):
                for _ in range(15):
                    build_als(random_polynomial(rng, alphabet, 8, 3))
        return list(seen.values()) + [convolution_system(5), power_system(6)]

    def pivots(self, als):
        yield from (("left", k) for k in range(1, als.n))
        yield from (("right", k) for k in range(2, als.n + 1))

    def test_letter_decides_without_equations(self, ab_xy, ab_xyz, monkeypatch):
        systems = self.systems(ab_xy, ab_xyz)

        def no_equations(*args):
            raise AssertionError("built equations for a pivot one cell decides")

        monkeypatch.setattr(minimizer, "_zero_cell_rows", no_equations)
        solvers = {"left": solve_left_minimization, "right": solve_right_minimization}
        decided = {"left": 0, "right": 0}
        for als in systems:
            for side, k in self.pivots(als):
                if decisive_letter(als, side, k):
                    assert solvers[side](als, k) is None
                    decided[side] += 1
        assert all(count > 100 for count in decided.values())
        for als in systems[-2:]:  # q_5 and p_6: one cell decides every pivot
            assert all(decisive_letter(als, *pivot) for pivot in self.pivots(als))

    def test_same_results_as_former_solvers(self, ab_xy, ab_xyz):
        outcomes = {"left": [0, 0, 0], "right": [0, 0, 0]}
        solvers = {
            "left": (solve_left_minimization, former_left_solve),
            "right": (solve_right_minimization, former_right_solve),
        }
        for als in self.systems(ab_xy, ab_xyz):
            for side, k in self.pivots(als):
                solve, former = solvers[side]
                found = solve(als, k)
                assert found == former(als, k)
                outcomes[side][
                    2 if decisive_letter(als, side, k) else found is None
                ] += 1
            assert _is_reduced(als) == former_is_reduced(als)
        # solved, unsolved through the equations, decided by one cell
        assert all(all(counts) for counts in outcomes.values())


class TestFamilyRankMatchesRatMatrixRank:
    """family_rank equals the rank of the coefficient rows by rational Gauss-Jordan
    over the sorted support, and so does linalg's kernel on the same rows."""

    def test_seeded_families(self, ab_xy, ab_xyz):
        rng = random.Random(47)
        families = []
        for alphabet in (ab_xy, ab_xyz):
            for _ in range(8):
                p = random_polynomial(rng, alphabet, max_terms=6, max_degree=3)
                q = random_polynomial(rng, alphabet, max_terms=4, max_degree=2)
                for als in (build_als(p), als_add(build_als(p), build_als(q))):
                    families += [als.left_family(), als.right_family()]
                members = [random_polynomial(rng, alphabet) for _ in range(3)]
                members.append(members[0] * Fraction(2, 3) - members[1])
                families.append(members)
        ranks = set()
        for family in families:
            support = sorted(set().union(*(q.support() for q in family)), key=word_key)
            rows = [[q.coefficient(w) for w in support] for q in family]
            expected = reference_rank(rows)
            assert family_rank(family) == expected == linalg.rank(rows)
            ranks.add(expected == len(family))
        assert ranks == {True, False}  # full and deficient ranks both occur


class TestRankOf:
    def test_introduction_polynomial(self, ab_xy):
        assert rank_of(parse("x - x*y*x", ab_xy)) == 4

    def test_power_family(self, ab_xyz):
        base = parse("x + y + z", ab_xyz)
        for k in range(5):
            assert rank_of(base**k) == k + 1

    def test_trivial_ranks(self, ab_xy):
        assert rank_of(parse("0", ab_xy)) == 0
        assert rank_of(parse("7/2", ab_xy)) == 1
        assert rank_of(parse("x - 3", ab_xy)) == 2


class TestBuildAls:
    def test_anticommutator(self, ab_xy):
        als = build_als(parse("x*y + y*x", ab_xy))
        assert als.n == 4
        assert is_minimal(als)

    def test_zero_polynomial(self, ab_xy):
        assert build_als(parse("0", ab_xy)).is_empty

    def test_dimension_is_insertion_order_independent(self, ab_xyz):
        rng = random.Random(42)
        for _ in range(5):
            p = random_polynomial(rng, ab_xyz, max_terms=6, max_degree=4)
            reference = build_als(p).n
            words = list(p.support())
            for _ in range(4):
                rng.shuffle(words)
                shuffled = build_als(p, insertion_order=list(words))
                assert shuffled.n == reference
                assert shuffled.polynomial() == p

    def test_rejects_bad_insertion_order(self, ab_xy):
        p = parse("x + y", ab_xy)
        with pytest.raises(ValueError):
            build_als(p, insertion_order=[(0,)])


class TestIsMinimal:
    def test_two_dim_letter_system(self, ab_xy):
        assert is_minimal(system_for_x(ab_xy))

    def test_raw_sum_is_not_minimal(self, ab_xy):
        total = als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        assert not is_minimal(total)

    def test_remark_systems(self, seven_dim_remark, six_dim_remark):
        assert not is_minimal(seven_dim_remark)
        assert is_minimal(six_dim_remark)

    def test_empty_is_minimal(self, ab_xy):
        assert is_minimal(Als.empty(ab_xy))


def bench_inputs():
    """The benchmark's input definitions, ``bench/inputs.py``, read only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compile_polynomials(inputs, seed):
    """The benchmark's 112 compile polynomials at one seed, drawn as its set-up does."""
    rng = random.Random(seed)
    polys = []
    for d, words in inputs.corpus_skeletons(110):
        alphabet = Alphabet(tuple("wxyz"[:d]))
        polys.append(NcPolynomial(alphabet, inputs.corpus_polynomial(rng, words)))
    for _, text, letters, _ in inputs.COMPILE_NAMED:
        polys.append(parse(text, Alphabet(letters)))
    polys.append(power_polynomial(3))
    return polys


class TestIsMinimalMatchesFamilyRanks:
    """is_minimal (one family, its quotient rank) agrees with both family ranks."""

    def test_minimal_systems(self, bench19_poly):
        inputs = bench_inputs()
        systems = [
            build_als(p) for seed in (1, 101) for p in compile_polynomials(inputs, seed)
        ]
        assert len(systems) == 224
        systems += [power_system(k) for k in range(7)]
        systems += [convolution_system(k) for k in range(1, 7)]
        systems.append(build_als(bench19_poly))
        univariate, rng = Alphabet(("x",)), random.Random(29)
        for degree in (9, 16):
            consts = inputs.companion_consts(rng, degree)
            systems.append(right_companion(univariate, ["x"] * degree, consts))
        for als in systems:
            assert reference_is_minimal(als)
            assert is_minimal(als)

    def test_sums_and_products(self, ab_xy, ab_xyz, seven_dim_remark, bench19_chain):
        # als_add(a, a) has twice the dimension of a for a polynomial of a's
        # rank; of the other sums and products some are minimal (a product
        # with a scalar factor), so both verdicts are compared
        non_minimal = [seven_dim_remark, bench19_chain.to_block_als()]
        others = []
        rng = random.Random(31)
        for alphabet in (ab_xy, ab_xyz):
            for _ in range(10):
                a, b = (
                    build_als(random_polynomial(rng, alphabet, max_terms=6, max_degree=3))
                    for _ in range(2)
                )
                non_minimal.append(als_add(a, a))
                others += [als_add(a, b), als_mul(a, b)]
        for als in non_minimal:
            assert not reference_is_minimal(als)
            assert not is_minimal(als)
        verdicts = [0, 0]
        for als in others:
            minimal = reference_is_minimal(als)
            assert is_minimal(als) == minimal
            verdicts[minimal] += 1
        assert all(verdicts)


def former_quotient_rank(p):
    """The closure's former private reduction, kept as a reference.

    Each quotient is reduced fraction-free against the basis in the order
    it grew (every basis vector is zero at the pivots of those before
    it), and a nonzero remainder joins with a word of highest degree as
    pivot.
    """
    terms = p.term_map()
    start = dict(zip(terms, integer_scaled(list(terms.values()))[0]))
    basis = []
    if start:
        basis.append((max(start, key=len), start))
    d = len(p.alphabet)
    for _, vector in basis:  # grows while it is read
        quotients = [{} for _ in range(d)]
        for word, c in vector.items():
            if word:
                quotients[word[0]][word[1:]] = c
        for q in quotients:
            for pivot, b in basis:
                a = q.get(pivot)
                if a:
                    pb = b[pivot]
                    g = gcd(a, pb)
                    a, pb = a // g, pb // g
                    if pb != 1:
                        for word in q:
                            q[word] *= pb
                    for word, c in b.items():
                        x = q.get(word, 0) - a * c
                        if x:
                            q[word] = x
                        else:
                            del q[word]
            if q:
                g = gcd(*q.values())
                if g != 1:
                    q = {word: c // g for word, c in q.items()}
                basis.append((max(q, key=len), q))
    return len(basis)


class TestRankFromQuotients:
    """rank_of builds no system, and equals the dimension build_als reaches."""

    @staticmethod
    def seeded_polynomials():
        rng = random.Random(37)
        for letters in (("x",), ("x", "y"), ("x", "y", "z")):
            alphabet = Alphabet(letters)
            for _ in range(20):
                yield random_polynomial(rng, alphabet, max_terms=8, max_degree=5)

    @staticmethod
    def named_polynomials(ab_xyz, bench19_poly):
        return [
            power_polynomial(6),
            convolution_polynomial(5),
            bench19_poly,
            parse("(x+y+z)^5", ab_xyz),
            parse("1/2*x - 2/3*x*y*x + 5/7", ab_xyz),
            parse("0", ab_xyz),
            parse("-7/3", ab_xyz),
        ]

    def test_seeded_polynomials(self):
        for p in self.seeded_polynomials():
            assert rank_of(p) == build_als(p).n

    def test_named_polynomials(self, ab_xyz, bench19_poly):
        polys = self.named_polynomials(ab_xyz, bench19_poly)
        ranks = [rank_of(p) for p in polys]
        assert ranks == [build_als(p).n for p in polys]
        assert ranks == [7, 6, 16, 6, 4, 0, 1]

    def test_matches_the_former_closure(self, ab_xyz, bench19_poly):
        polys = list(self.seeded_polynomials())
        polys += self.named_polynomials(ab_xyz, bench19_poly)
        polys += [parse(f"(x+y+z)^{k}", ab_xyz) for k in range(1, 8)]
        for p in polys:
            assert _quotient_rank(p) == former_quotient_rank(p)

    def test_builds_no_system(self, ab_xyz, monkeypatch):
        monkeypatch.setattr(minimizer, "build_als", None)
        monkeypatch.setattr(minimizer, "_Work", None)
        assert rank_of(parse("(x*y+1)*(z*x-3)", ab_xyz)) == 5


class TestCorpusInvariants:
    def test_minimize_preserves_polynomial_and_reaches_minimality(self, ab_xyz):
        rng = random.Random(7)
        for _ in range(30):
            p = random_polynomial(rng, ab_xyz, max_terms=8, max_degree=4)
            als = build_als(p)
            assert als.polynomial() == p
            assert is_minimal(als)
            assert minimize(als).n == als.n

    def test_evaluation_matches_oracle(self, ab_xyz):
        rng = random.Random(8)
        for _ in range(15):
            p = random_polynomial(rng, ab_xyz, max_terms=6, max_degree=4)
            als = build_als(p)
            tup = random_rational_tuple(rng, 3, 3)
            reference = naive_evaluate(p, tup.mats)
            assert np.array_equal(evaluate_left(als, tup).result, reference)
            assert np.array_equal(evaluate_right(als, tup).result, reference)

    def test_rank_laws(self, ab_xy):
        rng = random.Random(9)
        for _ in range(12):
            p = random_polynomial(rng, ab_xy, max_terms=4, max_degree=3)
            q = random_polynomial(rng, ab_xy, max_terms=4, max_degree=3)
            rp, rq = rank_of(p), rank_of(q)
            assert rank_of(p + q) <= rp + rq
            if not p.is_zero and not q.is_zero:
                assert rank_of(p * q) == rp + rq - 1


def full_left_solve(als, k):
    """The former left solver: build every equation row, then eliminate."""
    q, d = als.n - k, len(als.alphabet)
    a23 = als.rows[k - 1][k:]
    a33 = [row[k:] for row in als.rows[k:]]
    rows = [
        [a33[r][j].coeffs[comp] for r in range(q)] + [-a23[j].coeffs[comp]]
        for comp in (range(d + 1) if k == 1 else range(1, d + 1))
        for j in range(q)
    ]
    rows.append(list(als.rhs[k:]) + [-als.rhs[k - 1]])
    t = linalg.solve_rows([row[:-1] for row in rows], [row[-1] for row in rows], q)
    if t is None:
        return None
    u = [
        -(a23[j].constant + sum(t[r] * a33[r][j].constant for r in range(q)))
        for j in range(q)
    ]
    return tuple(t), tuple(u)


def full_right_solve(als, k):
    """The former right solver: build every equation row, then eliminate."""
    q, d = k - 1, len(als.alphabet)
    a11 = [row[:q] for row in als.rows[:q]]
    a12 = [row[q] for row in als.rows[:q]]
    rows = [
        [a11[i][c].coeffs[comp] for c in range(q)] + [-a12[i].coeffs[comp]]
        for comp in range(1, d + 1)
        for i in range(q)
    ]
    rows.append([1] + [0] * (q - 1) + [0])
    u = linalg.solve_rows([row[:-1] for row in rows], [row[-1] for row in rows], q)
    if u is None:
        return None
    t = [
        -(a12[i].constant + sum(a11[i][c].constant * u[c] for c in range(q)))
        for i in range(q)
    ]
    return tuple(t), tuple(u)


def dense_zero_block_ops(als, target_rows, target_cols, row_sources, col_sources):
    """The former split builder: a dense row for every component and cell."""
    variables = []
    for i in target_rows:
        for r in row_sources:
            if r > i:
                variables.append(("row", i, r))
    for j in target_cols:
        for c in col_sources:
            if 0 < c < j:
                variables.append(("col", c, j))
    index = {var: pos for pos, var in enumerate(variables)}
    rows, rhs = [], []
    for comp in range(len(als.alphabet) + 1):
        for i in target_rows:
            for j in target_cols:
                coeffs = [Fraction(0)] * len(variables)
                for r in row_sources:
                    if r > i:
                        coeffs[index[("row", i, r)]] = als.rows[r][j].coeffs[comp]
                for c in col_sources:
                    if 0 < c < j:
                        coeffs[index[("col", c, j)]] = als.rows[i][c].coeffs[comp]
                rows.append(coeffs)
                rhs.append(-als.rows[i][j].coeffs[comp])
    solution = linalg.solve_rows(rows, rhs, len(variables))
    if solution is None:
        return None
    ops = {"row": {}, "col": {}}
    for (kind, a, b), x in zip(variables, solution):
        if x != 0:
            ops[kind][a, b] = x
    return ops["row"], ops["col"]


def joint_sources(n, n1):
    """(row, col sources) of the two joint solves at split position n1."""
    return (
        (range(n1 - 1, n - 1), range(1, n1 - 1)),  # split row as a row source
        (range(n1, n - 1), range(1, n1)),  # split row as a column source
    )


class TestCertificateMatchesFullElimination:
    """Stopping at the first 0 = b row gives what full elimination gives."""

    def unminimized_sums(self, rng, alphabet, count):
        """Chains of als_add over monomials, raw and as build_als sees them."""
        for _ in range(count):
            p = random_polynomial(rng, alphabet, max_terms=6, max_degree=3)
            raw = built = Als.empty(alphabet)
            for word, coeff in sorted(p.terms(), key=lambda t: (len(t[0]), t[0])):
                mono = minimal_monomial(alphabet, word, coeff)
                raw = als_add(raw, mono)
                built = als_add(built, mono)
                yield raw
                if built.rhs[-1]:
                    yield restore_polynomial_form(built)
                built = minimize(built)

    def test_every_pivot_of_seeded_sums(self, ab_xy, ab_xyz):
        outcomes = {"left": [0, 0], "right": [0, 0]}
        rng = random.Random(21)
        for alphabet in (ab_xy, ab_xyz):
            for als in self.unminimized_sums(rng, alphabet, 15):
                for k in range(1, als.n):
                    found = solve_left_minimization(als, k)
                    assert found == full_left_solve(als, k)
                    outcomes["left"][found is None] += 1
                for k in range(2, als.n + 1):
                    found = solve_right_minimization(als, k)
                    assert found == full_right_solve(als, k)
                    outcomes["right"][found is None] += 1
        # both outcomes occur on both sides, so both paths are compared
        assert all(solved and unsolved for solved, unsolved in outcomes.values())

    def test_split_solves_of_seeded_minimal_systems(self, ab_xy, ab_xyz):
        """The sparse split equations solve like the former dense rows."""
        rng = random.Random(34)
        polys = []
        for alphabet in (ab_xy, ab_xyz):
            for _ in range(6):
                p = random_polynomial(rng, alphabet, max_terms=3, max_degree=2)
                q = random_polynomial(rng, alphabet, max_terms=3, max_degree=2)
                polys += [p * q, p + q * p]
        outcomes = [0, 0]
        for p in polys:
            als = build_als(p)
            n = als.n
            for n1 in range(2, n):
                rows, cols = range(n1 - 1), range(n1, n)
                found = list(_joint_split_ops(als, _split_unknowns(als, n1)))
                want = [
                    dense_zero_block_ops(als, rows, cols, *sources)
                    for sources in joint_sources(n, n1)
                ]
                assert found == want
                # the general reference of the former strategies, rows-only
                # and columns-only shapes included
                shapes = [(range(1, n - 1), ()), ((), range(1, n1))]
                for sources in shapes + list(joint_sources(n, n1)):
                    args = (als, rows, cols, *sources)
                    assert zero_block_ops(*args) == dense_zero_block_ops(*args)
                for ops in found:
                    outcomes[ops is None] += 1
        # both outcomes occur, so both paths are compared
        assert all(outcomes)


# sha256 of the systems and atoms below, recorded when they were last changed
PINNED_REPRESENTATIVES = "fa9760d55cda88d3718ba484ff23e7ae13a1056a6b1880c820ce4d5acf501476"


def test_minimal_representatives_are_pinned(ab_xyz, bench19_alphabet):
    """build_als and factor_atoms return the same systems and atoms as before.

    Every minimal system has the same dimension, but N_s and N_t depend on
    which minimal representative is built.  A change that alters one of
    these systems or atoms must update the hash and say so.
    """
    rng = random.Random(5)
    polys = [random_polynomial(rng, ab_xyz) for _ in range(40)]
    polys.append(parse(BENCH19_TEXT, bench19_alphabet))
    polys.append(parse("(x*y+1)*(z*x-3)", ab_xyz))
    parts = [dump_als(build_als(p)) for p in polys]
    triple_ab = Alphabet(("a", "b", "c", "d", "e", "x"))
    for text, alphabet in (
        ("x - x*y*x", ab_xyz),
        ("x*y*z", ab_xyz),
        ("2aexc + 2bxc - aexd - bxd", triple_ab),
        ("x*y + y*x", ab_xyz),
    ):
        atoms = factor_atoms(parse(text, alphabet))
        parts.append(" | ".join(str(a) for a in atoms))
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == PINNED_REPRESENTATIVES
