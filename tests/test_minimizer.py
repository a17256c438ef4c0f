"""Minimization equations, the reduction algorithm, rank, and minimality."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from ncpoly import (
    AdmissibleTransformation,
    Alphabet,
    Als,
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
    solve_left_minimization,
    solve_right_minimization,
)

from ncpoly import minimizer
from ncpoly.families import convolution_system, power_system
from ncpoly.freepoly import word_key
from ncpoly.linalg import _integer_row, _solve
from ncpoly.minimizer import _family_rank, _is_reduced
from ncpoly.realization import LinearEntry

from conftest import BENCH19_TEXT, dense_transformation, random_polynomial, reference_rank


def system_for_x(ab):
    return Als.from_cells(ab, [["1", "-x"], ["0", "1"]], [0, 1])


def system_for_one_minus_yx(ab):
    return Als.from_cells(
        ab, [["1", "y", "-1"], ["0", "1", "-x"], ["0", "0", "1"]], [0, 0, 1]
    )


class TestSolveLeftMinimization:
    def test_dependent_row_in_sum_intermediate(self, ab_xy):
        # the 4-dim stage of minimizing x + (1 - yx): s_2 = 1 depends on s_4 = 1;
        # the fix subtracts row 4 from row 2 and adds column 2 to column 4
        stage = Als.from_cells(
            ab_xy,
            [
                ["1", "-x", "y", "-1"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "-x"],
                ["0", "0", "0", "1"],
            ],
            [0, 1, 0, 1],
        )
        t, u = solve_left_minimization(stage, 2)
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

        def broken_step(work, k, t, u):
            step(work, k, t, u)
            work.rows[-1][0] = LinearEntry.letter(0, len(work.alphabet))

        monkeypatch.setattr(minimizer, "_right_step", broken_step)
        total = als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        with pytest.raises(ValueError, match="below the diagonal"):
            minimize(total)


class TestFamilyRankMatchesRatMatrixRank:
    """_family_rank equals the rank of the coefficient rows by rational Gauss-Jordan."""

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
            expected = reference_rank([[q.coefficient(w) for w in support] for q in family])
            assert _family_rank(family) == expected
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
    t = _solve([_integer_row(row) for row in rows], q)
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
    u = _solve([_integer_row([Fraction(x) for x in row]) for row in rows], q)
    if u is None:
        return None
    t = [
        -(a12[i].constant + sum(a11[i][c].constant * u[c] for c in range(q)))
        for i in range(q)
    ]
    return tuple(t), tuple(u)


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
