"""Exact rational elimination: solving and rank on plain rows."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ncpoly.linalg import add_row, solution_space, solve_rows

from conftest import kernel_rank, matmul, reference_eliminate, reference_rank, sparse_row


def satisfies(rows, rhs, x):
    """Substitute x back: every row times x equals its right-hand side."""
    return all(
        sum((a * v for a, v in zip(row, x)), Fraction(0)) == b for row, b in zip(rows, rhs)
    )


class TestSolveLinear:
    """Solving A x = b given as rows and a right-hand side (``solve_rows``)."""

    def test_identity_system(self):
        rows = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
        assert solve_rows(rows, [1, 2, 3], 3) == [1, 2, 3]

    def test_inconsistent(self):
        assert solve_rows([[1, 1], [2, 2]], [1, 3], 2) is None

    def test_free_variables_zeroed(self):
        x = solve_rows([[1, 1]], [5], 2)
        assert x == [5, 0]
        assert satisfies([[1, 1]], [5], x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_rows([[1, 0], [0, 1]], [1, 2, 3], 2)

    def test_exactness_on_random_consistent_systems(self):
        rng = random.Random(1)
        for _ in range(25):
            rows_n = rng.randint(1, 5)
            cols_n = rng.randint(1, 5)
            a = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols_n)]
                for _ in range(rows_n)
            ]
            x0 = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))] for _ in range(cols_n)]
            b = [row[0] for row in matmul(a, x0)]
            x = solve_rows(a, b, cols_n)
            assert x is not None
            assert satisfies(a, b, x)


class TestSolveRows:
    def test_empty_system_is_all_zero(self):
        assert solve_rows([], [], 4) == [Fraction(0)] * 4

    def test_zero_width(self):
        assert solve_rows([[], []], [0, 0], 0) == []
        assert solve_rows([[]], [1], 0) is None
        with pytest.raises(ValueError, match="right-hand side"):
            solve_rows([], [1], 0)  # more right-hand sides than rows

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            solve_rows([[1, 2], [3]], [1, 1], 2)
        with pytest.raises(ValueError):
            solve_rows([[1, 2]], [1, 1], 2)


class TestZeroRows:
    """An all-zero row needs no special case: 0 = 0 adds nothing, 0 = b fails."""

    def test_zero_row_with_nonzero_rhs_is_inconsistent(self):
        rows = [[1, 0, 2], [0, 1, 1], [0, 0, 0], [1, 1, 3]]
        assert solve_rows(rows, [1, 2, 0, 3], 3) == [1, 2, 0]
        assert solve_rows(rows, [1, 2, Fraction(1, 7), 3], 3) is None

    def test_zero_rows_do_not_change_the_solution(self):
        rng = random.Random(11)
        for _ in range(60):
            width = rng.randint(1, 5)
            rows = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width)]
                for _ in range(rng.randint(1, 5))
            ]
            rhs = [Fraction(rng.randint(-3, 3)) for _ in rows]
            padded, padded_rhs = list(rows), list(rhs)
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(0, len(padded))
                padded.insert(at, [0] * width)
                padded_rhs.insert(at, 0)
            assert solve_rows(padded, padded_rhs, width) == solve_rows(rows, rhs, width)

    def test_row_lengths_are_checked_before_any_zero_row(self):
        with pytest.raises(ValueError):
            solve_rows([[0, 0], [1]], [1, 1], 2)
        with pytest.raises(ValueError):
            solve_rows([[0, 0], [1, 2, 3]], [1, 1], 2)


class TestFractionBoundary:
    """Ints, strings and floats go in; plain Fractions come out."""

    def test_solve_rows(self):
        x = solve_rows([[1, 1]], [5], 2)
        assert x == [5, 0]
        assert all(type(v) is Fraction for v in x)
        x = solve_rows([["1/3", 0], [0, 2]], ["1", 1], 2)
        assert x == [3, Fraction(1, 2)]
        assert all(type(v) is Fraction for v in x)

    def test_solve_linear(self):
        x = solve_rows([[2, 0], [0, 4]], [1, 2], 2)
        assert x == [Fraction(1, 2), Fraction(1, 2)]
        assert all(type(v) is Fraction for v in x)


class TestRank:
    """The kernel's rank, the size of the basis ``add_row`` builds."""

    def test_identity(self):
        identity = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        assert kernel_rank(identity) == 4

    def test_zero_matrix(self):
        assert kernel_rank([[Fraction(0)] * 5 for _ in range(3)]) == 0

    def test_proportional_rows(self):
        assert kernel_rank([[1, 2], [2, 4], [3, 6]]) == 1

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(2)
        for _ in range(20):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            a = [
                [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)]
                for _ in range(n_rows)
            ]
            transposed = [list(col) for col in zip(*a)]
            assert kernel_rank(a) == kernel_rank(transposed) == reference_rank(a)

    def test_invariant_under_invertible_left_multiplication(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            while True:
                p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                if reference_rank(p) == n:
                    break
            assert kernel_rank(matmul(p, a)) == kernel_rank(a) == reference_rank(a)



@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_solutions_satisfy_their_system(rows):
    rhs = [Fraction(1)] * len(rows)
    x = solve_rows(rows, rhs, 3)
    if x is not None:
        assert satisfies(rows, rhs, x)


# -- differential check of the integer kernel against rational Gauss-Jordan ----


def _reference_solve_rows(rows, rhs, width):
    rhs = [Fraction(x) for x in rhs]
    if width == 0:
        return [] if all(x == 0 for x in rhs) else None
    if not rows:
        return [Fraction(0)] * width
    augmented = [[Fraction(x) for x in row] + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = reference_eliminate(augmented)
    if width in pivots:
        return None
    solution = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        solution[col] = reduced[r][width]
    return solution


def _random_entry(rng, den_digits):
    if rng.random() < 0.35:
        return Fraction(0)
    den = rng.randint(1, 10**den_digits)
    return Fraction(rng.randint(-(10**den_digits), 10**den_digits), den)


def _random_system(rng, n_rows, width, den_digits):
    """Rows with some zero rows and some combinations of earlier rows."""
    rows = []
    for _ in range(n_rows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * width)
        elif kind < 0.45 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _random_entry(rng, 2), _random_entry(rng, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([_random_entry(rng, den_digits) for _ in range(width)])
    return rows


def _consistent_rhs(rng, rows, width):
    x0 = [_random_entry(rng, 2) for _ in range(width)]
    return [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]


def _assert_same_as_reference(rows, rhs, width):
    got = solve_rows(rows, rhs, width)
    want = _reference_solve_rows(rows, rhs, width)
    if want is None:
        assert got is None
    else:
        assert got == want
        assert all(type(x) is Fraction for x in got)
    if not rows or width == 0:
        return
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    reference, ref_pivots = reference_eliminate([list(r) for r in augmented])
    basis = {}
    for row in augmented:
        add_row(basis, sparse_row(row))
    assert sorted(basis) == ref_pivots
    for pivot, ref_row in zip(ref_pivots, reference):
        row = basis[pivot]  # a multiple of the normalized reference row
        assert [Fraction(row.get(c, 0), row[pivot]) for c in range(width + 1)] == ref_row
    assert kernel_rank(rows) == reference_rank(rows)


class TestIntegerKernelMatchesRationalReference:
    def test_random_systems_of_every_width(self):
        rng = random.Random(5)
        for trial in range(400):
            width = trial % 9
            n_rows = rng.randint(0, 9)
            den_digits = rng.choice((1, 2, 6, 12))
            rows = _random_system(rng, n_rows, width, den_digits)
            if rng.random() < 0.5:
                rhs = _consistent_rhs(rng, rows, width)
            else:
                rhs = [_random_entry(rng, den_digits) for _ in rows]
            _assert_same_as_reference(rows, rhs, width)

    def test_rank_deficient_and_inconsistent(self):
        rows = [[Fraction(1, 3), Fraction(-2, 7)], [Fraction(2, 3), Fraction(-4, 7)]]
        _assert_same_as_reference(rows, [Fraction(1), Fraction(2)], 2)
        _assert_same_as_reference(rows, [Fraction(1), Fraction(3)], 2)
        assert solve_rows(rows, [1, 3], 2) is None

    def test_wide_rows_like_family_ranks(self):
        rng = random.Random(6)
        width = 520
        base = _random_system(rng, 5, width, 3)
        rows = base + [
            [a - 3 * b for a, b in zip(base[0], base[1])],
            [Fraction(0)] * width,
        ]
        rhs = _consistent_rhs(rng, rows, width)
        _assert_same_as_reference(rows, rhs, width)
        _assert_same_as_reference([base[2]], [Fraction(1, 9)], width)
        assert kernel_rank(rows) == kernel_rank(base) == reference_rank(base)


class TestReducedEchelonBasis:
    """``add_row`` keeps its basis reduced, primitive and least-pivoted."""

    @pytest.mark.parametrize(
        "key", [lambda c: c, lambda c: c % 3], ids=["index", "mod3-with-ties"]
    )
    def test_invariants_after_seeded_adds(self, key):
        rng = random.Random(12)
        joins = 0
        for _ in range(60):
            width = rng.randint(1, 10)
            basis, added, joined = {}, [], []
            for _ in range(rng.randint(1, 12)):
                if added and rng.random() < 0.3:  # a combination of earlier rows
                    a, b = rng.choice(added), rng.choice(added)
                    s, t = rng.randint(-4, 4), rng.randint(-4, 4)
                    dense = [s * x + t * y for x, y in zip(a, b)]
                else:
                    dense = [rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(width)]
                added.append(dense)
                row = {c: x for c, x in enumerate(dense) if x}
                pivot = add_row(basis, row, lambda row: min(row, key=key))
                if pivot is not None:
                    joined.append((basis[pivot], dict(basis[pivot])))
            for pivot, row in basis.items():
                assert row and all(row.values())
                assert key(pivot) == min(key(c) for c in row)
                assert gcd(*row.values()) == 1
                assert all(pivot not in other for p, other in basis.items() if p != pivot)
            # a row read from the basis keeps the value it joined with
            assert all(row == snapshot for row, snapshot in joined)
            assert len(basis) == len(joined) == reference_rank(added)
            joins += len(joined)
        assert joins

    def test_worked_example(self):
        basis = {}
        assert add_row(basis, {}) is None
        assert add_row(basis, {0: 2, 2: 4}) == 0
        assert basis == {0: {0: 1, 2: 2}}
        assert add_row(basis, {0: -3, 2: -6}) is None
        assert add_row(basis, {2: 5, 1: 5}) == 1
        assert basis == {0: {0: 1, 2: 2}, 1: {1: 1, 2: 1}}
        assert add_row(basis, {2: 7}) == 2
        assert basis == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}


class TestSolutionSpace:
    """``solution_space``: solve_rows' solution plus a kernel basis."""

    def test_random_systems_against_the_reference(self):
        rng = random.Random(9)
        sizes = set()
        for trial in range(300):
            width = trial % 8
            rows = _random_system(rng, rng.randint(0, 7), width, rng.choice((1, 2, 6)))
            if rng.random() < 0.6:
                rhs = _consistent_rhs(rng, rows, width)
            else:
                rhs = [_random_entry(rng, 2) for _ in rows]
            space = solution_space(rows, rhs, width)
            want = _reference_solve_rows(rows, rhs, width)
            assert (space is None) == (want is None)
            assert (space is None) == (solve_rows(rows, rhs, width) is None)
            if space is None:
                continue
            x0, kernel = space
            assert x0 == want and satisfies(rows, rhs, x0)
            assert all(type(x) is Fraction for x in x0)
            rank_ = reference_rank(rows) if rows and width else 0
            assert len(kernel) == width - rank_
            zeros = [Fraction(0)] * len(rows)
            for vector in kernel:
                assert len(vector) == width and satisfies(rows, zeros, vector)
            if kernel:
                assert reference_rank(kernel) == len(kernel)
                shifted = [x + 3 * v - w for x, v, w in zip(x0, kernel[0], kernel[-1])]
                assert satisfies(rows, rhs, shifted)
            sizes.add(len(kernel))
        assert {0, 1, 2} <= sizes

    def test_small_cases(self):
        assert solution_space([[1, 1]], [5], 2) == ([5, 0], [[-1, 1]])
        assert solution_space([[1, 1], [2, 2]], [1, 3], 2) is None
        assert solution_space([[0, 0]], [1], 2) is None
        assert solution_space([], [], 2) == ([0, 0], [[1, 0], [0, 1]])
        assert solution_space([[], []], [0, 0], 0) == ([], [])
        assert solution_space([[]], [1], 0) is None
        with pytest.raises(ValueError):
            solution_space([[1, 2], [3]], [1, 1], 2)
