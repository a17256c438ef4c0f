"""Exact rational elimination: solving, rank, invertibility."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ncpoly import RatMatrix, is_invertible, rank, solve_linear
from ncpoly.linalg import _eliminate, _integer_row, solve_rows


class TestSolveLinear:
    def test_identity_system(self):
        a = RatMatrix.identity(3)
        b = RatMatrix.column([1, 2, 3])
        assert solve_linear(a, b) == RatMatrix.column([1, 2, 3])

    def test_inconsistent(self):
        a = RatMatrix([[1, 1], [2, 2]])
        b = RatMatrix.column([1, 3])
        assert solve_linear(a, b) is None

    def test_free_variables_zeroed(self):
        a = RatMatrix([[1, 1]])
        b = RatMatrix.column([5])
        x = solve_linear(a, b)
        assert x == RatMatrix.column([5, 0])
        assert a @ x == b

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(RatMatrix.identity(2), RatMatrix.column([1, 2, 3]))

    def test_exactness_on_random_consistent_systems(self):
        rng = random.Random(1)
        for _ in range(25):
            rows_n = rng.randint(1, 5)
            cols_n = rng.randint(1, 5)
            a = RatMatrix(
                [
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols_n)]
                    for _ in range(rows_n)
                ]
            )
            x0 = RatMatrix.column(
                [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols_n)]
            )
            b = a @ x0
            x = solve_linear(a, b)
            assert x is not None
            assert a @ x == b


class TestSolveRows:
    def test_empty_system_is_all_zero(self):
        assert solve_rows([], [], 4) == [Fraction(0)] * 4

    def test_zero_width(self):
        assert solve_rows([[], []], [0, 0], 0) == []
        assert solve_rows([[]], [1], 0) is None

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            solve_rows([[1, 2], [3]], [1, 1], 2)
        with pytest.raises(ValueError):
            solve_rows([[1, 2]], [1, 1], 2)


class TestZeroRows:
    """An all-zero row is settled before elimination: 0 = 0 drops, 0 = b fails."""

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

    def test_matrix_entries(self):
        a = RatMatrix([[1, "1/2", 0.5]])
        assert a.data == ((1, Fraction(1, 2), Fraction(1, 2)),)
        assert all(type(x) is Fraction for x in a.row(0))

    def test_solve_rows(self):
        x = solve_rows([[1, 1]], [5], 2)
        assert x == [5, 0]
        assert all(type(v) is Fraction for v in x)
        x = solve_rows([["1/3", 0], [0, 2]], ["1", 1], 2)
        assert x == [3, Fraction(1, 2)]
        assert all(type(v) is Fraction for v in x)

    def test_solve_linear(self):
        x = solve_linear(RatMatrix([[2, 0], [0, 4]]), RatMatrix.column([1, 2]))
        assert x == RatMatrix.column([Fraction(1, 2), Fraction(1, 2)])
        assert all(type(v) is Fraction for row in x.data for v in row)


class TestRank:
    def test_identity(self):
        assert rank(RatMatrix.identity(4)) == 4

    def test_zero_matrix(self):
        assert rank(RatMatrix.zeros(3, 5)) == 0

    def test_proportional_rows(self):
        assert rank(RatMatrix([[1, 2], [2, 4], [3, 6]])) == 1

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(2)
        for _ in range(20):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            a = RatMatrix(
                [
                    [Fraction(rng.randint(-3, 3)) for _ in range(n_cols)]
                    for _ in range(n_rows)
                ]
            )
            assert rank(a) == rank(a.transpose())

    def test_invariant_under_invertible_left_multiplication(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = RatMatrix(
                [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            )
            while True:
                p = RatMatrix(
                    [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                )
                if is_invertible(p):
                    break
            assert rank(p @ a) == rank(a)


class TestIsInvertible:
    def test_identity(self):
        assert is_invertible(RatMatrix.identity(2))

    def test_singular(self):
        assert not is_invertible(RatMatrix([[1, 1], [1, 1]]))

    def test_unitriangular_always(self):
        rng = random.Random(4)
        for n in (1, 3, 6):
            rows = [
                [
                    Fraction(1)
                    if i == j
                    else (Fraction(rng.randint(-5, 5)) if j > i else Fraction(0))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert is_invertible(RatMatrix(rows))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_invertible(RatMatrix([[1, 2]]))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_solutions_satisfy_their_system(rows):
    a = RatMatrix(rows)
    b = RatMatrix.column([Fraction(1)] * a.rows)
    x = solve_linear(a, b)
    if x is not None:
        assert a @ x == b


# -- differential check of the integer kernel against rational Gauss-Jordan ----


def _reference_eliminate(rows):
    """Gauss-Jordan on Fractions with normalized pivots (the former kernel)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    target = 0
    for col in range(n_cols):
        pivot_row = next((r for r in range(target, n_rows) if rows[r][col] != 0), None)
        if pivot_row is None:
            continue
        rows[target], rows[pivot_row] = rows[pivot_row], rows[target]
        inv = 1 / rows[target][col]
        rows[target] = [x * inv for x in rows[target]]
        for r in range(n_rows):
            if r != target and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[target])]
        pivots.append(col)
        target += 1
        if target == n_rows:
            break
    return rows, pivots


def _reference_solve_rows(rows, rhs, width):
    rhs = [Fraction(x) for x in rhs]
    if width == 0:
        return [] if all(x == 0 for x in rhs) else None
    if not rows:
        return [Fraction(0)] * width
    augmented = [[Fraction(x) for x in row] + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = _reference_eliminate(augmented)
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
    reference, ref_pivots = _reference_eliminate([list(r) for r in augmented])
    reduced, pivots = _eliminate([_integer_row(r) for r in augmented])
    assert pivots == ref_pivots
    for r, row in enumerate(reduced):
        if r < len(pivots):  # a multiple of the normalized reference row
            p = row[pivots[r]]
            assert [Fraction(x, p) for x in row] == reference[r]
        else:
            assert not any(row) and not any(reference[r])
    assert rank(RatMatrix(rows)) == len(_reference_eliminate([list(r) for r in rows])[1])


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
        assert rank(RatMatrix(rows)) == rank(RatMatrix(base))
