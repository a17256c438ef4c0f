"""Systems, rational operations, transformations, companions, serialization."""

import random
from fractions import Fraction

import pytest

from ncpoly import (
    AdmissibleTransformation,
    Alphabet,
    Als,
    LinearEntry,
    NcPolynomial,
    RatMatrix,
    als_add,
    als_mul,
    apply_transformation,
    build_als,
    dump_als,
    is_minimal,
    left_companion,
    load_als,
    minimal_monomial,
    minimize,
    parse,
    restore_polynomial_form,
    right_companion,
)
from ncpoly.errors import FormatError
from ncpoly.realization import format_system

from conftest import random_polynomial


def system_for_x(ab):
    return Als.from_cells(ab, [["1", "-x"], ["0", "1"]], [0, 1])


def system_for_one_minus_yx(ab):
    return Als.from_cells(
        ab, [["1", "y", "-1"], ["0", "1", "-x"], ["0", "0", "1"]], [0, 0, 1]
    )


class TestLinearEntry:
    def test_from_polynomial_rejects_degree_two(self, ab_xy):
        with pytest.raises(ValueError):
            LinearEntry.from_polynomial(parse("x*y", ab_xy))

    def test_scalar_detection(self, ab_xy):
        assert LinearEntry.from_polynomial(parse("3", ab_xy)).is_scalar
        assert not LinearEntry.from_polynomial(parse("3 - x", ab_xy)).is_scalar

    def test_round_trip(self, ab_xy):
        p = parse("1/2 - 2*x + y", ab_xy)
        assert LinearEntry.from_polynomial(p).to_polynomial(ab_xy) == p

    def test_stores_plain_fractions(self):
        entry = LinearEntry((1, "1/2", 0.25))
        assert entry.coeffs == (1, Fraction(1, 2), Fraction(1, 4))
        assert all(type(c) is Fraction for c in entry.coeffs)
        assert not entry.is_zero and not entry.is_scalar
        assert LinearEntry((0, 0, 0)).is_zero
        assert LinearEntry(("-3", 0, 0)).is_scalar

    def test_stored_flags(self):
        # set once from the coefficients; equality, hash and repr ignore them
        flags = [(e.is_zero, e.is_scalar) for e in (
            LinearEntry((0, 0)), LinearEntry((5, 0)), LinearEntry((0, 1)), LinearEntry((5, -1))
        )]
        assert flags == [(True, True), (False, True), (False, False), (False, False)]
        entry = LinearEntry((1, 0, "2/3"))
        assert entry == LinearEntry((Fraction(1), 0, Fraction(2, 3)))
        assert hash(entry) == hash(LinearEntry((1, 0, Fraction(2, 3))))
        assert repr(entry) == f"LinearEntry(coeffs={entry.coeffs!r})"


class TestSharedEntries:
    """The constant zero and one are shared; only their own place skips checks."""

    def test_one_instance_per_width(self):
        assert LinearEntry.zero(2) is LinearEntry.zero(2)
        assert LinearEntry.one(2) is LinearEntry.one(2)
        assert LinearEntry.zero(2) is not LinearEntry.zero(3)
        assert LinearEntry.zero(2) == LinearEntry((0, 0, 0))
        assert LinearEntry.one(2) == LinearEntry.scalar(1, 2)

    def test_constructors_use_them(self, ab_xy):
        als = als_add(minimal_monomial(ab_xy, (0, 1)), minimal_monomial(ab_xy, (1,)))
        for i, row in enumerate(als.rows):
            assert row[i] is LinearEntry.one(2)
            assert all(entry is LinearEntry.zero(2) for entry in row[:i])

    def test_shared_entries_out_of_place_are_rejected(self, ab_xy):
        zero, one = LinearEntry.zero(2), LinearEntry.one(2)
        x = LinearEntry.letter(0, 2)
        for rows in (
            [[one, x], [one, one]],  # one below the diagonal
            [[zero, x], [zero, one]],  # zero on the diagonal
            [[one, x], [LinearEntry.zero(3), one]],  # zero of another width
            [[LinearEntry.one(1), zero], [zero, one]],  # one of another width
        ):
            with pytest.raises(ValueError):
                Als(ab_xy, rows, [0, 1])

    def test_equal_fresh_entries_still_pass(self, ab_xy):
        fresh = Als(
            ab_xy,
            [[LinearEntry.scalar(1, 2), LinearEntry.letter(0, 2, -1)],
             [LinearEntry((0, 0, 0)), LinearEntry((1, 0, 0))]],
            [0, 1],
        )
        assert fresh == minimal_monomial(ab_xy, (0,))


class TestAlsValidation:
    def test_rejects_nonunit_diagonal(self, ab_xy):
        with pytest.raises(ValueError):
            Als.from_cells(ab_xy, [["2"]], [1])

    def test_rejects_lower_triangle(self, ab_xy):
        with pytest.raises(ValueError):
            Als.from_cells(ab_xy, [["1", "0"], ["x", "1"]], [0, 1])

    def test_rejects_rhs_length(self, ab_xy):
        with pytest.raises(ValueError):
            Als.from_cells(ab_xy, [["1"]], [1, 2])

    def test_empty_system(self, ab_xy):
        empty = Als.empty(ab_xy)
        assert empty.is_empty and empty.polynomial().is_zero

    def test_stores_plain_fractions(self, ab_xy):
        als = Als.from_cells(ab_xy, [[1, "-x"], [0, 1]], [0, 3])
        assert als.rhs == (0, 3)
        values = list(als.rhs) + [c for row in als.rows for e in row for c in e.coeffs]
        assert all(type(x) is Fraction for x in values)


class TestMinimalMonomial:
    def test_three_letter_staircase(self, ab_xyz):
        als = minimal_monomial(ab_xyz, (0, 1, 2))
        expected = Als.from_cells(
            ab_xyz,
            [
                ["1", "-x", "0", "0"],
                ["0", "1", "-y", "0"],
                ["0", "0", "1", "-z"],
                ["0", "0", "0", "1"],
            ],
            [0, 0, 0, 1],
        )
        assert als == expected
        assert [str(s) for s in als.left_family()] == ["x*y*z", "y*z", "z", "1"]

    def test_empty_word(self, ab_xy):
        als = minimal_monomial(ab_xy, ())
        assert als.n == 1 and als.polynomial() == parse("1", ab_xy)

    def test_single_letter_families(self, ab_xy):
        als = minimal_monomial(ab_xy, (0,))
        assert [str(s) for s in als.left_family()] == ["x", "1"]
        assert [str(t) for t in als.right_family()] == ["1", "x"]

    def test_coefficient_becomes_lambda(self, ab_xy):
        als = minimal_monomial(ab_xy, (0, 1), Fraction(-3, 2))
        assert als.lam == Fraction(-3, 2)
        assert als.polynomial() == parse("-3/2*x*y", ab_xy)

    def test_zero_coefficient_gives_empty(self, ab_xy):
        assert minimal_monomial(ab_xy, (0,), 0).is_empty


class TestAlsAdd:
    def test_paper_block_shape(self, ab_xy):
        total = als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        expected = Als.from_cells(
            ab_xy,
            [
                ["1", "-x", "-1", "0", "0"],
                ["0", "1", "0", "0", "0"],
                ["0", "0", "1", "y", "-1"],
                ["0", "0", "0", "1", "-x"],
                ["0", "0", "0", "0", "1"],
            ],
            [0, 1, 0, 0, 1],
        )
        assert total == expected
        assert total.polynomial() == parse("1 + x - y*x", ab_xy)

    def test_zero_operand_short_circuits(self, ab_xy):
        als = system_for_x(ab_xy)
        assert als_add(Als.empty(ab_xy), als) == als
        assert als_add(als, Als.empty(ab_xy)) == als

    def test_opposite_monomials_minimize_to_empty(self, ab_xy):
        total = als_add(
            minimal_monomial(ab_xy, (0,)), minimal_monomial(ab_xy, (0,), -1)
        )
        assert total.n == 4
        assert minimize(total).is_empty


class TestAlsMul:
    def test_paper_block_shape(self, ab_xy):
        product = als_mul(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        expected = Als.from_cells(
            ab_xy,
            [
                ["1", "-x", "0", "0", "0"],
                ["0", "1", "-1", "0", "0"],
                ["0", "0", "1", "y", "-1"],
                ["0", "0", "0", "1", "-x"],
                ["0", "0", "0", "0", "1"],
            ],
            [0, 0, 0, 0, 1],
        )
        assert product == expected
        assert product.polynomial() == parse("x - x*y*x", ab_xy)

    def test_scalar_short_circuit_scales_lambda(self, ab_xy):
        one = minimal_monomial(ab_xy, ())
        als = system_for_one_minus_yx(ab_xy)
        assert als_mul(one, als) == als
        doubled = als_mul(minimal_monomial(ab_xy, (), 2), als)
        assert doubled.lam == 2 and doubled.polynomial() == parse("2 - 2*y*x", ab_xy)

    def test_empty_operand(self, ab_xy):
        assert als_mul(Als.empty(ab_xy), system_for_x(ab_xy)).is_empty

    def test_product_minimizes_to_displayed_system(self, ab_xyz):
        left = Als.from_cells(
            ab_xyz, [["1", "-x", "-1"], ["0", "1", "-y"], ["0", "0", "1"]], [0, 0, 1]
        )
        right = Als.from_cells(
            ab_xyz, [["1", "-z", "3"], ["0", "1", "-x"], ["0", "0", "1"]], [0, 0, 1]
        )
        reduced = minimize(als_mul(left, right))
        expected = Als.from_cells(
            ab_xyz,
            [
                ["1", "-x", "-1", "0", "0"],
                ["0", "1", "-y", "0", "0"],
                ["0", "0", "1", "-z", "3"],
                ["0", "0", "0", "1", "-x"],
                ["0", "0", "0", "0", "1"],
            ],
            [0, 0, 0, 0, 1],
        )
        assert reduced == expected


class TestApplyTransformation:
    def test_identity_is_noop(self, intro_als):
        n = intro_als.n
        trans = AdmissibleTransformation(RatMatrix.identity(n), RatMatrix.identity(n))
        assert apply_transformation(intro_als, trans) == intro_als

    def test_triple_product_zero_block(self, triple_product_als, triple_product_alphabet):
        p_cells = {(1, 3): Fraction(1)}
        q_cells = {(1, 3): Fraction(-1)}
        p = RatMatrix(
            [
                [Fraction(1) if i == j else p_cells.get((i, j), Fraction(0)) for j in range(5)]
                for i in range(5)
            ]
        )
        q = RatMatrix(
            [
                [Fraction(1) if i == j else q_cells.get((i, j), Fraction(0)) for j in range(5)]
                for i in range(5)
            ]
        )
        result = apply_transformation(
            triple_product_als, AdmissibleTransformation(p, q)
        )
        expected = Als.from_cells(
            triple_product_alphabet,
            [
                ["1", "-a", "-b", "0", "0"],
                ["0", "1", "-e", "0", "0"],
                ["0", "0", "1", "-x", "0"],
                ["0", "0", "0", "1", "d-2c"],
                ["0", "0", "0", "0", "1"],
            ],
            [0, 0, 0, 0, 1],
        )
        assert result == expected
        assert result.polynomial() == triple_product_als.polynomial()

    def test_row_addition_zeroes_third_right_component(self, ab_xy):
        total = als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        cells = {(0, 2): Fraction(1)}
        p = RatMatrix(
            [
                [Fraction(1) if i == j else cells.get((i, j), Fraction(0)) for j in range(5)]
                for i in range(5)
            ]
        )
        transformed = apply_transformation(
            total, AdmissibleTransformation(p, RatMatrix.identity(5))
        )
        assert transformed.right_family()[2].is_zero
        assert transformed.polynomial() == total.polynomial()

    def test_rejects_bad_q_first_row(self):
        with pytest.raises(ValueError):
            AdmissibleTransformation(
                RatMatrix.identity(2), RatMatrix([[1, 1], [0, 1]])
            )

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            AdmissibleTransformation(
                RatMatrix([[1, 1], [1, 1]]), RatMatrix.identity(2)
            )

    def test_rejects_dimension_mismatch(self, intro_als):
        trans = AdmissibleTransformation(RatMatrix.identity(2), RatMatrix.identity(2))
        with pytest.raises(ValueError):
            apply_transformation(intro_als, trans)


def dense_transformation(als, trans):
    """Reference: P @ A_c @ Q for every pencil component c, as dense products."""
    n, d = als.n, len(als.alphabet)
    components = [
        trans.p
        @ RatMatrix([[entry.coeffs[c] for entry in row] for row in als.rows])
        @ trans.q
        for c in range(d + 1)
    ]
    rows = [
        [
            LinearEntry(tuple(components[c][i, j] for c in range(d + 1)))
            for j in range(n)
        ]
        for i in range(n)
    ]
    rhs = [
        sum((trans.p[i, k] * als.rhs[k] for k in range(n)), Fraction(0))
        for i in range(n)
    ]
    return Als(als.alphabet, rows, rhs)


def random_value(rng):
    return Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7]))


def random_system(rng, n, d):
    """Upper unitriangular system with sparse random pencil entries."""
    alphabet = Alphabet(("x", "y", "z")[:d])
    rows = [[LinearEntry.zero(d)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = LinearEntry.scalar(1, d)
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                coeffs = [
                    random_value(rng) if rng.random() < 0.6 else 0
                    for _ in range(d + 1)
                ]
                rows[i][j] = LinearEntry(tuple(coeffs))
    return Als(alphabet, rows, [random_value(rng) for _ in range(n)])


def random_unitriangular(rng, n, density, first_row_e1=False):
    cells = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(1 if first_row_e1 else 0, n):
        for j in range(i + 1, n):
            if rng.random() < density:
                cells[i][j] = random_value(rng)
    return cells


class TestTransformationMatchesDenseReference:
    """The sparse row/column core against dense RatMatrix products."""

    def test_unitriangular_transformations(self):
        rng = random.Random(2024)
        for n in range(1, 9):
            for d in range(1, 4):
                for density in (0.15, 0.5, 1.0):
                    als = random_system(rng, n, d)
                    trans = AdmissibleTransformation(
                        RatMatrix(random_unitriangular(rng, n, density)),
                        RatMatrix(random_unitriangular(rng, n, density, True)),
                    )
                    result = apply_transformation(als, trans)
                    assert result == dense_transformation(als, trans)
                    assert all(type(x) is Fraction for x in result.rhs)

    def test_non_unitriangular_transformations_raise(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for d in range(1, 4):
                als = random_system(rng, n, d)
                p = random_unitriangular(rng, n, 0.5)
                q = random_unitriangular(rng, n, 0.5, True)
                kinds = ["p-diagonal"] + (
                    ["p-lower", "q-diagonal", "q-lower"] if n > 1 else []
                )
                kind = rng.choice(kinds)
                i = rng.randrange(1, n) if n > 1 else 0
                if kind == "p-diagonal":
                    p[i][i] = Fraction(2)
                elif kind == "q-diagonal":
                    q[i][i] = Fraction(2)
                else:  # one entry below the diagonal of a unit lower factor
                    lower = random_unitriangular(rng, n, 0)
                    lower[i][rng.randrange(i)] = Fraction(rng.choice([-2, 1, 3]))
                    if kind == "p-lower":
                        p = lower
                    else:
                        q = lower
                trans = AdmissibleTransformation(RatMatrix(p), RatMatrix(q))
                with pytest.raises(ValueError):
                    dense_transformation(als, trans)
                with pytest.raises(ValueError):
                    apply_transformation(als, trans)


def product_left_family(als):
    """Reference: s_i = v_i - sum_j A_ij * s_j with NcPolynomial products."""
    n, alphabet = als.n, als.alphabet
    family = [None] * n
    for i in range(n - 1, -1, -1):
        total = NcPolynomial.scalar(alphabet, als.rhs[i])
        for j in range(i + 1, n):
            total = total - als.rows[i][j].to_polynomial(alphabet) * family[j]
        family[i] = total
    return family


def product_right_family(als):
    """Reference: t_1 = 1, t_j = -sum_i t_i * A_ij with NcPolynomial products."""
    alphabet = als.alphabet
    family = []
    for j in range(als.n):
        total = NcPolynomial.one(alphabet) if j == 0 else NcPolynomial.zero(alphabet)
        for i in range(j):
            total = total - family[i] * als.rows[i][j].to_polynomial(alphabet)
        family.append(total)
    return family


class TestFamiliesMatchProductReference:
    """Prefixing and suffixing letters gives the product-based families."""

    def test_seeded_systems(self):
        rng = random.Random(404)
        verdicts = [0, 0]
        for n in range(1, 9):
            for d in range(1, 4):
                for _ in range(3):
                    raw = random_system(rng, n, d)
                    built = build_als(random_polynomial(rng, raw.alphabet, 6, 3))
                    for als in (raw, minimize(raw), built):
                        assert als.left_family() == product_left_family(als)
                        assert als.right_family() == product_right_family(als)
                        verdicts[is_minimal(als)] += 1
        assert all(verdicts)  # minimal and non-minimal systems both occur


class TestRestorePolynomialForm:
    def test_polynomial_input_unchanged(self, intro_als):
        assert restore_polynomial_form(intro_als) is intro_als

    def test_raw_sum(self, ab_xy):
        total = als_add(system_for_x(ab_xy), system_for_one_minus_yx(ab_xy))
        restored = restore_polynomial_form(total)
        expected = Als.from_cells(
            ab_xy,
            [
                ["1", "-x", "-1", "0", "0"],
                ["0", "1", "0", "0", "-1"],
                ["0", "0", "1", "y", "-1"],
                ["0", "0", "0", "1", "-x"],
                ["0", "0", "0", "0", "1"],
            ],
            [0, 0, 0, 0, 1],
        )
        assert restored == expected
        assert restored.polynomial() == total.polynomial()

    def test_lambda_preserved_not_rescaled(self, ab_xy):
        als = minimal_monomial(ab_xy, (0, 1), 3)
        assert restore_polynomial_form(als).lam == 3

    def test_zero_last_entry_is_an_error(self, ab_xy):
        bad = Als.from_cells(ab_xy, [["1", "-x"], ["0", "1"]], [1, 0])
        with pytest.raises(ValueError):
            restore_polynomial_form(bad)


class TestCompanionSystems:
    def test_left_companion_cubic(self):
        from ncpoly import Alphabet

        ab = Alphabet(("x",))
        als = left_companion(ab, ["x", "x", "x"], [-30, 31, -10])
        expected = Als.from_cells(
            ab,
            [
                ["1", "10 - x", "-31", "30"],
                ["0", "1", "-x", "0"],
                ["0", "0", "1", "-x"],
                ["0", "0", "0", "1"],
            ],
            [0, 0, 0, 1],
        )
        assert als == expected
        assert als.polynomial() == parse("x^3 - 10*x^2 + 31*x - 30", ab)

    def test_right_companion_cubic(self):
        from ncpoly import Alphabet

        ab = Alphabet(("x",))
        als = right_companion(ab, ["x", "x", "x"], [-30, 31, -10])
        assert als.polynomial() == parse("x^3 - 10*x^2 + 31*x - 30", ab)
        assert [str(s) for s in als.left_family()][-1] == "1"

    def test_single_factor_reduces_to_monomial(self, ab_xy):
        als = left_companion(ab_xy, ["x"], [0])
        assert als == minimal_monomial(ab_xy, (0,))
        assert right_companion(ab_xy, ["x"], [0]) == minimal_monomial(ab_xy, (0,))

    def test_affine_factors_with_constant_part(self, ab_xy):
        left = left_companion(ab_xy, ["x+1", "y"], [2, -1])
        assert left.polynomial() == parse("y*x + y - x + 1", ab_xy)
        right = right_companion(ab_xy, ["x+1", "y"], [2, -1])
        assert right.polynomial() == parse("1 - x + x*y + y", ab_xy)

    def test_scalar_factor_rejected(self, ab_xy):
        with pytest.raises(ValueError):
            left_companion(ab_xy, ["x", "3"], [0, 0])
        with pytest.raises(ValueError):
            right_companion(ab_xy, ["2"], [1])


class TestSerialization:
    def test_round_trip_bit_exact(self, intro_als, triple_product_als, ab_xy):
        fancy = Als.from_cells(
            ab_xy, [["1", "1/3*x - 2/7*y"], ["0", "1"]], [0, Fraction(-5, 9)]
        )
        for als in (intro_als, triple_product_als, fancy, Als.empty(ab_xy)):
            assert load_als(dump_als(als)) == als

    def test_round_trip_through_minimize(self, bench19_poly):
        from ncpoly import build_als

        als = build_als(bench19_poly)
        assert load_als(dump_als(als)) == als

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            load_als("not a system\n")

    def test_rejects_unknown_header_keys(self, intro_als):
        with pytest.raises(FormatError):
            load_als("ncpoly-als 1\nfoo 1\nbar x\nbaz 1\nmatrix\n1/1 0/1\nrhs\n1/1\n")
        text = dump_als(intro_als).replace("lambda-pos", "lambda", 1)
        with pytest.raises(FormatError):
            load_als(text)

    def test_rejects_truncated(self, intro_als):
        text = dump_als(intro_als)
        with pytest.raises(FormatError):
            load_als("\n".join(text.splitlines()[:-2]))

    def test_rejects_non_unitriangular_payload(self, ab_xy):
        lines = dump_als(minimal_monomial(ab_xy, (0,))).splitlines()
        cells = lines[6].split(" | ")  # second matrix row; first cell is below-diagonal
        cells[0] = "5/1 0/1 0/1"
        lines[6] = " | ".join(cells)
        with pytest.raises(FormatError):
            load_als("\n".join(lines))


def test_format_system_render(intro_als, ab_xy):
    text = format_system(intro_als)
    assert "-x" in text and "." in text
    assert format_system(Als.empty(ab_xy)).startswith("(empty")
