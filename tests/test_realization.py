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
    als_add,
    als_mul,
    apply_transformation,
    build_als,
    dump_als,
    entry_grid,
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

from conftest import dense_transformation, random_polynomial


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

    def test_letter_index_in_range(self):
        assert LinearEntry.letter(1, 2).coeffs == (0, 0, 1)
        for index in (-1, 2):
            with pytest.raises(ValueError):
                LinearEntry.letter(index, 2)

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

    def test_rejects_cells_from_another_alphabet(self, ab_xy):
        # a polynomial over another alphabet of the same size would have
        # its letters renamed, "a" read as "x"
        foreign = parse("a", Alphabet(("a", "b")))
        with pytest.raises(ValueError, match="alphabet"):
            Als.from_cells(ab_xy, [[1, foreign], [0, 1]], [0, 1])
        with pytest.raises(ValueError, match="alphabet"):
            entry_grid(ab_xy, [[foreign]])
        with pytest.raises(ValueError, match="alphabet"):
            left_companion(ab_xy, [foreign], [0])
        own = parse("x", ab_xy)
        assert Als.from_cells(ab_xy, [[1, own], [0, 1]], [0, 1]).polynomial() == -own
        assert left_companion(ab_xy, [own], [0]) == system_for_x(ab_xy)

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
        trans = AdmissibleTransformation(intro_als.n)
        assert apply_transformation(intro_als, trans) == intro_als

    def test_triple_product_zero_block(self, triple_product_als, triple_product_alphabet):
        trans = AdmissibleTransformation(5, {(1, 3): 1}, {(1, 3): -1})
        result = apply_transformation(triple_product_als, trans)
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
        transformed = apply_transformation(
            total, AdmissibleTransformation(5, {(0, 2): Fraction(1)})
        )
        assert transformed.right_family()[2].is_zero
        assert transformed.polynomial() == total.polynomial()

    def test_rejects_bad_q_first_row(self):
        with pytest.raises(ValueError):
            AdmissibleTransformation(2, q={(0, 1): 1})

    def test_rejects_singular(self):
        # I plus cells strictly above the diagonal is always invertible; a
        # cell on or below the diagonal, the only way to lose that, is refused
        for cell in ((0, 0), (1, 1), (1, 0), (2, 1)):
            with pytest.raises(ValueError):
                AdmissibleTransformation(3, {cell: 1})
            with pytest.raises(ValueError):
                AdmissibleTransformation(3, q={cell: 1})
        with pytest.raises(ValueError):
            AdmissibleTransformation(3, {(1, 3): 1})  # outside the 3 x 3 matrix

    def test_rejects_dimension_mismatch(self, intro_als):
        with pytest.raises(ValueError):
            apply_transformation(intro_als, AdmissibleTransformation(2))

    def test_cells_are_stored_by_value(self):
        trans = AdmissibleTransformation(3, {(1, 2): "1/2", (0, 1): 0, (0, 2): 3})
        assert trans.p == (((0, 2), Fraction(3)), ((1, 2), Fraction(1, 2)))
        assert all(type(x) is Fraction for _, x in trans.p)
        same = AdmissibleTransformation(3, [((0, 2), 3), ((1, 2), Fraction(1, 2))])
        assert trans == same and hash(trans) == hash(same)
        assert trans != AdmissibleTransformation(3, {(0, 2): 3})


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


def random_cells(rng, n, density, first_row=0):
    """Random off-diagonal cells (i, j) with first_row <= i < j < n."""
    return {
        (i, j): random_value(rng)
        for i in range(first_row, n)
        for j in range(i + 1, n)
        if rng.random() < density
    }


class TestTransformationMatchesDenseReference:
    """The sparse row/column core against dense products of plain lists."""

    def test_unitriangular_transformations(self):
        rng = random.Random(2024)
        for n in range(1, 9):
            for d in range(1, 4):
                for density in (0.15, 0.5, 1.0):
                    als = random_system(rng, n, d)
                    trans = AdmissibleTransformation(
                        n, random_cells(rng, n, density), random_cells(rng, n, density, 1)
                    )
                    result = apply_transformation(als, trans)
                    assert result == dense_transformation(als, trans)
                    assert all(type(x) is Fraction for x in result.rhs)

    def test_non_unitriangular_transformations_raise(self):
        # a cell on or below the diagonal is refused when the pair is built,
        # so no such op reaches a system
        rng = random.Random(7)
        for n in range(1, 9):
            for _ in range(3):
                p = random_cells(rng, n, 0.5)
                q = random_cells(rng, n, 0.5, 1)
                i = rng.randrange(n)
                cell = (i, rng.randrange(i + 1))  # on or below the diagonal
                (p if rng.random() < 0.5 else q)[cell] = Fraction(rng.choice([-2, 1, 3]))
                with pytest.raises(ValueError, match="cell"):
                    AdmissibleTransformation(n, p, q)


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

    def test_rejects_garbage(self, intro_als):
        with pytest.raises(FormatError):
            load_als("not a system\n")
        for als in (intro_als, Als.empty(intro_als.alphabet)):
            with pytest.raises(FormatError, match="after the right-hand side"):
                load_als(dump_als(als) + "junk\n")

    def test_rejects_unknown_header_keys(self, intro_als):
        with pytest.raises(FormatError):
            load_als("ncpoly-als 1\nfoo 1\nbar x\nbaz 1\nmatrix\n1/1 0/1\nrhs\n1/1\n")
        text = dump_als(intro_als).replace("lambda-pos", "lambda", 1)
        with pytest.raises(FormatError):
            load_als(text)
        # lambda-pos is n in polynomial form, otherwise 0, as dump_als writes it
        raw = Als.from_cells(intro_als.alphabet, [["1", "-x"], ["0", "1"]], [1, 1])
        for als, pos, wrong in (
            (intro_als, 4, ("banana", "0", "3", "-4", "4.0")),
            (raw, 0, ("2", "x")),
            (Als.empty(intro_als.alphabet), 0, ("1",)),
        ):
            text = dump_als(als)
            assert f"\nlambda-pos {pos}\n" in text and load_als(text) == als
            for token in wrong:
                with pytest.raises(FormatError):
                    load_als(text.replace(f"lambda-pos {pos}", f"lambda-pos {token}"))

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
