"""Polynomial arithmetic, parsing/printing, and the word-by-word oracle."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncpoly import (
    Alphabet,
    NcPolynomial,
    ParseError,
    naive_evaluate,
    naive_mult_count,
    parse,
)
from ncpoly.freepoly import MAX_DEGREE, MAX_NESTING, MAX_TERMS, identity_matrix

from conftest import random_polynomial


class TestAlphabet:
    def test_letters_must_be_valid_identifiers(self):
        with pytest.raises(ValueError):
            Alphabet(("x", "2y"))
        with pytest.raises(ValueError):
            Alphabet(("x", "x"))
        with pytest.raises(ValueError):
            Alphabet(())

    def test_index_is_stable(self):
        ab = Alphabet(("alpha", "beta"))
        assert ab.index("beta") == 1
        assert "alpha" in ab and "gamma" not in ab


class TestParse:
    def test_intro_polynomial(self, ab_xy):
        p = parse("x - x*y*x", ab_xy)
        assert p.term_map() == {(0,): Fraction(1), (0, 1, 0): Fraction(-1)}

    def test_zero(self, ab_xy):
        assert parse("0", ab_xy).is_zero

    def test_product_expansion(self, ab_xyz):
        # expanded by hand: xyzx - 3xy + zx - 3
        p = parse("(x*y+1)*(z*x-3)", ab_xyz)
        assert p.term_map() == {
            (0, 1, 2, 0): Fraction(1),
            (0, 1): Fraction(-3),
            (2, 0): Fraction(1),
            (): Fraction(-3),
        }

    def test_fraction_coefficients_and_powers(self, ab_xy):
        p = parse("1/2*x^2 - 3/4", ab_xy)
        assert p.coefficient((0, 0)) == Fraction(1, 2)
        assert p.coefficient(()) == Fraction(-3, 4)

    def test_juxtaposition_single_char_alphabet(self, bench19_alphabet):
        p = parse("3cyxb - cyaxb", bench19_alphabet)
        idx = bench19_alphabet.index
        word1 = (idx("c"), idx("y"), idx("x"), idx("b"))
        assert p.coefficient(word1) == 3

    def test_juxtaposition_rejected_for_multichar_alphabet(self):
        ab = Alphabet(("xx", "y"))
        with pytest.raises(ParseError):
            parse("xxy", ab)

    def test_unknown_identifier_reports_position(self, ab_xy):
        with pytest.raises(ParseError) as err:
            parse("x + q*y", ab_xy)
        assert err.value.position == 4

    def test_syntax_errors(self, ab_xy):
        for bad in ("x +", "(x", "x^0", "x^", "3/0", "*x", "x ** 2"):
            with pytest.raises(ParseError):
                parse(bad, ab_xy)

    def test_power_degree_limit(self, ab_xy):
        assert parse(f"x^{MAX_DEGREE}", ab_xy).degree() == MAX_DEGREE
        for bad in (f"x^{MAX_DEGREE + 1}", f"(x*y)^{MAX_DEGREE // 2 + 1}", "x^99999999"):
            with pytest.raises(ParseError) as err:
                parse(bad, ab_xy)
            assert err.value.position == bad.index("^") + 1

    def test_power_term_limit(self, ab_xy):
        assert len(parse("(x+y)^13", ab_xy)) == 2**13 <= MAX_TERMS
        for bad in ("(x+y)^14", "(x+y)^40", "3 + (1+x+y)^9"):
            with pytest.raises(ParseError) as err:
                parse(bad, ab_xy)
            assert err.value.position == bad.index("^") + 1

    def test_product_limits(self, ab_xy):
        # each power passes its own bound; the product of the two would not
        assert len(parse("(x+y)^12*(x+y)", ab_xy)) == 2**13 <= MAX_TERMS
        assert parse(f"x^{MAX_DEGREE // 2}*y^{MAX_DEGREE // 2}", ab_xy).degree() == MAX_DEGREE
        for bad, factor in (
            ("(x+y)^13*(x+y)^3", "(x+y)^3"),
            ("2 (x+y)^7 (x-y)^7", "(x-y)^7"),
            (f"x^{MAX_DEGREE} y", "y"),
            (f"x^{MAX_DEGREE // 2 + 1}*y^{MAX_DEGREE // 2 + 1}", "y^"),
        ):
            with pytest.raises(ParseError) as err:
                parse(bad, ab_xy)
            assert err.value.position == bad.rindex(factor)

    def test_short_input_of_high_degree(self, ab_xy):
        # a system costs about len(p) * (rank + degree)^2 to build, so even
        # two terms are slow at a high degree: at degree 128 about 0.4 s, at
        # degree 241 (this input) 8 s
        assert MAX_DEGREE <= 128
        assert parse(f"x*y*x^{MAX_DEGREE - 2}", ab_xy).degree() == MAX_DEGREE
        text = "x*y*x^239 + x^2*y*x^238"
        with pytest.raises(ParseError, match="degree") as err:
            parse(text, ab_xy)
        assert err.value.position == text.index("239")

    def test_overlong_integers(self, ab_xy):
        digits = "9" * 5000  # beyond int()'s default string-conversion limit
        for bad, at in (
            (f"x^{digits}", 2),
            (f"{digits}x", 0),
            (f"x + 1/{digits} y", 6),
        ):
            with pytest.raises(ParseError) as err:
                parse(bad, ab_xy)
            assert err.value.position == at

    def test_nesting_limit(self, ab_xy):
        # at the limit the text parses; one more level fails at the '(' that
        # passes the limit, far short of the interpreter's recursion limit
        nested = "(" * MAX_NESTING + "x + y" + ")" * MAX_NESTING
        assert parse(nested + "^2", ab_xy) == parse("(x + y)^2", ab_xy)
        for depth in (MAX_NESTING + 1, 2000):
            bad = "2 + " + "(" * depth + "x" + ")" * depth
            with pytest.raises(ParseError, match="nest") as err:
                parse(bad, ab_xy)
            assert err.value.position == 4 + MAX_NESTING
        # sibling groups do not add up
        assert parse(" * ".join([nested] * 3), ab_xy) == parse("(x + y)^3", ab_xy)

    def test_leading_sign(self, ab_xy):
        assert parse("-x + y", ab_xy) == parse("y - x", ab_xy)

    def test_implicit_multiplication(self, ab_xy):
        assert parse("2x y", ab_xy) == parse("2*x*y", ab_xy)


class TestArithmetic:
    def test_intro_sum(self, ab_xy):
        left = parse("x^2 + 1/2*x*y", ab_xy) + parse("-x*y - 2*y^2", ab_xy)
        assert left == parse("x^2 - 1/2*x*y - 2*y^2", ab_xy)

    def test_additive_identity(self, ab_xy):
        p = parse("x - x*y*x", ab_xy)
        assert p + NcPolynomial.zero(ab_xy) == p

    def test_left_family_sum(self, ab_xy):
        assert parse("x", ab_xy) + parse("1 - y*x", ab_xy) == parse(
            "1 + x - y*x", ab_xy
        )

    def test_intro_product(self, ab_xy):
        assert parse("x", ab_xy) * parse("1 - y*x", ab_xy) == parse(
            "x - x*y*x", ab_xy
        )

    def test_multiplicative_identity(self, ab_xy):
        p = parse("3*x*y - 2", ab_xy)
        assert NcPolynomial.one(ab_xy) * p == p

    def test_product_convolution(self, ab_xyz):
        product = parse("x*y + 1", ab_xyz) * parse("z*x - 3", ab_xyz)
        assert product == parse("x*y*z*x - 3*x*y + z*x - 3", ab_xyz)

    def test_non_commutative(self, ab_xy):
        x, y = parse("x", ab_xy), parse("y", ab_xy)
        assert x * y != y * x

    def test_alphabet_mismatch(self, ab_xy, ab_xyz):
        with pytest.raises(ValueError):
            parse("x", ab_xy) + parse("x", ab_xyz)

    def test_stores_plain_fractions(self, ab_xy):
        p = NcPolynomial(ab_xy, {(): 3, (0,): "-1/2", (1,): Fraction(2, 3)})
        assert p.term_map() == {(): 3, (0,): Fraction(-1, 2), (1,): Fraction(2, 3)}
        assert all(type(c) is Fraction for _, c in p.terms())

    def test_other_operands_raise_type_error(self, ab_xy):
        p = parse("x + y", ab_xy)
        for combine in (lambda: p + 1.5, lambda: p * 1.5, lambda: p * "x"):
            with pytest.raises(TypeError, match="cannot combine NcPolynomial"):
                combine()

    def test_scalar_multiplication_and_power(self, ab_xy):
        p = parse("x + y", ab_xy)
        assert 2 * p == parse("2*x + 2*y", ab_xy)
        assert p**2 == parse("x^2 + x*y + y*x + y^2", ab_xy)
        assert p**0 == NcPolynomial.one(ab_xy)


@st.composite
def polynomials(draw):
    ab = Alphabet(("x", "y"))
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        word = tuple(draw(st.lists(st.integers(0, 1), max_size=4)))
        coeff = draw(st.integers(-4, 4))
        terms[word] = Fraction(coeff)
    return NcPolynomial(ab, terms)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polynomials(), polynomials(), polynomials())
    def test_mul_associative_and_distributive(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polynomials())
    def test_one_is_neutral(self, p):
        one = NcPolynomial.one(p.alphabet)
        assert one * p == p and p * one == p

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(polynomials())
    def test_print_parse_round_trip(self, p):
        assert parse(str(p), p.alphabet) == p


class TestNaiveEvaluate:
    def test_intro_polynomial(self, ab_xy):
        import random

        rng = random.Random(5)
        x = np.array(
            [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)],
            dtype=object,
        )
        y = np.array(
            [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)],
            dtype=object,
        )
        p = parse("x - x*y*x", ab_xy)
        expected = x - x @ y @ x
        assert np.array_equal(naive_evaluate(p, [x, y]), expected)

    def test_scalar_gives_identity_multiple(self, ab_xy):
        p = parse("1", ab_xy)
        mats = [identity_matrix(3), identity_matrix(3)]
        assert np.array_equal(naive_evaluate(p, mats), identity_matrix(3))

    def test_anticommutator_on_nilpotents(self, ab_xy):
        x = np.array([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]], dtype=object)
        y = np.array([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]], dtype=object)
        p = parse("x*y + y*x", ab_xy)
        assert np.array_equal(naive_evaluate(p, [x, y]), identity_matrix(2))

    def test_is_ring_homomorphism(self, ab_xy):
        import random

        rng = random.Random(17)
        for _ in range(10):
            p = random_polynomial(rng, ab_xy, max_terms=4, max_degree=3)
            q = random_polynomial(rng, ab_xy, max_terms=4, max_degree=3)
            mats = [
                np.array(
                    [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)],
                    dtype=object,
                )
                for _ in range(2)
            ]
            assert np.array_equal(
                naive_evaluate(p * q, mats),
                naive_evaluate(p, mats) @ naive_evaluate(q, mats),
            )
            assert np.array_equal(
                naive_evaluate(p + q, mats),
                naive_evaluate(p, mats) + naive_evaluate(q, mats),
            )

    def test_one_by_one_matches_commutative_evaluation(self, ab_xy):
        import random

        rng = random.Random(23)
        for _ in range(10):
            p = random_polynomial(rng, ab_xy, max_terms=6, max_degree=4)
            vals = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2)]
            mats = [np.array([[v]], dtype=object) for v in vals]
            commutative = sum(
                (
                    coeff * np.prod([vals[i] for i in word] or [Fraction(1)])
                    for word, coeff in p.terms()
                ),
                Fraction(0),
            )
            assert naive_evaluate(p, mats)[0, 0] == commutative

    def test_dimension_mismatch(self, ab_xy):
        p = parse("x*y", ab_xy)
        with pytest.raises(ValueError):
            naive_evaluate(p, [identity_matrix(2), identity_matrix(3)])
        with pytest.raises(ValueError):
            naive_evaluate(p, [identity_matrix(2)])

    def test_plain_lists_are_a_type_error(self, ab_xy):
        p = parse("x*y", ab_xy)
        with pytest.raises(TypeError, match=r"square numpy\.ndarray per letter, not list"):
            naive_evaluate(p, [[[1]], [[2]]])
        with pytest.raises(TypeError, match="not tuple"):
            naive_evaluate(p, [identity_matrix(1), ((1,),)])


class TestNaiveMultCount:
    def test_bench19_needs_97(self, bench19_poly):
        assert naive_mult_count(bench19_poly) == 97

    def test_power_family_k3(self, ab_xyz):
        assert naive_mult_count(parse("(x+y+z)^3", ab_xyz)) == 54

    def test_scalar_is_free(self, ab_xy):
        assert naive_mult_count(parse("5", ab_xy)) == 0


class TestPrinting:
    def test_canonical_order_and_signs(self, ab_xy):
        assert str(parse("-y*x + x + 1", ab_xy)) == "1 + x - y*x"

    def test_powers_grouped(self, ab_xy):
        assert str(parse("x*x*x*y*y", ab_xy)) == "x^3*y^2"

    def test_zero(self, ab_xy):
        assert str(NcPolynomial.zero(ab_xy)) == "0"

    def test_fraction_coefficient(self, ab_xy):
        assert str(parse("-1/2*x", ab_xy)) == "-1/2*x"
