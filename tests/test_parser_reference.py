"""``parse`` against the former parser that built a polynomial per step.

The parser now keeps factors, terms and sums as term maps and builds one
``NcPolynomial`` at the end.  ``FormerParser`` below is a copy of the
version that built and validated an ``NcPolynomial`` for every factor, term
and partial sum.  On seeded texts both must give equal polynomials, and on
every bound and syntax error the same ``ParseError`` message and position.
"""

import random
from fractions import Fraction

from ncpoly import Alphabet, NcPolynomial, ParseError, parse
from ncpoly.freepoly import MAX_DEGREE, MAX_NESTING, MAX_TERMS, _tokenize

from conftest import random_polynomial


class FormerParser:
    """The parser that built an ``NcPolynomial`` for every factor and term.

    expression := ('+'|'-')? term (('+'|'-') term)*
    term       := coeff ('*'? factor)* | factor ('*'? factor)*
    factor     := identifier power? | '(' expression ')' power?
    power      := '^' positive-integer   (bounded by MAX_DEGREE, MAX_TERMS)
    coeff      := integer ('/' positive-integer)?

    Each product in a term is bounded like a power before it is expanded,
    and parentheses nest at most MAX_NESTING deep.

    A bare identifier such as "xy" is split into single letters when the
    alphabet consists solely of single-character letters.
    """

    def __init__(self, text: str, alphabet: Alphabet):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.alphabet = alphabet

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op: str) -> None:
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    def parse(self) -> NcPolynomial:
        result = self.expression()
        kind, value, at = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {value!r}", at)
        return result

    def expression(self) -> NcPolynomial:
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
        total = self.term() * sign
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                part = self.term()
                total = total + (part if value == "+" else -part)
            else:
                return total

    def term(self) -> NcPolynomial:
        kind, _, at = self.peek()
        coeff = Fraction(1)
        have_coeff = False
        if kind == "number":
            coeff = self.coefficient()
            have_coeff = True
        product = NcPolynomial.scalar(self.alphabet, coeff)
        have_factor = False
        while True:
            kind, value, star_at = self.peek()
            if kind == "op" and value == "*":
                if not have_coeff and not have_factor:
                    raise ParseError("unexpected '*'", star_at)
                self.advance()
            elif not (kind == "ident" or (kind == "op" and value == "(")):
                break
            factor_at = self.peek()[2]
            factor = self.factor()
            if product.degree() + factor.degree() > MAX_DEGREE:
                raise ParseError(f"product exceeds degree {MAX_DEGREE}", factor_at)
            if len(product) * len(factor) > MAX_TERMS:
                raise ParseError(f"product may exceed {MAX_TERMS} terms", factor_at)
            product = product * factor
            have_factor = True
        if not have_coeff and not have_factor:
            raise ParseError("expected a term", at)
        return product

    def integer(self) -> int:
        """The current number token as an int, consumed."""
        _, value, at = self.advance()
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"integer of {len(value)} digits is too long", at) from None

    def coefficient(self) -> Fraction:
        numerator = self.integer()
        kind, value, _ = self.peek()
        if kind == "op" and value == "/":
            self.advance()
            kind, _, at = self.peek()
            if kind != "number":
                raise ParseError("expected a positive denominator", at)
            den = self.integer()
            if den == 0:
                raise ParseError("expected a positive denominator", at)
            return Fraction(numerator, den)
        return Fraction(numerator)

    def factor(self) -> NcPolynomial:
        kind, value, at = self.advance()
        if kind == "ident":
            base = self.identifier_poly(value, at)
        elif kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", at)
            self.depth += 1
            base = self.expression()
            self.expect_op(")")
            self.depth -= 1
        else:
            raise ParseError(f"unexpected {value!r}", at)
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, _, at = self.peek()
            if kind != "number":
                raise ParseError("expected a positive integer exponent", at)
            exponent = self.integer()
            if exponent < 1:
                raise ParseError("expected a positive integer exponent", at)
            if max(exponent, base.degree() * exponent) > MAX_DEGREE:
                raise ParseError(f"power exceeds degree {MAX_DEGREE}", at)
            if len(base) ** exponent > MAX_TERMS:
                raise ParseError(f"power may exceed {MAX_TERMS} terms", at)
            return base**exponent
        return base

    def identifier_poly(self, name: str, at: int) -> NcPolynomial:
        if name in self.alphabet:
            return NcPolynomial.letter(self.alphabet, name)
        if self.alphabet.all_single_char and all(c in self.alphabet for c in name):
            word = tuple(self.alphabet.index(c) for c in name)
            return NcPolynomial.monomial(self.alphabet, word)
        raise ParseError(f"unknown identifier {name!r}", at)


def outcome(parser, text, alphabet):
    """The parsed polynomial, or the ParseError's message and position."""
    try:
        return parser(text, alphabet)
    except ParseError as exc:
        return "ParseError", str(exc), exc.position


def former_parse(text, alphabet):
    return FormerParser(text, alphabet).parse()


def assert_same(text, alphabet):
    expected = outcome(former_parse, text, alphabet)
    assert outcome(parse, text, alphabet) == expected, text
    return expected


def random_text(rng, alphabet, depth=0):
    """A sum of terms with coefficients (zero among them), letters,
    juxtaposed words, powers and nested parentheses."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        parts = []
        if rng.random() < 0.6:
            coeff = str(rng.choice([0, 1, 2, 3, 12]))
            if rng.random() < 0.3:
                coeff += f"/{rng.randint(1, 4)}"
            parts.append(coeff)
        for _ in range(rng.randint(0 if parts else 1, 3)):
            if depth < 2 and rng.random() < 0.35:
                factor = f"({random_text(rng, alphabet, depth + 1)})"
            else:
                factor = rng.choice(alphabet.letters)
            if rng.random() < 0.3:
                factor += f"^{rng.randint(1, 3)}"
            parts.append(factor)
        terms.append(rng.choice([" ", "*"]).join(parts))
    text = terms[0] if rng.random() < 0.7 else f"-{terms[0]}"
    for term in terms[1:]:
        text += f" {rng.choice('+-')} {term}"
    return text


class TestParseMatchesFormerParser:
    def test_printed_random_polynomials(self, ab_xy, ab_xyz, bench19_alphabet):
        rng = random.Random(71)
        for alphabet in (ab_xy, ab_xyz, bench19_alphabet):
            for _ in range(40):
                p = random_polynomial(rng, alphabet, max_terms=8, max_degree=4)
                q = random_polynomial(rng, alphabet, max_terms=3, max_degree=2)
                for text in (str(p), f"({p})^2 - 2/3 ({q}) ({p})", f"({p}) - ({p})"):
                    assert isinstance(assert_same(text, alphabet), NcPolynomial)

    def test_nested_random_texts(self, ab_xy, ab_xyz):
        rng = random.Random(73)
        zeros = 0
        for alphabet in (ab_xy, ab_xyz):
            for _ in range(150):
                result = assert_same(random_text(rng, alphabet), alphabet)
                zeros += result == NcPolynomial.zero(alphabet)
        assert zeros  # some texts cancel to zero

    def test_zero_coefficients_and_cancellations(self, ab_xy, bench19_alphabet):
        for text in (
            "(x - x)^3",
            "(x - x)^3 y + y",
            "0",
            "0 x^5 y",
            "0/7 + x",
            "x - x",
            "-(x + y) + (y + x)",
            "(x - x + y) (y - y)",
            "((x))^2 - x x",
            "2/4 x - 1/2 x + 3",
            f"(x - x)^{MAX_DEGREE} y^{MAX_DEGREE}",
            f"0 x^{MAX_DEGREE} y^{MAX_DEGREE}",
            f"(x + y - x - y + 1)^{MAX_DEGREE}",
        ):
            assert isinstance(assert_same(text, ab_xy), NcPolynomial)
        assert isinstance(assert_same("xya - (x - x)b c", bench19_alphabet), NcPolynomial)

    def test_bound_errors(self, ab_xy):
        nested = "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
        digits = "9" * 5000
        cases = [
            f"x^{MAX_DEGREE + 1}",
            f"(x*y)^{MAX_DEGREE // 2 + 1}",
            f"(x - x)^{MAX_DEGREE + 1}",
            f"x^{MAX_DEGREE} y",
            f"x^{MAX_DEGREE // 2 + 1}*y^{MAX_DEGREE // 2 + 1}",
            "(x+y)^14",
            "3 + (1+x+y)^9",
            "(x+y)^13*(x+y)^3",
            "2 (x+y)^7 (x-y)^7",
            "(x + y - x)^20 (x + y)^14",
            "2 + " + nested,
            "(x + " + nested + ")",
            f"x^{digits}",
            f"{digits}x",
            f"x + 1/{digits} y",
        ]
        for text in cases:
            result = assert_same(text, ab_xy)
            assert result[0] == "ParseError", text
        messages = {assert_same(text, ab_xy)[1].split(" (at")[0] for text in cases}
        for bound in (MAX_DEGREE, MAX_TERMS, MAX_NESTING):
            assert any(str(bound) in message for message in messages)
        assert any("too long" in message for message in messages)

    def test_syntax_errors(self, ab_xy):
        for text in ("x +", "(x", "x^0", "x^", "3/0", "*x", "x ** 2", "q", "x )", "", "2/"):
            assert assert_same(text, ab_xy)[0] == "ParseError", text
