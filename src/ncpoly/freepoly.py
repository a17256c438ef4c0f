"""Exact arithmetic of non-commutative polynomials over the rationals.

A polynomial is a finite formal sum of *words* over a declared alphabet of
non-commuting letters, with ``Fraction`` coefficients:

  Word         = Tuple[int, ...]     (letter indices; the empty tuple is 1)
  NcPolynomial = alphabet + {Word: Fraction}

Letters do not commute, so ``x*y != y*x``.  The zero polynomial is the
empty term map.  All stored coefficients are non-zero (canonical form),
which makes equality testing exact and reliable.

Words are ordered degree-lexicographically by ``(len(word), word)``; this
canonical order fixes printing and the iterative system-building order used
elsewhere in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .errors import ParseError
from .linalg import to_fraction

Word = Tuple[int, ...]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def word_key(word: Word) -> tuple[int, Word]:
    """Degree-lexicographic sort key for words."""
    return (len(word), word)


@dataclass(frozen=True)
class Alphabet:
    """Ordered, duplicate-free collection of letter identifiers."""

    letters: tuple[str, ...]

    def __init__(self, letters: Iterable[str]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet needs at least one letter")
        seen = set()
        for name in letters:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid letter identifier: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate letter: {name!r}")
            seen.add(name)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(letters)})

    def __len__(self) -> int:
        return len(self.letters)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown letter: {name!r}") from None

    @property
    def all_single_char(self) -> bool:
        return all(len(x) == 1 for x in self.letters)

    def word_str(self, word: Word) -> str:
        """Render a word with '*' separators and '^' powers; '1' when empty."""
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = self.letters[word[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)


class NcPolynomial:
    """A non-commutative polynomial in canonical form.

    Values are immutable; all arithmetic returns new objects.  Mixing
    polynomials over different alphabets raises ``ValueError``.
    """

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Word, Fraction]):
        cleaned: Dict[Word, Fraction] = {}
        d = len(alphabet)
        for word, coeff in terms.items():
            coeff = to_fraction(coeff)
            if coeff == 0:
                continue
            word = tuple(word)
            if any(not 0 <= i < d for i in word):
                raise ValueError(f"letter index out of range in word {word}")
            cleaned[word] = coeff
        self.alphabet = alphabet
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NcPolynomial":
        return cls(alphabet, {})

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NcPolynomial":
        return cls(alphabet, {(): Fraction(1)})

    @classmethod
    def scalar(cls, alphabet: Alphabet, value) -> "NcPolynomial":
        return cls(alphabet, {(): Fraction(value)})

    @classmethod
    def letter(cls, alphabet: Alphabet, name: str) -> "NcPolynomial":
        return cls(alphabet, {(alphabet.index(name),): Fraction(1)})

    @classmethod
    def monomial(cls, alphabet: Alphabet, word: Word, coeff=1) -> "NcPolynomial":
        return cls(alphabet, {tuple(word): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Word, Fraction]]:
        """Iterate (word, coefficient) pairs in canonical deglex order."""
        for word in sorted(self._terms, key=word_key):
            yield word, self._terms[word]

    def term_map(self) -> Dict[Word, Fraction]:
        return dict(self._terms)

    def coefficient(self, word: Word) -> Fraction:
        return self._terms.get(tuple(word), Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_scalar(self) -> bool:
        """True for 0 and any constant polynomial."""
        return all(not w for w in self._terms)

    def degree(self) -> int:
        """Maximal word length; 0 for scalars and for the zero polynomial."""
        return max((len(w) for w in self._terms), default=0)

    def support(self) -> set[Word]:
        return set(self._terms)

    # -- ring operations ---------------------------------------------------

    def _check_alphabet(self, other: "NcPolynomial") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("operands use different alphabets")

    def __add__(self, other):
        other = self._coerce(other)
        self._check_alphabet(other)
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            out[word] = out.get(word, Fraction(0)) + coeff
        return NcPolynomial(self.alphabet, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return NcPolynomial(self.alphabet, {w: -c for w, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NcPolynomial(
                self.alphabet, {w: c * other for w, c in self._terms.items()}
            )
        other = self._coerce(other)
        self._check_alphabet(other)
        return NcPolynomial(self.alphabet, _product(self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = NcPolynomial.one(self.alphabet)
        for _ in range(exponent):
            result = result * self
        return result

    def _coerce(self, other) -> "NcPolynomial":
        if isinstance(other, NcPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return NcPolynomial.scalar(self.alphabet, other)
        raise TypeError(f"cannot combine NcPolynomial with {type(other).__name__}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.alphabet, frozenset(self._terms.items())))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for word, coeff in self.terms():
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if not word:
                body = str(mag)
            elif mag == 1:
                body = self.alphabet.word_str(word)
            else:
                body = f"{mag}*{self.alphabet.word_str(word)}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"NcPolynomial({self})"


_Terms = Dict[Word, Fraction]


def _product(a: _Terms, b: _Terms) -> _Terms:
    """The term map of a * b, without zero coefficients."""
    out: _Terms = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            word = wa + wb
            out[word] = out.get(word, 0) + ca * cb
    return {word: c for word, c in out.items() if c}


def _degree(terms: _Terms) -> int:
    return max(map(len, terms), default=0)


# -- parsing ---------------------------------------------------------------

# Limits on parsed text, checked before anything is expanded: a power
# ``base^e`` multiplies e times and its term count can grow like
# len(base)**e, and a product of factors like the product of their term
# counts, so unbounded input would never return; each nested parenthesis
# costs the recursive-descent parser three stack frames.
MAX_DEGREE = 1000  # bound on e, on degree(base) * e and on a product's degree
MAX_TERMS = 10_000  # bound on len(base) ** e and on len(a) * len(b)
MAX_NESTING = 100  # bound on the depth of nested parentheses

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z][A-Za-z0-9_]*)|(?P<number>\d+)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        for kind in ("ident", "number", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value, match.start(kind)))
                break
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    expression := ('+'|'-')? term (('+'|'-') term)*
    term       := coeff ('*'? factor)* | factor ('*'? factor)*
    factor     := identifier power? | '(' expression ')' power?
    power      := '^' positive-integer   (bounded by MAX_DEGREE, MAX_TERMS)
    coeff      := integer ('/' positive-integer)?

    Each product in a term is bounded like a power before it is expanded,
    and parentheses nest at most MAX_NESTING deep.

    A bare identifier such as "xy" is split into single letters when the
    alphabet consists solely of single-character letters.

    Factors, terms and expressions are term maps (word -> coefficient) with
    no zero coefficients, so the bounds read the same lengths and degrees
    as on polynomials; ``parse`` builds one ``NcPolynomial`` at the end.
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
        terms = self.expression()
        kind, value, at = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {value!r}", at)
        return NcPolynomial(self.alphabet, terms)

    def expression(self) -> _Terms:
        total: _Terms = {}
        kind, value, _ = self.peek()
        sign = -1 if kind == "op" and value == "-" else 1
        if kind == "op" and value in "+-":
            self.advance()
        while True:
            for word, coeff in self.term().items():
                total[word] = total.get(word, 0) + sign * coeff
            kind, value, _ = self.peek()
            if not (kind == "op" and value in "+-"):
                return {word: c for word, c in total.items() if c}
            self.advance()
            sign = -1 if value == "-" else 1

    def term(self) -> _Terms:
        kind, _, at = self.peek()
        coeff = Fraction(1)
        have_coeff = False
        if kind == "number":
            coeff = self.coefficient()
            have_coeff = True
        product = {(): coeff} if coeff else {}
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
            if _degree(product) + _degree(factor) > MAX_DEGREE:
                raise ParseError(f"product exceeds degree {MAX_DEGREE}", factor_at)
            if len(product) * len(factor) > MAX_TERMS:
                raise ParseError(f"product may exceed {MAX_TERMS} terms", factor_at)
            product = _product(product, factor)
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

    def factor(self) -> _Terms:
        kind, value, at = self.advance()
        if kind == "ident":
            base = {self.identifier_word(value, at): Fraction(1)}
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
            if max(exponent, _degree(base) * exponent) > MAX_DEGREE:
                raise ParseError(f"power exceeds degree {MAX_DEGREE}", at)
            if len(base) ** exponent > MAX_TERMS:
                raise ParseError(f"power may exceed {MAX_TERMS} terms", at)
            power = base
            for _ in range(exponent - 1):
                power = _product(power, base)
            return power
        return base

    def identifier_word(self, name: str, at: int) -> Word:
        if name in self.alphabet:
            return (self.alphabet.index(name),)
        if self.alphabet.all_single_char and all(c in self.alphabet for c in name):
            return tuple(self.alphabet.index(c) for c in name)
        raise ParseError(f"unknown identifier {name!r}", at)


def parse(text: str, alphabet: Alphabet) -> NcPolynomial:
    """Parse polynomial text into canonical form.

    Raises ``ParseError`` (with position) on syntax errors, on
    identifiers not present in the alphabet, on integers too long for
    ``int``, on a power or product whose expansion could exceed
    ``MAX_DEGREE`` or ``MAX_TERMS``, and on parentheses nested deeper than
    ``MAX_NESTING``.
    """
    return _Parser(text, alphabet).parse()


# -- word-by-word evaluation (the oracle) -----------------------------------


def _check_tuple(p: NcPolynomial, mats: Sequence[np.ndarray]) -> tuple[int, bool]:
    if len(mats) != len(p.alphabet):
        raise ValueError(
            f"need {len(p.alphabet)} matrices, got {len(mats)}"
        )
    m = mats[0].shape[0]
    for mat in mats:
        if mat.shape != (m, m):
            raise ValueError("matrices must all be square of the same size")
    exact = mats[0].dtype == object
    return m, exact


def identity_matrix(m: int, exact: bool = True) -> np.ndarray:
    """m x m identity, with Fraction entries when exact."""
    if not exact:
        return np.eye(m)
    eye = np.full((m, m), Fraction(0), dtype=object)
    for i in range(m):
        eye[i, i] = Fraction(1)
    return eye


def naive_evaluate(p: NcPolynomial, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate term by term: sum of coeff * X_{i1} @ ... @ X_{ik}.

    One square matrix per letter; the empty word contributes coeff * I.
    No products are shared between terms, so this is the trustworthy
    (and expensive) reference for every other evaluation path.
    """
    m, exact = _check_tuple(p, mats)
    zero = Fraction(0) if exact else 0.0
    total = np.full((m, m), zero, dtype=object if exact else float)
    for word, coeff in p.terms():
        if word:
            product = mats[word[0]]
            for index in word[1:]:
                product = product @ mats[index]
        else:
            product = identity_matrix(m, exact)
        total = total + (coeff if exact else float(coeff)) * product
    return total


def naive_mult_count(p: NcPolynomial) -> int:
    """Matrix-matrix multiplications of unshared word-by-word evaluation."""
    return sum(max(len(word) - 1, 0) for word in p.support())
