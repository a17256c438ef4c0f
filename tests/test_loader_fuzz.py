"""The three loaders: generated values round-trip through their dumps, and
mutated dumps either load or raise FormatError, never another exception."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ncpoly import (
    Alphabet,
    Als,
    BlockFactorization,
    LinearEntry,
    MatrixTuple,
    build_als,
    dump_als,
    dump_factors,
    dump_matrix_tuple,
    load_als,
    load_factors,
    load_matrix_tuple,
    parse,
    random_rational_tuple,
)
from ncpoly.errors import FormatError

from conftest import assert_bitwise_equal


def _dumps():
    ab = Alphabet(("x", "y"))
    tup = random_rational_tuple(random.Random(8), 2, 2)
    chain = BlockFactorization.from_cells(
        ab, [[["x", "1/2 + y"]], [["y", "0"], ["-3x", "2"]], [["x"], ["7/3"]]]
    )
    return {
        "als": (
            load_als,
            [
                dump_als(build_als(parse(text, ab)))
                for text in ("x - x*y*x", "2/3 + x*y - 5*y*x", "0")
            ],
        ),
        "factors": (load_factors, [dump_factors(chain)]),
        "matrices": (
            load_matrix_tuple,
            [dump_matrix_tuple(tup), dump_matrix_tuple(tup.to_float())],
        ),
    }


DUMPS = _dumps()


def mutate(text, rng):
    """Apply one to three line drops, line truncations or token swaps.

    A swap mostly exchanges two tokens of one line, which keeps the shape
    of the file and changes its values; otherwise it reaches across lines.
    """
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2, 3))):
        if not lines:
            break
        i = rng.randrange(len(lines))
        kind = rng.choice(("drop", "truncate", "swap"))
        if kind == "drop":
            del lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        else:
            j = i if rng.random() < 0.7 else rng.randrange(len(lines))
            tokens = [line.split() for line in lines]
            if tokens[i] and tokens[j]:
                a, b = rng.randrange(len(tokens[i])), rng.randrange(len(tokens[j]))
                tokens[i][a], tokens[j][b] = tokens[j][b], tokens[i][a]
                lines = [" ".join(row) for row in tokens]
    return "\n".join(lines) + "\n"


def test_unmutated_dumps_load():
    for load, texts in DUMPS.values():
        for text in texts:
            load(text)


@pytest.mark.parametrize("kind", sorted(DUMPS))
@pytest.mark.parametrize(
    "pad", [lambda line: line + "  ", lambda line: line + "\r", lambda line: f"\t{line} \t"],
    ids=["trailing-spaces", "crlf", "tabs-around"],
)
def test_whitespace_around_lines_is_ignored(kind, pad):
    load, texts = DUMPS[kind]
    for text in texts:
        padded = "\n".join(pad(line) for line in text.splitlines()) + "\n"
        assert load(padded) == load(text)


@pytest.mark.parametrize(
    "kind, line",
    [("als", "dim"), ("als", "alphabet"), ("als", "lambda-pos"),
     ("factors", "alphabet"), ("factors", "count")],
)
def test_header_line_with_an_extra_token_is_rejected(kind, line):
    load, texts = DUMPS[kind]
    for text in texts:
        lines = text.splitlines()
        at = next(i for i, row in enumerate(lines) if row.split()[0] == line)
        lines[at] += " junk"
        with pytest.raises(FormatError, match=f"'{line}' must hold exactly one value"):
            load("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind", sorted(DUMPS))
@settings(max_examples=400, deadline=None, derandomize=True)
@given(index=st.integers(0, 2), rng=st.randoms())
def test_mutated_dumps_load_or_raise_format_error(kind, index, rng):
    load, texts = DUMPS[kind]
    try:
        load(mutate(texts[index % len(texts)], rng))
    except FormatError:
        pass


fractions = st.fractions(max_denominator=12).filter(lambda x: abs(x) < 10**6)
alphabets = st.lists(
    st.sampled_from(("x", "y", "z", "a1", "w_2")), min_size=1, max_size=3, unique=True
).map(Alphabet)


def entries(d, zero_often=True):
    coeffs = st.lists(
        st.one_of(st.just(Fraction(0)), fractions) if zero_often else fractions,
        min_size=d + 1,
        max_size=d + 1,
    )
    return coeffs.map(lambda c: LinearEntry(tuple(c)))


@st.composite
def systems(draw):
    """Upper unitriangular systems, n = 0..6; rhs in or out of polynomial form."""
    alphabet = draw(alphabets)
    d, n = len(alphabet), draw(st.integers(0, 6))
    rows = [
        [
            LinearEntry.one(d) if i == j else draw(entries(d)) if i < j else LinearEntry.zero(d)
            for j in range(n)
        ]
        for i in range(n)
    ]
    if draw(st.booleans()):  # polynomial form: v = (0, ..., 0, lam), lam != 0
        rhs = [Fraction(0)] * (n - 1) + [draw(fractions.filter(bool))] if n else []
    else:
        rhs = draw(st.lists(fractions, min_size=n, max_size=n))
    return Als(alphabet, rows, rhs)


@st.composite
def chains(draw):
    """Chains (1 x k1)(k1 x k2)...(k_r x 1) of pencil matrices."""
    alphabet = draw(alphabets)
    d = len(alphabet)
    sizes = [1] + draw(st.lists(st.integers(1, 3), max_size=3)) + [1]
    factors = [
        tuple(
            tuple(draw(entries(d)) for _ in range(cols)) for _ in range(rows)
        )
        for rows, cols in zip(sizes, sizes[1:])
    ]
    return BlockFactorization(alphabet, factors)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def matrix_tuples(draw):
    """Exact or float64 tuples, d = 1..3 matrices of size m = 1..4."""
    m, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    exact = draw(st.booleans())
    values = fractions if exact else finite_floats
    mats = [
        [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(m)]
        for _ in range(d)
    ]
    return MatrixTuple.exact(mats) if exact else MatrixTuple.floating(mats)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(als=systems())
def test_generated_systems_round_trip(als):
    again = load_als(dump_als(als))
    assert again == als
    assert again.is_polynomial_form == als.is_polynomial_form


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chain=chains())
def test_generated_chains_round_trip(chain):
    again = load_factors(dump_factors(chain))
    assert again == chain and hash(again) == hash(chain)
    assert again.alphabet == chain.alphabet and again.factors == chain.factors


@settings(max_examples=80, deadline=None, derandomize=True)
@example(tup=MatrixTuple.floating([[[-0.0, 5e-324], [-2.2250738585072014e-308, 0.0]]]))
@example(tup=MatrixTuple.floating([[[-5e-324, 1.7976931348623157e308], [0.1, -0.0]]]))
@given(tup=matrix_tuples())
def test_generated_matrix_tuples_round_trip(tup):
    """Exact entries come back equal; float64 entries bit for bit, -0.0 included."""
    again = load_matrix_tuple(dump_matrix_tuple(tup))
    assert again == tup
    assert again.mode == tup.mode and len(again.mats) == len(tup.mats)
    for a, b in zip(again.mats, tup.mats):
        assert_bitwise_equal(a, b)
        if tup.is_exact:
            assert all(type(x) is Fraction for x in a.ravel())
