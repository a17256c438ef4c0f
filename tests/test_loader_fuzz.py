"""Mutated dumps either load or raise FormatError, never another exception."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ncpoly import (
    Alphabet,
    BlockFactorization,
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
@settings(max_examples=400, deadline=None, derandomize=True)
@given(index=st.integers(0, 2), rng=st.randoms())
def test_mutated_dumps_load_or_raise_format_error(kind, index, rng):
    load, texts = DUMPS[kind]
    try:
        load(mutate(texts[index % len(texts)], rng))
    except FormatError:
        pass
