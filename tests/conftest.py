"""Shared fixtures: alphabets, systems quoted from worked examples, generators."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from ncpoly import (
    Alphabet,
    Als,
    BlockFactorization,
    NcPolynomial,
    block_diag,
    entry_grid,
    hstack,
    parse,
    vstack,
)

BENCH19_TEXT = (
    "3cyxb + 3xbyxb + 2cyxax + cybxb - cyaxb - 2xbyxax + 4xbybxb - 3xbyaxb"
    " + 3xaxyxb - 3bxbyxb + 6axbyxb + 2xaxyxax + xaxybxb - xaxyaxb"
    " - 2bxbyxax - bxbybxb + bxbyaxb + 5axbybxb - 4axbyaxb"
)


@pytest.fixture
def ab_xy() -> Alphabet:
    return Alphabet(("x", "y"))


@pytest.fixture
def ab_xyz() -> Alphabet:
    return Alphabet(("x", "y", "z"))


@pytest.fixture
def bench19_alphabet() -> Alphabet:
    return Alphabet(("x", "y", "a", "b", "c"))


@pytest.fixture
def bench19_poly(bench19_alphabet) -> NcPolynomial:
    return parse(BENCH19_TEXT, bench19_alphabet)


@pytest.fixture
def intro_als(ab_xy) -> Als:
    """4-dim minimal system for x - xyx."""
    return Als.from_cells(
        ab_xy,
        [
            ["1", "-x", "0", "-x"],
            ["0", "1", "y", "0"],
            ["0", "0", "1", "-x"],
            ["0", "0", "0", "1"],
        ],
        [0, 0, 0, 1],
    )


@pytest.fixture
def anticommutator_als(ab_xy) -> Als:
    """4-dim minimal system for xy + yx with N = 2."""
    return Als.from_cells(
        ab_xy,
        [
            ["1", "-x", "-y", "0"],
            ["0", "1", "0", "-y"],
            ["0", "0", "1", "-x"],
            ["0", "0", "0", "1"],
        ],
        [0, 0, 0, 1],
    )


@pytest.fixture
def remark_alphabet() -> Alphabet:
    return Alphabet(("a", "b", "c", "x", "y", "z"))


@pytest.fixture
def seven_dim_remark(remark_alphabet) -> Als:
    """Sparse but non-minimal 7-dim system for ab(xyz+yz+z+1) + acxyz."""
    return Als.from_cells(
        remark_alphabet,
        [
            ["1", "-a", "0", "0", "0", "0", "0"],
            ["0", "1", "-b", "-c", "0", "0", "0"],
            ["0", "0", "1", "-1", "-1", "-1", "-1"],
            ["0", "0", "0", "1", "-x", "0", "0"],
            ["0", "0", "0", "0", "1", "-y", "0"],
            ["0", "0", "0", "0", "0", "1", "-z"],
            ["0", "0", "0", "0", "0", "0", "1"],
        ],
        [0, 0, 0, 0, 0, 0, 1],
    )


@pytest.fixture
def six_dim_remark(remark_alphabet) -> Als:
    """Minimal 6-dim system for the same polynomial (denser: N_s = 6)."""
    return Als.from_cells(
        remark_alphabet,
        [
            ["1", "-a", "0", "0", "0", "0"],
            ["0", "1", "-b-c", "-b", "-b", "-b"],
            ["0", "0", "1", "-x", "0", "0"],
            ["0", "0", "0", "1", "-y", "0"],
            ["0", "0", "0", "0", "1", "-z"],
            ["0", "0", "0", "0", "0", "1"],
        ],
        [0, 0, 0, 0, 0, 1],
    )


@pytest.fixture
def triple_product_alphabet() -> Alphabet:
    return Alphabet(("a", "b", "c", "d", "e", "x"))


@pytest.fixture
def triple_product_als(triple_product_alphabet) -> Als:
    """5-dim minimal system for 2aexc + 2bxc - aexd - bxd."""
    return Als.from_cells(
        triple_product_alphabet,
        [
            ["1", "-a", "-b", "-a", "0"],
            ["0", "1", "-e", "0", "2c-d"],
            ["0", "0", "1", "-x", "0"],
            ["0", "0", "0", "1", "d-2c"],
            ["0", "0", "0", "0", "1"],
        ],
        [0, 0, 0, 0, 1],
    )


@pytest.fixture
def bench19_chain(bench19_alphabet) -> BlockFactorization:
    """The 8 factor matrices assembled into a strict chain.

    (X1 X2 X3 + X4) Y Z1 Z2 Z3 == [X1|1] diag(X2,1) [X3;X4] Y Z1 Z2 Z3.
    """
    g = lambda cells: entry_grid(bench19_alphabet, cells)
    x1 = g([["1+a", "1+b", "x"]])
    x2 = g([["x", "0", "0"], ["0", "x", "0"], ["0", "0", "a"]])
    x3 = g([["b", "0"], ["0", "-b"], ["0", "x"]])
    x4 = g([["0", "c"]])
    y = g([["y", "0"], ["0", "y"]])
    z1 = g([["6+5b-4a", "0"], ["3+b-a", "2x"]])
    z2 = g([["0", "x"], ["a", "0"]])
    z3 = g([["x"], ["b"]])
    one = g([["1"]])
    return BlockFactorization(
        bench19_alphabet,
        [hstack(x1, one), block_diag(x2, one), vstack(x3, x4), y, z1, z2, z3],
    )


def random_polynomial(
    rng: random.Random,
    alphabet: Alphabet,
    max_terms: int = 10,
    max_degree: int = 5,
    coeff_range: int = 3,
) -> NcPolynomial:
    """Random canonical polynomial with small integer coefficients."""
    d = len(alphabet)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.randrange(d) for _ in range(rng.randint(0, max_degree)))
        coeff = rng.choice([c for c in range(-coeff_range, coeff_range + 1) if c])
        terms[word] = Fraction(coeff)
    return NcPolynomial(alphabet, terms)


def assert_bitwise_equal(a, b) -> None:
    """Same dtype and shape; float entries equal bit for bit, signed zeros too."""
    assert a.dtype == b.dtype and a.shape == b.shape
    if a.dtype == object:
        assert np.array_equal(a, b)
    else:
        assert a.tobytes() == b.tobytes()
