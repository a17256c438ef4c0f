"""Seeded and named inputs of the benchmark.

Generators take the run's ``random.Random`` and return plain data (word ->
coefficient maps, coefficient lists); the skeletons they fill come from
fixed seeds.  The named inputs are the worked examples the acceptance
criteria use, restated so the benchmark depends on the library only, not
on the test suite.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

BENCH19_LETTERS = ("x", "y", "a", "b", "c")
BENCH19_TEXT = (
    "3cyxb + 3xbyxb + 2cyxax + cybxb - cyaxb - 2xbyxax + 4xbybxb - 3xbyaxb"
    " + 3xaxyxb - 3bxbyxb + 6axbyxb + 2xaxyxax + xaxybxb - xaxyaxb"
    " - 2bxbyxax - bxbybxb + bxbyaxb + 5axbybxb - 4axbyaxb"
)
BENCH19_RANK = 16
BENCH19_CHAIN_PRODUCTS = 15

# (X1 X2 X3 + X4) Y Z1 Z2 Z3 as a strict chain of eight pencil matrices:
# [X1|1] diag(X2,1) [X3;X4] Y Z1 Z2 Z3.
BENCH19_CHAIN = {
    "x1": [["1+a", "1+b", "x"]],
    "x2": [["x", "0", "0"], ["0", "x", "0"], ["0", "0", "a"]],
    "x3": [["b", "0"], ["0", "-b"], ["0", "x"]],
    "x4": [["0", "c"]],
    "y": [["y", "0"], ["0", "y"]],
    "z1": [["6+5b-4a", "0"], ["3+b-a", "2x"]],
    "z2": [["0", "x"], ["a", "0"]],
    "z3": [["x"], ["b"]],
}

REMARK_LETTERS = ("a", "b", "c", "x", "y", "z")
# Sparse but non-minimal 7-dim system for ab(xyz+yz+z+1) + acxyz.
REMARK7_CELLS = [
    ["1", "-a", "0", "0", "0", "0", "0"],
    ["0", "1", "-b", "-c", "0", "0", "0"],
    ["0", "0", "1", "-1", "-1", "-1", "-1"],
    ["0", "0", "0", "1", "-x", "0", "0"],
    ["0", "0", "0", "0", "1", "-y", "0"],
    ["0", "0", "0", "0", "0", "1", "-z"],
    ["0", "0", "0", "0", "0", "0", "1"],
]
# Minimal 6-dim system for the same polynomial (denser: N_s = 6, N_t = 7).
REMARK6_CELLS = [
    ["1", "-a", "0", "0", "0", "0"],
    ["0", "1", "-b-c", "-b", "-b", "-b"],
    ["0", "0", "1", "-x", "0", "0"],
    ["0", "0", "0", "1", "-y", "0"],
    ["0", "0", "0", "0", "1", "-z"],
    ["0", "0", "0", "0", "0", "1"],
]

# Criterion-5 goldens: (text, letters, atom count).
FACTOR_GOLDENS = (
    ("x - x*y*x", ("x", "y", "z"), 2),
    ("x*y*z", ("x", "y", "z"), 3),
    ("2aexc + 2bxc - aexd - bxd", ("a", "b", "c", "d", "e", "x"), 3),
    ("x*y + y*x", ("x", "y", "z"), 1),
)

# Named compile inputs: (name, text, letters, golden rank).  p_3 is added
# by the workload from ``ncpoly.families``.  bench19 and p_4 take 1.3-3 s
# each, which would stretch a round to 7 s and leave each op three timed
# repeats in a run; bench19's build is timed in the eval set-up instead.
COMPILE_NAMED = (("product", "(x*y+1)*(z*x-3)", ("x", "y", "z"), 5),)

NONZERO = (-3, -2, -1, 1, 2, 3)

# Criterion-3 shape, two degrees lower: d = 1..4 letters, 1..10 terms,
# words of length 0..3.  Degree-5 words made a round of the corpus last
# 3.6 s (degree 4: 2.5 s), which left each op five (eight) timed repeats
# in a run; taking each op's fastest repeat, unscaled, the p90 spread 0.17
# (0.23) over ten seeds.
# The words of polynomial i are drawn once from this fixed seed and the
# run's seed draws the coefficients.  Even relabeling the letters changes
# the deglex insertion order of build_als and moved single ops by 1.7x, so
# the words stay fixed: every seed gets the same mix of small and large
# polynomials, and two seeds differ in coefficients, not in luck.
CORPUS_MAX_DEGREE = 3
CORPUS_SHAPE_SEED = 20240901
FACTOR_SHAPE_SEED = 19730601


def corpus_skeletons(count: int) -> list[tuple[int, list]]:
    """(d, words) per corpus polynomial, independent of the run's seed."""
    rng = random.Random(CORPUS_SHAPE_SEED)
    skeletons = []
    for index in range(count):
        d = 1 + index % 4
        words = {}
        for _ in range(1 + (index // 4) % 10):
            length = rng.randint(0, CORPUS_MAX_DEGREE)
            words[tuple(rng.randrange(d) for _ in range(length))] = None
        skeletons.append((d, list(words)))
    return skeletons


def corpus_polynomial(rng: random.Random, words: list) -> dict:
    """Word -> coefficient map over the skeleton's words."""
    return {word: Fraction(rng.choice(NONZERO)) for word in words}


def factor_skeletons(count: int) -> list[list[tuple[str, ...]]]:
    """Per product, per factor: which of constant, first and second letter
    of the factor's own letter pair carry a term.  Independent of the seed."""
    rng = random.Random(FACTOR_SHAPE_SEED)
    kinds = ("1", "u", "v")
    skeletons = []
    for index in range(count):
        factors = []
        for _ in range(3 if index % 16 == 15 else 2):
            while True:
                picks = {rng.choice(kinds) for _ in range(rng.randint(1, 3))}
                terms = tuple(sorted(picks))
                if terms != ("1",):
                    break
            factors.append(terms)
        skeletons.append(factors)
    return skeletons


def affine_factor(rng: random.Random, terms: tuple, pair: tuple[int, int]) -> dict:
    """Affine-linear factor over a letter pair with seeded coefficients."""
    u, v = pair
    word = {"1": (), "u": (u,), "v": (v,)}
    return {word[kind]: Fraction(rng.choice(NONZERO)) for kind in terms}


def irreducible_quadratic(rng: random.Random) -> tuple[int, int]:
    """(p, q) with x^2 + p x + q irreducible over Q (no rational root)."""
    while True:
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        disc = p * p - 4 * q
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return p, q


def anticommutator_like(rng: random.Random) -> dict:
    """a*xy + b*yx + c*x + d*y + e with a, b != 0 over letters (x, y).

    A split would be two affine factors whose degree-1 parts multiply to
    a*xy + b*yx.  Both mixed coefficients non-zero forces every letter
    coefficient of both factors non-zero, so x^2 would appear: there is
    no split, and the factorizer must return a single atom.
    """
    words = ((0, 1), (1, 0), (0,), (1,), ())
    return {word: Fraction(rng.choice(NONZERO)) for word in words}


def companion_consts(rng: random.Random, degree: int) -> list[Fraction]:
    """a_0..a_{k-1} of a monic univariate polynomial, all non-zero."""
    choices = [c for c in range(-6, 7) if c]
    return [Fraction(rng.choice(choices)) for _ in range(degree)]
