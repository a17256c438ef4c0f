"""The mirror of a system, against the hand-written duals it replaced.

``realization._mirror`` anti-transposes a system.  ``Als.right_family`` is
the reversed left family of the mirror, ``left_companion`` the mirror of
``right_companion``, and the two family systems come from the existing
constructors.  The functions below are the former bodies of those four,
kept as references: each result must equal theirs exactly.
"""

import random
from fractions import Fraction

from ncpoly import (
    Alphabet,
    Als,
    LinearEntry,
    NcPolynomial,
    build_als,
    dump_als,
    left_companion,
    minimize,
    right_companion,
)
from ncpoly.families import (
    convolution_alphabet,
    convolution_system,
    power_alphabet,
    power_system,
)
from ncpoly.realization import _mirror

from conftest import random_polynomial
from test_realization import random_system


def unit_rows(n, d):
    rows = [[LinearEntry.zero(d)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = LinearEntry.one(d)
    return rows


def former_right_family(als):
    """t = u A^-1 by forward substitution: t_j = -sum_i t_i A_ij."""
    family = []
    for j in range(als.n):
        if j == 0:
            family.append(NcPolynomial.one(als.alphabet))
            continue
        terms = {}
        for i in range(j):
            coeffs = [(c, x) for c, x in enumerate(als.rows[i][j].coeffs) if x]
            for word, value in family[i].term_map().items():
                for c, x in coeffs:
                    key = word if c == 0 else word + (c - 1,)
                    terms[key] = terms.get(key, 0) - x * value
        family.append(NcPolynomial(als.alphabet, terms))
    return family


def former_left_companion(alphabet, factors, consts):
    """The first row carries the constants; q_m comes first."""
    d = len(alphabet)
    q = [LinearEntry.from_polynomial(f) for f in factors]
    a = [Fraction(c) for c in consts]
    m = len(q)
    rows = unit_rows(m + 1, d)
    rows[0][1] = (-q[m - 1]).add_constant(-a[m - 1])
    for col in range(2, m + 1):
        rows[0][col] = LinearEntry.scalar(-a[m - col], d)
    for i in range(1, m):
        rows[i][i + 1] = -q[m - 1 - i]
    return Als(alphabet, rows, [Fraction(0)] * m + [Fraction(1)])


def former_power_system(k):
    alphabet = power_alphabet()
    step = LinearEntry((Fraction(0), Fraction(-1), Fraction(-1), Fraction(-1)))
    rows = unit_rows(k + 1, 3)
    for i in range(k):
        rows[i][i + 1] = step
    return Als(alphabet, rows, [Fraction(0)] * k + [Fraction(1)])


def former_convolution_system(k):
    alphabet = convolution_alphabet(k)
    d = len(alphabet)
    rows = unit_rows(k + 1, d)
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            coeffs = [Fraction(0)] * (d + 1)
            base = 3 * (j - i - 1)
            coeffs[base + 1] = coeffs[base + 2] = coeffs[base + 3] = Fraction(-1)
            rows[i][j] = LinearEntry(tuple(coeffs))
    return Als(alphabet, rows, [Fraction(0)] * k + [Fraction(1)])


def with_rhs(als, rhs):
    return Als(als.alphabet, als.rows, rhs)


def seeded_systems():
    """Raw, minimized and built systems, with a general right-hand side too."""
    rng = random.Random(30)
    systems = [Als.empty(Alphabet(("x",)))]
    for n in range(1, 8):
        for d in range(1, 4):
            for _ in range(2):
                raw = random_system(rng, n, d)
                general = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                systems += [raw, with_rhs(raw, general), with_rhs(raw, general[:-1] + [0])]
                if raw.rhs[-1]:
                    systems.append(minimize(raw))
                systems.append(build_als(random_polynomial(rng, raw.alphabet, 6, 3)))
    return systems


def test_right_family_matches_forward_substitution():
    systems = seeded_systems()
    assert {als.n for als in systems} >= set(range(8))
    assert any(als.n and not als.rhs[-1] for als in systems)  # v_n = 0 occurs
    for als in systems:
        assert als.right_family() == former_right_family(als)


def test_left_companion_matches_the_former_layout():
    rng = random.Random(31)
    for m in range(1, 8):
        for d in range(1, 4):
            alphabet = Alphabet(("x", "y", "z")[:d])
            factors = []
            for _ in range(m):
                word = {(rng.randrange(d),): Fraction(rng.choice([-2, -1, 1, 3]))}
                if rng.random() < 0.5:
                    word[()] = Fraction(rng.randint(-2, 2))
                factors.append(NcPolynomial(alphabet, word))
            for consts in ([rng.choice([0, 0, 1, -3, 2]) for _ in range(m)], [0] * m):
                als = left_companion(alphabet, factors, consts)
                expected = former_left_companion(alphabet, factors, consts)
                assert dump_als(als) == dump_als(expected)


def test_family_systems_match_the_former_layout():
    for k in range(11):  # the table's cap on --kmax-p
        assert dump_als(power_system(k)) == dump_als(former_power_system(k))
    for k in range(9):  # and on --kmax-q
        assert dump_als(convolution_system(k)) == dump_als(former_convolution_system(k))


def test_mirror_is_an_involution_on_unit_rhs():
    rng = random.Random(32)
    alphabet = Alphabet(("x", "y"))
    systems = [Als.empty(alphabet), power_system(4), convolution_system(3)]
    systems.append(right_companion(alphabet, ["x+1", "y", "2x-y"], [1, 0, -2]))
    for n in range(1, 7):
        raw = random_system(rng, n, 2)
        systems.append(with_rhs(raw, [0] * (n - 1) + [1]))
    for als in systems:
        assert als.is_empty or (als.is_polynomial_form and als.lam == 1)
        assert _mirror(_mirror(als)) == als
