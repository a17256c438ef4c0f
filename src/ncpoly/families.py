"""Two polynomial families with known minimal systems and counts.

The *power family* p_k = (x+y+z)^k has 3^k terms but a bidiagonal minimal
system of dimension k+1 whose evaluation needs only k-1 products.  The
*convolution family* q_k = sum_j (x_j+y_j+z_j) q_{k-j} (q_0 = 1, fresh
letters per level) fills the whole upper triangle, needing k(k-1)/2.
Together they bracket how far a minimal system can beat term-by-term
evaluation.
"""

from __future__ import annotations

from fractions import Fraction

from .freepoly import Alphabet, NcPolynomial
from .realization import Als, LinearEntry, _unit_rows


def power_alphabet() -> Alphabet:
    return Alphabet(("x", "y", "z"))


def power_polynomial(k: int) -> NcPolynomial:
    """(x + y + z)^k, expanded."""
    if k < 0:
        raise ValueError("k must be non-negative")
    alphabet = power_alphabet()
    base = NcPolynomial(
        alphabet, {(0,): Fraction(1), (1,): Fraction(1), (2,): Fraction(1)}
    )
    return base**k


def power_system(k: int) -> Als:
    """Minimal system for (x+y+z)^k: -(x+y+z) along the superdiagonal."""
    if k < 0:
        raise ValueError("k must be non-negative")
    alphabet = power_alphabet()
    d = len(alphabet)
    n = k + 1
    step = LinearEntry((Fraction(0), Fraction(-1), Fraction(-1), Fraction(-1)))
    rows = _unit_rows(n, d)
    for i in range(n - 1):
        rows[i][i + 1] = step
    return Als(alphabet, rows, [Fraction(0)] * k + [Fraction(1)])


def convolution_alphabet(k: int) -> Alphabet:
    """Letters x1,y1,z1,...,xk,yk,zk (at least one level)."""
    levels = max(k, 1)
    return Alphabet(
        tuple(f"{c}{level}" for level in range(1, levels + 1) for c in "xyz")
    )


def _level_sum(alphabet: Alphabet, level: int) -> NcPolynomial:
    base = 3 * (level - 1)
    return NcPolynomial(
        alphabet,
        {(base,): Fraction(1), (base + 1,): Fraction(1), (base + 2,): Fraction(1)},
    )


def convolution_polynomial(k: int) -> NcPolynomial:
    """q_k = sum_{j=1..k} (x_j + y_j + z_j) q_{k-j} with q_0 = 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    alphabet = convolution_alphabet(k)
    levels = [NcPolynomial.one(alphabet)]
    for level in range(1, k + 1):
        q = NcPolynomial.zero(alphabet)
        for j in range(1, level + 1):
            q = q + _level_sum(alphabet, j) * levels[level - j]
        levels.append(q)
    return levels[k]


def convolution_system(k: int) -> Als:
    """Minimal system for q_k: entry (i, j) is -(x_{j-i}+y_{j-i}+z_{j-i})."""
    if k < 0:
        raise ValueError("k must be non-negative")
    alphabet = convolution_alphabet(k)
    d = len(alphabet)
    n = k + 1
    rows = _unit_rows(n, d)
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [Fraction(0)] * (d + 1)
            base = 3 * (j - i - 1)
            coeffs[base + 1] = coeffs[base + 2] = coeffs[base + 3] = Fraction(-1)
            rows[i][j] = LinearEntry(tuple(coeffs))
    return Als(alphabet, rows, [Fraction(0)] * k + [Fraction(1)])
