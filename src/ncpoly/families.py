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
from .realization import Als, minimal_monomial, right_companion


def power_alphabet() -> Alphabet:
    return Alphabet(("x", "y", "z"))


def _level_sum(alphabet: Alphabet, level: int) -> NcPolynomial:
    """x_j + y_j + z_j for level j: the step of both families (x + y + z at 1)."""
    base = 3 * (level - 1)
    return NcPolynomial(
        alphabet,
        {(base,): Fraction(1), (base + 1,): Fraction(1), (base + 2,): Fraction(1)},
    )


def power_polynomial(k: int) -> NcPolynomial:
    """(x + y + z)^k, expanded."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return _level_sum(power_alphabet(), 1) ** k


def power_system(k: int) -> Als:
    """Minimal system for (x+y+z)^k: -(x+y+z) along the superdiagonal.

    This is the right companion of k factors x+y+z with zero constants.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    alphabet = power_alphabet()
    if k == 0:
        return minimal_monomial(alphabet, ())
    return right_companion(alphabet, [_level_sum(alphabet, 1)] * k, [0] * k)


def convolution_alphabet(k: int) -> Alphabet:
    """Letters x1,y1,z1,...,xk,yk,zk (at least one level)."""
    levels = max(k, 1)
    return Alphabet(
        tuple(f"{c}{level}" for level in range(1, levels + 1) for c in "xyz")
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
    cells = [
        [-_level_sum(alphabet, j - i) if i < j else int(i == j) for j in range(k + 1)]
        for i in range(k + 1)
    ]
    return Als.from_cells(alphabet, cells, [0] * k + [1])
