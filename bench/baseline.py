"""Paterson–Stockmeyer evaluation of univariate matrix polynomials.

Paterson and Stockmeyer (SIAM J. Comput. 1973) evaluate a degree-k
polynomial with about 2*sqrt(k) matrix products: the powers X^2..X^s, then
Horner's rule in Y = X^s over matrix coefficients that need only scalings
and additions.  Horner's rule on its own, which is what a univariate
``right_companion`` system evaluates, needs k - 1.  This baseline shows
where the paper's product count is not the best available.
"""

from __future__ import annotations


def ps_block(k: int) -> int:
    """Block size s minimising (s - 1) + k // s products."""
    return min(range(1, k + 1), key=lambda s: (s - 1 + k // s, s))


def paterson_stockmeyer(coeffs, x, eye):
    """Evaluate sum_j coeffs[j] * X^j; returns (value, matrix products).

    ``eye`` is the identity of X's size and kind (exact or float), so one
    routine serves both evaluation modes.
    """
    k = len(coeffs) - 1
    s = ps_block(k)
    powers = [eye, x]
    for _ in range(2, s + 1):
        powers.append(powers[-1] @ x)
    products = s - 1

    def block(i):
        total = 0 * eye
        for j, c in enumerate(coeffs[i * s:(i + 1) * s]):
            if c:
                total = total + c * powers[j]
        return total

    r = k // s
    value = block(r)
    for i in range(r - 1, -1, -1):
        value = value @ powers[s] + block(i)
        products += 1
    return value, products
