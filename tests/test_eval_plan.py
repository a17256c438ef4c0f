"""The plan loop against the substitution loop it replaced, on seeded inputs.

``Reference`` below is the former evaluator, kept here as an oracle: it
forms every pencil entry as a matrix just before its product (a single
letter with coefficient 1 is the tuple's matrix), negates each step's
first product and folds a product of systems with a counted product.
Exact results and product counts must be equal; float64 results may round
differently, because ``c * (X @ v)`` is not ``(c * X) @ v`` in floats.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from ncpoly import (
    Alphabet,
    Als,
    build_als,
    evaluate_block_factorization,
    evaluate_left,
    evaluate_product,
    evaluate_right,
    parse,
    random_rational_tuple,
    right_companion,
)
from ncpoly.linalg import integer_scaled

from conftest import random_polynomial


class Reference:
    """The substitution loop with per-step entry formation."""

    @staticmethod
    def exact_matmul(left, right):
        ints_a, la = integer_scaled(left.ravel().tolist())
        ints_b, lb = integer_scaled(right.ravel().tolist())
        product = (
            np.array(ints_a, dtype=object).reshape(left.shape)
            @ np.array(ints_b, dtype=object).reshape(right.shape)
        )
        entries = [Fraction(c, la * lb) for c in product.ravel().tolist()]
        return np.array(entries, dtype=object).reshape(product.shape)

    @classmethod
    def product(cls, left, right):
        if isinstance(left, np.ndarray):
            if isinstance(right, np.ndarray):
                if left.dtype == object:
                    return cls.exact_matmul(left, right), 1
                return left @ right, 1
            return (left * right if right else right), 0
        return (left * right if left else left), 0

    @staticmethod
    def add_to_diagonal(mat, scalar):
        diagonal = np.arange(mat.shape[0])
        mat[diagonal, diagonal] += scalar

    @classmethod
    def entry_value(cls, entry, tup):
        if entry.is_scalar:
            return tup.coeff(entry.constant)
        letters = [(k, c) for k, c in enumerate(entry.coeffs[1:]) if c]
        if len(letters) == 1 and letters[0][1] == 1 and not entry.constant:
            return tup.mats[letters[0][0]]
        acc = None
        for k, coeff in letters:
            mat = tup.mats[k]
            if acc is None:
                acc = mat.copy() if coeff == 1 else tup.coeff(coeff) * mat
            elif coeff == 1:
                acc += mat
            elif coeff == -1:
                acc -= mat
            else:
                acc += tup.coeff(coeff) * mat
        if entry.constant:
            cls.add_to_diagonal(acc, tup.coeff(entry.constant))
        return acc

    @classmethod
    def substitute(cls, tup, values, steps, entry_left):
        count = 0
        for negate, terms in steps:
            scalar, total = tup.coeff(Fraction(0)), None
            for src, entry in terms:
                value = values[src]
                if entry.is_zero or (not isinstance(value, np.ndarray) and value == 0):
                    continue
                if entry_left:
                    term, counted = cls.product(cls.entry_value(entry, tup), value)
                else:
                    term, counted = cls.product(value, cls.entry_value(entry, tup))
                count += counted
                if not isinstance(term, np.ndarray):
                    scalar = scalar - term if negate else scalar + term
                elif total is None:
                    total = np.negative(term, out=term) if negate else term
                elif negate:
                    total -= term
                else:
                    total += term
            if total is not None and scalar:
                cls.add_to_diagonal(total, scalar)
            values.append(scalar if total is None else total)
        return count

    @staticmethod
    def report(tup, value, count):
        if not isinstance(value, np.ndarray):
            value = value * tup.identity()
        return value, count

    @classmethod
    def left_value(cls, als, tup):
        if als.is_empty:
            return tup.coeff(Fraction(0)), 0
        n = als.n
        values = [tup.coeff(als.lam)]
        steps = (
            (True, [(n - 1 - j, als.rows[i][j]) for j in range(i + 1, n)])
            for i in range(n - 2, -1, -1)
        )
        count = cls.substitute(tup, values, steps, entry_left=True)
        return values[-1], count

    @classmethod
    def left(cls, als, tup):
        return cls.report(tup, *cls.left_value(als, tup))

    @classmethod
    def right(cls, als, tup):
        if als.is_empty:
            return cls.report(tup, tup.coeff(Fraction(0)), 0)
        values = [tup.coeff(Fraction(1))]
        steps = (
            (True, [(i, als.rows[i][j]) for i in range(j)]) for j in range(1, als.n)
        )
        count = cls.substitute(tup, values, steps, entry_left=False)
        return cls.report(tup, tup.coeff(als.lam) * values[-1], count)

    @classmethod
    def chain(cls, bf, tup):
        row, count = [tup.coeff(Fraction(1))], 0
        for grid in bf.factors:
            steps = ((False, list(enumerate(column))) for column in zip(*grid))
            count += cls.substitute(tup, row, steps, entry_left=False)
            row = row[len(grid):]
        return cls.report(tup, row[0], count)

    @classmethod
    def product_of(cls, systems, tup):
        value, count = tup.coeff(Fraction(1)), 0
        for als in systems:
            factor, factor_count = cls.left_value(als, tup)
            value, counted = cls.product(value, factor)
            count += factor_count + counted
        return cls.report(tup, value, count)


def assert_same(report, reference, exact):
    want, count = reference
    assert report.mult_count == count
    assert report.result.shape == want.shape
    if exact:
        assert report.result.dtype == object
        assert np.array_equal(report.result, want)
    else:
        assert report.result.dtype == np.float64
        scale = max(np.linalg.norm(want), np.finfo(float).tiny)
        assert np.linalg.norm(report.result - want) / scale <= 1e-12


def tuples(rng, d, sizes=(1, 3, 5)):
    for m in sizes:
        exact = random_rational_tuple(rng, d, m)
        yield exact
        yield exact.to_float()


def check_both_sides(als, rng):
    for tup in tuples(rng, len(als.alphabet)):
        assert_same(evaluate_left(als, tup), Reference.left(als, tup), tup.is_exact)
        assert_same(evaluate_right(als, tup), Reference.right(als, tup), tup.is_exact)


@pytest.mark.parametrize("letters", [("x",), ("x", "y"), ("x", "y", "z")])
def test_random_polynomial_systems(letters):
    rng = random.Random(len(letters))
    ab = Alphabet(letters)
    for _ in range(12):
        check_both_sides(build_als(random_polynomial(rng, ab, max_degree=4)), rng)


def test_companions_with_negative_and_non_unit_coefficients():
    rng = random.Random(31)
    ab = Alphabet(("x",))
    for degree in (1, 2, 5, 9):
        factors = [f"{rng.choice((-3, -2, -1, 2, 5))}x" for _ in range(degree)]
        consts = [Fraction(rng.choice((-7, -1, 3)), rng.choice((1, 2)))
                  for _ in range(degree)]
        check_both_sides(right_companion(ab, factors, consts), rng)


def test_bench19_chain_and_its_block_system(bench19_chain):
    rng = random.Random(32)
    block_als = bench19_chain.to_block_als()
    for tup in tuples(rng, 5, sizes=(2, 4)):
        assert_same(evaluate_block_factorization(bench19_chain, tup),
                    Reference.chain(bench19_chain, tup), tup.is_exact)
    check_both_sides(block_als, rng)


def test_product_with_a_zero_factor():
    rng = random.Random(33)
    ab = Alphabet(("x", "y"))
    texts = ("2x - y + 1", "x*y - 3", "-x - y", "5", "y*x*y + x")
    for zero_at in range(len(texts) + 1):
        systems = [build_als(parse(text, ab)) for text in texts]
        systems.insert(zero_at, Als.empty(ab))
        for tup in tuples(rng, 2):
            assert_same(evaluate_product(systems, tup),
                        Reference.product_of(systems, tup), tup.is_exact)
