"""The constructors and transformations that edit one working system.

``minimal_monomial``, ``als_add``, ``als_mul``, ``restore_polynomial_form``,
``apply_transformation`` and ``build_als`` thaw a system into
``realization._Work`` (or start an empty one), edit it in place and freeze
it once.  The ``former_*`` functions below are copies of the versions that
built each result as a fresh list copy and validated it, and of the staged
sparse core that mixed every row, then every column, from sources read
before any write; both must give the same ``dump_als`` text, or the same
``ValueError``, on seeded inputs and on the edge cases.
"""

import random
from fractions import Fraction

import pytest

from ncpoly import (
    AdmissibleTransformation,
    Alphabet,
    Als,
    LinearEntry,
    als_add,
    als_mul,
    apply_transformation,
    build_als,
    dump_als,
    minimal_monomial,
    restore_polynomial_form,
)
from ncpoly.freepoly import word_key
from ncpoly.minimizer import _reduce
from ncpoly.realization import _unit_rows, _Work

from conftest import random_polynomial

# -- the former copy, edit and validate versions -------------------------------


def former_combine(terms, zero):
    factor, entry = terms[0]
    if factor == 1:
        if len(terms) == 1:
            return entry
        coeffs = list(entry.coeffs)
    else:
        coeffs = [factor * x if x else x for x in entry.coeffs]
    for factor, entry in terms[1:]:
        for c, x in enumerate(entry.coeffs):
            if x:
                coeffs[c] += factor * x
    return LinearEntry(tuple(coeffs)) if any(coeffs) else zero


def former_mixed(lines, zero):
    terms = {}
    for factor, cells in lines:
        for at, entry in cells:
            terms.setdefault(at, []).append((factor, entry))
    out = {}
    for at, pairs in terms.items():
        entry = former_combine(pairs, zero)
        if entry is not zero:
            out[at] = entry
    return out


def former_line_terms(cells, by_column):
    lines = {}
    for (i, j), x in cells.items():
        target, source = (j, i) if by_column else (i, j)
        lines.setdefault(target, [(target, Fraction(1))]).append((source, x))
    return lines


def former_mix_in_place(rows, rhs, p_cells, q_cells, zero):
    n = len(rows)
    row_mix = former_line_terms(p_cells, False)
    sources = {
        k: [(j, e) for j, e in enumerate(rows[k]) if not e.is_zero]
        for k in {k for mix in row_mix.values() for k, _ in mix}
    }
    mixed_rows = {
        i: (
            former_mixed([(f, sources[k]) for k, f in mix], zero),
            sum((f * v for k, f in mix if (v := rhs[k])), Fraction(0)),
        )
        for i, mix in row_mix.items()
    }
    for i, (cells, value) in mixed_rows.items():
        row = rows[i] = [zero] * n
        for j, entry in cells.items():
            row[j] = entry
        rhs[i] = value
    col_mix = former_line_terms(q_cells, True)
    sources = {
        k: [(r, row[k]) for r, row in enumerate(rows) if not row[k].is_zero]
        for k in {k for mix in col_mix.values() for k, _ in mix}
    }
    mixed_cols = {
        j: former_mixed([(f, sources[k]) for k, f in mix], zero)
        for j, mix in col_mix.items()
    }
    for j, cells in mixed_cols.items():
        for row in rows:
            row[j] = zero
        for r, entry in cells.items():
            rows[r][j] = entry


def former_transform(als, p_cells, q_cells):
    rows = [list(row) for row in als.rows]
    rhs = list(als.rhs)
    former_mix_in_place(rows, rhs, p_cells, q_cells, LinearEntry.zero(len(als.alphabet)))
    return Als(als.alphabet, rows, rhs)


def former_monomial_block(word, coeff, d):
    n = len(word) + 1
    rows = _unit_rows(n, d)
    for i, letter in enumerate(word):
        rows[i][i + 1] = LinearEntry.letter(letter, d, -1)
    return rows, [Fraction(0)] * (n - 1) + [coeff]


def former_append_block(rows, b_rows, coupling, d):
    na, nb = len(rows), len(b_rows)
    zero = LinearEntry.zero(d)
    for row in rows:
        row.extend([zero] * nb)
    rows.extend([zero] * na + list(row) for row in b_rows)
    for (i, j), value in coupling.items():
        rows[i][na + j] = LinearEntry.scalar(value, d)


def former_append_summand(rows, rhs, b_rows, b_rhs, d):
    former_append_block(rows, b_rows, {(0, 0): Fraction(-1)} if rows else {}, d)
    rhs.extend(b_rhs)


def former_minimal_monomial(alphabet, word, coeff=1):
    coeff = Fraction(coeff)
    if coeff == 0:
        return Als.empty(alphabet)
    rows, rhs = former_monomial_block(tuple(word), coeff, len(alphabet))
    return Als(alphabet, rows, rhs)


def former_als_add(a, b):
    if a.alphabet != b.alphabet:
        raise ValueError("operands use different alphabets")
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    rows, rhs = [list(row) for row in a.rows], list(a.rhs)
    former_append_summand(rows, rhs, b.rows, b.rhs, len(a.alphabet))
    return Als(a.alphabet, rows, rhs)


def former_scale_rhs(als, factor):
    if factor == 0:
        return Als.empty(als.alphabet)
    return Als(als.alphabet, als.rows, [factor * x for x in als.rhs])


def former_als_mul(a, b):
    if a.alphabet != b.alphabet:
        raise ValueError("operands use different alphabets")
    if a.is_empty or b.is_empty:
        return Als.empty(a.alphabet)
    if a.n == 1:
        return former_scale_rhs(b, a.rhs[0])
    if b.n == 1:
        return former_scale_rhs(a, b.rhs[0])
    coupling = {(i, 0): -a.rhs[i] for i in range(a.n) if a.rhs[i] != 0}
    rows = [list(row) for row in a.rows]
    former_append_block(rows, b.rows, coupling, len(a.alphabet))
    return Als(a.alphabet, rows, [Fraction(0)] * a.n + list(b.rhs))


def former_restoring_cells(rhs):
    if rhs[-1] == 0:
        raise ValueError("cannot restore polynomial form: v_n is zero (see minimize)")
    n, lam = len(rhs), rhs[-1]
    return {(i, n - 1): -v / lam for i, v in enumerate(rhs[:-1]) if v}


def former_restore_polynomial_form(als):
    if als.is_empty or als.is_polynomial_form:
        return als
    return former_transform(als, former_restoring_cells(als.rhs), {})


def former_build_als(p, words):
    """build_als's loop with the former per-monomial append."""
    work = _Work(p.alphabet)
    d = len(p.alphabet)
    for word in words:
        rows, rhs = former_monomial_block(word, p.coefficient(word), d)
        former_append_summand(work.rows, work.rhs, rows, rhs, d)
        _reduce(work, None)
    return work.freeze()


# -- inputs -------------------------------------------------------------------------


def outcome(f, *args):
    """The dump_als text of f(*args), or the text of its ValueError."""
    try:
        return dump_als(f(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def random_value(rng):
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))


def random_system(rng, alphabet, n):
    """Upper unitriangular system with sparse pencil entries and any rhs."""
    d = len(alphabet)
    rows = _unit_rows(n, d)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i][j] = LinearEntry(
                    tuple(random_value(rng) if rng.random() < 0.6 else 0 for _ in range(d + 1))
                )
    return Als(alphabet, rows, [random_value(rng) for _ in range(n)])


def random_cells(rng, n, first_row):
    return {
        (i, j): random_value(rng)
        for i in range(first_row, n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    }


def operands(rng, alphabet):
    """Edge cases first, then seeded monomials, built and raw systems."""
    d = len(alphabet)
    one = [[LinearEntry.one(d)]]
    pool = [
        Als.empty(alphabet),
        Als(alphabet, one, [0]),  # 1-dim, v = (0): represents 0
        Als(alphabet, one, [3]),
        Als.from_cells(alphabet, [["1", "-x"], ["0", "1"]], [1, 0]),  # v_n = 0
        Als.from_cells(alphabet, [["1", "-x", "2"], ["0", "1", "-1"], ["0", "0", "1"]], [0, 5, 0]),
    ]
    for _ in range(6):
        word = tuple(rng.randrange(d) for _ in range(rng.randrange(4)))
        pool.append(minimal_monomial(alphabet, word, random_value(rng) or 1))
        pool.append(build_als(random_polynomial(rng, alphabet, 4, 3)))
        pool.append(random_system(rng, alphabet, rng.randint(1, 5)))
    return pool


ALPHABETS = [Alphabet(("x",)), Alphabet(("x", "y")), Alphabet(("x", "y", "z"))]


class TestConstructorsMatchFormerVersions:
    def test_minimal_monomial(self):
        rng = random.Random(61)
        for alphabet in ALPHABETS:
            d = len(alphabet)
            for coeff in (0, "0", "1/2", 1, -3, Fraction(2, 7), 0.5):
                for length in range(4):
                    word = [rng.randrange(d) for _ in range(length)]
                    assert outcome(minimal_monomial, alphabet, word, coeff) == outcome(
                        former_minimal_monomial, alphabet, word, coeff
                    )
            assert outcome(minimal_monomial, alphabet, (d,), 1) == outcome(
                former_minimal_monomial, alphabet, (d,), 1
            )

    def test_zero_coefficient_text_gives_the_empty_system(self, ab_xy):
        for coeff in (0, "0", "0/3", Fraction(0)):
            assert minimal_monomial(ab_xy, (0, 1), coeff) == Als.empty(ab_xy)

    def test_sum_and_product(self):
        rng = random.Random(62)
        for alphabet in ALPHABETS:
            pool = operands(rng, alphabet)
            for a in pool:
                for b in pool:
                    assert outcome(als_add, a, b) == outcome(former_als_add, a, b)
                    assert outcome(als_mul, a, b) == outcome(former_als_mul, a, b)
        x, xy = operands(rng, ALPHABETS[0]), operands(rng, ALPHABETS[1])
        for a, b in zip(x, xy):
            for f, former in ((als_add, former_als_add), (als_mul, former_als_mul)):
                assert outcome(f, a, b) == outcome(former, a, b)
                assert outcome(f, a, b).startswith("ValueError: operands use")

    def test_scalar_zero_operand_gives_the_empty_system(self, ab_xy):
        zero = Als(ab_xy, [[LinearEntry.one(2)]], [0])
        other = build_als(random_polynomial(random.Random(5), ab_xy, 4, 3))
        assert als_mul(zero, other) == als_mul(other, zero) == Als.empty(ab_xy)
        assert als_mul(zero, zero) == Als.empty(ab_xy)

    def test_restore_polynomial_form(self):
        rng = random.Random(63)
        errors = 0
        for alphabet in ALPHABETS:
            for als in operands(rng, alphabet):
                got = outcome(restore_polynomial_form, als)
                assert got == outcome(former_restore_polynomial_form, als)
                errors += got.startswith("ValueError: cannot restore")
        assert errors  # the v_n = 0 systems raise in both versions

    def test_transform(self):
        rng = random.Random(64)
        raised = 0
        for alphabet in ALPHABETS:
            for als in operands(rng, alphabet):
                n = als.n
                p, q = random_cells(rng, n, 0), random_cells(rng, n, 1)
                trans = AdmissibleTransformation(n, p, q)
                assert outcome(apply_transformation, als, trans) == outcome(
                    former_transform, als, p, q
                )
                if n:  # a cell on or below the diagonal is no admissible cell
                    i = rng.randrange(n)
                    (p if rng.random() < 0.5 else q)[i, rng.randrange(i + 1)] = Fraction(2)
                    with pytest.raises(ValueError, match="cell"):
                        AdmissibleTransformation(n, p, q)
                    raised += 1
        assert raised

    def test_build_als_appends(self):
        rng = random.Random(65)
        for alphabet in ALPHABETS:
            for _ in range(15):
                p = random_polynomial(rng, alphabet, 6, 3)
                words = sorted(p.support(), key=word_key)
                assert dump_als(build_als(p)) == dump_als(former_build_als(p, words))
                rng.shuffle(words)
                assert dump_als(build_als(p, insertion_order=words)) == dump_als(
                    former_build_als(p, words)
                )
                # the raw sums, before any minimization
                work, rows, rhs = _Work(alphabet), [], []
                for word in words:
                    work.add_monomial(word, p.coefficient(word))
                    block = former_monomial_block(word, p.coefficient(word), len(alphabet))
                    former_append_summand(rows, rhs, *block, len(alphabet))
                assert dump_als(work.freeze()) == dump_als(Als(alphabet, rows, rhs))
