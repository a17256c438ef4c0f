"""Split search, atom factorization, block chains, reducibility patterns."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

import ncpoly.factorizer
from ncpoly import (
    AdmissibleTransformation,
    Alphabet,
    BlockFactorization,
    NcPolynomial,
    apply_transformation,
    build_als,
    check_k_reducibility_pattern,
    dump_factors,
    evaluate_block_factorization,
    evaluate_left,
    evaluate_right,
    extract_factors,
    factor_atoms,
    find_split,
    is_minimal,
    load_factors,
    minimal_monomial,
    minimize,
    naive_evaluate,
    parse,
    random_rational_tuple,
    verify_block_factorization,
)
from ncpoly.errors import FormatError
from ncpoly.factorizer import FactorSplit
from ncpoly.realization import _transform

from conftest import assert_bitwise_equal, dense_unitriangular, matmul, random_polynomial


def product_of(polys):
    result = polys[0]
    for p in polys[1:]:
        result = result * p
    return result


class TestFindSplit:
    def test_triple_product_needs_row_and_column_ops(self, triple_product_als):
        split = find_split(triple_product_als)
        assert split is not None
        assert (split.n1, split.n2) == (3, 3)
        left, right = extract_factors(split)
        assert left.polynomial() == parse("b + a*e", triple_product_als.alphabet)
        assert right.polynomial() == parse(
            "2*x*c - x*d", triple_product_als.alphabet
        )

    def test_triple_product_transformation_is_polynomial(self, triple_product_als):
        split = find_split(triple_product_als)
        trans = split.transformation
        # the one-shot solve recovers exactly "add row 4 to row 2, subtract
        # column 2 from column 4": P keeps its last column e_n, Q its first
        # row e1 (unitriangular by construction)
        assert trans.n == triple_product_als.n
        assert trans.p == (((1, 3), 1),) and trans.q == (((1, 3), -1),)
        assert split.transformed.polynomial() == triple_product_als.polynomial()
        tup = random_rational_tuple(random.Random(0), 6, 2)
        assert np.array_equal(
            evaluate_left(split.transformed, tup).result,
            evaluate_left(triple_product_als, tup).result,
        )

    def test_product_block_is_already_zero(self, ab_xyz):
        reduced = build_als(parse("(x*y+1)*(z*x-3)", ab_xyz))
        split = find_split(reduced)
        assert split is not None
        left, right = extract_factors(split)
        assert left.polynomial() * right.polynomial() == reduced.polynomial()

    def test_anticommutator_has_no_split(self, anticommutator_als):
        assert find_split(anticommutator_als) is None

    def test_small_systems_have_no_split(self, ab_xy):
        assert find_split(minimal_monomial(ab_xy, (0,))) is None

    def test_rejects_non_minimal_input(self, seven_dim_remark):
        with pytest.raises(ValueError):
            find_split(seven_dim_remark)

    def test_rejects_bad_order(self, triple_product_als):
        with pytest.raises(ValueError):
            find_split(triple_product_als, order=[2, 2, 3])

    def test_custom_order(self, triple_product_als):
        split = find_split(triple_product_als, order=[4, 3, 2])
        assert split is not None

    def test_certificate_is_validated(self, intro_als):
        with pytest.raises(ValueError):  # (1,4) entry is -x, not zero
            FactorSplit(intro_als, 3, 2, AdmissibleTransformation(4))
        split = find_split(build_als(parse("x*y*x", intro_als.alphabet)))
        FactorSplit(split.transformed, split.n1, split.n2, split.transformation)
        for n in (3, 5):  # a zero-block system, a transformation of another size
            with pytest.raises(ValueError, match="size"):
                FactorSplit(
                    split.transformed, split.n1, split.n2, AdmissibleTransformation(n)
                )
        n = split.transformed.n
        for n1 in (0, 1, n, n + 1):  # positions outside 2..n-1; n1 + n2 = n + 1
            with pytest.raises(ValueError, match="position"):
                FactorSplit(
                    split.transformed, n1, n + 1 - n1, AdmissibleTransformation(n)
                )


class TestSplitTransformation:
    """A split's (P, Q) applied to its input gives exactly its transformed system."""

    def assert_certified(self, als, split):
        assert split is not None
        assert apply_transformation(als, split.transformation) == split.transformed

    def test_triple_product_and_intro(self, triple_product_als, intro_als, ab_xy):
        self.assert_certified(triple_product_als, find_split(triple_product_als))
        intro = build_als(parse("x - x*y*x", ab_xy))
        self.assert_certified(intro, find_split(intro))

    def test_partial_passes(self, ab_xy):
        # no one-shot strategy reaches the zero block here; the alternating
        # per-row/per-column passes compose several transformations
        als = build_als(parse("6 - 4*x + 9*y^2 - 6*x*y^2", ab_xy))
        split = find_split(als)
        self.assert_certified(als, split)
        partial = ncpoly.factorizer._partial_passes(als, split.n1)
        assert partial == (split.transformed, split.transformation)

    def test_ops_compose_like_dense_products(self):
        # _partial_passes composes each row op into P's cells, and each
        # column op into the cells of Q's transpose, as (I + op) @ matrix
        rng = random.Random(12)
        for n in range(2, 8):
            for lower in (False, True):  # P's cells, or those of Q transposed
                pairs = [
                    (i, j) for i in range(n) for j in range(n) if i != j and (i > j) == lower
                ]
                cells = {
                    cell: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for cell in pairs
                    if rng.random() < 0.5
                }
                dense = dense_unitriangular(n, cells.items())
                for _ in range(3):
                    i = rng.randrange(n)
                    ops = {
                        (i, r): Fraction(rng.randint(1, 4))
                        for a, r in pairs
                        if a == i and rng.random() < 0.7
                    }
                    ncpoly.factorizer._add_rows(cells, i, ops)
                    dense = matmul(dense_unitriangular(n, ops.items()), dense)
                    assert dense_unitriangular(n, cells.items()) == dense

    def test_seeded_products(self, monkeypatch, ab_xy):
        # factor seeded products p*q; a few of their splits are reached only
        # by the alternating passes, whose (P, Q) are composed op by op
        find = ncpoly.factorizer.find_split
        passes = ncpoly.factorizer._partial_passes
        splits, from_passes = [], []

        def recording_find(als, order=None):
            split = find(als, order)
            if split is not None:
                splits.append((als, split))
            return split

        def recording_passes(als, n1):
            found = passes(als, n1)
            if found is not None:
                from_passes.append(found)
            return found

        monkeypatch.setattr(ncpoly.factorizer, "find_split", recording_find)
        monkeypatch.setattr(ncpoly.factorizer, "_partial_passes", recording_passes)
        rng = random.Random(3)
        for _ in range(150):
            p = random_polynomial(rng, ab_xy, max_terms=3, max_degree=2)
            q = random_polynomial(rng, ab_xy, max_terms=3, max_degree=2)
            if not (p * q).is_scalar:
                factor_atoms(p * q)
        for als, split in splits:
            self.assert_certified(als, split)
        assert from_passes

    def test_criterion_5_splits(self, monkeypatch):
        find = ncpoly.factorizer.find_split
        calls = []

        def recording(als, order=None):
            split = find(als, order)
            calls.append((als, split))
            return split

        monkeypatch.setattr(ncpoly.factorizer, "find_split", recording)
        ab = Alphabet(("x", "y", "z"))
        triple_ab = Alphabet(("a", "b", "c", "d", "e", "x"))
        for text, alphabet in (
            ("x - x*y*x", ab),
            ("x*y*z", ab),
            ("2aexc + 2bxc - aexd - bxd", triple_ab),
            ("x*y + y*x", ab),
        ):
            factor_atoms(parse(text, alphabet))
        hits = [(als, split) for als, split in calls if split is not None]
        assert len(hits) == 5  # one split fewer than atoms: 1 + 2 + 2 + 0
        for als, split in hits:
            self.assert_certified(als, split)


def former_strategies(n, n1):
    """The former split ladder: rows-only, columns-only, joint row, joint column."""
    return (
        (range(1, n - 1), ()),
        ((), range(1, n1)),
        (range(n1 - 1, n - 1), range(1, n1 - 1)),
        (range(n1, n - 1), range(1, n1)),
    )


def former_partial_passes(als, n1, max_passes=3):
    """The former passes: one validated ``Als`` per row or column op."""
    fz = ncpoly.factorizer
    n = als.n
    current = als
    p_cells, qt_cells = {}, {}
    for _ in range(max_passes):
        changed = False
        for i in range(n1 - 1):
            alpha = fz._single_pass_ops(current, [i], range(n1, n), range(1, n - 1), ())
            if alpha is None:
                continue
            current = _transform(current, alpha, {})
            fz._add_rows(p_cells, i, alpha)
            changed = True
        for j in range(n1, n):
            beta = fz._single_pass_ops(current, range(n1 - 1), [j], (), range(1, j))
            if beta is None:
                continue
            current = _transform(current, {}, beta)
            fz._add_rows(qt_cells, j, {(j, c): x for (c, _), x in beta.items()})
            changed = True
        if fz._block_is_zero(current, n1):
            q_cells = {(c, j): x for (j, c), x in qt_cells.items()}
            return current, AdmissibleTransformation(n, p_cells, q_cells)
        if not changed:
            return None
    return None


def former_find_split(als, order=None):
    """The former find_split: four one-shot solves, each re-checked, then passes."""
    n = als.n
    if n < 3:
        return None
    comps = range(len(als.alphabet) + 1)
    for n1 in order or range(2, n):
        for row_sources, col_sources in former_strategies(n, n1):
            found = ncpoly.factorizer._zero_block_ops(
                als, range(n1 - 1), range(n1, n), comps, row_sources, col_sources
            )
            if found is None:
                continue
            trans = AdmissibleTransformation(n, *found)
            transformed = apply_transformation(als, trans)
            if ncpoly.factorizer._block_is_zero(transformed, n1):
                return FactorSplit(transformed, n1, n + 1 - n1, trans)
        partial = former_partial_passes(als, n1)
        if partial is not None:
            return FactorSplit(partial[0], n1, n + 1 - n1, partial[1])
    return None


def former_factor_atoms(p):
    """The former recursion: the former search, and each factor re-minimized."""

    def atoms(als):
        if als.n < 3:
            return [als]
        split = former_find_split(als)
        if split is None and als.n <= ncpoly.factorizer._RETRY_LIMIT_DIM:
            words = sorted(als.polynomial().support())
            local = random.Random(0x5EED)
            for _ in range(5):
                local.shuffle(words)
                candidate = build_als(als.polynomial(), insertion_order=list(words))
                split = former_find_split(candidate)
                if split is not None:
                    break
        if split is None:
            return [als]
        left, right = extract_factors(split)
        return atoms(minimize(left)) + atoms(minimize(right))

    return [als.polynomial() for als in atoms(build_als(p))]


class TestSplitSearchMatchesFormerLadder:
    """The two joint solves and the passes find what the four-strategy ladder found."""

    def corpus(self):
        for seed, letters in ((7, "xy"), (8, "xyz")):
            ab = Alphabet(tuple(letters))
            rng = random.Random(seed)
            for index in range(40):
                p = random_polynomial(rng, ab, max_terms=3, max_degree=2)
                q = random_polynomial(rng, ab, max_terms=3, max_degree=2)
                poly = p * q if index % 4 else p + q
                if not poly.is_scalar:
                    yield poly

    def test_same_splits_factors_and_atoms(self):
        outcomes = set()
        for poly in self.corpus():
            pending = [build_als(poly)]
            while pending:
                als = pending.pop()
                for order in (None, list(range(als.n - 1, 1, -1))):
                    split = find_split(als, order)
                    former = former_find_split(als, order)
                    outcomes.add(split is not None)
                    assert (split is None) == (former is None)
                    if split is None:
                        continue
                    assert split.n1 == former.n1
                    factors = extract_factors(split)
                    assert [f.polynomial() for f in factors] == [
                        f.polynomial() for f in extract_factors(former)
                    ]
                    assert all(is_minimal(f) for f in factors)
                    if order is None:
                        pending.extend(f for f in factors if f.n >= 3)
            assert factor_atoms(poly) == former_factor_atoms(poly)
        assert outcomes == {True, False}

    def test_joint_solves_subsume_the_narrow_ones(self):
        solved = {"rows": 0, "cols": 0}
        for poly in self.corpus():
            als = build_als(poly)
            n = als.n
            comps = range(len(als.alphabet) + 1)
            for n1 in range(2, n):
                hits = [
                    ncpoly.factorizer._zero_block_ops(
                        als, range(n1 - 1), range(n1, n), comps, rows, cols
                    )
                    is not None
                    for rows, cols in former_strategies(n, n1)
                ]
                rows_only, cols_only, joint_row, joint_col = hits
                assert joint_row or not rows_only
                assert joint_col or not cols_only
                solved["rows"] += rows_only
                solved["cols"] += cols_only
        assert solved["rows"] and solved["cols"]


class TestExtractFactors:
    def test_intro_polynomial_two_atoms(self, ab_xy):
        als = build_als(parse("x - x*y*x", ab_xy))
        split = find_split(als)
        left, right = extract_factors(split)
        assert left.polynomial() * right.polynomial() == parse("x - x*y*x", ab_xy)
        assert left.n == split.n1 and right.n == split.n2


class TestFactorAtoms:
    def test_intro_polynomial(self, ab_xy):
        p = parse("x - x*y*x", ab_xy)
        atoms = factor_atoms(p)
        assert len(atoms) == 2
        assert product_of(atoms) == p

    def test_monomial_splits_into_letters(self, ab_xyz):
        atoms = factor_atoms(parse("x*y*z", ab_xyz))
        assert [str(a) for a in atoms] == ["x", "y", "z"]

    def test_triple_product_three_atoms(self, triple_product_als):
        p = triple_product_als.polynomial()
        atoms = factor_atoms(p)
        assert len(atoms) == 3
        assert product_of(atoms) == p
        assert [str(a) for a in atoms] == ["b + a*e", "x", "2*c - d"]

    def test_anticommutator_is_atomic(self, ab_xy):
        p = parse("x*y + y*x", ab_xy)
        assert factor_atoms(p) == [p]

    def test_rejects_scalars(self, ab_xy):
        with pytest.raises(ValueError):
            factor_atoms(parse("0", ab_xy))
        with pytest.raises(ValueError):
            factor_atoms(parse("5", ab_xy))

    def test_atom_count_invariant_under_split_order(self, ab_xyz, triple_product_als):
        cases = [
            parse("x - x*y*x", ab_xyz),
            parse("x*y*z", ab_xyz),
            parse("(x*y+1)*(z*x-3)", ab_xyz),
            triple_product_als.polynomial(),
        ]
        for p in cases:
            reference = len(factor_atoms(p))
            for seed in range(10):
                atoms = factor_atoms(p, random.Random(seed))
                assert len(atoms) == reference
                assert product_of(atoms) == p


def seeded_affine_products(count):
    """Products of 2-3 seeded affine factors over six letters.

    Most factors use their own letter pair; every fourth product reuses
    one pair for all its factors, which the linear strategies often miss,
    so the rebuild-and-retry path runs too.
    """
    ab = Alphabet(("a", "b", "c", "d", "e", "f"))
    rng = random.Random(31)
    nonzero = (-3, -2, -1, 1, 2, 3)
    for index in range(count):
        letters = rng.sample(range(6), 6)
        product = NcPolynomial.one(ab)
        for f in range(rng.choice((2, 2, 3))):
            u, v = letters[0:2] if index % 4 == 3 else letters[2 * f : 2 * f + 2]
            terms = {(u,): Fraction(rng.choice(nonzero))}
            for word in ((), (v,)):
                if rng.random() < 0.6:
                    terms[word] = Fraction(rng.choice(nonzero))
            product = product * NcPolynomial(ab, terms)
        yield product


# sha256 of the atoms below, recorded when they were last changed
PINNED_ATOMS = "e85b8a20ee5208c4ecdfb0e037bc36a426fee5fbefe2107f9d8fb2dbaebde362"


def test_factor_atoms_are_pinned():
    """factor_atoms returns the same atoms as before, printed the same way.

    A change to the split search, the minimizer or the transformations
    that alters any atom must update the hash and say so.
    """
    ab = Alphabet(("x", "y", "z"))
    triple_ab = Alphabet(("a", "b", "c", "d", "e", "x"))
    polys = [
        parse(text, alphabet)
        for text, alphabet in (
            ("x - x*y*x", ab),
            ("x*y*z", ab),
            ("2aexc + 2bxc - aexd - bxd", triple_ab),
            ("x*y + y*x", ab),
        )
    ]
    polys.extend(seeded_affine_products(40))
    parts = [" | ".join(str(a) for a in factor_atoms(p)) for p in polys]
    digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
    assert digest == PINNED_ATOMS, digest


class TestReducibilityPattern:
    def test_monomial_staircase(self, ab_xy):
        als = minimal_monomial(ab_xy, (0, 1))
        assert check_k_reducibility_pattern(als, 1, 1)

    def test_anticommutator_is_two_reducible(self, anticommutator_als):
        assert check_k_reducibility_pattern(anticommutator_als, 1, 2)
        assert not check_k_reducibility_pattern(anticommutator_als, 1, 1)

    def test_bench19_block_chain_pattern(self, bench19_chain):
        block_als = bench19_chain.to_block_als()
        assert check_k_reducibility_pattern(block_als, 9, 2)

    def test_index_errors(self, anticommutator_als):
        with pytest.raises(IndexError):
            check_k_reducibility_pattern(anticommutator_als, 0, 1)
        with pytest.raises(IndexError):
            check_k_reducibility_pattern(anticommutator_als, 3, 1)
        with pytest.raises(IndexError):
            check_k_reducibility_pattern(anticommutator_als, 1, 3)


class TestFactorSerialization:
    def test_round_trip(self, bench19_chain):
        text = dump_factors(bench19_chain)
        again = load_factors(text)
        assert again.alphabet == bench19_chain.alphabet
        assert again.factors == bench19_chain.factors

    def test_rejects_garbage(self, ab_xy):
        with pytest.raises(FormatError):
            load_factors("nope\n")
        bf = BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["y"], ["x"]]])
        for tail in ("junk\n", "factor 9 9\njunk\n"):
            with pytest.raises(FormatError, match="after the last factor"):
                load_factors(dump_factors(bf) + tail)

    def test_rejects_truncated_factor(self, ab_xy):
        bf = BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["y"], ["x"]]])
        text = dump_factors(bf)
        with pytest.raises(FormatError):
            load_factors("\n".join(text.splitlines()[:-1]))
        with pytest.raises(FormatError):
            load_factors(text.replace("factor 2 1", "factor 0 1", 1))

    def test_rejects_wrong_header_keys(self):
        text = "ncpoly-factors 1\nfoo x,y\nbar 1\nfactor 1 1\n0/1 1/1 0/1\n"
        with pytest.raises(FormatError):
            load_factors(text)
        good = text.replace("foo", "alphabet").replace("bar", "count")
        assert len(load_factors(good).factors) == 1

    def test_rejects_broken_chain_payload(self, ab_xy):
        bf = BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["y"], ["x"]]])
        text = dump_factors(bf).replace("factor 2 1", "factor 1 1", 1)
        with pytest.raises(FormatError):
            load_factors(text)


class TestVerifyBlockFactorization:
    def test_alphabet_mismatch(self, ab_xy, ab_xyz):
        bf = BlockFactorization.from_cells(ab_xy, [[["x"]]])
        with pytest.raises(ValueError):
            verify_block_factorization(bf, parse("x", ab_xyz))

    def test_verified_chain_evaluates_to_polynomial(self, ab_xy):
        bf = BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["y"], ["x"]]])
        p = parse("x*y + y*x", ab_xy)
        assert verify_block_factorization(bf, p)
        tup = random_rational_tuple(random.Random(1), 2, 3)
        block_als = bf.to_block_als()
        assert np.array_equal(
            evaluate_left(block_als, tup).result, naive_evaluate(p, tup.mats)
        )
        for mats in (tup, tup.to_float()):
            chain = evaluate_block_factorization(bf, mats)
            right = evaluate_right(block_als, mats)
            assert chain.mult_count == right.mult_count == 2
            assert_bitwise_equal(chain.result, right.result)
