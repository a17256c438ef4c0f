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
    Als,
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

from conftest import assert_bitwise_equal, block_unknowns, random_polynomial, zero_block_ops


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

    def test_split_needs_the_full_solve(self, ab_xy):
        # neither joint solve reaches the zero block at any position; the
        # full solve does at n1 = 2
        als = build_als(parse("6 - 4*x + 9*y^2 - 6*x*y^2", ab_xy))
        split = find_split(als)
        self.assert_certified(als, split)
        assert split.n1 == 2
        left, right = extract_factors(split)
        assert (str(left.polynomial()), str(right.polynomial())) == (
            "-3/2 + x",
            "-4 - 6*y^2",
        )

    def test_seeded_products(self, monkeypatch, ab_xy):
        # factor seeded products p*q; some of their splits are reached only
        # by the full solve, bilinear term included
        find = ncpoly.factorizer.find_split
        full = ncpoly.factorizer._full_split_ops
        splits, from_full_solve = [], []

        def recording_find(als):
            split = find(als)
            if split is not None:
                splits.append((als, split))
            return split

        def recording_full(als, unknowns):
            found = full(als, unknowns)
            if found[0] is not None:
                trans = AdmissibleTransformation(als.n, *found[0])
                from_full_solve.append((als, trans))
            return found

        monkeypatch.setattr(ncpoly.factorizer, "find_split", recording_find)
        monkeypatch.setattr(ncpoly.factorizer, "_full_split_ops", recording_full)
        rng = random.Random(3)
        for _ in range(150):
            p = random_polynomial(rng, ab_xy, max_terms=3, max_degree=2)
            q = random_polynomial(rng, ab_xy, max_terms=3, max_degree=2)
            if not (p * q).is_scalar:
                factor_atoms(p * q)
        for als, split in splits:
            self.assert_certified(als, split)
        hits = [(als, split.transformation) for als, split in splits]
        assert from_full_solve and all(hit in hits for hit in from_full_solve)

    def test_criterion_5_splits(self, monkeypatch):
        find = ncpoly.factorizer.find_split
        calls = []

        def recording(als):
            split = find(als)
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


def single_pass_ops(als, target_rows, target_cols, row_sources, col_sources):
    """Nonzero ops of one row's (or one column's) former pass, else ``None``.

    All pencil components are tried first, then the letter components
    alone, which leaves a scalar residue for the other side.
    """
    d = len(als.alphabet)
    for comps in (range(d + 1), range(1, d + 1)):
        found = zero_block_ops(
            als, target_rows, target_cols, row_sources, col_sources, comps
        )
        ops = found[0] or found[1] if found else None
        if ops:
            return ops
    return None


def add_rows(cells, i, ops):
    """Row i of I + cells gains x times row r for each op (i, r) -> x, in place.

    A column op composes as a row op on the transpose.  No op reads row i
    itself, so every source row is read before row i is written.
    """
    added = [(r, x) for (_, r), x in ops.items()]
    added += [(k, x * y) for r, x in added for (s, k), y in cells.items() if s == r]
    for k, x in added:
        cells[i, k] = cells.get((i, k), 0) + x


def former_partial_passes(als, n1, max_passes=3):
    """The former alternating per-row and per-column passes at position n1.

    Each pass zeroes the single rows, then the single columns, of the
    target block that are reachable on the current system, one validated
    ``Als`` per op; (P, Q) are composed op by op.
    """
    n = als.n
    current = als
    p_cells, qt_cells = {}, {}
    for _ in range(max_passes):
        changed = False
        for i in range(n1 - 1):
            alpha = single_pass_ops(current, [i], range(n1, n), range(1, n - 1), ())
            if alpha is None:
                continue
            trans = AdmissibleTransformation(n, alpha)
            current = apply_transformation(current, trans)
            add_rows(p_cells, i, alpha)
            changed = True
        for j in range(n1, n):
            beta = single_pass_ops(current, range(n1 - 1), [j], (), range(1, j))
            if beta is None:
                continue
            trans = AdmissibleTransformation(n, q=beta)
            current = apply_transformation(current, trans)
            add_rows(qt_cells, j, {(j, c): x for (c, _), x in beta.items()})
            changed = True
        if check_k_reducibility_pattern(current, n1 - 1, 1):
            q_cells = {(c, j): x for (j, c), x in qt_cells.items()}
            return current, AdmissibleTransformation(n, p_cells, q_cells)
        if not changed:
            return None
    return None


def former_find_split(als):
    """The former find_split: four one-shot solves, each re-checked, then passes."""
    n = als.n
    if n < 3:
        return None
    for n1 in range(2, n):
        for row_sources, col_sources in former_strategies(n, n1):
            found = zero_block_ops(
                als, range(n1 - 1), range(n1, n), row_sources, col_sources
            )
            if found is None:
                continue
            trans = AdmissibleTransformation(n, *found)
            transformed = apply_transformation(als, trans)
            if check_k_reducibility_pattern(transformed, n1 - 1, 1):
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
    """The search finds what the four-strategy ladder and the passes found."""

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
        # equal wherever the ladder hits; where it misses, the full solve may
        # hit, and such a split must be certified and multiply back
        outcomes, gained = set(), 0
        for poly in self.corpus():
            gained_here = False
            pending = [build_als(poly)]
            while pending:
                als = pending.pop()
                split = find_split(als)
                former = former_find_split(als)
                outcomes.add(split is not None)
                if split is None:
                    assert former is None
                    continue
                factors = extract_factors(split)
                if former is None:
                    gained_here = True
                    transformed = apply_transformation(als, split.transformation)
                    assert transformed == split.transformed
                else:
                    assert split.n1 == former.n1
                    assert [f.polynomial() for f in factors] == [
                        f.polynomial() for f in extract_factors(former)
                    ]
                assert all(is_minimal(f) for f in factors)
                pending.extend(f for f in factors if f.n >= 3)
            atoms, former_atoms = factor_atoms(poly), former_factor_atoms(poly)
            assert product_of(atoms) == poly and len(atoms) >= len(former_atoms)
            if not gained_here:
                assert atoms == former_atoms
            gained += gained_here
        assert outcomes == {True, False} and gained

    def test_joint_solves_subsume_the_narrow_ones(self):
        solved = {"rows": 0, "cols": 0}
        for poly in self.corpus():
            als = build_als(poly)
            n = als.n
            for n1 in range(2, n):
                hits = [
                    zero_block_ops(als, range(n1 - 1), range(n1, n), rows, cols)
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

    def test_shuffled_representatives_split_iff_atoms_do(
        self, ab_xyz, triple_product_als
    ):
        cases = [
            parse("x - x*y*x", ab_xyz),
            parse("x*y*z", ab_xyz),
            parse("(x*y+1)*(z*x-3)", ab_xyz),
            triple_product_als.polynomial(),
            parse("x*y + y*x", ab_xyz),
        ]
        rng = random.Random(0)
        for p in cases:
            atoms = factor_atoms(p)
            assert product_of(atoms) == p
            words = sorted(p.support())
            for _ in range(10):
                rng.shuffle(words)
                split = find_split(build_als(p, insertion_order=list(words)))
                assert (split is not None) == (len(atoms) > 1)


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


def seeded_xy_products(count):
    """Products of 2-3 seeded affine factors, all over the letters x and y."""
    ab = Alphabet(("x", "y"))
    rng = random.Random(5)
    coefficients = (-3, -2, -1, 0, 0, 1, 2, 3)
    for _ in range(count):
        product = NcPolynomial.one(ab)
        for _ in range(rng.choice((2, 3))):
            terms = {(0,): Fraction(rng.choice((-2, -1, 1, 2)))}
            for word in ((), (1,)):
                terms[word] = Fraction(rng.choice(coefficients))
            product = product * NcPolynomial(ab, terms)
        yield product


def retries_searching_repeats(als):
    """The retry loop as it was before repeated systems were skipped."""
    fz = ncpoly.factorizer
    split = fz.find_split(als)
    if split is not None or als.n > fz._RETRY_LIMIT_DIM or not fz._capped(als):
        return split
    poly = als.polynomial()
    words = sorted(poly.support())
    local = random.Random(0x5EED)
    for _ in range(5):
        local.shuffle(words)
        candidate = build_als(poly, insertion_order=list(words))
        split = fz.find_split(candidate)
        if split is not None:
            return split
    return None


def retries_after_every_miss(als):
    """The retry loop as it was before an uncapped miss was taken as final."""
    fz = ncpoly.factorizer
    split = fz.find_split(als)
    if split is not None or als.n > fz._RETRY_LIMIT_DIM:
        return split
    poly = als.polynomial()
    words = sorted(poly.support())
    local = random.Random(0x5EED)
    searched = {als}
    for _ in range(5):
        local.shuffle(words)
        candidate = build_als(poly, insertion_order=list(words))
        if candidate not in searched:
            searched.add(candidate)
            split = fz.find_split(candidate)
            if split is not None:
                return split
    return None


def seeded_random_products(seed, letters, count, max_terms=4, max_degree=3):
    """Products of two seeded ``random_polynomial`` factors."""
    ab = Alphabet(tuple(letters))
    rng = random.Random(seed)
    for _ in range(count):
        p = random_polynomial(rng, ab, max_terms, max_degree)
        q = random_polynomial(rng, ab, max_terms, max_degree)
        if not (p * q).is_scalar:
            yield p * q


class TestRetrySearchesEachSystemOnce:
    """Rebuilds run only after a capped miss, and search each system once.

    Neither skipping the rebuilds after an uncapped miss nor skipping
    systems already searched in a retry changes an atom.
    """

    def searches(self, monkeypatch, retry, polys):
        """Atoms of each polynomial, and the systems each retry searched."""
        fz = ncpoly.factorizer
        find = fz.find_split
        per_retry = []

        def recording_find(als):
            per_retry[-1].append(als)
            return find(als)

        def recording_retry(als):
            per_retry.append([])
            return retry(als)

        with monkeypatch.context() as patch:
            patch.setattr(fz, "find_split", recording_find)
            patch.setattr(fz, "_split_with_retries", recording_retry)
            atoms = [factor_atoms(p) for p in polys]
        return atoms, per_retry

    def capped_corpus(self):
        # products of these factors leave free parameters at some positions
        return [
            poly
            for seed, letters in ((41, "x"), (42, "xy"))
            for poly in seeded_random_products(seed, letters, 25)
        ]

    def test_same_atoms_and_no_repeated_search(self, monkeypatch):
        polys = self.capped_corpus()
        atoms, searched = self.searches(
            monkeypatch, ncpoly.factorizer._split_with_retries, polys
        )
        reference, reference_searched = self.searches(
            monkeypatch, retries_searching_repeats, polys
        )
        assert atoms == reference
        for systems in searched:
            assert len(set(systems)) == len(systems)
        repeats = sum(len(s) - len(set(s)) for s in reference_searched)
        assert repeats > 0  # the corpus does rebuild equal systems
        calls = sum(map(len, searched))
        assert calls + repeats == sum(map(len, reference_searched))

    def test_no_rebuild_after_an_uncapped_miss(self, monkeypatch):
        polys = list(seeded_affine_products(150)) + list(seeded_xy_products(40))
        polys += self.capped_corpus()
        atoms, searched = self.searches(
            monkeypatch, ncpoly.factorizer._split_with_retries, polys
        )
        reference, reference_searched = self.searches(
            monkeypatch, retries_after_every_miss, polys
        )
        assert atoms == reference
        rebuilt = sum(len(s) - 1 for s in searched)
        assert 0 < rebuilt < sum(len(s) - 1 for s in reference_searched)


def factor_atoms_through_extract(p):
    """factor_atoms as it was: each split through extract_factors, and one
    polynomial per atom system at the end."""
    fz = ncpoly.factorizer

    def atoms(als):
        split = fz._split_with_retries(als) if als.n >= 3 else None
        if split is None:
            return [als]
        left, right = extract_factors(split)
        return atoms(left) + atoms(right)

    return [als.polynomial() for als in atoms(build_als(p))]


class TestFactorPolynomialsOnce:
    """factor_atoms computes each factor's polynomial once and checks it
    against its parent's, the polynomial from before the transformation."""

    def corpus(self):
        yield from seeded_affine_products(60)
        yield from seeded_xy_products(60)

    def test_same_atoms_as_through_extract_factors(self):
        lengths = set()
        for poly in self.corpus():
            atoms = factor_atoms(poly)
            assert atoms == factor_atoms_through_extract(poly)
            lengths.add(len(atoms))
        assert lengths == {2, 3}

    def test_two_polynomials_per_split(self, monkeypatch):
        fz = ncpoly.factorizer
        calls = []
        polynomial = Als.polynomial

        def counted(als):
            calls.append(als)
            return polynomial(als)

        monkeypatch.setattr(Als, "polynomial", counted)
        monkeypatch.setattr(fz, "_split_with_retries", fz.find_split)
        for poly in self.corpus():
            calls.clear()
            atoms = factor_atoms(poly)
            assert len(calls) == 2 * (len(atoms) - 1)

    @pytest.mark.parametrize(
        "text", ["x*y*z", "(x*y+1)*(z*x-3)", "(1+x+y)*(2+x-y)"]
    )
    def test_perturbed_transformation_raises(self, ab_xyz, monkeypatch, text):
        # cell (n-2, n-1) lies outside every split's zero block, so the split
        # stays certified and only the product check can see the change
        apply = ncpoly.factorizer.apply_transformation

        def perturbed(als, trans):
            out = apply(als, trans)
            rows = [list(row) for row in out.rows]
            rows[-2][-1] = rows[-2][-1].add_constant(1)
            return Als(out.alphabet, rows, out.rhs)

        monkeypatch.setattr(ncpoly.factorizer, "apply_transformation", perturbed)
        als = build_als(parse(text, ab_xyz))
        # the check of extract_factors compares with the transformed system
        extract_factors(find_split(als))
        with pytest.raises(RuntimeError, match="do not multiply back"):
            factor_atoms(als.polynomial())


def linear_search(als):
    """find_split before the full solve: the joint solves, then the former
    passes; and the stage that hit ("joint" or "passes"), else ``None``."""
    n = als.n
    if n < 3:
        return None, None
    for n1 in range(2, n):
        for rows, cols in (
            (range(n1 - 1, n - 1), range(1, n1 - 1)),
            (range(n1, n - 1), range(1, n1)),
        ):
            found = zero_block_ops(als, range(n1 - 1), range(n1, n), rows, cols)
            if found is not None:
                return ncpoly.factorizer._certified(als, n1, found), "joint"
        partial = former_partial_passes(als, n1)
        if partial is not None:
            return FactorSplit(partial[0], n1, n + 1 - n1, partial[1]), "passes"
    return None, None


def passes_find_split(als):
    """find_split with the former passes: the linear search, then the full
    solve at every position; and the stage that hit."""
    split, stage = linear_search(als)
    if split is not None:
        return split, stage
    for n1 in range(2, als.n):
        found = ncpoly.factorizer._full_split_ops(
            als, ncpoly.factorizer._split_unknowns(als, n1)
        )[0]
        if found is not None:
            return ncpoly.factorizer._certified(als, n1, found), "full"
    return None, None


def linear_factor_atoms(p):
    """factor_atoms before the full solve, which rebuilt the system after every
    miss; and whether some rebuild rescued a split."""
    rescued = []

    def split_with_retries(als):
        split = linear_search(als)[0]
        if split is not None or als.n > ncpoly.factorizer._RETRY_LIMIT_DIM:
            return split
        poly = als.polynomial()
        words = sorted(poly.support())
        local = random.Random(0x5EED)
        searched = {als}
        for _ in range(5):
            local.shuffle(words)
            candidate = build_als(poly, insertion_order=list(words))
            if candidate not in searched:
                searched.add(candidate)
                split = linear_search(candidate)[0]
                if split is not None:
                    rescued.append(candidate)
                    return split
        return None

    def atoms(als):
        split = split_with_retries(als) if als.n >= 3 else None
        if split is None:
            return [als]
        left, right = extract_factors(split)
        return atoms(left) + atoms(right)

    return [als.polynomial() for als in atoms(build_als(p))], bool(rescued)


class TestFullSolveLosesNoSplit:
    """Against the search without the full solve, on seeded products: no
    atom count drops.  Against the search with the former passes: equal
    splits wherever it hits through a joint solve or the full solve, and
    the same position and factors wherever it hits through the passes."""

    def corpus(self):
        yield from seeded_affine_products(60)
        yield from seeded_xy_products(60)
        for seed, letters in ((51, "x"), (52, "xy"), (53, "xyz")):
            yield from seeded_random_products(seed, letters, 40, 3, 2)

    def test_never_fewer_atoms(self):
        gained = rescued = from_passes = 0
        for poly in self.corpus():
            atoms = factor_atoms(poly)
            former, former_rescued = linear_factor_atoms(poly)
            assert product_of(atoms) == poly and len(atoms) >= len(former)
            if len(atoms) == len(former) and not former_rescued:
                assert atoms == former
            gained += len(atoms) > len(former)
            rescued += former_rescued
            pending = [build_als(poly)]
            while pending:
                als = pending.pop()
                split = find_split(als)
                reference, stage = passes_find_split(als)
                if stage == "passes":
                    from_passes += 1
                    assert split is not None and split.n1 == reference.n1
                    assert [f.polynomial() for f in extract_factors(split)] == [
                        f.polynomial() for f in extract_factors(reference)
                    ]
                else:
                    assert split == reference
                if split is not None:
                    pending.extend(f for f in extract_factors(split) if f.n >= 3)
        assert gained and rescued and from_passes


class TestFullSolve:
    """Splits that need the bilinear term: one quadratic in one parameter."""

    @pytest.mark.parametrize(
        "text, letters",
        [("(1-2*x)*(-2-3*x)", "x"), ("(1+x+y)*(2+x-y)", "xy"), ("x*x - 1", "x")],
    )
    def test_shared_letter_products_split(self, text, letters):
        p = parse(text, Alphabet(tuple(letters)))
        als = build_als(p)
        assert linear_search(als)[0] is None
        atoms = factor_atoms(p)
        assert len(atoms) == 2 and product_of(atoms) == p

    def test_worked_roots(self):
        # build_als((1-2x)(-2-3x)) is [[1, -x, 1/3 - x/6], [., 1, -x], [., ., 1]];
        # P cell (0, 1) = a and Q cell (1, 2) = e zero cell (0, 2) where
        # a = -e - 1/6 and 6e^2 + e - 2 = 0, so e = 1/2 or e = -2/3
        ab = Alphabet(("x",))
        als = build_als(parse("(1-2*x)*(-2-3*x)", ab))
        roots = (Fraction(1, 2), Fraction(-2, 3))
        transformations = [
            AdmissibleTransformation(3, {(0, 1): -e - Fraction(1, 6)}, {(1, 2): e})
            for e in roots
        ]
        for trans in transformations:
            FactorSplit(apply_transformation(als, trans), 2, 2, trans)
        split = find_split(als)
        assert dict(split.transformation.q)[1, 2] in roots
        assert split.transformation in transformations

    def test_two_parameters_are_capped(self):
        # (x-1)(x-2)(x-3): the letter equations leave two or more free
        # parameters at every position, so only the rebuilds are tried
        fz = ncpoly.factorizer
        p = parse("(x-1)*(x-2)*(x-3)", Alphabet(("x",)))
        als = build_als(p)
        found = [fz._full_split_ops(als, fz._split_unknowns(als, n1)) for n1 in (2, 3)]
        assert found == [(None, True)] * 2
        assert fz._capped(als) and find_split(als) is None
        assert factor_atoms(p) == [p]


def three_builds_unknowns(als, n1):
    """The full solve's unknowns as the search built them with three sets per
    position: the general builder over the union of the joint solves'
    sources."""
    n = als.n
    return block_unknowns(als, range(n1 - 1), range(n1, n), range(n1 - 1, n - 1), range(1, n1))


def three_builds_find_split(als):
    """find_split as it was with three sets of unknowns per position: each
    joint solve over its own sources, then the full solve over their union;
    and the stage that hit ("joint" or "full"), else ``None``."""
    fz = ncpoly.factorizer
    n = als.n
    for n1 in range(2, n):
        for rows, cols in (
            (range(n1 - 1, n - 1), range(1, n1 - 1)),  # split row as a row source
            (range(n1, n - 1), range(1, n1)),  # split row as a column source
        ):
            found = zero_block_ops(als, range(n1 - 1), range(n1, n), rows, cols)
            if found is not None:
                return fz._certified(als, n1, found), "joint"
    for n1 in range(2, n):
        found = fz._full_split_ops(als, three_builds_unknowns(als, n1))[0]
        if found is not None:
            return fz._certified(als, n1, found), "full"
    return None, None


class TestOneSetOfUnknownsPerPosition:
    """The joint solves are the full split equations with one side of the
    split row held at 0: find_split returns what the search with three sets
    of unknowns per position returned, and builds each position's once."""

    def corpus(self):
        yield from seeded_affine_products(60)
        yield from seeded_xy_products(60)
        for text, letters in (
            ("(1-2*x)*(-2-3*x)", "x"),
            ("(1+x+y)*(2+x-y)", "xy"),
            ("x*x - 1", "x"),
            ("(x-1)*(x-2)*(x-3)", "x"),
            ("x*y + y*x", "xy"),
        ):
            yield parse(text, Alphabet(tuple(letters)))

    def test_same_splits_and_one_build_per_position(self, monkeypatch):
        fz = ncpoly.factorizer
        split_unknowns = fz._split_unknowns
        built = []

        def recording(als, n1):
            built.append(n1)
            return split_unknowns(als, n1)

        monkeypatch.setattr(fz, "_split_unknowns", recording)
        stages = {"joint": 0, "full": 0, None: 0}
        for poly in self.corpus():
            pending = [build_als(poly)]
            while pending:
                als = pending.pop()
                built.clear()
                split = find_split(als)
                reference, stage = three_builds_find_split(als)
                assert split == reference
                stages[stage] += 1
                reached = split.n1 if stage == "joint" else als.n - 1
                assert built == list(range(2, reached + 1))
                for n1 in built:
                    assert split_unknowns(als, n1) == three_builds_unknowns(als, n1)
                if split is not None:
                    pending.extend(f for f in extract_factors(split) if f.n >= 3)
        assert all(stages.values())


# sha256 of the atoms below, recorded when they were last changed
PINNED_ATOMS = "3cc2287325b16fc28ef24b74e906c44686f4ff8ebaa5cfe4d0b7389a58f8d971"


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
        assert again == bench19_chain and hash(again) == hash(bench19_chain)
        assert again.alphabet == bench19_chain.alphabet
        assert again.factors == bench19_chain.factors

    def test_value_equality(self, ab_xy, ab_xyz):
        cells = [[["x", "y"]], [["y"], ["x"]]]
        bf = BlockFactorization.from_cells(ab_xy, cells)
        assert bf == BlockFactorization.from_cells(ab_xy, cells)
        assert len({bf, BlockFactorization.from_cells(ab_xy, cells)}) == 1
        assert bf != BlockFactorization.from_cells(ab_xyz, cells)
        assert bf != BlockFactorization.from_cells(ab_xy, [[["x", "y"]], [["x"], ["y"]]])
        assert bf != bf.factors

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
