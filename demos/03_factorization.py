"""Factoring polynomials by pushing zero blocks into minimal systems.

A minimal system represents a product exactly when some admissible
transformation creates an upper-right zero block; the two factors can then
be read off the diagonal blocks.  The search first tries linear
(non-overlapping) row/column solves, then the full equations at each split
position, whose one bilinear term turns the constant equations into
quadratics in at most one free parameter.  Positions with more free
parameters are not searched, so a miss is "no split found", never a proof
of irreducibility.
"""

from ncpoly import (
    Alphabet,
    build_als,
    extract_factors,
    factor_atoms,
    find_split,
    parse,
)
from ncpoly.realization import format_system

print("== splitting a product ==")
ab = Alphabet(("x", "y", "z"))
p = parse("(x*y + 1)*(z*x - 3)", ab)
system = build_als(p)
print(f"minimal system for {p} (dimension {system.n}):")
print(format_system(system))
split = find_split(system)
print(f"split found at n1 = {split.n1}: zero block of size "
      f"{split.n1 - 1} x {split.n2 - 1} after transformation:")
print(format_system(split.transformed))
left, right = extract_factors(split)
print(f"factors: ({left.polynomial()}) * ({right.polynomial()})")

print()
print("== recursive factorization into atoms ==")
wide_ab = Alphabet(("a", "b", "c", "d", "e", "x"))
q = parse("2aexc + 2bxc - aexd - bxd", wide_ab)
atoms = factor_atoms(q)
print(f"{q}")
print("  = " + " * ".join(f"({a})" for a in atoms))

print()
print("== factors sharing a letter: a quadratic in one parameter ==")
x_ab = Alphabet(("x",))
for text in ("(1 - 2*x)*(-2 - 3*x)", "x*x - 1"):
    atoms = factor_atoms(parse(text, x_ab))
    print(f"{text} = " + " * ".join(f"({a})" for a in atoms))

print()
print("== an atom: no split exists ==")
anti = parse("x*y + y*x", ab)
print(f"{anti}: {len(factor_atoms(anti))} factor (the anticommutator is an atom,")
print("even though it is a product of 1x2 by 2x1 matrices; see demo 04)")

print()
print("== every monomial splits into its letters ==")
print(f"x*y*z -> {[str(a) for a in factor_atoms(parse('x*y*z', ab))]}")
