"""Admissible linear systems: build, combine, and minimize.

A polynomial is represented as the first solution component of A s = v
with A upper unitriangular over affine-linear entries.  Sums and products
stack systems into blocks; minimization then removes every dependent
row/column, and the final dimension is an invariant of the polynomial:
its rank.
"""

from ncpoly import (
    Als,
    Alphabet,
    als_add,
    als_mul,
    build_als,
    is_minimal,
    minimal_monomial,
    minimize,
    parse,
    rank_of,
)
from ncpoly.realization import format_system

ab = Alphabet(("x", "y"))

print("== a minimal system for a monomial ==")
mono = minimal_monomial(ab, (0, 1, 0))  # x y x
print(format_system(mono))
print(f"left family: {[str(s) for s in mono.left_family()]}")

print()
print("== sum of two systems, then minimization ==")
system_x = build_als(parse("x", ab))
system_q = build_als(parse("1 - y*x", ab))
raw = als_add(system_x, system_q)
print(f"raw block sum has dimension {raw.n}:")
print(format_system(raw))
trace = []
reduced = minimize(raw, trace)
print(f"minimization steps: {trace}")
print(f"minimal system (dimension {reduced.n} = rank):")
print(format_system(reduced))
print(f"represented polynomial: {reduced.polynomial()}")
print(f"certified minimal (dimension = rank): {is_minimal(reduced)}")

print()
print("== product systems couple through the right-hand side ==")
raw = als_mul(system_x, system_q)
reduced = minimize(raw)
print(f"x * (1 - y*x) = {reduced.polynomial()} has rank {reduced.n}")

print()
print("== rank is a good complexity measure ==")
for text in ("0", "7/2", "x - 3", "x - x*y*x", "x*y + y*x"):
    print(f"rank({text}) = {rank_of(parse(text, ab))}")
