#!/usr/bin/env python3
"""Tour of the exact-arithmetic substrate.

Everything downstream rests on exact rationals: dense univariate and
sparse bivariate polynomials, resultants and discriminants, Vandermonde
interpolation, and truncated Laurent series.  This script walks through
each with printed examples.
"""

from fractions import Fraction as F

from k2forge import BiPoly, PowerSeries, UniPoly, vandermonde_solve

print("=" * 72)
print("1. exact polynomial arithmetic")
print("=" * 72)

p = UniPoly([1, 3, 1])  # x^2 + 3x + 1
print(f"p(x) = {p.pretty()}")
print(f"p(3/2) = {p(F(3, 2))}")
print(f"disc(p) = {p.discriminant()}   (b^2 - 4c = 9 - 4 = 5)")

q = UniPoly.from_roots([1, 2, 3])
print(f"\nq(x) = (x-1)(x-2)(x-3) = {q.pretty()}")
print(f"disc(q) = {q.discriminant()}   (prod of squared root differences = 4)")

print("\nresultants eliminate a variable exactly:")
f = BiPoly.parse("y - x^2")
print(f"  Res_y(y - x^2, y) = {f.resultant(BiPoly.y(), 'y').pretty()}")
g = BiPoly.parse("y^2 - x")
print(f"  Res_y(y^2 - x, y + 1) = {g.resultant(BiPoly.parse('y + 1'), 'y').pretty()}")

print("=" * 72)
print("2. interpolation: the coefficient engine behind the curve families")
print("=" * 72)

# the hyperelliptic families prescribe f1(a_i^2) = -2 a_i^(2g+1)
a = [F(1), F(1, 2), F(1, 4)]
nodes = [x * x for x in a]
values = [-2 * x**5 for x in a]
coeffs = vandermonde_solve(nodes, values)
f1 = UniPoly(coeffs)
print(f"nodes  = {[str(n) for n in nodes]}")
print(f"values = {[str(v) for v in values]}")
print(f"f1(x)  = {f1.pretty()}")
print(f"b0 = {coeffs[0]}   (closed form gives -7/360)")
for n, v in zip(nodes, values):
    assert f1(n) == v
print("interpolation conditions hold exactly")

print()
print("=" * 72)
print("3. truncated Laurent series (the local engine at points at infinity)")
print("=" * 72)

s = PowerSeries(0, [1, 1], 6)  # 1 + t + O(t^6)
print(f"s       = {s}")
print(f"1/s     = {s.invert()}")
print(f"s * 1/s = {s * s.invert()}")

laurent = PowerSeries.t_power(-2, 6) + PowerSeries.const(3, 6)
print(f"\nLaurent example: t^-2 + 3 -> {laurent}")
square = laurent * laurent
print(f"square:          {square}")
print(f"valuation of the square: {square.valuation()}")
