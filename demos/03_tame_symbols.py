#!/usr/bin/env python3
"""Tame symbols and certified elements of the tame kernel.

Walks the full verification pipeline on one quartic: orders of
vanishing, divisors of the auxiliary functions, tame symbol values,
the three symbols of a torsion triple, and the reciprocity product.
"""

from fractions import Fraction as F

from k2forge import (BiPoly, CurvePoint, FnElt, SymbolEngine, SymbolPair,
                     TorsionFunction, construction_torsion, verify_k2t)
from k2forge.families import _thm53_polys
from k2forge.curves import PlaneCurve

a, b, c = F(1, 2), F(-1), F(0)
f1, f2 = _thm53_polys(a, b, c)
curve = PlaneCurve(BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                   + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))
eng = SymbolEngine(curve)

print(f"curve: {curve.canonical()}")
O = CurvePoint.affine(0, 0)
P = CurvePoint.affine(a**3, -a**4)
inf = eng.infinity_points()[0]
print(f"marked points: O = {O.label()}, P = {P.label()}, inf = {inf.label()}")

print()
print("=" * 72)
print("1. orders and divisors")
print("=" * 72)
y = FnElt.poly(curve, BiPoly.y())
xP = FnElt.poly(curve, BiPoly.x() - BiPoly.const(a**3))
print(f"ord_O(y) = {eng.ord(y, O)},  ord_inf(y) = {eng.ord(y, inf)}")
div = eng.divisor(xP, [P, inf])
print(f"div(x - a^3) = {div.pretty()}")

print()
print("=" * 72)
print("2. a tame symbol value, exactly")
print("=" * 72)
x = FnElt.poly(curve, BiPoly.x())
val = eng.tame(SymbolPair(y, x), O)
print(f"T_O({{y, x}}) = {val}   (= -1/f1(0) = -64 for these parameters)")

print()
print("=" * 72)
print("3. the torsion triple (inf, O, P) and its three symbols")
print("=" * 72)
h1 = y**3 / xP**4
t1 = TorsionFunction(h1, plus=O, minus=P, order=12)
t2 = TorsionFunction(xP, plus=P, minus=inf, order=3)
t3 = TorsionFunction(y.inverse(), plus=inf, minus=O, order=4)
symbols = construction_torsion(eng, t1, t2, t3)
for i, s in enumerate(symbols, start=1):
    cert = verify_k2t(eng, s)
    values = {p.label(): str(v) for p, v in cert.point_totals.items()}
    print(f"S{i}: verdict {cert.verdict}, reciprocity product {cert.product}")
    print(f"    tame values: {values}")

print()
print("a deliberately corrupted symbol fails, but reciprocity still holds:")
from k2forge import K2Element
bad = K2Element([SymbolPair(xP, y, 1)], [O, P, inf])
cert = verify_k2t(eng, bad)
print(f"  verdict {cert.verdict}; values "
      f"{ {p.label(): str(v) for p, v in cert.point_totals.items()} }; "
      f"product {cert.product}")
