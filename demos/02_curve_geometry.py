#!/usr/bin/env python3
"""Contact geometry on plane curves: multiplicities, tangents, smoothness.

The constructions in this package all hinge on curves meeting auxiliary
lines and conics in as few points as possible, with contact
multiplicities pinned exactly.  This script checks those facts on the
two-parameter quartic with an 8-contact conic and on the one-parameter
quartic family.
"""

from fractions import Fraction as F

from k2forge import (Conic, CurvePoint, PlaneCurve,
                     intersection_multiplicity, smoothness_check,
                     tangent_line)
from k2forge.families import conic_quartic_curve, ct_equation

print("=" * 72)
print("1. a conic with maximal contact")
print("=" * 72)
conic = Conic.make(1, 2, 1, 1)
curve = conic_quartic_curve(conic)
print(f"quartic:  {curve.canonical()}")
print(f"conic D:  {conic.poly().canonical()}")
R = CurvePoint.affine(0, -2)
m = intersection_multiplicity(curve, conic, R)
print(f"I_R(C, D) at R = (0, -2): {m}   (maximal: deg C * deg D = 8)")

print()
print("=" * 72)
print("2. vertical tangents with 3-fold contact (quartic hyperflex setup)")
print("=" * 72)
C0 = PlaneCurve(ct_equation(0))
print(f"member t=0: {C0.canonical()}")
P = CurvePoint.affine(F(-1, 8), F(-1, 16))
Q = CurvePoint.affine(F(-1, 4), F(-1, 4))
LP = tangent_line(C0, P)
LQ = tangent_line(C0, Q)
print(f"tangent at P = {P.label()}: {LP.canonical()} = 0")
print(f"tangent at Q = {Q.label()}: {LQ.canonical()} = 0")
print(f"I_P(C, L_P) = {intersection_multiplicity(C0, LP, P)}")
print(f"I_Q(C, L_Q) = {intersection_multiplicity(C0, LQ, Q)}")
O = CurvePoint.affine(0, 0)
print(f"L_Q also passes through O with I_O = "
      f"{intersection_multiplicity(C0, LQ, O)}")

print()
print("=" * 72)
print("3. exact smoothness decisions across the family")
print("=" * 72)
for t in range(-5, 6):
    rep = smoothness_check(PlaneCurve(ct_equation(t)))
    marker = "smooth" if rep.smooth else f"SINGULAR (witness {rep.witness})"
    print(f"  t = {t:>2}: {marker}")
print("the singular integers are exactly t = 1 and t = -3")
