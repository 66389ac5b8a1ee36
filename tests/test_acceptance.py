"""Acceptance suite: one test per acceptance criterion, exact tolerances.

Every criterion prints one PASS/FAIL line.  Criteria 5a and 9b cover
the two-torsion contact family at r = 3/4 as far as the rational-support
contract allows.  There the two-torsion cubic has no rational root, so
the line y = 0 meets the curve in one closed point of degree 3 and no
record over Q exists.  5a pins the generator's rejection, its verified
partial data and an independent rational-root enumeration; 9b pins the
CLI's documented exit 2 with a one-line message.  Both would switch
back to asserting a record once tame symbols at closed points of higher
degree exist.
"""

import hashlib
import random
import time
from fractions import Fraction as F
from math import lcm

import pytest

from k2forge import families as fam
from k2forge.bipoly import BiPoly
from k2forge.branches import branch_at_affine
from k2forge.cli import main
from k2forge.curves import (Conic, CurvePoint, PlaneCurve,
                            intersection_multiplicity, is_on_curve,
                            smoothness_check)
from k2forge.errors import (NonRationalSupportError, PreconditionError,
                            SingularModelError)
from k2forge.linalg import vandermonde_solve
from k2forge.series import PowerSeries
from k2forge.symbols import FnElt, SymbolEngine, SymbolPair, steinberg_values
from k2forge.unipoly import UniPoly

rng = random.Random(982451653)


def report(tag, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {tag}: {status} ({elapsed:.2f}s, limit {limit}s){suffix}")
    assert ok, f"criterion {tag} failed{suffix}"
    assert elapsed < limit, f"criterion {tag} exceeded its {limit}s budget ({elapsed:.2f}s)"


def rand_nonzero(bound=6, den=4):
    while True:
        v = F(rng.randint(-bound, bound), rng.randint(1, den))
        if v != 0:
            return v


# ---------------------------------------------------------------------------
# 1. reference instance reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_reference_instance():
    t0 = time.time()
    rec = fam.gen_hyp_odd(2, [1, F(1, 2), F(1, 4)])
    a1, a2, a3 = F(1), F(1, 2), F(1, 4)
    g = (a1 + a2) * (a1 + a3) * (a2 + a3)
    b0 = -F(2) / g * (a1 * a2 + a1 * a3 + a2 * a3) * (a1 * a2 * a3) ** 2
    ok = rec.model["f1"][0] == str(b0) == "-7/360"
    ok = ok and rec.model["f1"] == ["-7/360", "31/72", "-217/90"]
    ok = ok and len(rec.elements) == 3 and rec.all_pass
    report("1 (reference hyperelliptic instance)", ok, time.time() - t0, 1.0)


# ---------------------------------------------------------------------------
# 2. tangency identities on random tuples
# ---------------------------------------------------------------------------

def test_criterion_2_tangency_identities():
    t0 = time.time()
    checked_hyp = 0
    while checked_hyp < 100:
        odd = rng.random() < 0.5
        g = rng.choice([1, 2, 3])
        a = []
        while len(a) < g + 1:
            v = rand_nonzero(5)
            key = v * v if odd else v
            if key in [(x * x if odd else x) for x in a]:
                continue
            a.append(v)
        eps = [rng.choice([1, -1]) for _ in range(g + 1)]
        if all(e == -1 for e in eps):
            eps[rng.randrange(g + 1)] = 1
        try:
            if odd:
                d = 2 * g + 1
                f1 = UniPoly(vandermonde_solve([x * x for x in a],
                                               [-2 * x**d for x in a]))
                marked = [(x * x, x**d) for x in a]
            else:
                d = 2 * g + 2
                w = [-2 * x**(g + 1) - 2 * e * x**(g + 1) for x, e in zip(a, eps)]
                f1 = UniPoly(vandermonde_solve(a, w)) + UniPoly.x(g + 1) * 2
                marked = [(x, e * x**(g + 1)) for x, e in zip(a, eps)]
            curve, _, _ = fam._y2_model(f1, d)
        except (PreconditionError, SingularModelError):
            continue
        for alpha, beta in marked:
            section = curve.affine.eval_x(alpha)
            assert section == UniPoly([-beta, 1]) ** 2, (a, eps)
        checked_hyp += 1
    checked_qu = 0
    while checked_qu < 30:
        mode = rng.choice(["lines", "1t", "2t"])
        if mode == "lines":
            a, b, c = rand_nonzero(4), rand_nonzero(4), F(rng.randint(-4, 4))
            if a == b:
                continue
            f1, f2 = fam._thm53_polys(a, b, c)
            poly = (BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                    + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))
            targets = [(a**3, -a**4)]
        elif mode == "1t":
            a, d1, d4 = rand_nonzero(4), F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
            d2 = F(3, 2) * a**4 - a**3 * d1
            d3 = F(3, 4) * a**5 - d4 * a**3
            poly = Conic.make(d1, d2, d3, d4).poly() * BiPoly.y() + BiPoly.x(4)
            targets = [(a**3, -a**4)]
        else:
            a1, a2 = rand_nonzero(4), rand_nonzero(4)
            den = a1**2 + a1 * a2 + a2**2
            if a1 in (a2, -a2) or den == 0:
                continue
            d1 = F(3, 2) / den * (a1**3 + a1**2 * a2 + a1 * a2**2 + a2**3)
            d2 = -F(3, 2) / den * a1**3 * a2**3
            d3 = -F(3, 4) / den * a2**3 * a1**3 * (a1 + a2)
            d4 = F(3, 4) / den * (a1**4 + a1**3 * a2 + a1**2 * a2**2
                                  + a1 * a2**3 + a2**4)
            poly = Conic.make(d1, d2, d3, d4).poly() * BiPoly.y() + BiPoly.x(4)
            targets = [(a1**3, -a1**4), (a2**3, -a2**4)]
        for alpha, beta in targets:
            section = poly.eval_x(alpha)
            assert section == UniPoly([-beta, 1]) ** 3, mode
        checked_qu += 1
    report("2 (tangency identities, 100 hyperelliptic + 30 quartic tuples)",
           True, time.time() - t0, 30.0)


# ---------------------------------------------------------------------------
# 3. the one-parameter quartic family suite
# ---------------------------------------------------------------------------

def test_criterion_3_ct_suite():
    t0 = time.time()
    for t in range(-5, 6):
        rep = smoothness_check(PlaneCurve(fam.ct_equation(t)))
        assert rep.smooth == (t not in (1, -3)), t
        printed = fam.disc_ct_printed(t)
        assert (printed == 0) == (t in (1, -3))
    rec = fam.gen_quartic_ct(0)
    core = {"{inf,O,P}", "{inf,O,Q}", "{inf,P,Q}"}
    got = {e.name for e in rec.elements if e.name in core}
    assert got == core
    assert all(e.passed for e in rec.elements if e.name in core)
    assert F(rec.extras["disc_printed"]) == fam.disc_ct_printed(0)
    # the stored value equals the printed product recomputed independently
    for t in (0, 2, -4, F(5)):
        expected = (F(1, 2**52) * (t - 1)**2 * (t + 3)**6 * (2 * t + 5)
                    * (2 * t + 7) * (32 * t**3 + 96 * t**2 - 12 * t + 5))
        assert fam.disc_ct_printed(t) == expected
    report("3 (one-parameter quartic family: smoothness set, elements, disc)",
           True, time.time() - t0, 10.0)


# ---------------------------------------------------------------------------
# 4. conic contact multiplicity 8
# ---------------------------------------------------------------------------

def test_criterion_4_conic_contact():
    t0 = time.time()
    done = 0
    while done < 20:
        d1 = F(rng.randint(-4, 4), rng.randint(1, 3))
        d2 = rand_nonzero(4, 3)
        d3 = rand_nonzero(4, 3)
        d4 = F(rng.randint(-4, 4), rng.randint(1, 3))
        conic = Conic.make(d1, d2, d3, d4)
        try:
            curve = fam.conic_quartic_curve(conic)
        except SingularModelError:
            continue
        R = CurvePoint.affine(0, -d2)
        m = intersection_multiplicity(curve, conic, R)
        assert m == 8, (d1, d2, d3, d4)
        inf = CurvePoint.at_infinity(0, 1)
        total = m + (intersection_multiplicity(curve, conic.poly(), inf)
                     if is_on_curve(conic, inf) else 0)
        assert total == 8
        done += 1
    report("4 (conic contact multiplicity 8 on 20 random smooth instances)",
           True, time.time() - t0, 10.0)


# ---------------------------------------------------------------------------
# 5. contact (Nekovar-type) suite
# ---------------------------------------------------------------------------

def _rational_roots_oracle(coeffs):
    """Rational roots of a polynomial (ascending Fraction coefficients) by
    the rational root theorem: clear denominators, then try every +-p/q
    with p | a0 and q | an by Horner evaluation.  Plain Fraction arithmetic,
    independent of UniPoly."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    assert ints[0] != 0, "the oracle needs a nonzero constant term"

    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]

    candidates = {F(sign * p, q) for p in divisors(ints[0])
                  for q in divisors(ints[-1]) for sign in (1, -1)}
    roots = []
    for x in sorted(candidates):
        acc = F(0)
        for c in reversed(ints):
            acc = acc * x + c
        if acc == 0:
            roots.append(x)
    return roots


def test_criterion_5a_two_torsion_family_as_specified():
    """The two-torsion contact family at r = 3/4, as far as Q allows.

    The element needs a torsion function at every point of G = {y = 0}
    on the curve, and each point must be rational.  At r = 3/4 the
    two-torsion cubic is x^3 - (7/12)x + 203/432, i.e. 432x^3 - 252x + 203,
    and no +-p/q with p | 203, q | 432 is a root: G meets the curve in one
    closed point of degree 3.  So the generator must refuse with
    NonRationalSupportError, after verifying the contact data it can
    (smooth member, H-contact pattern (1,2), |y| = r at Q1 and Q2).  An
    oracle independent of UniPoly confirms the refusal is right.
    """
    t0 = time.time()
    r = F(3, 4)
    with pytest.raises(NonRationalSupportError,
                       match="rational support required") as ei:
        fam.gen_nekovar_2tor(r)
    details = ei.value.details
    assert details["h_pattern"] == [1, 2], details
    assert details["rational_roots"] == [], details
    assert details["cubic"] == ["203/432", "-7/12", "0", "1"], details

    # the verified partial data, rechecked in plain Fraction arithmetic
    data = fam.nekovar_2tor_data(r)
    a, b = data["a"], data["b"]
    assert (a, b) == (F(-7, 12), F(203, 432))
    assert data["disc_r"] != 0
    for name in ("Q1", "Q2"):
        x, y = data[name]
        assert y * y == x**3 + a * x + b, name
        assert abs(y) == r, name

    # the independent rational-root oracle agrees with the refusal, and it
    # does find the one root the family has at r = 4/9
    oracle = _rational_roots_oracle([b, a, F(0), F(1)])
    assert oracle == [F(v) for v in details["rational_roots"]]
    data49 = fam.nekovar_2tor_data(F(4, 9))
    assert _rational_roots_oracle([data49["b"], data49["a"], F(0), F(1)]) \
        == [F(-19, 27)]
    report("5a (two-torsion contact family at r=3/4: rational support "
           "refused, (1,2) contact data verified)", True, time.time() - t0, 5.0)


def test_criterion_5b_three_torsion_family():
    t0 = time.time()
    rec = fam.gen_nekovar_3tor(2)
    elem = rec.elements[0]
    ok = rec.all_pass and elem.meta["h_pattern"] == [1, 2]
    cert = elem.certificates[0]
    ok = ok and all(v == 1 for v in cert.point_totals.values())
    ok = ok and any(not p.is_affine for p in cert.point_totals)
    report("5b (three-torsion contact family at r=2, pattern (1,2))",
           ok, time.time() - t0, 5.0)


def test_criterion_5c_genus2_family():
    t0 = time.time()
    rec = fam.gen_nekovar_genus2(F(1, 2))
    elem = rec.elements[0]
    ok = rec.all_pass and sorted(elem.meta["h_pattern"]) == [2, 3]
    cert = elem.certificates[0]
    inf_points = [p for p in cert.point_totals if not p.is_affine]
    ok = ok and len(inf_points) == 2
    ok = ok and all(v == 1 for v in cert.point_totals.values())
    report("5c (genus-2 contact family at r=1/2, pattern (3,2), both places "
           "at infinity)", ok, time.time() - t0, 5.0)


# ---------------------------------------------------------------------------
# 6. symbol property suites
# ---------------------------------------------------------------------------

def test_criterion_6_property_suites():
    t0 = time.time()
    instances = 0
    # three base curves with their building-block functions
    setups = []
    rec = fam.gen_quartic_lines(F(1, 2), -1, 0)
    curve = rec.curve
    eng = SymbolEngine(curve)
    fO = FnElt.poly(curve, BiPoly.y())
    fP = FnElt.poly(curve, BiPoly.parse("x - 1/8"))
    fQ = FnElt.poly(curve, BiPoly.parse("y + x")) ** 4 / fO
    setups.append((curve, eng, [fO, fP, fQ], list(rec.points.values())))
    rec2 = fam.gen_hyp_odd(2, [1, F(1, 2), F(1, 4)])
    curve2 = rec2.curve
    eng2 = SymbolEngine(curve2)
    g_fO = FnElt.poly(curve2, BiPoly.y())
    g_f1 = FnElt.poly(curve2, BiPoly.parse("x - 1"))
    g_f2 = FnElt.poly(curve2, BiPoly.parse("x - 1/4"))
    setups.append((curve2, eng2, [g_fO, g_f1, g_f2], list(rec2.points.values())))
    rec3 = fam.gen_nekovar_3tor(2)
    curve3 = rec3.curve
    eng3 = SymbolEngine(curve3)
    n_y = FnElt.poly(curve3, BiPoly.y())
    n_h = FnElt.poly(curve3, BiPoly.parse("y - x + 2"))
    setups.append((curve3, eng3, [n_y, n_h], list(rec3.points.values())))

    for curve, eng, base, points in setups:
        support = eng.support_candidates(base, extra=points)
        # Steinberg
        for f0 in base:
            for k in (1, -1, 2):
                f = f0 ** k
                for p, v in steinberg_values(curve, f, points=points, engine=eng):
                    assert v == 1
                instances += 1
        # antisymmetry + bilinearity
        for _ in range(30):
            f = base[rng.randrange(len(base))] ** rng.choice([-2, -1, 1, 2])
            h = base[rng.randrange(len(base))] ** rng.choice([-2, -1, 1, 2])
            p = support[rng.randrange(len(support))]
            assert eng.tame(SymbolPair(f, h), p) * eng.tame(SymbolPair(h, f), p) == 1
            instances += 1
        for _ in range(25):
            f1_ = base[rng.randrange(len(base))] ** rng.choice([-1, 1, 2])
            f2_ = base[rng.randrange(len(base))] ** rng.choice([-1, 1, 2])
            h = base[rng.randrange(len(base))] ** rng.choice([-1, 1])
            p = support[rng.randrange(len(support))]
            lhs = eng.tame(SymbolPair(f1_ * f2_, h), p)
            rhs = eng.tame(SymbolPair(f1_, h), p) * eng.tame(SymbolPair(f2_, h), p)
            assert lhs == rhs
            instances += 1
        # product formula over the full support
        for _ in range(15):
            f = base[0] ** rng.choice([-2, -1, 1, 2])
            if len(base) > 1:
                f = f * base[1] ** rng.choice([-1, 0, 1])
            h = base[-1] ** rng.choice([-1, 1, 2])
            pair = SymbolPair(f, h)
            prod = F(1)
            for p in support:
                prod *= eng.tame(pair, p)
            assert prod == 1
            instances += 1
    # ord valuation axioms on 100 random pairs
    curve, eng, base, points = setups[0]
    axioms = 0
    while axioms < 100:
        f = base[rng.randrange(len(base))] ** rng.choice([-2, -1, 1, 2])
        g = base[rng.randrange(len(base))] ** rng.choice([-2, -1, 1, 2])
        p = points[rng.randrange(len(points))]
        assert eng.ord(f * g, p) == eng.ord(f, p) + eng.ord(g, p)
        try:
            s = f + g
        except PreconditionError:
            continue
        assert eng.ord(s, p) >= min(eng.ord(f, p), eng.ord(g, p))
        axioms += 1
    assert instances >= 200
    report(f"6 (Steinberg/antisymmetry/bilinearity/product on {instances} "
           "instances, valuation axioms on 100 pairs)",
           True, time.time() - t0, 60.0)


# ---------------------------------------------------------------------------
# 7. intersection multiplicity against the series oracle
# ---------------------------------------------------------------------------

def _series_valuation_oracle(curve, other, p, prec=40):
    """Independent route: substitute the branch parametrization of `curve`
    at p into `other` (plain Horner on Laurent series) and read the
    valuation."""
    br = branch_at_affine(curve, p)
    x, y = br.xy(prec)
    n = min(x.prec, y.prec)
    acc = PowerSeries.zero(n)
    for c in reversed(other.as_poly_in("y")):
        inner = PowerSeries.zero(n)
        for coeff in reversed(c.coeffs):
            inner = inner * x + PowerSeries.const(coeff, n)
        acc = acc * y + inner
    return acc.valuation()


def test_criterion_7_oracle_equivalence():
    t0 = time.time()
    base_curves = []
    rec = fam.gen_quartic_lines(F(1, 2), -1, 0)
    base_curves.append((rec.curve, [p for p in rec.points.values() if p.is_affine]))
    rec2 = fam.gen_hyp_odd(2, [1, F(1, 2), F(1, 4)])
    base_curves.append((rec2.curve, [p for p in rec2.points.values() if p.is_affine]))
    done = 0
    while done < 50:
        curve, pts = base_curves[done % 2]
        p = pts[rng.randrange(len(pts))]
        g = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-3, 3))
                    for _ in range(rng.randint(2, 4))})
        g = g - BiPoly.const(g(p.x, p.y))  # force through the point
        if g.is_zero():
            continue
        try:
            reduction = intersection_multiplicity(curve, g, p)
        except Exception:
            continue
        oracle = _series_valuation_oracle(curve, g, p)
        assert reduction == oracle, (curve.canonical(), g.canonical(), p.label())
        done += 1
    report("7 (reduction algorithm vs series-valuation oracle on 50 instances)",
           True, time.time() - t0, 30.0)


# ---------------------------------------------------------------------------
# 8. closed-form discriminants against the smoothness decision
# ---------------------------------------------------------------------------

def test_criterion_8_disc_cross_checks():
    t0 = time.time()
    done = 0
    while done < 30:
        kind = ("thm53", "ex63", "ex64")[done % 3]
        if kind == "thm53":
            a, b, c = rand_nonzero(3, 2), rand_nonzero(3, 2), F(rng.randint(-3, 3))
            if a == b:
                continue
            printed = fam.disc_thm53_printed(a, b, c)
            f1, f2 = fam._thm53_polys(a, b, c)
            curve = PlaneCurve(BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                               + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4),
                               check_squarefree=False)
        elif kind == "ex63":
            a1, a2 = rand_nonzero(3, 2), rand_nonzero(3, 2)
            if a1 in (a2, -a2) or a1**2 + a1 * a2 + a2**2 == 0:
                continue
            printed = fam.disc_ex63_printed(a1, a2)
            den = a1**2 + a1 * a2 + a2**2
            d1 = F(3, 2) / den * (a1**3 + a1**2 * a2 + a1 * a2**2 + a2**3)
            d2 = -F(3, 2) / den * a1**3 * a2**3
            d3 = -F(3, 4) / den * a2**3 * a1**3 * (a1 + a2)
            d4 = F(3, 4) / den * (a1**4 + a1**3 * a2 + a1**2 * a2**2
                                  + a1 * a2**3 + a2**4)
            curve = PlaneCurve(Conic.make(d1, d2, d3, d4).poly() * BiPoly.y()
                               + BiPoly.x(4), check_squarefree=False)
        else:
            a, b = rand_nonzero(2, 2), rand_nonzero(2, 2)
            if b == -a:
                # the published two-parameter formula provably misses a factor
                # vanishing on b = -a (the defect is pinned by its own test);
                # a fair draw from Q^2 hits that locus with probability zero
                continue
            printed = fam.disc_ex64_printed(a, b)
            d1 = b**3 + F(3, 2) * a
            d2 = -a**3 * b**3
            d3 = 2 * a**3 * (2 * b**3 + 3 * a) * b**3
            d4 = -4 * b**6 - 6 * a * b**3 + F(3, 4) * a**2
            curve = PlaneCurve(Conic.make(d1, d2, d3, d4).poly() * BiPoly.y()
                               + BiPoly.x(4), check_squarefree=False)
        rep = smoothness_check(curve)
        assert (printed == 0) == (not rep.smooth), (kind, printed, rep.smooth)
        done += 1
    report("8 (printed discriminants vs smoothness on 30 random tuples)",
           True, time.time() - t0, 60.0)


# ---------------------------------------------------------------------------
# 9. CLI round trips and figure reproduction
# ---------------------------------------------------------------------------

SMOKE_TUPLES = [
    ("hyp-odd", ["--genus", "2", "--a", "1,1/2,1/4"]),
    ("hyp-even", ["--genus", "1", "--a", "1,2", "--eps", "1,1"]),
    ("hyp-partial", ["--genus", "2", "--d", "5", "--constraints", "1:1", "--free", "0,0"]),
    ("quartic-lines", ["--a", "1", "--b", "2", "--c", "1"]),
    ("quartic-ct", ["--t", "2"]),
    ("quartic-conic", ["--d1", "1", "--d2", "2", "--d3", "1", "--d4", "1"]),
    ("quartic-conic-1t", ["--a", "1", "--d1", "0", "--d4", "0"]),
    ("quartic-conic-2t", ["--a1", "1", "--a2", "2"]),
    ("quartic-conic-pq", ["--a", "1/2", "--b", "-1"]),
    ("nekovar-3tor", ["--r", "2"]),
    ("nekovar-g2", ["--r", "1/2"]),
]


def test_criterion_9a_cli_round_trips(tmp_path):
    t0 = time.time()
    for family, flags in SMOKE_TUPLES:
        out = tmp_path / f"{family}.json"
        code = main(["gen", family, *flags, "--out", str(out)])
        assert code == 0, f"gen {family} exited {code}"
        code = main(["verify", str(out)])
        assert code == 0, f"verify {family} exited {code}"
    report("9a (gen -> verify round trip for the 11 attainable families)",
           True, time.time() - t0, 10.0)


def test_criterion_9b_two_torsion_round_trip_as_specified(tmp_path, capsys):
    """The two-torsion contact family has no record over Q at r = 3/4
    (see 5a), so `gen` must end as the exit-code table promises for
    non-rational support: exit 2, one line on stderr, no traceback and
    nothing written to --out."""
    t0 = time.time()
    out = tmp_path / "r.json"
    code = main(["gen", "nekovar-2tor", "--r", "3/4", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, f"gen exited {code}"
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("precondition error: rational support required"), err
    assert "Traceback" not in err
    assert not out.exists()
    report("9b (two-torsion family: gen refuses with exit 2 and one line)",
           True, time.time() - t0, 10.0)


FIGURES = [
    ("fig1", "hyp-odd", ["--genus", "2", "--a", "1,1/2,1/4"],
     "-0.5,1.5,-1.5,1.1", ["P1", "P2", "P3", "O"]),
    ("fig2", "quartic-ct", ["--t", "0"], "-0.6,0.6,-0.6,0.3", ["P", "Q", "O"]),
    ("fig3", "quartic-lines", ["--a", "1/2", "--b", "-1", "--c", "0"],
     "-0.6,0.6,-0.6,0.3", ["P", "Q", "O"]),
    ("fig4", "quartic-conic-pq", ["--a", "1/2", "--b", "-1"],
     "-0.6,0.6,-0.5,0.4", ["P", "Q", "R", "O"]),
    ("fig5", "nekovar-g2", ["--r", "1/2"], "-1.2,1.6,-1.6,1.2",
     ["Q1", "Q2", "O"]),
]


def test_criterion_9c_figure_reproduction(tmp_path):
    t0 = time.time()
    for name, family, flags, window, labels in FIGURES:
        rec = tmp_path / f"{name}.json"
        assert main(["gen", family, *flags, "--out", str(rec)]) == 0
        svg1 = tmp_path / f"{name}.svg"
        svg2 = tmp_path / f"{name}_again.svg"
        args = ["plot", str(rec), f"--window={window}", "--grid", "128"]
        assert main(args + ["--out", str(svg1)]) == 0
        assert main(args + ["--out", str(svg2)]) == 0
        assert svg1.read_bytes() == svg2.read_bytes(), name
        body = svg1.read_text()
        for label in labels:
            assert f">{label}</text>" in body, (name, label)
    report("9c (five figure configurations as deterministic labeled SVGs)",
           True, time.time() - t0, 15.0)


# ---------------------------------------------------------------------------
# byte identity of the record corpus
# ---------------------------------------------------------------------------

# hyp-odd genus g with --a the first g + 1 of one list; genus 7 has the
# deepest place at infinity of any pinned record, val(w) = 15
_DEEP_A = "1,-1/2,3/4,-1/3,4/3,2/5,-3/2,5/3".split(",")
HYP_ODD_DEEP = [("hyp-odd", ("--genus", str(g), "--a", ",".join(_DEEP_A[:g + 1])))
                for g in (3, 4, 5, 7)]

# the interpolation rule the three hyperelliptic families share: hyp-partial
# with nonzero free values at m < g + 1 constraints (odd and even d) and at
# m = 0, and hyp-even with mixed signs
HYP_INTERPOLATION = [
    ("hyp-partial", ("--genus", "3", "--d", "7", "--constraints", "1:-1,1/2:-1",
                     "--free", "2/3,-5")),
    ("hyp-partial", ("--genus", "2", "--d", "6", "--constraints=-1/2:1", "--free", "3,1/7")),
    ("hyp-partial", ("--genus", "1", "--d", "3", "--free", "1,2")),
    ("hyp-even", ("--genus", "2", "--a", "1/2,-1,3", "--eps=-1,1,1")),
]

# sha256 of record_to_json for each distinct record of SMOKE_TUPLES,
# FIGURES, HYP_ODD_DEEP and HYP_INTERPOLATION, keyed "family flags"; a
# change that moves one byte of a record fails here
RECORD_DIGESTS = {
    "hyp-odd --genus 2 --a 1,1/2,1/4":
        "b0a88f64d6938d0d6bd199a3da0ec825ca0145be1531c7718e6d2a0ed7015eae",
    "hyp-even --genus 1 --a 1,2 --eps 1,1":
        "53d8ab2dd4bec14a95593937e3ab1aebb17208008fdb3b98484757482dab2685",
    "hyp-partial --genus 2 --d 5 --constraints 1:1 --free 0,0":
        "d6997f0fc3c0b15bdd18f42a6aef806caa28c62d4e52974007bef683de383893",
    "quartic-lines --a 1 --b 2 --c 1":
        "f27b3d83537c8e2444c1f34ad20d44089a807ad177732ac8847609e4e4e781a8",
    "quartic-ct --t 2":
        "45b9297e53b901d66b1fd6b209cab6b7e5a191f5fe7e91f552126ec1e4392699",
    "quartic-conic --d1 1 --d2 2 --d3 1 --d4 1":
        "a62f38a382e01ecc61a7c4aaaf250f75f253753eb805ca16411843777c3576eb",
    "quartic-conic-1t --a 1 --d1 0 --d4 0":
        "afb17627e0d48fdf76acffefab6ab4efe19f3e5214b18dd7febbc8ef834e738a",
    "quartic-conic-2t --a1 1 --a2 2":
        "4110111ff4b1486e089f377ea957bd2ce5ce004f7dcc7db7881e053fdfdbc453",
    "quartic-conic-pq --a 1/2 --b -1":
        "024dae14ca9a1735eee02ef9ccaded7385e7bb4637f024b3c9e2d49ffdda2afa",
    "nekovar-3tor --r 2":
        "bf745ffbef8636afff36ba1e91deba577ff54922f9fec530004c7208b0ac7079",
    "nekovar-g2 --r 1/2":
        "f5999c80638214d708c134c6c6123f4ffa3592271b8a3f33ef4b33608c7f9d7c",
    "quartic-ct --t 0":
        "21ef264936309dae79f91e20f9079a742fce53d642ac5efde3fbec9164cb0ba4",
    "quartic-lines --a 1/2 --b -1 --c 0":
        "2f4e33036b714e3f7fd45d9c6332cceac20ecca1beb9faa2f6a83384faab73bf",
    "hyp-odd --genus 3 --a 1,-1/2,3/4,-1/3":
        "81fa6f96a2bedd3dbc8877e8654ab7f6b1d8727f0a12ccabd4b7b2b31b0f792a",
    "hyp-odd --genus 4 --a 1,-1/2,3/4,-1/3,4/3":
        "ce46a8472aba5b45fbdff0301ad713a7c6ff9a4faea7af7910d58148eaf552ba",
    "hyp-odd --genus 5 --a 1,-1/2,3/4,-1/3,4/3,2/5":
        "35bbecafdbebb1e56393eef6ca52698fc40506a8622b4a6c3ffb203f78078a59",
    "hyp-odd --genus 7 --a 1,-1/2,3/4,-1/3,4/3,2/5,-3/2,5/3":
        "7157ff09fa74f7c7e24522376217fc2298e90e12e35356010b48a49622ef3c1b",
    "hyp-partial --genus 3 --d 7 --constraints 1:-1,1/2:-1 --free 2/3,-5":
        "b919bec7c4bc5e4bba91b0a02db7b644b45e8cb2524b1d523fb5a38ce2a1a0cb",
    "hyp-partial --genus 2 --d 6 --constraints=-1/2:1 --free 3,1/7":
        "d96324975389d1d46a71b621effa9436508096c14478379d25c309e36046334d",
    "hyp-partial --genus 1 --d 3 --free 1,2":
        "6b982cfe1764ba167c6c876957ed903eabdd5fb43fe3f3736c1c9d60e84d5732",
    "hyp-even --genus 2 --a 1/2,-1,3 --eps=-1,1,1":
        "2b4e2e6a7cd01c87b984c86098b8da1dc7214a992d89087565e01a44c060bed7",
}


def test_corpus_records_are_byte_identical(tmp_path):
    corpus = dict.fromkeys([(f, tuple(flags)) for f, flags in SMOKE_TUPLES]
                           + [(f, tuple(flags)) for _, f, flags, _, _ in FIGURES]
                           + HYP_ODD_DEEP + HYP_INTERPOLATION)
    digests = {}
    for family, flags in corpus:
        out = tmp_path / "record.json"
        assert main(["gen", family, *flags, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8").removesuffix("\n")  # gen adds one newline
        digests[f"{family} {' '.join(flags)}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digests == RECORD_DIGESTS
