"""Function-field layer: orders, divisors, tame symbols, K2 certificates."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k2forge.bipoly import BiPoly
from k2forge.branches import branches_at_infinity, eval_series
from k2forge.curves import CurvePoint, PlaneCurve
from k2forge.errors import (NonRationalSupportError, PreconditionError,
                            VerificationError)
from k2forge import branches, curves, symbols
from k2forge.cli import main
from k2forge.families import _thm53_polys, gen_hyp_odd, gen_nekovar_3tor, gen_quartic_ct
from k2forge.records import record_to_json
from k2forge.series import PowerSeries
from k2forge.symbols import (FnElt, K2Element, SymbolEngine, SymbolPair,
                             TorsionFunction, construction_torsion,
                             nekovar_element, steinberg_values, verify_k2t,
                             verify_torsion_shape)

from test_branches import _CUBIC_TERMS, _plan_curves

rng = random.Random(777)


@pytest.fixture(scope="module")
def quartic():
    a, b, c = F(1, 2), F(-1), F(0)
    f1, f2 = _thm53_polys(a, b, c)
    curve = PlaneCurve(BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                       + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))
    eng = SymbolEngine(curve)
    pts = {
        "O": CurvePoint.affine(0, 0),
        "P": CurvePoint.affine(F(1, 8), F(-1, 16)),
        "Q": CurvePoint.affine(F(1, 4), F(-1, 4)),
        "inf": eng.infinity_points()[0],
    }
    return curve, eng, pts


def blocks_of(curve, pts):
    fO = FnElt.poly(curve, BiPoly.y())
    fP = FnElt.poly(curve, BiPoly.parse("x - 1/8"))
    fQ = FnElt.poly(curve, BiPoly.parse("y + x"))**4 / FnElt.poly(curve, BiPoly.y())
    return fO, fP, fQ


# ---------------------------------------------------------------------------
# orders and divisors
# ---------------------------------------------------------------------------

def test_ord_of_y_on_quartic(quartic):
    curve, eng, pts = quartic
    y = FnElt.poly(curve, BiPoly.y())
    assert eng.ord(y, pts["O"]) == 4
    assert eng.ord(y, pts["inf"]) == -4


def test_ord_of_tangent_power_is_exact(quartic):
    # I_Q(C, (x+y)^7) = 7 * 3, the tangent at Q having contact 3; the
    # reduction takes many steps, and ord_poly checks it against the series
    curve, _, pts = quartic
    assert SymbolEngine(curve).ord_poly(BiPoly.parse("y + x")**7, pts["Q"]) == 21


def test_val_lead_sizes_affine_branches_exactly(quartic):
    curve, _, pts = quartic
    eng = SymbolEngine(curve)
    # a unit at the point: its value, with no branch expansion
    assert eng.val_lead(BiPoly.parse("x - 1"), pts["Q"]) == (0, F(-3, 4))
    assert eng.branch(pts["Q"])._series is None
    # the tangent at Q has contact m = 3: the branch is expanded to m + 1 terms
    assert eng.val_lead(BiPoly.parse("y + x"), pts["Q"])[0] == 3
    s, v = eng.branch(pts["Q"])._series
    assert min(s.prec, v.prec) == 4


@pytest.mark.parametrize("skew", [-1, 1])
def test_val_lead_rejects_a_reduction_the_series_contradicts(quartic, monkeypatch, skew):
    curve, _, pts = quartic
    monkeypatch.setattr(symbols, "intersection_multiplicity", lambda c, f, p: 3 + skew)
    with pytest.raises(VerificationError, match=f"reduction gives {3 + skew}, series gives"):
        SymbolEngine(curve).val_lead(BiPoly.parse("y + x"), pts["Q"])


def test_ord_of_constant_is_zero(quartic):
    curve, eng, pts = quartic
    c = FnElt.constant(curve, F(7, 5))
    for p in pts.values():
        assert eng.ord(c, p) == 0


def test_zero_function_rejected(quartic):
    curve, eng, pts = quartic
    with pytest.raises(PreconditionError, match="zero function"):
        FnElt.poly(curve, BiPoly.zero())
    with pytest.raises(PreconditionError, match="zero function"):
        FnElt.poly(curve, curve.affine * BiPoly.x())


def test_zero_function_rejected_on_a_curve_not_monic_in_y():
    # the leading coefficient of C in y is x, so the test that C divides
    # the numerator has to divide by x at every step of the long division
    curve = PlaneCurve(BiPoly.parse("x*y^2 + y - x^3 - 1"))
    with pytest.raises(PreconditionError, match="zero function"):
        FnElt.poly(curve, curve.affine)
    with pytest.raises(PreconditionError, match="zero function"):
        FnElt.poly(curve, curve.affine * (BiPoly.x() + 1))
    assert FnElt.poly(curve, curve.affine + 1).factors == ((curve.affine + 1, 1),)


# an equal pair, and rational multiples of earlier entries
_NORMAL_FORM_POOL = ["2", "-1/3", "y", "x - 1/8", "y + x", "x - 1/8",
                     "-2*y", "(3/2)*x - 3/16", "-y - x", "8*x - 1"]


def _multiple_of(p, first):
    """c with p = c * first, or None."""
    k = next(iter(first.terms))
    c = p.coeff(*k) / first.coeff(*k)
    return c if c and first * c == p else None


@settings(derandomize=True, deadline=None, max_examples=200)
@given(scalar=st.sampled_from([F(1), F(-1), F(2, 3), F(-5, 4)]),
       drawn=st.lists(st.tuples(st.integers(0, len(_NORMAL_FORM_POOL)), st.integers(-3, 3)),
                      max_size=7))
def test_the_constructor_returns_the_normal_form(quartic, scalar, drawn):
    """Constant polynomials fold into the scalar, rational multiples of a
    polynomial merge into the first of them to appear, in order of first
    appearance, with the multiplier's power in the scalar, a polynomial
    whose exponent sums to 0 drops (a later multiple starts it again), and
    the result is the function built one factor at a time with FnElt.poly.
    The last pool entry is the curve plus one, of the curve's degree."""
    curve = quartic[0]
    pool = [BiPoly.parse(t) for t in _NORMAL_FORM_POOL] + [curve.affine + 1]
    factors = [(pool[k], e) for k, e in drawn]
    f = FnElt(curve, scalar, factors)
    firsts, want_scalar = {}, scalar  # first polynomial -> summed exponent
    for p, e in factors:
        if not p.total_degree:
            want_scalar *= p.coeff(0, 0) ** e
            continue
        first = next((q for q in firsts if _multiple_of(p, q)), p)
        total = firsts.get(first, 0) + e
        if total:
            firsts[first] = total
        else:
            firsts.pop(first, None)
        want_scalar *= _multiple_of(p, first) ** e
    assert f.factors == tuple(firsts.items())
    assert all(p.total_degree > 0 and e for p, e in f.factors)
    assert len(set(p.primitive_key() for p, _ in f.factors)) == len(f.factors)
    assert f.scalar == want_scalar and type(f.scalar) is F
    g = FnElt.constant(curve, scalar)
    for p, e in factors:
        g = g * FnElt.poly(curve, p) ** e
    assert (g.scalar, dict(g.factors)) == (f.scalar, dict(f.factors))


def test_a_difference_of_equal_polynomial_parts_is_constant(quartic):
    """The numerator of (f + 1) - f is a constant polynomial, which the
    normal form folds into the scalar; where f has a denominator, both
    sides are taken over the lcm of the denominators, not their product."""
    curve = quartic[0]
    fQ = FnElt.poly(curve, BiPoly.parse("y + x"))**4 / FnElt.poly(curve, BiPoly.y())
    for f in [FnElt.poly(curve, BiPoly.parse(text)) * F(-2, 3)
              for text in ("x", "y + x", "x^2 - 3/2*y + 1/8")] + [fQ]:
        one = (f + 1) - f
        assert one.is_constant() and one.constant_value() == 1
    # h = 2 * (2x)^-1 and f = 1/x hold different multiples of one denominator
    h, f = 2 * FnElt.poly(curve, BiPoly.x() * 2)**-1, FnElt.poly(curve, BiPoly.x())**-1
    one = (h + 1) - f
    assert one.is_constant() and one.constant_value() == 1


def test_a_quotient_of_rational_multiples_is_constant():
    """A polynomial and a rational multiple of it are one factor of the
    normal form, so their quotient is the constant multiplier."""
    curve = PlaneCurve(BiPoly.parse("y^3 - x^4 + x*y - 1/2"))
    x = FnElt.poly(curve, BiPoly.x())
    for q, c in ((FnElt.poly(curve, BiPoly.x() * 2) / x, 2), ((x - 2 * x) / x, -1)):
        assert q.is_constant() and q.constant_value() == c


def test_the_constructor_refuses_the_zero_function(quartic):
    curve = quartic[0]
    vanishing = curve.affine * BiPoly.x()
    with pytest.raises(PreconditionError, match="^zero function$"):
        FnElt(curve, 0)
    for poly in (BiPoly.zero(), vanishing):
        for e in (0, 1, 2):
            with pytest.raises(PreconditionError, match="^zero function$"):
                FnElt(curve, 1, [(BiPoly.y(), 1), (poly, e)])
        for e in (-1, -2):
            with pytest.raises(PreconditionError, match="^denominator vanishes on the curve$"):
                FnElt(curve, 1, [(poly, e)])


def test_divisor_of_vertical_line(quartic):
    curve, eng, pts = quartic
    f = FnElt.poly(curve, BiPoly.parse("x - 1/8"))
    div = eng.divisor(f, [pts["P"], pts["inf"]])
    assert div.nonzero() == {pts["P"]: 3, pts["inf"]: -3}


def test_divisor_of_tangent_quotient(quartic):
    curve, eng, pts = quartic
    f = FnElt.poly(curve, BiPoly.parse("y + x")) / FnElt.poly(curve, BiPoly.y())
    div = eng.divisor(f, [pts["Q"], pts["O"]])
    assert div.nonzero() == {pts["Q"]: 3, pts["O"]: -3}


def test_divisor_of_unit_is_empty(quartic):
    curve, eng, pts = quartic
    div = eng.divisor(FnElt.constant(curve, 1), list(pts.values()))
    assert div.nonzero() == {}


def test_incomplete_support_rejected(quartic):
    curve, eng, pts = quartic
    f = FnElt.poly(curve, BiPoly.parse("x - 1/8"))
    with pytest.raises(NonRationalSupportError, match="support incomplete"):
        eng.divisor(f, [pts["P"]])


@pytest.mark.parametrize("fP_first", [False, True])
def test_verify_k2t_checks_the_support_of_every_distinct_function(quartic, fP_first):
    """fP shares its scalar with fO, which closes over the declared support;
    fP does not, and must still be checked, before or after fO."""
    curve, eng, pts = quartic
    fO, fP, _ = blocks_of(curve, pts)
    pair = SymbolPair(fP, fO) if fP_first else SymbolPair(fO, fP)
    elem = K2Element([SymbolPair(fO, fO), pair], [pts["O"], pts["inf"]])
    with pytest.raises(NonRationalSupportError, match="support incomplete"):
        verify_k2t(curve, elem, engine=eng)


def test_ord_is_a_valuation(quartic):
    curve, eng, pts = quartic
    fO, fP, fQ = blocks_of(curve, pts)
    base = [fO, fP, fQ, fO / fP, fP * fQ]
    points = list(pts.values())
    for _ in range(100):
        f = base[rng.randrange(len(base))] ** rng.choice([-2, -1, 1, 2])
        g = base[rng.randrange(len(base))] ** rng.choice([-2, -1, 1, 2])
        p = points[rng.randrange(len(points))]
        assert eng.ord(f * g, p) == eng.ord(f, p) + eng.ord(g, p)
        try:
            s = f + g
        except PreconditionError:
            continue  # f = -g
        assert eng.ord(s, p) >= min(eng.ord(f, p), eng.ord(g, p))


# ---------------------------------------------------------------------------
# tame symbols
# ---------------------------------------------------------------------------

def test_tame_both_units_is_one(quartic):
    curve, eng, pts = quartic
    f = FnElt.constant(curve, F(3, 7))
    h = FnElt.constant(curve, F(-11, 2))
    for p in pts.values():
        assert eng.tame(SymbolPair(f, h), p) == 1


def test_tame_y_x_at_origin(quartic):
    curve, eng, pts = quartic
    y = FnElt.poly(curve, BiPoly.y())
    x = FnElt.poly(curve, BiPoly.x())
    assert eng.tame(SymbolPair(y, x), pts["O"]) == -64


def test_tame_antisymmetry(quartic):
    curve, eng, pts = quartic
    fO, fP, fQ = blocks_of(curve, pts)
    base = [fO, fP, fQ]
    points = list(pts.values())
    for _ in range(50):
        f = base[rng.randrange(3)] ** rng.choice([-2, -1, 1, 2, 3])
        h = base[rng.randrange(3)] ** rng.choice([-2, -1, 1, 2, 3])
        p = points[rng.randrange(len(points))]
        assert eng.tame(SymbolPair(f, h), p) * eng.tame(SymbolPair(h, f), p) == 1


def test_tame_bilinearity(quartic):
    curve, eng, pts = quartic
    fO, fP, fQ = blocks_of(curve, pts)
    base = [fO, fP, fQ, fO * fP]
    points = list(pts.values())
    for _ in range(50):
        f1 = base[rng.randrange(len(base))] ** rng.choice([-1, 1, 2])
        f2 = base[rng.randrange(len(base))] ** rng.choice([-1, 1, 2])
        h = base[rng.randrange(len(base))] ** rng.choice([-1, 1, 2])
        p = points[rng.randrange(len(points))]
        lhs = eng.tame(SymbolPair(f1 * f2, h), p)
        rhs = eng.tame(SymbolPair(f1, h), p) * eng.tame(SymbolPair(f2, h), p)
        assert lhs == rhs


def test_steinberg_relation(quartic):
    curve, eng, pts = quartic
    fO, fP, fQ = blocks_of(curve, pts)
    for f in (fO, fP, fO / fP, fQ * 3):
        for p, v in steinberg_values(curve, f, points=list(pts.values()), engine=eng):
            assert v == 1, (f, p.label())


# ---------------------------------------------------------------------------
# construction and verification
# ---------------------------------------------------------------------------

def make_triple(curve, eng, pts):
    fO, fP, fQ = blocks_of(curve, pts)
    h1 = fO**3 / fP**4
    t1 = TorsionFunction(h1, plus=pts["O"], minus=pts["P"], order=12)
    t2 = TorsionFunction(fP, plus=pts["P"], minus=pts["inf"], order=3)
    t3 = TorsionFunction(fO.inverse(), plus=pts["inf"], minus=pts["O"], order=4)
    return construction_torsion(curve, t1, t2, t3, engine=eng,
                                extra_support=[pts["Q"]])


def test_construction_symbols_certify(quartic):
    curve, eng, pts = quartic
    symbols = make_triple(curve, eng, pts)
    assert len(symbols) == 3
    for s in symbols:
        cert = verify_k2t(curve, s, engine=eng)
        assert cert.passed and cert.product == 1


def test_scaled_symbols_share_certificates(quartic):
    # the three symbols scaled by m_i give identical all-ones certificates
    curve, eng, pts = quartic
    symbols = make_triple(curve, eng, pts)
    orders = [12, 3, 4]
    total = lcm(*orders)
    certs = []
    for s, m in zip(symbols, orders):
        k = total // m
        scaled = K2Element([SymbolPair(t.f, t.h, t.coefficient * k) for t in s.terms],
                           list(s.declared_support))
        cert = verify_k2t(curve, scaled, engine=eng)
        assert cert.passed
        certs.append({p.label(): v for p, v in cert.point_totals.items()})
    assert certs[0] == certs[1] == certs[2]


def test_shape_mismatch_rejected(quartic):
    curve, eng, pts = quartic
    fO, fP, fQ = blocks_of(curve, pts)
    bad = TorsionFunction(fP, plus=pts["P"], minus=pts["inf"], order=2)  # truly 3
    t1 = TorsionFunction(fO**3 / fP**4, plus=pts["O"], minus=pts["P"], order=12)
    t3 = TorsionFunction(fO.inverse(), plus=pts["inf"], minus=pts["O"], order=4)
    with pytest.raises(PreconditionError, match="not a torsion triple"):
        construction_torsion(curve, t1, bad, t3, engine=eng)


def test_torsion_shape_names_each_point_that_differs(quartic):
    """One comparison of div(fn) with m (plus) - m (minus): the refusal
    names every point whose order differs, with both orders; with no minus
    point the poles at infinity are free."""
    curve, eng, pts = quartic
    fP = FnElt.poly(curve, BiPoly.parse("x - 1/8"))  # div 3(P) - 3(inf)
    support = eng.support_candidates([fP], extra=[pts["O"], pts["Q"]])
    P, Q, inf = pts["P"].label(), pts["Q"].label(), pts["inf"].label()
    verify_torsion_shape(eng, TorsionFunction(fP, plus=pts["P"], minus=None, order=3),
                         support)
    for tf, message in [
        (TorsionFunction(fP, plus=pts["P"], minus=pts["inf"], order=2),
         f"order 3 at {P}, expected 2; order -3 at {inf}, expected -2"),
        (TorsionFunction(fP, plus=pts["Q"], minus=None, order=3),
         f"order 0 at {Q}, expected 3; order 3 at {P}, expected 0"),
        (TorsionFunction(fP, plus=pts["P"], minus=pts["O"], order=3),
         f"order 0 at {pts['O'].label()}, expected -3; order -3 at {inf}, expected 0"),
    ]:
        with pytest.raises(PreconditionError) as ei:
            verify_torsion_shape(eng, tf, support)
        assert str(ei.value) == "not a torsion triple: " + message


def test_corrupted_element_fails_with_reciprocity(quartic):
    curve, eng, pts = quartic
    fP = FnElt.poly(curve, BiPoly.parse("x - 1/8"))
    y = FnElt.poly(curve, BiPoly.y())
    bad = K2Element([SymbolPair(fP, y, 1)],
                    [pts["O"], pts["P"], pts["inf"]])
    cert = verify_k2t(curve, bad, engine=eng)
    assert not cert.passed
    assert cert.point_totals[pts["P"]] != 1
    assert cert.product == 1  # reciprocity holds even for non-kernel symbols


def test_product_formula_on_random_symbols(quartic):
    curve, eng, pts = quartic
    fO, fP, fQ = blocks_of(curve, pts)
    base = [fO, fP, fQ]
    support = eng.support_candidates(base, extra=list(pts.values()))
    for _ in range(45):
        f = base[0]**rng.choice([-2, -1, 1, 2]) * base[1]**rng.choice([-1, 0, 1, 2])
        h = base[2]**rng.choice([-1, 1]) * base[0]**rng.choice([-1, 0, 1])
        pair = SymbolPair(f, h)
        prod = F(1)
        for p in support:
            prod *= eng.tame(pair, p)
        assert prod == 1


def test_engine_intersects_each_factor_once(monkeypatch):
    expected = record_to_json(gen_quartic_ct(2))
    calls = []
    real = symbols.rational_common_zeros

    def counting(f, g):
        calls.append(g)
        return real(f, g)

    monkeypatch.setattr(symbols, "rational_common_zeros", counting)
    rec = gen_quartic_ct(2)
    assert record_to_json(rec) == expected
    factors = {poly for e in rec.elements for s in e.symbols for t in s.terms
               for f in (t.f, t.h) for poly, _ in f.factors}
    assert len(calls) == len(set(calls)) and set(calls) == factors
    # the results live in their engine: a second engine on an equal curve
    # computes them again, and a shared component is remembered as None
    line, n = calls[0], len(calls)
    for _ in range(2):
        curve = PlaneCurve(BiPoly.parse(rec.curve.canonical()))
        eng = SymbolEngine(curve)
        zs = eng.affine_zeros(line)
        assert isinstance(zs, tuple) and eng.affine_zeros(line) is zs
        assert eng.affine_zeros(curve.affine) is None
        assert eng.affine_zeros(curve.affine * 3) is None
    assert calls[n:] == [line, curve.affine, curve.affine * 3] * 2


# ---------------------------------------------------------------------------
# contact (Nekovar-type) elements
# ---------------------------------------------------------------------------

def test_nekovar_3tor_element_and_kappa():
    r = F(2)
    rec = gen_nekovar_3tor(r)
    assert rec.all_pass
    elem = rec.elements[0]
    assert elem.meta["m"] == 3
    assert elem.meta["power_adjusted"] is True
    # kappa_i = 1/h(O)^6 = r^-6 shows up as the constant in the correction pair
    consts = [pair.f.constant_value() for pair in elem.symbols[0].terms
              if pair.f.is_constant()]
    assert consts == [F(1, 64)]


def test_nekovar_constancy_hypothesis_enforced():
    r = F(2)
    from k2forge.families import nekovar_3tor_curve
    curve, _ = nekovar_3tor_curve(r)
    eng = SymbolEngine(curve)
    tf = TorsionFunction(FnElt.poly(curve, BiPoly.y()),
                         plus=CurvePoint.affine(0, 0),
                         minus=eng.infinity_points()[0], order=3)
    # y = (17/2)x - 2 meets the curve at the rational points (0,-2), (4,32),
    # (1/4,1/8) whose y-values are not constant up to sign
    bad_line = BiPoly.y() - BiPoly.x() * F(17, 2) + BiPoly.const(2)
    with pytest.raises(PreconditionError, match="constancy hypothesis"):
        nekovar_element(curve, BiPoly.y(), bad_line, [tf], kappa=r, engine=eng)


@pytest.mark.parametrize("poly", ["x^2 - y^2 - 1", "x^3 + y^3 - 1"],
                         ids=["two-rational-points", "one-of-three-rational"])
def test_nekovar_maximal_contact_needs_one_rational_point_at_infinity(poly):
    """The hyperbola meets Z = 0 in (1:1:0) and (1:-1:0); the Fermat cubic
    in (1:-1:0) and two conjugate points."""
    curve = PlaneCurve(BiPoly.parse(poly))
    with pytest.raises(PreconditionError,
                       match="^maximal contact hypothesis fails: line at infinity must "
                             "meet the curve in one rational point$"):
        nekovar_element(curve, BiPoly.y(), BiPoly.x(), [], kappa=1)


def test_nekovar_needs_a_torsion_function_at_each_point_of_g():
    from k2forge.families import nekovar_3tor_curve
    curve, h_line = nekovar_3tor_curve(F(2))
    with pytest.raises(NonRationalSupportError,
                       match=r"^rational support required: no torsion function at \(0, 0\)$"):
        nekovar_element(curve, BiPoly.y(), h_line, [], kappa=2)


# ---------------------------------------------------------------------------
# places at infinity: chart intersection number against chart series
# ---------------------------------------------------------------------------

PLAN = _plan_curves()


@pytest.mark.parametrize("index, poly", [(0, "x"), (0, "y"), (5, "x"), (5, "y")])
def test_a_chart_valuation_shifted_by_one_is_caught(monkeypatch, index, poly):
    """Curve 0 has one place over (0:1:0), curve 5 two; the first chart
    series evaluated comes back with its valuation one too high."""
    eng = SymbolEngine(PLAN[index])
    p = eng.infinity_points()[0]
    real, calls = symbols.eval_series, []

    def shifted(g, s, w, prec):
        ser = real(g, s, w, prec)
        calls.append(prec)
        if len(calls) > 1:
            return ser
        return PowerSeries.from_ints(ser.val + 1, ser.nums, ser.den, ser.prec + 1)

    monkeypatch.setattr(symbols, "eval_series", shifted)
    with pytest.raises(VerificationError,
                       match=r"ord bookkeeping wrong at \(0:1:0\)#0: reduction gives \d+, "
                             r"series gives"):
        eng.val_lead(BiPoly.parse(poly), p)


def _doubling_val_lead(br, poly):
    """The rule val_lead used at infinity before its series were sized from
    the chart intersection number: evaluate poly on (x(t), y(t)) and double
    the truncation from 2 max(d, deg poly) + 4 until the result is nonzero."""
    d = br.curve.degree
    prec = 2 * max(d, poly.total_degree) + 4
    while True:
        x, y = br.xy(prec)
        ser = eval_series(poly, x, y, min(x.prec, y.prec))
        if not ser.is_zero():
            return ser.val, ser.leading()
        assert prec <= 8 * (poly.total_degree * d + d + 2) + 64
        prec = 2 * prec + 4


REFERENCE = [branches_at_infinity(c) for c in PLAN]


@pytest.mark.parametrize("index", range(len(PLAN)))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(terms=_CUBIC_TERMS)
def test_chart_rule_matches_the_doubling_rule_at_infinity(index, terms):
    """Ramified places, two places over one point, frame-less places and
    the points (1:0:0) and (1:1:0) are all among the plan curves."""
    curve, poly = PLAN[index], BiPoly(terms)
    assume(poly.total_degree > 0 and not curve.affine.divides(poly))
    eng = SymbolEngine(curve)
    for br in REFERENCE[index]:
        assert eng.val_lead(poly, br.point) == _doubling_val_lead(br, poly), br


# ---------------------------------------------------------------------------
# the engine's intersection table: both routes kept, each reduction once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index", range(len(PLAN)))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(f_terms=_CUBIC_TERMS, h_terms=_CUBIC_TERMS)
def test_tame_is_the_leading_coefficient_formula(index, f_terms, h_terms):
    """T_P = (-1)^(mn) lead_f^n / lead_h^m at every support point, also
    where both orders are 0 and no leading coefficient is taken."""
    curve = PLAN[index]
    polys = [BiPoly(t) for t in (f_terms, h_terms)]
    assume(all(p.total_degree > 0 and not curve.affine.divides(p) for p in polys))
    f, h = (FnElt.poly(curve, p) for p in polys)
    eng = SymbolEngine(curve)
    for p in eng.support_candidates([f, h]):
        m, lead_f = eng.fn_val_lead(f, p)
        n, lead_h = eng.fn_val_lead(h, p)
        want = F(-1) ** (m * n) * lead_f**n / lead_h**m
        got = SymbolEngine(curve).tame(SymbolPair(f, h), p)
        assert type(got) is F and got == want, (p, m, n)
        num, den = SymbolEngine(curve)._tame_ints(SymbolPair(f, h), p, (m, n))
        assert F(num, den) == want, (p, m, n)


@pytest.mark.parametrize("index", range(len(PLAN)))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(f_terms=_CUBIC_TERMS, h_terms=_CUBIC_TERMS)
def test_value_and_tame_are_never_zero(index, f_terms, h_terms):
    """Each leading coefficient is nonzero, so tame returns a unit at every
    support point, and value one wherever the function is a unit (also
    where its factors vanish and their orders cancel)."""
    curve = PLAN[index]
    polys = [BiPoly(t) for t in (f_terms, h_terms)]
    assume(all(p.total_degree > 0 and not curve.affine.divides(p) for p in polys))
    f, h = (FnElt.poly(curve, p) for p in polys)
    eng = SymbolEngine(curve)
    for p in eng.support_candidates([f, h]):
        assert eng.tame(SymbolPair(f, h), p) != 0, p
        for fn in (f, h, f / h):
            if eng.ord(fn, p) == 0:
                assert eng.value(fn, p) != 0, p


HYP_G4 = ["gen", "hyp-odd", "--genus", "4", "--a=1,-1/2,3/4,-1/3,4/3"]


def test_gen_hyp_odd_reduces_each_factor_once_per_point(monkeypatch, tmp_path):
    """Fulton's reduction runs at most once per (factor, projective point):
    the contact checks and the divisors share the engine's number."""
    runs = []
    real = curves.fulton_multiplicity

    def counting(f, g, bound):
        runs.append((f, g))
        return real(f, g, bound)

    monkeypatch.setattr(curves, "fulton_multiplicity", counting)
    monkeypatch.setattr(symbols, "fulton_multiplicity", counting)
    assert main(HYP_G4 + ["--out", str(tmp_path / "g4.json")]) == 0
    assert runs and len(runs) == len(set(runs))


def test_a_wrong_stored_intersection_number_is_caught(monkeypatch):
    """One more at an affine point no contact check reads: only the series
    route can disagree, and it must."""
    real, origin = SymbolEngine._meet, CurvePoint.affine(0, 0)

    def bumped(self, poly, place):
        i, local = real(self, poly, place)
        return (i + 1 if place.point == origin else i), local

    monkeypatch.setattr(SymbolEngine, "_meet", bumped)
    with pytest.raises(VerificationError, match=r"ord bookkeeping wrong at \(0, 0\)"):
        gen_hyp_odd(4, [1, F(-1, 2), F(3, 4), F(-1, 3), F(4, 3)])


G7 = ["gen", "hyp-odd", "--genus", "7", "--a=1,-1/2,3/4,-1/3,4/3,2/5,-3/2,5/3"]


def test_gen_hyp_odd_shifts_the_curve_once_per_affine_point(monkeypatch, tmp_path):
    """The branch's Newton equation and Fulton's reduction start from one
    shifted curve: the g=7 record has 8 affine points."""
    shifts = []
    real = BiPoly.shift

    def counting(self, x0, y0):
        if self.total_degree == 15 and (x0, y0) != (0, 0):
            shifts.append((x0, y0))
        return real(self, x0, y0)

    monkeypatch.setattr(BiPoly, "shift", counting)
    assert main(G7 + ["--out", str(tmp_path / "g7.json")]) == 0
    assert 0 < len(shifts) <= 8
    assert len(shifts) == len(set(shifts))


@pytest.mark.parametrize("argv", [G7, ["gen", "nekovar-3tor", "--r", "2"],
                                  ["gen", "nekovar-g2", "--r", "1/2"]],
                         ids=["hyp-odd-g7", "nekovar-3tor", "nekovar-g2"])
def test_gen_builds_the_chart_at_infinity_once(monkeypatch, tmp_path, argv):
    """The engine reads the chart its places at infinity keep: each curve
    has one point at infinity, (0:1:0), and its chart is built once.
    `symbols` builds no chart of its own."""
    assert not hasattr(symbols, "point_chart")
    charts = []
    real = curves.point_chart

    def counting(f, p):
        if not p.is_affine:
            charts.append((p.x, p.y))
        return real(f, p)

    for module in (curves, branches):
        monkeypatch.setattr(module, "point_chart", counting)
    assert main(argv + ["--out", str(tmp_path / "rec.json")]) == 0
    assert charts == [(0, 1)]


def test_value_refuses_an_affine_point_off_the_curve():
    """value has no evaluation of its own: off the curve it refuses, as
    val_lead does, even where every factor is nonzero."""
    curve = PlaneCurve(BiPoly.parse("y^2 - x^3 - 1"))
    f = FnElt.poly(curve, BiPoly.parse("x + 1"))
    eng = SymbolEngine(curve)
    with pytest.raises(PreconditionError, match=r"^point \(1, 1\) does not lie on the curve$"):
        eng.value(f, CurvePoint.affine(1, 1))
    assert eng.value(f, CurvePoint.affine(2, 3)) == 3


def test_shift_by_zero_is_the_polynomial_itself():
    p = BiPoly.parse("x^2*y - 3*x + 1/2")
    assert p.shift(0, 0) is p
    assert p.shift(0, 1) == p.substitute(BiPoly.x(), BiPoly.y() + BiPoly.const(1))


def test_a_factor_that_does_not_vanish_builds_no_branch(quartic, monkeypatch):
    """ord 0 and the value come from poly(P) alone."""
    curve, eng, pts = quartic
    built = []
    real = symbols.branch_at_affine

    def recording(c, p):
        built.append(p)
        return real(c, p)

    monkeypatch.setattr(symbols, "branch_at_affine", recording)
    eng = SymbolEngine(curve)
    p = pts["P"]
    poly = BiPoly.x() - BiPoly.const(1)
    assert eng.val_lead(poly, p) == (0, p.x - 1)
    assert built == [] and p not in eng._affine
    assert eng.val_lead(BiPoly.x() - BiPoly.const(p.x), p)[0] > 0
    assert built == [p]


# a node at (2, 1), whose branches have tangents y - 1 = +-(x - 2), and a
# cusp at (-1, 1/2)
_X, _Y, _C = BiPoly.x(), BiPoly.y(), BiPoly.const
_U, _V, _W = _X - _C(2), _Y - _C(1), _Y - _C(F(1, 2))
NODE = PlaneCurve(_V**2 - _U**2 - _U**3)
CUSP = PlaneCurve(_W**2 - (_X + _C(1))**3)


@pytest.mark.parametrize("curve, point, polys", [
    (NODE, CurvePoint.affine(2, 1), [(_U, 2), (_V, 2), (_V - _U, 3), (_V + _U, 3),
                                     ((_V - _U) * _V, 5), (_V**2 - _U**2, 6)]),
    (CUSP, CurvePoint.affine(-1, F(1, 2)), [(_X + _C(1), 2), (_W, 3), (_W * 2 - _X - _C(1), 2),
                                            (CUSP.affine + (_X + _C(F(1, 2))) * _W, 3)]),
])
def test_engine_intersection_at_a_singular_point(curve, point, polys):
    """No branch exists there, and Fulton's reduction still gives each
    number: the tangents of the node meet it 3 times, the cusp's tangent
    W = 0 meets it 3 times, and V^2 - U^2 = U^3 on the node 6 times."""
    eng = SymbolEngine(curve)
    with pytest.raises(PreconditionError, match="singular"):
        eng.branch(point)
    assert [curves.intersection_multiplicity(curve, poly, point) for poly, _ in polys] \
        == [m for _, m in polys]


def test_engine_intersection_off_the_curve_names_the_point():
    off, on = CurvePoint.affine(3, F(-1, 2)), CurvePoint.affine(2, 1)
    with pytest.raises(PreconditionError, match=r"empty intersection at point \(3, -1/2\)"):
        curves.intersection_multiplicity(NODE, _Y * 2 + _C(1), off)
    with pytest.raises(PreconditionError, match=r"empty intersection at point \(2, 1\)"):
        curves.intersection_multiplicity(NODE, _X + _Y, on)


def test_val_lead_refuses_an_off_curve_point_where_the_factor_does_not_vanish():
    """Order 0 needs no branch, but the point must still lie on the curve,
    as it must where the factor vanishes."""
    eng = SymbolEngine(NODE)
    off, poly = CurvePoint.affine(3, F(-1, 2)), _X + _Y + _C(7)
    assert poly(off.x, off.y) != 0
    for _ in range(2):  # the check is not skipped once it has run
        with pytest.raises(PreconditionError, match="does not lie on the curve"):
            eng.val_lead(poly, off)
    assert not eng._affine


def test_val_lead_at_a_singular_point_needs_a_branch_only_where_the_factor_vanishes():
    """A factor nonzero at the node is a unit there, of order 0 at every
    place over it; one that vanishes needs the branch, which does not exist."""
    eng, node = SymbolEngine(NODE), CurvePoint.affine(2, 1)
    assert eng.val_lead(_X + _Y + _C(7), node) == (0, 10)
    with pytest.raises(PreconditionError, match=r"point \(2, 1\) is singular"):
        eng.val_lead(_U, node)


# ---------------------------------------------------------------------------
# certificate arithmetic on integers, against a plain-Fraction reference
# ---------------------------------------------------------------------------

def _ref_val_lead(eng, f, p):
    val, lead = 0, f.scalar
    for poly, e in f.factors:
        v, l = eng.val_lead(poly, p)
        val, lead = val + e * v, lead * l**e
    return val, lead


def _ref_tame(eng, pair, p):
    (m, lead_f), (n, lead_h) = _ref_val_lead(eng, pair.f, p), _ref_val_lead(eng, pair.h, p)
    return F(-1) ** (m * n) * lead_f**n / lead_h**m


@pytest.fixture(scope="module")
def oracle_curves():
    """`quartic-lines 1/2,-1,0` and `nekovar-g2 --r 1/2` (two places over
    (0:1:0)), each with factors whose zeros are all rational, and the
    support that holds them all, so a drawn function has a complete one."""
    from k2forge.families import nekovar_genus2_curve, quartic_curve
    out = []
    for curve, pool in [(quartic_curve(*_thm53_polys(F(1, 2), F(-1), F(0))),
                         ["y", "x - 1/8", "y + x", "y - x"]),
                        (nekovar_genus2_curve(F(1, 2))[0], ["x", "y", "y - x + 1/2", "x - 1"])]:
        eng = SymbolEngine(curve)
        pool = [BiPoly.parse(t) for t in pool]
        support = [CurvePoint.affine(*z) for poly in pool for z in eng.affine_zeros(poly)]
        out.append((curve, eng, pool, eng.with_infinity(support)))
    return out


_SPEC = st.tuples(st.sampled_from([F(1), F(-1), F(2, 3), F(-5, 4), F(7)]),
                  st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=3))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(index=st.integers(0, 1),
       pairs=st.lists(st.tuples(_SPEC, _SPEC, st.integers(-3, 3)), min_size=1, max_size=3))
@example(index=0, pairs=[((F(-2, 3), [(0, -1), (2, 1)]), (F(5), [(3, 1)]), -2),
                         ((F(1), [(1, 2)]), (F(-1), []), 0)])
@example(index=1, pairs=[((F(-1), [(0, 1)]), (F(2, 3), [(1, -1), (2, 1)]), 3),
                         ((F(7), [(3, -1)]), (F(-5, 4), [(1, 1), (0, 2)]), -1)])
def test_integer_certificate_arithmetic_matches_a_fraction_reference(oracle_curves, index, pairs):
    """fn_val_lead, value, tame and verify_k2t's rows, totals, product and
    verdict equal plain-Fraction arithmetic on the same val_lead values.
    The two examples hold negative orders, negative leading coefficients,
    odd m*n, negative and zero pair coefficients and points where both
    orders are 0."""
    curve, eng, pool, support = oracle_curves[index]

    def fn(spec):
        scalar, factors = spec
        out = FnElt.constant(curve, scalar)
        for k, e in factors:
            out = out * FnElt.poly(curve, pool[k]) ** e
        return out

    terms = [SymbolPair(fn(f), fn(h), c) for f, h, c in pairs]
    ref_rows = []
    for p in support:
        for idx, pair in enumerate(terms):
            for f in (pair.f, pair.h):
                got, want = eng.fn_val_lead(f, p), _ref_val_lead(eng, f, p)
                assert got == want and type(got[1]) is F, (p, idx)
                if want[0]:
                    with pytest.raises(PreconditionError, match="not a unit"):
                        eng.value(f, p)
                else:
                    assert eng.value(f, p) == want[1]
            value = _ref_tame(eng, pair, p)
            got = eng.tame(pair, p)
            assert got == value and type(got) is F, (p, idx)
            ords = (eng.ord(pair.f, p), eng.ord(pair.h, p))
            ref_rows.append((p, idx, pair.coefficient, *ords, value**pair.coefficient))
    cert = verify_k2t(curve, K2Element(terms, support), engine=eng)
    assert [(r.point, r.pair_index, r.coefficient, r.ord_f, r.ord_h, r.value)
            for r in cert.rows] == ref_rows
    assert all(type(r.value) is F for r in cert.rows)
    ref_totals = {p: F(1) for p in support}
    for p, *_, value in ref_rows:
        ref_totals[p] *= value
    assert cert.point_totals == ref_totals
    assert all(type(v) is F for v in cert.point_totals.values())
    product = F(1)
    for v in ref_totals.values():
        product *= v
    assert cert.product == product and type(cert.product) is F
    assert cert.verdict == ("PASS" if all(v == 1 for v in ref_totals.values()) else "FAIL")


def test_a_refused_divisor_is_refused_again_on_the_same_engine(quartic):
    """The engine keeps divisors it found, per function factors and support,
    not refusals."""
    curve, eng, pts = quartic
    f = FnElt.poly(curve, BiPoly.parse("x - 1/8"))
    div = eng.divisor(f, [pts["P"], pts["inf"]])
    assert eng.divisor(f * 3, (pts["P"], pts["inf"])) is div
    assert eng.divisor(f, [pts["inf"], pts["P"]]) is not div
    elem = K2Element([SymbolPair(FnElt.poly(curve, BiPoly.parse("x - 1/8")),
                                 FnElt.constant(curve, 2))], [pts["P"]])
    for _ in range(2):
        with pytest.raises(NonRationalSupportError, match="support incomplete"):
            verify_k2t(curve, elem, engine=eng)


def test_verify_of_a_quartic_ct_record_counts_its_fractions_and_divisors(monkeypatch, tmp_path):
    """One `verify` builds a Fraction only where a row, a point total, the
    product or a public value needs one, and finds each function's divisor
    once: the record's 24 symbols hold 24 distinct functions, since the
    three symbols of a triple share theirs.  The `gen` that writes the
    record finds 24 too: the shape check of each torsion function and the
    certificate of each symbol read one divisor."""
    import fractions
    built, divisors = [0], [0]
    real_new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return real_new(cls, *args, **kwargs)

    class CountingDivisor(symbols.Divisor):  # built once per divisor found
        def __init__(self, *args, **kwargs):
            divisors[0] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(symbols, "Divisor", CountingDivisor)
    path = str(tmp_path / "ct.json")
    assert main(["gen", "quartic-ct", "--t", "0", "--out", path]) == 0
    assert divisors[0] == 24
    divisors[0] = 0
    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    code = main(["verify", path])
    monkeypatch.undo()
    assert code == 0
    assert built[0] <= 800
    assert divisors[0] == 24
