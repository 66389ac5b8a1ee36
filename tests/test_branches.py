"""Branch expansions: valuations at infinity, residuals, rationality."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k2forge import branches
from k2forge.bipoly import BiPoly
from k2forge.branches import (Branch, _eval_in_t, _horner, _newton_series, branch_at_affine,
                              branches_at_infinity, eval_series)
from k2forge.curves import CurvePoint, PlaneCurve, intersection_multiplicity, point_chart
from k2forge.errors import NonRationalSupportError, PreconditionError
from k2forge.linalg import vandermonde_solve
from k2forge.series import PowerSeries
from k2forge.symbols import SymbolEngine
from k2forge.unipoly import UniPoly


def hyp_odd_curve(g, a):
    nodes = [x * x for x in a]
    f1 = UniPoly(vandermonde_solve(nodes, [-2 * x**(2 * g + 1) for x in a]))
    return PlaneCurve(BiPoly.y(2) + BiPoly.from_unipoly(f1) * BiPoly.y()
                      + BiPoly.x(2 * g + 1))


def vals(branch, prec=10):
    x, y = branch.xy(prec)
    return x.valuation(), y.valuation()


def test_odd_model_single_branch_vals():
    c = hyp_odd_curve(2, [F(1), F(1, 2), F(1, 4)])
    brs = branches_at_infinity(c)
    assert len(brs) == 1
    assert vals(brs[0]) == (-2, -5)
    assert brs[0].residual_ok()


def test_odd_model_newton_substitution_oracle():
    """Independent route: substitute x = t^-2 and solve for y by hand-Newton.

    For y^2 + f1(x) y + x^5 = 0 the dominant balance forces y ~ -t^-5;
    iterate y <- -(y^2 + f1 y + x^5 - y)/1 ... here simply check that the
    branch series solves the dominant-term equation at the first two
    orders, which pins val(y) = -5 against val(x) = -2.
    """
    c = hyp_odd_curve(2, [F(1), F(1, 2), F(1, 4)])
    br = branches_at_infinity(c)[0]
    x, y = br.xy(12)
    assert x.valuation() == -2
    # y^2 must cancel against x^5 at the leading order
    lead_y2 = y.leading() ** 2
    lead_x5 = x.leading() ** 5
    assert 2 * y.valuation() == 5 * x.valuation()
    assert lead_y2 == -lead_x5


def test_quartic_unique_smooth_point_at_infinity():
    a, b, c = F(1, 2), F(-1), F(0)
    f1 = UniPoly([a**6 * b**6, 0, 3 * a**2 - b**6])
    f2 = UniPoly([3 * a**4])
    q = PlaneCurve(BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                   + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))
    brs = branches_at_infinity(q)
    assert len(brs) == 1
    assert brs[0].point == CurvePoint.at_infinity(0, 1, 0)
    assert vals(brs[0]) == (-3, -4)
    assert brs[0].residual_ok()


def test_weierstrass_standard_vals():
    w = PlaneCurve(BiPoly.parse("y^2 - x^3 - x - 1"))
    brs = branches_at_infinity(w)
    assert len(brs) == 1
    assert vals(brs[0]) == (-2, -3)
    assert brs[0].residual_ok()


def test_even_model_one_ramified_branch():
    g = 1
    a = [F(1), F(2)]
    w = [-4 * x**(g + 1) for x in a]  # eps = +1
    f1 = UniPoly(vandermonde_solve(a, w)) + UniPoly.x(g + 1) * 2
    c = PlaneCurve(BiPoly.y(2) + BiPoly.from_unipoly(f1) * BiPoly.y()
                   + BiPoly.x(2 * g + 2))
    brs = branches_at_infinity(c)
    assert len(brs) == 1
    assert vals(brs[0]) == (-2, -4)
    assert brs[0].residual_ok()


def test_two_branches_for_cubic_f1():
    r = F(1, 2)
    f1 = UniPoly([r, -1, 0, -4 * r])
    c = PlaneCurve(BiPoly.y(2) + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(5))
    brs = branches_at_infinity(c)
    assert len(brs) == 2
    assert sorted(v[1] for v in map(vals, brs)) == [-3, -2]
    assert all(v[0] == -1 for v in map(vals, brs))
    assert all(b.residual_ok() for b in brs)
    # deterministic branch indexing
    assert [b.point.branch for b in brs] == [0, 1]


def test_irrational_infinity_rejected():
    # X^2 - 2 Y^2 = 0 at infinity: no rational point there
    c = PlaneCurve(BiPoly.parse("x^2 - 2*y^2 + y + 1"))
    with pytest.raises(NonRationalSupportError, match="non-rational branch"):
        branches_at_infinity(c)


def test_affine_branch_solves_curve():
    c = hyp_odd_curve(2, [F(1), F(1, 2), F(1, 4)])
    p = CurvePoint.affine(F(1), F(1))
    assert c.contains(p)
    br = branch_at_affine(c, p)
    x, y = br.xy(12)
    assert eval_series(c.affine, x, y, min(x.prec, y.prec)).is_zero()
    # vertical tangent at this Weierstrass point: x - 1 vanishes doubly
    assert (x - PowerSeries.const(1, x.prec)).valuation() == 2


def test_branch_parametrization_residuals_across_models():
    curves = [
        hyp_odd_curve(1, [F(1), F(2)]),
        PlaneCurve(BiPoly.parse("y^2 + 2*y - x*y + x^3")),
    ]
    for c in curves:
        for br in branches_at_infinity(c):
            assert br.residual_ok()


small_rats = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(small_rats, min_size=9, max_size=9), small_rats, small_rats,
       st.integers(2, 14), st.data())
def test_newton_series_solves_and_truncates(coeffs, px, py, n, data):
    """A random cubic through (px, py), shifted there: v at precision n
    solves h(t, v) = O(t^n), and truncated to m < n it is the run at m."""
    monos = [(i, j) for i in range(4) for j in range(4 - i) if (i, j) != (0, 0)]
    f = BiPoly(dict(zip(monos, coeffs)))
    f = f - BiPoly.const(f(px, py))
    assume(f.partial("y")(px, py) != 0)
    h = f.substitute(BiPoly.x() + BiPoly.const(px), BiPoly.y() + BiPoly.const(py))
    v = _newton_series(h, n)
    assert v.prec == n and (v.is_zero() or v.val >= 1)
    assert eval_series(h, PowerSeries.t_power(1, n), v, n).is_zero()
    m = data.draw(st.integers(1, n - 1))
    assert v.truncate(m) == _newton_series(h, m)


def _counting_newton(monkeypatch):
    calls = []
    real = branches._newton_series

    def counted(h, prec):
        calls.append(prec)
        return real(h, prec)

    monkeypatch.setattr(branches, "_newton_series", counted)
    return calls


HYP_ODD_A = [F(1), F(-1, 2), F(3, 4), F(-1, 3), F(4, 3), F(2, 5)]


def _plan_curves():
    out = [hyp_odd_curve(g, HYP_ODD_A[:g + 1]) for g in range(2, 6)]
    # ramified place (test_even_model_one_ramified_branch) and two places
    # over one point (test_two_branches_for_cubic_f1)
    f1 = UniPoly(vandermonde_solve([F(1), F(2)], [F(-4), F(-16)])) + UniPoly.x(2) * 2
    out.append(PlaneCurve(BiPoly.y(2) + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4)))
    f1 = UniPoly([F(1, 2), -1, 0, -2])
    out.append(PlaneCurve(BiPoly.y(2) + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(5)))
    # places with no polygon frame (in both charts), and places over
    # (1:0:0) and (1:1:0)
    for poly in ("y^2 - x^3 - x - 1", "x*y^2 + y - x^2 + 1", "x*y^2 - x^2*y + y + 1"):
        out.append(PlaneCurve(BiPoly.parse(poly)))
    # two places over (0:1:0) with equal valuations, told apart by lead y
    out.append(PlaneCurve(BiPoly.parse("y^2 - x^4 - 1")))
    return out


def test_xy_reaches_requested_precision_in_one_run(monkeypatch):
    calls = _counting_newton(monkeypatch)
    for c in _plan_curves():
        d = c.degree
        for br in branches_at_infinity(c):
            for prec in (1, 2, 5, 2 * d + 6, 2 * d + 7):
                fresh = Branch(c, br.point, br.chart, br.frames, br.final)
                calls.clear()
                x, y = fresh.xy(prec)
                assert len(calls) == 1, (c, br, prec)
                assert x.prec >= prec and y.prec >= prec, (c, br, prec)
                assert fresh.residual_ok(prec), (c, br, prec)


def _same_point(a, b):
    return (a.point.x, a.point.y) == (b.point.x, b.point.y)


def test_only_places_that_share_a_point_run_newton_to_be_ordered(monkeypatch):
    """A point with one place needs no series; places that share a point
    run Newton once each, and their order is the one the (val y, val x,
    lead y, lead x) of their coordinate series give."""
    calls = _counting_newton(monkeypatch)
    n_shared = 0
    for c in _plan_curves():
        calls.clear()
        brs = branches_at_infinity(c)
        shared = [br for br in brs if sum(_same_point(br, b) for b in brs) > 1]
        assert len(calls) == len(shared), c
        n_shared += len(shared)
        for br in shared:
            keys = []
            for b in brs:
                if _same_point(br, b):
                    x, y = b.xy(2 * c.degree + 6)
                    keys.append((y.val, x.val, y.leading(), x.leading()))
            assert keys == sorted(keys), c
    assert n_shared > 0


def test_val_lead_at_infinity_asks_for_max_of_i_and_val_w_plus_one_terms(monkeypatch):
    asked = []
    real = Branch.chart_series

    def counted(self, prec):
        asked.append((self.point, prec))
        return real(self, prec)

    monkeypatch.setattr(Branch, "chart_series", counted)
    polys = [BiPoly.parse(s) for s in ("x", "y", "x + y", "y - x^2", "x*y - 1", "x^2 + 2*y")]
    for c in _plan_curves():
        for poly in polys:
            for p in SymbolEngine(c).infinity_points():
                eng = SymbolEngine(c)
                places = [br for br in (eng.branch(q) for q in eng.infinity_points())
                          if _same_point(br, eng.branch(p))]
                try:
                    i = intersection_multiplicity(c, poly, p)
                except PreconditionError:  # poly^hom does not pass through p
                    i = 0
                asked.clear()
                eng.val_lead(poly, p)
                assert asked == [(br.point, max(i, br.w_val) + 1) for br in places], (c, poly, p)


# ---------------------------------------------------------------------------
# Horner row cut and local-coordinate evaluation against full Horner
# ---------------------------------------------------------------------------

def _full_horner(coeffs, v, prec):
    """sum_j coeffs[j] * v^j truncated to prec, every row evaluated."""
    acc = PowerSeries.zero(prec)
    for c in reversed(coeffs):
        acc = (acc * v + c).truncate(prec)
    return acc


def _full_eval_series(p, s, v, prec):
    return _full_horner([_full_horner([PowerSeries.from_ints(0, (a,), p.den, prec) for a in r],
                                      s, prec)
                         for r in p.rows_in("y")], v, prec)


@st.composite
def _series(draw, vals=st.integers(-2, 3)):
    """A Laurent series of any valuation (0, positive, a pole, or zero to
    its truncation), known to a random number of terms."""
    val = draw(vals)
    prec = val + draw(st.integers(0, 8))
    nums = draw(st.lists(st.integers(-4, 4), max_size=prec - val))
    return PowerSeries.from_ints(val, nums, draw(st.integers(1, 4)), prec)


_ROWS = st.lists(st.lists(st.integers(-5, 5), max_size=5), min_size=1, max_size=6)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rows=_ROWS, den=st.integers(1, 6), v=_series(), prec=st.integers(1, 9))
def test_eval_in_t_row_cut_matches_full_horner(rows, den, v, prec):
    """Equal as series, precision included, whether or not v has positive
    valuation or is known to prec terms."""
    full = _full_horner([PowerSeries.from_ints(0, r, den, prec) for r in rows], v, prec)
    assert _eval_in_t(rows, den, v, prec) == full


_CUBIC = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: sum(k) <= 3),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=6)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(terms=_CUBIC, s=_series(), v=_series(), prec=st.integers(1, 9))
def test_eval_series_row_cut_matches_full_horner(terms, s, v, prec):
    """Including Laurent s or v, where a row coefficient has a pole and
    the outer rows must not be cut."""
    p = BiPoly(terms)
    assert eval_series(p, s, v, prec) == _full_eval_series(p, s, v, prec)


def _ps(val, nums, den, prec):
    return PowerSeries.from_ints(val, nums, den, prec)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(coeffs=st.lists(_series(st.integers(0, 10)), max_size=5), v=_series(),
       prec=st.integers(0, 9), pad=st.integers(0, 2))
# v of valuation 0, above 0, and with a pole (the Laurent residual_ok case)
@example(coeffs=[_ps(0, [1, 2], 3, 6), _ps(1, [5], 1, 6)], v=_ps(0, [2, 1], 5, 6), prec=6, pad=0)
@example(coeffs=[_ps(0, [1], 1, 6), _ps(1, [1], 1, 6)], v=_ps(1, [1], 1, 3), prec=6, pad=1)
@example(coeffs=[_ps(0, [2, 0, 1], 1, 9), _ps(0, [1, 1], 2, 9), _ps(0, [-3], 1, 9)],
         v=_ps(-1, [1, 0, 2], 1, 8), prec=9, pad=0)
# zero coefficients, a zero series v, and v known to fewer terms than prec
@example(coeffs=[_ps(0, [0, 0, 3], 1, 5), _ps(5, [], 1, 5), _ps(0, [1], 2, 5)],
         v=_ps(1, [4], 3, 3), prec=5, pad=2)
@example(coeffs=[_ps(0, [1, 2], 1, 5), _ps(0, [3], 1, 5)], v=_ps(4, [], 1, 4), prec=5, pad=0)
# prec at or below the valuations of v and of the coefficients
@example(coeffs=[_ps(3, [1, 1], 2, 9), _ps(4, [1], 1, 9)], v=_ps(3, [1], 1, 8), prec=3, pad=0)
@example(coeffs=[], v=_ps(1, [1], 1, 5), prec=2, pad=0)
def test_integer_horner_matches_per_step_power_series(coeffs, v, prec, pad):
    """The integer Horner gives the PowerSeries steps (acc * v + c).truncate(prec)
    to the last bit: value, valuation and precision, also when a row starts
    with `pad` zeros, as integer rows do."""
    den = lcm(1, *(c.den for c in coeffs))
    rows = [(c.val - pad, [0] * pad + [n * (den // c.den) for n in c.nums], c.prec)
            for c in coeffs]
    val, nums, top, k = _horner(rows, v, prec)
    assert PowerSeries.from_ints(val, nums, den * k, top) == _full_horner(coeffs, v, prec)


def test_residual_with_laurent_coordinates_is_not_cut():
    """residual_ok at infinity evaluates on Laurent (x, y), x with a pole."""
    c = PlaneCurve(BiPoly.parse("x*y^2 - x^2*y + y + 1"))
    (br,) = [b for b in branches_at_infinity(c) if (b.point.x, b.point.y) == (1, 0)]
    for prec in (1, 2, 5, 2 * c.degree + 6, 2 * c.degree + 7):
        x, y = br.xy(prec)
        assert x.val < 0
        n = min(x.prec, y.prec)
        got = eval_series(c.affine, x, y, n)
        assert got == _full_eval_series(c.affine, x, y, n) and got.is_zero()


def _gradient(c, p):
    return c.affine.partial("x")(p.x, p.y), c.affine.partial("y")(p.x, p.y)


def _kind(br):
    """A place's kind: its chart's name, and at an affine point whether the
    Newton series gives y (a non-vertical tangent) or x."""
    if br.chart[0] == "Z":
        return "affine-x" if br.swap else "affine-y"
    return "inf-" + br.chart[0]


def _smooth_affine_points():
    """(curve, point) for the smooth affine points of the plan curves with
    a small x, sorted by branch kind."""
    xs = sorted({F(p, q) for p in range(-6, 7) for q in range(1, 5)})
    out = {"affine-y": [], "affine-x": []}
    for c in _plan_curves():
        for x0 in xs:
            for y0, _ in c.affine.eval_x(x0).rational_roots():
                p = CurvePoint.affine(x0, y0)
                if _gradient(c, p) != (0, 0):
                    out[_kind(branch_at_affine(c, p))].append((c, p))
    return out


SMOOTH_POINTS = _smooth_affine_points()


def test_every_place_keeps_the_chart_of_its_point():
    """Affine or at infinity, a Branch's chart is point_chart of the curve
    at its projective point, and its xy series start at that point."""
    places = [(c, br, CurvePoint.at_infinity(br.point.x, br.point.y))
              for c in _plan_curves() for br in branches_at_infinity(c)]
    places += [(c, branch_at_affine(c, p), p) for pts in SMOOTH_POINTS.values() for c, p in pts]
    assert {_kind(br) for _, br, _ in places} == {"affine-y", "affine-x", "inf-Y", "inf-X"}
    for c, br, point in places:
        assert br.chart == point_chart(c.affine, point), br
        if point.is_affine:
            x, y = br.xy(2)
            assert (x.coeff(0), y.coeff(0)) == (point.x, point.y), br


@pytest.mark.parametrize("poly, point", [("y^2 - x^2*y - y", (5, 0)),
                                         ("x^2 - x*y^2 - x", (0, 5))],
                         ids=["horizontal", "vertical"])
def test_a_smooth_point_on_a_line_component_has_a_branch(poly, point):
    """On the line y = 0 the chart has no term free of v, so the place's
    valuation must not be read before it is asked for; on x = 0 the
    tangent is vertical, and the Newton polygon would refuse the chart."""
    c = PlaneCurve(BiPoly.parse(poly))
    br = branch_at_affine(c, CurvePoint.affine(*point))
    x, y = br.xy(4)
    assert (x.coeff(0), y.coeff(0)) == point
    assert br.residual_ok(4)


def _reference_xy(c, p, n):
    """(t + x0, v + y0), with v the Newton series of the curve shifted to
    p, or (v + x0, t + y0) on the swapped shifted curve at a vertical
    tangent."""
    local = c.affine.shift(p.x, p.y)
    vertical = not local.nums.get((0, 1))
    v = _newton_series(local.substitute(BiPoly.y(), BiPoly.x()) if vertical else local, n)
    t = PowerSeries.t_power(1, v.prec)
    x, y = (v, t) if vertical else (t, v)
    return x + PowerSeries.const(p.x, v.prec), y + PowerSeries.const(p.y, v.prec)


@pytest.mark.parametrize("kind", ["affine-y", "affine-x"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data(), n=st.integers(2, 12))
def test_affine_xy_agrees_with_the_reference_rule(kind, data, n):
    c, p = data.draw(st.sampled_from(SMOOTH_POINTS[kind]))
    got = branch_at_affine(c, p).xy(n)
    assert [a.truncate(n) for a in got] == [a.truncate(n) for a in _reference_xy(c, p, n)]


_CUBIC_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda k: sum(k) <= 3),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=5)


@pytest.mark.parametrize("kind", ["affine-y", "affine-x"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(data=st.data(), terms=_CUBIC_TERMS, k=st.integers(0, 2))
def test_local_coordinates_give_the_series_val_lead(kind, data, terms, k):
    """val_lead evaluates the factor expanded about P on (x - x0, y - y0);
    that must give what the factor itself gives on (x, y), also where the
    expansion changes the denominator.  Tangent powers raise the order."""
    curve, p = data.draw(st.sampled_from(SMOOTH_POINTS[kind]))
    fx, fy = _gradient(curve, p)
    tangent = BiPoly({(1, 0): fx, (0, 1): fy, (0, 0): -fx * p.x - fy * p.y})
    poly = BiPoly(terms) * tangent**k
    poly = poly - BiPoly.const(poly(p.x, p.y))
    assume(not poly.is_zero() and poly.total_degree > 0 and not curve.affine.divides(poly))
    assume(poly.shift(p.x, p.y).den != poly.den)
    m = intersection_multiplicity(curve, poly, p)
    x, y = branch_at_affine(curve, p).xy(m + 1)
    ser = eval_series(poly, x, y, m + 1)
    assert SymbolEngine(curve).val_lead(poly, p) == (ser.val, ser.leading()) == (m, ser.leading())


def _all_pairs_edges(support):
    """The Newton polygon's edges by their definition: every slope mu > 0
    through two exponents, kept where the minimum of i + mu*j over the
    support is taken at two or more values of j."""
    slopes = {F(i2 - i1, j1 - j2) for (i1, j1) in support for (i2, j2) in support
              if j1 != j2 and F(i2 - i1, j1 - j2) > 0}
    edges = []
    for mu in sorted(slopes):
        nu = min(i + mu * j for i, j in support)
        edge = [(i, j) for (i, j) in support if i + mu * j == nu]
        if len({j for _, j in edge}) >= 2:
            edges.append((mu, edge))
    return edges


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=14,
                unique=True))
def test_polygon_hull_walk_matches_all_pairs_edges(support):
    assert branches._polygon_edges(support) == _all_pairs_edges(support)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=14,
                unique=True))
def test_edge_exponents_step_by_the_slope_denominator(support):
    """i + mu*j is equal at every point of an edge and mu = q/e in lowest
    terms, so e divides j - j0: psi's exponents (j - j0)/e are exact."""
    for mu, edge in branches._polygon_edges(support):
        j0 = min(j for _, j in edge)
        assert all((j - j0) % mu.denominator == 0 for _, j in edge), (mu, edge)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(terms=st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 4)),
                             st.integers(-9, 9).filter(bool), min_size=1, max_size=8),
       e=st.integers(1, 3), q=st.integers(1, 4),
       lam=st.fractions(-4, 4, max_denominator=3).filter(bool),
       m=st.fractions(-4, 4, max_denominator=3).filter(bool))
def test_shift_frame_divides_out_exactly_the_least_power_of_s(terms, e, q, lam, m):
    """The substituted polynomial is s^k times the frame's result, which has
    a term free of s: k is the least s-exponent, so the division is exact."""
    h = BiPoly(terms)
    g = h.substitute(BiPoly({(e, 0): lam}), BiPoly({(q, 0): m, (q, 1): F(1)}))
    h1 = branches._shift_frame(h, e, q, lam, m)
    k = min(i for i, _ in g.nums)
    assert h1 * BiPoly.x(k) == g
    assert min(i for i, _ in h1.nums) == 0


@settings(derandomize=True, deadline=None, max_examples=150)
@given(planted=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4),
                                  st.fractions(-3, 3, max_denominator=3).filter(bool))
                        .filter(lambda t: gcd(t[0], t[1]) == 1), min_size=1, max_size=3),
       unit=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
                            st.integers(-3, 3).filter(bool), max_size=3))
def test_every_edge_root_shifts_to_a_polynomial_vanishing_at_the_origin(planted, unit):
    """_polygon_places recurses on h1 = _shift_frame(h, ...) at each
    rational root rho of an edge polynomial psi, and h1(0, 0) is
    rho^k psi(rho) = 0, so every recursive call is at a point of its curve.
    h is a unit times factors v^e - c s^q (e, q coprime), so the edge of
    slope q/e has the root c."""
    h = BiPoly({**unit, (0, 0): 1})
    for e, q, c in planted:
        h = h * BiPoly({(0, e): 1, (q, 0): -c})
    roots = set()
    for mu, edge in branches._polygon_edges(list(h.nums)):
        e, q = mu.denominator, mu.numerator
        j0 = min(j for _, j in edge)
        psi_terms = {(j - j0) // e: h.coeff(i, j) for i, j in edge}
        psi = UniPoly([psi_terms.get(k, F(0)) for k in range(max(psi_terms) + 1)])
        alpha = -pow(q, -1, e) % e
        for rho, _ in psi.rational_roots():
            h1 = branches._shift_frame(h, e, q, rho**alpha, rho ** ((1 + alpha * q) // e))
            assert h1(0, 0) == 0, (mu, rho)
            roots.add((mu, rho))
    assert roots == {(F(q, e), c) for e, q, c in planted}
