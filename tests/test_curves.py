"""Plane-curve layer: membership, smoothness, intersections, tangents."""

import importlib.util
import random
import sys
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from k2forge import curves
from k2forge.bipoly import BiPoly
from k2forge.curves import (Conic, CurvePoint, PlaneCurve, fulton_multiplicity,
                            intersection_multiplicity, is_on_curve, point_chart,
                            smoothness_check, tangent_line)
from k2forge.errors import PreconditionError, VerificationError
from k2forge.families import ct_equation, _thm53_polys
from k2forge.unipoly import UniPoly

rng = random.Random(4242)


def thm53_curve(a, b, c):
    f1, f2 = _thm53_polys(F(a), F(b), F(c))
    return PlaneCurve(BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
                      + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_on_curve_marked_point():
    c = thm53_curve(F(1, 2), -1, 0)
    assert is_on_curve(c, CurvePoint.affine(F(1, 8), F(-1, 16)))
    assert is_on_curve(c, CurvePoint.affine(0, 0))


def test_not_on_curve():
    c = PlaneCurve(BiPoly.parse("y^2 + y + x^3"))
    assert not is_on_curve(c, CurvePoint.affine(1, 1))


def _product_of_lines(*lines):
    out = BiPoly.const(1)
    for u, v, w in lines:
        out = out * BiPoly.line(u, v, w)
    return out


X, Y = BiPoly.x(), BiPoly.y()


@pytest.mark.parametrize("f, squarefree", [
    ((X - BiPoly.const(5)) * (X - BiPoly.const(5)) * Y, False),
    (Y * Y * Y * (X - BiPoly.const(2)), False),
    (BiPoly.parse("-x^2*y^2 - x^4"), False),
    # eight distinct lines: a fixed table of these eight sections sees only zeros
    (_product_of_lines((0, -1, 1), (1, 0, 0), (1, -1, 0), (3, -1, -4), (1, -2, 5),
                       (2, -1, 1), (-1, -3, 7), (2, -5, -2)), True),
], ids=["(x-5)^2*y", "y^3*(x-2)", "-x^2*(x^2+y^2)", "eight-lines"])
def test_squarefree_check_is_exact(f, squarefree):
    if squarefree:
        PlaneCurve(f)
    else:
        with pytest.raises(PreconditionError, match="repeated factor"):
            PlaneCurve(f)


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def test_ct_smoothness_verdicts():
    for t in range(-5, 6):
        rep = smoothness_check(PlaneCurve(ct_equation(t)))
        assert rep.smooth == (t not in (1, -3)), t


def test_elliptic_smooth_matches_disc_oracle():
    # complete the square: y^2 + y + x^3 = 0  <=>  Y^2 = -x^3 + 1/4
    c = PlaneCurve(BiPoly.parse("y^2 + y + x^3"))
    assert UniPoly([F(1, 4), 0, 0, -1]).discriminant() != 0
    assert smoothness_check(c).smooth


@pytest.mark.parametrize("poly, witness", [
    # nodal cubic y^2 = x^3 + x^2 has the rational singular point (0,0)
    pytest.param("y^2 - x^3 - x^2", CurvePoint.affine(0, 0), id="y^2 - x^3 - x^2"),
    # singular points at infinity, found in the charts Y=1 and X=1
    pytest.param("y^2 - x^5 - 1", CurvePoint.at_infinity(0, 1), id="y^2 - x^5 - 1"),
    pytest.param("x^2 - y^5 - 1", CurvePoint.at_infinity(1, 0), id="x^2 - y^5 - 1"),
])
def test_singular_witness_rational(poly, witness):
    rep = smoothness_check(PlaneCurve(BiPoly.parse(poly)))
    assert not rep.smooth and rep.witness == witness


@pytest.mark.parametrize("poly, witnesses", [
    ("x^2*y + x*y^2 - x*y", {(0, 0), (1, 0), (0, 1)}),  # lines x=0, y=0, x+y=1
    ("x*y", {(0, 0)}),
])
def test_singular_witness_where_line_components_cross(poly, witnesses):
    # f shares a component with f_x and with f_y, so neither pair has
    # finitely many common zeros; the witness comes from f_x = f_y = 0
    rep = smoothness_check(PlaneCurve(BiPoly.parse(poly)))
    assert not rep.smooth
    assert (rep.witness.x, rep.witness.y) in witnesses


@pytest.mark.parametrize("poly, smooth, witness", [
    ("-2*y^3 - x^2*y + 2*x*y + x^2 - x", True, None),
    ("-y^3 - x^2*y + x^2 + 3*y - x", True, None),
    # a line meeting a conic in two conjugate points: f shares the line
    # with f_x, and the gcd takes in Res_y(f_x, f_y)
    pytest.param("x^2*y - 3*y^2 + x*y - 3*y", False, UniPoly([-3, 1, 1]),
                 id="x^2*y - 3*y^2 + x*y - 3*y-False-non-rational singular locus"),
    pytest.param("-3*x*y^2 + x^2*y + 2*y", False, UniPoly([2, 0, 1]),
                 id="-3*x*y^2 + x^2*y + 2*y-False-non-rational singular locus"),
    ("x*y^2 + x^2*y - x*y", False, CurvePoint.affine(0, 0)),
])
def test_reports_where_the_macaulay_minor_vanishes(poly, smooth, witness):
    # Macaulay's extraneous minor vanishes in original coordinates for
    # each of these, so Macaulay's determinant alone decides none of them
    rep = smoothness_check(PlaneCurve(BiPoly.parse(poly)))
    assert (rep.smooth, rep.witness) == (smooth, witness)


small = st.integers(-3, 3)


@st.composite
def small_curves(draw):
    """Cubics and quartics: generic, singular at a chosen rational point,
    or products of two curves."""
    d = draw(st.sampled_from([3, 4]))
    kind = draw(st.sampled_from(["generic", "singular", "product"]))

    def form(deg, low=0):
        return BiPoly({(i, j): draw(small) for i in range(deg + 1)
                       for j in range(deg + 1 - i) if i + j >= low})

    if kind == "generic":
        f = form(d)
    elif kind == "singular":
        x0, y0 = draw(small), draw(small)
        f = form(d, low=2).substitute(X - BiPoly.const(x0), Y - BiPoly.const(y0))
    else:
        e = draw(st.sampled_from([1, 2]))
        f = form(e) * form(d - e)
    assume(f.total_degree == d)
    try:
        return PlaneCurve(f)
    except PreconditionError:
        assume(False)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_curves())
def test_modular_first_report_matches_exact_route(curve):
    with mock.patch.object(curves, "macaulay_nonzero", lambda hom: False):
        exact = smoothness_check(curve)
    assert smoothness_check(curve) == exact


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_curves())
def test_reports_do_not_depend_on_the_prime(curve):
    # modulo 7 the Macaulay determinant vanishes for about half of these
    # curves, smooth ones included, so both routes run
    expected = smoothness_check(curve)
    with mock.patch.object(curves, "_PRIME", 7):
        assert smoothness_check(curve) == expected


def _dense_invertible_mod(matrix, p):
    """Reference: Gaussian elimination on the dense matrix modulo p."""
    m = [[v % p for v in row] for row in matrix]
    n = len(m)
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return False
        m[c], m[r] = m[r], m[c]
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[c])]
    return True


@st.composite
def square_int_matrices(draw):
    """Integer matrices with planted structure: a zero row or column, a row
    that is a combination of two others, or a zero leading entry, which
    forces a row swap in dense elimination."""
    n = draw(st.integers(1, 7))
    entries = st.integers(-9, 9) | st.sampled_from([0, 7, -14, curves._PRIME])
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["plain", "zero row", "zero column", "dependent",
                                 "swap"]))
    i = draw(st.integers(0, n - 1))
    if kind == "zero row":
        m[i] = [0] * n
    elif kind == "zero column":
        for row in m:
            row[i] = 0
    elif kind == "dependent" and n >= 3:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        j, k = [r for r in range(n) if r != i][:2]
        m[i] = [a * u + b * v for u, v in zip(m[j], m[k])]
    elif kind == "swap":
        m[0][0] = 0
    return m


@settings(derandomize=True, deadline=None, max_examples=300)
@given(square_int_matrices(), st.sampled_from([7, curves._PRIME]))
def test_sparse_elimination_matches_dense_reference(matrix, p):
    rows = [{c: v % p for c, v in enumerate(row) if v % p} for row in matrix]
    assert curves._invertible_mod(rows, p) == _dense_invertible_mod(matrix, p)


def test_the_certificate_prime_is_below_two_to_the_thirty():
    """Two residues multiply within two 30-bit digits of a CPython int."""
    assert sympy.isprime(curves._PRIME) and curves._PRIME < 2**30
    assert sympy.nextprime(curves._PRIME) > 2**30


def _catalog_grid(seed):
    """The t grid of the quartic-catalog benchmark workload at `seed`."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):  # for its dataclasses
        spec.loader.exec_module(workloads)
    return workloads.QuarticCatalog(seed, None, None).grid


def test_catalog_members_are_certified_by_the_modular_route():
    """Every smooth member of the benchmark's quartic-catalog grids at
    seeds 0-3 gets a nonzero Macaulay residue, so none reaches the exact
    route."""
    verdicts = []
    certify = curves.macaulay_nonzero

    def counted(form):
        verdicts.append(certify(form))
        return verdicts[-1]
    with mock.patch.object(curves, "macaulay_nonzero", counted), \
            mock.patch.object(curves, "_rational_singular_point", None), \
            mock.patch.object(curves, "_canny_resultant", None):
        for seed in range(4):
            for t in _catalog_grid(seed):
                if t not in (1, -3, F(-5, 2), F(-7, 2)):
                    assert smoothness_check(PlaneCurve(ct_equation(t))).smooth
    assert len(verdicts) == 76 and all(verdicts)


# ---------------------------------------------------------------------------
# intersection multiplicity
# ---------------------------------------------------------------------------

def test_parabola_tangency():
    c1 = PlaneCurve(BiPoly.parse("y - x^2"))
    assert intersection_multiplicity(c1, BiPoly.y(), CurvePoint.affine(0, 0)) == 2


def test_conic_contact_eight():
    conic = Conic.make(1, 2, 1, 1)
    c = PlaneCurve(conic.poly() * BiPoly.y() + BiPoly.x(4))
    R = CurvePoint.affine(0, -2)
    assert intersection_multiplicity(c, conic, R) == 8
    # Bezout: the conic misses the point at infinity, so the total is 8
    assert not is_on_curve(conic, CurvePoint.at_infinity(0, 1))


def test_vertical_tangent_contact_three():
    c = thm53_curve(F(1, 2), -1, 0)
    P = CurvePoint.affine(F(1, 8), F(-1, 16))
    line = BiPoly.parse("x - 1/8")
    assert intersection_multiplicity(c, line, P) == 3
    assert intersection_multiplicity(c, line, CurvePoint.at_infinity(0, 1)) == 1


def test_empty_intersection_rejected():
    c1 = PlaneCurve(BiPoly.parse("y - x^2"))
    with pytest.raises(PreconditionError, match="empty intersection"):
        intersection_multiplicity(c1, BiPoly.y(), CurvePoint.affine(1, 1))


def _random_small_curves():
    while True:
        f = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-3, 3))
                    for _ in range(4)})
        g = BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-3, 3))
                    for _ in range(4)})
        f = f - BiPoly.const(f(0, 0))
        g = g - BiPoly.const(g(0, 0))
        if f.is_zero() or g.is_zero():
            continue
        return f, g


def test_symmetry_on_random_instances():
    checked = 0
    while checked < 100:
        f, g = _random_small_curves()
        bound = f.total_degree * g.total_degree + 4
        try:
            ab = fulton_multiplicity(f, g, bound)
            ba = fulton_multiplicity(g, f, bound)
        except VerificationError:
            continue  # shared component
        assert ab == ba
        checked += 1


def _fraction_fulton(f, g, bound, truncate=True):
    """The reduction over Fraction coefficients, as it ran before the integer
    form: the reference the integer reduction must reproduce step for step.
    With `truncate`, terms of total degree above bound - total are dropped
    where the integer reduction drops them; without it, this is the plain
    reduction that the truncation must agree with."""

    def primitive_scale(p, n=None):
        if truncate and n is not None:
            p = BiPoly({k: c for k, c in p.terms.items() if sum(k) <= n})
        if p.is_zero():
            return p
        den = lcm(*(c.denominator for c in p.terms.values()))
        num = gcd(*(c.numerator * (den // c.denominator) for c in p.terms.values()))
        return p * F(den, num)

    total = 0
    f, g = primitive_scale(f), primitive_scale(g)
    while True:
        if f.coeff(0, 0) != 0 or g.coeff(0, 0) != 0:
            return total
        if f.is_zero() or g.is_zero():
            raise VerificationError("intersection multiplicity infinite: common component")
        fr, gr = f.eval_y(0), g.eval_y(0)
        if fr.is_zero() and gr.is_zero():
            raise VerificationError("intersection multiplicity infinite: common factor y")
        if fr.is_zero() or gr.is_zero():
            if gr.is_zero():
                f, g, fr, gr = g, f, gr, fr
            total += next(i for i, c in enumerate(gr.coeffs) if c != 0)
            if total > bound:
                raise VerificationError("intersection multiplicity exceeds the Bezout bound")
            f = primitive_scale(BiPoly({(i, j - 1): c for (i, j), c in f.terms.items()}),
                                bound - total)
            continue
        if fr.degree > gr.degree:
            f, g, fr, gr = g, f, gr, fr
        shift = gr.degree - fr.degree
        g = primitive_scale(g - f * BiPoly.x(shift) * (gr.lc / fr.lc), bound - total)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except VerificationError as e:
        return str(e)


small_rats = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
bipolys_any = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), small_rats,
                              min_size=1, max_size=4).map(BiPoly).filter(lambda p: not p.is_zero())


@st.composite
def origin_polys(draw, max_deg=3):
    """A polynomial vanishing at the origin, with a pure power of x or y,
    so that random pairs seldom share the factor x or y."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, max_deg), st.integers(0, max_deg)),
                                 small_rats, min_size=1, max_size=5))
    terms.pop((0, 0), None)
    e = draw(st.integers(1, max_deg))
    terms[draw(st.sampled_from([(e, 0), (0, e)]))] = draw(small_rats.filter(bool))
    p = BiPoly(terms)
    assume(not p.is_zero())
    return p


@st.composite
def origin_pairs(draw):
    """(f, g, shared): both through the origin; shared pairs have a common
    component through it."""
    shared = draw(st.booleans())
    if not shared:
        return draw(origin_polys()), draw(origin_polys()), False
    c = draw(origin_polys(max_deg=1))
    return c * draw(bipolys_any), c * draw(bipolys_any), True


@settings(derandomize=True, deadline=None, max_examples=100)
@given(origin_pairs())
def test_integer_reduction_matches_fraction_reference(pair):
    f, g, shared = pair
    bound = f.total_degree * g.total_degree
    got = _outcome(fulton_multiplicity, f, g, bound)
    assert got == _outcome(_fraction_fulton, f, g, bound)
    if shared:
        assert isinstance(got, str)  # raised VerificationError


@settings(derandomize=True, deadline=None, max_examples=200)
@given(origin_pairs())
@example((BiPoly.parse("x^2 - 3*y^2"), BiPoly.x(), False))
@example((BiPoly.parse("x*y^2 + x"), BiPoly.x(), True))
def test_truncated_reduction_matches_the_untruncated_one(pair):
    """Terms above the Bezout window never change I, and a pair that the
    plain reduction refuses is refused, in either wording."""
    f, g, _ = pair
    bound = f.total_degree * g.total_degree
    got = _outcome(fulton_multiplicity, f, g, bound)
    want = _outcome(_fraction_fulton, f, g, bound, False)
    assert got == want if isinstance(want, int) else isinstance(got, str)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(origin_polys(), origin_polys(), bipolys_any)
def test_integer_reduction_is_symmetric_and_ignores_multiples(f, g, h):
    bound = f.total_degree * g.total_degree
    ab = _outcome(fulton_multiplicity, f, g, bound)
    ba = _outcome(fulton_multiplicity, g, f, bound)
    # a shared component may be reported in either of its two ways
    assert ab == ba if isinstance(ab, int) else isinstance(ba, str)
    g2 = g + h * f
    assume(not g2.is_zero() and isinstance(ab, int))
    assert fulton_multiplicity(f, g2, f.total_degree * g2.total_degree) == ab


def test_multiplicity_of_a_tangent_power_is_linear():
    # quartic-lines 1/2,-1,0: the tangent x + y at Q has contact 3
    c = thm53_curve(F(1, 2), -1, 0)
    q = CurvePoint.affine(F(1, 4), F(-1, 4))
    tangent = BiPoly.parse("x + y")
    assert intersection_multiplicity(c, tangent, q) == 3
    for k in range(2, 8):
        assert intersection_multiplicity(c, tangent**k, q) == 3 * k


def test_affine_invariance():
    c = thm53_curve(F(1, 2), -1, 0)
    line = BiPoly.parse("x - 1/8")
    P = (F(1, 8), F(-1, 16))
    base = 3
    for _ in range(20):
        # random unimodular affine map (x, y) -> (a x + b y + e, c x + d y + f)
        while True:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            c_, d = rng.randint(-3, 3), rng.randint(-3, 3)
            if a * d - b * c_ in (1, -1):
                break
        e, f_ = rng.randint(-2, 2), rng.randint(-2, 2)
        xi = BiPoly.x() * a + BiPoly.y() * b + BiPoly.const(e)
        yi = BiPoly.x() * c_ + BiPoly.y() * d + BiPoly.const(f_)
        tc = c.affine.substitute(xi, yi)
        tl = line.substitute(xi, yi)
        # preimage of P under the map
        det = F(a * d - b * c_)
        px = (d * (P[0] - e) - b * (P[1] - f_)) / det
        py = (-c_ * (P[0] - e) + a * (P[1] - f_)) / det
        q = CurvePoint.affine(px, py)
        assert intersection_multiplicity(PlaneCurve(tc), tl, q) == base


# ---------------------------------------------------------------------------
# rational intersection points
# ---------------------------------------------------------------------------

coords = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


def _through(draw, deg, pts, x_only=False):
    """A random polynomial of total degree deg, in x alone if x_only, through
    the given points: the constant term and one linear term are solved for."""
    f = BiPoly({(i, j): draw(small) for i in range(deg + 1)
                for j in range(1 if x_only else deg + 1 - i)})
    if not pts:
        return f
    p0 = pts[0]
    if len(pts) == 1 or x_only and p0[0] == pts[1][0]:
        return f - BiPoly.const(f(*p0))
    p1 = pts[1]
    axis = 0 if p0[0] != p1[0] else 1
    var = BiPoly.x() if axis == 0 else BiPoly.y()
    b = -(f(*p0) - f(*p1)) / (p0[axis] - p1[axis])
    return f + var * b - BiPoly.const(f(*p0) + b * p0[axis])


@st.composite
def intersection_pairs(draw):
    """(curve, g): a curve of degree 2-4 and a line or conic, both through
    0-2 chosen rational points; with shared=True the curve contains g,
    which may lie in x alone (x^2 + 1 shared has no rational point)."""
    pts = list(dict.fromkeys(draw(st.lists(st.tuples(coords, coords), max_size=2))))
    g = _through(draw, draw(st.sampled_from([1, 2])), pts, draw(st.booleans()))
    d = draw(st.integers(max(2, g.total_degree), 4))
    shared = draw(st.booleans())
    f = g * _through(draw, d - g.total_degree, pts) if shared else _through(draw, d, pts)
    assume(f.total_degree == d and f.degree_in("y") >= 1 and g.total_degree >= 1)
    return f, g, pts, shared


def _sympy(p, x, y):
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j
               for (i, j), c in p.terms.items())


def _rational_solutions(fs, gs, x, y):
    """Rational common zeros of a zero-dimensional pair, read off sympy's
    lex Groebner basis: rational roots of its y-only member, then of the
    gcd of the basis at each.  (sympy's solve_poly_system finds them too,
    but builds every root in radicals, for over a minute on a cubic
    against a conic.)"""
    basis = list(sympy.groebner([fs, gs], x, y, order="lex"))
    elim = next(b for b in basis if not b.has(x))
    out = set()
    for y0 in sympy.Poly(elim, y).ground_roots():
        common = sympy.gcd_list([b.subs(y, y0) for b in basis])
        for x0 in sympy.Poly(common, x).ground_roots():
            out.add((F(int(x0.p), int(x0.q)), F(int(y0.p), int(y0.q))))
    return out


@settings(derandomize=True, deadline=None, max_examples=40)
@given(intersection_pairs())
# a shared vertical line, seen only as a zero section over x = 1
@example((BiPoly.parse("x*y^2 - y^2 + x^2 - x"), BiPoly.parse("x - 1"), [], True))
# a shared component in x alone with no rational point
@example((BiPoly.parse("x^2*y + y + x^2 + 1"), BiPoly.parse("x^2*y + y + 2*x^2 + 2"), [], True))
# polynomials in x alone: coprime ones have no common zero, others share a line
@example((BiPoly.parse("x^2 - 1"), BiPoly.parse("x - 3"), [], False))
@example((BiPoly.parse("x^2 - 1"), BiPoly.parse("x - 1"), [], True))
def test_rational_common_zeros_match_sympy(pair):
    f, g, pts, shared = pair
    zs = curves.rational_common_zeros(f, g)
    x, y = sympy.symbols("x y")
    fs, gs = _sympy(f, x, y), _sympy(g, x, y)
    if shared or sympy.Poly(sympy.gcd(fs, gs), x, y).total_degree() > 0:
        assert zs is None
        return
    oracle = _rational_solutions(fs, gs, x, y)
    assert len(zs) == len(set(zs))
    assert set(zs) == oracle
    assert set(pts) <= oracle


def test_tangent_parabola():
    c = PlaneCurve(BiPoly.parse("y - x^2"))
    assert tangent_line(c, CurvePoint.affine(0, 0)) == BiPoly.y()


def test_tangent_vertical_on_hyperelliptic_model():
    # model with f1(alpha) = -2 beta, beta^2 = alpha^5 at alpha=1, beta=1
    from k2forge.linalg import vandermonde_solve
    a = [F(1), F(1, 2), F(1, 4)]
    f1 = UniPoly(vandermonde_solve([x * x for x in a], [-2 * x**5 for x in a]))
    c = PlaneCurve(BiPoly.y(2) + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(5))
    assert tangent_line(c, CurvePoint.affine(1, 1)) == BiPoly.x() - 1


def test_tangent_line_through_origin():
    c = thm53_curve(F(1, 2), -1, 0)
    Q = CurvePoint.affine(F(1, 4), F(-1, 4))
    # b = -1: expected tangent y = b^3 x, i.e. x + y = 0
    assert tangent_line(c, Q) == BiPoly.x() + BiPoly.y()


def test_tangent_meets_with_multiplicity_at_least_two():
    c = thm53_curve(1, 2, 1)
    pts = [CurvePoint.affine(0, 0), CurvePoint.affine(1, -1)]
    for p in pts:
        if not c.contains(p):
            continue
        line = tangent_line(c, p)
        assert intersection_multiplicity(c, line, p) >= 2


def test_singular_point_has_no_tangent():
    c = PlaneCurve(BiPoly.parse("y^2 - x^3 - x^2"))
    with pytest.raises(PreconditionError, match="no unique tangent"):
        tangent_line(c, CurvePoint.affine(0, 0))


# ---------------------------------------------------------------------------
# projective charts against sympy's homogenization
# ---------------------------------------------------------------------------

HX, HY, HZ = sympy.symbols("X Y Z")  # projective coordinates


def _q(v) -> sympy.Rational:
    v = F(v)
    return sympy.Rational(v.numerator, v.denominator)


def _sym(f: BiPoly, u, v):
    """f as a sympy expression, with u for x and v for y."""
    return sum((_q(c) * u**i * v**j for (i, j), c in f.terms.items()), sympy.Integer(0))


def _hom(f: BiPoly):
    """F^hom(X, Y, Z) by sympy's Poly.homogenize."""
    return sympy.Poly(_sym(f, HX, HY), HX, HY).homogenize(HZ).as_expr()


chart_coeffs = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 5))
chart_polys = (st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), chart_coeffs,
                               min_size=1, max_size=6)
               .map(BiPoly).filter(lambda f: f.total_degree >= 1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(chart_polys, coords, coords)
def test_charts_match_sympy_homogenize(f, a, b):
    h = _hom(f)
    assert sympy.expand(_sym(f.chart("Y"), HX, HZ) - h.subs(HY, 1)) == 0
    assert sympy.expand(_sym(f.chart("X"), HY, HZ) - h.subs(HX, 1)) == 0
    assert _q(f.top_value(a, b)) == h.subs({HX: _q(a), HY: _q(b), HZ: 0})


@settings(derandomize=True, deadline=None, max_examples=100)
@given(chart_polys)
@example(BiPoly.parse("x^2 - 2*y^2 + y"))  # two conjugate points
@example(BiPoly.parse("x*y^3 - (3/2)*y^4 + x"))  # (0:1:0) and (3/2:1:0)
@example(BiPoly.parse("x^3 - 5*x*y^2 + y"))  # (1:0:0) is not on it
def test_rational_infinity_points_match_sympy(f):
    d = f.total_degree
    on_y1 = sympy.Poly(_hom(f).subs({HZ: 0, HY: 1}), HX)  # F^hom(X, 1, 0)
    roots = on_y1.ground_roots()
    expected = {(F(int(r.p), int(r.q)), F(1)) for r in roots}
    at_y0 = d - on_y1.degree()  # the multiplicity of (1:0:0)
    if at_y0:
        expected.add((F(1), F(0)))
    pts, complete = PlaneCurve(f, check_squarefree=False).rational_infinity_points()
    assert len(pts) == len(expected) and set(pts) == expected
    assert complete == (sum(roots.values()) + at_y0 == d)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 6), st.one_of(st.none(), coords), chart_coeffs,
       st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), chart_coeffs,
                       max_size=8))
def test_one_rational_point_at_infinity_has_contact_deg_c(d, u, lc, lower):
    """Hypothesis (a) of nekovar_element, by the route it no longer takes:
    where F(X, Y, 0) has one root, and that root is rational, Fulton's
    reduction of the chart there against w gives I_P(C, Z) = deg C.  The
    top form is lc*(X - u*Y)^d, with its point (u:1:0), or lc*Y^d, with
    its point (1:0:0), when u is None."""
    line = BiPoly.y() if u is None else BiPoly({(1, 0): 1, (0, 1): -u})
    f = line**d * BiPoly.const(lc) + BiPoly({k: c for k, c in lower.items() if sum(k) < d})
    pts, complete = PlaneCurve(f, check_squarefree=False).rational_infinity_points()
    assert complete and pts == [(F(1), F(0)) if u is None else (u, F(1))]
    _, _, chart = point_chart(f, CurvePoint.at_infinity(*pts[0]))
    assert fulton_multiplicity(chart, BiPoly.y(), bound=d) == d


def _chart_before_point_chart(f, p):
    """The rules point_chart replaced: f shifted to an affine p, and at
    (X : Y : 0) f's chart Y shifted to (X/Y, 0) when Y != 0, else chart X."""
    if p.is_affine:
        return f.shift(p.x, p.y)
    name, u0 = ("Y", p.x / p.y) if p.y != 0 else ("X", F(0))
    return f.chart(name).shift(u0, 0)


def _multiplicity_before_point_chart(f1, f2, p):
    """intersection_multiplicity's two paths before point_chart: at an affine
    p, evaluate both, then shift both; at infinity, both charts."""
    bound = f1.total_degree * f2.total_degree
    if p.is_affine:
        if f1(p.x, p.y) != 0 or f2(p.x, p.y) != 0:
            raise PreconditionError(f"empty intersection at point {p.label()}")
        return fulton_multiplicity(f1.shift(p.x, p.y), f2.shift(p.x, p.y), bound)
    g1, g2 = _chart_before_point_chart(f1, p), _chart_before_point_chart(f2, p)
    if g1.coeff(0, 0) != 0 or g2.coeff(0, 0) != 0:
        raise PreconditionError(f"empty intersection at point {p.label()}")
    return fulton_multiplicity(g1, g2, bound)


def _result_or_refusal(fn, *args):
    try:
        return fn(*args)
    except (PreconditionError, VerificationError) as e:
        return type(e), str(e)


chart_coords = st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 4)])
chart_points = (st.builds(CurvePoint.affine, chart_coords, chart_coords)
                | st.builds(CurvePoint.at_infinity, chart_coords, chart_coords.filter(bool))
                | st.builds(CurvePoint.at_infinity, chart_coords.filter(bool), st.just(0)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(chart_polys, chart_polys, chart_points, st.integers(0, 2))
@example(BiPoly.parse("y - x^2"), BiPoly.y(), CurvePoint.affine(1, 1), 0)  # off both
@example(BiPoly.parse("y - x^2"), BiPoly.y(), CurvePoint.affine(0, 0), 0)  # tangent, 2
@example(BiPoly.parse("x^3 + y^2"), BiPoly.parse("x + 1"), CurvePoint.at_infinity(0, 1), 0)
def test_point_chart_and_multiplicity_match_the_rules_they_replace(f1, f2, p, through):
    """point_chart gives chart Z at (x0, y0) for an affine point and the old
    chart rule at infinity; intersection_multiplicity agrees with its old
    two paths, refusal text included, on points off either curve and, after
    moving `through` of the two curves onto p, on it."""
    if through:
        # through p: subtract the value at an affine p; at (X : Y : 0),
        # multiply by Y*x - X*y, whose top form vanishes there
        line = BiPoly({(1, 0): p.y, (0, 1): -p.x})
        polys = [f - f(p.x, p.y) if p.is_affine else f * line + 1 for f in (f1, f2)[:through]]
        f1, f2 = polys + [f1, f2][through:]
        assume(f1.total_degree >= 1 and f2.total_degree >= 1)
    for f in (f1, f2):
        name, origin, shifted = point_chart(f, p)
        assert shifted == _chart_before_point_chart(f, p)
        if p.is_affine:
            assert (name, origin) == ("Z", (p.x, p.y))
        else:
            assert (name, origin) == (("Y", (p.x / p.y, 0)) if p.y else ("X", (0, 0)))
    assert _result_or_refusal(intersection_multiplicity, f1, f2, p) \
        == _result_or_refusal(_multiplicity_before_point_chart, f1, f2, p)
