"""Exact scalar/polynomial/series layer: contract examples and invariants."""

import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from k2forge.bipoly import BiPoly
from k2forge.errors import InsufficientPrecisionError, PreconditionError
from k2forge.linalg import bareiss_det, sylvester_matrix, vandermonde_solve
from k2forge.series import PowerSeries
from k2forge.unipoly import UniPoly

rng = random.Random(20260808)


def sylvester_resultant(f, g):
    """Res(f, g) as the Sylvester determinant, the route independent of the
    subresultant sequence that `UniPoly.resultant` runs."""
    if f.is_zero() or g.is_zero():
        return F(0)
    return bareiss_det(sylvester_matrix(f.coeffs, g.coeffs, F(0)))


def rand_rat(bits=8):
    return F(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << 4))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_poly_eval_square():
    p = UniPoly([0, 0, 1])
    assert p(F(3, 2)) == F(9, 4)


def test_polynomials_take_exact_coefficients_only():
    """A float coefficient is a TypeError in every polynomial and series
    type; strings and Fractions are read exactly."""
    for build in (lambda c: UniPoly([1, c]), lambda c: BiPoly({(0, 1): c}),
                  lambda c: PowerSeries(0, [c], 2)):
        with pytest.raises(TypeError, match="exact rational"):
            build(0.5)
    assert UniPoly(["1/3", F(2, 3), True]) == UniPoly([F(1, 3), F(2, 3), 1])


def test_poly_eval_zero_poly():
    assert UniPoly.zero()(F(7, 3)) == 0
    assert BiPoly.zero()(1, 2) == 0


def test_poly_eval_interpolated_f1():
    # interpolant through (a_i^2, -2 a_i^5) for a = (1, 1/2, 1/4)
    a = [F(1), F(1, 2), F(1, 4)]
    nodes = [x * x for x in a]
    values = [-2 * x**5 for x in a]
    f1 = UniPoly(vandermonde_solve(nodes, values))
    assert f1(1) == -2
    for n, v in zip(nodes, values):
        assert f1(n) == v


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def test_resultant_substitution_case():
    p = BiPoly.parse("y - x^2")
    assert p.resultant(BiPoly.y(), "y") == UniPoly([0, 0, 1])


def test_resultant_2x2_sylvester():
    p = BiPoly.parse("y^2 - x")
    q = BiPoly.parse("y + 1")
    r = p.resultant(q, "y")
    assert r in (UniPoly([1, -1]), UniPoly([-1, 1]))


def test_resultant_common_factor_is_zero():
    p = BiPoly.parse("y^2 - x")
    assert p.resultant(p, "y").is_zero()


def test_resultant_nothing_to_eliminate():
    with pytest.raises(PreconditionError, match="nothing to eliminate"):
        BiPoly.parse("x + 1").resultant(BiPoly.parse("x - 1"), "y")


def test_resultant_multiplicative():
    for _ in range(40):
        def rbp():
            return BiPoly({(rng.randint(0, 2), rng.randint(0, 2)): rand_rat(4)
                           for _ in range(3)})
        p, q, r = rbp(), rbp(), rbp()
        if not (p and q and r):
            continue
        try:
            lhs = (p * q).resultant(r, "y")
            rhs = p.resultant(r, "y") * q.resultant(r, "y")
        except PreconditionError:
            continue
        assert lhs == rhs


def test_euclid_matches_sylvester():
    for _ in range(120):
        a = UniPoly([rand_rat(5) for _ in range(rng.randint(1, 6))])
        b = UniPoly([rand_rat(5) for _ in range(rng.randint(1, 6))])
        if a.is_zero() or b.is_zero():
            continue
        assert a.resultant(b) == sylvester_resultant(a, b)


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------

def test_discriminant_quadratic():
    assert UniPoly([1, 3, 1]).discriminant() == 5  # b^2 - 4c at b=3, c=1


def test_discriminant_repeated_root():
    assert UniPoly([0, 0, 1]).discriminant() == 0


def test_discriminant_cubic_product_of_root_differences():
    p = UniPoly.from_roots([1, 2, 3])
    assert p.discriminant() == 4  # prod (r_i - r_j)^2


def test_discriminant_degree_zero_rejected():
    with pytest.raises(PreconditionError):
        UniPoly.const(5).discriminant()


def test_discriminant_zero_iff_repeated_factor():
    for _ in range(60):
        roots = [rand_rat(4) for _ in range(rng.randint(2, 4))]
        repeat = rng.random() < 0.5
        if repeat:
            roots.append(roots[0])
        p = UniPoly.from_roots(roots) * rand_rat(3)
        if p.degree < 1 or p.is_zero():
            continue
        assert (p.discriminant() == 0) == (repeat or len(set(roots)) < len(roots))


# ---------------------------------------------------------------------------
# Vandermonde solves
# ---------------------------------------------------------------------------

def test_vandermonde_published_instance():
    nodes = [F(1), F(1, 4), F(1, 16)]
    values = [F(-2), F(-1, 16), F(-1, 512)]
    b = vandermonde_solve(nodes, values)
    assert b[0] == F(-7, 360)


def test_vandermonde_constant():
    assert vandermonde_solve([F(0)], [F(5)]) == [F(5)]


def test_vandermonde_no_nodes():
    assert vandermonde_solve([], []) == []


def test_vandermonde_identity():
    assert vandermonde_solve([F(1), F(2)], [F(1), F(2)]) == [F(0), F(1)]


def test_vandermonde_repeated_nodes_rejected():
    with pytest.raises(PreconditionError, match="singular Vandermonde"):
        vandermonde_solve([F(1), F(1)], [F(0), F(1)])


def test_vandermonde_round_trip_200():
    for _ in range(200):
        n = rng.randint(1, 6)
        nodes = []
        while len(nodes) < n:
            x = F(rng.randint(-128, 128), rng.randint(1, 16))
            if x not in nodes:
                nodes.append(x)
        values = [F(rng.randint(-128, 128), rng.randint(1, 16)) for _ in range(n)]
        coeffs = vandermonde_solve(nodes, values)
        p = UniPoly(coeffs)
        assert all(p(x) == v for x, v in zip(nodes, values))


# ---------------------------------------------------------------------------
# root multiplicity
# ---------------------------------------------------------------------------

def test_root_multiplicity_double_and_triple():
    beta = F(5, 3)
    assert (UniPoly([-beta, 1]) ** 2).root_multiplicity(beta) == 2
    assert (UniPoly([-beta, 1]) ** 3).root_multiplicity(beta) == 3


def test_root_multiplicity_nonroot():
    assert UniPoly([1, 0, 1]).root_multiplicity(1) == 0


def test_root_multiplicity_zero_poly_rejected():
    with pytest.raises(PreconditionError):
        UniPoly.zero().root_multiplicity(0)


def test_rational_roots():
    p = UniPoly.from_roots([F(1, 2), F(1, 2), F(-3)]) * 4
    assert p.rational_roots() == [(F(-3), 1), (F(1, 2), 2)]


def test_rational_roots_zero_poly_rejected():
    with pytest.raises(PreconditionError, match="zero polynomial"):
        UniPoly.zero().rational_roots()


# 20-digit primes: a0 and lc that integer factoring cannot split cheaply
P1, P2 = 10000000000000000051, 10000000000000000087
BIG = 10**20
linear_factors = st.lists(
    st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG), st.integers(1, 3)),
    max_size=4)
cofactors = st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(lambda c: c[-1] != 0)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(linear_factors, cofactors)
@example([(3, 7, 1)], [P1 * P2, 0, 1])
@example([(P1, P2, 2), (-5, 3, 1)], [1, 0, 1])
def test_rational_roots_match_sympy(factors, cofactor):
    p = UniPoly(cofactor)
    for u, v, mult in factors:
        p = p * UniPoly([F(-u, v), 1]) ** mult
    x = sympy.Symbol("x")
    oracle = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(p.coeffs)], x, domain=sympy.QQ).ground_roots()
    expected = sorted((F(int(r.p), int(r.q)), m) for r, m in oracle.items())
    assert p.rational_roots() == expected


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------

def test_series_invert_geometric():
    s = PowerSeries(0, [1, 1], 3)
    assert s.invert().coeffs == (F(1), F(-1), F(1))


def test_series_mul_valuations():
    prod = PowerSeries.t_power(-2, 8) * PowerSeries.t_power(3, 8)
    assert prod.valuation() == 1 and prod.leading() == 1


def test_series_invert_zero_rejected():
    with pytest.raises(InsufficientPrecisionError, match="insufficient precision"):
        PowerSeries.zero(5).invert()


def test_series_invert_round_trip_100():
    for _ in range(100):
        v = rng.randint(-3, 3)
        cs = [rand_rat(4) for _ in range(6)]
        if cs[0] == 0:
            cs[0] = F(1)
        s = PowerSeries(v, cs, v + 8)
        prod = s * s.invert()
        assert prod.valuation() == 0 and prod.leading() == 1
        assert (prod - PowerSeries.const(1, prod.prec)).is_zero()


# A naive reference series: (val, list of Fraction coefficients, prec), with
# the truncation and valuation rules the series contract states.

def _ref(val, cs, prec):
    cs = list(cs[: max(prec - val, 0)])
    while cs and cs[0] == 0:
        cs.pop(0)
        val += 1
    return (val, cs, prec) if cs else (prec, [], prec)


def _ref_coeff(a, k):
    val, cs, _ = a
    return cs[k - val] if 0 <= k - val < len(cs) else F(0)


def _ref_add(a, b, sign=1):
    prec = min(a[2], b[2])
    lo = min(a[0], b[0], prec)
    return _ref(lo, [_ref_coeff(a, k) + sign * _ref_coeff(b, k) for k in range(lo, prec)], prec)


def _ref_scale(a, q):
    return _ref(a[0], [c * q for c in a[1]], a[2])


def _ref_mul(a, b):
    prec = min(a[2] + b[0], b[2] + a[0])
    val = a[0] + b[0]
    out = [F(0)] * max(prec - val, 0)
    for i, x in enumerate(a[1]):
        for j, y in enumerate(b[1]):
            if i + j < len(out):
                out[i + j] += x * y
    return _ref(val, out, prec)


def _ref_invert(a):
    val, cs, prec = a
    n = prec - val
    cs = cs + [F(0)] * (n - len(cs))
    out = [1 / cs[0]]
    for k in range(1, n):
        out.append(-sum(cs[i] * out[k - i] for i in range(1, k + 1)) / cs[0])
    return _ref(-val, out, n - val)


def _as_ref(s):
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert s.nums[0] != 0 if s.nums else s.is_zero() and s.val == s.prec
    assert isinstance(s.coeffs, tuple) and all(type(c) is F for c in s.coeffs)
    return (s.val, list(s.coeffs), s.prec)


small_fractions = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
# zeros are frequent, so leading zeros, zero series and cancellation occur
series_coeffs = st.lists(st.just(F(0)) | small_fractions, max_size=6)
series_args = st.tuples(st.integers(-3, 3), series_coeffs, st.integers(-2, 8))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(series_args, series_args, small_fractions)
def test_series_arithmetic_matches_fraction_reference(a_args, b_args, q):
    (va, ca, pa), (vb, cb, pb) = a_args, b_args
    a, b = PowerSeries(va, ca, va + pa), PowerSeries(vb, cb, vb + pb)
    ra, rb = _ref(va, ca, va + pa), _ref(vb, cb, vb + pb)
    assert _as_ref(a) == ra and _as_ref(b) == rb
    assert _as_ref(a + b) == _ref_add(ra, rb)
    assert _as_ref(a - b) == _ref_add(ra, rb, -1)
    assert _as_ref(-a) == _ref_scale(ra, -1)
    assert _as_ref(a * q) == _ref_scale(ra, q)
    assert _as_ref(a * 3) == _ref_scale(ra, 3)
    assert _as_ref(a * b) == _ref_mul(ra, rb)
    assert _as_ref(a.truncate(va + 2)) == _ref(ra[0], ra[1], min(va + 2, ra[2]))
    assert (a == b) == (ra == rb)
    assert (a == a * 1) and (a == PowerSeries(*ra))
    if not a.is_zero() and a.prec - a.val < 12:
        assert _as_ref(a.invert()) == _ref_invert(ra)


# ---------------------------------------------------------------------------
# Taylor shift
# ---------------------------------------------------------------------------

bipolys = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          small_fractions, max_size=8).map(BiPoly)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(bipolys, small_fractions | st.just(F(0)), small_fractions | st.just(F(0)))
def test_shift_is_the_translation(f, a, b):
    shifted = f.shift(a, b)
    assert shifted == f.substitute(BiPoly.x() + BiPoly.const(a), BiPoly.y() + BiPoly.const(b))
    assert shifted.shift(-a, -b) == f


# ---------------------------------------------------------------------------
# the integer form against a schoolbook Fraction reference
# ---------------------------------------------------------------------------

def _ref_product(a, b):
    """Schoolbook product of two term dicts in Fraction arithmetic."""
    out = {}
    for (i1, j1), u in a.items():
        for (i2, j2), v in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, F(0)) + u * v
    return {k: v for k, v in out.items() if v}


def _ref_sum(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, F(0)) + sign * v
    return {k: v for k, v in out.items() if v}


def _ref_substitute(a, x_image, y_image):
    out = {}
    for (i, j), c in a.items():
        term = {(0, 0): c}
        for img, e in ((x_image, i), (y_image, j)):
            for _ in range(e):
                term = _ref_product(term, img)
        out = _ref_sum(out, term)
    return out


def _ref_section(a, axis, v):
    """a with variable `axis` set to v, as a UniPoly in the other one."""
    out = {}
    for k, c in a.items():
        out[k[1 - axis]] = out.get(k[1 - axis], F(0)) + c * v ** k[axis]
    return UniPoly([out.get(e, F(0)) for e in range(max(out, default=-1) + 1)])


def _ref_partial(a, axis):
    return {(i - (axis == 0), j - (axis == 1)): c * (i, j)[axis]
            for (i, j), c in a.items() if (i, j)[axis]}


def _checked(p, ref):
    """p has the terms ref, in the reduced integer form."""
    assert p.terms == ref
    assert all(type(c) is F and c != 0 for c in p.terms.values())
    assert p.den > 0 and gcd(p.den, *p.nums.values()) == 1
    assert all(type(v) is int and v != 0 for v in p.nums.values())
    assert p.total_degree == max((i + j for i, j in ref), default=-1)
    q = BiPoly(ref)
    assert p == q and hash(p) == hash(q)
    assert BiPoly.parse(p.canonical()) == p


factors = bipolys | small_fractions.map(BiPoly.const)
# zero, integers, small fractions and 30-digit denominators
points = (st.just(F(0)) | st.integers(-5, 5).map(F) | small_fractions
          | st.builds(F, st.integers(-10**30, 10**30), st.integers(10**29, 10**30)))
affine_images = st.dictionaries(st.sampled_from([(0, 0), (1, 0), (0, 1)]), small_fractions,
                                max_size=3).map(BiPoly)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(factors, factors, st.integers(0, 4), points, points, affine_images, affine_images)
def test_products_match_fraction_reference(a, b, n, x0, y0, x_image, y_image):
    ref_a, ref_b = dict(a.terms), dict(b.terms)
    _checked(a, ref_a)
    ref = _ref_product(ref_a, ref_b)
    _checked(a * b, ref)
    _checked(b * a, ref)
    power = {(0, 0): F(1)}
    for _ in range(n):
        power = _ref_product(power, ref_a)
    _checked(a**n, power)
    _checked(a + b, _ref_sum(ref_a, ref_b))
    _checked(a - b, _ref_sum(ref_a, ref_b, -1))
    _checked(a * x0, _ref_product(ref_a, {(0, 0): x0} if x0 else {}))
    _checked(-a, _ref_sum({}, ref_a, -1))
    assert (a == b) == (ref_a == ref_b)
    assert a(x0, y0) == sum((c * x0**i * y0**j for (i, j), c in ref_a.items()), F(0))
    assert a.eval_x(x0) == _ref_section(ref_a, 0, x0)
    assert a.eval_y(y0) == _ref_section(ref_a, 1, y0)
    for axis, var in enumerate("xy"):
        _checked(a.partial(var), _ref_partial(ref_a, axis))
        rows = [_ref_section({k: c for k, c in ref_a.items() if k[axis] == e}, axis, F(1))
                for e in range(a.degree_in(var) + 1)]
        assert a.as_poly_in(var) == rows
    _checked(a.substitute(x_image, y_image),
             _ref_substitute(ref_a, dict(x_image.terms), dict(y_image.terms)))
    _checked(a.shift(x0, y0),
             _ref_substitute(ref_a, {(1, 0): F(1), (0, 0): x0}, {(0, 1): F(1), (0, 0): y0}))


# ---------------------------------------------------------------------------
# UniPoly's integer form against a list-of-Fraction reference
# ---------------------------------------------------------------------------

def _uref(cs):
    """Coefficients (constant term first) without trailing zeros."""
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _uref_add(a, b, sign=1):
    n = max(len(a), len(b))
    return _uref([(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _uref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _uref(out)


def _uref_divmod(a, b):
    """Long division over Q."""
    q, r = [F(0)] * max(len(a) - len(b) + 1, 0), list(a)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            r[k + i] -= q[k] * c
    return _uref(q), _uref(r)


def _uref_gcd(a, b):
    while b:
        a, b = b, _uref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _uref_eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _as_uref(p):
    """p's coefficients, after checking its reduced integer form."""
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert all(type(c) is int for c in p.nums) and (not p.nums or p.nums[-1] != 0)
    assert isinstance(p.coeffs, tuple) and all(type(c) is F for c in p.coeffs)
    return list(p.coeffs)


# zeros are frequent, so trailing zeros, zero polynomials and sparse
# polynomials (degree gaps in remainder sequences) occur
uni_coeffs = st.lists(st.just(F(0)) | small_fractions, max_size=7)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(uni_coeffs, uni_coeffs, uni_coeffs, small_fractions)
def test_unipoly_arithmetic_matches_fraction_reference(ca, cb, cc, q):
    a, b, c = UniPoly(ca), UniPoly(cb), UniPoly(cc)
    ra, rb, rc = _uref(ca), _uref(cb), _uref(cc)
    assert _as_uref(a) == ra and _as_uref(b) == rb
    assert _as_uref(a + b) == _uref_add(ra, rb)
    assert _as_uref(a - b) == _uref_add(ra, rb, -1)
    assert _as_uref(-a) == [-x for x in ra]
    assert _as_uref(a * b) == _uref_mul(ra, rb)
    assert _as_uref(a * q) == _uref([x * q for x in ra])
    assert _as_uref(a * -3) == [x * -3 for x in ra]
    assert _as_uref(a.derivative()) == _uref([i * x for i, x in enumerate(ra)][1:])
    assert a(q) == _uref_eval(ra, q) and a(-2) == _uref_eval(ra, -2)
    assert (a == b) == (ra == rb)
    twin = UniPoly(ra + [F(0)])
    assert a == twin and hash(a) == hash(twin)
    if rb:
        quo, rem = a.divmod(b)
        assert (_as_uref(quo), _as_uref(rem)) == _uref_divmod(ra, rb)
        assert _as_uref((a * b).exact_div(b)) == ra
    if ra or rb:
        assert _as_uref(a.gcd(b)) == _uref_gcd(ra, rb)
        # a shared factor c makes the gcd nontrivial
        if rc:
            assert _as_uref((a * c).gcd(b * c)) == _uref_gcd(_uref_mul(ra, rc),
                                                                _uref_mul(rb, rc))
    else:
        assert a.gcd(b).is_zero()


@settings(derandomize=True, deadline=None, max_examples=250)
@given(uni_coeffs, uni_coeffs, st.lists(small_fractions, max_size=3))
@example([F(1), 0, 0, 0, 0, 0, F(1)], [0, F(1), F(1)], [])     # a degree gap of 4
@example([F(1), 0, 0, 0, F(1)], [0, 0, 0, F(2)], [])           # remainder gap of 3
@example([F(3), 0, F(-1), 0, 0, F(1, 2), F(1)],
         [F(-2), F(1), 0, F(5, 3), F(1)], [])                   # gaps inside the sequence
@example([F(5)], [F(-2), 0, F(1, 3), F(1)], [])                 # a constant operand
@example([F(5)], [F(-2, 7)], [])                                # two constants
@example([F(1), F(2)], [F(3), F(1)], [F(-1), F(1, 2)])          # a zero resultant
def test_subresultant_matches_sylvester(ca, cb, shared):
    s = UniPoly(shared) if shared else UniPoly.const(1)
    a, b = UniPoly(ca) * s, UniPoly(cb) * s
    res = a.resultant(b)
    assert type(res) is F and res == sylvester_resultant(a, b)
    if not a.is_zero() and not b.is_zero():
        assert b.resultant(a) == (-1) ** (a.degree * b.degree) * res  # swapped operands
    if s.degree >= 1:
        assert res == 0
    if a.degree >= 1:
        n = a.degree
        disc = (-1) ** (n * (n - 1) // 2) * sylvester_resultant(a, a.derivative()) / a.lc
        assert a.discriminant() == disc


nonzero_fractions = small_fractions.filter(bool)
small_bipolys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                nonzero_fractions, min_size=2, max_size=5)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(small_bipolys, small_bipolys, st.integers(2, 9), st.integers(2, 9),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), nonzero_fractions,
                       max_size=3))
def test_bipoly_resultant_matches_sympy(tp, tq, dp, dq, tc):
    """Fractional denominators on both operands pin the den_p^n * den_q^m scaling."""
    p, q = BiPoly(tp) * F(1, dp), BiPoly(tq) * F(1, dq)
    assume(p.den > 1 and q.den > 1 and p.degree_in("y") >= 1 and q.degree_in("y") >= 1)
    x, y = sympy.symbols("x y")

    def to_sympy(f):
        terms = {(j, i): sympy.Rational(c.numerator, c.denominator)
                 for (i, j), c in f.terms.items()}
        return sympy.Poly.from_dict(terms, y, x, domain=sympy.QQ)

    # sympy 1.14 gets the sign of Res(f, g) wrong for some deg f < deg g
    # (Res_y(y + 1, y^3 + 3*y^2 + 2) gives -4 where its own Sylvester
    # determinant gives 4), so the oracle takes the higher degree first
    m, n = p.degree_in("y"), q.degree_in("y")
    if m >= n:
        expected = to_sympy(p).resultant(to_sympy(q)).as_expr()
    else:
        expected = (-1) ** (m * n) * to_sympy(q).resultant(to_sympy(p)).as_expr()
    got = p.resultant(q, "y")
    assert sympy.expand(expected - sum(sympy.Rational(c.numerator, c.denominator) * x**i
                                       for i, c in enumerate(got.coeffs))) == 0
    # a shared factor of positive degree in y makes the resultant vanish
    c = BiPoly(tc) + BiPoly.y()
    assert (p * c).resultant(q * c, "y").is_zero()


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------

def test_divides_with_a_divisor_not_monic_in_y():
    c = BiPoly.parse("x*y^2 + y - x^3 - 1")
    assert c.divides(c * (BiPoly.x() + 1))
    assert c.divides(c * BiPoly.parse("x*y - 2/3"))
    assert not c.divides(c * (BiPoly.x() + 1) + BiPoly.y())
    assert not c.divides(BiPoly.parse("x*y + 1"))
    # the first step leaves the remainder 1 of 1 divided by x
    assert not c.divides(BiPoly.y(2))


# the leading coefficient in y has positive degree in x, so the divisor is
# never monic in y
lead_terms = st.dictionaries(st.integers(1, 2), nonzero_fractions, min_size=1, max_size=2)
lower_terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), small_fractions,
                              max_size=3)
# content factors in x: a constant, x + 1, or a quadratic without rational roots
contents = st.sampled_from(["3/2", "x + 1", "2*x^2 + 3"]).map(BiPoly.parse)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(lead_terms, lower_terms, contents, small_bipolys, lower_terms)
def test_divides_matches_sympy(lead, lower, content, quotient, rest):
    b = (BiPoly({(i, 2): c for i, c in lead.items()}) + BiPoly(lower)) * content
    q = BiPoly(quotient)
    x, y = sympy.symbols("x y")

    def to_sympy(f):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j
                   for (i, j), c in f.terms.items())

    assert b.divides(b * q)
    a = b * q + BiPoly(rest)
    # one divisor is a Groebner basis of its ideal, so a zero remainder
    # of multivariate division is exactly divisibility
    _, r = sympy.div(to_sympy(a), to_sympy(b), x, y, domain=sympy.QQ)
    assert b.divides(a) == (r == 0)


# ---------------------------------------------------------------------------
# canonical strings
# ---------------------------------------------------------------------------

def test_canonical_round_trip():
    s = "y^3 + (3/4)*x*y^2 - 2*x*y + x^4 - 1/4"
    p = BiPoly.parse(s)
    assert BiPoly.parse(p.canonical()) == p
    assert p.canonical() == "x^4 + y^3 + (3/4)*x*y^2 - 2*x*y - 1/4"


def test_canonical_random_round_trip():
    for _ in range(50):
        p = BiPoly({(rng.randint(0, 4), rng.randint(0, 4)): rand_rat(6)
                    for _ in range(rng.randint(1, 6))})
        assert BiPoly.parse(p.canonical()) == p


def _fraction_text(terms):
    """The text rule on one Fraction per term: c1*m1 + c2*m2 - ..., an
    empty monomial printing the bare coefficient, a unit coefficient left
    out and a fractional one parenthesized."""
    if not terms:
        return "0"
    parts = []
    for c, mono in terms:
        a = abs(c)
        cs = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        if not mono:
            body = cs
        elif a == 1:
            body = mono
        else:
            body = (f"({cs})*" if a.denominator != 1 else f"{cs}*") + mono
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _power_text(*powers):
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers if e)


_coefficients = st.sampled_from([F(1), F(-1), F(1, 2), F(-3, 4), F(6, 4)]) | st.fractions(
    min_value=-40, max_value=40, max_denominator=12).filter(bool)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), _coefficients,
                       max_size=8),
       st.booleans())
def test_canonical_texts_match_the_fraction_rule(terms, constant):
    if not constant:
        terms.pop((0, 0), None)
    p = BiPoly(terms)
    d = p.total_degree
    affine = sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[1]))
    projective = sorted(terms, key=lambda k: (-k[1], -k[0]))
    assert p.canonical() == _fraction_text(
        [(terms[i, j], _power_text(("x", i), ("y", j))) for i, j in affine])
    assert p.projective_canonical() == _fraction_text(
        [(terms[i, j], _power_text(("X", i), ("Y", j), ("Z", d - i - j)) or "1")
         for i, j in projective])


@pytest.mark.parametrize("text, term", [
    ("y^2 - x^-1", "x^-1"),
    ("z*x + 1", "z*x"),
    ("y + 3x", "3x"),
    ("(x+1)*y", "(x+1)*y"),
    ("(x - 5)^2*y", "(x-5)^2*y"),
    ("x + ", ""),
])
def test_parse_rejects_a_malformed_term_naming_it(text, term):
    with pytest.raises(PreconditionError, match=f"malformed term {re.escape(repr(term))}"):
        BiPoly.parse(text)
