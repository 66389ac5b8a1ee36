"""Function-field elements, divisors, tame symbols and K2 certificates.

A function is scalar * prod poly_i^e_i, made by the one constructor
`FnElt(curve, scalar, factors)` into one normal form, in which rational
multiples of a polynomial are one factor (see `FnElt`); the zero
function is refused.  `FnElt.poly` is how a polynomial from outside
becomes a function; the arithmetic, the common denominator of a sum and
the record decoder use the same merge.

The tame symbol of {f, h} at a rational place P is the unit

    T_P({f,h}) = (-1)^(ord f * ord h) * (f^(ord h) / h^(ord f))(P),

an exact nonzero rational at rational places.  It is exactly 1 where
both orders are 0.  Elsewhere the value of the ord-zero quotient is a
ratio of leading series coefficients, taken only for a function whose
partner's order is nonzero.

Orders of vanishing are computed twice on purpose: through the
intersection-multiplicity reduction and through the series valuation
(at an affine point on the local series (x - x0, y - y0), at infinity
on the chart series: ord g = val g_P(s, w) - deg g val w, Fulton,
*Algebraic Curves*, chs. 3 and 7); a mismatch raises VerificationError,
because it would mean the ord bookkeeping (and so the certificate) is
wrong.  Every place keeps the chart of its point (`curves.point_chart`:
chart Z at an affine point, the curve shifted there once), and both
routes read the curve from it; a factor nonzero at an affine point of
the curve gets order 0 without a branch.  Each Horner pass stops at the
last row that survives mod t^prec.

Leading coefficients of functions, tame values and certificate totals
are products of powers, formed on integer (numerator, denominator)
pairs.  `Fraction` remains where a public value or the record text needs
one: the cached `val_lead` coefficients and function scalars, the
returns of `fn_val_lead`, `value` and `tame`, and each certificate row,
point total and product.

The divisor is the proof object of a construction, and it has one path:
`SymbolEngine.divisor` finds each function's divisor on a support once,
from its factors, which alone determine it, and keeps it.  The torsion
shape check compares that divisor with the claimed one, and
`verify_k2t` reads the same divisor, so each claim is proved once.  It
is also the one intersection rule: a contact element reads G cap C and
H cap C from div(g) and div(h), whose degree count proves each complete
and rational, and the 2-torsion family its contact numbers; the engine
has no separate `closure` or `intersection()`.

An element of K2 of the function field is an integer combination of
symbol pairs; `verify_k2t` certifies membership in the tame kernel over
the declared (rational) support and reports the product of all tame
values, which must equal 1 independently by the reciprocity law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .bipoly import BiPoly
from .branches import (Branch, branch_at_affine, branches_at_infinity,
                       eval_series)
from .curves import (CurvePoint, PlaneCurve, fulton_multiplicity,
                     intersection_multiplicity, rational_common_zeros)
from .errors import (NonRationalSupportError, PreconditionError,
                     VerificationError)
from .rationals import pow_pair, rat, rat_str
from .series import PowerSeries


# ---------------------------------------------------------------------------
# function field elements
# ---------------------------------------------------------------------------

class FnElt:
    """Element of Q(C), kept in factored form scalar * prod poly_i^e_i.

    `FnElt(curve, scalar, factors)` is the one constructor, and every
    element is in one normal form (`_merged`): constants are folded into
    the nonzero rational scalar, a polynomial c * p for a p held earlier
    merges into p with c^e in the scalar, and a polynomial whose exponent
    sums to 0 is dropped, so a later multiple starts it again at the end.
    The form is the same whether a function is built at once or one
    factor at a time.  It refuses the zero function: a zero scalar, or a
    factor that vanishes on the curve at any exponent ("zero function", or
    "denominator vanishes on the curve" for a negative exponent).
    `FnElt.poly` is how a polynomial from outside becomes a function, and
    `FnElt.constant` a rational.

    Orders of vanishing and leading series coefficients are additive and
    multiplicative over the factors, so every evaluation decomposes into
    work on the small building-block polynomials (which the engine
    caches); only a sum or difference expands products, over the common
    denominator.  `repr` prints the factored form.
    """

    __slots__ = ("curve", "scalar", "factors")

    def __init__(self, curve: PlaneCurve, scalar=1,
                 factors: Iterable[Tuple[BiPoly, int]] = ()):
        scalar = rat(scalar)
        if scalar == 0:
            raise PreconditionError("zero function")
        factors = tuple(factors)
        for poly, e in factors:
            if _vanishes_on_curve(curve, poly):
                raise PreconditionError("denominator vanishes on the curve" if e < 0
                                        else "zero function")
        self.curve = curve
        self.scalar, self.factors = _merged(scalar, factors)

    # -- arithmetic in the function field --------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FnElt(self.curve, self.scalar * other, self.factors)
        self._same_curve(other)
        return FnElt(self.curve, self.scalar * other.scalar, self.factors + other.factors)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise PreconditionError("division by zero")
            return FnElt(self.curve, self.scalar / other, self.factors)
        return self * other.inverse()

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "FnElt":
        """f +- g, g an FnElt or a rational, over the lcm of the factored
        denominators: each denominator polynomial, up to a rational
        multiple, at its largest exponent."""
        if isinstance(other, (int, Fraction)):
            other = FnElt.constant(self.curve, other)
        self._same_curve(other)
        lcd: Dict[frozenset, Tuple[BiPoly, int]] = {}  # one entry per class
        for p, e in self.factors + other.factors:
            if e < 0:
                key = p.primitive_key()
                q, k = lcd.get(key, (p, 0))
                lcd[key] = (q, max(k, -e))
        a, b = self.scalar, other.scalar
        # each side times lcd in normal form: no negative exponent is left
        sides = []
        for f, c in ((self, a.numerator * b.denominator),
                     (other, sign * b.numerator * a.denominator)):
            c, fs = _merged(Fraction(c), f.factors + tuple(lcd.values()))
            sides.append(BiPoly.product(fs) * c)
        return FnElt(self.curve, Fraction(1, a.denominator * b.denominator),
                     ((sides[0] + sides[1], 1),) + tuple((p, -k) for p, k in lcd.values()))

    def __pow__(self, n: int):
        return FnElt(self.curve, self.scalar**n, tuple((p, e * n) for p, e in self.factors))

    def inverse(self) -> "FnElt":
        return self**-1

    def _same_curve(self, other: "FnElt"):
        if other.curve is not self.curve:
            raise PreconditionError("function field elements live on different curves")

    @staticmethod
    def constant(curve: PlaneCurve, c) -> "FnElt":
        return FnElt(curve, c)

    @staticmethod
    def poly(curve: PlaneCurve, p: BiPoly) -> "FnElt":
        return FnElt(curve, 1, ((p, 1),))

    def is_constant(self) -> bool:
        return not self.factors

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise PreconditionError("not a constant function")
        return self.scalar

    def __repr__(self):
        factors = "".join(f" * ({p.canonical()})^{e}" for p, e in self.factors)
        return f"FnElt({rat_str(self.scalar)}{factors})"


def _merged(scalar: Fraction, factors) -> Tuple[Fraction, Tuple[Tuple[BiPoly, int], ...]]:
    """(scalar, factors) of scalar * prod p^e in the normal form `FnElt`
    describes: one factor per class of rational multiples."""
    classes: Dict[frozenset, Tuple[BiPoly, int]] = {}
    for poly, e in factors:
        if poly.total_degree == 0:
            scalar *= poly.coeff(0, 0) ** e
            continue
        key = poly.primitive_key()
        first, total = classes.get(key, (poly, 0))
        if first is not poly:  # poly = c * first, and c^e joins the scalar
            k = next(iter(poly.nums))
            scalar *= Fraction(poly.nums[k] * first.den, poly.den * first.nums[k]) ** e
        if total + e:
            classes[key] = (first, total + e)
        else:
            classes.pop(key, None)
    return scalar, tuple(classes.values())


def _two_routes_agree(p: CurvePoint, m: int, sers) -> None:
    """VerificationError unless every series is nonzero to its m + 1 terms
    and their valuations, one per place over p's projective point, sum to
    the intersection number m there."""
    if any(s.is_zero() for s in sers) or sum(s.val for s in sers) != m:
        got = " + ".join(f"> {m}" if s.is_zero() else str(s.val) for s in sers)
        raise VerificationError(
            f"ord bookkeeping wrong at {p.label()}: reduction gives {m}, series gives {got}")


def _vanishes_on_curve(curve: PlaneCurve, p: BiPoly) -> bool:
    if p.is_zero():
        return True
    if p.total_degree < curve.degree:
        return False
    return curve.affine.divides(p)


# ---------------------------------------------------------------------------
# divisors, symbols, elements
# ---------------------------------------------------------------------------

@dataclass
class Divisor:
    entries: Dict[CurvePoint, int] = field(default_factory=dict)

    def nonzero(self) -> Dict[CurvePoint, int]:
        return {p: v for p, v in self.entries.items() if v}

    def pretty(self) -> str:
        parts = [f"{v}*({p.label()})" for p, v in sorted(self.nonzero().items(), key=lambda kv: kv[0].label())]
        return " + ".join(parts) if parts else "0"


@dataclass
class SymbolPair:
    f: FnElt
    h: FnElt
    coefficient: int = 1


@dataclass
class K2Element:
    terms: List[SymbolPair]
    declared_support: List[CurvePoint]
    name: str = ""


@dataclass
class CertificateRow:
    point: CurvePoint
    pair_index: int
    coefficient: int
    ord_f: int
    ord_h: int
    value: Fraction  # T_P(pair)^coefficient


@dataclass
class Certificate:
    rows: List[CertificateRow]
    point_totals: Dict[CurvePoint, Fraction]
    product: Fraction
    verdict: str  # "PASS" | "FAIL"

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_jsonable(self) -> dict:
        return {
            "entries": [
                {
                    "point": row.point.label(),
                    "pair": row.pair_index,
                    "coefficient": row.coefficient,
                    "ord_f": row.ord_f,
                    "ord_h": row.ord_h,
                    "tame_value": rat_str(row.value),
                }
                for row in self.rows
            ],
            "point_totals": {p.label(): rat_str(v) for p, v in self.point_totals.items()},
            "product": rat_str(self.product),
            "verdict": self.verdict,
        }


@dataclass
class TorsionFunction:
    """fn with divisor m*(plus) - m*(minus); minus=None means the poles sit
    over the line at infinity (split over its branches)."""

    fn: FnElt
    plus: CurvePoint
    minus: Optional[CurvePoint]
    order: int


# ---------------------------------------------------------------------------
# the symbol engine (per-curve caching of branches)
# ---------------------------------------------------------------------------

class SymbolEngine:
    """Order/tame-symbol evaluator with cached branch expansions."""

    _origin = CurvePoint.affine(0, 0)

    def __init__(self, curve: PlaneCurve):
        self.curve = curve
        self._affine: Dict[CurvePoint, Branch] = {}
        self._infinity: Optional[Dict[CurvePoint, Branch]] = None
        self._val_lead_cache: Dict[Tuple[BiPoly, CurvePoint], Tuple[int, Fraction]] = {}
        self._divisors: Dict[tuple, Divisor] = {}  # (factors, support) -> div
        self._on_curve: Set[CurvePoint] = set()  # affine points found on the curve
        self._zeros_cache: Dict[BiPoly, Optional[Tuple[Tuple[Fraction, Fraction], ...]]] = {}

    # -- branches -----------------------------------------------------
    def _infinity_places(self) -> Dict[CurvePoint, Branch]:
        """The branch at each place at infinity, in point order."""
        if self._infinity is None:
            self._infinity = {b.point: b for b in branches_at_infinity(self.curve)}
        return self._infinity

    def branch(self, p: CurvePoint) -> Branch:
        if p.is_affine:
            br = self._affine.get(p)
            if br is None:
                br = branch_at_affine(self.curve, p)
                self._affine[p] = br
            return br
        br = self._infinity_places().get(p)
        if br is None:
            raise PreconditionError(f"no rational branch {p.label()} on this curve")
        return br

    def infinity_points(self) -> List[CurvePoint]:
        return list(self._infinity_places())

    def _places_over(self, p: CurvePoint) -> List[Branch]:
        """The places at infinity over p's projective point."""
        return [b for q, b in self._infinity_places().items() if (q.x, q.y) == (p.x, p.y)]

    # -- rational intersection with the curve ---------------------------
    def affine_zeros(self, poly: BiPoly) -> Optional[Tuple[Tuple[Fraction, Fraction], ...]]:
        """Rational affine common zeros of the curve and poly, computed once
        per distinct poly; None when they share a component."""
        if poly not in self._zeros_cache:
            zs = rational_common_zeros(self.curve.affine, poly)
            self._zeros_cache[poly] = None if zs is None else tuple(zs)
        return self._zeros_cache[poly]

    # -- series valuation / leading coefficient ------------------------
    def val_lead(self, poly: BiPoly, p: CurvePoint) -> Tuple[int, Fraction]:
        """Valuation and leading coefficient of poly along the branch at p.

        The valuation comes twice, from the intersection reduction and from
        the series, and a mismatch raises VerificationError.
        """
        key = (poly, p)
        hit = self._val_lead_cache.get(key)
        if hit is not None:
            return hit
        if poly.is_zero():
            raise PreconditionError("zero function")
        if poly.total_degree == 0:
            return 0, poly.coeff(0, 0)
        out = self._val_lead_uncached(poly, p)
        self._val_lead_cache[key] = out
        return out

    def _val_lead_uncached(self, poly: BiPoly, p: CurvePoint) -> Tuple[int, Fraction]:
        if p.is_affine:
            if p not in self._on_curve and not self.curve.contains(p):  # no branch needed to refuse p
                raise PreconditionError(f"point {p.label()} does not lie on the curve")
            self._on_curve.add(p)
            c = poly(p.x, p.y)
            if c != 0:
                return 0, c
            # the valuation is the intersection multiplicity m, so m + 1
            # terms of the local series (x - x0, y - y0) decide it
            br = self.branch(p)
            m, local = self._meet(poly, br)
            x, y = br.xy(m + 1)
            ser = eval_series(local, x - PowerSeries.const(p.x, x.prec),
                              y - PowerSeries.const(p.y, y.prec), m + 1)
            _two_routes_agree(p, m, [ser])
            return m, ser.leading()
        # g(x, y) = g_P(s, w) / w^deg g on the chart series (s, w), which have
        # no pole; the valuations of g_P over the places at P sum to
        # I = I_P(C, g^hom), so I + 1 terms decide each of them
        self.branch(p)  # PreconditionError unless p is a place at infinity
        deg, places = poly.total_degree, self._places_over(p)
        i, g_p = self._meet(poly, places[0])
        charts = [br.chart_series(max(i, br.w_val) + 1) for br in places]
        sers = [eval_series(g_p, s, w, i + 1) for s, w in charts]
        _two_routes_agree(p, i, sers)
        for br, (_, w), ser in zip(places, charts, sers):
            self._val_lead_cache[(poly, br.point)] = (ser.val - deg * br.w_val,
                                                      ser.leading() / w.leading()**deg)
        return self._val_lead_cache[(poly, p)]

    def _meet(self, poly: BiPoly, place: Branch) -> Tuple[int, BiPoly]:
        """(I_P(C, poly), poly in P's chart moved to the origin), for a place
        over P, affine on the curve where poly vanishes or at infinity, as
        `_val_lead_uncached` has checked.  Every place keeps its chart, so
        the curve is never shifted here; Fulton runs on the two chart
        polynomials, through intersection_multiplicity at an affine P."""
        name, origin, chart = place.chart
        local = poly.chart(name).shift(*origin)
        if place.point.is_affine:
            return intersection_multiplicity(chart, local, self._origin), local
        i = (fulton_multiplicity(chart, local, self.curve.degree * poly.total_degree)
             if not local.nums.get((0, 0)) else 0)
        return i, local

    # -- orders ----------------------------------------------------------
    def ord_poly(self, poly: BiPoly, p: CurvePoint) -> int:
        return self.val_lead(poly, p)[0]

    def ord(self, f: FnElt, p: CurvePoint) -> int:
        return sum(e * self.ord_poly(poly, p) for poly, e in f.factors)

    def fn_val_lead(self, f: FnElt, p: CurvePoint) -> Tuple[int, Fraction]:
        """Series valuation and leading coefficient of f along the branch at p."""
        val, num, den = self._val_lead_ints(f, p)
        return val, Fraction(num, den)

    def _val_lead_ints(self, f: FnElt, p: CurvePoint) -> Tuple[int, int, int]:
        """fn_val_lead as (val, num, den), the coefficient num/den on ints and
        not reduced; den is nonzero, of either sign."""
        val, num, den = 0, f.scalar.numerator, f.scalar.denominator
        for poly, e in f.factors:
            v, l = self.val_lead(poly, p)
            a, b = pow_pair(l.numerator, l.denominator, e)
            val, num, den = val + e * v, num * a, den * b
        return val, num, den

    def value(self, f: FnElt, p: CurvePoint) -> Fraction:
        """Value of f at p; requires ord_p(f) = 0 (unit)."""
        v, lead = self.fn_val_lead(f, p)
        if v != 0:
            raise PreconditionError(f"function is not a unit at {p.label()}")
        return lead

    # -- tame symbols -----------------------------------------------------
    def tame(self, pair: SymbolPair, p: CurvePoint) -> Fraction:
        """T_P({f, h}), exact.

        val_lead reconciles the orders' two routes, so a mismatch raises
        VerificationError.  T_P is 1 where both orders are 0, and a leading
        coefficient is taken only where the partner's order is nonzero.
        """
        return Fraction(*self._tame_ints(pair, p))

    def _tame_ints(self, pair: SymbolPair, p: CurvePoint,
                   ords: Optional[Tuple[int, int]] = None) -> Tuple[int, int]:
        """tame as (num, den) on ints, not reduced, given (ord_P f, ord_P h)
        or from self.ord."""
        m, n = ords or (self.ord(pair.f, p), self.ord(pair.h, p))
        if not (m or n):
            return 1, 1
        a, b = pow_pair(*self._val_lead_ints(pair.f, p)[1:], n) if n else (1, 1)  # lead_f^n
        c, d = pow_pair(*self._val_lead_ints(pair.h, p)[1:], m) if m else (1, 1)  # lead_h^m
        return (-1 if (m * n) % 2 else 1) * a * d, b * c

    # -- divisors ----------------------------------------------------------
    def with_infinity(self, points: Sequence[CurvePoint]) -> List[CurvePoint]:
        """`points` without repeats, then each place at infinity not among them."""
        return list(dict.fromkeys([*points, *self._infinity_places()]))

    def divisor(self, f: FnElt, support: Sequence[CurvePoint]) -> Divisor:
        """div(f) on `support`, found once per engine for f's factors, on
        which it alone depends; the same Divisor is returned on every call.

        NonRationalSupportError ("support incomplete") unless `support`
        holds every zero of each factor of f and every place at infinity
        where f has a nonzero order.  A refusal is not kept, so it is
        raised again on every call.
        """
        key = (f.factors, tuple(support))
        div = self._divisors.get(key)
        if div is not None:
            return div
        declared = dict.fromkeys(support)
        places = self.with_infinity(declared)
        total = [0] * len(places)
        for poly, e in f.factors:
            orders = [self.ord_poly(poly, p) for p in places]
            # div(poly) has degree 0 and its poles lie at infinity, among
            # `places`, so orders that sum to 0 leave no zero elsewhere
            if sum(orders):
                raise NonRationalSupportError(
                    f"support incomplete: {poly.canonical()} has a zero off the "
                    "declared support")
            total = [t + e * v for t, v in zip(total, orders)]
        for p, v in zip(places[len(declared):], total[len(declared):]):
            if v:
                raise NonRationalSupportError(
                    f"support incomplete: order {v} at {p.label()}, which is not declared")
        div = self._divisors[key] = Divisor(dict(zip(declared, total)))
        return div

    def support_candidates(self, fns: Sequence[FnElt],
                           extra: Sequence[CurvePoint] = ()) -> List[CurvePoint]:
        """Rational zero/pole candidates of the given functions."""
        pts: List[CurvePoint] = list(extra)
        seen = set(pts)
        for f in fns:
            for poly, _ in f.factors:
                zs = self.affine_zeros(poly)
                if zs is None:
                    raise VerificationError("degenerate support: shared component with the curve")
                for (x0, y0) in zs:
                    p = CurvePoint.affine(x0, y0)
                    if p not in seen:
                        seen.add(p)
                        pts.append(p)
        return self.with_infinity(pts)


def verify_k2t(curve: PlaneCurve, elem: K2Element,
               engine: SymbolEngine = None) -> Certificate:
    """Certify that every tame symbol of `elem` over its declared support is 1.

    Also re-checks that the declared points hold the whole support (see
    SymbolEngine.divisor) and reports the product of all point totals,
    which reciprocity forces to 1.
    """
    eng = engine or SymbolEngine(curve)
    support = tuple(elem.declared_support)
    divs = [(eng.divisor(pair.f, support).entries, eng.divisor(pair.h, support).entries)
            for pair in elem.terms]
    one = Fraction(1)
    rows: List[CertificateRow] = []
    totals: Dict[CurvePoint, Fraction] = {}
    prod_num = prod_den = 1
    for p in support:
        num = den = 1  # the point total, on ints
        for idx, (pair, (div_f, div_h)) in enumerate(zip(elem.terms, divs)):
            mf, mh, val = div_f[p], div_h[p], one
            if mf or mh:
                a, b = pow_pair(*eng._tame_ints(pair, p, (mf, mh)), pair.coefficient)
                num, den, val = num * a, den * b, Fraction(a, b)
            rows.append(CertificateRow(p, idx, pair.coefficient, mf, mh, val))
        totals[p] = Fraction(num, den)
        prod_num, prod_den = prod_num * num, prod_den * den
    product = Fraction(prod_num, prod_den)
    verdict = "PASS" if all(v == 1 for v in totals.values()) else "FAIL"
    return Certificate(rows, totals, product, verdict)


def construction_torsion(curve: PlaneCurve,
                         t1: TorsionFunction, t2: TorsionFunction, t3: TorsionFunction,
                         engine: SymbolEngine = None,
                         extra_support: Sequence[CurvePoint] = ()) -> List[K2Element]:
    """Build the three symbols S_i from a torsion triple.

    The inputs index as: t_i has divisor m_i (P_(i+1)) - m_i (P_(i-1))
    for the point triple (P_1, P_2, P_3); each shape is re-verified
    before any symbol is formed.  S_i pairs the functions normalized to
    take value 1 at their own index point.
    """
    eng = engine or SymbolEngine(curve)
    tfs = [t1, t2, t3]
    points = [t3.plus, t1.plus, t2.plus]  # P_1, P_2, P_3
    # consistency of the cyclic labelling (each plus point is in `points`
    # by construction, so only the minus points can be mislabelled)
    for i, tf in enumerate(tfs, start=1):
        if tf.minus is not None and tf.minus != points[(i - 2) % 3]:
            raise PreconditionError("not a torsion triple: divisor endpoints mislabelled")
    candidates = eng.support_candidates([tf.fn for tf in tfs],
                                        extra=list(points) + list(extra_support))
    for tf in tfs:
        verify_torsion_shape(eng, tf, candidates)
    normalized = [tf.fn / eng.value(tf.fn, own_point) for tf, own_point in zip(tfs, points)]
    elements = []
    for i in range(1, 4):
        n_plus = normalized[i % 3]         # h_(i+1)/h_(i+1)(P_(i+1))
        n_minus = normalized[(i - 2) % 3]  # h_(i-1)/h_(i-1)(P_(i-1))
        elem = K2Element([SymbolPair(n_plus, n_minus, 1)], list(candidates))
        elements.append(elem)
    return elements


def verify_torsion_shape(eng: SymbolEngine, tf: TorsionFunction,
                         candidates: Sequence[CurvePoint]):
    """Check div(fn) = m (plus) - m (minus) exactly; with minus None, poles
    at infinity are allowed as well."""
    got = eng.divisor(tf.fn, candidates).nonzero()
    want = {tf.plus: tf.order}
    if tf.minus is None:
        got = {p: v for p, v in got.items() if p.is_affine or v > 0}
    else:
        want[tf.minus] = -tf.order
    if got != want:
        raise PreconditionError("not a torsion triple: " + "; ".join(
            f"order {got.get(p, 0)} at {p.label()}, expected {want.get(p, 0)}"
            for p in dict.fromkeys([*want, *got]) if got.get(p, 0) != want.get(p, 0)))


def steinberg_values(curve: PlaneCurve, f: FnElt,
                     points: Sequence[CurvePoint] = (),
                     engine: SymbolEngine = None) -> List[Tuple[CurvePoint, Fraction]]:
    """T_p({f, 1-f}) at the given points plus every discovered rational
    zero/pole of f and 1-f.  Each value must be 1 (Steinberg relation);
    values are returned for the caller to assert."""
    eng = engine or SymbolEngine(curve)
    one_minus = FnElt.constant(curve, 1) - f
    pair = SymbolPair(f, one_minus, 1)
    return [(p, eng.tame(pair, p))
            for p in eng.support_candidates([f, one_minus], extra=points)]


def nekovar_element(curve: PlaneCurve,
                    g_poly: BiPoly,
                    h_poly: BiPoly,
                    torsion_data: Sequence[TorsionFunction],
                    kappa: Fraction,
                    h_scale: Fraction = Fraction(1),
                    engine: SymbolEngine = None):
    """Element m*{g/kappa, h} - sum (m/m_i)*{k_i, g_i} from contact data,
    with k_i the tame symbol of {g/kappa, h} at the zero P_i of g_i.

    `g_poly` and `h_poly` are the affine polynomials of the auxiliary
    curves G and H; the implicit E is the line at infinity (all families
    here have maximal contact between C and L_infinity at one rational
    point, which is verified).  The three hypotheses checked:

    (a) maximal contact of the curve with the line at infinity at a
        single rational point: F(X, Y, 0) has one root, and it is
        rational.  I_P(C, Z) is the multiplicity of P as a root of
        F(X, Y, 0) (Fulton, *Algebraic Curves*, sec. 3.3), so the
        contact there is deg C;
    (b) every intersection point of G with the curve is rational and
        comes with a torsion function (divisor shapes re-verified);
    (c) g takes one constant value (up to sign) at every intersection
        point of H with the curve; a sign mix triggers the squaring
        adjustment, which is recorded in the returned metadata.

    G cap C and H cap C are read from `SymbolEngine.divisor` of g and h
    on the support candidates, whose degree count refuses ("support
    incomplete") an intersection with a point that is not rational.

    Returns (element, info dict); info["h_points"] lists H cap C as
    (point, multiplicity) pairs, in `affine_zeros` order.
    """
    eng = engine or SymbolEngine(curve)
    kappa = rat(kappa)
    # (a) maximal contact with the line at infinity at one rational point
    inf_pts, complete = curve.rational_infinity_points()
    if not complete or len(inf_pts) != 1:
        raise PreconditionError("maximal contact hypothesis fails: "
                                "line at infinity must meet the curve in one rational point")
    g = FnElt.poly(curve, g_poly)
    h = FnElt.poly(curve, h_poly * h_scale)
    candidates = eng.support_candidates(
        [tf.fn for tf in torsion_data] + [g, h],
        extra=[tf.plus for tf in torsion_data])
    # (b) G cap C, whole and rational by div(g): each point has torsion data
    supplied = {tf.plus for tf in torsion_data}
    for pt, _ in _affine_divisor(eng, g, candidates):
        if pt not in supplied:
            raise NonRationalSupportError(
                f"rational support required: no torsion function at {pt.label()}")
    for tf in torsion_data:
        verify_torsion_shape(eng, tf, candidates)
    # (c) constancy of g on H cap C, whole and rational by div(h)
    h_points = _affine_divisor(eng, h, candidates)
    values = [(pt, mult, eng.value(g, pt)) for (pt, mult) in h_points]
    target = abs(kappa)
    if any(abs(v) != target for (_, _, v) in values):
        raise PreconditionError(
            "constancy hypothesis fails: g is not constant (up to sign) on H")
    signs = {1 if v > 0 else -1 for (_, _, v) in values}
    power = 1 if len(signs) == 1 else 2
    kappa_eff = values[0][2] ** power
    g_tilde = g**power / kappa_eff
    m = lcm(*[tf.order for tf in torsion_data])
    base_pair = SymbolPair(g_tilde, h, 1)
    terms = [SymbolPair(g_tilde, h, m)]
    info = {
        "power_adjusted": power == 2,
        "kappa": kappa_eff,
        "m": m,
        "h_pattern": sorted((mult for (_, mult) in h_points), reverse=False),
        "h_points": h_points,
    }
    for tf in torsion_data:
        k_i = eng.tame(base_pair, tf.plus)
        terms.append(SymbolPair(FnElt.constant(curve, k_i), tf.fn, -(m // tf.order)))
    support = list(dict.fromkeys(
        [tf.plus for tf in torsion_data]
        + [pt for (pt, _) in h_points]
        + candidates))
    elem = K2Element(terms, support)
    return elem, info


def _affine_divisor(eng: SymbolEngine, f: FnElt, support: Sequence[CurvePoint]):
    """[(P, ord_P f)] at each rational affine zero P of f's factors, in `affine_zeros` order."""
    div = eng.divisor(f, support).entries
    return [(p, div[p]) for poly, _ in f.factors
            for p in (CurvePoint.affine(*z) for z in eng.affine_zeros(poly))]
