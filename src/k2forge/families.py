"""Generators for the curve families with certified K2 elements.

Every generator follows the same discipline: build the curve from exact
parameter data, reject singular members (discriminant or smoothness
gate, naming the vanishing factor where a closed form is printed),
construct the torsion functions with explicitly known divisors, run the
symbols through the tame-kernel certifier, and only then assemble a
CurveRecord.  A generator never returns an unverified record.

Each geometric claim (a vertical tangent of contact k, a tangent through
O, the conic's contact 8, the contact d of y = 0 at O) is proved once, by
`construction_torsion` or `nekovar_element`, as its torsion block's exact
divisor m(P) - m(inf); that covers the tangency identity, the contact
and Bezout's count.  A false claim ends in VerificationError naming the
element.

Hyperelliptic models:   y^2 + f1(x)*y + x^d = 0,  d in {2g+1, 2g+2}.
Quartic models:         y^3 + f2(x)*y^2 + f1(x)*y + x^4 = 0.
Conic-contact quartics: ((y + d1*x + d2)^2 + d3*x + d4*x^2)*y + x^4 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Dict, List, Optional, Sequence, Tuple

from .bipoly import BiPoly
from .curves import Conic, CurvePoint, PlaneCurve, smoothness_check
from .errors import (NonRationalSupportError, PreconditionError,
                     SingularModelError, VerificationError)
from .linalg import vandermonde_solve
from .rationals import is_integer, rat, rat_str
from .records import RECORD_LIMIT, CurveRecord, NamedElement
from .symbols import (FnElt, SymbolEngine, TorsionFunction, construction_torsion,
                      nekovar_element, verify_k2t)
from .unipoly import UniPoly


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------

def _y2_model(f1: UniPoly, d: int) -> Tuple[PlaneCurve, UniPoly, Fraction]:
    """Curve y^2 + f1*y + x^d, its two-torsion polynomial -4x^d + f1^2 and
    that polynomial's discriminant.

    The curve is (2y + f1)^2 = -4x^d + f1^2, so a repeated root, or a
    degree below d - 1, makes it singular (SingularModelError).
    """
    tpoly = f1 * f1 - UniPoly.x(d) * 4
    if tpoly.degree < d - 1:
        raise SingularModelError("discriminant vanishes: two-torsion polynomial drops degree")
    disc = tpoly.discriminant()
    if disc == 0:
        raise SingularModelError("discriminant vanishes: disc(-4x^d + f1^2) = 0")
    curve = PlaneCurve(
        BiPoly.y(2) + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(d))
    return curve, tpoly, disc


def hyperelliptic_curve(g: int, d: int,
                        f1: UniPoly) -> Tuple[PlaneCurve, UniPoly, Fraction]:
    """The model y^2 + f1*y + x^d of genus g (see _y2_model).

    Rejects degenerate interpolants (wrong degree shape) and degrees past
    the record format limit.
    """
    if d not in (2 * g + 1, 2 * g + 2):
        raise PreconditionError("degree must be 2g+1 or 2g+2")
    if d > RECORD_LIMIT:
        raise PreconditionError(f"degree {d} is past the record format limit of {RECORD_LIMIT}")
    if d == 2 * g + 1 and f1.degree > g:
        raise PreconditionError("f1 degree exceeds g for the odd model")
    if d == 2 * g + 2:
        if f1.degree != g + 1 or f1.lc != 2:
            raise PreconditionError("even model needs leading term 2x^(g+1)")
    return _y2_model(f1, d)


def _quartic_poly(f1: UniPoly, f2: UniPoly) -> BiPoly:
    return (BiPoly.y(3) + BiPoly.from_unipoly(f2) * BiPoly.y(2)
            + BiPoly.from_unipoly(f1) * BiPoly.y() + BiPoly.x(4))


def _smooth_quartic(poly: BiPoly) -> PlaneCurve:
    curve = PlaneCurve(poly)
    report = smoothness_check(curve)
    if not report.smooth:
        raise SingularModelError(f"singular quartic (witness: {report.witness})")
    return curve


def quartic_curve(f1: UniPoly, f2: UniPoly) -> PlaneCurve:
    """Smooth plane quartic y^3 + f2*y^2 + f1*y + x^4 (smoothness enforced)."""
    if f1.degree > 2 or f2.degree > 1:
        raise PreconditionError("quartic model needs deg f1 <= 2 and deg f2 <= 1")
    return _smooth_quartic(_quartic_poly(f1, f2))


def conic_quartic_curve(conic: Conic) -> PlaneCurve:
    """Quartic with maximal conic contact: D(x,y)*y + x^4."""
    return _smooth_quartic(conic.poly() * BiPoly.y() + BiPoly.x(4))


# ---------------------------------------------------------------------------
# torsion blocks and triples
# ---------------------------------------------------------------------------

def _pair_function(a: TorsionFunction, b: TorsionFunction) -> TorsionFunction:
    """Function with divisor l*(A) - l*(B), l = lcm of the block orders."""
    l = lcm(a.order, b.order)
    return TorsionFunction(a.fn ** (l // a.order) / b.fn ** (l // b.order),
                           plus=a.plus, minus=b.plus, order=l)


class _Marks:
    """The named points of a triple family with their auxiliary lines and
    torsion blocks, and the elements built from them, in record order:
    inf, then O with block y (divisor deg C * (O - inf)), then each point
    added.  A block is a torsion function from its point to inf."""

    def __init__(self, curve: PlaneCurve, eng: SymbolEngine):
        self.curve, self.eng = curve, eng
        self.points = {"inf": eng.infinity_points()[0]}
        self.aux_lines: List[dict] = []
        self.blocks: Dict[str, TorsionFunction] = {}
        self.elements: List[NamedElement] = []
        self.add("O", CurvePoint.affine(0, 0), FnElt.poly(curve, BiPoly.y()),
                 curve.degree, ["0", "1", "0"])

    def add(self, name: str, point: CurvePoint, fn: FnElt, order: int,
            line: Optional[List[str]] = None) -> None:
        """Mark `point` as `name` with block fn, of divisor order*(point -
        inf), and aux line L_name when given."""
        self.points[name] = point
        self.blocks[name] = TorsionFunction(fn, plus=point, minus=self.points["inf"],
                                            order=order)
        if line is not None:
            self.aux_lines.append({"label": f"L_{name}", "coeffs": line})

    def vertical(self, name: str, alpha: Fraction, beta: Fraction, contact: int) -> None:
        """(alpha, beta), where x = alpha has the given contact: block x - alpha."""
        fn = FnElt.poly(self.curve, BiPoly.x() - BiPoly.const(alpha))
        self.add(name, CurvePoint.affine(alpha, beta), fn, contact,
                 ["1", "0", rat_str(-alpha)])

    def through_origin(self, name: str, slope: Fraction, q: CurvePoint) -> None:
        """q, whose tangent y = slope*x passes through O.

        div(y - slope*x) = 3(q) + (O) - 4(inf), so (y - slope*x)^4 / y has
        divisor 12(q) - 12(inf).
        """
        line = BiPoly.y() - BiPoly.x() * slope
        fn = FnElt.poly(self.curve, line)**4 / self.blocks["O"].fn
        self.add(name, q, fn, 12, [rat_str(-slope), "1", "0"])

    def element(self, a_name: str, b_name: str, extra: Sequence[str] = ()) -> None:
        """The element {inf,A,B}, with the points named in `extra` declared too.

        Builds h_1, h_2, h_3 with the cyclic divisor pattern (h_2 is the
        block of B), forms the three symbols S_i, verifies each against the
        tame kernel and refuses to keep anything that does not certify.
        """
        name = f"{{inf,{a_name},{b_name}}}"
        a, b = self.blocks[a_name], self.blocks[b_name]
        t1 = _pair_function(a, b)
        t3 = TorsionFunction(a.fn.inverse(), plus=a.minus, minus=a.plus, order=a.order)
        try:
            symbols = construction_torsion(self.curve, t1, b, t3, engine=self.eng,
                                           extra_support=[self.points[n] for n in extra])
        except PreconditionError as e:  # a block's divisor is not what its mark claims
            raise VerificationError(f"element {name}: {e}") from e
        certs = [verify_k2t(self.curve, s, engine=self.eng) for s in symbols]
        if not all(c.passed for c in certs):
            raise VerificationError(f"element {name} failed tame verification")
        orders = [t1.order, b.order, a.order]
        self.elements.append(NamedElement(name=name, kind="triple", symbols=symbols,
                                          certificates=certs, orders=orders,
                                          lcm=lcm(*orders)))

    def record(self, family_id: str, params: dict, model: dict, **fields) -> CurveRecord:
        """The record of these marks, with its integrality flags."""
        rec = CurveRecord(family_id=family_id, params=params, curve=self.curve,
                          model=model, points=self.points, elements=self.elements,
                          aux_lines=self.aux_lines, **fields)
        rec.integrality_flags = integrality_flags(rec)
        return rec


# ---------------------------------------------------------------------------
# hyperelliptic families
# ---------------------------------------------------------------------------

def _hyp_record(family_id: str, params: dict, g: int, d: int, f1: UniPoly,
                marked: List[Tuple[Fraction, Fraction]],
                notes: Sequence[str] = ()) -> CurveRecord:
    """Common path: model and extras first, so that a number past the digit
    limit refuses before any symbol work, then elements and flags.  The
    divisor of each block x - alpha, 2(alpha, beta) - 2(inf), proves the
    vertical tangent and the one place at infinity (a second would hold
    stray poles)."""
    curve, tpoly, disc = hyperelliptic_curve(g, d, f1)
    model = {
        "type": "hyperelliptic",
        "genus": g,
        "d": d,
        "f1": [rat_str(c) for c in f1.coeffs],
    }
    extras = {
        "two_torsion_poly": [rat_str(c) for c in tpoly.coeffs],
        "disc_two_torsion": rat_str(disc),
    }
    if d == 2 * g + 2:
        first, second = _t_split(f1, g)
        extras["t_split"] = {
            "first_factor": [rat_str(c) for c in first.coeffs],
            "second_factor": [rat_str(c) for c in second.coeffs],
        }
    extras["integral_model"] = _integral_model(d, f1)
    marks = _Marks(curve, SymbolEngine(curve))
    for i, (alpha, beta) in enumerate(marked, start=1):
        marks.vertical(f"P{i}", alpha, beta, 2)
    for i in range(1, len(marked) + 1):
        marks.element("O", f"P{i}")
    return marks.record(family_id, params, model, notes=list(notes), extras=extras)


def _t_split(f1: UniPoly, g: int) -> Tuple[UniPoly, UniPoly]:
    """The factors f1/2 - x^(g+1) and f1/2 + x^(g+1) of -(-4x^d + f1^2)/4."""
    half = f1 * Fraction(1, 2)
    return half - UniPoly.x(g + 1), half + UniPoly.x(g + 1)


def _hyp_family(family_id: str, params: dict, g: int, d: int,
                constraints: Sequence[Tuple[Fraction, int]], free: Sequence[Fraction],
                notes: Sequence[str] = ()) -> CurveRecord:
    """The construction all three hyperelliptic families share.

    Each constraint (a, eps) asks for a vertical tangent at (a^2, eps a^d)
    when d is odd, at (a, eps a^(g+1)) when d is even: f1(node) = -2 beta.
    With m constraints, f1 = H + V(nodes, -2 beta - H(nodes)), where
    H = sum_k free_k x^(m+k) (plus 2x^(g+1) when d is even) and V is the
    interpolant of degree < m.  A wrong f1(node) puts the mark off the
    curve, so its element refuses.
    """
    if g < 1:
        raise PreconditionError(f"genus must be at least 1, got {g}")
    if d not in (2 * g + 1, 2 * g + 2):
        raise PreconditionError("degree must be 2g+1 or 2g+2")
    if any(e not in (1, -1) for _, e in constraints):
        raise PreconditionError("epsilon entries must be +1 or -1")
    if any(x == 0 for x, _ in constraints):
        raise PreconditionError("parameters must be nonzero")
    odd = d % 2 == 1
    nodes = [x * x if odd else x for x, _ in constraints]
    if len(set(nodes)) != len(nodes):
        raise PreconditionError("singular Vandermonde: " + (
            "squares of parameters collide" if odd else "repeated parameters"))
    marked = [(node, e * x**(d if odd else g + 1))
              for node, (x, e) in zip(nodes, constraints)]
    h = UniPoly([0] * len(nodes) + list(free))
    if not odd:
        h = h + UniPoly.x(g + 1) * 2
    targets = [-2 * beta - h(node) for node, beta in marked]
    f1 = h + UniPoly(vandermonde_solve(nodes, targets))
    return _hyp_record(family_id, params, g, d, f1, marked, notes)


def gen_hyp_odd(g: int, a: Sequence) -> CurveRecord:
    """Odd-degree family: interpolate f1 through (a_i^2, -2 a_i^(2g+1))."""
    a = [rat(x) for x in a]
    if len(a) != g + 1:
        raise PreconditionError("need exactly g+1 parameters")
    return _hyp_family("hyp-odd", {"genus": g, "a": a}, g, 2 * g + 1,
                       [(x, 1) for x in a], [])


def gen_hyp_even(g: int, a: Sequence, eps: Sequence[int]) -> CurveRecord:
    """Even-degree family with sign choices eps_i: f1(a_i) = -2 eps_i a_i^(g+1)."""
    a, eps = [rat(x) for x in a], [int(e) for e in eps]
    if len(a) != g + 1 or len(eps) != g + 1:
        raise PreconditionError("need g+1 parameters and g+1 signs")
    notes = ["universal relation: the g+2 classes from this model satisfy "
             "one linear relation in the tame kernel modulo torsion"]
    return _hyp_family("hyp-even", {"genus": g, "a": a, "eps": eps}, g, 2 * g + 2,
                       list(zip(a, eps)), [], notes)


def gen_hyp_partial(g: int, d: int, constraints: Sequence[Tuple[object, int]],
                    free_params: Sequence) -> CurveRecord:
    """Underdetermined family: m <= g+1 prescribed vertical tangents, and
    the g+1-m remaining coefficients of f1, those of x^m .. x^g, from
    `free_params` (see _hyp_family)."""
    cons = [(rat(x), int(e)) for (x, e) in constraints]
    free = [rat(v) for v in free_params]
    m = len(cons)
    if m > g + 1:
        raise PreconditionError("more constraints than coefficients")
    if len(free) != g + 1 - m:
        raise PreconditionError("free parameter count must be g+1-m")
    params = {"genus": g, "d": d,
              "a": [x for (x, _) in cons], "eps": [e for (_, e) in cons],
              "free": free}
    return _hyp_family("hyp-partial", params, g, d, cons, free)


# ---------------------------------------------------------------------------
# printed closed forms (independent cross-checks)
# ---------------------------------------------------------------------------

def q_thm53_printed(a, b, c) -> Fraction:
    a, b, c = rat(a), rat(b), rat(c)
    return (9 * a**5 + 30 * a**4 * b**3 - 24 * a**4 * c + 4 * a**3 * b**6
            + 23 * a**3 * b**3 * c + 16 * a**3 * c**2 + 12 * a**2 * b**9
            + 3 * a**2 * b**6 * c + 12 * a**2 * b**3 * c**2 - 3 * a * b**12
            - 3 * a * b**9 * c - 2 * b**15 - 5 * b**12 * c - 4 * b**9 * c**2
            - b**6 * c**3)


def disc_thm53_factors(a, b, c) -> List[Tuple[str, Fraction]]:
    a, b, c = rat(a), rat(b), rat(c)
    return [
        ("a^42", a**42),
        ("b^36", b**36),
        ("(a+b^3)^3", (a + b**3)**3),
        ("(2a-2b^3-c)^6", (2 * a - 2 * b**3 - c)**6),
        ("(3a-2b^3-c)", 3 * a - 2 * b**3 - c),
        ("(3a-b^3-c)", 3 * a - b**3 - c),
        ("(6a+2b^3+c)^2", (6 * a + 2 * b**3 + c)**2),
        ("q(a,b,c)", q_thm53_printed(a, b, c)),
    ]


def disc_thm53_printed(a, b, c) -> Fraction:
    return prod(v for _, v in disc_thm53_factors(a, b, c))


def ct_cubic_printed(t) -> Fraction:
    t = rat(t)
    return 32 * t**3 + 96 * t**2 - 12 * t + 5


def disc_ct_printed(t) -> Fraction:
    t = rat(t)
    return (Fraction(1, 2**52) * (t - 1)**2 * (t + 3)**6 * (2 * t + 5)
            * (2 * t + 7) * ct_cubic_printed(t))


def i3_ct_printed(t) -> Fraction:
    t = rat(t)
    return Fraction(1, 2**7) * (16 * t**3 + 84 * t**2 + 98 * t - 15)


def disc_ex63_printed(a1, a2) -> Fraction:
    a1, a2 = rat(a1), rat(a2)
    d = a1**2 + a1 * a2 + a2**2
    if d == 0:
        return Fraction(0)
    return prod((v for _, v in disc_ex63_factors(a1, a2)),
                start=-Fraction(43046721, 67108864) / d**22)


def disc_ex63_factors(a1, a2) -> List[Tuple[str, Fraction]]:
    a1, a2 = rat(a1), rat(a2)
    return [
        ("a1^42", a1**42),
        ("a2^42", a2**42),
        ("(4a1^3+8a1^2a2+12a1a2^2+3a2^3)^3",
         (4 * a1**3 + 8 * a1**2 * a2 + 12 * a1 * a2**2 + 3 * a2**3)**3),
        ("(a1-a2)^4", (a1 - a2)**4),
        ("(a2+a1)^2", (a2 + a1)**2),
        ("octic", (a1**8 + 22 * a1**7 * a2 + 67 * a1**6 * a2**2 + 140 * a1**5 * a2**3
                   + 161 * a1**4 * a2**4 + 140 * a1**3 * a2**5 + 67 * a1**2 * a2**6
                   + 22 * a1 * a2**7 + a2**8)),
        ("(3a1^3+12a1^2a2+8a1a2^2+4a2^3)^3",
         (3 * a1**3 + 12 * a1**2 * a2 + 8 * a1 * a2**2 + 4 * a2**3)**3),
    ]


def disc_ex64_printed(a, b) -> Fraction:
    a, b = rat(a), rat(b)
    return (-4 * a**42 * b**42
            * (-8 * b**18 - 36 * a * b**15 - 18 * a**2 * b**12 + 189 * a**3 * b**9
               + 351 * a**4 * b**6 + 162 * a**5 * b**3 + 27 * a**6)
            * (2 * b**3 + 3 * a)**2
            * (144 * b**12 + 576 * a * b**9 + 504 * a**2 * b**6
               + 112 * a**3 * b**3 + 9 * a**4)**2)


def disc_ex62_factors(a, d1, d4) -> List[Tuple[str, Fraction]]:
    """The explicitly printed factors (the degree-12 cofactor is not printed)."""
    a, d1, d4 = rat(a), rat(d1), rat(d4)
    return [
        ("a^42", a**42),
        ("(3a^2-4d4)^2", (3 * a**2 - 4 * d4)**2),
        ("(3a-2d1)^8", (3 * a - 2 * d1)**8),
        ("(13a^2-4ad1-4d4)^3", (13 * a**2 - 4 * a * d1 - 4 * d4)**3),
    ]


def _gate_on_factors(factors: List[Tuple[str, Fraction]], family: str) -> None:
    for name, value in factors:
        if value == 0:
            raise SingularModelError(
                f"singular member of {family}: factor {name} vanishes", vanished=name)


# ---------------------------------------------------------------------------
# quartic families from line configurations
# ---------------------------------------------------------------------------

def _thm53_polys(a, b, c) -> Tuple[UniPoly, UniPoly]:
    f1 = UniPoly([a**6 * b**6, a**3 * b**3 * c, 3 * a**2 - b**6 - b**3 * c])
    f2 = UniPoly([3 * a**4 - a**3 * c, c])
    return f1, f2


def gen_quartic_lines(a, b, c) -> CurveRecord:
    """Quartic with hyperflexes at O and infinity plus two 3-contact tangents."""
    a, b, c = rat(a), rat(b), rat(c)
    if a == 0 or b == 0:
        raise PreconditionError("a and b must be nonzero")
    if a == b:
        raise PreconditionError("parameters must satisfy a != b")
    return _lines_record("quartic-lines", {"a": a, "b": b, "c": c}, a, b, c,
                         {"disc_printed": rat_str(disc_thm53_printed(a, b, c))})


def _lines_record(family_id: str, params: dict, a: Fraction, b: Fraction, c: Fraction,
                  extras: dict) -> CurveRecord:
    """The line construction on the quartic of (a, b, c): marks, elements, record."""
    f1, f2 = _thm53_polys(a, b, c)
    vanished = [n for n, v in disc_thm53_factors(a, b, c) if v == 0]
    try:
        curve = quartic_curve(f1, f2)
    except SingularModelError:
        raise SingularModelError(
            "singular member: " + (f"factor {vanished[0]} vanishes" if vanished
                                   else "smoothness check failed"),
            vanished=vanished[0] if vanished else None)
    if vanished:
        # the printed product must agree with the smoothness verdict
        raise VerificationError(
            "printed discriminant vanishes on a smooth member: cross-check failed")
    marks = _Marks(curve, SymbolEngine(curve))
    marks.vertical("P", a**3, -a**4, 3)
    marks.through_origin("Q", b**3, CurvePoint.affine(-a**2 * b**3, -a**2 * b**6))
    marks.element("O", "P", ["Q"])
    marks.element("O", "Q", ["P"])
    marks.element("P", "Q", ["O"])
    notes = []
    if c == 0:
        marks.vertical("P'", -a**3, -a**4, 3)
        marks.through_origin("Q'", -b**3, CurvePoint.affine(a**2 * b**3, -a**2 * b**6))
        for pair in (("O", "P'"), ("O", "Q'"), ("P'", "Q'"), ("P", "Q'"), ("P'", "Q")):
            marks.element(*pair)
        notes.append("the published c=0 list names one further element with an "
                     "ambiguous first entry; it is omitted here and logged")
    return marks.record(
        family_id, params,
        {"type": "quartic", "f1": [rat_str(x) for x in f1.coeffs],
         "f2": [rat_str(x) for x in f2.coeffs]},
        notes=notes, extras=extras)


def ct_equation(t) -> BiPoly:
    """The printed one-parameter quartic family C_t."""
    t = rat(t)
    return _quartic_poly(UniPoly([Fraction(1, 64), -t / 8, -(t + Fraction(1, 4))]),
                         UniPoly([t / 8 + Fraction(3, 16), t]))


def gen_quartic_ct(t) -> CurveRecord:
    """The integral one-parameter family: the line construction at
    (a, b, c) = (-1/2, 1, t)."""
    t = rat(t)
    if t in (Fraction(1), Fraction(-3), Fraction(-5, 2), Fraction(-7, 2)):
        raise SingularModelError(
            f"singular member: t = {rat_str(t)} is excluded "
            "(t must avoid 1, -3, -5/2, -7/2)")
    return _lines_record("quartic-ct", {"t": t}, Fraction(-1, 2), Fraction(1), t,
                         {"disc_printed": rat_str(disc_ct_printed(t)),
                          "i3": rat_str(i3_ct_printed(t))})


# ---------------------------------------------------------------------------
# quartic families from conics
# ---------------------------------------------------------------------------

def _conic_record(family_id: str, params: dict, conic: Conic,
                  verticals: List[Tuple[Fraction, Fraction]],
                  pairs: List[Tuple[str, str]],
                  q_slope_point: Optional[Tuple[Fraction, CurvePoint]] = None) -> CurveRecord:
    """Common path for the conic-contact quartics.

    `verticals` are (alpha, beta) with vertical 3-contact tangents, named P
    (or P1, P2); `q_slope_point` optionally gives (slope, Q) for a tangent
    through O; `pairs` names the points A, B of each element {inf,A,B},
    which declares every other marked point too.
    """
    if conic.d2 == 0 or conic.d3 == 0:
        raise SingularModelError(
            "singular member: the conic families need d2 != 0 and d3 != 0",
            vanished="d2" if conic.d2 == 0 else "d3")
    curve = conic_quartic_curve(conic)
    marks = _Marks(curve, SymbolEngine(curve))
    R = CurvePoint.affine(0, -conic.d2)
    marks.add("R", R, FnElt.poly(curve, conic.poly()), 8)
    for i, (alpha, beta) in enumerate(verticals, start=1):
        marks.vertical("P" if len(verticals) == 1 else f"P{i}", alpha, beta, 3)
    if q_slope_point is not None:
        marks.through_origin("Q", *q_slope_point)
    for a_name, b_name in pairs:
        marks.element(a_name, b_name,
                      [n for n in marks.points if n not in ("inf", a_name, b_name)])
    d = [rat_str(conic.d1), rat_str(conic.d2), rat_str(conic.d3), rat_str(conic.d4)]
    return marks.record(
        family_id, params, {"type": "conic-quartic", "d": d},
        aux_conics=[{"label": "D", "coeffs": d}],
        notes=["auxiliary conic is reducible"] if conic.is_degenerate() else [])


def gen_quartic_conic(d1, d2, d3, d4) -> CurveRecord:
    """Quartic with 8-contact conic at R = (0, -d2) and the element {inf,O,R}."""
    conic = Conic.make(d1, d2, d3, d4)
    return _conic_record(
        "quartic-conic",
        {"d1": conic.d1, "d2": conic.d2, "d3": conic.d3, "d4": conic.d4},
        conic, [], [("O", "R")])


def gen_quartic_conic_1tangent(a, d1, d4) -> CurveRecord:
    """Conic contact plus one vertical 3-contact tangent at P = (a^3, -a^4)."""
    a, d1, d4 = rat(a), rat(d1), rat(d4)
    if a == 0:
        raise SingularModelError("singular member: factor a^42 vanishes",
                                 vanished="a^42")
    _gate_on_factors(disc_ex62_factors(a, d1, d4), "the one-tangent conic family")
    d2 = Fraction(3, 2) * a**4 - a**3 * d1
    d3 = Fraction(3, 4) * a**5 - d4 * a**3
    conic = Conic.make(d1, d2, d3, d4)
    return _conic_record(
        "quartic-conic-1t", {"a": a, "d1": d1, "d4": d4}, conic,
        [(a**3, -a**4)], [("O", "P"), ("O", "R"), ("P", "R")])


def gen_quartic_conic_2tangent(a1, a2) -> CurveRecord:
    """Conic contact plus two vertical 3-contact tangents."""
    a1, a2 = rat(a1), rat(a2)
    _gate_on_factors(disc_ex63_factors(a1, a2), "the two-tangent conic family")
    d = a1**2 + a1 * a2 + a2**2
    d1 = Fraction(3, 2) / d * (a1**3 + a1**2 * a2 + a1 * a2**2 + a2**3)
    d2 = -Fraction(3, 2) / d * a1**3 * a2**3
    d3 = -Fraction(3, 4) / d * a2**3 * a1**3 * (a1 + a2)
    d4 = Fraction(3, 4) / d * (a1**4 + a1**3 * a2 + a1**2 * a2**2
                               + a1 * a2**3 + a2**4)
    conic = Conic.make(d1, d2, d3, d4)
    rec = _conic_record(
        "quartic-conic-2t", {"a1": a1, "a2": a2}, conic,
        [(a1**3, -a1**4), (a2**3, -a2**4)],
        [("O", "P1"), ("O", "R"), ("R", "P1"), ("O", "P2"), ("R", "P2")])
    rec.extras["disc_printed"] = rat_str(disc_ex63_printed(a1, a2))
    return rec


def gen_quartic_conic_pq(a, b) -> CurveRecord:
    """Conic contact plus both line-configuration tangents (P and Q)."""
    a, b = rat(a), rat(b)
    printed = disc_ex64_printed(a, b)
    if 2 * b**3 + 3 * a == 0:
        raise SingularModelError("singular member: factor (2b^3+3a)^2 vanishes",
                                 vanished="(2b^3+3a)^2")
    if printed == 0:
        raise SingularModelError("singular member: printed discriminant vanishes")
    d1 = b**3 + Fraction(3, 2) * a
    d2 = -a**3 * b**3
    d3 = 2 * a**3 * (2 * b**3 + 3 * a) * b**3
    d4 = -4 * b**6 - 6 * a * b**3 + Fraction(3, 4) * a**2
    conic = Conic.make(d1, d2, d3, d4)
    rec = _conic_record(
        "quartic-conic-pq", {"a": a, "b": b}, conic,
        [(a**3, -a**4)],
        [("O", "P"), ("O", "R"), ("R", "P"), ("O", "Q"), ("R", "Q"), ("P", "Q")],
        q_slope_point=(b**3, CurvePoint.affine(-a**2 * b**3, -a**2 * b**6)))
    rec.extras["disc_printed"] = rat_str(printed)
    return rec


# ---------------------------------------------------------------------------
# non-torsion (Nekovar-type) families
# ---------------------------------------------------------------------------

def nekovar_2tor_data(r) -> dict:
    """The elliptic family y^2 = x^3 + a(r) x + b(r) with its contact line.

    The degree-2/3 coefficient polynomials are forced exactly by the
    requirement that y = -x + (1-r)/3 meets the curve at
    Q1 = (1/3 - 4r/3, r) simply and at Q2 = (1/3 + 2r/3, -r) doubly.
    """
    r = rat(r)
    a = Fraction(-1, 3) + Fraction(2, 3) * r - Fraction(4, 3) * r**2
    b = (Fraction(2, 27) - Fraction(2, 9) * r + Fraction(5, 9) * r**2
         + Fraction(16, 27) * r**3)
    cubic = UniPoly([b, a, 0, 1])
    return {
        "r": r,
        "a": a,
        "b": b,
        "cubic": cubic,
        "disc_r": -r**3 * (32 * r**2 - 13 * r + 4),
        "Q1": (Fraction(1, 3) - Fraction(4, 3) * r, r),
        "Q2": (Fraction(1, 3) + Fraction(2, 3) * r, -r),
        "h_line": BiPoly.y() + BiPoly.x() - BiPoly.const(Fraction(1, 3) - r / 3),
    }


def gen_nekovar_2tor(r) -> CurveRecord:
    """Two-torsion family; requires fully rational two-torsion (see raise below).

    The two-torsion cubic can have a rational root: r = 4/9 gives
    x = -19/27 and r = -4/3 gives x = -17/9.  Its root curve is rational,
    x = 1/3 + s*r with r = -3(3s+1)^2 / (27s^3 - 36s + 16), and the
    residual quadratic then splits over Q exactly when 324s^3 + 405s^2 + 48
    is a square (both identities are checked by the family tests).  That
    this elliptic curve has only the degenerate rational points
    s = oo, -4/3, -1/3, 2/3 is asserted, not proven here; if it holds, no
    rational r gives three rational roots and the rational-support engine
    always rejects the family.  The error carries the verified contact data:
    the contact numbers m1, m2 of H at Q1, Q2 are read from
    `SymbolEngine.divisor` of h on its support candidates.
    """
    data = nekovar_2tor_data(r)
    r = data["r"]
    if r == 0 or data["disc_r"] == 0:
        raise SingularModelError("singular member: the contact line degenerates at r = 0")
    curve = PlaneCurve(
        BiPoly.y(2) - BiPoly.x(3) - BiPoly.x() * data["a"] - BiPoly.const(data["b"]))
    eng = SymbolEngine(curve)
    q1 = CurvePoint.affine(*data["Q1"])
    q2 = CurvePoint.affine(*data["Q2"])
    for q in (q1, q2):
        if not curve.contains(q):
            raise VerificationError("contact point is not on the curve")
    h = FnElt.poly(curve, data["h_line"])
    contact = eng.divisor(h, eng.support_candidates([h], extra=[q1, q2])).entries
    m1, m2 = contact[q1], contact[q2]
    if (m1, m2) != (1, 2):
        raise VerificationError(f"contact pattern ({m1},{m2}) != (1,2)")
    roots = data["cubic"].rational_roots()
    torsion = []
    for x0, _ in roots:
        t = CurvePoint.affine(x0, 0)
        fn = FnElt.poly(curve, BiPoly.x() - BiPoly.const(x0))
        torsion.append(TorsionFunction(fn, plus=t, minus=eng.infinity_points()[0],
                                       order=2))
    if len(torsion) < 3:
        raise NonRationalSupportError(
            "rational support required: the two-torsion cubic has "
            f"{len(torsion)} rational root(s) of 3",
            details={"h_pattern": [m1, m2], "rational_roots": [str(x) for x, _ in roots],
                     "cubic": [rat_str(c) for c in data["cubic"].coeffs]})
    # the full element; unreachable over Q if the docstring's assertion holds
    return _nekovar_record("nekovar-2tor", r, curve, eng, data["h_line"], torsion,
                           {"Q1": 1, "Q2": 2}, {"Q1": q1, "Q2": q2})


def nekovar_3tor_curve(r) -> Tuple[PlaneCurve, BiPoly]:
    r = rat(r)
    if r in (Fraction(0), Fraction(-1), Fraction(1, 8)):
        raise SingularModelError(
            f"singular member: r = {rat_str(r)} is excluded (r must avoid 0, -1, 1/8)")
    curve, _, _ = _y2_model(UniPoly([r, -(4 * r + 1)]), 3)
    return curve, BiPoly.y() - BiPoly.x() + BiPoly.const(r)


def gen_nekovar_3tor(r) -> CurveRecord:
    """Elliptic family whose origin is a 3-torsion point (tangent line y=0)."""
    r = rat(r)
    curve, h_line = nekovar_3tor_curve(r)
    return _contact_record(
        "nekovar-3tor", r, curve, h_line, places=1, contacts={"Q1": 1, "Q2": 2},
        model={"type": "nekovar-3tor", "f1": [rat_str(r), rat_str(-(4 * r + 1))]})


def nekovar_genus2_curve(r) -> Tuple[PlaneCurve, BiPoly]:
    r = rat(r)
    if r in (Fraction(0), Fraction(1, 3)):
        raise SingularModelError(
            f"singular member: r = {rat_str(r)} is excluded (r must avoid 0, 1/3)")
    curve, _, _ = _y2_model(UniPoly([r, -1, 0, -4 * r]), 5)
    return curve, BiPoly.y() - BiPoly.x() + BiPoly.const(r)


def gen_nekovar_genus2(r) -> CurveRecord:
    """Genus-2 family with two places at infinity and a 5-contact origin."""
    r = rat(r)
    curve, h_line = nekovar_genus2_curve(r)
    rec = _contact_record(
        "nekovar-g2", r, curve, h_line, places=2, contacts={"Q1": 3, "Q2": 2},
        h_scale=1 / r,
        model={"type": "nekovar-g2",
               "f1": [rat_str(c) for c in UniPoly([r, -1, 0, -4 * r]).coeffs]})
    rec.notes.append("h is scaled by 1/r so the tame symbols at both places "
                     "at infinity are trivial")
    return rec


def _contact_record(family_id: str, r: Fraction, curve: PlaneCurve, h_line: BiPoly,
                    places: int, contacts: Dict[str, int], model: dict,
                    h_scale: Fraction = Fraction(1)) -> CurveRecord:
    """Common path for the contact families: G = {y = 0} meets the curve of
    degree d only at O, with contact d, so y is a d-torsion function, and
    H = h_line meets it at Q1 = (0, -r) and Q2 = (2r, r) only, with the
    multiplicities `contacts`, on a model with `places` places at
    infinity."""
    eng = SymbolEngine(curve)
    d = curve.degree
    found = len(eng.infinity_points())
    if found != places:
        raise VerificationError(
            f"model must have {places} place(s) at infinity, found {found}")
    O = CurvePoint.affine(0, 0)
    y_fn = FnElt.poly(curve, BiPoly.y())
    # with several places at infinity the poles of y split over them
    minus = eng.infinity_points()[0] if places == 1 else None
    tf = TorsionFunction(y_fn, plus=O, minus=minus, order=d)
    return _nekovar_record(family_id, r, curve, eng, h_line, [tf], contacts,
                           {"O": O, "Q1": CurvePoint.affine(0, -r),
                            "Q2": CurvePoint.affine(2 * r, r)}, model, h_scale)


def _nekovar_record(family_id: str, r: Fraction, curve: PlaneCurve, eng: SymbolEngine,
                    h_line: BiPoly, torsion: List[TorsionFunction], contacts: Dict[str, int],
                    named_points: dict, model: Optional[dict] = None,
                    h_scale: Fraction = Fraction(1)) -> CurveRecord:
    """The tail of the contact families: the element on G = {y = 0} and H =
    h_line with kappa = r from the torsion blocks on G, the check that H
    meets the curve exactly at the named points with the multiplicities
    `contacts`, the certificate and the record."""
    try:
        elem, info = nekovar_element(curve, BiPoly.y(), h_line, torsion,
                                     kappa=r, h_scale=h_scale, engine=eng)
    except PreconditionError as e:  # a block, or a contact hypothesis, fails
        raise VerificationError(f"element nekovar: {e}") from e
    names = {p: n for n, p in named_points.items()}
    met = {names.get(p, p.label()): k for p, k in info["h_points"]}
    if met != contacts:
        raise VerificationError(f"contact pattern {met} != {contacts}")
    cert = verify_k2t(curve, elem, engine=eng)
    if not cert.passed:
        raise VerificationError("combination element failed tame verification")
    points = dict(named_points)
    for p in eng.infinity_points():
        points[f"inf{p.branch}" if len(eng.infinity_points()) > 1 else "inf"] = p
    named = NamedElement(
        name="nekovar", kind="combination", symbols=[elem],
        certificates=[cert],
        meta={"m": info["m"], "power_adjusted": info["power_adjusted"],
              "kappa": info["kappa"],
              "h_pattern": info["h_pattern"]})
    return CurveRecord(
        family_id=family_id, params={"r": r}, curve=curve,
        model=model or {"type": family_id},
        points=points, elements=[named],
        aux_lines=[{"label": "H", "coeffs": _line_coeffs(h_line)},
                   {"label": "G", "coeffs": ["0", "1", "0"]}],
        notes=["power adjustment applied to g (sign mix on H-contact values)"]
        if info["power_adjusted"] else [],
    )


def _line_coeffs(line: BiPoly) -> List[str]:
    u, v, w = line.coeff(1, 0), line.coeff(0, 1), line.coeff(0, 0)
    return [rat_str(u), rat_str(v), rat_str(w)]


# ---------------------------------------------------------------------------
# integrality flags
# ---------------------------------------------------------------------------

def integrality_flags(rec: CurveRecord) -> List[dict]:
    """Flags asserting the published sufficient hypotheses for integrality.

    Only the hypotheses are decided here; the conclusions are recorded
    with a criterion identifier.  Unsupported families get no flags.
    """
    flags: List[dict] = []
    if rec.family_id in ("hyp-odd", "hyp-even", "hyp-partial"):
        a_list = rec.params.get("a", [])
        for i, ai in enumerate(a_list, start=1):
            ok = is_integer(1 / rat(ai))
            flags.append({
                "element": f"2*{{inf,O,P{i}}}",
                "criterion": "weierstrass-reciprocal-integer",
                "hypothesis": f"1/a_{i} in Z (after integral rescaling of the model)",
                "satisfied": ok,
            })
    elif rec.family_id == "quartic-ct":
        t = rat(rec.params["t"])
        ok_int = is_integer(t) and t not in (Fraction(1), Fraction(-3))
        for name in ("{inf,O,P}", "{inf,O,Q}", "2*{inf,P,Q}"):
            flags.append({"element": name, "criterion": "integer-parameter",
                          "hypothesis": "t in Z \\ {1, -3}", "satisfied": ok_int})
    elif rec.family_id == "quartic-lines":
        a, b, c = (rat(rec.params["a"]), rat(rec.params["b"]),
                   rat(rec.params["c"]))
        ok_i = is_integer(1 / a) and is_integer(b) and is_integer(c)
        for name in ("{inf,O,P}", "{inf,O,Q}"):
            flags.append({"element": name,
                          "criterion": "unit-fraction-a-integral-b-c",
                          "hypothesis": "1/a, b, c in Z", "satisfied": ok_i})
        ok_ii = (is_integer(c)
                 and ((a == Fraction(1, 2) and b == Fraction(-1))
                      or (a == Fraction(-1, 2) and b == Fraction(1))))
        flags.append({"element": "2*{inf,P,Q}",
                      "criterion": "half-integer-pair",
                      "hypothesis": "a = +-1/2, b = -+1, c in Z",
                      "satisfied": ok_ii})
    return flags


def _integral_model(d: int, f1: UniPoly) -> dict:
    """The rescaled integral model used by the integrality criterion.

    (x, y) -> (x/v^2, y/v^d) turns f1 into v^d f1(x/v^2) with coefficients
    b_j v^(d-2j); v = lcm of the coefficient denominators clears them all,
    since d - 2j >= 1 wherever b_j may be fractional (the even model's
    x^(g+1) coefficient is 2).
    """
    v = f1.den
    scaled = UniPoly([c * Fraction(v)**(d - 2 * j) for j, c in enumerate(f1.coeffs)])
    return {
        "v": str(v),
        "f1": [rat_str(c) for c in scaled.coeffs],
        "map": "(x, y) -> (x/v^2, y/v^d)",
    }


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    """One generator argument as the command line takes it: flag ``--name``,
    kind (``int``, ``rat``, comma lists ``rats`` and ``ints``, or ``pairs``
    of a:eps) and, for an optional flag, the text it defaults to."""

    name: str
    kind: str
    default: Optional[str] = None


# Each family's parameters in generator-argument order.  The command line
# derives its flags, their parsing and the catalog sweep from this table.
PARAMS = {
    "hyp-odd": (Param("genus", "int"), Param("a", "rats")),
    "hyp-even": (Param("genus", "int"), Param("a", "rats"), Param("eps", "ints")),
    "hyp-partial": (Param("genus", "int"), Param("d", "int"),
                    Param("constraints", "pairs", ""), Param("free", "rats", "")),
    "quartic-lines": (Param("a", "rat"), Param("b", "rat"), Param("c", "rat", "0")),
    "quartic-ct": (Param("t", "rat"),),
    "quartic-conic": (Param("d1", "rat"), Param("d2", "rat"), Param("d3", "rat"),
                      Param("d4", "rat")),
    "quartic-conic-1t": (Param("a", "rat"), Param("d1", "rat"), Param("d4", "rat")),
    "quartic-conic-2t": (Param("a1", "rat"), Param("a2", "rat")),
    "quartic-conic-pq": (Param("a", "rat"), Param("b", "rat")),
    "nekovar-2tor": (Param("r", "rat"),),
    "nekovar-3tor": (Param("r", "rat"),),
    "nekovar-g2": (Param("r", "rat"),),
}

GENERATORS = {
    "hyp-odd": gen_hyp_odd,
    "hyp-even": gen_hyp_even,
    "hyp-partial": gen_hyp_partial,
    "quartic-lines": gen_quartic_lines,
    "quartic-ct": gen_quartic_ct,
    "quartic-conic": gen_quartic_conic,
    "quartic-conic-1t": gen_quartic_conic_1tangent,
    "quartic-conic-2t": gen_quartic_conic_2tangent,
    "quartic-conic-pq": gen_quartic_conic_pq,
    "nekovar-2tor": gen_nekovar_2tor,
    "nekovar-3tor": gen_nekovar_3tor,
    "nekovar-g2": gen_nekovar_genus2,
}
