"""Plane curves over Q: points, intersection multiplicity, tangents, smoothness.

Intersection multiplicity is computed by the axiomatic reduction
algorithm (translate the point to the origin, cancel leading terms of
the restrictions to y=0, split off factors of y), which terminates for
curves with no common component and agrees with the local-ring
definition.  Points at infinity are handled by moving to the chart Y=1
or X=1 where they become affine.

Projective smoothness is decided exactly through the Macaulay resultant
of the three partial derivatives: a nonzero Macaulay determinant
certifies smoothness, a zero determinant with nonzero extraneous minor
certifies a singular point over the algebraic closure.  Only then does
a separate search look for a rational singular witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple, Union

from .bipoly import BiPoly, TriPoly
from .errors import PreconditionError, VerificationError
from .linalg import bareiss_det
from .rationals import rat, rat_str
from .unipoly import UniPoly


# ---------------------------------------------------------------------------
# points, lines, conics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    """A rational point of a plane curve.

    Affine points carry exact coordinates.  Points over the line at
    infinity carry normalized projective coordinates (X:Y:0) plus a
    branch index enumerating the places of the (possibly singular)
    model that lie over that projective point.
    """

    kind: str  # "affine" | "infinity"
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    branch: int = 0

    @staticmethod
    def affine(x, y) -> "CurvePoint":
        return CurvePoint("affine", rat(x), rat(y))

    @staticmethod
    def at_infinity(X, Y, branch: int = 0) -> "CurvePoint":
        X, Y = rat(X), rat(Y)
        if Y != 0:
            X, Y = X / Y, Fraction(1)
        elif X != 0:
            X, Y = Fraction(1), Fraction(0)
        else:
            raise PreconditionError("(0:0:0) is not a projective point")
        return CurvePoint("infinity", X, Y, branch)

    @property
    def is_affine(self) -> bool:
        return self.kind == "affine"

    def projective(self) -> Tuple[Fraction, Fraction, Fraction]:
        if self.is_affine:
            return (self.x, self.y, Fraction(1))
        return (self.x, self.y, Fraction(0))

    def label(self) -> str:
        if self.is_affine:
            return f"({rat_str(self.x)}, {rat_str(self.y)})"
        return f"({rat_str(self.x)}:{rat_str(self.y)}:0)#{self.branch}"

    def __repr__(self):
        return f"CurvePoint{self.label()}"


@dataclass(frozen=True)
class Line:
    """The line u*x + v*y + w = 0, stored in primitive normalized form."""

    u: Fraction
    v: Fraction
    w: Fraction

    @staticmethod
    def make(u, v, w) -> "Line":
        u, v, w = rat(u), rat(v), rat(w)
        if u == v == 0 and w == 0:
            raise PreconditionError("line coefficients identically zero")
        lead = next(c for c in (u, v, w) if c != 0)
        return Line(u / lead, v / lead, w / lead)

    @staticmethod
    def vertical(alpha) -> "Line":
        return Line.make(1, 0, -rat(alpha))

    def poly(self) -> BiPoly:
        return BiPoly.line(self.u, self.v, self.w)

    def pretty(self) -> str:
        return self.poly().canonical()


@dataclass(frozen=True)
class Conic:
    """The conic (y + d1*x + d2)^2 + d3*x + d4*x^2 = 0."""

    d1: Fraction
    d2: Fraction
    d3: Fraction
    d4: Fraction

    @staticmethod
    def make(d1, d2, d3, d4) -> "Conic":
        return Conic(rat(d1), rat(d2), rat(d3), rat(d4))

    def poly(self) -> BiPoly:
        inner = BiPoly.line(self.d1, 1, self.d2)
        return inner * inner + BiPoly.x() * self.d3 + BiPoly.x(2) * self.d4

    def is_degenerate(self) -> bool:
        """True when the conic splits into lines (vanishing 3x3 determinant)."""
        d1, d2, d3, d4 = self.d1, self.d2, self.d3, self.d4
        m = [
            [d1 * d1 + d4, d1, d1 * d2 + d3 / 2],
            [d1, Fraction(1), d2],
            [d1 * d2 + d3 / 2, d2, d2 * d2],
        ]
        return bareiss_det(m) == 0


CurveLike = Union["PlaneCurve", Line, Conic, BiPoly]


def _poly_of(c: CurveLike) -> BiPoly:
    if isinstance(c, PlaneCurve):
        return c.affine
    if isinstance(c, (Line, Conic)):
        return c.poly()
    if isinstance(c, BiPoly):
        return c
    raise TypeError(f"not a curve-like object: {c!r}")


# ---------------------------------------------------------------------------
# the curve itself
# ---------------------------------------------------------------------------

class PlaneCurve:
    """A plane curve over Q, given by its affine polynomial F(x, y).

    The homogeneous form is derived by homogenizing to the total degree.
    The affine polynomial must be squarefree; this is probed through
    discriminants of pencil-of-line sections.
    """

    __slots__ = ("affine", "hom", "degree")

    def __init__(self, affine: BiPoly, check_squarefree: bool = True):
        if affine.is_zero() or affine.total_degree < 1:
            raise PreconditionError("curve polynomial must be non-constant")
        self.affine = affine
        self.degree = affine.total_degree
        self.hom = affine.homogenize()
        if check_squarefree and not _squarefree_probe(affine):
            raise PreconditionError("curve polynomial has a repeated factor")

    def chart(self, name: str) -> BiPoly:
        """Dehomogenized polynomial in the chart Z=1, Y=1 or X=1."""
        return self.hom.dehomogenize(name)

    def contains(self, p: CurvePoint) -> bool:
        if p.is_affine:
            return self.affine(p.x, p.y) == 0
        X, Y, Z = p.projective()
        return self.hom(X, Y, Z) == 0

    def rational_infinity_points(self) -> Tuple[List[Tuple[Fraction, Fraction]], bool]:
        """Rational projective points (X:Y:0) on the curve.

        Returns (points, complete); `complete` is False when the binary
        form F(X, Y, 0) also has non-rational roots.
        """
        p = self.hom.dehomogenize("Y").eval_y(0)  # F(X,1,0) as UniPoly in X
        pts: List[Tuple[Fraction, Fraction]] = []
        found_deg = 0
        if p.is_zero():
            # Z=0 is a component; not a legal curve here
            raise PreconditionError("curve contains the line at infinity")
        for root, mult in p.rational_roots():
            pts.append((root, Fraction(1)))
            found_deg += mult
        if p.degree < self.degree:
            pts.append((Fraction(1), Fraction(0)))
            found_deg += self.degree - p.degree
        return pts, found_deg == self.degree

    def gradient_at(self, p: CurvePoint) -> Tuple[Fraction, Fraction]:
        if not p.is_affine:
            raise PreconditionError("gradient only at affine points")
        return (self.affine.partial("x")(p.x, p.y), self.affine.partial("y")(p.x, p.y))

    def canonical(self) -> str:
        return self.affine.canonical()

    def __repr__(self):
        return f"PlaneCurve({self.canonical()})"


def _squarefree_probe(f: BiPoly, tries: int = 8) -> bool:
    """Squarefreeness via discriminants of line sections.

    A repeated factor forces every line section to have a repeated root;
    one squarefree section certifies squarefreeness.
    """
    if f.total_degree == 0:
        return True
    probes = [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, -1), (1, 2, 3, 5), (2, -1, 1, 3),
              (1, -2, 2, 7), (3, 1, -1, 2), (5, 3, 2, -4)]
    for (a, b, c, d) in probes[:tries]:
        # section along x = a*t + b, y = c*t + d
        sec_terms = {}
        t = UniPoly([rat(b), rat(a)])
        s = UniPoly([rat(d), rat(c)])
        acc = UniPoly.zero()
        tp = {0: UniPoly.const(1)}
        sp = {0: UniPoly.const(1)}
        for (i, j), cf in f.terms.items():
            if i not in tp:
                for k in range(max(tp) + 1, i + 1):
                    tp[k] = tp[k - 1] * t
            if j not in sp:
                for k in range(max(sp) + 1, j + 1):
                    sp[k] = sp[k - 1] * s
            acc = acc + tp[i] * sp[j] * cf
        if acc.degree >= 1 and acc.is_squarefree():
            return True
    return False


# ---------------------------------------------------------------------------
# intersection multiplicity (axiomatic reduction)
# ---------------------------------------------------------------------------

def _primitive_scale(p: BiPoly) -> BiPoly:
    """Rescale by a positive rational so coefficients are coprime integers.

    Rescaling either argument never changes an intersection multiplicity,
    and it keeps the reduction loop's coefficients from blowing up.
    """
    if p.is_zero():
        return p
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in p.terms.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    if num in (0, 1) and den == 1:
        return p
    return p * Fraction(den, num)


def fulton_multiplicity(f: BiPoly, g: BiPoly, bound: int) -> int:
    """I_origin(f, g) by the reduction algorithm; both must vanish at (0,0).

    Raises VerificationError when the computed multiplicity would exceed
    `bound` (shared component or contract violation).
    """
    total = 0
    f, g = _primitive_scale(f), _primitive_scale(g)
    # Each pass returns, raises, splits off one y (adding at least 1 to
    # total, which is capped by bound) or lowers the sum of the two
    # restriction degrees, so the loop ends.
    while True:
        if f.is_zero() or g.is_zero():
            raise VerificationError("intersection multiplicity infinite: common component")
        fr = f.restriction_y0()  # restriction to the x-axis
        gr = g.restriction_y0()
        if fr.coeff(0) != 0 or gr.coeff(0) != 0:
            return total
        if fr.is_zero() and gr.is_zero():
            raise VerificationError("intersection multiplicity infinite: common factor y")
        if fr.is_zero() or gr.is_zero():
            if gr.is_zero():
                f, g = g, f
                fr, gr = gr, fr
            # y | f: split off one factor of y
            q = _divide_out_y(f)
            k = next(i for i, c in enumerate(gr.coeffs) if c != 0)  # ord_x g(x,0) >= 1
            total += k
            if total > bound:
                raise VerificationError("intersection multiplicity exceeds the Bezout bound")
            f = q
            continue
        # both restrictions nonzero; cancel leading x-terms
        if fr.degree > gr.degree:
            f, g = g, f
            fr, gr = gr, fr
        # g := g - (lc(gr)/lc(fr)) x^shift f  keeps I and lowers the restriction degree
        shift = gr.degree - fr.degree
        g = _primitive_scale(f * (BiPoly.x(shift) * gr.lc) * (1 / fr.lc) * (-1) + g)


def _divide_out_y(f: BiPoly) -> BiPoly:
    terms = {}
    for (i, j), c in f.terms.items():
        if j == 0:
            raise VerificationError("internal: y does not divide polynomial")
        terms[(i, j - 1)] = c
    return BiPoly(terms)


def intersection_multiplicity(c1: CurveLike, c2: CurveLike, p: CurvePoint) -> int:
    """I_P(c1, c2) at a rational point (affine, or at infinity via the other chart)."""
    f1, f2 = _poly_of(c1), _poly_of(c2)
    d1, d2 = f1.total_degree, f2.total_degree
    bound = d1 * d2
    if p.is_affine:
        if f1(p.x, p.y) != 0 or f2(p.x, p.y) != 0:
            raise PreconditionError(f"empty intersection at point {p.label()}")
        a = f1.substitute(BiPoly.x() + BiPoly.const(p.x), BiPoly.y() + BiPoly.const(p.y))
        b = f2.substitute(BiPoly.x() + BiPoly.const(p.x), BiPoly.y() + BiPoly.const(p.y))
        return fulton_multiplicity(a, b, bound)
    # at infinity: move to the chart where p is affine
    X, Y, _ = p.projective()
    h1 = f1.homogenize()
    h2 = f2.homogenize()
    if Y != 0:
        g1, g2 = h1.dehomogenize("Y"), h2.dehomogenize("Y")
        u0 = X / Y
    else:
        g1, g2 = h1.dehomogenize("X"), h2.dehomogenize("X")
        u0 = Y / X  # = 0
    if g1(u0, 0) != 0 or g2(u0, 0) != 0:
        raise PreconditionError(f"empty intersection at point {p.label()}")
    a = g1.substitute(BiPoly.x() + BiPoly.const(u0), BiPoly.y())
    b = g2.substitute(BiPoly.x() + BiPoly.const(u0), BiPoly.y())
    return fulton_multiplicity(a, b, bound)


def is_on_curve(c: CurveLike, p: CurvePoint) -> bool:
    if isinstance(c, PlaneCurve):
        return c.contains(p)
    poly = _poly_of(c)
    if p.is_affine:
        return poly(p.x, p.y) == 0
    X, Y, Z = p.projective()
    return poly.homogenize()(X, Y, Z) == 0


def tangent_line(c: CurveLike, p: CurvePoint) -> Line:
    """Tangent dF/dx(p)(x-px) + dF/dy(p)(y-py) = 0 at a smooth affine point."""
    f = _poly_of(c)
    if not p.is_affine:
        raise PreconditionError("tangent_line expects an affine point")
    if f(p.x, p.y) != 0:
        raise PreconditionError("point does not lie on the curve")
    fx = f.partial("x")(p.x, p.y)
    fy = f.partial("y")(p.x, p.y)
    if fx == 0 and fy == 0:
        raise PreconditionError("no unique tangent: point is singular")
    return Line.make(fx, fy, -(fx * p.x + fy * p.y))


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

@dataclass
class SmoothnessReport:
    smooth: bool
    witness: object = None  # CurvePoint, UniPoly, or str

    def __bool__(self):
        return self.smooth


def _int_coeff_rows(monomials: List[Tuple[int, int, int]], rows_spec):
    index = {m: k for k, m in enumerate(monomials)}
    rows = []
    for shift, form in rows_spec:
        row = [0] * len(monomials)
        den = 1
        for key, c in form.terms.items():
            den = den * c.denominator // gcd(den, c.denominator)
        for key, c in form.terms.items():
            mono = (key[0] + shift[0], key[1] + shift[1], key[2] + shift[2])
            row[index[mono]] = int(c * den)
        rows.append(row)
    return rows


def macaulay_nonzero(g1: TriPoly, g2: TriPoly, g3: TriPoly) -> Optional[bool]:
    """Decide whether Res(g1, g2, g3) != 0 for ternary forms of equal degree.

    Returns True (no common projective zero), False (common zero), or
    None when the extraneous minor also vanishes (caller retries after a
    coordinate change).
    """
    m = g1.degree
    if g2.degree != m or g3.degree != m:
        raise PreconditionError("Macaulay resultant needs equal degrees")
    if m == 0:
        return not (g1.is_zero() and g2.is_zero() and g3.is_zero())
    t = 3 * m - 2
    monos = [
        (i, j, t - i - j)
        for i in range(t + 1)
        for j in range(t - i + 1)
    ]
    rows_spec = []
    reduced_flags = []
    for mono in monos:
        i, j, k = mono
        big = [i >= m, j >= m, k >= m]
        if big[0]:
            rows_spec.append(((i - m, j, k), g1))
        elif big[1]:
            rows_spec.append(((i, j - m, k), g2))
        else:
            rows_spec.append(((i, j, k - m), g3))
        reduced_flags.append(sum(big) == 1)
    rows = _int_coeff_rows(monos, rows_spec)
    big_det = bareiss_det([row[:] for row in rows], exact_div=lambda a, b: a // b)
    if big_det != 0:
        return True
    nonred = [idx for idx, flag in enumerate(reduced_flags) if not flag]
    minor = [[rows[r][c] for c in nonred] for r in nonred]
    minor_det = bareiss_det(minor, exact_div=lambda a, b: a // b)
    if minor_det != 0:
        return False
    return None


_RETRY_MAPS = [
    [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 1], [1, 0, 1]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[1, 2, 1], [0, 1, 3], [1, 1, 1]],
    [[2, 1, 1], [1, 3, 1], [1, 1, 4]],
]


def _rational_singular_point(curve: PlaneCurve) -> Optional[CurvePoint]:
    f = curve.affine
    fx, fy = f.partial("x"), f.partial("y")
    pts = rational_common_zeros(f, fx)
    if pts is None:
        pts = rational_common_zeros(f, fy)
    if pts is None:
        # f shares a component with both partials (line components
        # crossing, as in x*y): the singular points lie on f_x = f_y = 0
        pts = rational_common_zeros(fx, fy)
    pts = [(x0, y0) for (x0, y0) in pts or ()
           if f(x0, y0) == 0 and fx(x0, y0) == 0 and fy(x0, y0) == 0]
    if pts:
        return CurvePoint.affine(*pts[0])
    # rational points at infinity
    inf_pts, _ = curve.rational_infinity_points()
    FX, FY, FZ = (curve.hom.partial(v) for v in "XYZ")
    for (X, Y) in inf_pts:
        if FX(X, Y, 0) == 0 and FY(X, Y, 0) == 0 and FZ(X, Y, 0) == 0:
            return CurvePoint.at_infinity(X, Y)
    return None


def rational_common_zeros(p1: BiPoly, p2: BiPoly) -> Optional[List[Tuple[Fraction, Fraction]]]:
    """All rational common zeros of two bivariate polynomials.

    Returns None when the pair shares a positive-dimensional component
    (resultant identically zero) and the enumeration is meaningless.
    """
    if p1.is_zero() or p2.is_zero():
        return None
    d1, d2 = p1.degree_in("y"), p2.degree_in("y")
    if d1 == 0 and d2 == 0:
        return None  # two x-only polynomials: common zeros form vertical lines
    if d1 == 0 or d2 == 0:
        only_x = p1 if d1 == 0 else p2
        other = p2 if d1 == 0 else p1
        r = only_x.eval_y(0)
    else:
        r = p1.resultant(p2, "y")
        other = None
    if r.is_zero():
        return None
    out = []
    for x0, _ in r.rational_roots():
        u1 = p1.eval_x(x0)
        u2 = p2.eval_x(x0)
        if u1.is_zero() and u2.is_zero():
            return None
        g = u1.gcd(u2) if (not u1.is_zero() and not u2.is_zero()) else (u2 if u1.is_zero() else u1)
        if g.degree == 0:
            continue
        for y0, _ in g.rational_roots():
            out.append((x0, y0))
    return out


def _macaulay_verdict(hom: TriPoly) -> Optional[bool]:
    partials = [hom.partial(v) for v in "XYZ"]
    if any(g.is_zero() for g in partials):
        return False  # a cone over its vertex, which is a singular point
    return macaulay_nonzero(*partials)


def smoothness_check(curve: PlaneCurve) -> SmoothnessReport:
    """Exact smooth/singular verdict for the projective plane curve."""
    if curve.degree == 1:
        return SmoothnessReport(True)
    verdict = _macaulay_verdict(curve.hom)
    tries = 0
    while verdict is None and tries < len(_RETRY_MAPS):
        verdict = _macaulay_verdict(curve.hom.substitute_linear(_RETRY_MAPS[tries]))
        tries += 1
    if verdict:
        return SmoothnessReport(True)
    # a certified-smooth curve has no singular point, so the witness
    # search runs only on a singular or undecided verdict
    witness = _rational_singular_point(curve)
    if witness is not None:
        return SmoothnessReport(False, witness)
    if verdict is None:
        raise VerificationError("smoothness undecided: Macaulay minor vanished under all retries")
    # singular with no rational witness: report the eliminating polynomial
    f = curve.affine
    r1 = _resultant_or_none(f, f.partial("x"))
    r2 = _resultant_or_none(f, f.partial("y"))
    elim = None
    if r1 is not None and r2 is not None and not r1.is_zero() and not r2.is_zero():
        elim = r1.gcd(r2)
    return SmoothnessReport(False, elim if elim is not None else "non-rational singular locus")


def _resultant_or_none(a: BiPoly, b: BiPoly) -> Optional[UniPoly]:
    try:
        return a.resultant(b, "y")
    except PreconditionError:
        return None
