"""Plane curves over Q: points, intersection multiplicity, tangents, smoothness.

Every rational point of P^2 is the origin of one of the charts Z=1,
Y=1 or X=1 after one exact Taylor shift (`BiPoly.shift`), and one rule,
`point_chart`, picks that chart: Z at an affine point, Y at (X:Y:0) when
Y != 0, else X.  Intersection multiplicities, the singular-point search,
the branches and the symbol engine all read it.  Intersection
multiplicity is then Fulton's reduction algorithm at the origin: on
content-free integer coefficients, cancel the leading terms of the
restrictions to y=0 fraction-free (g <- a*g - b*x^s*f, then divide out
the content) and split off factors of y.  It terminates for curves with
no common component and agrees with the local-ring definition.

Projective smoothness is decided exactly through the resultant of the
three partial derivatives, after one fixed coordinate change applied over
the integers.  Macaulay's determinant, eliminated on sparse rows modulo
one prime below 2^30, certifies smoothness when its residue is nonzero.
On a zero residue a search looks for a rational singular witness, and
failing one, Canny's generalised characteristic polynomial gives the
resultant exactly, even where Macaulay's extraneous minor vanishes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Dict, List, Optional, Tuple, Union

from .bipoly import BiPoly, IntTerms
from .errors import PreconditionError, VerificationError
from .linalg import bareiss_det, vandermonde_solve
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

    Points key the engines' caches, so the hash is taken once, at
    construction.
    """

    kind: str  # "affine" | "infinity"
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    branch: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.x, self.y, self.branch)))

    def __hash__(self):
        return self._hash

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

    Its projective closure F^hom is read from the same numerators through
    `BiPoly.chart` and `BiPoly.top_value`.  The affine polynomial must be
    squarefree; this is decided exactly through a family of parallel line
    sections (`_is_squarefree`).
    """

    __slots__ = ("affine", "degree")

    def __init__(self, affine: BiPoly, check_squarefree: bool = True):
        if affine.is_zero() or affine.total_degree < 1:
            raise PreconditionError("curve polynomial must be non-constant")
        self.affine = affine
        self.degree = affine.total_degree
        if check_squarefree and not _is_squarefree(affine):
            raise PreconditionError("curve polynomial has a repeated factor")

    def contains(self, p: CurvePoint) -> bool:
        return is_on_curve(self.affine, p)

    def rational_infinity_points(self) -> Tuple[List[Tuple[Fraction, Fraction]], bool]:
        """Rational projective points (X:Y:0) on the curve.

        Returns (points, complete); `complete` is False when the binary
        form F(X, Y, 0) also has non-rational roots.
        """
        # F(X, 1, 0) as a UniPoly in X: the top-degree form at Y = 1, never zero
        p = self.affine.chart("Y").eval_y(0)
        pts: List[Tuple[Fraction, Fraction]] = []
        found_deg = 0
        for root, mult in p.rational_roots():
            pts.append((root, Fraction(1)))
            found_deg += mult
        if p.degree < self.degree:
            pts.append((Fraction(1), Fraction(0)))
            found_deg += self.degree - p.degree
        return pts, found_deg == self.degree

    def canonical(self) -> str:
        return self.affine.canonical()

    def __repr__(self):
        return f"PlaneCurve({self.canonical()})"


def _is_squarefree(f: BiPoly) -> bool:
    """Exact squarefreeness test through parallel line sections.

    Along y = c*x + k, with c the first of 0..d at which the top-degree
    form is nonzero at (1, c), every section has full degree d.  The
    discriminant of the section is a polynomial in k of degree at most
    d(d-1), nonzero exactly when f is squarefree; so f is squarefree iff
    one of the first d(d-1) + 1 values of k gives a squarefree section.
    """
    d = f.total_degree
    top = [(j, cf) for (i, j), cf in f.nums.items() if i + j == d]
    c = next(c for c in range(d + 1) if sum(cf * c**j for j, cf in top) != 0)
    sheared = f.substitute(BiPoly.x(), BiPoly.y() + BiPoly.x() * c)
    return any(sheared.eval_y(k).is_squarefree() for k in range(d * (d - 1) + 1))


# ---------------------------------------------------------------------------
# intersection multiplicity (axiomatic reduction)
# ---------------------------------------------------------------------------

def _primitive(terms: IntTerms) -> IntTerms:
    """Divide out the content (the gcd of the coefficients)."""
    c = gcd(*terms.values())
    return {k: v // c for k, v in terms.items()} if c > 1 else terms


def _content_free(p: BiPoly) -> IntTerms:
    """p times a positive rational, as coprime integer coefficients.

    Rescaling either argument never changes an intersection multiplicity.
    """
    return _primitive(p.nums)


def fulton_multiplicity(f: BiPoly, g: BiPoly, bound: int) -> int:
    """I_origin(f, g) by the reduction algorithm; both must vanish at (0,0).

    Runs on content-free integer coefficients.  Raises VerificationError
    when the computed multiplicity would exceed `bound` (shared component
    or contract violation).
    """
    total = 0
    f, g = _content_free(f), _content_free(g)
    # Each pass returns, raises, splits off one y (adding at least 1 to
    # total, which is capped by bound) or lowers the sum of the two
    # restriction degrees, so the loop ends.
    while True:
        if not f or not g:
            raise VerificationError("intersection multiplicity infinite: common component")
        # restrictions to the x-axis, as {x-degree: coefficient}
        fr = {i: c for (i, j), c in f.items() if j == 0}
        gr = {i: c for (i, j), c in g.items() if j == 0}
        if 0 in fr or 0 in gr:
            return total
        if not fr and not gr:
            raise VerificationError("intersection multiplicity infinite: common factor y")
        if not fr or not gr:
            if not gr:
                f, g, fr, gr = g, f, gr, fr
            # y | f: split off one factor of y; ord_x g(x,0) >= 1
            total += min(gr)
            if total > bound:
                raise VerificationError("intersection multiplicity exceeds the Bezout bound")
            f = {(i, j - 1): c for (i, j), c in f.items()}
            continue
        # both restrictions nonzero; cancel leading x-terms
        if max(fr) > max(gr):
            f, g, fr, gr = g, f, gr, fr
        shift = max(gr) - max(fr)
        a, b = fr[max(fr)], gr[max(gr)]
        # g := a*g - b*x^shift*f keeps I (a != 0) and lowers the restriction degree
        out = {k: a * v for k, v in g.items()}
        for (i, j), v in f.items():
            key = (i + shift, j)
            out[key] = out.get(key, 0) - b * v
        g = _primitive({k: v for k, v in out.items() if v})


def intersection_multiplicity(c1: CurveLike, c2: CurveLike, p: CurvePoint) -> int:
    """I_P(c1, c2) at a rational point, at the origin of its chart."""
    f1, f2 = _poly_of(c1), _poly_of(c2)
    g1, g2 = point_chart(f1, p)[2], point_chart(f2, p)[2]
    if g1.nums.get((0, 0)) or g2.nums.get((0, 0)):
        raise PreconditionError(f"empty intersection at point {p.label()}")
    return fulton_multiplicity(g1, g2, f1.total_degree * f2.total_degree)


def point_chart(f: BiPoly, p: CurvePoint) -> Tuple[str, Tuple[Fraction, Fraction], BiPoly]:
    """(name, origin, f's chart polynomial shifted so that p is the origin)
    for the chart where the rational point p is affine: chart Z at (x0, y0)
    for an affine p, else, for p = (X : Y : 0), chart Y at (X/Y, 0) when
    Y != 0 and chart X at (0, 0) otherwise."""
    if p.is_affine:
        name, origin = "Z", (p.x, p.y)
    elif p.y != 0:
        name, origin = "Y", (p.x / p.y, Fraction(0))
    else:
        name, origin = "X", (Fraction(0), Fraction(0))
    return name, origin, f.chart(name).shift(*origin)


def is_on_curve(c: CurveLike, p: CurvePoint) -> bool:
    poly = _poly_of(c)
    if p.is_affine:
        return poly(p.x, p.y) == 0
    return poly.top_value(p.x, p.y) == 0


def tangent_line(c: CurveLike, p: CurvePoint) -> Line:
    """Tangent dF/dx(p)(x-px) + dF/dy(p)(y-py) = 0 at a smooth affine point."""
    f = _poly_of(c)
    if not p.is_affine:
        raise PreconditionError("tangent_line expects an affine point")
    if f(p.x, p.y) != 0:
        raise PreconditionError(f"point {p.label()} does not lie on the curve")
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


# Both smoothness routes work after one fixed change of coordinates, the
# modular certificate modulo the largest prime below 2^30: a product of two
# residues fits in two 30-bit CPython digits.  Any invertible map keeps
# smoothness, and determinant -1 keeps it invertible modulo every prime; a
# generic map keeps Macaulay's extraneous minor from vanishing for structural
# reasons, as it does in original coordinates for sparse equations (quartic-ct).
_PRIME = 1073741789
_COORDINATE_CHANGE = ((1, 2, -1), (2, 5, 1), (-1, -1, 3))

Form = Dict[Tuple[int, int, int], int]


def _form_mul(a: Form, b: Form) -> Form:
    out: Form = {}
    for (i1, j1, k1), v1 in a.items():
        for (i2, j2, k2), v2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


def _changed_form(f: BiPoly) -> Form:
    """F^hom(A*(X, Y, Z)) for A = _COORDINATE_CHANGE, over the integers.

    F^hom is taken on f's numerators, the monomial (i, j, d-i-j) for each
    x^i*y^j, d the total degree.
    """
    d = f.total_degree
    powers = []
    for a, b, c in _COORDINATE_CHANGE:
        lin = {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}
        pw = [{(0, 0, 0): 1}]
        for _ in range(d):
            pw.append(_form_mul(pw[-1], lin))
        powers.append(pw)
    out: Form = {}
    for (i, j), c in f.nums.items():
        term = _form_mul(_form_mul(powers[0][i], powers[1][j]), powers[2][d - i - j])
        for key, v in term.items():
            out[key] = out.get(key, 0) + c * v
    return out


def _partials(form: Form) -> List[Form]:
    """The X, Y and Z partial derivatives of an integer form."""
    out = []
    for v in range(3):
        g: Form = {}
        for key, c in form.items():
            if key[v]:
                g[key[:v] + (key[v] - 1,) + key[v + 1:]] = c * key[v]
        out.append(g)
    return out


def _macaulay_matrix(gs: List[Form], m: int) -> Tuple[List[Dict[int, int]], List[int]]:
    """Macaulay's matrix for three ternary forms of degree m >= 1.

    Rows, sparse as {column: entry}, and columns are both indexed by the
    monomials of degree 3m - 2; the row of a monomial is g_v times its
    quotient by V^m, for the first variable V whose m-th power divides it,
    so the V^m term of g_v lands on the diagonal.  Also returns the
    indices of the non-reduced monomials (divisible by two of X^m, Y^m,
    Z^m), which span the extraneous minor.
    """
    t = 3 * m - 2
    monos = [(i, j, t - i - j) for i in range(t + 1) for j in range(t - i + 1)]
    index = {mono: n for n, mono in enumerate(monos)}
    rows, nonreduced = [], []
    for n, mono in enumerate(monos):
        big = [e >= m for e in mono]
        v = big.index(True)
        a, b, c = mono[:v] + (mono[v] - m,) + mono[v + 1:]
        rows.append({index[(i + a, j + b, k + c)]: e for (i, j, k), e in gs[v].items()})
        if sum(big) > 1:
            nonreduced.append(n)
    return rows, nonreduced


def _invertible_mod(rows: List[Dict[int, int]], p: int) -> bool:
    """True when the square matrix of sparse rows {column: nonzero residue}
    is invertible modulo the prime p; the rows are eliminated in place.

    Columns go fewest rows first, each pivoting on the shortest row that
    reaches it, which keeps the fill-in low.  False comes at the first
    column that no remaining row reaches.
    """
    counts = Counter(col for row in rows for col in row)
    for col in sorted(range(len(rows)), key=counts.__getitem__):
        live = [row for row in rows if col in row]
        if not live:
            return False
        pivot = min(live, key=len)
        rows = [row for row in rows if row is not pivot]
        minus_inv = p - pow(pivot.pop(col), -1, p)
        for row in live:
            if row is not pivot:
                f = row.pop(col) * minus_inv % p
                for k, v in pivot.items():
                    # f * v != 0 mod p, so a zero sum cancels an entry row has
                    x = (row.get(k, 0) + f * v) % p
                    if x:
                        row[k] = x
                    else:
                        del row[k]
    return True


def macaulay_nonzero(form: Form) -> bool:
    """One-sided modular certificate that the curve form = 0 is smooth.

    `form` is a curve's _changed_form.  Its three partials are reduced
    modulo _PRIME, read at each call, and their Macaulay matrix (for a
    quartic, 36 sparse rows of 10 residues) is eliminated modulo _PRIME.
    The integer determinant is Res(partials) times the extraneous minor, so
    a nonzero residue proves that the partials have no common projective
    zero: the curve is smooth.  False proves nothing.
    """
    p = _PRIME
    gs = [{k: c % p for k, c in g.items() if c % p} for g in _partials(form)]
    rows, _ = _macaulay_matrix(gs, sum(next(iter(form))) - 1)
    return _invertible_mod(rows, p)


def _int_det(matrix: List[List[int]]) -> int:
    return bareiss_det(matrix, exact_div=lambda a, b: a // b)


def _canny_resultant(gs: List[Form], m: int) -> Fraction:
    """Res(g1, g2, g3) exactly, for integer ternary forms of degree m >= 1.

    Canny's generalised characteristic polynomial C(s) = det(M - sI) /
    det(M' - sI), with M Macaulay's matrix and M' its extraneous minor, is
    a polynomial of degree len(M) - len(M') with C(0) = Res even when M'
    is singular (J. Canny, J. Symbolic Comput. 9, 1990).  C is read at
    the first integers k >= 0 where det(M' - kI) != 0, of which there are
    at most len(M') exceptions, and interpolated at 0.
    """
    sparse, nonreduced = _macaulay_matrix(gs, m)
    rows = [[row.get(c, 0) for c in range(len(sparse))] for row in sparse]
    minor = [[rows[r][c] for c in nonreduced] for r in nonreduced]
    deg = len(rows) - len(minor)

    def shifted(a: List[List[int]], k: int) -> List[List[int]]:
        return [[v - k if r == c else v for c, v in enumerate(row)] for r, row in enumerate(a)]

    nodes: List[int] = []
    values: List[Fraction] = []
    k = 0
    while len(nodes) <= deg:
        below = _int_det(shifted(minor, k))
        if below:
            value = Fraction(_int_det(shifted(rows, k)), below)
            if k == 0:
                return value
            nodes.append(k)
            values.append(value)
        k += 1
    return vandermonde_solve(nodes, values)[0]


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
    # the rational common zeros, then the rational points at infinity; a
    # point is singular when its chart has no constant or linear term (at
    # infinity, by Euler's identity, that is F_X = F_Y = F_Z = 0)
    candidates = [CurvePoint.affine(x0, y0) for (x0, y0) in pts or ()]
    candidates += [CurvePoint.at_infinity(X, Y) for (X, Y) in curve.rational_infinity_points()[0]]
    return next((p for p in candidates
                 if not any(point_chart(f, p)[2].nums.get(k) for k in ((0, 0), (1, 0), (0, 1)))),
                None)


def rational_common_zeros(p1: BiPoly, p2: BiPoly) -> Optional[List[Tuple[Fraction, Fraction]]]:
    """All rational common zeros of two bivariate polynomials.

    Returns None exactly when the pair shares a positive-dimensional
    component, where the enumeration is meaningless: a factor in x alone
    (the gcd of all their y-coefficients is not constant) or one of
    positive y-degree (the resultant in y vanishes identically).
    """
    if p1.is_zero() or p2.is_zero():
        return None
    content = UniPoly.zero()
    for c in reversed(p1.as_poly_in("y") + p2.as_poly_in("y")):
        content = content.gcd(c)
        if content.degree == 0:
            break
    if content.degree > 0:
        return None
    d1, d2 = p1.degree_in("y"), p2.degree_in("y")
    if d1 == 0 and d2 == 0:
        return []  # coprime polynomials in x alone have no common root
    if d1 == 0 or d2 == 0:
        r = (p1 if d1 == 0 else p2).eval_y(0)
    else:
        r = p1.resultant(p2, "y")
        if r.is_zero():
            return None
    out = []
    for x0, _ in r.rational_roots():
        # the content is constant, so the two sections are not both zero
        g = p1.eval_x(x0).gcd(p2.eval_x(x0))
        if g.degree == 0:
            continue
        for y0, _ in g.rational_roots():
            out.append((x0, y0))
    return out


def smoothness_check(curve: PlaneCurve) -> SmoothnessReport:
    """Exact smooth/singular verdict for the projective plane curve."""
    if curve.degree == 1:
        return SmoothnessReport(True)
    form = _changed_form(curve.affine)
    if macaulay_nonzero(form):
        return SmoothnessReport(True)
    # a zero residue decides nothing: look for a rational singular point,
    # and failing one decide exactly; an invertible coordinate change
    # scales Res(partials) by a nonzero factor, so it keeps the verdict
    witness = _rational_singular_point(curve)
    if witness is not None:
        return SmoothnessReport(False, witness)
    if _canny_resultant(_partials(form), curve.degree - 1) != 0:
        return SmoothnessReport(True)
    # singular with no rational witness: report the eliminating polynomial,
    # the monic gcd of the nonzero resultants; when f shares a component
    # with a partial, Res_y(f_x, f_y) joins them
    f = curve.affine
    fx, fy = f.partial("x"), f.partial("y")
    rs = [_resultant_or_none(f, fx), _resultant_or_none(f, fy)]
    if not all(rs):
        rs.append(_resultant_or_none(fx, fy))
    elim = reduce(UniPoly.gcd, [r for r in rs if r], UniPoly.zero())
    return SmoothnessReport(False, elim or "non-rational singular locus")


def _resultant_or_none(a: BiPoly, b: BiPoly) -> Optional[UniPoly]:
    try:
        return a.resultant(b, "y")
    except PreconditionError:
        return None
