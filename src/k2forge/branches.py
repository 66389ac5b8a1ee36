"""Exact branch parametrizations of plane curves over Q.

A rational place is one `Branch`: the chart of its point (`point_chart`),
the Newton-polygon frame chain of the place in that chart, and the
regular equation the chain leaves.  Its chart series (s(t), v(t)), by
truncated power series with rational coefficients, are the one series of
the place, and its affine coordinates (x(t), y(t)) are read from them by
the chart's name:

* at a smooth affine point the chart is regular, so the chain is empty
  and a Newton iteration on the shifted curve delivers the series
  directly (with the axes swapped when the tangent is vertical);

* over a point on the line at infinity (smooth or not) the equation in
  the chart Y=1 or X=1 is expanded by Newton-polygon iteration.  Each
  polygon edge of slope q/e contributes places v ~ m * s^(q/e); the
  ramified case e > 1 is handled with the rational normalization
  s = lambda * t^e, v = t^q * (m + ...), choosing lambda as a power of
  the edge root so every coefficient stays in Q.  A place whose edge
  root is irrational raises NonRationalSupportError ("non-rational
  branch"), matching the engine's rational-support contract.

No expansion has a default truncation or probe: each caller asks for the
terms it needs.  A polynomial is evaluated on series by Horner's rule on
integer rows over one denominator, reduced once at the end.  Branch
indices at one projective point follow the order (valuation of y,
valuation of x, leading coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .bipoly import BiPoly
from .curves import CurvePoint, PlaneCurve, point_chart
from .errors import (NonRationalSupportError, PreconditionError,
                     VerificationError)
from .series import PowerSeries, mul_nums
from .unipoly import UniPoly


@dataclass(frozen=True)
class _Frame:
    """One Newton-polygon substitution s -> lambda*s1^e, v -> s1^q*(m + v1)."""

    e: int
    q: int
    lam: Fraction
    m: Fraction


def _newton_series(h: BiPoly, prec: int) -> PowerSeries:
    """Solve h(t, v(t)) = 0 for v with v(0) = 0; needs dh/dv(0,0) != 0.

    One precision-doubling run (Kung and Traub, JACM 1978): with v right
    mod t^k and g = 1/h_v(t, v) mod t^k, the step v <- v - h(t, v) * g is
    right mod t^2k because h(t, v) = O(t^k).  So h is evaluated at the new
    precision, h_v only at the old one, and g is carried from step to
    step by the Newton update g <- g * (2 - h_v * g).
    """
    if h.nums.get((0, 0)) or not h.nums.get((0, 1)):
        raise VerificationError("internal: Newton iteration needs a regular root")
    h_rows = h.rows_in("y")
    hv_rows = [[j * c for c in r] for j, r in enumerate(h_rows)][1:]  # h_v, over h.den
    plan = []  # prec, ceil(prec/2), ... down to 2
    while prec > 1:
        plan.append(prec)
        prec = (prec + 1) // 2
    v = PowerSeries.zero(1)
    g = PowerSeries.const(1 / h.coeff(0, 1), 1)
    for n in reversed(plan):
        k = v.prec
        if g.prec < k:
            g = _extend(g, k)
            g = (g + g * (1 - _eval_in_t(hv_rows, h.den, v, k) * g)).truncate(k)
        v = _extend(v, n)
        v = (v - _eval_in_t(h_rows, h.den, v, n) * g).truncate(n)
    return v


def _extend(a: PowerSeries, prec: int) -> PowerSeries:
    """The known terms of a, read as exact up to t^prec."""
    return PowerSeries.from_ints(a.val, a.nums, a.den, prec)


def _live_rows(v: PowerSeries, prec: int, pole_free: bool = True) -> Optional[int]:
    """Rows of a Horner sum in v that reach t^(prec-1): ceil(prec / val v),
    since v^j = O(t^prec) beyond, when val v > 0, v is known mod t^prec and
    no row coefficient has a pole; else None, which keeps every row."""
    return -(-prec // v.val) if pole_free and 0 < v.val and v.prec >= prec else None


def _eval_in_t(rows: List[List[int]], den: int, v: PowerSeries, prec: int) -> PowerSeries:
    """sum_j (rows[j](t) / den) * v(t)^j truncated to prec."""
    val, nums, top, k = _horner([(0, r, prec) for r in rows[:_live_rows(v, prec)]], v, prec)
    return PowerSeries.from_ints(val, nums, den * k, top)


def eval_series(p: BiPoly, s: PowerSeries, v: PowerSeries, prec: int) -> PowerSeries:
    """p(s(t), v(t)) truncated to prec; the rows in v have no pole when s has none."""
    cut = _live_rows(s, prec)
    rows = [_horner([(0, (a,), prec) for a in r[:cut]], s, prec)
            for r in p.rows_in("y")[:_live_rows(v, prec, s.val >= 0)]]
    # row j is over p.den * k_j, k_j a power of s.den: bring all over the largest
    k_max = max((k for *_, k in rows), default=1)
    val, nums, top, k = _horner([(cv, [c * (k_max // k) for c in cn], cp)
                                 for cv, cn, cp, k in rows], v, prec)
    return PowerSeries.from_ints(val, nums, p.den * k_max * k, top)


def _horner(coeffs: List[Tuple[int, Sequence[int], int]], v: PowerSeries,
            prec: int) -> Tuple[int, List[int], int, int]:
    """sum_j c_j * v^j as (val, nums, prec, k), meaning nums / (d * k) t^val +
    O(t^prec), where c_j = nums_j / d t^val_j + O(t^prec_j) is given as
    (val_j, nums_j, prec_j).  Each step acc <- (acc * v + c_j).truncate(prec)
    follows PowerSeries' rules, leading zeros stripped, without reducing."""
    val, acc, top, k = prec, [], prec, 1  # the zero series O(t^prec)
    for step, (cv, cn, cp) in enumerate(reversed(coeffs)):
        if step:
            k *= v.den  # acc * v is over d * k, so c_j is scaled by k
        mv, mp = val + v.val, min(top + v.val, v.prec + val)
        prod = mul_nums(acc, v.nums, mp - mv) if acc else ()
        p2 = min(mp, cp, prec)
        lo = min(mv, cv, p2)
        out = [0] * (p2 - lo)
        for i, c in enumerate(prod[:max(p2 - mv, 0)], mv - lo):
            out[i] = c
        for i, c in enumerate(cn[:max(p2 - cv, 0)], cv - lo):
            out[i] += c * k
        first = next((i for i, c in enumerate(out) if c), None)
        val, acc, top = (p2, [], p2) if first is None else (lo + first, out[first:], p2)
    return val, acc, top, k


def _polygon_places(h: BiPoly, depth: int = 0) -> List[Tuple[List[_Frame], BiPoly]]:
    """All places of h = 0 at the origin with s not identically zero, each
    as its frame chain and the regular equation the chain leaves.

    h vanishes at the origin: the first call gets the chart at a point of
    the curve, and each h1 below has h1(0, 0) = rho^k psi(rho) = 0 at its
    edge root rho."""
    if depth > 40:
        raise VerificationError("Newton polygon recursion did not terminate")
    support = list(h.nums)
    if all(j >= 1 for _, j in support):
        raise NonRationalSupportError("curve has the chart axis as a component")
    if all(i >= 1 for i, _ in support):
        raise NonRationalSupportError("curve has the vertical chart axis as a component")
    # smooth with non-vertical tangent (a y term): a single place, no polygon
    if h.nums.get((0, 1)):
        return [([], h)]
    places: List[Tuple[List[_Frame], BiPoly]] = []
    for mu, edge in _polygon_edges(support):
        e, q = mu.denominator, mu.numerator
        j0 = min(j for _, j in edge)
        psi_terms = {}
        for (i, j) in edge:  # i + mu*j is constant on the edge, so e divides j - j0
            psi_terms[(j - j0) // e] = h.coeff(i, j)
        # psi(0) is h's coefficient at the edge's lowest j, so 0 is no root
        psi = UniPoly([psi_terms.get(k, Fraction(0)) for k in range(max(psi_terms) + 1)])
        roots = psi.rational_roots()
        if sum(mult for _, mult in roots) < psi.degree:
            raise NonRationalSupportError(
                "non-rational branch: polygon edge polynomial has an irrational root",
                details={"edge_poly": list(psi.coeffs)},
            )
        alpha = -pow(q, -1, e) % e  # q/e is in lowest terms, so q is invertible mod e
        for rho, _ in roots:
            lam = rho**alpha
            m = rho ** ((1 + alpha * q) // e)
            h1 = _shift_frame(h, e, q, lam, m)
            frame = _Frame(e, q, lam, m)
            if h1.nums.get((0, 1)):
                places.append(([frame], h1))
            else:
                for frames, final in _polygon_places(h1, depth + 1):
                    places.append(([frame] + frames, final))
    return places


def _polygon_edges(support: List[Tuple[int, int]]) -> List[Tuple[Fraction, List[Tuple[int, int]]]]:
    """(mu, edge), in increasing mu > 0, for each edge of the Newton polygon:
    the exponents (i, j) of `support`, in support order, at which i + mu*j
    is least, when they hold two or more values of j.  These are the
    falling edges of the lower convex hull of the points (j, i), walked once.
    """
    hull: List[Tuple[int, int]] = []  # (j, i), j increasing
    for j2, i2 in sorted((j, i) for i, j in support):
        while len(hull) >= 2:
            (j0, i0), (j1, i1) = hull[-2:]
            if (j1 - j0) * (i2 - i0) > (i1 - i0) * (j2 - j0):  # a left turn
                break
            hull.pop()
        hull.append((j2, i2))
    edges = []
    for (j1, i1), (j2, i2) in zip(hull, hull[1:]):
        if i2 >= i1:  # hull slopes only rise from here, so mu <= 0
            break
        mu = Fraction(i1 - i2, j2 - j1)
        edges.append((mu, [(i, j) for (i, j) in support if i + mu * j == i1 + mu * j1]))
    return edges[::-1]


def _shift_frame(h: BiPoly, e: int, q: int, lam: Fraction, m: Fraction) -> BiPoly:
    """h(lam*s^e, s^q*(m + v)) with the total s-power divided out."""
    s_img = BiPoly({(e, 0): lam})
    v_img = BiPoly({(q, 0): m, (q, 1): Fraction(1)})
    g = h.substitute(s_img, v_img)
    k = min((i for (i, _) in g.nums), default=0)
    return BiPoly.from_ints({(i - k, j): c for (i, j), c in g.nums.items()}, g.den)


# ---------------------------------------------------------------------------
# public branch objects
# ---------------------------------------------------------------------------

class Branch:
    """A place of a plane curve at a rational point: `chart`, the curve's
    `point_chart` at the point, the frame chain of the place in it, and
    `final`, the regular equation the chain leaves (final(0, 0) = 0 with
    a nonzero v-derivative), on which plain Newton iteration finishes.

    Each frame writes v = s1^q * (m + v1) with m != 0, so the chain alone
    fixes val(v) along the place and the precision each frame adds to the
    Newton series.  Without frames v is the Newton series itself, of
    valuation ord_s final(s, 0), found only when read.  At an affine point
    with a vertical tangent the chart's axes are swapped (``swap``): the
    parameter is then t = y - y0 and the Newton series gives x - x0.
    """

    def __init__(self, curve: PlaneCurve, point: CurvePoint,
                 chart: Tuple[str, Tuple[Fraction, Fraction], BiPoly],
                 frames: List[_Frame], final: BiPoly, swap: bool = False):
        self.curve = curve
        self.point = point
        self.chart = chart
        self.frames = frames
        self.final = final
        self.swap = swap
        e, self._shift, self._val = 1, 0, None
        for fr in reversed(frames):
            self._val = e * fr.q
            self._shift += self._val
            e *= fr.e
        self._series: Optional[Tuple[PowerSeries, PowerSeries]] = None

    @property
    def w_val(self) -> int:
        """At a place at infinity: val(w), w = Z/Y (chart Y) or Z/X (chart X)."""
        if self._val is None:
            return min(i for (i, j) in self.final.nums if j == 0)
        return self._val

    def chart_series(self, prec: int) -> Tuple[PowerSeries, PowerSeries]:
        """(s, v) with chart point origin + (s, v), both known mod t^prec at
        least and without poles (the axes swapped at an affine point with
        ``swap``); kept, extended on demand."""
        if self._series is None or self._series[1].prec < prec:
            v = _newton_series(self.final, max(prec - self._shift, 1))
            lam, e = Fraction(1), 1  # current level's s as lam * t^e
            for fr in reversed(self.frames):
                # v_prev = s_i^q * (m + v_i) with s_i the current monomial
                mono = PowerSeries.t_power(e * fr.q, v.prec + e * fr.q, lam**fr.q)
                v = mono * (v + PowerSeries.const(fr.m, v.prec))
                lam, e = fr.lam * lam**fr.e, fr.e * e
            self._series = PowerSeries.t_power(e, v.prec + e, lam), v
        return self._series

    def xy(self, prec: int) -> Tuple[PowerSeries, PowerSeries]:
        """Affine coordinate series (x(t), y(t)), both known mod t^prec at least."""
        if self.chart[0] == "Z":
            s, v = self.chart_series(prec)
            x0, y0 = self.chart[1]
            if self.swap:
                s, v = v, s
            return s + PowerSeries.const(x0, s.prec), v + PowerSeries.const(y0, v.prec)
        # w has valuation w_val, so 1/w and u/w are known to 2*w_val fewer
        # terms than w
        x, y = self._chart_xy(prec + 2 * self.w_val)
        return x.truncate(prec), y.truncate(prec)

    def _chart_xy(self, prec: int) -> Tuple[PowerSeries, PowerSeries]:
        """(x, y) from the chart series to prec terms at a place at infinity:
        (u/w, 1/w) in chart Y, where (u, w) = (X/Y, Z/Y), and (1/w, v/w) in
        chart X, where (v, w) = (Y/X, Z/X)."""
        s, w = self.chart_series(prec)
        w_inv = w.invert()
        u_w = (s + PowerSeries.const(self.chart[1][0], s.prec)) * w_inv
        return (u_w, w_inv) if self.chart[0] == "Y" else (w_inv, u_w)

    def residual_ok(self, prec: int = None) -> bool:
        """Check F(x(t), y(t)) = 0 to the working truncation."""
        prec = prec or (2 * self.curve.degree + 6)
        x, y = self.xy(prec)
        val = eval_series(self.curve.affine, x, y, min(x.prec, y.prec))
        return val.is_zero()

    def _order_key(self) -> Tuple[int, int, Fraction, Fraction]:
        """(val y, val x, lead y, lead x) at a place at infinity: w_val + 1
        chart terms fix them, since s = lam * t^e and val(s) >= 1."""
        x, y = self._chart_xy(self.w_val + 1)
        return y.val, x.val, y.leading(), x.leading()

    def __repr__(self):
        return f"Branch({self.point.label()})"


def branch_at_affine(curve: PlaneCurve, p: CurvePoint) -> Branch:
    """The place at a smooth affine rational point, from its chart: the
    curve shifted to p, whose constant and linear terms are F(p) and the
    gradient.  The chart is regular there, so the place has no frames."""
    if not p.is_affine:
        raise PreconditionError("branch_at_affine needs an affine point")
    chart = point_chart(curve.affine, p)
    local = chart[2]
    if local.nums.get((0, 0)):
        raise PreconditionError(f"point {p.label()} does not lie on the curve")
    if local.nums.get((0, 1)):
        return Branch(curve, p, chart, [], local)
    if local.nums.get((1, 0)):
        return Branch(curve, p, chart, [], local.substitute(BiPoly.y(), BiPoly.x()), swap=True)
    raise PreconditionError(f"point {p.label()} is singular; no unique branch")


def branches_at_infinity(curve: PlaneCurve) -> List[Branch]:
    """All places of the curve over the line Z = 0 (rational ones, or raise).

    Output is sorted deterministically and branch indices are assigned
    per projective point by (val y, val x, leading coefficient of y,
    leading coefficient of x).
    """
    pts, complete = curve.rational_infinity_points()
    if not complete:
        raise NonRationalSupportError("non-rational branch: irrational point at infinity")
    out: List[Branch] = []
    for (X, Y) in pts:
        # chart Y has variables (u, w) = (X/Y, Z/Y), chart X (v, w) = (Y/X, Z/X)
        point = CurvePoint.at_infinity(X, Y, 0)
        chart = point_chart(curve.affine, point)
        brs = [Branch(curve, point, chart, frames, final)
               for frames, final in _polygon_places(chart[2])]
        if len(brs) > 1:
            brs.sort(key=Branch._order_key)
        for idx, br in enumerate(brs):
            br.point = CurvePoint.at_infinity(X, Y, idx)
            out.append(br)
    out.sort(key=lambda b: (b.point.x, b.point.y, b.point.branch))
    return out
