"""Deterministic SVG figures of real curve loci with marked points.

The exact rational coefficients are evaluated in double precision, as
plain Python floats, on a regular grid; the zero contour comes from
marching squares with linear interpolation inside each cell (no adaptive
refinement: the figures are illustrative).  A value that overflows the
float range (a power x**i or y**j, a coefficient, a point or line
coordinate) becomes nan, and a grid value that is not finite leaves its
cells undrawn.  Auxiliary tangent lines are drawn by analytic clipping,
auxiliary conics reuse the contour machinery.  Output is byte-stable:
cells are visited row-major and every coordinate is printed with fixed
precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import PreconditionError


# cells per axis; the grid holds (grid + 1)^2 floats, about 40 bytes each,
# so the maximum keeps a plot near 160 MiB
MIN_GRID, MAX_GRID = 16, 2048
WIDTH = HEIGHT = 640  # the figure's size in pixels


@dataclass
class PlotSpec:
    window: Tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    grid: int

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.window
        if not all(map(math.isfinite, (*self.window, xmax - xmin, ymax - ymin))):
            raise PreconditionError("window bounds and spans must be finite")
        if not (xmin < xmax and ymin < ymax):
            raise PreconditionError("window must satisfy xmin < xmax and ymin < ymax")
        if not MIN_GRID <= self.grid <= MAX_GRID:
            raise PreconditionError(f"grid must be {MIN_GRID} to {MAX_GRID} cells per axis")


def _linspace(a: float, b: float, n: int) -> List[float]:
    """n evenly spaced points i * step + a from a to b, the last set to b."""
    step = (b - a) / (n - 1)
    pts = [i * step + a for i in range(n)]
    pts[-1] = b
    return pts


def _or_nan(f, *args) -> float:
    """f(*args), or nan where it overflows the float range."""
    try:
        return f(*args)
    except OverflowError:
        return math.nan


def _poly_grid(terms: Dict[Tuple[int, int], Fraction], xs, ys) -> List[List[float]]:
    """vals[i][j] = sum of c * xs[i]**dx * ys[j]**dy over the terms, added
    one term at a time in sorted order from 0.0."""
    items = sorted(terms.items())
    xpow = {dx: [_or_nan(pow, x, dx) for x in xs] for (dx, _), _ in items}
    ypow = {dy: [_or_nan(pow, y, dy) for y in ys] for (_, dy), _ in items}
    vals = [[0.0] * len(ys) for _ in xs]
    for (dx, dy), c in items:
        c, py = _or_nan(float, c), ypow[dy]
        for i, x in enumerate(xpow[dx]):
            cx = c * x
            vals[i] = [acc + cx * y for acc, y in zip(vals[i], py)]
    return vals


def _marching_segments(vals: List[List[float]], xs, ys) -> List[Tuple[float, float, float, float]]:
    """Zero-contour segments, row-major deterministic order."""
    segs = []

    def interp(p0, p1, v0, v1):
        t = v0 / (v0 - v1)
        t = min(max(t, 0.0), 1.0)
        return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))

    for i in range(len(xs) - 1):
        row, nxt = vals[i], vals[i + 1]
        for j in range(len(ys) - 1):
            v = (row[j], nxt[j], nxt[j + 1], row[j + 1])
            idx = (v[0] > 0) | (v[1] > 0) << 1 | (v[2] > 0) << 2 | (v[3] > 0) << 3
            if idx in (0, 15) or not all(map(math.isfinite, v)):
                continue
            corners = [(xs[i], ys[j]), (xs[i + 1], ys[j]),
                       (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1])]
            edges = _MS_TABLE[idx]
            if edges is None:  # ambiguous saddle: split on the cell mean
                center = (v[0] + v[1] + v[2] + v[3]) / 4.0
                edges = _MS_SADDLE[(idx, center > 0)]
            for (e0, e1) in edges:
                a = interp(corners[e0[0]], corners[e0[1]], v[e0[0]], v[e0[1]])
                b = interp(corners[e1[0]], corners[e1[1]], v[e1[0]], v[e1[1]])
                segs.append((a[0], a[1], b[0], b[1]))
    return segs


# corner bits: 1=(i,j), 2=(i+1,j), 4=(i+1,j+1), 8=(i,j+1); edges as corner pairs
_E_BOTTOM, _E_RIGHT, _E_TOP, _E_LEFT = (0, 1), (1, 2), (2, 3), (3, 0)
_MS_TABLE = {
    1: [(_E_LEFT, _E_BOTTOM)],
    2: [(_E_BOTTOM, _E_RIGHT)],
    3: [(_E_LEFT, _E_RIGHT)],
    4: [(_E_RIGHT, _E_TOP)],
    5: None,
    6: [(_E_BOTTOM, _E_TOP)],
    7: [(_E_LEFT, _E_TOP)],
    8: [(_E_TOP, _E_LEFT)],
    9: [(_E_BOTTOM, _E_TOP)],
    10: None,
    11: [(_E_RIGHT, _E_TOP)],
    12: [(_E_LEFT, _E_RIGHT)],
    13: [(_E_BOTTOM, _E_RIGHT)],
    14: [(_E_LEFT, _E_BOTTOM)],
}
_MS_SADDLE = {
    (5, True): [(_E_LEFT, _E_TOP), (_E_BOTTOM, _E_RIGHT)],
    (5, False): [(_E_LEFT, _E_BOTTOM), (_E_RIGHT, _E_TOP)],
    (10, True): [(_E_BOTTOM, _E_LEFT), (_E_TOP, _E_RIGHT)],
    (10, False): [(_E_LEFT, _E_TOP), (_E_BOTTOM, _E_RIGHT)],
}


def _clip_line(u: float, v: float, w: float, window) -> Optional[Tuple[float, float, float, float]]:
    """Segment of u*x + v*y + w = 0 inside the window, or None."""
    xmin, xmax, ymin, ymax = window
    pts = []
    if abs(v) > 1e-12:
        for x in (xmin, xmax):
            y = -(u * x + w) / v
            if ymin - 1e-9 <= y <= ymax + 1e-9:
                pts.append((x, y))
    if abs(u) > 1e-12:
        for y in (ymin, ymax):
            x = -(v * y + w) / u
            if xmin - 1e-9 <= x <= xmax + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return (*uniq[0], *uniq[1])


def render_record_svg(record_data: dict, spec: PlotSpec) -> str:
    """Render a stored record: curve contour, aux lines/conics, labeled points.

    Raises RecordFormatError when record_data does not have a record's shape.
    """
    xmin, xmax, ymin, ymax = spec.window
    W, H = WIDTH, HEIGHT

    def to_px(x, y):
        px = (x - xmin) / (xmax - xmin) * W
        py = H - (y - ymin) / (ymax - ymin) * H
        return px, py

    def fmt(v):
        return f"{v:.2f}"

    from .curves import Conic
    from .records import json_field, poly_field, rat_field, rats_field
    curve_terms = poly_field(json_field(record_data, "curve", dict), "affine").terms
    aux = json_field(record_data, "aux", dict, {})
    xs = _linspace(xmin, xmax, spec.grid + 1)
    ys = _linspace(ymin, ymax, spec.grid + 1)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
           f'<rect width="{W}" height="{H}" fill="white"/>']
    # axes
    if xmin < 0 < xmax:
        x0, _ = to_px(0, 0)
        out.append(f'<line x1="{fmt(x0)}" y1="0" x2="{fmt(x0)}" y2="{H}" '
                   'stroke="#cccccc" stroke-width="1"/>')
    if ymin < 0 < ymax:
        _, y0 = to_px(0, 0)
        out.append(f'<line x1="0" y1="{fmt(y0)}" x2="{W}" y2="{fmt(y0)}" '
                   'stroke="#cccccc" stroke-width="1"/>')

    def contour_path(terms, color, width, dash=""):
        segs = _marching_segments(_poly_grid(terms, xs, ys), xs, ys)
        if not segs:
            return
        parts = []
        for (ax, ay, bx, by) in segs:
            pa, pb = to_px(ax, ay), to_px(bx, by)
            parts.append(f"M{fmt(pa[0])} {fmt(pa[1])}L{fmt(pb[0])} {fmt(pb[1])}")
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(f'<path d="{"".join(parts)}" stroke="{color}" '
                   f'stroke-width="{width}" fill="none"{dash_attr}/>')

    # auxiliary lines first (under the curve)
    for line in json_field(aux, "lines", list, []):
        u, v, w = (_or_nan(float, c) for c in rats_field(line, "coeffs", 3))
        seg = _clip_line(u, v, w, spec.window)
        if seg is None:
            continue
        pa, pb = to_px(seg[0], seg[1]), to_px(seg[2], seg[3])
        out.append(f'<line x1="{fmt(pa[0])}" y1="{fmt(pa[1])}" x2="{fmt(pb[0])}" '
                   f'y2="{fmt(pb[1])}" stroke="#888888" stroke-width="1"/>')
    for conic in json_field(aux, "conics", list, []):
        conic_poly = Conic.make(*rats_field(conic, "coeffs", 4)).poly()
        contour_path(conic_poly.terms, "#2a7f2a", 1.2, dash="6 3")
    contour_path(curve_terms, "#1f3d99", 1.8)

    # marked points with labels
    any_inside = False
    for name, pd in sorted(json_field(record_data, "points", dict, {}).items()):
        if json_field(pd, "kind", str) != "affine":
            continue
        x, y = _or_nan(float, rat_field(pd, "x")), _or_nan(float, rat_field(pd, "y"))
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            continue
        any_inside = True
        px, py = to_px(x, y)
        out.append(
            f'<circle cx="{fmt(px)}" cy="{fmt(py)}" r="3.5" fill="#c02020"/>'
            f'<text x="{fmt(px + 6)}" y="{fmt(py - 6)}" font-family="sans-serif" '
            f'font-size="14" fill="#c02020">{name}</text>')
    if not any_inside:
        print("warning: window excludes all marked points", file=sys.stderr)
    out.append("</svg>")
    return "\n".join(out) + "\n"
