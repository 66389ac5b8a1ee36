"""Dense exact linear algebra over Q (and over any ring with exact division).

Sizes here are tiny (interpolation systems with <= 10 unknowns, Macaulay
matrices up to ~70x70), so clarity beats asymptotics: `Fraction`
arithmetic for solving, and fraction-free Bareiss elimination for
determinants over any integral domain.  Its callers hand it integers or
integer polynomials (`BiPoly.resultant` builds its Sylvester matrix from
`UniPoly`s over denominator 1), so every step divides exactly without a
`Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Sequence

from .errors import PreconditionError

Matrix = List[List]


def bareiss_det(matrix: Matrix, exact_div: Callable = None):
    """Fraction-free determinant (Bareiss); exact over any integral domain.

    `exact_div(a, b)` must implement exact division; defaults to `/`
    (fine for Fraction entries).
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    div = exact_div if exact_div is not None else (lambda x, y: x / y)
    m = [list(row) for row in matrix]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            piv = next((r for r in range(k + 1, n) if m[r][k]), None)
            if piv is None:
                zero = m[k][k]
                return zero  # a zero of the right type
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):  # column k below the pivot is never read again
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num if prev is None else div(num, prev)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_matrix(a: Sequence, b: Sequence, zero) -> Matrix:
    """The Sylvester matrix of two coefficient lists (constant term first).

    deg b rows of a's coefficients, then deg a rows of b's, highest degree
    first and each shifted one column right; Res(a, b) is its determinant.
    """
    m, n = len(a) - 1, len(b) - 1
    ra, rb = list(reversed(a)), list(reversed(b))
    return ([[zero] * i + ra + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + rb + [zero] * (m - 1 - i) for i in range(m)])


def vandermonde_solve(nodes: Sequence[Fraction], values: Sequence[Fraction]) -> List[Fraction]:
    """Coefficients (b_0..b_{n-1}) of the unique poly of degree < n through (node_i, value_i).

    Newton divided differences, fully exact.  Repeated nodes are rejected;
    no nodes give the zero polynomial, [].
    """
    nodes = [Fraction(x) for x in nodes]
    values = [Fraction(y) for y in values]
    n = len(nodes)
    if n != len(values):
        raise PreconditionError("nodes and values must have equal length")
    if len(set(nodes)) != n:
        raise PreconditionError("singular Vandermonde: repeated nodes")
    if not n:
        return []
    # divided-difference table
    dd = list(values)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - level])
    # expand Newton form into monomial coefficients
    coeffs = [Fraction(0)] * n
    coeffs[0] = dd[n - 1]
    deg = 0
    for i in range(n - 2, -1, -1):
        # multiply running poly by (x - nodes[i]) then add dd[i]
        for j in range(deg, -1, -1):
            coeffs[j + 1] += coeffs[j]
            coeffs[j] = -nodes[i] * coeffs[j]
        deg += 1
        coeffs[0] += dd[i]
    return coeffs
