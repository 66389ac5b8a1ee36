"""Dense univariate polynomials over Q.

Coefficient index = monomial degree; the zero polynomial is the empty
coefficient list.  Everything is exact `Fraction` arithmetic.  This is
the workhorse for interpolation targets, two-torsion polynomials
t(x) = f1(x)^2/4 - x^d, discriminants and rational root extraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, List, Sequence, Tuple

from .errors import PreconditionError
from .rationals import rat


def _norm(coeffs: Iterable) -> Tuple[Fraction, ...]:
    cs = [Fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class UniPoly:
    """Polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        self.coeffs = _norm(coeffs)

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def const(c) -> "UniPoly":
        return UniPoly((rat(c),))

    @staticmethod
    def x(power: int = 1, coeff=1) -> "UniPoly":
        return UniPoly([0] * power + [rat(coeff)])

    @staticmethod
    def from_roots(roots: Sequence) -> "UniPoly":
        p = UniPoly.const(1)
        for r in roots:
            p = p * UniPoly([-rat(r), 1])
        return p

    # -- structure ----------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return UniPoly([c * q for c in self.coeffs])
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power of a polynomial")
        result = UniPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @staticmethod
    def _coerce(v) -> "UniPoly":
        if isinstance(v, UniPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return UniPoly.const(v)
        raise TypeError(f"cannot coerce {v!r} to UniPoly")

    def divmod(self, other: "UniPoly") -> Tuple["UniPoly", "UniPoly"]:
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.lc
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] / lc
            q[k] = f
            for i in range(d + 1):
                rem[k + i] -= f * other.coeffs[i]
            rem.pop()
        return UniPoly(q), UniPoly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise PreconditionError("inexact polynomial division")
        return q

    # -- calculus / evaluation -----------------------------------------
    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "UniPoly") -> "UniPoly":
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.const(c)
        return acc

    def shift(self, a) -> "UniPoly":
        """p(x + a)."""
        return self.compose(UniPoly([rat(a), 1]))

    # -- gcd / roots ----------------------------------------------------
    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        inv = 1 / self.lc
        return self * inv

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def is_squarefree(self) -> bool:
        if self.degree <= 0:
            return True
        return self.gcd(self.derivative()).degree == 0

    def root_multiplicity(self, r) -> int:
        """Largest m with (x - r)^m dividing self, by exact repeated division."""
        if self.is_zero():
            raise PreconditionError("zero polynomial")
        r = rat(r)
        lin = UniPoly([-r, 1])
        m, p = 0, self
        while p.degree >= 1:
            q, rem = p.divmod(lin)
            if not rem.is_zero():
                break
            m += 1
            p = q
        return m

    def rational_roots(self) -> List[Tuple[Fraction, int]]:
        """All rational roots with multiplicities, by q-adic Newton lifting.

        A root u/v of the squarefree part, cleared to integer coefficients a,
        has u | a0 and v | lc, so lc*u/v is an integer of size at most
        |a0*lc|.  Mod the smallest prime q not dividing lc at which every
        root of a is simple, u/v is one of those roots; Newton lifting past
        2|a0*lc| recovers lc*u/v as a symmetric residue (von zur Gathen and
        Gerhard, Modern Computer Algebra, ch. 15).  Each candidate is
        confirmed by exact evaluation.
        """
        if self.is_zero():
            raise PreconditionError("zero polynomial")
        roots: List[Tuple[Fraction, int]] = []
        p = self
        # strip x^k
        k = 0
        while p.coeff(0) == 0 and p.degree >= 1:
            p = p.exact_div(UniPoly.x())
            k += 1
        if k:
            roots.append((Fraction(0), k))
        if p.degree < 1:
            return roots
        # squarefree part, cleared to integer coefficients
        s = p.exact_div(p.gcd(p.derivative()))
        den = lcm(*(c.denominator for c in s.coeffs))
        a = [int(c * den) for c in s.coeffs]
        da = [i * c for i, c in enumerate(a)][1:]
        lc, bound = a[-1], 2 * abs(a[0] * a[-1])
        q = 1
        while True:
            q += 1
            if lc % q == 0 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
                continue
            mod_roots = [r for r in range(q) if _eval_mod(a, r, q) == 0]
            if all(_eval_mod(da, r, q) for r in mod_roots):
                break
        for r in mod_roots:
            m = q
            while m <= bound:
                m *= m
                r = (r - _eval_mod(a, r, m) * pow(_eval_mod(da, r, m), -1, m)) % m
            w = lc * r % m
            cand = Fraction(w - m if 2 * w > m else w, lc)
            if self(cand) == 0:
                roots.append((cand, self.root_multiplicity(cand)))
        roots.sort(key=lambda t: t[0])
        return roots

    # -- resultant / discriminant ---------------------------------------
    def resultant(self, other: "UniPoly") -> Fraction:
        """Res(self, other), exact.

        Euclidean descent over the field Q; cross-checked against the
        Sylvester determinant in the test-suite.
        """
        f, g = self, self._coerce(other)
        if f.is_zero() or g.is_zero():
            return Fraction(0)
        acc = Fraction(1)
        while True:
            m, n = f.degree, g.degree
            if n == 0:
                return acc * g.coeffs[0] ** m
            if m < n:
                if (m * n) % 2 == 1:
                    acc = -acc
                f, g = g, f
                continue
            r = f % g
            if r.is_zero():
                return Fraction(0)
            if (m * n) % 2 == 1:
                acc = -acc
            acc *= g.lc ** (m - r.degree)
            f, g = g, r

    def sylvester_resultant(self, other: "UniPoly") -> Fraction:
        """Res via the Sylvester determinant (independent small-degree route)."""
        from .linalg import bareiss_det

        f, g = self, self._coerce(other)
        m, n = f.degree, g.degree
        if m < 0 or n < 0:
            return Fraction(0)
        if m == 0 and n == 0:
            return Fraction(1)
        size = m + n
        rows = []
        for i in range(n):
            row = [Fraction(0)] * size
            for j, c in enumerate(reversed(f.coeffs)):
                row[i + j] = c
            rows.append(row)
        for i in range(m):
            row = [Fraction(0)] * size
            for j, c in enumerate(reversed(g.coeffs)):
                row[i + j] = c
            rows.append(row)
        return bareiss_det(rows)

    def discriminant(self) -> Fraction:
        """disc(p) = (-1)^(n(n-1)/2) Res(p, p') / lc(p); requires deg >= 1."""
        n = self.degree
        if n < 1:
            raise PreconditionError("discriminant needs degree >= 1")
        res = self.resultant(self.derivative())
        sign = -1 if (n * (n - 1) // 2) % 2 else 1
        return sign * res / self.lc

    # -- misc -----------------------------------------------------------
    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def pretty(self, var: str = "x") -> str:
        from .rationals import rat_str

        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
            if i == 0:
                body = rat_str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                cs = rat_str(abs(c))
                body = f"({cs})*{mono}" if "/" in cs else f"{cs}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def _eval_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    """Integer polynomial (ascending coefficients) at x, reduced mod m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc
