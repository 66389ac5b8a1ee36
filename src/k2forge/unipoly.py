"""Dense univariate polynomials over Q.

A UniPoly stores integer numerators ``nums``, indexed by monomial degree
and without trailing zeros, over one positive denominator ``den``, kept
reduced (gcd(den, *nums) = 1); the zero polynomial is () over 1.  That
pair is unique for given coefficients, so equality and hashing run on
ints.  Arithmetic, division, the derivative and evaluation (which clears
x = a/b once) run on the numerators; ``gcd`` is a primitive remainder
sequence made monic only at the end, and ``resultant`` the subresultant
remainder sequence (Collins, JACM 1967; von zur Gathen and Gerhard,
*Modern Computer Algebra*, ch. 6 and 11), both over Z.  ``Fraction`` is
built only at the edges: ``coeffs``, ``coeff``, ``lc``, values, roots,
resultants and the text form.  This is the workhorse for interpolation
targets, two-torsion polynomials t(x) = f1(x)^2/4 - x^d, discriminants
and rational root extraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import List, Sequence, Tuple

from .errors import PreconditionError
from .linalg import bareiss_det, sylvester_matrix
from .rationals import lowest_terms, rat


class UniPoly:
    """Polynomial in one variable: integer numerators over one denominator."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if isinstance(c, (int, Fraction)) else rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: Sequence[int], den: int):
        """Store nums/den in lowest terms, without trailing zeros; den != 0."""
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        self.nums, self.den = lowest_terms(nums[:n], den)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_ints(nums: Sequence[int], den: int = 1) -> "UniPoly":
        """sum nums[i]/den x^i, reduced; den != 0."""
        p = UniPoly.__new__(UniPoly)
        p._set(nums, den)
        return p

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly.from_ints(())

    @staticmethod
    def const(c) -> "UniPoly":
        c = rat(c)
        return UniPoly.from_ints((c.numerator,), c.denominator)

    @staticmethod
    def x(power: int = 1) -> "UniPoly":
        return UniPoly.from_ints([0] * power + [1])

    @staticmethod
    def from_roots(roots: Sequence) -> "UniPoly":
        p = UniPoly.const(1)
        for r in roots:
            p = p * UniPoly([-rat(r), 1])
        return p

    # -- structure ----------------------------------------------------
    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first (a read-only copy)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def lc(self) -> Fraction:
        if not self.nums:
            raise PreconditionError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        elif not isinstance(other, UniPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    # -- arithmetic ---------------------------------------------------
    def _combine(self, other, sign: int) -> "UniPoly":
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = [c * fa for c in self.nums]
        out.extend([0] * (len(other.nums) - len(out)))
        for i, c in enumerate(other.nums):
            out[i] += c * fb
        return UniPoly.from_ints(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return UniPoly.from_ints([-c for c in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly.from_ints([c * other.numerator for c in self.nums],
                                     self.den * other.denominator)
        other = self._coerce(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return UniPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] += u * v
        return UniPoly.from_ints(out, self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power of a polynomial")
        result = UniPoly.const(1)
        for _ in range(n):
            result = result * self
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
        # s*A = Q*B + R on the numerators: self = Q*den_B/(s*den_A) * other + R/(s*den_A)
        q, r, s = _divmod_ints(self.nums, other.nums)
        den = s * self.den
        return UniPoly.from_ints([c * other.den for c in q], den), UniPoly.from_ints(r, den)

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise PreconditionError("inexact polynomial division")
        return q

    # -- calculus / evaluation -----------------------------------------
    def derivative(self) -> "UniPoly":
        return UniPoly.from_ints([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def __call__(self, x) -> Fraction:
        """The value at x = a/b: sum n_i a^i b^(deg - i) over den * b^deg (Horner)."""
        x = rat(x)
        a, b = x.numerator, x.denominator
        acc, bpow = 0, 1
        for c in reversed(self.nums):
            acc = acc * a + c * bpow
            bpow *= b
        return Fraction(acc, self.den * b ** max(self.degree, 0))

    # -- gcd / roots ----------------------------------------------------
    def gcd(self, other: "UniPoly") -> "UniPoly":
        """The monic gcd, by a primitive remainder sequence on the numerators."""
        a, b = _primitive(self.nums), _primitive(self._coerce(other).nums)
        while b:
            a, b = b, _primitive(_divmod_ints(a, b)[1])
        return UniPoly.from_ints(a, a[-1]) if a else UniPoly.zero()

    def is_squarefree(self) -> bool:
        if self.degree <= 0:
            return True
        return self.gcd(self.derivative()).degree == 0

    def root_multiplicity(self, r) -> int:
        """Largest m with (x - r)^m dividing self, by exact repeated division."""
        if self.is_zero():
            raise PreconditionError("zero polynomial")
        lin, m, p = UniPoly([-rat(r), 1]), 0, self
        while p.degree >= 1:
            p, rem = p.divmod(lin)
            if rem:
                break
            m += 1
        return m

    def rational_roots(self) -> List[Tuple[Fraction, int]]:
        """All rational roots with multiplicities, by q-adic Newton lifting.

        A root u/v of the squarefree part, as a primitive integer polynomial
        a, has u | a0 and v | lc, so lc*u/v is an integer of size at most
        |a0*lc|.  Mod the smallest prime q not dividing lc at which every
        root of a is simple, u/v is one of those roots; Newton lifting past
        2|a0*lc| recovers lc*u/v as a symmetric residue (von zur Gathen and
        Gerhard, Modern Computer Algebra, ch. 15).  Each candidate is
        confirmed by exact evaluation.
        """
        if self.is_zero():
            raise PreconditionError("zero polynomial")
        roots: List[Tuple[Fraction, int]] = []
        # strip x^k; the denominator does not move the roots
        k = next(i for i, c in enumerate(self.nums) if c)
        if k:
            roots.append((Fraction(0), k))
        p = UniPoly.from_ints(self.nums[k:])
        if p.degree < 1:
            return roots
        a = _primitive(p.exact_div(p.gcd(p.derivative())).nums)
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

        The subresultant remainder sequence on the numerators, over the
        denominators' powers once; cross-checked against the Sylvester
        determinant in the test-suite.
        """
        other = self._coerce(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return Fraction(0)
        return Fraction(_int_resultant(a, b), self.den ** (len(b) - 1) * other.den ** (len(a) - 1))

    def sylvester_resultant(self, other: "UniPoly") -> Fraction:
        """Res via the Sylvester determinant (independent small-degree route)."""
        f, g = self, self._coerce(other)
        if f.is_zero() or g.is_zero():
            return Fraction(0)
        return bareiss_det(sylvester_matrix(f.coeffs, g.coeffs, Fraction(0)))

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

    def pretty(self) -> str:
        """The canonical text form of ``BiPoly``, in x."""
        from .bipoly import BiPoly  # bipoly imports this module

        return BiPoly.from_unipoly(self).canonical()


def _eval_mod(coeffs: Sequence[int], x: int, m: int) -> int:
    """Integer polynomial (ascending coefficients) at x, reduced mod m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _primitive(nums: Sequence[int]) -> List[int]:
    """The coefficients divided by their gcd (the content)."""
    g = gcd(*nums)
    return [c // g for c in nums] if g > 1 else list(nums)


def _divmod_ints(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], List[int], int]:
    """(q, r, s) with s*a = q*b + r over Z and deg r < deg b; b nonzero.

    A step scales by |lc(b)|/g only when lc(b) does not divide the leading
    coefficient t (g = gcd(t, lc(b))), so s > 0 divides
    |lc(b)|^(deg a - deg b + 1), and an exact division in Z[x] has s = 1.
    """
    lc, db = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        t = r.pop()
        if not t:
            continue
        if t % lc:
            m = abs(lc) // gcd(t, lc)
            r = [c * m for c in r]
            q = [c * m for c in q]
            s *= m
            t *= m
        f = t // lc
        q[k] = f
        for i in range(db):
            r[k + i] -= f * b[i]
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _int_resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) of two nonzero integer polynomials (ascending coefficients).

    The subresultant remainder sequence (Collins, JACM 1967; Cohen, *A
    Course in Computational Algebraic Number Theory*, alg. 3.3.7): each
    pseudo-remainder lc(B)^(delta+1) A mod B, with delta = deg A - deg B,
    is divided exactly by g * h^delta, where g is the previous leading
    coefficient and h = g^delta / h^(delta-1) tracks the subresultant
    scale.  Every division is exact over Z.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -1
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        _, r, s = _divmod_ints(a, b)
        if not r:
            return 0
        # r * scale is the pseudo-remainder; div = g * h^delta divides it
        scale, div = b[-1] ** (delta + 1) // s, g * h**delta
        a, b = b, [c * scale // div for c in r]
        g = a[-1]
        if delta:
            h = g**delta // h ** (delta - 1)
    da = len(a) - 1
    return sign * b[0] ** da // h ** (da - 1) if da else sign
