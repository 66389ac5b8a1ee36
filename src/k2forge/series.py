"""Truncated Laurent series over Q in a local parameter t.

A series knows its leading valuation, its coefficients from that
valuation upward, and the (exclusive) truncation order: it represents
sum c_k t^k for val <= k < prec, plus O(t^prec).  Branch expansions
produce these, and tame-symbol evaluation consumes them.  There is no
default truncation: every caller states the precision it needs.

The coefficients are stored as integer numerators ``nums`` over one
positive common denominator ``den``, kept reduced (gcd(den, *nums) = 1),
so a product costs integer multiplications and one gcd sweep rather than
one gcd per coefficient product (von zur Gathen and Gerhard, *Modern
Computer Algebra*, ch. 8).  That pair is unique for given coefficients,
so equality stays structural.  ``Fraction`` is built only at the edges:
``coeff``, ``leading``, ``coeffs`` and ``repr``.

Precision bookkeeping under multiplication and inversion follows the
usual rules; inverting a series that is zero to its truncation raises
InsufficientPrecisionError ("insufficient precision").
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import InsufficientPrecisionError
from .rationals import lowest_terms, rat


def mul_nums(a: Sequence[int], b: Sequence[int], n: int) -> List[int]:
    """The first n coefficients of a * b, schoolbook."""
    rb = b[::-1]
    lb = len(rb)
    # out[k] = sum a[i] * b[k - i], and rb[lb - 1 - k + i] is b[k - i]
    return [sum(map(mul, a[max(0, k - lb + 1): k + 1], rb[max(lb - 1 - k, 0):]))
            for k in range(n)]


class PowerSeries:
    """Laurent series with exact coefficients and explicit truncation."""

    __slots__ = ("val", "nums", "den", "prec")

    def __init__(self, val: int, coeffs: Sequence, prec: int):
        cs = [rat(c) for c in coeffs[: max(prec - val, 0)]]
        den = lcm(*(c.denominator for c in cs))
        self._set(val, [c.numerator * (den // c.denominator) for c in cs], den, prec)

    def _set(self, val: int, nums: Sequence[int], den: int, prec: int):
        """Store sum nums[i]/den t^(val+i) + O(t^prec) in reduced form; den > 0."""
        if len(nums) > prec - val:
            nums = nums[: max(prec - val, 0)]
        lo = next((i for i, c in enumerate(nums) if c), None)
        if lo is None:
            self.val, self.nums, self.den = prec, (), 1
        else:
            self.val = val + lo
            self.nums, self.den = lowest_terms(nums[lo:], den)
        self.prec = prec

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_ints(val: int, nums: Sequence[int], den: int, prec: int) -> "PowerSeries":
        """sum nums[i]/den t^(val+i) + O(t^prec), reduced; den > 0."""
        s = PowerSeries.__new__(PowerSeries)
        s._set(val, nums, den, prec)
        return s

    @staticmethod
    def zero(prec: int) -> "PowerSeries":
        return PowerSeries.from_ints(prec, (), 1, prec)

    @staticmethod
    def const(c, prec: int) -> "PowerSeries":
        return PowerSeries.t_power(0, prec, c)

    @staticmethod
    def t_power(k: int, prec: int, coeff=1) -> "PowerSeries":
        c = rat(coeff)
        return PowerSeries.from_ints(k, (c.numerator,), c.denominator, prec)

    # -- inspection --------------------------------------------------------
    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients from t^val upward, as Fractions (read-only)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    def is_zero(self) -> bool:
        """Zero to the stated truncation order."""
        return not self.nums

    def valuation(self) -> Optional[int]:
        """Leading exponent; None when zero to truncation."""
        return None if self.is_zero() else self.val

    def coeff(self, k: int) -> Fraction:
        if k >= self.prec:
            raise InsufficientPrecisionError(f"coefficient of t^{k} beyond truncation {self.prec}")
        if k < self.val or k - self.val >= len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[k - self.val], self.den)

    def leading(self) -> Fraction:
        if self.is_zero():
            raise InsufficientPrecisionError("insufficient precision: series is zero to truncation")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic -----------------------------------------------------------
    def _combine(self, other, sign: int) -> "PowerSeries":
        """self + sign * other over the lcm of the two denominators."""
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        den = lcm(self.den, other.den)
        out = [0] * (prec - lo)
        for s, f in ((self, den // self.den), (other, sign * den // other.den)):
            for k, c in enumerate(s.nums[: max(prec - s.val, 0)], s.val - lo):
                out[k] += c * f
        return PowerSeries.from_ints(lo, out, den, prec)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries.from_ints(self.val, [-c for c in self.nums], self.den, self.prec)

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return PowerSeries.from_ints(self.val, [c * other.numerator for c in self.nums],
                                         self.den * other.denominator, self.prec)
        # a zero series O(t^prec) has val = prec, so one rule covers it
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        return PowerSeries.from_ints(val, mul_nums(self.nums, other.nums, prec - val),
                                     self.den * other.den, prec)

    __rmul__ = __mul__

    def __rsub__(self, other):
        return PowerSeries.const(other, self.prec) - self

    def invert(self) -> "PowerSeries":
        """Multiplicative inverse; error if zero to truncation."""
        if self.is_zero():
            raise InsufficientPrecisionError("insufficient precision: cannot invert zero series")
        a, n = self.nums, self.prec - self.val  # n known unit-part terms
        # 1/sum a_i t^i = sum b_k t^k with b_0 = 1/a_0 and
        # b_k = -(sum_{i=1..k} a_i b_(k-i)) / a_0, each b_k = beta_k / q
        beta, q = ([1], a[0]) if a[0] > 0 else ([-1], -a[0])
        for k in range(1, n):
            s = -sum(map(mul, a[1: k + 1], reversed(beta[max(k - len(a) + 1, 0): k])))
            g = gcd(s, a[0] * q)
            num, den = s // g, a[0] * q // g
            if den < 0:
                num, den = -num, -den
            m = den // gcd(den, q)  # q * m = lcm(q, den)
            if m > 1:
                beta = [b * m for b in beta]
                q *= m
            beta.append(num * (q // den))
        return PowerSeries.from_ints(-self.val, [b * self.den for b in beta], q, n - self.val)

    def truncate(self, prec: int) -> "PowerSeries":
        if prec >= self.prec:
            return self
        return PowerSeries.from_ints(self.val, self.nums, self.den, prec)

    def __eq__(self, other):
        if isinstance(other, PowerSeries):
            return (self.val == other.val and self.nums == other.nums
                    and self.den == other.den and self.prec == other.prec)
        return NotImplemented

    def __repr__(self):
        if self.is_zero():
            return f"O(t^{self.prec})"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.val + i
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return " + ".join(parts) + f" + O(t^{self.prec})"
