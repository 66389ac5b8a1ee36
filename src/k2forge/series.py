"""Truncated Laurent series over Q in a local parameter t.

A series knows its leading valuation, its coefficients from that
valuation upward, and the (exclusive) truncation order: it represents
sum c_k t^k for val <= k < prec, plus O(t^prec).  Branch expansions at
infinity produce these, and tame-symbol evaluation consumes them.

Precision bookkeeping under multiplication and inversion follows the
usual rules; inverting a series that is zero to its truncation raises
InsufficientPrecisionError ("insufficient precision").
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import InsufficientPrecisionError, PreconditionError
from .rationals import rat

_DEFAULT_EXTRA = 4


def default_order(max_pole_order: int) -> int:
    """Default truncation: 2 * (max pole order at the point) + 4."""
    return 2 * max(max_pole_order, 1) + _DEFAULT_EXTRA


class PowerSeries:
    """Laurent series with exact coefficients and explicit truncation."""

    __slots__ = ("val", "coeffs", "prec")

    def __init__(self, val: int, coeffs: Sequence, prec: int):
        cs = [rat(c) for c in coeffs]
        # normalize: strip leading zeros (raising val), drop tail beyond prec
        while cs and cs[0] == 0:
            cs.pop(0)
            val += 1
        if val + len(cs) > prec:
            cs = cs[: max(0, prec - val)]
            while cs and cs[0] == 0:
                cs.pop(0)
                val += 1
        if not cs:
            val = prec
        self.val = val
        self.coeffs = tuple(cs)
        self.prec = prec

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(prec: int) -> "PowerSeries":
        return PowerSeries(prec, (), prec)

    @staticmethod
    def const(c, prec: int) -> "PowerSeries":
        return PowerSeries(0, (rat(c),), prec)

    @staticmethod
    def t_power(k: int, prec: int, coeff=1) -> "PowerSeries":
        return PowerSeries(k, (rat(coeff),), prec)

    @staticmethod
    def from_unipoly(p, prec: int) -> "PowerSeries":
        return PowerSeries(0, list(p.coeffs), prec)

    # -- inspection --------------------------------------------------------
    def is_zero(self) -> bool:
        """Zero to the stated truncation order."""
        return not self.coeffs

    def valuation(self) -> Optional[int]:
        """Leading exponent; None when zero to truncation."""
        return None if self.is_zero() else self.val

    def coeff(self, k: int) -> Fraction:
        if k >= self.prec:
            raise InsufficientPrecisionError(f"coefficient of t^{k} beyond truncation {self.prec}")
        if k < self.val or k - self.val >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[k - self.val]

    def leading(self) -> Fraction:
        if self.is_zero():
            raise InsufficientPrecisionError("insufficient precision: series is zero to truncation")
        return self.coeffs[0]

    # -- arithmetic -----------------------------------------------------------
    def _aligned(self, other: "PowerSeries"):
        prec = min(self.prec, other.prec)
        lo = min(self.val, other.val, prec)
        return prec, lo

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            other = PowerSeries.const(other, self.prec)
        prec, lo = self._aligned(other)
        out = [self.coeff(k) + other.coeff(k) for k in range(lo, prec)]
        return PowerSeries(lo, out, prec)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            other = PowerSeries.const(other, self.prec)
        prec, lo = self._aligned(other)
        out = [self.coeff(k) - other.coeff(k) for k in range(lo, prec)]
        return PowerSeries(lo, out, prec)

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.val, [-c for c in self.coeffs], self.prec)

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return PowerSeries(self.val, [c * q for c in self.coeffs], self.prec)
        # a zero series O(t^prec) has val = prec, so one rule covers it
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        n = prec - val
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            jmax = min(len(other.coeffs), n - i)
            for j in range(jmax):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(val, out, prec)

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return PowerSeries.const(other, self.prec) - self

    def invert(self) -> "PowerSeries":
        """Multiplicative inverse; error if zero to truncation."""
        if self.is_zero():
            raise InsufficientPrecisionError("insufficient precision: cannot invert zero series")
        v = self.val
        n = self.prec - v  # known unit-part terms
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        inv0 = 1 / a[0]
        out = [Fraction(0)] * n
        out[0] = inv0
        for k in range(1, n):
            s = Fraction(0)
            for i in range(1, k + 1):
                if i < len(a) and a[i]:
                    s += a[i] * out[k - i]
            out[k] = -inv0 * s
        return PowerSeries(-v, out, n - v)

    def __truediv__(self, other: "PowerSeries") -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return self * (1 / rat(other))
        return self * other.invert()

    def __pow__(self, n: int) -> "PowerSeries":
        if n == 0:
            rel = self.prec - self.val if not self.is_zero() else self.prec
            return PowerSeries.const(1, max(rel, 1))
        base = self if n > 0 else self.invert()
        result = base
        for _ in range(abs(n) - 1):
            result = result * base
        return result

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner(t)); requires val(self) >= 0.

        With val(inner) = 0 the composition is only faithful when self is
        known exactly (a polynomial series); that is the caller's contract.
        """
        if self.val < 0:
            raise PreconditionError("cannot compose a Laurent tail")
        prec = inner.prec
        acc = PowerSeries.zero(prec)
        for c in reversed(list(self.coeffs)):
            acc = acc * inner + PowerSeries.const(c, prec)
        if self.val > 0:
            acc = acc * inner**self.val
        return acc

    def truncate(self, prec: int) -> "PowerSeries":
        if prec >= self.prec:
            return self
        return PowerSeries(self.val, self.coeffs, prec)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            if q == 0:
                return self.is_zero()
            return (not self.is_zero()) and self.val == 0 and len(self.coeffs) == 1 and self.coeffs[0] == q
        if isinstance(other, PowerSeries):
            return self.val == other.val and self.coeffs == other.coeffs and self.prec == other.prec
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
