"""Exact rational scalars.

Scalars in this package are `fractions.Fraction`, which guarantees the
canonical form we rely on everywhere: reduced, positive denominator,
structural equality.  Hot paths work on integers instead and build a
`Fraction` only at their edges: `series.PowerSeries` and `bipoly.BiPoly`
each keep integer numerators over one common denominator, so series
products, polynomial arithmetic, Taylor shifts, substitutions and
evaluation at a rational point run on integers, and branch Newton steps
read a polynomial's integer rows directly; `curves` runs Fulton's
reduction on content-free integer coefficients and the smoothness test
on an integer form.
This module adds the few helpers the rest of the code needs
(parsing/printing the "p/q" wire format and integrality tests).
"""

from __future__ import annotations

from fractions import Fraction


def rat(value, den=None) -> Fraction:
    """Build a Fraction from ints, strings like "-3/4", or another Fraction."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build exact rational from {value!r}")


def rat_str(q: Fraction) -> str:
    """Serialize as "p" or "p/q" (never a float)."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_integer(q: Fraction) -> bool:
    return Fraction(q).denominator == 1

