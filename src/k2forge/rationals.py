"""Exact rational scalars.

Scalars in this package are `fractions.Fraction`, which guarantees the
canonical form we rely on everywhere: reduced, positive denominator,
structural equality.  Hot paths work on integers instead and build a
`Fraction` only at their edges: `series.PowerSeries`, `bipoly.BiPoly`
and `unipoly.UniPoly` each keep integer numerators over one common
denominator, stored through `lowest_terms`, so series products,
polynomial arithmetic, Taylor shifts, substitutions, evaluation at a
rational point, gcds, rational roots and resultants (subresultant
sequences, and Bareiss determinants of integer polynomials) run on
integers.  `curves` runs Fulton's reduction and the smoothness test on
integer forms, and `symbols` forms leading coefficients, tame values and
certificate totals on integer pairs.  `Fraction` remains the type of
public scalars (point coordinates, coefficients, function scalars, tame
values, certificate entries) and of values read from or written to a
record.  This module adds the few helpers the rest of the code
needs (the "p/q" wire format, integrality tests, `lowest_terms`,
`pow_pair`).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Sequence, Tuple

from .errors import PreconditionError


def rat(value) -> Fraction:
    """Build a Fraction from ints, strings like "-3/4", or another Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build exact rational from {value!r}")


def rat_str(q: Fraction) -> str:
    """Serialize as "p" or "p/q" (never a float); PreconditionError past
    CPython's digit limit for integer text (`sys.get_int_max_str_digits`)."""
    q = q if isinstance(q, Fraction) else Fraction(q)
    return pair_str(q.numerator, q.denominator)


def pair_str(num: int, den: int) -> str:
    """rat_str of num/den, a pair already in lowest terms with den > 0."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # raised only where the limit, and so its getter, exists
        raise PreconditionError("number too large to write: past CPython's limit of "
                                f"{sys.get_int_max_str_digits()} digits for integer text") from None


def is_integer(q: Fraction) -> bool:
    return Fraction(q).denominator == 1


def pow_pair(num: int, den: int, e: int) -> Tuple[int, int]:
    """(num/den)^e as an integer pair, not reduced; a negative e swaps it."""
    return (num**e, den**e) if e >= 0 else (den**-e, num**-e)


def lowest_terms(nums: Sequence[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """nums/den as numerators over a positive denominator d with gcd(d, *nums) = 1.

    `den` must be nonzero; a negative one flips every sign.
    """
    g = 1 if den == 1 else gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(c // g for c in nums), den // g
