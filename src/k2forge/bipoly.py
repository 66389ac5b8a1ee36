"""Sparse bivariate polynomials over Q, with their projective charts.

A BiPoly stores integer numerators ``nums``, a map from exponent pairs
(i, j) for x^i*y^j to nonzero ints, over one positive common
denominator ``den``, kept reduced (gcd(den, *nums) = 1); the zero
polynomial is the empty map over 1.  That pair is unique for given
coefficients, so equality and hashing stay structural but run on ints.
Every operation runs on the numerators: sums over the lcm of the two
denominators, products, powers, Taylor shifts, substitutions, partials,
and evaluation, which clears x = a/b and y = c/d once and sums
n * a^i * b^(dx-i) * c^j * d^(dy-j).  ``eval_x``, ``eval_y`` and
``as_poly_in`` hand integer numerators to ``UniPoly``, which keeps the
same form, and ``resultant`` runs its Sylvester determinant on integer
polynomials.  ``Fraction`` is built only at the edges: ``coeff``, the
read-only ``terms`` view, the values ``__call__`` and ``top_value``
return, and the text forms.

The projective closure needs no second type.  With d the total degree,
F^hom = sum n/den X^i Y^j Z^(d-i-j), so a chart is a map of exponents on
the same numerators: ``chart("Z")`` is F^hom(x, y, 1) = F, ``chart("Y")``
is F^hom(u, 1, w), exponent (i, d-i-j), and ``chart("X")`` is F^hom(1, v,
w), exponent (j, d-i-j).  ``top_value`` is F^hom(X, Y, 0), the top-degree
form at (X, Y).

The canonical text form sorts monomials by total degree (descending),
then y-degree (descending), prints x before y, and parenthesizes
fractional coefficients: "y^3 + (3/4)*x*y^2 - 2*x + 1/4".
``projective_canonical`` writes F^hom in X, Y, Z with the same term
rules, sorted by Y-degree, then X-degree, both descending.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .errors import PreconditionError
from .linalg import bareiss_det, sylvester_matrix
from .rationals import lowest_terms, pair_str, rat
from .unipoly import UniPoly

Term = Tuple[int, int]
IntTerms = Dict[Term, int]


def _cleared_powers(a: int, b: int, n: int) -> List[int]:
    """[a^i * b^(n-i) for i = 0..n]: the powers of a/b over b^n."""
    pa, pb = [1], [1]
    for _ in range(n):
        pa.append(pa[-1] * a)
        pb.append(pb[-1] * b)
    return [u * v for u, v in zip(pa, reversed(pb))]


def _mul_ints(a: IntTerms, b: IntTerms) -> IntTerms:
    out: IntTerms = {}
    for (i1, j1), u in a.items():
        for (i2, j2), v in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + u * v
    return out


class BiPoly:
    """Exact polynomial in x and y: integer numerators over one denominator."""

    __slots__ = ("nums", "den", "total_degree", "_hash", "_canonical")

    def __init__(self, terms: Dict[Term, object] = None):
        cs = {k: rat(v) for k, v in (terms or {}).items()}
        den = lcm(*(c.denominator for c in cs.values()))
        self._set({k: c.numerator * (den // c.denominator) for k, c in cs.items()}, den)

    def _set(self, nums: IntTerms, den: int):
        """Store nums/den reduced, without zero numerators; den > 0."""
        keys = [k for k, v in nums.items() if v]
        vals, self.den = lowest_terms([nums[k] for k in keys], den)
        self.nums = nums = dict(zip(keys, vals))
        # total_degree is max i + j over the stored terms; -1 for zero
        self.total_degree = max((i + j for i, j in nums), default=-1)
        self._hash = self._canonical = None

    # -- constructors --------------------------------------------------
    @staticmethod
    def from_ints(nums: IntTerms, den: int = 1) -> "BiPoly":
        """sum nums[(i, j)]/den x^i y^j, reduced; den > 0."""
        p = BiPoly.__new__(BiPoly)
        p._set(nums, den)
        return p

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(c) -> "BiPoly":
        c = rat(c)
        return BiPoly.from_ints({(0, 0): c.numerator}, c.denominator)

    @staticmethod
    def x(power: int = 1) -> "BiPoly":
        return BiPoly.from_ints({(power, 0): 1})

    @staticmethod
    def y(power: int = 1) -> "BiPoly":
        return BiPoly.from_ints({(0, power): 1})

    @staticmethod
    def from_unipoly(p: UniPoly) -> "BiPoly":
        return BiPoly.from_ints({(e, 0): c for e, c in enumerate(p.nums)}, p.den)

    @staticmethod
    def product(factors: Iterable[Tuple["BiPoly", int]]) -> "BiPoly":
        """prod p^e over (p, e) pairs, e >= 0, formed without a factor 1."""
        powers = [p**e for p, e in factors]
        return reduce(BiPoly.__mul__, powers) if powers else BiPoly.const(1)

    @staticmethod
    def line(u, v, w) -> "BiPoly":
        """u*x + v*y + w."""
        return BiPoly({(1, 0): rat(u), (0, 1): rat(v), (0, 0): rat(w)})

    # -- structure ------------------------------------------------------
    def coeff(self, i: int, j: int) -> Fraction:
        """The coefficient of x^i*y^j."""
        return Fraction(self.nums.get((i, j), 0), self.den)

    @property
    def terms(self) -> Mapping[Term, Fraction]:
        """The nonzero coefficients as Fractions (a read-only copy)."""
        return MappingProxyType({k: Fraction(v, self.den) for k, v in self.nums.items()})

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        elif not isinstance(other, BiPoly):
            return NotImplemented
        if self._hash is not None and other._hash is not None and self._hash != other._hash:
            return False
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        # nums and den are set only in _set, so the hash never goes stale
        if self._hash is None:
            self._hash = hash((self.den, frozenset(self.nums.items())))
        return self._hash

    def primitive_key(self) -> frozenset:
        """The numerators over their content, signed so that the term of
        largest exponent pair is positive: one key for all nonzero rational
        multiples of a polynomial."""
        c = gcd(*self.nums.values())
        c = -c if self.nums[max(self.nums)] < 0 else c
        return frozenset((k, v // c) for k, v in self.nums.items())

    def degree_in(self, var: str) -> int:
        idx = 0 if var == "x" else 1
        return max((k[idx] for k in self.nums), default=-1)

    # -- arithmetic -----------------------------------------------------
    def _combine(self, other, sign: int) -> "BiPoly":
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {k: v * fa for k, v in self.nums.items()}
        for k, v in other.nums.items():
            out[k] = out.get(k, 0) + v * fb
        return BiPoly.from_ints(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return BiPoly.from_ints({k: -v for k, v in self.nums.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return BiPoly.from_ints({k: v * q.numerator for k, v in self.nums.items()},
                                    self.den * q.denominator)
        other = self._coerce(other)
        return BiPoly.from_ints(_mul_ints(self.nums, other.nums), self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power of a polynomial")
        result = self if n else BiPoly.const(1)
        for bit in bin(n)[3:]:  # left to right, after the leading 1
            result = result * result
            if bit == "1":
                result = result * self
        return result

    @staticmethod
    def _coerce(v) -> "BiPoly":
        if isinstance(v, BiPoly):
            return v
        if isinstance(v, (int, Fraction)):
            return BiPoly.const(v)
        if isinstance(v, UniPoly):
            return BiPoly.from_unipoly(v)
        raise TypeError(f"cannot coerce {v!r} to BiPoly")

    # -- evaluation / substitution ---------------------------------------
    def __call__(self, x, y) -> Fraction:
        x, y = rat(x), rat(y)
        if not x and not y:
            return self.coeff(0, 0)
        dx, dy = max(self.degree_in("x"), 0), max(self.degree_in("y"), 0)
        xs = _cleared_powers(x.numerator, x.denominator, dx)
        ys = _cleared_powers(y.numerator, y.denominator, dy)
        total = sum(c * xs[i] * ys[j] for (i, j), c in self.nums.items())
        return Fraction(total, self.den * x.denominator**dx * y.denominator**dy)

    def _section(self, axis: int, value) -> UniPoly:
        """Set the variable `axis` (0 for x, 1 for y) to value: a UniPoly in the other."""
        v = rat(value)
        n = max(self.degree_in("xy"[axis]), 0)
        ps = _cleared_powers(v.numerator, v.denominator, n)
        out: Dict[int, int] = {}
        for k, c in self.nums.items():
            e = k[1 - axis]
            out[e] = out.get(e, 0) + c * ps[k[axis]]
        return UniPoly.from_ints([out.get(e, 0) for e in range(max(out, default=-1) + 1)],
                                 self.den * v.denominator**n)

    def eval_x(self, x0) -> UniPoly:
        """Specialize x: returns a UniPoly in y."""
        return self._section(0, x0)

    def eval_y(self, y0) -> UniPoly:
        """Specialize y: returns a UniPoly in x."""
        return self._section(1, y0)

    def substitute(self, x_image: "BiPoly", y_image: "BiPoly") -> "BiPoly":
        """Image under (x, y) -> (x_image, y_image).

        With x_image = X/p and y_image = Y/q on integer numerators, the
        term n*x^i*y^j/den is n * X^i * Y^j * p^(dx-i) * q^(dy-j) over the
        common denominator den * p^dx * q^dy.
        """
        dx, dy = self.degree_in("x"), self.degree_in("y")
        pows = []
        for img, d in ((x_image, dx), (y_image, dy)):
            pw = [{(0, 0): 1}]
            for _ in range(d):
                pw.append(_mul_ints(pw[-1], img.nums))
            pows.append((pw, _cleared_powers(1, img.den, d)))
        (xp, xs), (yp, ys) = pows
        out: IntTerms = {}
        for (i, j), c in self.nums.items():
            for k, v in _mul_ints(xp[i], yp[j]).items():
                out[k] = out.get(k, 0) + c * xs[i] * ys[j] * v
        return BiPoly.from_ints(out, self.den * xs[0] * ys[0])

    def shift(self, x0, y0) -> "BiPoly":
        """f(x + x0, y + y0): one Taylor shift per variable on integer numerators.

        Shifting x by p/q uses the rows (p + q*x)^i * q^(d - i), d the
        x-degree, which are (x + p/q)^i over the common denominator q^d.
        """
        if not self.nums or (x0 == 0 and y0 == 0):
            return self
        acc, den = self.nums, self.den
        for axis, a in enumerate((rat(x0), rat(y0))):
            if a == 0:
                continue
            p, q = a.numerator, a.denominator
            d = max(k[axis] for k in acc)
            rows = [[1]]  # (p + q*x)^i
            for _ in range(d):
                r = rows[-1]
                rows.append([p * u + q * v for u, v in zip(r + [0], [0] + r)])
            rows = [[c * q ** (d - i) for c in r] for i, r in enumerate(rows)]
            out: IntTerms = {}
            for (i, j), c in acc.items():
                for e, v in enumerate(rows[(i, j)[axis]]):
                    k = (e, j) if axis == 0 else (i, e)
                    out[k] = out.get(k, 0) + c * v
            acc = out
            den *= q**d
        return BiPoly.from_ints(acc, den)

    def partial(self, var: str) -> "BiPoly":
        idx = 0 if var == "x" else 1
        out: IntTerms = {}
        for (i, j), c in self.nums.items():
            e = (i, j)[idx]
            if e:
                out[(i - 1, j) if idx == 0 else (i, j - 1)] = c * e
        return BiPoly.from_ints(out, self.den)

    # -- polynomial-in-one-variable views ----------------------------------
    def rows_in(self, var: str) -> List[List[int]]:
        """Integer coefficient rows in `var`, all over ``den``.

        Row e lists the numerators of the coefficient of var^e, from the
        constant term of the other variable up to its last nonzero one.
        """
        main = 1 if var == "y" else 0
        rows: List[List[int]] = [[] for _ in range(self.degree_in(var) + 1)]
        for k, c in self.nums.items():
            row, e = rows[k[main]], k[1 - main]
            if len(row) <= e:
                row.extend([0] * (e + 1 - len(row)))
            row[e] = c
        return rows

    def as_poly_in(self, var: str) -> List[UniPoly]:
        """Coefficient list in `var`, entries UniPoly in the other variable."""
        return [UniPoly.from_ints(row, self.den) for row in self.rows_in(var)]

    # -- elimination -------------------------------------------------------
    def resultant(self, other: "BiPoly", eliminate: str) -> UniPoly:
        """Resultant w.r.t. the named variable; result lives in the other one.

        The Sylvester matrix of the integer rows, entries UniPoly with
        denominator 1, evaluated by fraction-free Bareiss elimination, which
        divides exactly in Z[x] at every step.  Res is homogeneous of degree
        n in self and m in other, so the result is that determinant over
        den_self^n * den_other^m.
        """
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            raise PreconditionError("resultant of the zero polynomial")
        a = [UniPoly.from_ints(row) for row in self.rows_in(eliminate)]
        b = [UniPoly.from_ints(row) for row in other.rows_in(eliminate)]
        m, n = len(a) - 1, len(b) - 1
        if m <= 0 and n <= 0:
            raise PreconditionError("nothing to eliminate")
        det = bareiss_det(sylvester_matrix(a, b, UniPoly.zero()), exact_div=UniPoly.exact_div)
        return det * Fraction(1, self.den**n * other.den**m)

    def divides(self, other: "BiPoly") -> bool:
        """Exact divisibility self | other, by long division in y over Q[x].

        Each step's quotient coefficient must divide exactly in Q[x]: when
        self divides other, the leading y-coefficient of what is left is
        lc_y(self) times that of the remaining quotient.
        """
        if self.is_zero() or other.is_zero():
            return other.is_zero()
        b = self.as_poly_in("y")
        rem = other.as_poly_in("y")
        for k in range(len(rem) - len(b), -1, -1):
            f, r = rem[k + len(b) - 1].divmod(b[-1])
            if not r.is_zero():
                return False
            for i, c in enumerate(b):
                rem[k + i] = rem[k + i] - f * c
        return all(r.is_zero() for r in rem[: len(b) - 1])

    # -- projective ----------------------------------------------------------
    def chart(self, name: str) -> "BiPoly":
        """F^hom in the chart Z=1, which is F itself, Y=1, as (u, w) = (X, Z),
        or X=1, as (v, w) = (Y, Z)."""
        if name == "Z":
            return self
        d, first = self.total_degree, 0 if name == "Y" else 1
        return BiPoly.from_ints({(k[first], d - k[0] - k[1]): c for k, c in self.nums.items()},
                                self.den)

    def top_value(self, X, Y) -> Fraction:
        """F^hom(X, Y, 0): the top-degree form at (X, Y)."""
        X, Y, d = rat(X), rat(Y), self.total_degree
        if d < 0:
            return Fraction(0)
        xs = _cleared_powers(X.numerator, X.denominator, d)
        ys = _cleared_powers(Y.numerator, Y.denominator, d)
        total = sum(c * xs[i] * ys[j] for (i, j), c in self.nums.items() if i + j == d)
        return Fraction(total, self.den * (X.denominator * Y.denominator) ** d)

    # -- text form -------------------------------------------------------------
    def canonical(self) -> str:
        """The text form in x and y (see the module docstring), memoized
        like the hash."""
        if self._canonical is None:
            keys = sorted(self.nums, key=lambda k: (-(k[0] + k[1]), -k[1]))
            self._canonical = _signed_sum([(self.nums[i, j], _monomial(("x", i), ("y", j)))
                                           for i, j in keys], self.den)
        return self._canonical

    def projective_canonical(self) -> str:
        """F^hom in X, Y, Z, with "1" for the constant monomial."""
        d = self.total_degree
        keys = sorted(self.nums, key=lambda k: (-k[1], -k[0]))
        return _signed_sum([(self.nums[i, j],
                             _monomial(("X", i), ("Y", j), ("Z", d - i - j)) or "1")
                            for i, j in keys], self.den)

    @staticmethod
    def parse(text: str) -> "BiPoly":
        """Inverse of canonical(); tolerant about whitespace.

        A term is a product of rationals, each optionally in parentheses,
        and powers x^e, y^e with e a non-negative integer.  Any other
        term raises PreconditionError naming it.
        """
        s = text.replace(" ", "")
        if s in ("", "0"):
            return BiPoly.zero()
        # split into signed terms
        terms: Dict[Term, Fraction] = {}
        i, n = 0, len(s)
        sign = 1
        if s[0] in "+-":
            sign = -1 if s[0] == "-" else 1
            i = 1
        start = i
        chunks: List[Tuple[int, str]] = []
        depth = 0
        while i <= n:
            if i == n or (s[i] in "+-" and depth == 0 and s[i - 1] not in "*^/("):
                chunks.append((sign, s[start:i]))
                if i < n:
                    sign = -1 if s[i] == "-" else 1
                    start = i + 1
            elif s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
            i += 1
        for sgn, chunk in chunks:
            bad = PreconditionError(f"malformed term {chunk!r} in polynomial {text!r}")
            if not chunk:
                raise bad
            coeff = Fraction(sgn)
            ex = ey = 0
            for factor in chunk.split("*"):
                f = factor[1:-1] if factor[:1] == "(" and factor[-1:] == ")" else factor
                name, caret, exp = f.partition("^")
                if name in ("x", "y") and (not caret or exp.isascii() and exp.isdigit()):
                    e = int(exp) if caret else 1
                    if name == "x":
                        ex += e
                    else:
                        ey += e
                    continue
                try:
                    coeff *= Fraction(f)
                except (ValueError, ZeroDivisionError):
                    raise bad from None
            terms[(ex, ey)] = terms.get((ex, ey), Fraction(0)) + coeff
        return BiPoly(terms)

    def __repr__(self):
        return f"BiPoly({self.canonical()})"


def _monomial(*powers: Tuple[str, int]) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers if e)


def _signed_sum(terms: List[Tuple[int, str]], den: int) -> str:
    """n1/den*m1 + n2/den*m2 - ...: each coefficient is written in lowest
    terms (one gcd per term); an empty monomial prints the bare coefficient,
    a unit coefficient is left out and a fractional one is parenthesized."""
    if not terms:
        return "0"
    parts = []
    for n, mono in terms:
        g = gcd(n, den)
        a, d = abs(n) // g, den // g
        cs = pair_str(a, d)
        if not mono:
            body = cs
        elif a == d:
            body = mono
        else:
            body = (f"({cs})*" if d != 1 else f"{cs}*") + mono
        parts.append(("- " if n < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]
