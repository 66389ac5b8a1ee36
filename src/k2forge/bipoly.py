"""Sparse bivariate (and ternary homogeneous) polynomials over Q.

BiPoly maps exponent pairs (i, j) for x^i*y^j to nonzero Fractions; the
zero polynomial is the empty map.  TriPoly is the homogeneous companion
used for projective charts, transforms and smoothness checks.

The canonical text form sorts monomials by total degree (descending),
then y-degree (descending), prints x before y, and parenthesizes
fractional coefficients: "y^3 + (3/4)*x*y^2 - 2*x + 1/4".
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, List, Sequence, Tuple

from .errors import PreconditionError
from .linalg import bareiss_det
from .rationals import rat, rat_str
from .unipoly import UniPoly

Term = Tuple[int, int]


def _norm(terms: Dict[Term, Fraction]) -> Dict[Term, Fraction]:
    return {k: v for k, v in terms.items() if v != 0}


class BiPoly:
    """Exact polynomial in x and y."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Dict[Term, object] = None):
        self.terms = _norm({k: rat(v) for k, v in (terms or {}).items()})
        self._hash = None

    # -- constructors --------------------------------------------------
    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(c) -> "BiPoly":
        return BiPoly({(0, 0): rat(c)})

    @staticmethod
    def x(power: int = 1) -> "BiPoly":
        return BiPoly({(power, 0): 1})

    @staticmethod
    def y(power: int = 1) -> "BiPoly":
        return BiPoly({(0, power): 1})

    @staticmethod
    def from_unipoly(p: UniPoly, var: str = "x") -> "BiPoly":
        if var == "x":
            return BiPoly({(i, 0): c for i, c in enumerate(p.coeffs)})
        return BiPoly({(0, i): c for i, c in enumerate(p.coeffs)})

    @staticmethod
    def line(u, v, w) -> "BiPoly":
        """u*x + v*y + w."""
        return BiPoly({(1, 0): rat(u), (0, 1): rat(v), (0, 0): rat(w)})

    # -- structure ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == BiPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        # terms is assigned only in __init__, so the hash never goes stale
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    @property
    def total_degree(self) -> int:
        """Max i + j over stored terms; -1 for the zero polynomial."""
        return max((i + j for i, j in self.terms), default=-1)

    def degree_in(self, var: str) -> int:
        idx = 0 if var == "x" else 1
        return max((k[idx] for k in self.terms), default=-1)

    # -- arithmetic -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return BiPoly(out)

    def __sub__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) - v
        return BiPoly(out)

    def __neg__(self):
        return BiPoly({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return BiPoly({k: v * q for k, v in self.terms.items()})
        other = self._coerce(other)
        (na, da), (nb, db) = _numerators(self), _numerators(other)
        out: Dict[Term, int] = {}
        for (i1, j1), a in na.items():
            for (i2, j2), b in nb.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + a * b
        return BiPoly({k: Fraction(v, da * db) for k, v in out.items() if v})

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise PreconditionError("negative power of a polynomial")
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
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
        xp = {0: Fraction(1)}
        yp = {0: Fraction(1)}
        acc = Fraction(0)
        for (i, j), c in self.terms.items():
            if i not in xp:
                v = xp[max(xp)]
                for k in range(max(xp) + 1, i + 1):
                    v = v * x
                    xp[k] = v
            if j not in yp:
                v = yp[max(yp)]
                for k in range(max(yp) + 1, j + 1):
                    v = v * y
                    yp[k] = v
            acc += c * xp[i] * yp[j]
        return acc

    def eval_x(self, x0) -> UniPoly:
        """Specialize x: returns a UniPoly in y."""
        x0 = rat(x0)
        out: Dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[j] = out.get(j, Fraction(0)) + c * x0**i
        deg = max(out, default=-1)
        return UniPoly([out.get(k, Fraction(0)) for k in range(deg + 1)])

    def eval_y(self, y0) -> UniPoly:
        """Specialize y: returns a UniPoly in x."""
        y0 = rat(y0)
        if y0 == 0:
            return self.restriction_y0()
        out: Dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            out[i] = out.get(i, Fraction(0)) + c * y0**j
        deg = max(out, default=-1)
        return UniPoly([out.get(k, Fraction(0)) for k in range(deg + 1)])

    def restriction_y0(self) -> UniPoly:
        """The y=0 restriction (no arithmetic: keeps the j=0 terms)."""
        out = {i: c for (i, j), c in self.terms.items() if j == 0}
        deg = max(out, default=-1)
        return UniPoly([out.get(k, Fraction(0)) for k in range(deg + 1)])

    def substitute(self, x_image: "BiPoly", y_image: "BiPoly") -> "BiPoly":
        """Image under (x, y) -> (x_image, y_image)."""
        xi = sorted({i for i, _ in self.terms})
        yj = sorted({j for _, j in self.terms})
        xpow = {0: BiPoly.const(1)}
        for k in range(1, (xi[-1] if xi else 0) + 1):
            xpow[k] = xpow[k - 1] * x_image
        ypow = {0: BiPoly.const(1)}
        for k in range(1, (yj[-1] if yj else 0) + 1):
            ypow[k] = ypow[k - 1] * y_image
        acc = BiPoly.zero()
        for (i, j), c in self.terms.items():
            acc = acc + xpow[i] * ypow[j] * c
        return acc

    def shift(self, x0, y0) -> "BiPoly":
        """f(x + x0, y + y0): one Taylor shift per variable on integer numerators.

        Shifting x by p/q uses the rows (p + q*x)^i * q^(d - i), d the
        x-degree, which are (x + p/q)^i over the common denominator q^d.
        """
        if not self.terms:
            return self
        acc, den = _numerators(self)
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
            out: Dict[Term, int] = {}
            for (i, j), c in acc.items():
                for e, v in enumerate(rows[(i, j)[axis]]):
                    k = (e, j) if axis == 0 else (i, e)
                    out[k] = out.get(k, 0) + c * v
            acc = out
            den *= q**d
        return BiPoly({k: Fraction(v, den) for k, v in acc.items() if v})

    def partial(self, var: str) -> "BiPoly":
        idx = 0 if var == "x" else 1
        out: Dict[Term, Fraction] = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[idx]
            if e:
                k = (i - 1, j) if idx == 0 else (i, j - 1)
                out[k] = out.get(k, Fraction(0)) + c * e
        return BiPoly(out)

    # -- polynomial-in-one-variable views ----------------------------------
    def as_poly_in(self, var: str) -> List[UniPoly]:
        """Coefficient list in `var`, entries UniPoly in the other variable."""
        main = 1 if var == "y" else 0
        deg = self.degree_in(var)
        buckets: List[Dict[int, Fraction]] = [dict() for _ in range(deg + 1)]
        for (i, j), c in self.terms.items():
            e_main = (i, j)[main]
            e_other = (i, j)[1 - main]
            buckets[e_main][e_other] = c
        out = []
        for b in buckets:
            d = max(b, default=-1)
            out.append(UniPoly([b.get(k, Fraction(0)) for k in range(d + 1)]))
        return out

    @staticmethod
    def from_poly_in(coeffs: Sequence[UniPoly], var: str) -> "BiPoly":
        out: Dict[Term, Fraction] = {}
        for e_main, p in enumerate(coeffs):
            for e_other, c in enumerate(p.coeffs):
                key = (e_other, e_main) if var == "y" else (e_main, e_other)
                if c:
                    out[key] = c
        return BiPoly(out)

    # -- elimination -------------------------------------------------------
    def resultant(self, other: "BiPoly", eliminate: str) -> UniPoly:
        """Resultant w.r.t. the named variable; result lives in the other one.

        Sylvester matrix with UniPoly entries, evaluated by fraction-free
        Bareiss elimination (exact at every step).
        """
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            raise PreconditionError("resultant of the zero polynomial")
        a = self.as_poly_in(eliminate)
        b = other.as_poly_in(eliminate)
        m, n = len(a) - 1, len(b) - 1
        if m <= 0 and n <= 0:
            raise PreconditionError("nothing to eliminate")
        if m < 0 or n < 0:
            return UniPoly.zero()
        size = m + n
        if size == 0:
            return UniPoly.const(1)
        zero = UniPoly.zero()
        rows = []
        for i in range(n):
            row = [zero] * size
            for j, c in enumerate(reversed(a)):
                row[i + j] = c
            rows.append(row)
        for i in range(m):
            row = [zero] * size
            for j, c in enumerate(reversed(b)):
                row[i + j] = c
            rows.append(row)
        det = bareiss_det(rows, exact_div=lambda p, q: p.exact_div(q))
        return det

    def divides(self, other: "BiPoly") -> bool:
        """Exact divisibility self | other (used with curve polynomials monic in y)."""
        if self.is_zero():
            return other.is_zero()
        if other.is_zero():
            return True
        q, r = _pseudo_divmod_y(other, self)
        return q is not None and r.is_zero()

    # -- projective ----------------------------------------------------------
    def homogenize(self, degree: int = None) -> "TriPoly":
        d = self.total_degree if degree is None else degree
        if d < self.total_degree:
            raise PreconditionError("homogenization degree below total degree")
        return TriPoly({(i, j, d - i - j): c for (i, j), c in self.terms.items()})

    # -- text form -------------------------------------------------------------
    def canonical(self, xname: str = "x", yname: str = "y") -> str:
        if self.is_zero():
            return "0"
        keys = sorted(self.terms, key=lambda k: (-(k[0] + k[1]), -k[1]))
        parts = []
        for i, j in keys:
            c = self.terms[(i, j)]
            factors = []
            if i:
                factors.append(xname if i == 1 else f"{xname}^{i}")
            if j:
                factors.append(yname if j == 1 else f"{yname}^{j}")
            mono = "*".join(factors)
            a = abs(c)
            if not mono:
                body = rat_str(a)
            elif a == 1:
                body = mono
            else:
                cs = rat_str(a)
                body = (f"({cs})*" if a.denominator != 1 else f"{cs}*") + mono
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    @staticmethod
    def parse(text: str, xname: str = "x", yname: str = "y") -> "BiPoly":
        """Inverse of canonical(); tolerant about whitespace.

        A term is a product of rationals, each optionally in parentheses,
        and powers xname^e, yname^e with e a non-negative integer.  Any
        other term raises PreconditionError naming it.
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
                if name in (xname, yname) and (not caret or exp.isascii() and exp.isdigit()):
                    e = int(exp) if caret else 1
                    if name == xname:
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


def _numerators(p: BiPoly) -> Tuple[Dict[Term, int], int]:
    """p's integer numerators over the lcm of its denominators, and that lcm."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in p.terms.items()}, den


def _pseudo_divmod_y(num: BiPoly, den: BiPoly):
    """Division of num by den as polynomials in y over Q[x].

    Returns (quotient, remainder) when den's leading y-coefficient is a
    nonzero constant (all curve models used here are monic in y), else
    (None, num) unless division happens to proceed exactly.
    """
    a = num.as_poly_in("y")
    b = den.as_poly_in("y")
    db = len(b) - 1
    if db < 0:
        raise ZeroDivisionError("division by zero polynomial")
    lead = b[-1]
    if lead.degree > 0:
        return None, num
    lc = lead.coeffs[0]
    q: Dict[int, UniPoly] = {}
    rem = list(a)
    while len(rem) - 1 >= db:
        while rem and rem[-1].is_zero():
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        f = rem[-1] * (1 / lc)
        q[k] = f
        for i in range(db + 1):
            rem[k + i] = rem[k + i] - f * b[i]
        rem.pop()
    qc = [q.get(k, UniPoly.zero()) for k in range(max(q, default=-1) + 1)]
    return (
        BiPoly.from_poly_in(qc, "y"),
        BiPoly.from_poly_in(rem, "y"),
    )


class TriPoly:
    """Homogeneous ternary polynomial in X, Y, Z over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, int, int], object] = None):
        self.terms = {k: rat(v) for k, v in (terms or {}).items() if rat(v) != 0}
        degs = {sum(k) for k in self.terms}
        if len(degs) > 1:
            raise PreconditionError("TriPoly must be homogeneous")

    @property
    def degree(self) -> int:
        return next((sum(k) for k in self.terms), -1)

    def is_zero(self) -> bool:
        return not self.terms

    def __call__(self, X, Y, Z) -> Fraction:
        X, Y, Z = rat(X), rat(Y), rat(Z)
        return sum((c * X**i * Y**j * Z**k for (i, j, k), c in self.terms.items()), Fraction(0))

    def partial(self, var: str) -> "TriPoly":
        idx = {"X": 0, "Y": 1, "Z": 2}[var]
        out: Dict[Tuple[int, int, int], Fraction] = {}
        for key, c in self.terms.items():
            e = key[idx]
            if e:
                nk = list(key)
                nk[idx] -= 1
                out[tuple(nk)] = out.get(tuple(nk), Fraction(0)) + c * e
        return TriPoly(out)

    def dehomogenize(self, chart: str) -> BiPoly:
        """Set one coordinate to 1.

        chart "Z": (x, y) = (X, Y); chart "Y": (u, w) = (X, Z);
        chart "X": (v, w) = (Y, Z).
        """
        pick = {"Z": (0, 1), "Y": (0, 2), "X": (1, 2)}[chart]
        out: Dict[Term, Fraction] = {}
        for key, c in self.terms.items():
            k = (key[pick[0]], key[pick[1]])
            out[k] = out.get(k, Fraction(0)) + c
        return BiPoly(out)

    def substitute_linear(self, m: Sequence[Sequence]) -> "TriPoly":
        """Apply (X,Y,Z) -> M*(X,Y,Z) with a 3x3 exact matrix M."""
        mrat = [[rat(v) for v in row] for row in m]
        lin = [
            TriPoly({(1, 0, 0): mrat[r][0], (0, 1, 0): mrat[r][1], (0, 0, 1): mrat[r][2]})
            for r in range(3)
        ]
        acc: Dict[Tuple[int, int, int], Fraction] = {}
        for (i, j, k), c in self.terms.items():
            part = _tri_mul(_tri_pow(lin[0], i), _tri_mul(_tri_pow(lin[1], j), _tri_pow(lin[2], k)))
            for key, v in part.terms.items():
                acc[key] = acc.get(key, Fraction(0)) + c * v
        return TriPoly(acc)

    def scaled(self, c) -> "TriPoly":
        c = rat(c)
        return TriPoly({k: v * c for k, v in self.terms.items()})

    def canonical(self) -> str:
        if self.is_zero():
            return "0"
        keys = sorted(self.terms, key=lambda k: (-k[1], -k[0]))
        parts = []
        for key in keys:
            c = self.terms[key]
            factors = []
            for name, e in zip(("X", "Y", "Z"), key):
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors) or "1"
            a = abs(c)
            body = mono if a == 1 else (f"({rat_str(a)})*" if a.denominator != 1 else f"{rat_str(a)}*") + mono
            parts.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self):
        return f"TriPoly({self.canonical()})"


def _tri_mul(a: TriPoly, b: TriPoly) -> TriPoly:
    out: Dict[Tuple[int, int, int], Fraction] = {}
    for k1, v1 in a.terms.items():
        for k2, v2 in b.terms.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            out[k] = out.get(k, Fraction(0)) + v1 * v2
    return TriPoly(out)


def _tri_pow(a: TriPoly, n: int) -> TriPoly:
    result = TriPoly({(0, 0, 0): 1})
    base = a
    while n:
        if n & 1:
            result = _tri_mul(result, base)
        base = _tri_mul(base, base)
        n >>= 1
    return result
