"""Curve records: the serializable bundle a family generator returns.

A record carries the curve, named marked points, the constructed K2
elements (torsion triples keep all three symbols S_i plus their orders),
their verification certificates, integrality flags and the auxiliary
lines/conics used, all with exact "p/q" rationals.  Records round-trip
through JSON; re-verification never trusts the stored certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, List, Optional, Tuple

from .bipoly import BiPoly
from .curves import CurvePoint, PlaneCurve
from .errors import PreconditionError, RecordFormatError
from .rationals import rat, rat_str
from .symbols import Certificate, FnElt, K2Element, SymbolPair

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

# The record format limit: the most a record's curve degree, a factor's
# total degree, an |exp| or a |coefficient| may be.  The squarefree test,
# Fulton's reduction, the series and powers take time that grows with
# these, so a record past the limit is malformed.  `gen` stays well inside
# it (at most degree 15, factor degree 2, |exp| 15 and |coefficient| 5),
# and hyperelliptic_curve refuses a degree past it.
RECORD_LIMIT = 64


@dataclass
class NamedElement:
    """One constructed element: a torsion triple (three symbols S_i with
    their orders) or a single symbol combination."""

    name: str
    kind: str  # "triple" | "combination"
    symbols: List[K2Element]
    certificates: List[Certificate]
    orders: Optional[List[int]] = None
    lcm: Optional[int] = None
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.certificates)


@dataclass
class CurveRecord:
    family_id: str
    params: Dict[str, object]
    curve: PlaneCurve
    model: dict
    points: Dict[str, CurvePoint]
    elements: List[NamedElement]
    integrality_flags: List[dict] = field(default_factory=list)
    aux_lines: List[dict] = field(default_factory=list)
    aux_conics: List[dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.elements)


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def param_jsonable(v):
    if isinstance(v, (int, Fraction)):
        return rat_str(rat(v))
    if isinstance(v, (list, tuple)):
        return [param_jsonable(x) for x in v]
    return str(v)


# ---------------------------------------------------------------------------
# reading stored JSON: every wrong shape is a RecordFormatError
# ---------------------------------------------------------------------------

_REQUIRED = object()


def json_object(d) -> dict:
    """d itself, which must be a JSON object."""
    if not isinstance(d, dict):
        raise RecordFormatError(f"expected a JSON object, got {type(d).__name__}")
    return d


def json_field(d, key: str, kind, default=_REQUIRED):
    """d[key], which must be of type `kind`; RecordFormatError for any other
    shape, a JSON boolean included: Python's bool is an int."""
    if key not in json_object(d):
        if default is _REQUIRED:
            raise RecordFormatError(f"missing key {key!r}")
        return default
    value = d[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise RecordFormatError(f"{key!r} has type {type(value).__name__}")
    return value


def _as_rat(key: str, value) -> Fraction:
    """value read as a "p/q" string or an integer, never a JSON boolean."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return rat(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise RecordFormatError(f"{key!r} is not a rational: {value!r}")


def rat_field(d, key: str, default=_REQUIRED) -> Fraction:
    return _as_rat(key, json_field(d, key, (str, int), default))


def int_field(d, key: str, default=_REQUIRED) -> int:
    value = json_field(d, key, (str, int), default)
    try:
        return int(value)
    except ValueError:
        raise RecordFormatError(f"{key!r} is not an integer: {value!r}") from None


def rats_field(d, key: str, n: int) -> List[Fraction]:
    """d[key] as a list of exactly n rationals."""
    values = json_field(d, key, list)
    if len(values) != n:
        raise RecordFormatError(f"{key!r} needs {n} values, has {len(values)}")
    return [_as_rat(key, v) for v in values]


def within_limit(what: str, value: int) -> int:
    """value, which must not exceed RECORD_LIMIT in absolute value."""
    if abs(value) > RECORD_LIMIT:
        raise RecordFormatError(
            f"{what} is {value}, past the record format limit of {RECORD_LIMIT}")
    return value


def poly_field(d, key: str) -> BiPoly:
    """d[key] parsed as a polynomial string."""
    return _parse_poly(key, json_field(d, key, str))


def _parse_poly(key: str, text: str) -> BiPoly:
    try:
        return BiPoly.parse(text)
    except PreconditionError as e:
        raise RecordFormatError(f"{key!r}: {e}") from None


def point_jsonable(p: CurvePoint) -> dict:
    if p.is_affine:
        return {"kind": "affine", "x": rat_str(p.x), "y": rat_str(p.y)}
    return {"kind": "infinity", "X": rat_str(p.x), "Y": rat_str(p.y), "Z": "0",
            "branch": p.branch}


def point_from_json(d: dict) -> CurvePoint:
    kind = json_field(d, "kind", str)
    if kind == "affine":
        return CurvePoint.affine(rat_field(d, "x"), rat_field(d, "y"))
    if kind != "infinity":
        raise RecordFormatError(f"'kind' is {kind!r}, not 'affine' or 'infinity'")
    if json_field(d, "Z", str) != "0":
        raise RecordFormatError(f"a point at infinity has 'Z': {d['Z']!r}, not '0'")
    return CurvePoint.at_infinity(rat_field(d, "X"), rat_field(d, "Y"),
                                  int_field(d, "branch", 0))


def _fnelt_writer() -> Callable[[FnElt], dict]:
    """The JSON of a function: its factored form (the exact working
    representation) plus readable num/den.  The texts are formed once per
    distinct (scalar, factors), equal only for equal functions, and each
    num/den product once per factor tuple, before the scalar is applied."""
    product = cache(BiPoly.product)

    @cache
    def texts(scalar: Fraction, factors) -> Tuple[str, str, str]:
        num = product(tuple((p, e) for p, e in factors if e > 0)) * scalar.numerator
        den = product(tuple((p, -e) for p, e in factors if e < 0)) * scalar.denominator
        return rat_str(scalar), num.canonical(), den.canonical()

    def write(f: FnElt) -> dict:
        scalar, num, den = texts(f.scalar, f.factors)
        return {"scalar": scalar, "factors": [{"poly": p.canonical(), "exp": e}
                                              for p, e in f.factors],
                "num": num, "den": den}
    return write


def _fnelt_from_json(curve: PlaneCurve, d: dict, factor: Callable[[str], BiPoly]) -> FnElt:
    """The function of d's "scalar" and "factors" (its "num" and "den" are
    not read); `factor` parses a factor's polynomial string."""
    scalar = rat_field(d, "scalar", "1")
    factors = []
    for fd in json_field(d, "factors", list):
        exp = within_limit("'exp'", int_field(fd, "exp"))
        factors.append((factor(json_field(fd, "poly", str)), exp))
    return FnElt(curve, scalar, factors)


def _factor_from_json(text: str) -> BiPoly:
    poly = _parse_poly("poly", text)
    within_limit("the degree of factor 'poly'", poly.total_degree)
    return poly


def _element_jsonable(e: NamedElement, fnelt: Callable[[FnElt], dict]) -> dict:
    return {
        "name": e.name,
        "kind": e.kind,
        "orders": e.orders,
        "lcm": e.lcm,
        "symbols": [
            {
                "pairs": [
                    {
                        "f": fnelt(p.f),
                        "h": fnelt(p.h),
                        "coefficient": p.coefficient,
                    }
                    for p in sym.terms
                ],
                "support": [point_jsonable(pt) for pt in sym.declared_support],
            }
            for sym in e.symbols
        ],
        "certificates": [c.to_jsonable() for c in e.certificates],
        "meta": {k: (rat_str(v) if isinstance(v, Fraction) else v)
                 for k, v in e.meta.items()},
    }


def record_jsonable(rec: CurveRecord) -> dict:
    fnelt = _fnelt_writer()
    return {
        "k2forge_schema": SCHEMA_VERSION,
        "family_id": rec.family_id,
        "params": {k: param_jsonable(v) for k, v in rec.params.items()},
        "curve": {
            "affine": rec.curve.canonical(),
            "projective": rec.curve.affine.projective_canonical(),
            "degree": rec.curve.degree,
            "model": rec.model,
        },
        "points": {name: point_jsonable(p) for name, p in rec.points.items()},
        "elements": [_element_jsonable(e, fnelt) for e in rec.elements],
        "integrality_flags": rec.integrality_flags,
        "aux": {"lines": rec.aux_lines, "conics": rec.aux_conics},
        "notes": rec.notes,
        "extras": rec.extras,
    }


def record_to_json(rec: CurveRecord) -> str:
    return json_text(record_jsonable(rec))


def json_text(v, nl: str = "\n") -> str:
    """json.dumps(v, indent=1), byte for byte, for the plain types a record
    holds; any other type is a TypeError.  json.dumps serves `indent` with
    its pure-Python encoder, so strings and keys go to the C string encoder
    here.  `nl` is a newline plus the indent of v's own line."""
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if t is dict or t is list or t is tuple:
        if not v:
            return "{}" if t is dict else "[]"
        inner = nl + " "
        if t is dict:
            items = [encode_basestring_ascii(k) + ": " + json_text(x, inner)
                     for k, x in v.items()]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        return "[" + inner + ("," + inner).join([json_text(x, inner) for x in v]) + nl + "]"
    if v is None or t is bool or t is float:
        return json.dumps(v)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# decoding (for re-verification)
# ---------------------------------------------------------------------------

@dataclass
class LoadedElement:
    name: str
    kind: str
    symbols: List[K2Element]
    stored_verdicts: List[str]


@dataclass
class LoadedRecord:
    family_id: str
    curve: PlaneCurve
    points: Dict[str, CurvePoint]
    elements: List[LoadedElement]


def _point_reader() -> Callable[[dict], CurvePoint]:
    """point_from_json, run once per distinct raw point.  The key holds each
    field's type, so that 1, 1.0 and true stay apart."""
    memo = cache(lambda key: point_from_json({k: v for k, _, v in key}))

    def read(d) -> CurvePoint:
        try:
            return memo(tuple((k, type(v), v) for k, v in json_object(d).items()))
        except TypeError:  # a field holds a list or an object
            return point_from_json(d)
    return read


def record_from_json(text: str) -> LoadedRecord:
    """Decode a stored record.  Raises RecordFormatError when the JSON does
    not have the record's shape, a value is past RECORD_LIMIT or a symbol
    repeats a support point,
    PreconditionError for an unsupported schema or a marked point off the
    stored curve.

    Each distinct factor string becomes one BiPoly, and each distinct raw
    point one CurvePoint, within this call."""
    data = json.loads(text)
    schema = json_object(data).get("k2forge_schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true == 1
        raise PreconditionError("unsupported record schema")
    curve_data = json_field(data, "curve", dict)
    affine = poly_field(curve_data, "affine")
    degree = within_limit("'degree'", json_field(curve_data, "degree", int))
    if degree != affine.total_degree:  # before PlaneCurve's squarefree test
        raise RecordFormatError(f"'degree' is {degree}, but the curve has degree "
                                f"{affine.total_degree}")
    curve = PlaneCurve(affine)
    factor = cache(_factor_from_json)
    read_point = _point_reader()
    points = {name: read_point(d) for name, d in json_field(data, "points", dict).items()}
    for name, p in points.items():
        if not curve.contains(p):
            raise PreconditionError(f"point {name} does not lie on the stored curve")
    elements = []
    for ed in json_field(data, "elements", list):
        name = json_field(ed, "name", str)
        symbols = []
        for k, sd in enumerate(json_field(ed, "symbols", list)):
            pairs = [
                SymbolPair(
                    _fnelt_from_json(curve, json_field(pd, "f", dict), factor),
                    _fnelt_from_json(curve, json_field(pd, "h", dict), factor),
                    within_limit("'coefficient'", int_field(pd, "coefficient")),
                )
                for pd in json_field(sd, "pairs", list)
            ]
            support = [read_point(pt) for pt in json_field(sd, "support", list)]
            if len(set(support)) < len(support):
                dup = next(p for i, p in enumerate(support) if p in support[:i])
                raise RecordFormatError(f"symbol {k} of element {name!r} lists the support "
                                        f"point {dup.label()} twice")
            symbols.append(K2Element(pairs, support, name=name))
        verdicts = [json_field(cd, "verdict", str) for cd in json_field(ed, "certificates", list)]
        elements.append(LoadedElement(name, json_field(ed, "kind", str), symbols, verdicts))
    return LoadedRecord(json_field(data, "family_id", str), curve, points, elements)


# ---------------------------------------------------------------------------
# catalog entries
# ---------------------------------------------------------------------------

def params_hash(family_id: str, params: Dict[str, object]) -> str:
    import hashlib  # only the catalog path hashes
    canon = json.dumps({"family": family_id,
                        "params": {k: param_jsonable(v) for k, v in sorted(params.items())}},
                       sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def catalog_entry_jsonable(rec: CurveRecord, created_at: str, input_hash: str) -> dict:
    """`input_hash` is the params_hash of the parameters the record was
    generated from; a catalog deduplicates on it."""
    return {
        "record": record_jsonable(rec),
        "created_at": created_at,
        "tool_version": TOOL_VERSION,
        "input_hash": input_hash,
    }
