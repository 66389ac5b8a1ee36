"""Span tracer that wraps k2forge's layer functions from outside the package.

Nothing under ``src/`` knows about it.  ``Tracer.installed()`` replaces each
layer function listed in ``LAYER_FUNCTIONS`` with a timing wrapper at every
place the function object is bound: module globals of every loaded
``k2forge`` module (so ``from .curves import fulton_multiplicity`` in
``symbols`` is caught too), class attributes (so the ``__rmul__ = __mul__``
alias is caught), and dict values in module globals (``cli.GENERATORS``).
The originals are put back when the ``with`` block ends.

Spans live in flat in-memory arrays (name, parent, start, end); metrics are
derived from them after the run.  A span's self time is its duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import operator
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Tuple
from weakref import WeakKeyDictionary

# Pre-call probes see the operands; post-call probes see the result.  Each
# returns a number that is summed (or maxed, for names ending in "_max")
# into the span's function counters.
Probe = Callable[[tuple, object], float]


def _mul_products(args: tuple, _res=None) -> int:
    """Coefficient products a truncated series product performs, computed
    from the operands' (val, coeffs, prec) the way a schoolbook product
    truncated at the smaller precision does them."""
    a, b = args[0], args[1]
    if isinstance(b, (int, Fraction)):
        return len(a.coeffs)
    if not a.coeffs or not b.coeffs:
        return 0
    n = min(a.prec + b.val, b.prec + a.val) - (a.val + b.val)
    lb = len(b.coeffs)
    return sum(min(lb, n - i) for i, c in enumerate(a.coeffs) if c and i < n)


@dataclass(frozen=True)
class LayerFunction:
    name: str           # metric prefix, e.g. "unipoly.rational_roots"
    layer: str          # "L0" .. "L4"
    module: str         # defining module, relative to k2forge
    attr: str           # dotted attribute path inside that module
    pre: Tuple[Tuple[str, Probe], ...] = ()
    post: Tuple[Tuple[str, Probe], ...] = ()


LAYER_FUNCTIONS: Tuple[LayerFunction, ...] = (
    LayerFunction("unipoly.rational_roots", "L0", "unipoly", "UniPoly.rational_roots",
                  post=(("roots", lambda a, r: len(r)),)),
    LayerFunction("unipoly.resultant", "L0", "unipoly", "UniPoly.resultant"),
    LayerFunction("bipoly.resultant", "L0", "bipoly", "BiPoly.resultant"),
    LayerFunction("linalg.bareiss_det", "L0", "linalg", "bareiss_det",
                  pre=(("entries", lambda a, r: len(a[0]) ** 2),)),
    LayerFunction("curves.smoothness_check", "L1", "curves", "smoothness_check",
                  post=(("singular", lambda a, r: 0 if r.smooth else 1),)),
    LayerFunction("curves.macaulay_nonzero", "L1", "curves", "macaulay_nonzero"),
    LayerFunction("curves.rational_common_zeros", "L1", "curves", "rational_common_zeros",
                  post=(("points", lambda a, r: len(r or ())),)),
    LayerFunction("curves.intersection_multiplicity", "L1", "curves",
                  "intersection_multiplicity"),
    LayerFunction("curves.fulton_multiplicity", "L1", "curves", "fulton_multiplicity"),
    LayerFunction("branches.branches_at_infinity", "L2", "branches", "branches_at_infinity",
                  post=(("places", lambda a, r: len(r)),)),
    LayerFunction("branches.branch_at_affine", "L2", "branches", "branch_at_affine"),
    LayerFunction("branches.Branch.xy", "L2", "branches", "Branch.xy",
                  pre=(("prec_max", lambda a, r: a[1]),)),
    LayerFunction("series.PowerSeries.mul", "L2", "series", "PowerSeries.__mul__",
                  pre=(("coeff_products", _mul_products),)),
    LayerFunction("series.PowerSeries.invert", "L2", "series", "PowerSeries.invert"),
    LayerFunction("symbols.SymbolEngine.val_lead", "L3", "symbols", "SymbolEngine.val_lead"),
    LayerFunction("symbols.SymbolEngine.ord_poly", "L3", "symbols", "SymbolEngine.ord_poly"),
    LayerFunction("symbols.SymbolEngine.tame", "L3", "symbols", "SymbolEngine.tame"),
    LayerFunction("symbols.SymbolEngine.support_candidates", "L3", "symbols",
                  "SymbolEngine.support_candidates"),
    LayerFunction("symbols.verify_k2t", "L3", "symbols", "verify_k2t"),
    LayerFunction("symbols.steinberg_values", "L3", "symbols", "steinberg_values"),
    LayerFunction("symbols.construction_torsion", "L3", "symbols", "construction_torsion"),
    LayerFunction("symbols.nekovar_element", "L3", "symbols", "nekovar_element"),
    LayerFunction("records.record_to_json", "L4", "records", "record_to_json"),
    LayerFunction("records.record_from_json", "L4", "records", "record_from_json"),
    LayerFunction("cli.main", "L4", "cli", "main"),
)
# Every value of families.GENERATORS is wrapped under this one name.
GENERATORS_NAME = "families.generators"
OP_NAME = "bench.op"
LAYERS = ("L0", "L1", "L2", "L3", "L4")


def function_layers() -> Dict[str, str]:
    out = {f.name: f.layer for f in LAYER_FUNCTIONS}
    out[GENERATORS_NAME] = "L4"
    return out


def _resolve(root, dotted: str):
    obj = root
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _k2forge_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "k2forge" or name.startswith("k2forge."))]


class Tracer:
    """In-memory span recorder plus the patching that feeds it."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: Dict[str, Dict[str, float]] = {}
        self.val_lead_repeats = 0
        self._val_lead_seen: "WeakKeyDictionary[object, set]" = WeakKeyDictionary()

    # -- recording ------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, *args):
        i = self.open(self.name_id(name))
        try:
            return fn(*args)
        finally:
            self.close(i)

    def _count(self, name: str, key: str, value: float) -> None:
        c = self.counters.setdefault(name, {})
        if key.endswith("_max"):
            c[key] = max(c.get(key, value), value)
        else:
            c[key] = c.get(key, 0) + value

    def _note_val_lead(self, engine, poly, point) -> None:
        seen = self._val_lead_seen.get(engine)
        if seen is None:
            seen = self._val_lead_seen[engine] = set()
        key = (poly, point)
        if key in seen:
            self.val_lead_repeats += 1
        else:
            seen.add(key)

    def wrap(self, name: str, fn: Callable, pre=(), post=()) -> Callable:
        nid = self.name_id(name)
        tracer = self
        track_repeats = name == "symbols.SymbolEngine.val_lead"

        def traced(*args, **kwargs):
            for key, probe in pre:
                tracer._count(name, key, probe(args, None))
            if track_repeats:
                tracer._note_val_lead(args[0], args[1], args[2])
            i = tracer.open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            for key, probe in post:
                tracer._count(name, key, probe(args, res))
            return res

        traced.__wrapped__ = fn
        traced.__bench_traced__ = True
        return traced

    # -- patching -------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every binding of every layer function; restore on exit."""
        import k2forge.families  # noqa: F401  (make sure every layer is loaded)
        import k2forge.cli  # noqa: F401

        mods = {m.__name__: m for m in _k2forge_modules()}
        wrappers: Dict[int, Tuple[Callable, Callable]] = {}  # id(original) -> (original, wrapper)
        for f in LAYER_FUNCTIONS:
            cls_path, _, attr = f.attr.rpartition(".")
            owner = mods["k2forge." + f.module]
            if cls_path:
                owner = _resolve(owner, cls_path)
            orig = owner.__dict__[attr]
            wrappers[id(orig)] = (orig, self.wrap(f.name, orig, f.pre, f.post))
        for gen in set(mods["k2forge.families"].GENERATORS.values()):
            wrappers[id(gen)] = (gen, self.wrap(GENERATORS_NAME, gen))

        undo = []  # (setter, container, key, original)

        def patch(setter, container, key, value) -> None:
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((setter, container, key, value))
                setter(container, key, hit[1])

        try:
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    patch(setattr, mod, key, value)
                    if isinstance(value, dict):
                        for k, v in list(value.items()):
                            patch(operator.setitem, value, k, v)
                    elif isinstance(value, type) and value.__module__ == mod.__name__:
                        for k, v in list(vars(value).items()):
                            patch(setattr, value, k, v)
            yield self
        finally:
            for setter, container, key, value in reversed(undo):
                setter(container, key, value)

    # -- derived metrics ---------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        n = len(self.span_name)
        out = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                out[p] -= self.span_end[i] - self.span_start[i]
        return out

    def _has_descendant(self, target: str) -> List[bool]:
        """Per span: whether some descendant span is named `target`."""
        n = len(self.span_name)
        flag = [False] * n
        tid = self._name_ids.get(target)
        for i in range(n - 1, -1, -1):  # children are recorded after parents
            p = self.span_parent[i]
            if p >= 0 and (flag[i] or self.span_name[i] == tid):
                flag[p] = True
        return flag

    def function_stats(self) -> Dict[str, Dict[str, float]]:
        """calls and self_s per span name, plus the probe counters."""
        stats: Dict[str, Dict[str, float]] = {}
        selfs = self.self_times()
        for i, s in enumerate(selfs):
            d = stats.setdefault(self.names[self.span_name[i]], {"calls": 0, "self_s": 0.0})
            d["calls"] += 1
            d["self_s"] += s
        for name, c in self.counters.items():
            stats.setdefault(name, {"calls": 0, "self_s": 0.0}).update(c)
        return stats

    def share_with_descendant(self, name: str, target: str) -> float:
        """Share of `name` spans with a `target` span below them (0 if none)."""
        nid = self._name_ids.get(name)
        own = [i for i, n in enumerate(self.span_name) if n == nid]
        if not own:
            return 0.0
        flags = self._has_descendant(target)
        return sum(flags[i] for i in own) / len(own)

    def folded(self) -> Dict[str, Tuple[int, float, float]]:
        """Span tree folded by call path: path -> (calls, total_s, self_s)."""
        selfs = self.self_times()
        paths: List[str] = []
        out: Dict[str, List[float]] = {}
        for i in range(len(self.span_name)):
            p = self.span_parent[i]
            name = self.names[self.span_name[i]]
            path = name if p < 0 else paths[p] + ";" + name
            paths.append(path)
            row = out.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.span_end[i] - self.span_start[i]
            row[2] += selfs[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}


def traced_bindings() -> List[str]:
    """Where a traced wrapper is still bound in k2forge (empty after a run)."""
    found = []
    for mod in _k2forge_modules():
        for key, value in vars(mod).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]" for k, v in value.items()
                          if getattr(v, "__bench_traced__", False)]
            elif isinstance(value, type):
                found += [f"{mod.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if getattr(v, "__bench_traced__", False)]
    return found
