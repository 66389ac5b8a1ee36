"""Command line front end: k2forge <gen|verify|catalog|plot>.

Exit codes: 0 success, 1 usage / malformed input, 2 precondition failure
(singular member, non-rational support, bad parameters), 3 verification
failure (a certificate that should hold does not -- a bug or tampering).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import io
import itertools
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import (InsufficientPrecisionError, PreconditionError, RecordFormatError,
                     VerificationError)
from .families import GENERATORS, PARAMS, Param
from .rationals import rat, rat_str
from .records import (catalog_entry_jsonable, param_jsonable, params_hash,
                      record_from_json, record_to_json, stored_record)
from .symbols import SymbolEngine, verify_k2t

USAGE_FAMILIES = ", ".join(sorted(GENERATORS))


class InputError(Exception):
    """Unknown family, bad flag value or db line, unwritable --out (exit 1)."""


def _tokens(text: str) -> List[str]:
    return [tok for tok in text.split(",") if tok.strip()]


def _pair(tok: str) -> Tuple[Fraction, int]:
    a, _, eps = tok.partition(":")
    return rat(a), int(eps or "1")


def _rat_axis(text: str) -> List[Fraction]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return [Fraction(k) for k in range(int(lo), int(hi) + 1)]
    return [rat(tok) for tok in _tokens(text)]


# kind -> parser of the flag text
_KINDS = {
    "int": int,
    "rat": rat,
    "rats": lambda text: [rat(tok) for tok in _tokens(text)],
    "ints": lambda text: [int(tok) for tok in _tokens(text)],
    "pairs": lambda text: [_pair(tok) for tok in _tokens(text)],
    "axis": _rat_axis,  # a catalog sweep over a rat parameter
}


def _parse(flag: str, kind: str, text: str):
    try:
        return _KINDS[kind](text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"bad value for --{flag}: {text!r}") from None


def _param_grid(ns, sweep: bool) -> List[Dict[str, object]]:
    """The generator arguments the flags ask for, keyed by parameter name
    in generator-argument order.

    `gen` asks for one argument tuple.  `catalog` (sweep=True) asks for the
    product, in table order, of one axis per parameter: a `rat` flag takes
    a comma list or an integer range lo..hi, and --a-grid tuples fill the
    family's `rats` parameter, or else all its `rat` parameters.  Every
    other flag takes one value.  Raises InputError for an unknown family or
    a value that does not parse, PreconditionError for a missing flag.
    """
    if ns.family not in PARAMS:
        raise InputError(f"unknown family {ns.family!r}; choose one of: {USAGE_FAMILIES}")
    specs = PARAMS[ns.family]
    joint = []
    if sweep and ns.a_grid:
        joint = ([p for p in specs if p.kind == "rats"][:1]
                 or [p for p in specs if p.kind == "rat"])
    missing = [f"--{p.name}" for p in specs
               if p not in joint and p.default is None and getattr(ns, p.name) is None]
    if missing:
        raise PreconditionError("need " + " ".join(missing))
    axes = []  # each a list of {name: value} choices
    for p in specs:
        if p in joint[1:]:
            continue
        text = p.default if getattr(ns, p.name) is None else getattr(ns, p.name)
        if p in joint:
            axes.append([_grid_tuple(joint, chunk) for chunk in ns.a_grid.split(";")])
        elif sweep and p.kind == "rat":
            axes.append([{p.name: v} for v in _parse(p.name, "axis", text)])
        else:
            axes.append([{p.name: _parse(p.name, p.kind, text)}])
    grid = []
    for combo in itertools.product(*axes):
        merged = {k: v for choice in combo for k, v in choice.items()}
        grid.append({p.name: merged[p.name] for p in specs})
    return grid


def _grid_tuple(joint: List[Param], chunk: str) -> Dict[str, object]:
    values = _parse("a-grid", "rats", chunk)
    if joint[0].kind == "rats":
        return {joint[0].name: values}
    if len(values) != len(joint):
        raise InputError(f"bad value for --a-grid: {chunk!r} needs {len(joint)} values")
    return {p.name: v for p, v in zip(joint, values)}


def _add_family_flags(p: argparse.ArgumentParser):
    kinds: Dict[str, Dict[str, None]] = {}
    for spec in itertools.chain.from_iterable(PARAMS.values()):
        kinds.setdefault(spec.name, {})[spec.kind.upper()] = None
    for name, metavars in kinds.items():
        p.add_argument(f"--{name}", metavar="|".join(metavars))


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror or e}") from None


def cmd_gen(ns) -> int:
    (params,) = _param_grid(ns, sweep=False)
    rec = GENERATORS[ns.family](*params.values())
    text = record_to_json(rec)
    if ns.out:
        _write_out(ns.out, text + "\n")
        print(f"wrote {ns.out} ({len(rec.elements)} element(s), all PASS)")
    else:
        print(text)
    return 0


def cmd_verify(ns) -> int:
    try:
        with open(ns.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        loaded = record_from_json(text)
    except (OSError, ValueError, RecursionError, RecordFormatError) as e:  # bad or too deep JSON
        print(f"cannot read record: {e}", file=sys.stderr)
        return 1
    except PreconditionError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    eng = SymbolEngine(loaded.curve)
    failures = 0
    print(f"curve: {loaded.curve.canonical()}")
    for elem in loaded.elements:
        for k, sym in enumerate(elem.symbols):
            tag = f"{elem.name}" + (f"[S{k+1}]" if len(elem.symbols) > 1 else "")
            try:
                cert = verify_k2t(eng, sym)
            except (PreconditionError, VerificationError) as e:
                print(f"{tag}: ERROR {e}")
                failures += 1
                continue
            for p, total in cert.point_totals.items():
                print(f"  {tag} @ {p.label()}: tame = {rat_str(total)}")
            print(f"  {tag}: product = {rat_str(cert.product)}  verdict = {cert.verdict}")
            if not cert.passed:
                failures += 1
    if failures:
        print(f"{failures} element(s) failed re-verification", file=sys.stderr)
        return 3
    print("all elements verify: PASS")
    return 0


# the end of a line that `json.dumps(catalog_entry_jsonable(...))` wrote
_WRITER_TAIL = re.compile(rb', "input_hash": "([0-9a-f]{64})"\}\n?\Z')


def _db_lines(fh):
    """The lines of a file open in binary mode, split at "\n", "\r\n" and a
    lone "\r" as text mode's universal newlines split them."""
    for line in fh:
        if b"\r" in line:
            yield from line.splitlines(keepends=True)
        else:
            yield line


def _db_hashes(path: str) -> Set[str]:
    """input_hash of every entry already in the db (none when it is missing).

    No line in writer form is parsed: one that ends in the fixed tail
    `, "input_hash": "<64 lowercase hex digits>"}` and holds the key
    `"input_hash"` only there gives the hex digits of that tail.  Two
    entries glued on one line hold the key twice.  Every other nonblank
    line is decoded as UTF-8 and parsed whole, and a line that is not JSON,
    not an object, or lacks the key is refused with its line number.  So a
    writer-form line whose bytes before the tail are not JSON is read, not
    refused; `verify` and `plot` of that entry still refuse it."""
    hashes = set()
    try:
        with open(path, "rb") as fh:
            for n, line in enumerate(_db_lines(fh), 1):
                # the tail is 83 bytes, and a newline may follow it
                tail = _WRITER_TAIL.search(line, max(0, len(line) - 84))
                if tail and line.count(b'"input_hash"') == 1:
                    hashes.add(tail[1].decode("ascii"))
                    continue
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError as e:  # its repr holds the whole line
                    raise InputError(f"cannot read db: line {n}: {e}") from None
                if text.strip():
                    try:
                        hashes.add(json.loads(text)["input_hash"])
                    except (ValueError, RecursionError, TypeError, KeyError) as e:
                        raise InputError(f"cannot read db: line {n}: {e!r}") from None
    except FileNotFoundError:
        pass
    except OSError as e:
        raise InputError(f"cannot read db: {e}") from None
    return hashes


def _unterminated(path: str) -> bool:
    """Whether the file at `path` is nonempty and its last line has no newline."""
    try:
        with open(path, "rb") as fh:
            if not fh.seek(0, io.SEEK_END):
                return False
            fh.seek(-1, io.SEEK_END)
            return fh.read(1) not in b"\r\n"
    except FileNotFoundError:
        return False


def cmd_catalog(ns) -> int:
    """Append one entry per new grid member, flushed as soon as it is made,
    so a run that ends early keeps what it wrote.  A db whose last line lacks
    its newline gets one before the first new entry.  Each refused member
    (exit 2), and the verification failure that ends a run (exit 3), is
    appended to <db>.errors.txt as one JSON line."""
    grid = _param_grid(ns, sweep=True)
    existing = _db_hashes(ns.db)
    added = skipped = errored = 0
    try:
        sep = "\n" if _unterminated(ns.db) else ""
        with open(ns.db, "a", encoding="utf-8") as db:
            for params in grid:
                h = params_hash(ns.family, params)
                if h in existing:
                    skipped += 1
                    continue
                try:
                    rec = GENERATORS[ns.family](*params.values())
                except (PreconditionError, VerificationError) as e:
                    code = 3 if isinstance(e, VerificationError) else 2
                    with open(ns.db + ".errors.txt", "a", encoding="utf-8") as log:
                        log.write(json.dumps({
                            "family": ns.family,
                            "params": {k: param_jsonable(v) for k, v in params.items()},
                            "exit": code, "error": str(e)}) + "\n")
                    if code == 3:
                        raise  # a verification failure ends the run
                    errored += 1
                    continue
                stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
                db.write(sep + json.dumps(catalog_entry_jsonable(rec, stamp, h)) + "\n")
                db.flush()
                sep = ""
                existing.add(h)
                added += 1
    except OSError as e:
        print(f"cannot write db: {e}", file=sys.stderr)
        return 1
    print(f"catalog: {added} added, {skipped} skipped (duplicates), {errored} errored")
    return 0


def cmd_plot(ns) -> int:
    try:
        with open(ns.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # bad or too deep JSON
        print(f"cannot read record: {e}", file=sys.stderr)
        return 1
    try:
        window = tuple(float(x) for x in ns.window.split(","))
        if len(window) != 4:
            raise ValueError(f"window needs 4 values xmin,xmax,ymin,ymax, got {len(window)}")
        from .plotting import PlotSpec, render_record_svg  # only `plot` pays for it
        spec = PlotSpec(window=window, grid=ns.grid)
        svg = render_record_svg(stored_record(data), spec)
    except RecordFormatError as e:
        print(f"cannot read record: {e}", file=sys.stderr)
        return 1
    except (ValueError, PreconditionError) as e:
        print(f"bad plot spec: {e}", file=sys.stderr)
        return 2
    _write_out(ns.out, svg)
    print(f"wrote {ns.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call; parse_args keeps no state between calls."""
    ap = argparse.ArgumentParser(
        prog="k2forge",
        description="Construct plane curves over Q with certified elements "
                    "of the tame second K-group, verify stored records, "
                    "build catalogs, and draw figures.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate and verify one family member")
    g.add_argument("family", help=f"one of: {USAGE_FAMILIES}")
    _add_family_flags(g)
    g.add_argument("--out", help="output JSON path (stdout when omitted)")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="re-verify a stored record from scratch")
    v.add_argument("path")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("catalog", help="batch-generate records into a JSON-lines db")
    c.add_argument("family")
    _add_family_flags(c)
    c.add_argument("--a-grid", dest="a_grid",
                   help="semicolon-separated parameter tuples, e.g. '1,1/2,1/4;1,2,3'")
    c.add_argument("--db", required=True)
    c.set_defaults(func=cmd_catalog)

    p = sub.add_parser("plot", help="render a record to SVG")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.add_argument("--window", default="-2,2,-2,2", help="xmin,xmax,ymin,ymax")
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return ns.func(ns)
    except InputError as e:
        print(e, file=sys.stderr)
        return 1
    except (VerificationError, InsufficientPrecisionError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    except PreconditionError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
