"""Record serialization, CLI exit codes, catalogs and figure output."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from k2forge import cli, families as fam, records
from k2forge.bipoly import BiPoly
from k2forge.cli import main
from k2forge.errors import InsufficientPrecisionError, PreconditionError, VerificationError
from k2forge.plotting import PlotSpec
from k2forge.rationals import rat, rat_str
from k2forge.records import (json_text, record_from_json, record_to_json, params_hash)
from k2forge.symbols import SymbolEngine, verify_k2t
from test_acceptance import FIGURES, HYP_INTERPOLATION, HYP_ODD_DEEP, SMOKE_TUPLES


@pytest.fixture(scope="module")
def hyp_record_json():
    rec = fam.gen_hyp_odd(2, [1, F(1, 2), F(1, 4)])
    return record_to_json(rec)


def test_record_round_trip_reverifies(hyp_record_json):
    loaded = record_from_json(hyp_record_json)
    eng = SymbolEngine(loaded.curve)
    assert loaded.family_id == "hyp-odd"
    assert len(loaded.elements) == 3
    for elem in loaded.elements:
        assert elem.stored_verdicts == ["PASS"] * 3
        for sym in elem.symbols:
            assert verify_k2t(loaded.curve, sym, engine=eng).passed


def test_params_hash_deterministic():
    h1 = params_hash("hyp-odd", {"genus": 2, "a": [F(1), F(1, 2)]})
    h2 = params_hash("hyp-odd", {"a": [F(1), F(1, 2)], "genus": 2})
    assert h1 == h2 and len(h1) == 64


def test_cli_gen_verify_round_trip(tmp_path):
    out = tmp_path / "rec.json"
    assert main(["gen", "hyp-odd", "--genus", "2", "--a", "1,1/2,1/4",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def _package_env(**extra) -> dict:
    """The environment for a subprocess that imports this k2forge."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.mark.parametrize("args", [["hyp-odd", "--genus", "2", "--a", "1,1/2,1/4"],
                                  ["quartic-ct", "--t", "2"]])
def test_gen_output_does_not_depend_on_the_hash_seed(tmp_path, args):
    texts = []
    for seed in ("1", "2"):
        out = tmp_path / f"rec-{seed}.json"
        subprocess.run([sys.executable, "-m", "k2forge.cli", "gen", *args, "--out", str(out)],
                       env=_package_env(PYTHONHASHSEED=seed), check=True, capture_output=True)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_cli_runs_without_numpy(tmp_path):
    """k2forge has no runtime dependency: gen, verify and plot all run with
    numpy made unimportable."""
    script = ("import sys; sys.modules['numpy'] = None\n"
              "from k2forge.cli import main\n"
              "sys.exit(main(sys.argv[1:]))")
    rec, svg = tmp_path / "rec.json", tmp_path / "fig.svg"
    for argv in (["gen", "quartic-ct", "--t", "0", "--out", str(rec)],
                 ["verify", str(rec)],
                 ["plot", str(rec), "--window=-0.6,0.6,-0.6,0.3", "--grid", "64",
                  "--out", str(svg)]):
        done = subprocess.run([sys.executable, "-c", script, *argv], env=_package_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    assert ">O</text>" in svg.read_text()


def test_importing_the_cli_leaves_plotting_and_hashlib_unloaded():
    """Only `plot` needs the plotting module and only the catalog hashes,
    so neither is paid for at start-up."""
    script = ("import sys, k2forge.cli\n"
              "print(sorted({'k2forge.plotting', 'hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("genus", [-1, 0])
def test_cli_gen_hyperelliptic_genus_below_one_exits_2(genus):
    """Each hyperelliptic family refuses genus < 1 with one line; hyp-even
    does so before its all-minus sign check."""
    n = max(genus + 1, 0)
    flags = {"hyp-odd": ["--a=" + ",".join(["1"] * n)],
             "hyp-even": ["--a=" + ",".join(["1"] * n), "--eps=" + ",".join(["-1"] * n)],
             "hyp-partial": [f"--d={2 * genus + 1}", "--free=" + ",".join(["1"] * n)]}
    for family, extra in flags.items():
        done = subprocess.run([sys.executable, "-m", "k2forge.cli", "gen", family,
                               f"--genus={genus}", *extra],
                              env=_package_env(), capture_output=True, text=True)
        assert done.returncode == 2, (family, done.stderr)
        assert done.stderr == f"precondition error: genus must be at least 1, got {genus}\n"
        assert done.stdout == ""


def test_cli_gen_excluded_value_exits_2(capsys):
    code = main(["gen", "quartic-ct", "--t", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "1" in captured.err and "excluded" in captured.err


def test_cli_unknown_family_exits_1(capsys):
    assert main(["gen", "no-such-family", "--t", "0"]) == 1
    assert "unknown family" in capsys.readouterr().err


def test_cli_verify_malformed_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["verify", str(bad)]) == 1


def test_cli_verify_tampered_exits_3(tmp_path, hyp_record_json):
    data = json.loads(hyp_record_json)
    data["curve"]["affine"] = data["curve"]["affine"].replace("x^5", "x^5 + x^3")
    p = tmp_path / "tampered.json"
    p.write_text(json.dumps(data))
    assert main(["verify", str(p)]) == 3


MALFORMED = {
    "number": lambda d: 5,
    "array": lambda d: [],
    "curve-number": lambda d: {**d, "curve": 5},
    "no-curve": lambda d: {k: v for k, v in d.items() if k != "curve"},
}
# a curve string with one malformed term each
for _term in ["x^-1", "z*x", "3x", "(x+1)*y"]:
    MALFORMED[f"curve-term-{_term}"] = lambda d, t=_term: {
        **d, "curve": {**d["curve"], "affine": f"{d['curve']['affine']} + {t}"}}


@pytest.mark.parametrize("command", ["verify", "plot"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_record_exits_1(command, case, hyp_record_json, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[case](json.loads(hyp_record_json))))
    svg = tmp_path / "bad.svg"
    extra = ["--out", str(svg)] if command == "plot" else []
    assert main([command, str(path)] + extra) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("cannot read record: ")
    assert "Traceback" not in err
    assert not svg.exists()


def test_cli_insufficient_precision_exits_3(monkeypatch, capsys):
    def short_series(t):
        raise InsufficientPrecisionError("insufficient precision: series is zero to truncation")
    monkeypatch.setitem(cli.GENERATORS, "quartic-ct", short_series)
    assert main(["gen", "quartic-ct", "--t", "0"]) == 3
    err = capsys.readouterr().err
    assert err == "verification failure: insufficient precision: series is zero to truncation\n"


def test_cli_catalog_count_and_idempotence(tmp_path, capsys):
    db = tmp_path / "cat.jsonl"
    assert main(["catalog", "quartic-ct", "--t=-10..10", "--db", str(db)]) == 0
    lines = [l for l in db.read_text().splitlines() if l.strip()]
    # 21 integers minus the two integer exclusions {1, -3}
    assert len(lines) == 19
    assert main(["catalog", "quartic-ct", "--t=-10..10", "--db", str(db)]) == 0
    lines2 = [l for l in db.read_text().splitlines() if l.strip()]
    assert len(lines2) == 19
    out = capsys.readouterr().out
    assert "0 added" in out and "19 skipped" in out
    entry = json.loads(lines[0])
    assert set(entry) == {"record", "created_at", "tool_version", "input_hash"}
    assert entry["record"]["k2forge_schema"] == 1


def test_cli_catalog_a_grid(tmp_path):
    db = tmp_path / "cat2.jsonl"
    assert main(["catalog", "hyp-odd", "--genus", "2",
                 "--a-grid", "1,1/2,1/4;1,2,3;1,-1,2", "--db", str(db)]) == 0
    assert len(db.read_text().splitlines()) == 2
    (logged,) = (tmp_path / "cat2.jsonl.errors.txt").read_text().splitlines()
    assert json.loads(logged) == {
        "family": "hyp-odd", "params": {"genus": "2", "a": ["1", "-1", "2"]}, "exit": 2,
        "error": "singular Vandermonde: squares of parameters collide"}


def test_cli_plot_deterministic(tmp_path):
    rec = tmp_path / "rec.json"
    assert main(["gen", "hyp-odd", "--genus", "2", "--a", "1,1/2,1/4",
                 "--out", str(rec)]) == 0
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    args = ["plot", str(rec), "--window=-0.5,1.5,-1.5,1.1", "--grid", "96"]
    assert main(args + ["--out", str(s1)]) == 0
    assert main(args + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    body = s1.read_text()
    assert body.startswith("<svg ") and body.rstrip().endswith("</svg>")
    for name in ("P1", "P2", "P3", "O"):
        assert f">{name}</text>" in body
    # three vertical tangents plus L_O drawn as line overlays
    assert body.count("<line ") >= 4


def test_cli_plot_small_grid_smoke(tmp_path):
    import time
    rec = tmp_path / "rec.json"
    main(["gen", "quartic-ct", "--t", "0", "--out", str(rec)])
    t0 = time.time()
    out = tmp_path / "tiny.svg"
    assert main(["plot", str(rec), "--window=-1,1,-1,1", "--grid", "16",
                 "--out", str(out)]) == 0
    assert time.time() - t0 < 1.0
    assert out.read_text().startswith("<svg ")


def test_cli_plot_window_warning(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    main(["gen", "quartic-ct", "--t", "0", "--out", str(rec)])
    out = tmp_path / "far.svg"
    assert main(["plot", str(rec), "--window", "100,101,100,101",
                 "--out", str(out)]) == 0
    assert "window excludes all marked points" in capsys.readouterr().err


@pytest.fixture(scope="module")
def quartic_t0_record(tmp_path_factory):
    rec = tmp_path_factory.mktemp("quartic") / "rec.json"
    rec.write_text(record_to_json(fam.gen_quartic_ct(0)) + "\n")
    return rec


NOT_FINITE = "bad plot spec: window bounds and spans must be finite\n"


@pytest.mark.parametrize("window, code, err", [
    # powers of x overflow over most of the grid: those cells stay undrawn
    ("-1e200,1e200,-1,1", 0, ""),
    ("-1e200,1e200,100,101", 0, "warning: window excludes all marked points\n"),
    ("-inf,inf,-1,1", 2, NOT_FINITE),
    ("-1e308,1e308,-1,1", 2, NOT_FINITE),  # the x span overflows
    ("nan,1,-1,1", 2, NOT_FINITE),
], ids=["huge", "huge-excluding", "infinite", "span-overflow", "nan"])
def test_cli_plot_window_bounds(window, code, err, quartic_t0_record, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow must not surface as a warning
        assert main(["plot", str(quartic_t0_record), f"--window={window}", "--grid", "16",
                     "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert out.exists() == (code == 0)
    if code == 0:
        assert "nan" not in out.read_text() and "inf" not in out.read_text()


def test_cli_plot_out_of_range_values_exit_0(quartic_t0_record, tmp_path, capsys):
    """A coefficient or coordinate beyond the float range is left undrawn."""
    data = json.loads(quartic_t0_record.read_text())
    huge = "1" + "0" * 400
    data["curve"]["affine"] += f" + {huge}*x^5"
    data["points"]["O"]["x"] = "-" + huge
    data["aux"]["lines"][0]["coeffs"][0] = huge
    rec, out = tmp_path / "huge.json", tmp_path / "huge.svg"
    rec.write_text(json.dumps(data))
    assert main(["plot", str(rec), "--grid", "16", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    body = out.read_text()
    assert "<path " not in body and ">O</text>" not in body and ">P</text>" in body


def test_cli_plot_refuses_a_boolean_coefficient(quartic_t0_record, tmp_path, capsys):
    """A JSON boolean among an auxiliary line's coefficients is not read as 0 or 1."""
    data = json.loads(quartic_t0_record.read_text())
    data["aux"]["lines"][0]["coeffs"] = [True, "0", False]
    rec, out = tmp_path / "bool.json", tmp_path / "bool.svg"
    rec.write_text(json.dumps(data))
    assert main(["plot", str(rec), "--grid", "16", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "cannot read record: 'coeffs' is not a rational: True\n"
    assert not out.exists()


def test_cli_plot_grid_above_the_maximum_exits_2_at_once(quartic_t0_record, tmp_path):
    out = tmp_path / "big.svg"
    done = subprocess.run([sys.executable, "-m", "k2forge.cli", "plot", str(quartic_t0_record),
                           "--grid", "20000", "--out", str(out)],
                          env=_package_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr == "bad plot spec: grid must be 16 to 2048 cells per axis\n"
    assert "Traceback" not in done.stderr and not out.exists()


# hyp-odd at genus 16: its two-torsion discriminant has 8,454 digits
G16_A = "1,2,1/2,3/2,5/2,1/3,2/3,4/3,5/3,7/3,8/3,1/4,3/4,5/4,7/4,9/4,11/4"


def test_cli_gen_past_the_digit_limit_exits_2(tmp_path):
    """A record number past CPython's int-to-text digit limit ends `gen`
    with exit 2 and one line naming the limit, not a traceback."""
    out = tmp_path / "g16.json"
    done = subprocess.run([sys.executable, "-m", "k2forge.cli", "gen", "hyp-odd", "--genus", "16",
                           f"--a={G16_A}", "--out", str(out)],
                          env=_package_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr == ("precondition error: number too large to write: past CPython's "
                           f"limit of {sys.get_int_max_str_digits()} digits for integer text\n")
    assert "Traceback" not in done.stderr and not out.exists()


def test_gen_past_the_digit_limit_refuses_before_any_symbol_work(monkeypatch, capsys):
    """The record's numbers are written out right after the curve, so the
    refusal builds no torsion symbol."""
    built = []
    real = fam.construction_torsion
    monkeypatch.setattr(fam, "construction_torsion", lambda *a, **k: built.append(a)
                        or real(*a, **k))
    assert main(["gen", "hyp-odd", "--genus", "16", f"--a={G16_A}"]) == 2
    assert "number too large to write" in capsys.readouterr().err
    assert built == []


def test_plot_spec_grid_bounds():
    window = (-1.0, 1.0, -1.0, 1.0)
    assert PlotSpec(window=window, grid=2048).grid == 2048
    assert PlotSpec(window=window, grid=16).grid == 16
    for grid in (15, 2049):
        with pytest.raises(PreconditionError, match="grid must be 16 to 2048"):
            PlotSpec(window=window, grid=grid)


@pytest.mark.parametrize("command", ["gen", "plot"])
def test_cli_unwritable_out_exits_1(command, quartic_t0_record, tmp_path, capsys):
    dest = tmp_path / "missing" / "out"
    argv = {"gen": ["gen", "quartic-ct", "--t", "2"],
            "plot": ["plot", str(quartic_t0_record), "--grid", "16"]}[command]
    assert main(argv + ["--out", str(dest)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"cannot write {dest}: ")
    assert "Traceback" not in err and not dest.exists()



def test_param_table_covers_every_generator():
    assert list(fam.PARAMS) == list(fam.GENERATORS)


@pytest.mark.parametrize("argv, flag", [
    (["gen", "hyp-odd", "--genus", "2", "--a", "1,x"], "--a"),
    (["gen", "quartic-ct", "--t", "1/0"], "--t"),
    (["catalog", "quartic-ct", "--t=a..3"], "--t"),
    (["gen", "hyp-partial", "--genus", "2", "--d", "5", "--constraints", "1:z",
      "--free", "0,0"], "--constraints"),
    (["gen", "quartic-ct", "--t", "1,2"], "--t"),
    (["catalog", "quartic-conic-2t", "--a-grid", "1,2;3"], "--a-grid"),
])
def test_cli_malformed_value_exits_1_naming_the_flag(argv, flag, tmp_path, capsys):
    if argv[0] == "catalog":
        argv = argv + ["--db", str(tmp_path / "cat.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and flag in err
    assert "Traceback" not in err


def test_cli_missing_parameter_exits_2(tmp_path, capsys):
    assert main(["gen", "quartic-conic", "--d1", "1", "--d3", "1"]) == 2
    assert capsys.readouterr().err == "precondition error: need --d2 --d4\n"
    assert main(["catalog", "quartic-ct", "--db", str(tmp_path / "c.jsonl")]) == 2
    assert capsys.readouterr().err == "precondition error: need --t\n"


@pytest.mark.parametrize("family, flags", SMOKE_TUPLES + [("nekovar-2tor", ["--r", "3/4"])],
                         ids=[f for f, _ in SMOKE_TUPLES] + ["nekovar-2tor"])
def test_cli_catalog_round_trips_every_family(family, flags, tmp_path, capsys):
    db = tmp_path / "cat.jsonl"
    argv = ["catalog", family, *flags, "--db", str(db)]
    assert main(argv) == 0
    if family == "nekovar-2tor":  # no record over Q (criterion 5a)
        assert capsys.readouterr().out == "catalog: 0 added, 0 skipped (duplicates), 1 errored\n"
        assert db.read_text() == ""
        return
    assert capsys.readouterr().out == "catalog: 1 added, 0 skipped (duplicates), 0 errored\n"
    (line,) = db.read_text().splitlines()
    assert main(["gen", family, *flags]) == 0
    assert json.loads(line)["record"] == json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    assert capsys.readouterr().out == "catalog: 0 added, 1 skipped (duplicates), 0 errored\n"
    assert db.read_text().splitlines() == [line]


def test_cli_catalog_truncated_db_exits_1(tmp_path, capsys):
    db = tmp_path / "cat.jsonl"
    assert main(["catalog", "quartic-ct", "--t", "0,2", "--db", str(db)]) == 0
    capsys.readouterr()
    db.write_text(db.read_text()[:-40])
    assert main(["catalog", "quartic-ct", "--t", "0", "--db", str(db)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("cannot read db: line 2: ")


@pytest.mark.parametrize("command, prefix", [
    (["verify", "{path}"], "cannot read record: "),
    (["plot", "{path}", "--out", "{out}"], "cannot read record: "),
    (["catalog", "quartic-ct", "--t", "0", "--db", "{path}"], "cannot read db: line 1: "),
], ids=["verify", "plot", "catalog"])
def test_json_nested_past_the_recursion_limit_exits_1(tmp_path, command, prefix):
    """100,000 open brackets make the JSON decoder raise RecursionError, and
    a file that is not UTF-8 fails to decode; each command that reads JSON
    turns either into its one-line refusal and writes nothing."""
    path, out = tmp_path / "bad.json", tmp_path / "out.svg"
    for content in (b"[" * 100_000, b'\xff\xfe{"input_hash": "x"}\n'):
        path.write_bytes(content)
        argv = [arg.format(path=path, out=out) for arg in command]
        done = subprocess.run([sys.executable, "-m", "k2forge.cli", *argv],
                              env=_package_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith(prefix) and len(done.stderr.splitlines()) == 1, done.stderr
        assert "Traceback" not in done.stderr and not out.exists()
        assert path.read_bytes() == content


def test_cli_catalog_keeps_entries_written_before_a_verification_failure(
        tmp_path, capsys, monkeypatch):
    db = tmp_path / "cat.jsonl"
    real = fam.GENERATORS["nekovar-3tor"]

    def flaky(r):
        if r == 3:
            # the two earlier entries (small enough to sit in a write buffer)
            # are already whole on disk
            on_disk = db.read_text()
            assert on_disk.count("\n") == 2 and all(map(json.loads, on_disk.splitlines()))
            raise VerificationError("injected")
        return real(r)

    monkeypatch.setitem(fam.GENERATORS, "nekovar-3tor", flaky)
    assert main(["catalog", "nekovar-3tor", "--r=1..4", "--db", str(db)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "verification failure: injected\n" and captured.out == ""
    assert [json.loads(l)["record"]["params"]["r"] for l in db.read_text().splitlines()] \
        == ["1", "2"]
    (logged,) = (tmp_path / "cat.jsonl.errors.txt").read_text().splitlines()
    assert json.loads(logged) == {"family": "nekovar-3tor", "params": {"r": "3"},
                                  "exit": 3, "error": "injected"}


def test_cli_catalog_appends_after_a_last_line_without_newline(tmp_path, capsys):
    """A db whose last line lost its newline gets one before the next entry,
    so the two entries are not glued onto one line."""
    db = tmp_path / "cat.jsonl"
    argv = ["catalog", "quartic-ct", "--db", str(db)]
    assert main([*argv, "--t", "0"]) == 0
    db.write_bytes(db.read_bytes()[:-1])
    assert main([*argv, "--t", "2"]) == 0
    assert [json.loads(l)["record"]["params"]["t"] for l in db.read_text().splitlines()] \
        == ["0", "2"]
    capsys.readouterr()
    assert main([*argv, "--t", "0,2,3"]) == 0
    assert capsys.readouterr().out == "catalog: 1 added, 2 skipped (duplicates), 0 errored\n"
    assert len(db.read_text().splitlines()) == 3


def _parsed_hashes(path) -> tuple:
    """The db read by parsing each nonblank line whole, in text mode:
    (hashes, None), or (None, n) when line n is refused."""
    hashes = set()
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    hashes.add(json.loads(line)["input_hash"])
                except (ValueError, RecursionError, TypeError, KeyError):
                    return None, n
    return hashes, None


def _tail_hashes(path) -> tuple:
    """`cli._db_hashes` in the shape of `_parsed_hashes`."""
    try:
        return cli._db_hashes(str(path)), None
    except cli.InputError as e:
        n = str(e).removeprefix("cannot read db: line ").partition(":")[0]
        return None, int(n)


@functools.cache
def _catalog_entries() -> tuple:
    """Two catalog entries as `catalog` builds them before writing."""
    return tuple(records.catalog_entry_jsonable(fam.gen_quartic_ct(t), "2026-01-01T00:00:00+00:00",
                                                params_hash("quartic-ct", {"t": F(t)}))
                 for t in (0, 2))


HEX = "0123456789abcdef"
hex_hashes = st.text(HEX, min_size=64, max_size=64)


@st.composite
def db_lines(draw) -> str:
    """One db line, without its newline."""
    entry = dict(draw(st.sampled_from(_catalog_entries())), input_hash=draw(hex_hashes))
    writer = json.dumps(entry)
    kind = draw(st.sampled_from(["writer", "reserialized", "glued", "truncated", "repeated",
                                 "in-string", "not-object", "missing", "odd-hex", "blank"]))
    if kind == "writer":
        return writer
    if kind == "reserialized":
        keys = draw(st.permutations(list(entry)))
        seps = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " : "), (",\t", ":")]))
        return json.dumps({k: entry[k] for k in keys}, separators=seps)
    if kind == "glued":
        return writer + draw(st.sampled_from(["", " "])) + json.dumps(
            dict(entry, input_hash=draw(hex_hashes)))
    if kind == "truncated":
        return writer[:-draw(st.integers(1, 100))]
    if kind == "repeated":
        return '{"input_hash": "%s", ' % draw(hex_hashes) + writer[1:]
    if kind == "in-string":
        where = draw(st.sampled_from(["created_at", "tool_version"]))
        return json.dumps(dict(entry, **{where: draw(st.sampled_from(
            ["input_hash", '"input_hash"', ', "input_hash": "%s"}' % entry["input_hash"]]))}))
    if kind == "not-object":
        return draw(st.sampled_from(["[1, 2]", "3", "null", '"input_hash"',
                                     '["input_hash", "%s"]' % entry["input_hash"]]))
    if kind == "missing":
        return json.dumps({k: v for k, v in entry.items() if k != "input_hash"})
    if kind == "odd-hex":
        odd = draw(st.sampled_from([entry["input_hash"].upper(), entry["input_hash"][1:],
                                    entry["input_hash"] + "0"]))
        return json.dumps(dict(entry, input_hash=odd))
    return draw(st.sampled_from(["", "  ", "\t", "\u00a0", "\u2028"]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lines=st.lists(db_lines(), min_size=1, max_size=4),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), last=st.booleans())
def test_db_hashes_agree_with_parsing_every_line(tmp_path_factory, lines, newline, last):
    """Reading each hash from a line's tail gives the hashes that parsing
    every line gives, or refuses at the same line; `catalog` then exits 0,
    or 1 with one stderr line."""
    path = tmp_path_factory.getbasetemp() / "agree.jsonl"
    path.write_bytes((newline.join(lines) + (newline if last else "")).encode("utf-8"))
    want = _parsed_hashes(path)
    assert _tail_hashes(path) == want
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["catalog", "quartic-ct", "--t", "1", "--db", str(path)])  # t = 1 is refused
    assert (code, len(err.getvalue().splitlines())) == ((0, 0) if want[1] is None else (1, 1))


def test_db_hashes_read_a_writer_tail_after_bytes_that_are_not_json(tmp_path, capsys):
    """The one line read differently: a writer-form tail after bytes that
    are not JSON gives its hash, while parsing the line refuses it.
    `verify` and `plot` of that entry still refuse it."""
    h = params_hash("quartic-ct", {"t": F(0)})
    db, out = tmp_path / "cat.jsonl", tmp_path / "fig.svg"
    db.write_text('{"record": [, "input_hash": "%s"}\n' % h)
    assert _parsed_hashes(db) == (None, 1)
    assert cli._db_hashes(str(db)) == {h}
    assert main(["catalog", "quartic-ct", "--t", "0", "--db", str(db)]) == 0
    assert capsys.readouterr().out == "catalog: 0 added, 1 skipped (duplicates), 0 errored\n"
    for argv in (["verify", str(db)], ["plot", str(db), "--out", str(out)]):
        done = subprocess.run([sys.executable, "-m", "k2forge.cli", *argv],
                              env=_package_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 1 and done.stderr.startswith("cannot read record: ")
        assert len(done.stderr.splitlines()) == 1, done.stderr
    assert not out.exists()


def test_db_hashes_parse_no_writer_line(tmp_path, monkeypatch):
    """A db that only `catalog` wrote is read without one `json.loads`."""
    db = tmp_path / "cat.jsonl"
    assert main(["catalog", "quartic-ct", "--t", "0,2,3", "--db", str(db)]) == 0
    want, _ = _parsed_hashes(db)
    calls = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or real(*a, **k))
    assert cli._db_hashes(str(db)) == want and len(want) == 3
    assert calls == []


# ---------------------------------------------------------------------------
# decoding: one decode per distinct factor and point, every check kept
# ---------------------------------------------------------------------------

# sha256 of `verify`'s stdout for each distinct record of SMOKE_TUPLES,
# FIGURES, HYP_ODD_DEEP and HYP_INTERPOLATION, keyed "family flags"
VERIFY_DIGESTS = {
    "hyp-odd --genus 2 --a 1,1/2,1/4":
        "a2d295f826e7f64e1d68b610944b33e9e129197a7845f61630d9c9a788be7d0c",
    "hyp-even --genus 1 --a 1,2 --eps 1,1":
        "5d710f51a60c20ab4e48864ccf856f440081279e88e8ce3d1111a88cf753ccf2",
    "hyp-partial --genus 2 --d 5 --constraints 1:1 --free 0,0":
        "860f3ab862148a9696304267f537a6670472f431b67b3433a4470aff029daa36",
    "quartic-lines --a 1 --b 2 --c 1":
        "bedd693faca30224ab535b77496890683d5c446ca916ac9760c91d72e179c90e",
    "quartic-ct --t 2":
        "6cdcdea4d128532a96e03bb94837412cce5923a81b65e4549faaa8bbab8e3d73",
    "quartic-conic --d1 1 --d2 2 --d3 1 --d4 1":
        "421cb4540fd3b8b8fa789b01218ab6209e6559b3d24a6cf8f930fc5f42836b73",
    "quartic-conic-1t --a 1 --d1 0 --d4 0":
        "673b4b0cf7013e9ddbb233a42e9293212a95c59351e73d086efb48b7dc22d7d5",
    "quartic-conic-2t --a1 1 --a2 2":
        "7966970520c31d794bc3d32a322b9cd750a65d0f3ceac90f49176db0eeda8564",
    "quartic-conic-pq --a 1/2 --b -1":
        "c00defe445fef42920335cec19043b5e0433130eeb1272f121bb645935af6077",
    "nekovar-3tor --r 2":
        "9ca7cfd0592e132f7120e3ef76e8e5406c5b9ca718e0a145bf040f851013c932",
    "nekovar-g2 --r 1/2":
        "4d6a52ed5872ddb5b232fcce4729fc5ea3a09181b27455a798026744a0d6651c",
    "quartic-ct --t 0":
        "17d197de68663d1b51cba27ca2541950b4e4a40524389984c00d3d316fb07ef5",
    "quartic-lines --a 1/2 --b -1 --c 0":
        "aae1a3fd5132503a5d047964b4167abc634c0f9debb12648b6800ffaab0364ac",
    "hyp-odd --genus 3 --a 1,-1/2,3/4,-1/3":
        "44c97fe25ccc94eb0d1b05bbc8007c680f37ec906b4923fbaaca9d98cbc261b0",
    "hyp-odd --genus 4 --a 1,-1/2,3/4,-1/3,4/3":
        "7ec24209187334ba52939cb9f7209f86b8e65f21e392aafabfc14973a84efe9d",
    "hyp-odd --genus 5 --a 1,-1/2,3/4,-1/3,4/3,2/5":
        "2dc37d0432e6e07acc389cd4a7fbf27bdbea21c516d160ca9fcc7a4b06108e24",
    "hyp-odd --genus 7 --a 1,-1/2,3/4,-1/3,4/3,2/5,-3/2,5/3":
        "01d805cca63fadfb71c9296f1fe8be7386402faf612334e701fda59bda2a43b1",
    "hyp-partial --genus 3 --d 7 --constraints 1:-1,1/2:-1 --free 2/3,-5":
        "3919506d0ec560948e3c3511345e5869b3bb5b0d70b962d05fcded0e9975968e",
    "hyp-partial --genus 2 --d 6 --constraints=-1/2:1 --free 3,1/7":
        "93fcd3a71f075225ae5655cc47676f87be046a301e11efeccf1d531ca9ed5713",
    "hyp-partial --genus 1 --d 3 --free 1,2":
        "34f09409327cce04045636cceec4076c92fdabd50840a083f8b5abe31c27dd64",
    "hyp-even --genus 2 --a 1/2,-1,3 --eps=-1,1,1":
        "9b4b2550d12034979b74cf55113e88a0cdce58eaf828dd93d20094298a733993",
}


def test_verify_output_of_the_corpus_is_unchanged(tmp_path, capsys):
    corpus = dict.fromkeys([(f, tuple(flags)) for f, flags in SMOKE_TUPLES]
                           + [(f, tuple(flags)) for _, f, flags, _, _ in FIGURES]
                           + HYP_ODD_DEEP + HYP_INTERPOLATION)
    digests = {}
    for family, flags in corpus:
        out = tmp_path / "record.json"
        assert main(["gen", family, *flags, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        text = capsys.readouterr().out
        digests[f"{family} {' '.join(flags)}"] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == VERIFY_DIGESTS


def _pairs(data: dict):
    for elem in data["elements"]:
        for sym in elem["symbols"]:
            yield from sym["pairs"]


def test_record_decodes_each_distinct_factor_and_point_once(hyp_record_json, monkeypatch):
    data = json.loads(hyp_record_json)
    factors = {fd["poly"] for pd in _pairs(data) for f in "fh" for fd in pd[f]["factors"]}
    raw_points = list(data["points"].values()) + [
        pt for elem in data["elements"] for sym in elem["symbols"] for pt in sym["support"]]
    assert len(raw_points) > len({json.dumps(pt) for pt in raw_points})  # some repeat
    parsed, decoded = [], []

    def parse(key, text):
        parsed.append(text)
        return real_parse(key, text)

    def point(d):
        decoded.append(d)
        return real_point(d)

    real_parse, real_point = records._parse_poly, records.point_from_json
    monkeypatch.setattr(records, "_parse_poly", parse)
    monkeypatch.setattr(records, "point_from_json", point)
    loaded = record_from_json(hyp_record_json)
    assert sorted(parsed) == sorted(factors | {data["curve"]["affine"]})
    assert sorted(map(json.dumps, decoded)) == sorted({json.dumps(pt) for pt in raw_points})
    eng = SymbolEngine(loaded.curve)
    assert all(verify_k2t(loaded.curve, sym, engine=eng).passed
               for elem in loaded.elements for sym in elem.symbols)


def test_points_that_differ_in_a_field_type_decode_apart(hyp_record_json):
    """1 and 1.0 hash alike, but a float coordinate is not a record value."""
    data = json.loads(hyp_record_json)
    support = data["elements"][0]["symbols"][0]["support"]
    support[:0] = [{"kind": "affine", "x": 1, "y": 0}, {"kind": "affine", "x": 1.0, "y": 0}]
    with pytest.raises(records.RecordFormatError, match="'x' has type float"):
        record_from_json(json.dumps(data))


def test_a_vanishing_factor_is_rejected_wherever_it_repeats(hyp_record_json, tmp_path, capsys):
    data = json.loads(hyp_record_json)
    zero = {"poly": data["curve"]["affine"], "exp": 1}
    first, second = list(_pairs(data))[:2]
    first["f"]["factors"].append(zero)
    second["h"]["factors"].append(zero)
    with pytest.raises(PreconditionError, match="zero function"):
        record_from_json(json.dumps(data))
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr().err == "verification failure: zero function\n"


def test_a_curve_that_disagrees_with_its_degree_exits_1_at_once(tmp_path):
    """The stored degree bounds the curve before its squarefree test runs."""
    data = json.loads(record_to_json(fam.gen_quartic_ct(2)))
    data["curve"]["affine"] = "x^99999999999 + y"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    done = subprocess.run([sys.executable, "-m", "k2forge.cli", "verify", str(path)],
                          env=_package_env(), capture_output=True, text=True, timeout=1)
    assert done.returncode == 1
    assert done.stderr == ("cannot read record: 'degree' is 4, but the curve has "
                           "degree 99999999999\n")


# ---------------------------------------------------------------------------
# what verify re-derives: the support, and the record format limit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ct_record() -> dict:
    return json.loads(record_to_json(fam.gen_quartic_ct(2)))


def _verify(data: dict, path: Path):
    """verify's (exit code, stdout, stderr) on data, in this process."""
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_an_emptied_support_no_longer_hides_a_tampered_scalar(ct_record, tmp_path):
    """With one scalar changed and every support emptied, each function's
    divisor still had degree 0 over the (empty) declared points."""
    data = json.loads(json.dumps(ct_record))
    next(_pairs(data))["f"]["scalar"] = "5"
    for elem in data["elements"]:
        for sym in elem["symbols"]:
            sym["support"] = []
    code, out, _ = _verify(data, tmp_path / "r.json")
    assert code == 3
    assert "ERROR support incomplete: y has a zero off the declared support" in out


def _set_huge(where: str, data: dict) -> None:
    huge = 99999999999
    pair = next(_pairs(data))
    if where == "curve degree":
        data["curve"].update(affine=f"x^{huge} + y", degree=huge)
    elif where == "factor polynomial":
        pair["f"]["factors"][0]["poly"] = f"x^{huge} + y"
    elif where == "exp":
        pair["f"]["factors"][0]["exp"] = huge
    elif where == "constant factor":
        pair["f"]["factors"].append({"poly": "5", "exp": huge})
    else:
        pair["coefficient"] = huge


@pytest.mark.parametrize("where", ["curve degree", "factor polynomial", "exp",
                                   "constant factor", "coefficient"])
def test_a_value_past_the_format_limit_exits_1_at_once(where, ct_record, tmp_path):
    data = json.loads(json.dumps(ct_record))
    _set_huge(where, data)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    done = subprocess.run([sys.executable, "-m", "k2forge.cli", "verify", str(path)],
                          env=_package_env(), capture_output=True, text=True, timeout=1)
    assert done.returncode == 1
    assert done.stderr.startswith("cannot read record: ")
    assert done.stderr.endswith(
        f" is 99999999999, past the record format limit of {records.RECORD_LIMIT}\n")
    assert len(done.stderr.splitlines()) == 1


def test_gen_refuses_a_hyperelliptic_degree_past_the_format_limit(capsys):
    g = records.RECORD_LIMIT // 2
    a = ",".join(str(k) for k in range(1, g + 2))
    assert main(["gen", "hyp-odd", "--genus", str(g), "--a", a]) == 2
    assert capsys.readouterr().err == (f"precondition error: degree {2 * g + 1} is past "
                                       f"the record format limit of {records.RECORD_LIMIT}\n")


def test_an_integer_too_long_to_decode_exits_1(ct_record, tmp_path):
    text = json.dumps(ct_record).replace('"coefficient": 1', '"coefficient": 1' + "0" * 5000, 1)
    path = tmp_path / "long.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["verify", str(path)]) == 1
    assert err.getvalue().startswith("cannot read record: ")
    assert len(err.getvalue().splitlines()) == 1


def test_a_repeated_support_point_exits_1_naming_symbol_and_point(ct_record, tmp_path):
    """A repeated point would put its certificate rows in twice under one
    point total."""
    data = json.loads(json.dumps(ct_record))
    elem = data["elements"][-1]
    support = elem["symbols"][1]["support"]
    support.append(support[0])
    label = records.point_from_json(support[0]).label()
    code, _, err = _verify(data, tmp_path / "r.json")
    assert (code, err) == (1, f"cannot read record: symbol 1 of element {elem['name']!r} "
                              f"lists the support point {label} twice\n")


def test_a_function_without_factors_exits_1(ct_record, tmp_path):
    """"num" and "den" are only a readable form: a function is read from
    its factors alone."""
    data = json.loads(json.dumps(ct_record))
    del next(_pairs(data))["f"]["factors"]
    code, _, err = _verify(data, tmp_path / "r.json")
    assert (code, err) == (1, "cannot read record: missing key 'factors'\n")


def _first_support_point(data: dict) -> dict:
    return data["elements"][0]["symbols"][0]["support"][0]


def _set(where: str, data: dict):
    if where == "kind":
        _first_support_point(data)["kind"] = "weird"
    elif where == "Z":
        _first_support_point(data)["Z"] = "5"
    elif where == "branch":
        _first_support_point(data)["branch"] = True
    elif where == "exp":
        next(_pairs(data))["f"]["factors"][0]["exp"] = True
    else:
        data["k2forge_schema"] = True


@pytest.mark.parametrize("where, code, err", [
    ("kind", 1, "cannot read record: 'kind' is 'weird', not 'affine' or 'infinity'\n"),
    ("Z", 1, "cannot read record: a point at infinity has 'Z': '5', not '0'\n"),
    ("branch", 1, "cannot read record: 'branch' has type bool\n"),
    ("exp", 1, "cannot read record: 'exp' has type bool\n"),
    ("schema", 3, "verification failure: unsupported record schema\n"),
], ids=["kind", "Z", "branch", "exp", "schema"])
def test_a_field_that_contradicts_the_record_is_refused(where, code, err, ct_record, tmp_path):
    """Each edit was once read as something else: any kind as a point at
    infinity, any Z as 0, and true as the integer 1."""
    data = json.loads(json.dumps(ct_record))
    assert records.point_from_json(_first_support_point(data)).label() == "(0:1:0)#0"
    _set(where, data)
    assert _verify(data, tmp_path / "r.json") == (code, "", err)


@pytest.fixture(scope="module")
def family_records(tmp_path_factory) -> dict:
    """The record text of each attainable family."""
    texts = {}
    for family, flags in SMOKE_TUPLES:
        out = tmp_path_factory.mktemp("families") / "r.json"
        assert main(["gen", family, *flags, "--out", str(out)]) == 0
        texts[family] = out.read_text()
    return texts


MUTATIONS = ["drop", "duplicate", "swap", "empty", "negate", "perturb", "inflate", "move",
             "offsupport"]


def _mutate(data: dict, kind: str, draw) -> bool:
    """Apply one mutation to data; True when verify must not accept the result."""
    elements = data["elements"]
    elem = elements[draw(st.integers(0, len(elements) - 1))]
    k = draw(st.integers(0, len(elem["symbols"]) - 1))
    support = elem["symbols"][k]["support"]
    i, j = (draw(st.integers(0, len(support) - 1)) for _ in "ij")
    if kind == "drop":
        label = elem["certificates"][k]["entries"]
        dropped = support.pop(i)
        name = records.point_from_json(dropped).label()
        return any(row["point"] == name and (row["ord_f"] or row["ord_h"]) for row in label)
    if kind == "duplicate":
        support.insert(j, support[i])
        return True
    if kind == "swap":
        support[i], support[j] = support[j], support[i]
    elif kind == "empty":
        support.clear()
        return True
    elif kind == "negate":
        fn = draw(st.sampled_from(list(_pairs(data))))[draw(st.sampled_from("fh"))]
        fn["scalar"] = rat_str(-rat(fn["scalar"]))
    elif kind == "perturb":
        curve = BiPoly.parse(data["curve"]["affine"])
        terms = dict(curve.terms)
        term = draw(st.sampled_from(sorted(terms)))
        terms[term] += draw(st.sampled_from([F(-1), F(1, 2), F(3)]))
        data["curve"]["affine"] = BiPoly(terms).canonical()
    elif kind == "inflate":
        factor = draw(st.sampled_from([fd for pd in _pairs(data) for f in "fh"
                                       for fd in pd[f]["factors"]]))
        factor["exp"] = draw(st.sampled_from([-1, 1])) * (
            records.RECORD_LIMIT + draw(st.integers(1, 10**12)))
        return True
    elif kind == "offsupport":  # add an affine support point off the curve
        curve = BiPoly.parse(data["curve"]["affine"])
        x, y = (draw(st.fractions(-3, 3, max_denominator=4)) for _ in "xy")
        y = next(y + s for s in range(4) if curve(x, y + s) != 0)
        support.insert(j, {"kind": "affine", "x": rat_str(x), "y": rat_str(y)})
        return True
    else:  # move a marked point off the curve
        name = draw(st.sampled_from(sorted(n for n, p in data["points"].items()
                                           if p["kind"] == "affine")))
        p = data["points"][name]
        curve = BiPoly.parse(data["curve"]["affine"])
        x, y = rat(p["x"]), rat(p["y"])
        p["y"] = rat_str(next(y + s for s in (1, 2, 3) if curve(x, y + s) != 0))
        return True
    return False


@pytest.mark.parametrize("kind", MUTATIONS)
@settings(derandomize=True, deadline=None, max_examples=15)
@given(family=st.sampled_from([f for f, _ in SMOKE_TUPLES]), data=st.data())
def test_verify_survives_mutated_records(family_records, tmp_path_factory, kind, family, data):
    """Every mutant of a real record exits 0, 1 or 3 with no traceback; one
    that must fail never exits 0, and one that exits 0 re-verifies in
    process."""
    record = json.loads(family_records[family])
    must_fail = _mutate(record, kind, data.draw)
    code, out, err = _verify(record, tmp_path_factory.mktemp("mutant") / "r.json")
    assert code in (0, 1, 3), (code, err)
    assert "Traceback" not in err
    if must_fail:
        assert code != 0, (kind, out)
    if code == 0:
        loaded = record_from_json(json.dumps(record))
        eng = SymbolEngine(loaded.curve)
        assert all(verify_k2t(loaded.curve, sym, engine=eng).passed
                   for elem in loaded.elements for sym in elem.symbols)


# ---------------------------------------------------------------------------
# dispatch and encoding
# ---------------------------------------------------------------------------

def _session(workdir: Path, monkeypatch) -> list:
    """(exit code, stdout, stderr) of five commands run in turn in one process."""
    monkeypatch.chdir(workdir)
    results = []
    for argv in (["gen", "quartic-ct", "--t", "0", "--out", "rec.json"],
                 ["verify", "rec.json"],
                 ["gen", "quartic-ct", "--no-such-flag", "1"],
                 ["plot", "rec.json", "--grid", "16", "--out", "fig.svg"],
                 ["catalog", "quartic-ct", "--t", "0,2", "--db", "cat.jsonl"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def test_one_parser_serves_every_command_as_a_fresh_one_would(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    (tmp_path / "once").mkdir()
    (tmp_path / "fresh").mkdir()
    once = _session(tmp_path / "once", monkeypatch)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _session(tmp_path / "fresh", monkeypatch)
    assert once == fresh
    assert [code for code, _, _ in once] == [0, 0, 1, 0, 0]
    code, out, err = once[2]
    assert out == "" and err.startswith("usage: k2forge ")
    assert err.endswith("error: unrecognized arguments: --no-such-flag 1\n")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64, max_value=2**200)
    | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(json_values)
def test_json_text_is_json_dumps_with_indent_1(value):
    assert json_text(value) == json.dumps(value, indent=1)


@pytest.mark.parametrize("value", [F(1, 2), {1: "a"}, [{"a": {3}}]], ids=["fraction", "int-key", "set"])
def test_json_text_refuses_what_a_record_does_not_hold(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_writing_a_record_forms_each_num_den_product_once():
    """record_to_json expands each distinct num/den product of the record's
    functions once, however many functions share it; the normalized copies
    of a torsion function differ only in their scalar."""
    rec = fam.gen_hyp_odd(4, [1, F(-1, 2), F(3, 4), F(-1, 3), F(4, 3)])
    fns = [f for e in rec.elements for sym in e.symbols for pair in sym.terms
           for f in (pair.f, pair.h)]
    assert len({f.factors for f in fns}) < len({(f.scalar, f.factors) for f in fns})
    products = set()
    for f in fns:
        for sign in (1, -1):
            part = [(p, sign * e) for p, e in f.factors if sign * e > 0]
            if sum(e for _, e in part) > 1:  # more than one bare factor
                products.add(functools.reduce(BiPoly.__mul__, [p**e for p, e in part]))
    formed = []
    multiply = BiPoly.__mul__

    def counted(self, other):
        out = multiply(self, other)
        if isinstance(other, BiPoly):
            formed.append(out)
        return out
    with mock.patch.object(BiPoly, "__mul__", counted):
        record_to_json(rec)
    assert len(products) == 6  # y^2 and five ninth powers
    assert all(formed.count(q) == 1 for q in products)
