"""Record serialization, CLI exit codes, catalogs and figure output."""

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

from k2forge import cli, families as fam
from k2forge.cli import main
from k2forge.errors import InsufficientPrecisionError, PreconditionError, VerificationError
from k2forge.plotting import PlotSpec
from k2forge.records import (record_from_json, record_to_json, params_hash)
from k2forge.symbols import SymbolEngine, verify_k2t
from test_acceptance import SMOKE_TUPLES


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


def test_cli_plot_grid_above_the_maximum_exits_2_at_once(quartic_t0_record, tmp_path):
    out = tmp_path / "big.svg"
    done = subprocess.run([sys.executable, "-m", "k2forge.cli", "plot", str(quartic_t0_record),
                           "--grid", "20000", "--out", str(out)],
                          env=_package_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert done.stderr == "bad plot spec: grid must be 16 to 2048 cells per axis\n"
    assert "Traceback" not in done.stderr and not out.exists()


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
