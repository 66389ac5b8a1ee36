"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py
"""

import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from k2forge import bipoly, cli, curves, families, series, symbols  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def synthetic(spans):
    """A Tracer holding (name, parent, start, end) spans, in entry order."""
    t = tr.Tracer()
    for name, parent, start, end in spans:
        t.span_name.append(t.name_id(name))
        t.span_parent.append(parent)
        t.span_start.append(start)
        t.span_end.append(end)
    return t


def test_self_time_on_nested_recursive_tree():
    t = synthetic([
        ("a", -1, 0.0, 10.0),   # 0: a
        ("b", 0, 1.0, 5.0),     # 1:   b
        ("b", 1, 2.0, 4.0),     # 2:     b (recursive)
        ("c", 2, 2.5, 3.0),     # 3:       c
        ("c", 0, 6.0, 9.0),     # 4:   c
        ("a", 4, 7.0, 8.0),     # 5:     a (recursive, through c)
    ])
    assert t.self_times() == [3.0, 2.0, 1.5, 0.5, 2.0, 1.0]
    stats = t.function_stats()
    assert stats["a"] == {"calls": 2, "self_s": 4.0}
    assert stats["b"] == {"calls": 2, "self_s": 3.5}
    assert stats["c"] == {"calls": 2, "self_s": 2.5}
    # self times partition the root spans' time
    assert sum(t.self_times()) == 10.0
    assert t.share_with_descendant("b", "c") == 1.0
    assert t.share_with_descendant("a", "c") == 0.5
    assert t.share_with_descendant("missing", "c") == 0.0
    assert t.folded()["a;c;a"] == (1, 1.0, 1.0)


def test_wrapper_records_parent_links():
    t = tr.Tracer()

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)
    traced = t.wrap("fact", fact)
    assert traced(3) == 6
    assert list(t.span_parent) == [-1, 0, 1, 2]
    assert t.function_stats()["fact"]["calls"] == 4


def test_mul_products_counts_the_schoolbook_product():
    PS = series.PowerSeries
    a = PS(0, [1, 0, 2, 3], 4)
    b = PS(1, [5, 6, 7], 4)
    n = min(a.prec + b.val, b.prec + a.val) - (a.val + b.val)
    brute = sum(1 for i, x in enumerate(a.coeffs) if x
                for j in range(len(b.coeffs)) if i + j < n)
    assert tr._mul_products((a, b)) == brute
    assert tr._mul_products((a, 3)) == len(a.coeffs)


def _inputs_digest(w) -> str:
    if isinstance(w, workloads.HypGenus):
        data = w.members
    elif isinstance(w, workloads.QuarticCatalog):
        data = w.grid
    elif isinstance(w, workloads.SymbolLaws):
        data = (w.laws, w.valuation)
    else:
        data = [(label, path.read_text()) for label, path, _ in w.records]
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    digests = []
    for k, seed in enumerate((7, 7, 8)):
        sub = tmp_path / str(k)
        sub.mkdir()
        digests.append(_inputs_digest(cls(seed, sub, workloads.DigestBook(None))))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_every_printed_metric_is_declared_with_its_unit(tmp_path):
    e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    m = run.Measurement()
    w = workloads.QuarticCatalog(3, tmp_path, workloads.DigestBook(None))
    m.run_pass(w.ops()[:2])
    assert {k: v["unit"] for k, v in run.end_to_end(0.5, m).items()} == e2e
    t = tr.Tracer()
    traced = run.Measurement()
    with t.installed():
        traced.run_pass(w.ops()[:2], t)
    assert {k: v["unit"] for k, v in run.per_layer(t, traced, m).items()} == layer
    assert set(run.report_only(m)) <= {"op_p50_s", "failed_ratio", "op_p90_s"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


# every binding the traced run must replace, by where it lives
SITES = [
    (bipoly, "bareiss_det"), (curves, "bareiss_det"), (curves, "smoothness_check"),
    (families, "smoothness_check"), (families, "verify_k2t"),
    (symbols, "rational_common_zeros"), (symbols, "fulton_multiplicity"),
    (symbols, "branch_at_affine"), (symbols, "branches_at_infinity"),
    (cli, "verify_k2t"), (cli, "record_to_json"), (cli, "record_from_json"),
    (cli, "main"),
]


def _bound():
    return ([getattr(mod, name) for mod, name in SITES]
            + [series.PowerSeries.__dict__["__mul__"], series.PowerSeries.__dict__["__rmul__"]]
            + list(cli.GENERATORS.values()))


def test_traced_run_patches_every_site_and_restores_them(tmp_path):
    before = _bound()
    t = tr.Tracer()
    with t.installed():
        during = _bound()
        assert all(getattr(f, "__bench_traced__", False) for f in during)
        code, _, _ = workloads.run_cli(["gen", "quartic-ct", "--t", "0",
                                        "--out", str(tmp_path / "r.json")])
        assert code == 0
        code, _, _ = workloads.run_cli(["verify", str(tmp_path / "r.json")])
        assert code == 0
    assert [a is b for a, b in zip(_bound(), before)] == [True] * len(before)
    assert tr.traced_bindings() == []
    stats = t.function_stats()
    for name in ("cli.main", "families.generators", "curves.smoothness_check",
                 "linalg.bareiss_det", "symbols.verify_k2t", "records.record_to_json",
                 "records.record_from_json", "series.PowerSeries.mul"):
        assert stats[name]["calls"] > 0, name
    assert stats["cli.main"]["calls"] == 2


def test_traced_run_restores_after_an_exception():
    before = _bound()
    with pytest.raises(ZeroDivisionError):
        with tr.Tracer().installed():
            1 / 0
    assert [a is b for a, b in zip(_bound(), before)] == [True] * len(before)
    assert tr.traced_bindings() == []


def test_own_known_answers():
    # the paper's reference tuple and its printed f1
    f1 = workloads.HypGenus.f1(2, workloads.HypGenus.REFERENCE_A)
    assert [str(c) for c in f1] == workloads.HypGenus.REFERENCE_F1
    assert {t for t in workloads.QuarticCatalog.POOL + list(workloads.QuarticCatalog.SINGULAR)
            if workloads.disc_ct(t) == 0} == set(workloads.QuarticCatalog.SINGULAR)
    assert workloads.poly_is_squarefree([F(-1), F(0), F(1)])
    assert not workloads.poly_is_squarefree([F(1), F(2), F(1)])


def test_pinned_environment():
    assert run.pinned_env({"PYTHONHASHSEED": "0"}) is None
    env = run.pinned_env({"K2FORGE_SERIES_ORDER": "40", "PATH": "/bin"})
    assert env == {"PATH": "/bin", "PYTHONHASHSEED": "0"}
