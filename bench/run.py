"""k2forge benchmark: seeded workloads through the public API and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports k2forge from its
``src/``.  A run sets up the workload several times (``setup_s`` is the
import time plus the median set-up), then runs whole passes of ops, one op
at a time in this one process, until ``--seconds`` have passed (at least
one pass).  Each op's output is checked against a known answer.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the run then
makes one more pass with every layer function wrapped (see tracer.py) and
reports the per-layer metrics instead.  The lines before it give each
metric with its sample count, the pinned environment, and failures.  The
full result, and in a traced run the span tree folded by call path, are
written to ``bench/out/``.

The exit code is 0 when every op gave the known answer, 1 when one did
not, and 2 when the benchmark cannot run here (no k2forge sources).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from tracer import LAYERS, OP_NAME, Tracer, function_layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100


def pinned_env(env: Dict[str, str]) -> Optional[Dict[str, str]]:
    """The environment every run uses, or None when `env` already is it.

    K2FORGE_SERIES_ORDER changes the series precision and so the work done;
    PYTHONHASHSEED fixes set and dict iteration order over hashed keys."""
    if env.get("PYTHONHASHSEED") == "0" and "K2FORGE_SERIES_ORDER" not in env:
        return None
    pinned = {k: v for k, v in env.items() if k != "K2FORGE_SERIES_ORDER"}
    pinned["PYTHONHASHSEED"] = "0"
    return pinned


def git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "K2FORGE_SERIES_ORDER": os.environ.get("K2FORGE_SERIES_ORDER"),
    }


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Measurement:
    """Latencies and outcomes of the ops of one or more passes."""

    def __init__(self):
        self.latencies: List[float] = []
        self.labels: List[str] = []
        self.pass_rates: List[float] = []   # ops per second of op time, per pass
        self.failures: List[str] = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def run_pass(self, ops, tracer=None) -> None:
        busy = 0.0
        for op in ops:
            t0 = perf_counter()
            try:
                result = op.action() if tracer is None else tracer.span(OP_NAME, op.action)
                problem = None
            except Exception as e:  # an op that raises is a failed op
                problem = f"raised {type(e).__name__}: {e}"
            dt = perf_counter() - t0
            if problem is None:
                problem = op.check(result)
            if problem is not None:
                self.failures.append(f"{op.label}: {problem}")
            self.latencies.append(dt)
            self.labels.append(op.label)
            busy += dt
        self.pass_rates.append(len(ops) / busy)
        self.elapsed += busy


def measure(workload, seconds: float) -> Measurement:
    m = Measurement()
    while True:
        m.run_pass(workload.ops())
        if m.elapsed >= seconds:
            return m


def end_to_end(setup_s: float, m: Measurement) -> Dict[str, dict]:
    lat = m.latencies
    return {
        "setup_s": {"value": setup_s, "unit": "s", "samples": SETUP_REPEATS},
        "ops_per_s": {"value": statistics.median(m.pass_rates), "unit": "1/s",
                      "samples": len(m.pass_rates)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MiB", "samples": 1},
    }


def report_only(m: Measurement) -> Dict[str, dict]:
    """Printed with the end-to-end metrics but not part of the JSON result.

    op_p50_s varies by up to 30% between seeds, more than any bound allows,
    because the ops of a pass fall into cost clusters and the seed moves the
    median between them; op_p90_s needs 100 samples; failed_ratio is 0 on a
    correct run."""
    lat = m.latencies
    out = {"op_p50_s": {"value": statistics.median(lat), "unit": "s", "samples": len(lat)},
           "failed_ratio": {"value": len(m.failures) / m.attempted, "unit": "1",
                            "samples": m.attempted}}
    if len(lat) >= P90_MIN_SAMPLES:
        out["op_p90_s"] = {"value": percentile(lat, 90), "unit": "s", "samples": len(lat)}
    return out


def per_layer(tracer, traced: Measurement, untraced: Measurement) -> Dict[str, dict]:
    stats = tracer.function_stats()
    metrics: Dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, layer in function_layers().items():
        s = stats.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = {"value": s["calls"], "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": s["self_s"], "unit": "s"}
        layer_self[layer] += s["self_s"]
        for key, value in s.items():
            if key not in ("calls", "self_s"):
                metrics[f"{name}.{key}"] = {"value": value, "unit": PROBE_UNITS[key]}
    for name, key, unit in PROBE_METRICS:
        metrics.setdefault(f"{name}.{key}", {"value": 0, "unit": unit})
    xy, mul, val_lead = ("branches.Branch.xy", "series.PowerSeries.mul",
                         "symbols.SymbolEngine.val_lead")
    metrics[f"{xy}.computed_ratio"] = {
        "value": tracer.share_with_descendant(xy, mul), "unit": "1"}
    metrics[f"{val_lead}.miss_ratio"] = {
        "value": tracer.share_with_descendant(val_lead, xy), "unit": "1"}
    calls = stats.get(val_lead, {}).get("calls", 0)
    metrics[f"{val_lead}.repeat_ratio"] = {
        "value": tracer.val_lead_repeats / calls if calls else 0.0, "unit": "1"}
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = {"value": value, "unit": "s"}
    metrics["bench.op.self_s"] = {"value": stats.get(OP_NAME, {}).get("self_s", 0.0),
                                  "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced.pass_rates[0] / statistics.median(untraced.pass_rates), "unit": "1"}
    return metrics


# Probe counters (tracer.LAYER_FUNCTIONS) with their units; reported as 0
# when the function was not called.
PROBE_METRICS = (
    ("unipoly.rational_roots", "roots", "count"),
    ("linalg.bareiss_det", "entries", "count"),
    ("curves.smoothness_check", "singular", "count"),
    ("curves.rational_common_zeros", "points", "count"),
    ("branches.branches_at_infinity", "places", "count"),
    ("branches.Branch.xy", "prec_max", "terms"),
    ("series.PowerSeries.mul", "coeff_products", "count"),
)
PROBE_UNITS = {key: unit for _, key, unit in PROBE_METRICS}

# Layer functions each workload must reach in its traced pass.  A zero here
# means the tracer missed a call site, or the workload no longer exercises
# the layer it was chosen for.
EXPECTED_CALLS = {
    "hyp-genus": ("branches.Branch.xy", "series.PowerSeries.mul",
                  "branches.branches_at_infinity", "curves.intersection_multiplicity",
                  "symbols.SymbolEngine.val_lead", "symbols.verify_k2t",
                  "symbols.construction_torsion", "families.generators", "cli.main"),
    "symbol-laws": ("unipoly.rational_roots", "bipoly.resultant",
                    "curves.rational_common_zeros", "curves.fulton_multiplicity",
                    "branches.Branch.xy", "symbols.SymbolEngine.tame",
                    "symbols.SymbolEngine.support_candidates", "symbols.steinberg_values"),
    "quartic-catalog": ("curves.smoothness_check", "curves.macaulay_nonzero",
                        "linalg.bareiss_det", "unipoly.rational_roots",
                        "branches.Branch.xy", "symbols.verify_k2t",
                        "families.generators", "cli.main"),
    "verify-corpus": ("records.record_from_json", "symbols.verify_k2t",
                      "symbols.SymbolEngine.ord_poly", "symbols.SymbolEngine.val_lead",
                      "curves.intersection_multiplicity", "curves.fulton_multiplicity",
                      "branches.Branch.xy", "cli.main"),
}
EXPECTED_NO_CALLS = {"verify-corpus": ("curves.smoothness_check",)}


def coverage_problems(workload: str, metrics: Dict[str, dict]) -> List[str]:
    out = [f"{name} recorded no call" for name in EXPECTED_CALLS[workload]
           if metrics[f"{name}.calls"]["value"] == 0]
    out += [f"{name} was called" for name in EXPECTED_NO_CALLS.get(workload, ())
            if metrics[f"{name}.calls"]["value"] != 0]
    return out


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="run one untraced pass on the default seed and write its "
                         "record digests to bench/digests.json")
    args = ap.parse_args(argv)

    env = pinned_env(dict(os.environ))
    if env is not None:
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (SRC / "k2forge" / "__init__.py").is_file():
        print(f"error: no k2forge sources under {SRC}", file=sys.stderr)
        return 2
    run_env = environment()

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import k2forge.cli  # noqa: F401  (the import is part of set-up)
    import_s = perf_counter() - t0
    if Path(k2forge.__file__).resolve().parent != SRC / "k2forge":
        print(f"error: imported k2forge from {k2forge.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.record_digests:
        args.seed, args.trace = workloads.DEFAULT_SEED, 0
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = (committed.get(cls.name, {})
                if args.seed == workloads.DEFAULT_SEED and not args.record_digests else None)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{cls.name}-", dir=OUT))
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            book = workloads.DigestBook(expected)
            sub = workdir / f"setup{k}"
            sub.mkdir()
            t0 = perf_counter()
            workload = cls(args.seed, sub, book)
            setup_times.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        m = measure(workload, args.seconds)
        metrics = end_to_end(setup_s, m)
        printed = dict(metrics, **report_only(m))
        attempted, failures = m.attempted, list(m.failures)
        folded = None
        if args.trace:
            tracer = Tracer()
            traced = Measurement()
            ops = workload.ops()
            with tracer.installed():
                traced.run_pass(ops, tracer)
            metrics = per_layer(tracer, traced, m)
            printed.update(metrics)
            attempted += traced.attempted
            failures += traced.failures
            failures += [f"trace coverage: {p}" for p in coverage_problems(cls.name, metrics)]
            folded = tracer.folded()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.record_digests:
        committed[cls.name] = dict(sorted(book.seen.items()))
        DIGESTS.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(book.seen)} digests for {cls.name} to {DIGESTS}")

    for key, value in run_env.items():
        print(f"env {key} = {value}")
    print(f"workload {cls.name} seed {args.seed}: {m.attempted} ops in "
          f"{len(m.pass_rates)} pass(es), {m.elapsed:.3f} s of op time")
    for name, v in printed.items():
        print(f"metric {name} = {v['value']:.6g} {v['unit']}"
              + (f"  (n={v['samples']})" if "samples" in v else ""))
    if "op_p90_s" not in printed:
        print(f"metric op_p90_s not reported: {m.attempted} op samples < {P90_MIN_SAMPLES}")
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    stem = f"{cls.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": run_env, "workload": cls.name, "seed": args.seed,
         "seconds": args.seconds, "printed": printed, "pass_rates": m.pass_rates,
         "op_latencies": list(zip(m.labels, m.latencies)), "failures": failures,
         "result": result}, indent=1) + "\n")
    if folded is not None:
        with open(OUT / f"{stem}-spans.txt", "w", encoding="utf-8") as fh:
            fh.write("# call path; calls; total_s; self_s\n")
            for path, (calls, total, self_s) in sorted(folded.items()):
                fh.write(f"{path} {calls} {total:.6f} {self_s:.6f}\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
