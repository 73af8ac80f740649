"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; simplex is imported from ./src
and nothing else.  One process, one closed-loop caller thread.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(untraced and traced passes, then the layer ladder).  Every metric is
printed as "name value unit" first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A fuller report
(raw beside normalized values, environment fingerprint) and, when traced,
the spans go to perfbench/out/.  Exit status: 0 when every output
verified, 3 when any check failed, 2 when the checkout has no simplex.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns as clock

from harness import NullTracer, Tracer, measure
from ladder import REGFILE_FNS, run_ladder
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAYERS = ("regfile", "strops", "bench", "runtime", "probe", "context", "cli", "harness")
TRACE_MAX_OPS = 20_000


def _load_simplex():
    """Import (or re-import) simplex from ./src; returns the package."""
    src = ROOT / "src"
    if not (src / "simplex" / "__init__.py").is_file():
        raise FileNotFoundError(f"no simplex package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "simplex" or m.startswith("simplex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    sx = importlib.import_module("simplex")
    importlib.import_module("simplex.cli")
    if Path(sx.__file__).resolve().parent != (src / "simplex").resolve():
        raise FileNotFoundError(f"simplex resolved outside the checkout: {sx.__file__}")
    return sx


def _setup(cls, seed: int, reps: int):
    """Import + construct `reps` times; median normalized seconds, last workload.

    Each repetition is bracketed by calibration runs, and the import is a
    fresh one (simplex's modules are dropped from sys.modules first).
    """
    norm, raw = [], []
    sx = workload = None
    for rep in range(reps):
        if workload is not None:
            workload.close()
            workload = None
        cal0 = cls.cal.rate(cls.cal_units)
        t0 = clock()
        sx = _load_simplex()
        workload = cls(sx, seed)
        elapsed = (clock() - t0) / 1e9
        cal1 = cls.cal.rate(cls.cal_units)
        raw.append(elapsed)
        norm.append(elapsed * (cal0 + cal1) / 2 / cls.cal.ref_rate)
    return statistics.median(norm), statistics.median(raw), sx, workload


def _fingerprint(sx, cls, seed: int, cal_rate: float) -> dict:
    report = sx.probe()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "probe": report.to_dict(),
        "backend": sx.select_backend(report).value,
        "calibration": cls.cal.name,
        "cal_rate_raw": cal_rate,
        "ref_cal_rate": cls.cal.ref_rate,
        "seed": seed,
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gated(_name: str, cls, seed: int, seconds: float):
    setup_s, setup_raw, sx, workload = _setup(cls, seed, cls.setup_reps)
    tracer = NullTracer()
    workload.cycle(tracer)  # warm-up: caches fill, lazy set-up finishes
    peak_rss = _peak_rss_mib()  # before the harness pools its latency samples
    m = measure(lambda: workload.cycle(tracer), seconds, cls.cal, cls.cal_units)
    workload.close()
    metrics = {
        "ops_per_s": (m.ops_per_s, "ops/s"),
        "MiB_per_s": (m.mib_per_s, "MiB/s"),
        "op_p50_us": (m.p50_us, "us"),
        "op_p99_us": (m.p99_us, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_MiB": (peak_rss, "MiB"),
    }
    raw = {"ops_per_s": m.ops_per_s_raw, "MiB_per_s": m.mib_per_s_raw, "setup_s": setup_raw,
           "latency_samples": m.samples, "latency_windows": m.windows, "chunks": m.chunks}
    return metrics, raw, m.attempted, m.failed, m.cal_rate, sx


def _traced(name: str, cls, seed: int, seconds: float):
    _, _, sx, workload = _setup(cls, seed, 1)
    null = NullTracer()
    workload.cycle(null)  # warm-up; also the one cycle bytes_examined covers
    examined = workload.examined
    plain = measure(lambda: workload.cycle(null), seconds / 2, cls.cal, cls.cal_units)
    tracer = Tracer()
    traced = measure(lambda: workload.cycle(tracer), seconds / 2, cls.cal, cls.cal_units,
                     max_ops=TRACE_MAX_OPS)
    workload.close()

    metrics: dict[str, tuple[float, str]] = {}
    counts = tracer.counts()
    for fn in REGFILE_FNS:
        metrics[f"regfile.{fn}.calls"] = (counts.get(f"regfile.{fn}", 0), "count")
    self_ns = tracer.self_times()
    total = sum(self_ns.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_ns.get(layer, 0) / 1e6, "ms")
        metrics[f"{layer}.share"] = (self_ns.get(layer, 0) / total, "ratio")
    metrics["regfile.scratch_residue_frac"] = (workload.residue / workload.reads, "ratio")
    metrics["strops.bytes_examined"] = (examined, "count")
    metrics["trace_overhead_frac"] = (1.0 - traced.ops_per_s / plain.ops_per_s, "ratio")
    metrics["host.cal_rate"] = (plain.cal_rate, "1/s")
    metrics.update(run_ladder(sx, seed, max(0.002, seconds * 0.005)))

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}-s{seed}.jsonl", "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    raw = {"ops_per_s_untraced": plain.ops_per_s, "ops_per_s_traced": traced.ops_per_s,
           "spans": len(tracer.spans)}
    return (metrics, raw, plain.attempted + traced.attempted, plain.failed + traced.failed,
            plain.cal_rate, sx)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same string hashes, hence the same dict layouts, in every run.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cls = WORKLOADS[args.workload]
    try:
        run = _traced if args.trace else _gated
        metrics, raw, attempted, failed, cal_rate, sx = run(
            args.workload, cls, args.seed, args.seconds)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0
    fingerprint = _fingerprint(sx, cls, args.seed, cal_rate)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for key, (value, unit) in metrics.items():
        note = f"  (raw {raw[key]:.6g})" if key in raw else ""
        print(f"{key:44s} {value:16.6g} {unit}{note}")
    print(f"{'failed_frac':44s} {failed / attempted:16.6g} ratio  "
          f"({failed} of {attempted})")
    if "latency_samples" in raw:
        print(f"latency percentiles over {raw['latency_samples']} ops "
              f"in {raw['latency_windows']} windows, {raw['chunks']} cycles")

    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "trace": args.trace, "fingerprint": fingerprint,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "raw": raw, "attempted": attempted, "failed": failed}
    with open(OUT / f"report-{args.workload}-s{args.seed}-t{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=2)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 3


if __name__ == "__main__":
    sys.exit(main())
