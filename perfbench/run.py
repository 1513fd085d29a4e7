#!/usr/bin/env python3
"""openpack benchmark: fixed workloads, end-to-end metrics, traced per-layer attribution.

    python3 perfbench/run.py --workload sweep-n6 --seed 1 --seconds 12 --trace 0

Workloads: sweep-n6, product-grid, tree-corpus, medium-reports (perfbench/NOTES.md
says why each was chosen and which layer metrics should move it).

With ``--trace 0`` the run makes several passes over one set of units
(``Workload.passes``), each pass in a fresh import of openpack so that
nothing cached survives into the next.  The first pass picks units in the
seed's order until its share of ``--seconds`` is used (product-grid and
medium-reports have one fixed unit), and the later passes repeat them.
Each item's latency is its median over the passes, which keeps the numbers
steady on a machine whose speed drifts.  It reports the end-to-end
metrics: setup_s, items_per_s, item_p50_ms, item_tail_ms and peak_rss_mb.

With ``--trace 1`` it runs the workload's fixed trace units once untraced
and once, in a fresh import, with every openpack layer wrapped in spans; it
requires the two runs' output digests to be equal and reports the per-layer
metrics and the tracing overhead.
``--smoke`` runs tiny sizes.

Every output is checked.  The human-readable report goes to stdout first,
then one JSON line: {"correct", "attempted", "failed", "metrics"}.  The run
also writes that result, with its environment stamp, to
perfbench/out/<workload>-seed<seed>-trace<t>[-smoke].json, and a traced run
writes its spans next to it.  The exit code is 0 only if every output was
correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0
TAIL_CANDIDATES = (99, 90, 75)
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class Modules:
    """The freshly imported openpack modules, looked up at call time so that
    the traced run's rebinding takes effect."""

    def __init__(self, table: dict):
        self.table = table
        self.pkg = table["openpack"]
        self.cli = table["openpack.cli"]
        self.harness = table["openpack.harness"]
        self.formats = table["openpack.formats"]
        self.solvers = table["openpack.solvers"]


def drop_openpack() -> None:
    for name in [m for m in sys.modules if m == "openpack" or m.startswith("openpack.")]:
        del sys.modules[name]
    # the dropped modules are cyclic garbage: collect it now, not inside a timed call
    gc.collect()


def import_openpack() -> Modules:
    importlib.import_module("openpack")
    importlib.import_module("openpack.cli")
    return Modules({name: mod for name, mod in sys.modules.items()
                    if name == "openpack" or name.startswith("openpack.")})


def set_up(workload, seed: int) -> tuple[Modules, list[float]]:
    """Import openpack and build the inputs, at least SETUP_MIN_REPEATS times
    and for at least SETUP_MIN_SECONDS; the run goes on with the last import."""
    from workloads import clock

    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        drop_openpack()
        start = clock()
        op = import_openpack()
        workload.prepare(op, seed)
        times.append(clock() - start)
    return op, times


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(op: Modules, args, workload) -> dict:
    backend = op.solvers.kernel_backend()
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "kernel_backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "sizes": workload.sizes(),
    }
    if backend == "python":
        stamp["note"] = ("pure-Python kernels: the compiled backend is not built, so every "
                         "number here is from openpack._kernels_py")
    return stamp


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond): the highest of TAIL_CANDIDATES
    with at least MIN_BEYOND samples beyond it, else the highest whole
    percentile that has them (p72 for 37 items), else the maximum."""
    ordered = sorted(latencies)
    count = len(ordered)
    for q in TAIL_CANDIDATES + tuple(range(TAIL_CANDIDATES[-1] - 1, 50, -1)):
        rank = -(-q * count // 100)  # nearest rank
        if count - rank >= MIN_BEYOND:
            return q, ordered[rank - 1], count - rank
    return 100, ordered[-1], 0


def timed_run(op, workload, args, setup_times) -> dict:
    from workloads import clock

    order = workload.unit_order(args.seed)
    per_pass = workload.smoke_units if args.smoke else workload.pass_units
    units, first = [], []
    begin = time.perf_counter()
    while not units or (len(units) < per_pass if per_pass
                        else time.perf_counter() - begin < args.seconds / workload.passes):
        units.append(next(order))
        first.append(workload.run_unit(op, units[-1]))
    passes = [first]
    for _ in range(workload.passes - 1):
        drop_openpack()
        op = import_openpack()
        passes.append([workload.run_unit(op, unit) for unit in units])
    measured = time.perf_counter() - begin

    # item k of unit u is the same input in every pass
    latencies = [statistics.median(samples)
                 for results in zip(*passes)
                 for samples in zip(*(r.latencies for r in results))]
    attempted = sum(r.attempted for results in passes for r in results)
    failed = sum(r.failed for results in passes for r in results)
    for unit, results in zip(units, zip(*passes)):
        if len({r.digest for r in results}) > 1:
            print(f"FAILED unit {workload.name}/{unit}: output differs between passes",
                  file=sys.stderr)
            failed += results[0].attempted
    scales = clock.scales
    q, tail_value, beyond = tail(latencies) if latencies else (100, 0.0, 0)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "item_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "item_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"{workload.passes} passes over {len(units)} units, {len(latencies)} items, "
        f"{measured:.3f} s; pass times "
        + ", ".join(f"{sum(r.seconds for r in results):.3f}" for results in passes),
        f"timings are CPU time scaled to the reference speed: {len(scales)} calibrations, "
        f"scale median {statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        "items_per_s is items / sum of item latencies; each latency is the item's median over the passes",
        f"item_tail_ms is p{q} of {len(latencies)} items, {beyond} beyond it",
        f"error_rate = {failed / attempted if attempted else 1.0:.6f} "
        f"({failed} failed / {attempted} attempted)",
    ]
    return {"metrics": metrics, "units": END_TO_END_UNITS, "attempted": attempted,
            "failed": failed, "correct": failed == 0 and attempted > 0, "notes": notes,
            "digests": [r.digest for r in first]}


def traced_run(op, workload, args) -> dict:
    from spans import PER_LAYER_UNITS, Tracer

    units = workload.trace_units(args.seed)
    plain = [workload.run_unit(op, unit) for unit in units]
    drop_openpack()
    op = import_openpack()
    tracer = Tracer()
    tracer.install(op.table)
    traced = [workload.run_unit(op, unit, tracer) for unit in units]

    attempted = sum(r.attempted for r in plain + traced)
    failed = sum(r.failed for r in plain + traced)
    mismatched = False
    for unit, a, b in zip(units, plain, traced):
        if a.digest != b.digest:
            print(f"FAILED unit {workload.name}/{unit}: traced output digest differs",
                  file=sys.stderr)
            failed += b.attempted
            mismatched = True
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics = tracer.layer_metrics(overhead_s=traced_s - plain_s)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{result_stem(args)}.spans.tsv.gz"
    tracer.write(spans_path)
    notes = [
        f"trace units {units}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s, "
        f"{tracer.span_count()} spans written to {spans_path.relative_to(ROOT)}",
        f"output digests of traced and untraced units equal: {not mismatched}",
        f"error_rate = {failed / attempted if attempted else 1.0:.6f} "
        f"({failed} failed / {attempted} attempted)",
    ]
    return {"metrics": metrics, "units": PER_LAYER_UNITS, "attempted": attempted,
            "failed": failed, "correct": failed == 0 and attempted > 0 and not mismatched,
            "notes": notes, "digests": [r.digest for r in traced]}


def result_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "openpack" / "__init__.py").is_file():
        print(f"error: no openpack sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, clock

    expected = json.loads((HERE / "expected.json").read_text())
    size = "smoke" if args.smoke else "full"
    workload = WORKLOADS[args.workload](expected[size][args.workload], args.smoke)
    clock.start()
    try:
        op, setup_times = set_up(workload, args.seed)
        if Path(op.pkg.__file__).resolve().parent != SRC / "openpack":
            print(f"error: imported openpack from {op.pkg.__file__}, not {SRC}", file=sys.stderr)
            return 2
        stamp = environment(op, args, workload)
        result = (traced_run(op, workload, args) if args.trace
                  else timed_run(op, workload, args, setup_times))
    finally:
        clock.stop()
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in result["units"].items()}

    print("environment " + json.dumps(stamp, sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    for note in result["notes"]:
        print(f"{workload.name} {note}")
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{result_stem(args)}.json").write_text(json.dumps(
        {"environment": stamp, "notes": result["notes"], "digests": result["digests"], **summary},
        indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
