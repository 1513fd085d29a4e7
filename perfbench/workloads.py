"""The benchmark's workloads: inputs made from the seed, units of work, the
timed calls into openpack, and the checks on every output.

A workload is a sequence of units.  A run picks its units in the order the
seed gives and runs them in several passes; each unit is checked as it
completes.
Every unit is timed around calls into openpack's public entry points only:
``openpack.cli.main`` in-process with stdout captured in memory, or the
library functions.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import signal
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

# How long the reference work takes, in CPU seconds, at the reference speed:
# roughly its fastest on a 2-vCPU Intel Xeon virtual machine with Python 3.11.
REF_NOMINAL_S = 250e-6
REF_LOOPS = 400
CALIBRATE_EVERY_S = 0.02  # CPU time between calibrations
CALIBRATION_SAMPLES = 3   # the scale uses the median of the last few


def reference_work() -> int:
    """A fixed piece of pure-Python work in openpack's style: shifts, masks and
    popcounts on a 500-bit integer, small-int arithmetic and dict stores.  It
    calls nothing in openpack, so its speed is the machine's alone."""
    mask = (1 << 500) - 1
    acc = 0
    seen = {}
    for i in range(REF_LOOPS):
        m = mask >> (i & 255)
        acc += (m & -m).bit_length() + (m.bit_count() * 7) % 5
        seen[i & 31] = acc
    return acc


class ReferenceClock:
    """The CPU time of the benchmark's thread, scaled to a fixed reference speed.

    openpack runs in that thread and the process has no other.  (Not the
    process's CPU clock: while a process-wide CPU timer is armed, Linux reads
    that clock from totals it updates only at scheduler ticks.)
    CPU time already leaves out the time the process waits for a CPU, behind
    other processes or while the hypervisor runs another guest.  What remains
    on a shared host is that the core itself runs slower, by up to 1.6x, while
    a neighbour loads it; those phases last from a tenth of a second to
    minutes.  So once started, a CPU-time interval timer (SIGPROF) makes the
    clock time ``reference_work`` every CALIBRATE_EVERY_S of CPU time,
    wherever the program is, and from then on count CPU time multiplied by
    REF_NOMINAL_S over the median of the last CALIBRATION_SAMPLES reference
    times.  A timing then reads what it would on a machine where the reference
    work takes REF_NOMINAL_S: a change to openpack moves it, a change in the
    machine's speed mostly does not.  The calibration's own time is left out
    of the clock."""

    def __init__(self) -> None:
        self.cpu = time.thread_time
        self.samples: deque[float] = deque(maxlen=CALIBRATION_SAMPLES)
        self.scales: list[float] = []  # every scale used, for the run's notes
        # (reading, CPU time, scale) as of the last calibration; one tuple, so
        # that a reading never mixes two calibrations
        self.state = (0.0, self.cpu(), 1.0)
        self.calibrating = False

    def __call__(self) -> float:
        base, base_cpu, scale = self.state
        return base + (self.cpu() - base_cpu) * scale

    def calibrate(self, *_signal) -> None:
        if self.calibrating:
            return
        self.calibrating = True
        base, base_cpu, old_scale = self.state
        start = self.cpu()
        reference_work()
        end = self.cpu()
        self.samples.append(end - start)
        scale = REF_NOMINAL_S / statistics.median(self.samples)
        self.scales.append(scale)
        self.state = (base + (start - base_cpu) * old_scale, end, scale)
        self.calibrating = False

    def start(self) -> None:
        for _ in range(CALIBRATION_SAMPLES):
            self.calibrate()
        signal.signal(signal.SIGPROF, self.calibrate)
        signal.setitimer(signal.ITIMER_PROF, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


# one per process: SIGPROF and its interval timer are process-wide
clock = ReferenceClock()

SWEEP_THEOREMS = "T1,T2,T3,T9,T13,T14"
TREE_CONFIRM_N = 12     # trees this small also get the exact solver
TREE_SMALL_REPEAT = 10  # trees per small n in one unit (C5 confirms 200 per n)


@dataclass
class UnitResult:
    seconds: float                       # time inside openpack calls
    latencies: list[float] = field(default_factory=list)  # one per item
    attempted: int = 0
    failed: int = 0
    digest: str = ""                     # sha256 of the unit's outputs


def report_failure(unit, what: str) -> None:
    print(f"FAILED unit {unit}: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# CLI units: verify rows captured in memory


def instance_of(row: str) -> str:
    """The row's instance field: rows are JSON with sorted keys, so they open
    with it."""
    return row[:row.find(',"lhs"')]


class RowSink:
    """Stands in for stdout.  Hashes what the CLI writes, counts rows and
    violated rows, and stamps the time of each instance's last row, which
    gives per-instance latency without touching the program."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.rows = 0
        self.violated = 0
        self.ends: list[float] = []
        self._instance = None

    def write(self, text: str) -> int:
        now = clock()
        self.sha.update(text.encode("ascii"))
        self.rows += text.count("\n")
        if '"verdict":"violated"' in text:
            self.violated += 1
        instance = instance_of(text)
        if instance != self._instance:
            self._instance = instance
            self.ends.append(now)
        else:
            self.ends[-1] = now
        return len(text)

    def flush(self) -> None:
        pass


def run_cli(op, argv: list[str], stdin_text: str | None, tracer):
    """Run ``openpack.cli.main(argv)`` in-process; return (rc, sink, start, seconds).

    rc is None if the call raised."""
    sink = RowSink()
    if tracer is not None:
        sink.write = tracer.wrap("bench.write", sink.write)
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    rc = None
    start = clock()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is not None:
                tracer.active = True
            try:
                rc = op.cli.main(argv)
            finally:
                if tracer is not None:
                    tracer.active = False
    except (Exception, SystemExit):  # a failed call is counted, the run goes on
        traceback.print_exc()
    finally:
        seconds = clock() - start
        sys.stdin = saved_stdin
    return rc, sink, start, seconds


def check_cli(unit, rc, sink, expect: dict) -> bool:
    got = {"rc": rc, "instances": len(sink.ends), "rows": sink.rows,
           "violated": sink.violated, "sha256": sink.sha.hexdigest()}
    want = {key: expect[key] for key in got}
    if got != want:
        report_failure(unit, f"got {got}, expected {want}")
        return False
    return True


def instance_latencies(start: float, ends: list[float]) -> list[float]:
    out, prev = [], start
    for end in ends:
        out.append(end - prev)
        prev = end
    return out


# ---------------------------------------------------------------------------
# Independent certificate checks on adjacency masks


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def labels_distinct_on_neighborhoods(adj, labels) -> bool:
    """Open packing partition: no vertex sees one label twice among its neighbors."""
    for mask in adj:
        seen = [labels[u] for u in bits(mask)]
        if len(seen) != len(set(seen)):
            return False
    return True


def proper_coloring(adj, labels) -> bool:
    return all(labels[u] != labels[v] for v, mask in enumerate(adj) for u in bits(mask))


def closed_packing(adj, mask: int) -> bool:
    return all(((m | 1 << v) & mask).bit_count() <= 1 for v, m in enumerate(adj))


def open_packing(adj, mask: int) -> bool:
    return all((m & mask).bit_count() <= 1 for m in adj)


def dominating(adj, mask: int) -> bool:
    return all((m | 1 << v) & mask for v, m in enumerate(adj))


def total_dominating(adj, mask: int) -> bool:
    return all(m & mask for m in adj)


def common_neighbor_clique(adj, mask: int) -> bool:
    members = list(bits(mask))
    return all(adj[u] & adj[v] for i, u in enumerate(members) for v in members[i + 1:])


def uses_labels(labels, k: int) -> bool:
    return set(labels) == set(range(1, k + 1))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    passes = 5         # an item's latency is its median over the passes
    pass_units = None  # units in one pass; None: as many as fit the pass's time
    smoke_units = 1    # units in one pass of a smoke run

    def prepare(self, op, seed: int) -> None:
        """Build the inputs (timed as set-up)."""

    def unit_order(self, seed: int):
        """Endless iterator over units in the seed's order."""
        raise NotImplementedError

    def trace_units(self, seed: int) -> list:
        """The fixed units a traced run covers."""
        raise NotImplementedError

    def run_unit(self, op, unit, tracer=None) -> UnitResult:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError


def cycle_shuffled(items: list, seed: int):
    rng = random.Random(seed)
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


class SweepN6(Workload):
    """``verify --theorem T1,T2,T3,T9,T13,T14`` over every labeled graph with
    n <= 6, fed as interleaved graph6 slices through ``--g6-file -``."""

    name = "sweep-n6"
    trace_slice_count = 8

    def __init__(self, expect: dict, smoke: bool):
        self.expect = expect
        self.upto = expect["upto"]
        self.slices = len(expect["slices"])
        if smoke:
            self.trace_slice_count = self.smoke_units = self.slices

    def prepare(self, op, seed):
        lines = [op.formats.to_graph6(g) for g in op.harness.all_graphs_upto(self.upto)]
        self.texts = ["".join(line + "\n" for line in lines[j::self.slices])
                      for j in range(self.slices)]

    def unit_order(self, seed):
        return cycle_shuffled(range(self.slices), seed)

    def trace_units(self, seed):
        order = self.unit_order(seed)
        return [next(order) for _ in range(self.trace_slice_count)]

    def run_unit(self, op, unit, tracer=None):
        expect = self.expect["slices"][unit]
        argv = ["verify", "--theorem", SWEEP_THEOREMS, "--g6-file", "-"]
        rc, sink, start, seconds = run_cli(op, argv, self.texts[unit], tracer)
        ok = check_cli(f"{self.name}/{unit}", rc, sink, expect)
        return UnitResult(seconds, instance_latencies(start, sink.ends),
                          expect["instances"], 0 if ok else expect["instances"],
                          sink.sha.hexdigest())

    def sizes(self):
        return {"graphs_upto_n": self.upto, "instances": self.expect["instances"],
                "rows": self.expect["rows"], "slices": self.slices,
                "trace_slices": self.trace_slice_count}


class ProductGrid(Workload):
    """``verify --theorem T4,T5 --pair-grid 4 4`` then ``verify --theorem T7
    --pair-grid 4 3``; one unit is both calls.  The corpora are exhaustive, so
    the seed changes nothing here."""

    name = "product-grid"
    passes = 3         # one pass is about 10 s
    pass_units = 1

    def __init__(self, expect: dict, smoke: bool):
        self.calls = expect["calls"]

    def unit_order(self, seed):
        while True:
            yield 0

    def trace_units(self, seed):
        return [0]

    def run_unit(self, op, unit, tracer=None):
        result = UnitResult(0.0)
        sha = hashlib.sha256()
        for expect in self.calls:
            rc, sink, start, seconds = run_cli(op, expect["argv"], None, tracer)
            ok = check_cli(f"{self.name}/{' '.join(expect['argv'])}", rc, sink, expect)
            result.seconds += seconds
            result.latencies += instance_latencies(start, sink.ends)
            result.attempted += expect["instances"]
            result.failed += 0 if ok else expect["instances"]
            sha.update(sink.sha.digest())
        result.digest = sha.hexdigest()
        return result

    def sizes(self):
        return {"calls": [" ".join(c["argv"]) for c in self.calls],
                "instances": sum(c["instances"] for c in self.calls),
                "rows": sum(c["rows"] for c in self.calls)}


class TreeCorpus(Workload):
    """C5's library path, cut down: seeded random trees for every n in
    2..n_max, each given ``tree_opp`` and ``is_opp``; the small ones also get
    the exact solver.  Unit i holds one tree per n (ten per n <= 12)."""

    name = "tree-corpus"
    trace_unit_count = 4

    def __init__(self, expect: dict, smoke: bool):
        self.n_max = expect["n_max"]
        if smoke:
            self.trace_unit_count = 1

    def unit_order(self, seed):
        i = 0
        while True:
            yield i % 100  # keeps 10 * i + j below the 1000-wide seed band of each n
            i += 1

    def trace_units(self, seed):
        return list(range(self.trace_unit_count))

    def items(self, seed: int, unit: int):
        for n in range(2, self.n_max + 1):
            reps = TREE_SMALL_REPEAT if n <= TREE_CONFIRM_N else 1
            for j in range(reps):
                yield n, seed + 1000 * n + TREE_SMALL_REPEAT * unit + j

    def prepare(self, op, seed):
        self.seed = seed

    def run_unit(self, op, unit, tracer=None):
        pkg = op.pkg
        result = UnitResult(0.0)
        sha = hashlib.sha256()
        for n, tree_seed in self.items(self.seed, unit):
            result.attempted += 1
            po = None
            if tracer is not None:
                tracer.current_item += 1
                tracer.active = True
            start = clock()
            try:
                t = pkg.random_tree(n, tree_seed)
                lab = pkg.tree_opp(t)
                valid = pkg.is_opp(t, lab) and lab.k == pkg.max_degree(t)
                if n <= TREE_CONFIRM_N:
                    po, po_lab = pkg.open_packing_partition_number(t)
            except Exception:  # counted as a failed item
                traceback.print_exc()
                result.failed += 1
                continue
            finally:
                elapsed = clock() - start
                if tracer is not None:
                    tracer.active = False
                result.seconds += elapsed
                result.latencies.append(elapsed)
            delta = max(mask.bit_count() for mask in t.adj)
            ok = (valid and t.n == n and t.m == n - 1 and lab.k == delta
                  and uses_labels(lab.labels, lab.k)
                  and labels_distinct_on_neighborhoods(t.adj, lab.labels))
            if po is not None:
                ok = ok and po == delta and labels_distinct_on_neighborhoods(t.adj, po_lab.labels)
            if not ok:
                report_failure(f"{self.name}/{unit}", f"tree n={n} seed={tree_seed}")
                result.failed += 1
            sha.update(repr((n, tree_seed, lab.labels, lab.k, po)).encode())
        result.digest = sha.hexdigest()
        return result

    def sizes(self):
        per_unit = sum(1 for _ in self.items(0, 0))
        return {"n_range": [2, self.n_max], "trees_per_unit": per_unit,
                "solver_confirmed_n_max": TREE_CONFIRM_N,
                "trace_units": self.trace_unit_count}


class MediumReports(Workload):
    """``full_report`` (the ``invariant --what all`` path) on the recorded
    medium graphs; the one unit is every graph once, in an order drawn from
    the seed."""

    name = "medium-reports"
    passes = 4         # one pass is about 7.5 s
    pass_units = 1

    def __init__(self, expect: dict, smoke: bool):
        self.entries = expect["graphs"]

    def prepare(self, op, seed):
        self.graphs(op)  # parsing the recorded graphs is the set-up work
        self.seed = seed

    def graphs(self, op) -> list:
        return [op.formats.parse_graph6(e["graph6"]) for e in self.entries]

    def unit_order(self, seed):
        while True:
            yield 0

    def trace_units(self, seed):
        return [0]

    def run_unit(self, op, unit, tracer=None):
        solvers = op.solvers
        graphs = self.graphs(op)
        order = list(range(len(graphs)))
        random.Random(self.seed).shuffle(order)
        result = UnitResult(0.0)
        sha = hashlib.sha256()
        for idx in order:
            g, expect = graphs[idx], self.entries[idx]
            result.attempted += 1
            if tracer is not None:
                tracer.current_item += 1
                tracer.active = True
            start = clock()
            try:
                report = solvers.full_report(g, with_certificates=True)
            except Exception:  # counted as a failed item
                traceback.print_exc()
                result.failed += 1
                continue
            finally:
                elapsed = clock() - start
                if tracer is not None:
                    tracer.active = False
                result.seconds += elapsed
                result.latencies.append(elapsed)
            if not self.report_ok(solvers, g, report, expect["values"]):
                report_failure(f"{self.name}/{expect['label']}",
                               f"values {report.values}, expected {expect['values']}")
                result.failed += 1
            sha.update(repr((expect["label"], sorted(report.values.items()))).encode())
        result.digest = sha.hexdigest()
        return result

    @staticmethod
    def report_ok(solvers, g, report, values: dict) -> bool:
        """Values equal the recorded ones and every certificate proves its value.

        Explicit checks, so ``python -O`` cannot skip them."""
        if report.values != values:
            return False
        adj, certs = g.adj, report.certificates
        chi, po, chi2 = certs["chi"], certs["p_o"], certs["chi2"]
        checks = [
            chi.k == values["chi"] and proper_coloring(adj, chi.labels),
            po.k == values["p_o"] and solvers.is_opp(g, po),
            labels_distinct_on_neighborhoods(adj, po.labels),
            chi2.k == values["chi2"],
            all(solvers.is_packing(g, mask) and closed_packing(adj, mask)
                for mask in chi2.classes()),
            certs["rho"].size == values["rho"] and solvers.is_packing(g, certs["rho"]),
            closed_packing(adj, certs["rho"].bits),
            certs["rho_o"].size == values["rho_o"] and solvers.is_open_packing(g, certs["rho_o"]),
            open_packing(adj, certs["rho_o"].bits),
            certs["gamma"].size == values["gamma"] and dominating(adj, certs["gamma"].bits),
            certs["omega_N"].size == values["omega_N"]
            and common_neighbor_clique(adj, certs["omega_N"].bits),
        ]
        for lab in (chi, po, chi2):
            checks.append(uses_labels(lab.labels, lab.k) and len(lab.labels) == g.n)
        if "gamma_t" in values:
            checks.append(certs["gamma_t"].size == values["gamma_t"]
                          and total_dominating(adj, certs["gamma_t"].bits))
        return all(checks)

    def sizes(self):
        return {"graphs": [e["label"] for e in self.entries], "graphs_per_unit": len(self.entries)}


WORKLOADS = {cls.name: cls for cls in (SweepN6, ProductGrid, TreeCorpus, MediumReports)}
