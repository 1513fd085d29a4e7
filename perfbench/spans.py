"""Span tracer for the traced run.

The tracer wraps the public functions of every openpack module from outside
the package and rebinds each wrapper at every place the original is bound:
module globals (``harness`` and ``solvers`` copy names with ``from .x import
y``), module-level dicts such as ``harness.SINGLE_CHECKS``, and the package
namespace.  Nothing under ``src/`` changes.

Spans are kept in parallel arrays (name, start, end, parent, item) and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children, which for properly nested single-threaded
spans is exactly the time its children cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from array import array
from collections import Counter
from pathlib import Path

# Layer of each module, named as the per-layer metrics name them.
LAYER_OF_MODULE = {
    "openpack.cli": "cli",
    "openpack.harness": "harness",
    "openpack.graph": "graph",
    "openpack.formats": "formats",
    "openpack.transforms": "transforms",
    "openpack.products": "products",
    "openpack.solvers": "solvers",
    "openpack.constructions": "constructions",
}

# Private functions that carry a layer's work and so get spans of their own.
PRIVATE_SPANS = {
    "openpack.solvers": ("_min_cover", "_is_proper_coloring", "_is_independent"),
}

GRAPH_INVARIANTS = frozenset(
    f"graph.{name}" for name in (
        "max_degree", "min_degree", "is_connected", "is_bipartite", "is_tree",
        "eccentricity", "diameter", "is_isomorphic",
    )
)
CERT_CHECKS = frozenset(
    f"solvers.{name}" for name in (
        "is_opp", "is_open_packing", "is_packing", "_is_proper_coloring", "_is_independent",
    )
)
CONSTRUCT = "graph.Graph.__init__"
EMIT = "harness.TheoremCheckResult.to_json"
FACTS = "harness.GraphFacts.__init__"
CHROMATIC = "kernels.chromatic_number"
MIS = "kernels.max_independent_set"

# name -> unit, in report order
PER_LAYER_UNITS = {
    "graph.construct_calls": "count",
    "graph.construct_s": "s",
    "graph.invariant_s": "s",
    "graph.self_s": "s",
    "formats.calls": "count",
    "formats.self_s": "s",
    "transforms.calls": "count",
    "transforms.self_s": "s",
    "products.calls": "count",
    "products.self_s": "s",
    "kernels.chromatic_calls": "count",
    "kernels.chromatic_s": "s",
    "kernels.mis_calls": "count",
    "kernels.mis_s": "s",
    "kernels.repeat_ratio": "ratio",
    "kernels.max_n": "vertices",
    "solvers.cert_check_calls": "count",
    "solvers.cert_check_s": "s",
    "solvers.domination_calls": "count",
    "solvers.domination_s": "s",
    "solvers.self_s": "s",
    "constructions.tree_opp_calls": "count",
    "constructions.self_s": "s",
    "harness.instances": "count",
    "harness.self_s": "s",
    "harness.facts_built": "count",
    "harness.facts_distinct": "count",
    "harness.facts_reuse_ratio": "ratio",
    "harness.reverify_calls": "count",
    "harness.reverify_s": "s",
    "harness.emit_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans while ``active``; inactive wrappers call straight through."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.stack = [-1]
        self.current_item = -1
        self.active = False
        self.kernel_inputs: set = set()
        self.kernel_repeats = 0
        self.kernel_max_n = 0
        self.facts_graphs: set = set()
        self.facts_built = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args)`` runs ahead of the span, so counting inputs is not
        charged to the layer.
        """
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter
        names, starts, ends = self.name_col, self.start, self.end
        parents, items, stack = self.parent, self.item, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.current_item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    # -- counting hooks --------------------------------------------------

    def _kernel_counter(self, kind: str):
        def count(args) -> None:
            n, adj = args[0], args[1]
            key = (kind, n, tuple(adj))
            if key in self.kernel_inputs:
                self.kernel_repeats += 1
            else:
                self.kernel_inputs.add(key)
            if n > self.kernel_max_n:
                self.kernel_max_n = n
        return count

    def _count_facts(self, args) -> None:
        g = args[1]
        self.facts_built += 1
        self.facts_graphs.add((g.n, g.adj))

    def _next_instance(self, args) -> None:
        self.current_item += 1

    # -- installation ----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the layer functions of the imported openpack ``modules``
        (name -> module) and rebind the wrappers at every binding site."""
        replace: dict[int, object] = {}
        for mod_name, layer in LAYER_OF_MODULE.items():
            module = modules[mod_name]
            private = PRIVATE_SPANS.get(mod_name, ())
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                if attr.startswith("_") and attr not in private:
                    continue
                if inspect.isgeneratorfunction(obj) or id(obj) in replace:
                    # a generator's span would time only its creation; an alias
                    # (transforms.square) keeps the first name's wrapper
                    continue
                before = self._next_instance if attr == "evaluate_instance" else None
                replace[id(obj)] = self.wrap(f"{layer}.{attr}", obj, before)

        kernel = modules["openpack.solvers"]._kernel
        replace[id(kernel.chromatic_number)] = self.wrap(
            CHROMATIC, kernel.chromatic_number, self._kernel_counter("chromatic"))
        replace[id(kernel.max_independent_set)] = self.wrap(
            MIS, kernel.max_independent_set, self._kernel_counter("mis"))

        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    setattr(module, attr, replace[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if id(value) in replace:
                            obj[key] = replace[id(value)]

        graph_cls = modules["openpack.graph"].Graph
        graph_cls.__init__ = self.wrap(CONSTRUCT, graph_cls.__init__)
        harness = modules["openpack.harness"]
        harness.GraphFacts.__init__ = self.wrap(
            FACTS, harness.GraphFacts.__init__, self._count_facts)
        row_cls = harness.TheoremCheckResult
        row_cls.to_json = self.wrap(EMIT, row_cls.to_json)

    # -- results ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV: item, parent, name, start and end in
        microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span\titem\tparent\tname\tstart_us\tend_us\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.item[i]}\t{self.parent[i]}\t{names[self.name_col[i]]}\t"
                    f"{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\n"
                )

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded."""
        count = len(self.start)
        names = [self.names[i] for i in self.name_col]
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_time = [dur[i] - child[i] for i in range(count)]
        parent_name = [names[self.parent[i]] if self.parent[i] >= 0 else "" for i in range(count)]

        calls: Counter[str] = Counter()
        layer_calls: Counter[str] = Counter()
        layer_self: Counter[str] = Counter()
        total: Counter[str] = Counter()
        invariant_s = cert_s = 0.0
        cert_calls = 0
        for i, name in enumerate(names):
            layer = name.split(".", 1)[0]
            calls[name] += 1
            layer_calls[layer] += 1
            layer_self[layer] += self_time[i]
            total[name] += dur[i]
            if name in GRAPH_INVARIANTS and parent_name[i] not in GRAPH_INVARIANTS:
                invariant_s += dur[i]
            if name in CERT_CHECKS:
                cert_calls += 1
                if parent_name[i] not in CERT_CHECKS:
                    cert_s += dur[i]

        kernel_calls = calls[CHROMATIC] + calls[MIS]
        built = self.facts_built
        reverify = "harness.reverify_violation"
        values = {
            "graph.construct_calls": calls[CONSTRUCT],
            "graph.construct_s": total[CONSTRUCT],
            "graph.invariant_s": invariant_s,
            "graph.self_s": layer_self["graph"],
            "formats.calls": layer_calls["formats"],
            "formats.self_s": layer_self["formats"],
            "transforms.calls": layer_calls["transforms"],
            "transforms.self_s": layer_self["transforms"],
            "products.calls": layer_calls["products"],
            "products.self_s": layer_self["products"],
            "kernels.chromatic_calls": calls[CHROMATIC],
            "kernels.chromatic_s": total[CHROMATIC],
            "kernels.mis_calls": calls[MIS],
            "kernels.mis_s": total[MIS],
            "kernels.repeat_ratio": (self.kernel_repeats / kernel_calls
                                     if kernel_calls else 0.0),
            "kernels.max_n": self.kernel_max_n,
            "solvers.cert_check_calls": cert_calls,
            "solvers.cert_check_s": cert_s,
            "solvers.domination_calls": calls["solvers._min_cover"],
            "solvers.domination_s": total["solvers._min_cover"],
            "solvers.self_s": layer_self["solvers"],
            "constructions.tree_opp_calls": calls["constructions.tree_opp"],
            "constructions.self_s": layer_self["constructions"],
            "harness.instances": calls["harness.evaluate_instance"],
            "harness.self_s": layer_self["harness"],
            "harness.facts_built": built,
            "harness.facts_distinct": len(self.facts_graphs),
            "harness.facts_reuse_ratio": (built - len(self.facts_graphs)) / built if built else 0.0,
            "harness.reverify_calls": calls[reverify],
            "harness.reverify_s": total[reverify],
            "harness.emit_s": total[EMIT],
            "cli.self_s": layer_self["cli"],
            "trace.overhead_s": overhead_s,
        }
        return values
