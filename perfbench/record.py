#!/usr/bin/env python3
"""Record the benchmark's expected outputs into perfbench/expected.json.

    python3 perfbench/record.py

Runs the workloads' exact commands once through ``openpack.cli.main`` and
the library, and stores what the benchmark checks each run against: the
sweep's per-slice row counts and sha256 digests (cut from one ``verify
--all-upto 6`` run, so the slices reproduce that run's rows exactly), the
product-grid calls' exit codes, counts and digests, and the medium graphs
with their invariant values.  The full-size sets also assert the counts the
benchmark was defined with.  Re-record only when a change of output is
intended, and say so where the change is reviewed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from openpack import cli, graph, products, solvers  # noqa: E402
from openpack.formats import to_graph6  # noqa: E402

from workloads import SWEEP_THEOREMS, instance_of  # noqa: E402

SIZES = {
    "full": {
        "sweep_upto": 6, "sweep_slices": 64,
        "product_calls": [["T4,T5", "4", "4"], ["T7", "4", "3"]],
        "tree_n_max": 500,
        "medium": [(n, p, s) for n in (40, 48, 56) for p in (0.1, 0.2, 0.3, 0.5) for s in range(3)],
        "corona_h": 3,
    },
    "smoke": {
        "sweep_upto": 4, "sweep_slices": 4,
        "product_calls": [["T4,T5", "3", "3"], ["T7", "3", "2"]],
        "tree_n_max": 30,
        "medium": [(12, p, s) for p in (0.3, 0.5) for s in range(2)],
        "corona_h": 1,
    },
}


def run(argv: list[str]) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue().splitlines(keepends=True)


def summary(rc: int, rows: list[str], instances: int) -> dict:
    return {
        "rc": rc,
        "instances": instances,
        "rows": len(rows),
        "violated": sum('"verdict":"violated"' in row for row in rows),
        "sha256": hashlib.sha256("".join(rows).encode("ascii")).hexdigest(),
    }


def by_instance(rows: list[str]) -> list[list[str]]:
    blocks: list[list[str]] = []
    last = None
    for row in rows:
        key = instance_of(row)
        if key != last:
            blocks.append([])
            last = key
        blocks[-1].append(row)
    return blocks


def record_sweep(upto: int, k: int) -> dict:
    argv = ["verify", "--theorem", SWEEP_THEOREMS, "--all-upto", str(upto)]
    rc, rows = run(argv)
    blocks = by_instance(rows)
    slices = []
    for j in range(k):
        part = blocks[j::k]
        flat = [row for block in part for row in block]
        violated = sum('"verdict":"violated"' in row for row in flat)
        slices.append(summary(1 if violated else 0, flat, len(part)))
    out = {"command": argv, "upto": upto, "slices": slices}
    out.update(summary(rc, rows, len(blocks)))
    return out


def record_products(calls: list[list[str]]) -> dict:
    out = []
    for theorems, max_g, max_h in calls:
        argv = ["verify", "--theorem", theorems, "--pair-grid", max_g, max_h]
        rc, rows = run(argv)
        out.append({"argv": argv, **summary(rc, rows, len(by_instance(rows)))})
    return {"calls": out}


def record_medium(specs, corona_h: int) -> dict:
    named = [(f"G({n},{p},{s})", graph.random_graph(n, p, s)) for n, p, s in specs]
    star_corona, _ = products.corona(graph.star(4), graph.Graph(corona_h, (0,) * corona_h))
    named.append((f"corona(K1_3,{corona_h}K1)", star_corona))
    return {"graphs": [
        {"label": label, "graph6": to_graph6(g), "values": solvers.full_report(g).values}
        for label, g in named
    ]}


def main() -> int:
    expected = {}
    for size, spec in SIZES.items():
        expected[size] = {
            "sweep-n6": record_sweep(spec["sweep_upto"], spec["sweep_slices"]),
            "product-grid": record_products(spec["product_calls"]),
            "tree-corpus": {"n_max": spec["tree_n_max"]},
            "medium-reports": record_medium(spec["medium"], spec["corona_h"]),
        }
    full = expected["full"]
    sweep = full["sweep-n6"]
    if (sweep["instances"], sweep["rows"], sweep["violated"], sweep["rc"]) != (33867, 338667, 0, 0):
        raise SystemExit(f"sweep-n6 drifted from its definition: {sweep}")
    got = [(c["rc"], c["instances"], c["rows"], c["violated"]) for c in full["product-grid"]["calls"]]
    if got != [(0, 5625, 21916, 0), (1, 825, 825, 80)]:
        raise SystemExit(f"product-grid drifted from its definition: {got}")
    if len(full["medium-reports"]["graphs"]) != 37:
        raise SystemExit("medium-reports must hold 37 graphs")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
