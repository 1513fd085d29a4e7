#!/usr/bin/env python3
"""Compare sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py SET_A [SET_B]

Each SET is a directory of result files written by run.py with --trace 0
(copy perfbench/out/ aside after each set).  For every workload and
end-to-end metric it prints the median, the quartiles and the spread, the
distance between the quartiles as a share of the median.  With two sets it
also prints how much worse SET_B's median is than SET_A's, as a share of
SET_A's.  A spread above the metric's bound (setup_s excepted) or a median
worse by more than the bound is marked FAIL, and the exit code is then 1;
a spread above a third of the bound is marked "wide".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """workload -> metric -> values, from the untraced full-size results."""
    values: dict = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text())
        per = values.setdefault(result["environment"]["workload"], {})
        for name, metric in result["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    failed = False
    for workload in sorted(sets[0]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"{workload:15s} {name:13s}"
            medians = []
            for values in sets:
                runs = values.get(workload, {}).get(name, [])
                if len(runs) < 2:
                    line += f" | {len(runs)} runs"
                    medians.append(None)
                    continue
                median, q1, q3, share = spread(runs)
                medians.append(median)
                mark = ""
                if share > bound and name != "setup_s":
                    mark, failed = " FAIL", True
                elif share > bound / 3:
                    mark = " wide"
                line += (f" | n={len(runs)} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g}"
                         f" spread {share:.3f}{mark}")
            if len(medians) == 2 and None not in medians:
                a, b = medians
                worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
                mark = ""
                if worse > bound:
                    mark, failed = " FAIL", True
                line += f" | B worse by {worse:+.3f} (bound {bound}){mark}"
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
