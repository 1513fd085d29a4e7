"""The benchmark's span tracer still binds to openpack.

``perfbench/spans.py`` wraps openpack's functions from outside the package
and rebinds the wrappers wherever the originals are bound, so a refactor can
silently leave a layer unmeasured.  The tracer runs in a subprocess, so its
rebinding cannot leak into other tests.
"""

import json
import textwrap
from pathlib import Path

from conftest import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

TRACED_RUN = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path.insert(0, {perfbench!r})
    import openpack.cli
    from spans import Tracer
    from openpack import cli, graph, products, solvers

    tracer = Tracer()
    tracer.install({{name: mod for name, mod in sys.modules.items()
                    if name == "openpack" or name.startswith("openpack.")}})
    tracer.active = True
    solvers.full_report(graph.random_graph(9, 0.4, 0))
    tracer.active = False
    report = tracer.layer_metrics(0.0)
    g, h = graph.path(3), graph.path(2)
    tracer.active = True
    products.strong(g, h)
    tracer.active = False
    with_strong = tracer.layer_metrics(0.0)
    tracer.active = True
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--theorem", "T1", "--all-n", "3"])
        cli.main(["verify", "--theorem", "T4", "--pair-grid", "2", "2"])
    tracer.active = False
    print(json.dumps({{"report": report, "with_strong": with_strong,
                      "all": tracer.layer_metrics(0.0)}}))
""").format(perfbench=str(PERFBENCH))


def test_tracer_measures_every_layer():
    proc = run_python(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    report, everything = metrics["report"], metrics["all"]
    # one full_report composes once: the square is the rows OR the two-step rows
    assert report["transforms.calls"] == 1
    assert report["kernels.chromatic_calls"] == 3
    assert report["kernels.mis_calls"] == 3
    # one strong product is one products call; it builds its graph trusted,
    # so it never runs the validating constructor
    strong = {name: metrics["with_strong"][name] - report[name]
              for name in ("products.calls", "graph.construct_calls")}
    assert strong == {"products.calls": 1, "graph.construct_calls": 0}
    # the two verify runs' kernel calls, exactly: the kernel's private
    # component split must neither add nor hide a traced call
    verify = {name: everything[name] - metrics["with_strong"][name]
              for name in ("kernels.chromatic_calls", "kernels.mis_calls")}
    assert verify == {"kernels.chromatic_calls": 23, "kernels.mis_calls": 8}
    for name in ("harness.facts_built", "kernels.chromatic_calls", "products.calls",
                 "solvers.cert_check_calls", "solvers.domination_calls"):
        assert everything[name] > 0, name
