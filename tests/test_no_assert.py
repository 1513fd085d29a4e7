"""Checks on the source tree: the library checks its certificates with
explicit code, never with ``assert``, which ``python -O`` strips; the CLI
exits the process only from its ``__main__`` block; the package builds its
own graphs through ``graph._trusted``, never the validating ``Graph``; no
module rebinds its globals; every row that asserts a relation is judged by
``harness._verdict``; and every error the package defines is input it cannot
take or a failed certificate."""

import ast
import importlib
from pathlib import Path

import pytest

import openpack
from openpack.graph import GraphError
from openpack.solvers import CertificateError

SOURCES = sorted(Path(openpack.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_global_statement(path):
    """No module keeps state between calls: what one run's searches share
    lives in its ``solvers.Run``, so runs open at once share nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert lines == [], f"{path.name} has global statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_dataclass_import(path):
    """The record types are ``__slots__`` classes on ``graph._Record``: a
    dataclass generates and compiles its methods at every import, which
    every CLI start pays."""
    modules = [module for module, _ in _imports(path) if module.split(".")[0] == "dataclasses"]
    assert modules == [], f"{path.name} imports dataclasses"


def _is_main_guard(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
            and [type(op) for op in node.test.ops] == [ast.Eq]
            and [getattr(c, "value", None) for c in node.test.comparators] == ["__main__"])


def test_cli_exits_only_under_main():
    """The CLI's errors reach ``main``'s one handler as exceptions; only the
    ``__main__`` block turns its status into a process exit."""
    path = Path(openpack.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    guarded = {id(node) for guard in ast.walk(tree) if _is_main_guard(guard)
               for node in ast.walk(guard)}
    exits = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and "SystemExit" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
             and id(node) not in guarded]
    assert exits == [], f"cli.py raises SystemExit outside __main__ on lines {exits}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_validating_construction(path):
    """``Graph(n, adj)`` validates rows that come from outside; a graph the
    package builds itself is valid by construction and goes through
    ``graph._trusted``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "Graph"
                  or getattr(node.func, "attr", None) == "Graph")]
    assert lines == [], f"{path.name} calls Graph(...) on lines {lines}"


def _imports(path):
    """Every import in a source: (module, name) per ``from module import
    name``, its module ``"."``-prefixed by level, and (module, None) per
    ``import module``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from ((module, alias.name) for alias in node.names)


def test_only_formats_imports_json():
    """``openpack.formats`` owns the JSON-line rule; every other module writes
    its lines through ``formats.JSON_LINE``."""
    importers = [path.name for path in SOURCES
                 if any(module.split(".")[0] == "json" for module, _ in _imports(path))]
    assert importers == ["formats.py"]


def test_no_module_imports_multiprocessing():
    """``verify`` evaluates a corpus in one process, through one loop in
    ``harness.run_corpus``; no module starts workers."""
    importers = [path.name for path in SOURCES
                 if any(module.split(".")[0] == "multiprocessing" for module, _ in _imports(path))]
    assert importers == []


def test_cli_imports_no_private_name():
    """The CLI reaches the other modules through their public names only."""
    path = Path(openpack.__file__).parent / "cli.py"
    private = [(module, name) for module, name in _imports(path)
               if (module.startswith(".") or module.split(".")[0] == "openpack")
               and any(part.startswith("_") for part in [*module.split("."), name or ""])]
    assert private == [], f"cli.py imports private names {private}"


def test_no_cached_property():
    """Cached attributes go through ``solvers.fact``, which takes no lock;
    ``functools.cached_property`` takes one at every first get on Python 3.11."""
    users = [path.name for path in SOURCES
             if ("functools", "cached_property") in set(_imports(path))
             or "cached_property" in {node.attr for node in ast.walk(ast.parse(path.read_text()))
                                      if isinstance(node, ast.Attribute)}]
    assert users == []


def test_asserted_rows_go_through_the_verdict_rule():
    """A check builds a row that asserts a relation through ``harness._row``,
    which judges it with ``_verdict``; a ``TheoremCheckResult`` built anywhere
    else in the harness is one that asserts nothing, ``report_only`` or
    ``skipped``."""
    path = Path(openpack.__file__).parent / "harness.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    in_row = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_row" for node in ast.walk(fn)}
    unjudged = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "TheoremCheckResult"
                and id(node) not in in_row):
            verdict = [kw.value for kw in node.keywords if kw.arg == "verdict"] or node.args[2:3]
            if [getattr(v, "id", None) for v in verdict] not in (["REPORT_ONLY"], ["SKIPPED"]):
                unjudged.append(node.lineno)
    assert unjudged == [], f"harness.py builds asserted rows outside _row on lines {unjudged}"


def test_errors_are_input_errors_or_certificate_errors():
    """Input the package cannot take raises a ``GraphError``, which the CLI
    and ``harness.instance_rows`` catch as one family; the one other error is
    ``CertificateError``, a search whose witness fails its check, which is a
    bug and is never caught."""
    modules = [importlib.import_module("openpack" if path.stem == "__init__"
                                       else f"openpack.{path.stem}") for path in SOURCES]
    errors = {cls for module in modules for cls in vars(module).values()
              if isinstance(cls, type) and issubclass(cls, BaseException)
              and cls.__module__ == module.__name__}
    stray = sorted(cls.__name__ for cls in errors
                   if cls is not CertificateError and not issubclass(cls, GraphError))
    assert GraphError in errors and CertificateError in errors
    assert stray == [], f"errors outside the GraphError family: {stray}"
