"""Checks on the source tree: the library checks its certificates with
explicit code, never with ``assert``, which ``python -O`` strips; the CLI
exits the process only from its ``__main__`` block; and the package builds
its own graphs through ``graph._trusted``, never the validating ``Graph``."""

import ast
from pathlib import Path

import pytest

import openpack

SOURCES = sorted(Path(openpack.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


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


def test_cli_imports_no_private_name():
    """The CLI reaches the other modules through their public names only."""
    path = Path(openpack.__file__).parent / "cli.py"
    private = [(module, name) for module, name in _imports(path)
               if (module.startswith(".") or module.split(".")[0] == "openpack")
               and any(part.startswith("_") for part in [*module.split("."), name or ""])]
    assert private == [], f"cli.py imports private names {private}"
