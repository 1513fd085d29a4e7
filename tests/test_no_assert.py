"""The library checks its certificates with explicit code, never with ``assert``,
which ``python -O`` strips."""

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
