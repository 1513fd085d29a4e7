"""Every line openpack reads or writes: JSON lines, graph6 records (n <= 62)
and files of them, and the plain edge-list format."""

from __future__ import annotations

import json
from collections.abc import Iterator

from .graph import Graph, GraphError, _code, _from_code, from_edge_list

GRAPH6_MAX_N = 62
_HEADER = ">>graph6<<"

# The one JSON-line rule: keys sorted, no spaces.  One encoder serves every
# line; ``JSON_LINE.encode(obj)`` is ``json.dumps`` with the same arguments.
JSON_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class FormatError(GraphError):
    """Malformed graph6 or edge-list input."""


def check_graph6_order(n: int) -> None:
    """Refuse an order that a graph6 record cannot hold, before the graph is built."""
    if n > GRAPH6_MAX_N:
        raise FormatError(f"graph6 output supports n <= {GRAPH6_MAX_N}, got n={n}")


def to_graph6(g: Graph) -> str:
    """Encode g as a graph6 record: the size byte, then the bits of g's code
    (``graph._from_code``) in order, six per character at offset 63, most
    significant bit first."""
    check_graph6_order(g.n)
    pairs = g.n * (g.n - 1) // 2
    # bit t of the code at position t; five zeros pad the last character
    bits = f"{_code(g):0{pairs}b}"[::-1] + "00000"
    return chr(63 + g.n) + "".join(
        chr(63 + int(bits[i:i + 6], 2)) for i in range(0, pairs, 6))


def _graph6_record(line: str) -> tuple[int, int]:
    """The order and code of one graph6 record (optionally prefixed with the
    ``>>graph6<<`` header), its size byte, length and alphabet checked."""
    if type(line) is not str:
        raise FormatError(f"a graph6 record is a string, got {line!r}")
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise FormatError("empty graph6 record")
    first = ord(s[0])
    if first == 126:
        raise FormatError(f"graph6 long-size form unsupported (n > {GRAPH6_MAX_N})")
    if not 63 <= first <= 125:
        raise FormatError(f"malformed graph6 length header {s[0]!r}")
    n = first - 63
    if n == 0:
        raise FormatError("graph6 record encodes a 0-vertex graph; n >= 1 required")
    pairs = n * (n - 1) // 2
    want = (pairs + 5) // 6
    payload = s[1:]
    if len(payload) != want:
        raise FormatError(
            f"graph6 payload for n={n} needs {want} characters, got {len(payload)}"
        )
    if payload and not "?" <= min(payload) <= max(payload) <= "~":
        stray = next(ch for ch in payload if not "?" <= ch <= "~")
        raise FormatError(f"stray character {stray!r} in graph6 payload")
    bits = 0
    for ch in payload:
        bits = bits << 6 | ord(ch) - 63
    # the first bit written is bit 0 of the code; the padding is dropped
    return n, int(f"{bits >> 6 * want - pairs:0{pairs}b}"[::-1], 2)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 record (optionally prefixed with the ``>>graph6<<`` header)."""
    return _from_code(*_graph6_record(line))


def parse_graph6_lines(text: str) -> Iterator[Graph]:
    """One graph per non-blank line, built as it is asked for.  Every record
    is checked now, once, and its code kept, so a bad one, named by its line
    number from 1, is refused before the first graph is used."""
    records = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                records.append(_graph6_record(line))
            except FormatError as exc:
                raise FormatError(f"line {number}: {exc}") from exc
    return (_from_code(n, code) for n, code in records)


def to_edge_list_text(g: Graph) -> str:
    """First line ``n m``, then one 0-indexed ``u v`` line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list_text(text: str) -> Graph:
    rows = [(lineno, line.split())
            for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not rows or len(rows[0][1]) != 2:
        raise FormatError("edge-list input must start with a 'n m' line")
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise FormatError(
                f"edge-list line {lineno} ({' '.join(row)!r}) must hold two vertex indices"
            )
    try:
        n, m = (int(tok) for tok in rows[0][1])
        edges = [(int(u), int(v)) for _, (u, v) in rows[1:]]
    except ValueError as exc:
        raise FormatError(f"non-integer token in edge list: {exc}") from exc
    if len(edges) != m:
        raise FormatError(f"edge list announces {m} edges but contains {len(edges)}")
    return from_edge_list(n, edges)
