"""Every line openpack reads or writes: JSON lines, graph6 records (every n up
to ``graph.MAX_VERTICES``) and files of them, and the plain edge-list format.

Every JSON line is ``JSON_LINE.encode`` of an object, or, for a ``verify`` row
of the common shape, the same bytes from ``json_row``'s one f-string."""

from __future__ import annotations

import json
from binascii import a2b_base64, b2a_base64
from collections.abc import Iterator

from .graph import MAX_VERTICES, Graph, GraphError, _code, _from_code, from_edge_list

_HEADER = ">>graph6<<"
# graph6 is base64 (RFC 4648) in another alphabet: digit d is chr(63 + d)
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_G6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_FROM_G6 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
# each byte with its bits reversed, so a code's bit 0 is the stream's first
_REVERSE = bytes((b * 0x0202020202 & 0x010884422010) % 1023 for b in range(256))

# The one JSON-line rule: keys sorted, no spaces.  One encoder serves every
# line; ``JSON_LINE.encode(obj)`` is ``json.dumps`` with the same arguments.
JSON_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _plain(text: str) -> bool:
    """Does JSON write ``text`` unchanged between its quotes?  ``JSON_LINE``
    escapes exactly the quote, the backslash and every character outside
    printable ASCII (space to ``~``)."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def json_row(theorem, instance, verdict, lhs, rhs, witness=None) -> str:
    """The JSON line of one ``verify`` row, byte for byte ``JSON_LINE.encode``
    of its dict, with ``witness`` only when it is not None.

    A row without a witness, whose sides are ints or None and whose strings
    (the instance a name or a list of names) JSON writes unchanged, is one
    f-string with the keys in sorted order.  Any other row, say a witness, a
    backslash in a graph6 name or a bool side, goes through ``JSON_LINE``.
    """
    if (witness is None and type(theorem) is str and type(verdict) is str
            and (lhs is None or type(lhs) is int) and (rhs is None or type(rhs) is int)):
        if type(instance) is str:
            names, text = instance, f'"{instance}"'
        elif type(instance) is list and instance and all(type(s) is str for s in instance):
            names, text = "".join(instance), '["' + '","'.join(instance) + '"]'
        else:
            names = None
        if names is not None and _plain(theorem + verdict + names):
            return (f'{{"instance":{text},"lhs":{"null" if lhs is None else lhs},'
                    f'"rhs":{"null" if rhs is None else rhs},'
                    f'"theorem":"{theorem}","verdict":"{verdict}"}}')
    obj = {"theorem": theorem, "instance": instance, "verdict": verdict, "lhs": lhs, "rhs": rhs}
    if witness is not None:
        obj["witness"] = witness
    return JSON_LINE.encode(obj)


class FormatError(GraphError):
    """Malformed graph6 or edge-list input."""


def to_graph6(g: Graph) -> str:
    """Encode g as a graph6 record: the size (one byte for n <= 62, else ``~``
    and three), then the bits of g's code (``graph._from_code``) in order, six
    bits a character at offset 63, most significant bit first: base64 of the
    code's bytes, low first and each bit-reversed, up to the code's last bit."""
    n = g.n
    size = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
    pairs = n * (n - 1) // 2
    data = _code(g).to_bytes((pairs + 23) // 24 * 3, "little").translate(_REVERSE)
    return size + b2a_base64(data, newline=False)[:(pairs + 5) // 6].translate(_TO_G6).decode()


def _graph6_record(line: str) -> tuple[int, int]:
    """The order and code of one graph6 record (optionally prefixed with the
    ``>>graph6<<`` header), its size, length and alphabet checked.  Each n
    has one size form, so each graph has one record.  Every check precedes
    ``a2b_base64``, which skips characters outside its alphabet and so must
    never be what refuses a record; padding bits past the code are ignored."""
    if type(line) is not str:
        raise FormatError(f"a graph6 record is a string, got {line!r}")
    s = line.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise FormatError("empty graph6 record")
    if s[0] == "~":
        if s[1:2] == "~":
            raise FormatError(f"graph6 8-byte size form unsupported (n > {MAX_VERTICES})")
        size, payload = s[1:4], s[4:]
        if len(size) < 3 or not "?" <= min(size) <= max(size) <= "~":
            raise FormatError(f"truncated or malformed graph6 size {s[:4]!r}")
        n = (ord(size[0]) - 63) << 12 | (ord(size[1]) - 63) << 6 | ord(size[2]) - 63
        if not 63 <= n <= MAX_VERTICES:
            raise FormatError(f"graph6 long size form holds 63 <= n <= {MAX_VERTICES}, got n={n}")
    else:
        first = ord(s[0])
        if not 63 <= first <= 125:
            raise FormatError(f"malformed graph6 length header {s[0]!r}")
        n, payload = first - 63, s[1:]
        if n == 0:
            raise FormatError("graph6 record encodes a 0-vertex graph; n >= 1 required")
    pairs = n * (n - 1) // 2
    want = (pairs + 5) // 6
    if len(payload) != want:
        raise FormatError(
            f"graph6 payload for n={n} needs {want} characters, got {len(payload)}"
        )
    if payload and not "?" <= min(payload) <= max(payload) <= "~":
        stray = next(ch for ch in payload if not "?" <= ch <= "~")
        raise FormatError(f"stray character {stray!r} in graph6 payload")
    data = a2b_base64(payload.encode().translate(_FROM_G6) + b"A" * (-len(payload) % 4))
    return n, int.from_bytes(data.translate(_REVERSE), "little") & ((1 << pairs) - 1)


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 record (optionally prefixed with the ``>>graph6<<`` header)."""
    return _from_code(*_graph6_record(line))


def parse_graph6_lines(text: str) -> Iterator[Graph]:
    """One graph per non-blank line, built as it is asked for.  Every record
    is checked now, once, and its code kept, so a bad one, named by its line
    number from 1, is refused before the first graph is used."""
    records = []
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                records.append(_graph6_record(line))
            except FormatError as exc:
                raise FormatError(f"line {number}: {exc}") from exc
    return (_from_code(n, code) for n, code in records)


def parse_edge_list_text(text: str) -> Graph:
    rows = [(lineno, line.split())
            for lineno, line in enumerate(text.split("\n"), start=1) if line.strip()]
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
