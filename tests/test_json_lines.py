"""The one JSON-line encoder, ``formats.JSON_LINE``, and verify's row writer,
``formats.json_row``, write exactly the bytes of
``json.dumps(obj, sort_keys=True, separators=(",", ":"))``: for verify's rows
and for every record the CLI prints."""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from openpack import formats
from openpack.cli import main
from openpack.formats import JSON_LINE, json_row, parse_graph6, to_graph6
from openpack.harness import CERT_KINDS, TheoremCheckResult


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# names with the characters JSON escapes: quotes, backslashes, controls, non-ASCII
escaped = st.sampled_from('"\\/\n\t\x00\x1f ~?A_é€😀')
names = st.text(alphabet=escaped, max_size=12) | st.text(max_size=12)
sides = st.none() | st.integers(-(1 << 70), 1 << 70)
# graph6 names: every character from 63 to 126, so backslashes (92) occur
g6_names = st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126),
                   min_size=1, max_size=12)
g6_instances = g6_names | st.lists(g6_names, min_size=2, max_size=2)
# what a row's sides may hold: None, small, negative and huge ints, and bools,
# which JSON writes as true and false
row_sides = st.none() | st.integers(-3, 70) | st.integers(-(1 << 200), 1 << 200) | st.booleans()
ints = st.lists(st.integers(-5, 70), max_size=8)
certificate_fields = st.one_of(
    st.fixed_dictionaries({"labels": ints, "k": st.integers(0, 70)}),
    st.fixed_dictionaries({"vertices": ints}),
    st.fixed_dictionaries({"vertex": st.integers(0, 70), "degree": st.integers(0, 70)}))
certificates = st.one_of(
    st.builds(lambda kind, g6, fields: {"kind": kind, "graph6": g6, **fields},
              st.sampled_from(sorted(CERT_KINDS)), names, certificate_fields),
    st.builds(lambda name, value: {"kind": "value", "name": name, "value": value},
              names, sides))
witnesses = st.none() | st.builds(lambda certs: {"certificates": certs},
                                  st.lists(certificates, max_size=4))
rows = st.builds(TheoremCheckResult, names, names | st.lists(names, min_size=2, max_size=2),
                 st.sampled_from(["holds", "equality", "violated", "report_only", "skipped"]),
                 sides, sides, witnesses)
# any JSON value, nested
values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | names,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(names, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(rows)
def test_rows(row):
    obj = {"theorem": row.theorem, "instance": row.instance, "verdict": row.verdict,
           "lhs": row.lhs, "rhs": row.rhs}
    if row.witness is not None:
        obj["witness"] = row.witness
    assert row.to_json() == dumps(obj)


def row_obj(theorem, instance, verdict, lhs, rhs, witness=None) -> dict:
    obj = {"theorem": theorem, "instance": instance, "verdict": verdict, "lhs": lhs, "rhs": rhs}
    if witness is not None:
        obj["witness"] = witness
    return obj


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["T1", "T14", 'T"', "T\\"]) | names, g6_instances | names,
       st.sampled_from(["holds", "equality", "violated", "report_only", "skipped"]),
       row_sides, row_sides, witnesses)
def test_row_writer(theorem, instance, verdict, lhs, rhs, witness):
    assert json_row(theorem, instance, verdict, lhs, rhs, witness) == dumps(
        row_obj(theorem, instance, verdict, lhs, rhs, witness))


def test_row_writer_on_a_backslash_name():
    """``C\\`` is the 4-vertex graph with edges 02, 12, 03, 23: its one
    payload character is the backslash, which JSON escapes."""
    assert list(parse_graph6("C\\").edges()) == [(0, 2), (1, 2), (0, 3), (2, 3)]
    for instance in ("C\\", ["C\\", "A_"], ["A_", "C\\"]):
        line = json_row("T1", instance, "equality", 4, 4)
        assert line == dumps(row_obj("T1", instance, "equality", 4, 4))
        assert '"C\\\\"' in line


def test_row_writer_on_every_character():
    """Each character alone as a name, a theorem id and a verdict: the
    writer's test for strings JSON leaves unchanged agrees with JSON."""
    for ch in map(chr, [*range(0x800), 0xD800, 0xFFFF, 0x1F600]):
        for args in ((ch, "A_", "holds"), ("T1", ch, "holds"), ("T1", [ch, "A_"], ch)):
            assert json_row(*args, 1, None) == dumps(row_obj(*args, 1, None)), repr(ch)


class CountedEncoder:
    """``JSON_LINE`` with a count of its calls."""

    def __init__(self):
        self.calls = 0

    def encode(self, obj):
        self.calls += 1
        return JSON_LINE.encode(obj)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["T1", "T4", "T14"]),
       st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126, exclude_characters="\\"),
               min_size=1, max_size=12),
       st.sampled_from(["holds", "equality", "violated", "report_only", "skipped"]),
       st.none() | st.integers(), st.none() | st.integers(), st.booleans())
def test_row_writer_fast_path(theorem, name, verdict, lhs, rhs, pair):
    """A row without a witness whose names are graph6 without a backslash is
    written without ``JSON_LINE``."""
    instance = [name, name] if pair else name
    with mock.patch.object(formats, "JSON_LINE", CountedEncoder()) as encoder:
        line = json_row(theorem, instance, verdict, lhs, rhs)
    assert encoder.calls == 0
    assert line == dumps(row_obj(theorem, instance, verdict, lhs, rhs))


def test_verify_rows_skip_the_encoder():
    """Of verify's rows on every graph with n <= 4, only those named with a
    backslash reach ``JSON_LINE``; the rest take the f-string."""
    out = io.StringIO()
    with mock.patch.object(formats, "JSON_LINE", CountedEncoder()) as encoder, \
            contextlib.redirect_stdout(out):
        assert main(["verify", "--theorem", "T1,T2,T3,T9,T13,T14", "--all-upto", "4"]) == 0
    rows = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(rows) == 747
    assert encoder.calls == sum("\\" in row["instance"] for row in rows) > 0


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=10), st.dictionaries(names, st.integers(0, 70), max_size=8),
       st.dictionaries(names, certificate_fields, max_size=8), st.booleans(), ints)
def test_cli_records(g, invariants, certified, flag, labels):
    """The shapes ``invariant``, ``transform`` and ``tree-opp`` print."""
    g6 = to_graph6(g)
    for record in ({"graph6": g6, "values": invariants},
                   {"graph6": g6, "values": invariants, "certificates": certified},
                   {"graph6": g6, "op": "has-even-cycle", "value": flag},
                   {"graph6": g6, "labels": labels, "classes": len(set(labels))}):
        assert JSON_LINE.encode(record) == dumps(record)


@settings(max_examples=300, deadline=None)
@given(values)
def test_any_value(value):
    assert JSON_LINE.encode(value) == dumps(value)
