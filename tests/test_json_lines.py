"""The one JSON-line encoder, ``formats.JSON_LINE``, writes exactly the bytes
of ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``: for verify's
rows and for every record the CLI prints."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from openpack.formats import JSON_LINE, to_graph6
from openpack.harness import CERT_KINDS, TheoremCheckResult


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# names with the characters JSON escapes: quotes, backslashes, controls, non-ASCII
escaped = st.sampled_from('"\\/\n\t\x00\x1f ~?A_é€😀')
names = st.text(alphabet=escaped, max_size=12) | st.text(max_size=12)
sides = st.none() | st.integers(-(1 << 70), 1 << 70)
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
