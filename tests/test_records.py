"""The contract of the six record types: construction, value equality,
hashing, read-only fields, copy and pickle, and repr.

Certificates (``VertexSet``, ``VertexLabeling``) and product layouts
(``ProductVertexMap``, ``CoronaLayout``) are read-only values that hash by
value, since one object is handed to every caller in a run.  Rows
(``TheoremCheckResult``) and reports (``InvariantReport``) are mutable and
unhashable.
"""

import copy
import pickle

import pytest

from openpack.harness import TheoremCheckResult
from openpack.products import CoronaLayout, ProductVertexMap
from openpack.solvers import InvariantReport, VertexLabeling, VertexSet

# (class, field values in order, other field values of the same class)
RECORDS = [
    (VertexSet, {"bits": 0b1011}, {"bits": 0b1010}),
    (VertexLabeling, {"labels": (1, 2, 1), "k": 2}, {"labels": (2, 1, 2), "k": 2}),
    (ProductVertexMap, {"g_size": 2, "h_size": 3}, {"g_size": 3, "h_size": 2}),
    (CoronaLayout, {"g_size": 2, "h_size": 3}, {"g_size": 2, "h_size": 4}),
    (TheoremCheckResult,
     {"theorem": "T1", "instance": "Bw", "verdict": "holds", "lhs": 2, "rhs": 3,
      "witness": {"certificates": []}},
     {"theorem": "T2", "instance": ["Bw", "A_"], "verdict": "holds", "lhs": 2, "rhs": 3,
      "witness": None}),
    (InvariantReport, {"values": {"n": 3, "p_o": 2}, "certificates": {}},
     {"values": {"n": 3, "p_o": 3}, "certificates": {}}),
]
FROZEN = (VertexSet, VertexLabeling, ProductVertexMap, CoronaLayout)
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, other", RECORDS, ids=IDS)
class TestRecordContract:
    def test_positional_and_keyword_construction(self, cls, fields, other):
        by_position, by_keyword = cls(*fields.values()), cls(**fields)
        for name, value in fields.items():
            assert getattr(by_position, name) == value
            assert getattr(by_keyword, name) == value

    def test_equality_by_value(self, cls, fields, other):
        assert cls(**fields) == cls(**fields)
        assert cls(**fields) != cls(**other)
        assert cls(**fields) != tuple(fields.values())

    def test_hashing(self, cls, fields, other):
        if cls in FROZEN:
            assert hash(cls(**fields)) == hash(cls(**fields))
            assert len({cls(**fields), cls(**fields), cls(**other)}) == 2
        else:
            with pytest.raises(TypeError):
                hash(cls(**fields))

    def test_assignment(self, cls, fields, other):
        record = cls(**fields)
        name, value = next(iter(other.items()))
        if cls in FROZEN:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert record == cls(**fields)
        else:
            setattr(record, name, value)
            assert getattr(record, name) == value

    def test_copy_and_pickle(self, cls, fields, other):
        record = cls(**fields)
        for back in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert back == record and back is not record

    def test_repr_lists_every_field(self, cls, fields, other):
        inner = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({inner})"


def test_row_witness_defaults_to_none():
    row = TheoremCheckResult("T1", "Bw", "holds", 2, 3)
    assert row.witness is None
    assert row == TheoremCheckResult("T1", "Bw", "holds", 2, 3, None)


def test_layouts_of_two_kinds_differ():
    assert ProductVertexMap(2, 3) != CoronaLayout(2, 3)


@pytest.mark.parametrize("labels, k", [
    ((1, 3), 3), ((0, 1), 1), ((), 1), ((1, 2), 0), ((1, 1), 2), ((1,), 1 << 200)])
def test_labeling_refusal_message(labels, k):
    with pytest.raises(ValueError) as info:
        VertexLabeling(labels, k)
    assert str(info.value) == f"{len(labels)} labels must use every value in 1..{k}"


class TestNegativeMask:
    """A negative mask has no finite set of members: ``iter_bits`` on it never
    ends, so the set is refused when it is made."""

    def test_mask_refused(self):
        with pytest.raises(ValueError, match=r"mask must be non-negative, got -1$"):
            VertexSet(-1)

    def test_vertex_refused(self):
        with pytest.raises(ValueError, match=r"vertices must be non-negative, got -3$"):
            VertexSet.of([2, -3, 0])

    def test_empty_set_allowed(self):
        assert VertexSet.of([]) == VertexSet(0)
