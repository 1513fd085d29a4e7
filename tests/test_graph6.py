import contextlib
import io
import json

import pytest

networkx = pytest.importorskip("networkx")

from openpack import cli, formats
from openpack.formats import (
    FormatError,
    parse_edge_list_text,
    parse_graph6,
    to_edge_list_text,
    to_graph6,
)
from openpack.graph import (
    Graph,
    _code,
    _from_code,
    complete,
    cycle,
    enumerate_all_graphs,
    from_edge_list,
    path,
    random_graph,
)


class TestKnownEncodings:
    def test_k2(self):
        assert to_graph6(from_edge_list(2, [(0, 1)])) == "A_"
        assert parse_graph6("A_") == from_edge_list(2, [(0, 1)])

    def test_k3(self):
        assert to_graph6(complete(3)) == "Bw"

    def test_single_vertex(self):
        assert to_graph6(Graph(1, (0,))) == "@"

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<A_") == from_edge_list(2, [(0, 1)])


class TestCode:
    """The one upper-triangle layout: edge (u, v) with u < v is bit v(v-1)/2 + u."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_definition(self, n):
        pairs = [(u, v) for v in range(1, n) for u in range(v)]
        for code in range(1 << len(pairs)):
            g = _from_code(n, code)
            edges = {(u, v) for t, (u, v) in enumerate(pairs) if code >> t & 1}
            assert set(g.edges()) == edges
            assert _code(g) == code

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumeration_counts_codes_up(self, n):
        codes = [_code(g) for g in enumerate_all_graphs(n)]
        assert codes == list(range(1 << n * (n - 1) // 2))

    def test_verify_checks_each_record_once(self, monkeypatch):
        calls = []

        def counted(line):
            calls.append(line)
            return record(line)

        record = formats._graph6_record
        # parse_graph6_lines and parse_graph6 both reach it through formats
        monkeypatch.setattr(formats, "_graph6_record", counted)
        lines = [to_graph6(g) for g in (path(3), cycle(4), complete(5))]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["verify", "--theorem", "T1", "--g6-file", "-"]) == 0
        rows = [json.loads(row) for row in out.getvalue().splitlines()]
        assert list(dict.fromkeys(row["instance"] for row in rows)) == lines
        assert calls == lines


class TestRoundTrip:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive_small(self, n):
        for g in enumerate_all_graphs(n):
            assert parse_graph6(to_graph6(g)) == g

    def test_sampled_n7(self):
        count = 0
        for code in range(0, 1 << 21, 101):
            g = _from_code(7, code)
            assert parse_graph6(to_graph6(g)) == g
            count += 1
        assert count > 20000

    @pytest.mark.parametrize("n", [10, 33, 62])
    def test_larger_random(self, n):
        for seed in range(5):
            g = random_graph(n, 0.3, seed)
            assert parse_graph6(to_graph6(g)) == g


class TestAgainstNetworkx:
    def _nx_encode(self, g):
        nxg = networkx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        return networkx.to_graph6_bytes(nxg, header=False).decode().strip()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_encoder_agrees(self, n):
        for g in enumerate_all_graphs(n):
            assert to_graph6(g) == self._nx_encode(g)

    def test_decoder_agrees_on_random(self):
        for seed in range(10):
            g = random_graph(12, 0.4, seed)
            line = self._nx_encode(g)
            assert parse_graph6(line) == g


class TestErrors:
    def test_empty(self):
        with pytest.raises(FormatError):
            parse_graph6("")

    def test_bad_header_char(self):
        with pytest.raises(FormatError):
            parse_graph6("\x1f@@")

    def test_long_form_unsupported(self):
        with pytest.raises(FormatError):
            parse_graph6("~??")

    def test_zero_vertices(self):
        with pytest.raises(FormatError):
            parse_graph6("?")

    def test_truncated_payload(self):
        line = to_graph6(complete(8))
        with pytest.raises(FormatError):
            parse_graph6(line[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(FormatError):
            parse_graph6("A_A")

    def test_stray_low_character(self):
        with pytest.raises(FormatError):
            parse_graph6("C" + chr(30))

    def test_encode_too_large(self):
        with pytest.raises(FormatError):
            to_graph6(random_graph(63, 0.1, 0))


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle(5)
        assert parse_edge_list_text(to_edge_list_text(g)) == g

    def test_format_shape(self):
        text = to_edge_list_text(path(3))
        lines = text.splitlines()
        assert lines[0] == "3 2"
        assert len(lines) == 3

    def test_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_edge_list_text("2 2\n0 1\n")

    def test_bad_token(self):
        with pytest.raises(FormatError):
            parse_edge_list_text("2 1\n0 x\n")

    def test_missing_heading(self):
        with pytest.raises(FormatError):
            parse_edge_list_text("")

    @pytest.mark.parametrize("text, lineno", [("3 1\n0 1 2\n", 2), ("3 1\n\n0\n", 3)])
    def test_edge_line_without_two_indices(self, text, lineno):
        with pytest.raises(FormatError, match=f"line {lineno} .* two vertex indices"):
            parse_edge_list_text(text)
