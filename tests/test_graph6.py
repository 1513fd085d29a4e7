import contextlib
import io
import json
import re
from itertools import islice

import pytest

networkx = pytest.importorskip("networkx")

from openpack import cli, formats
from openpack.formats import (
    FormatError,
    parse_edge_list_text,
    parse_graph6,
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
    random_tree,
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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_enumeration_counts_codes_up(self, n):
        # at n = 7: the first and last code of every 64-code block, a stride
        # between, and the count
        count = 0
        for code, g in enumerate(enumerate_all_graphs(n)):
            if n < 7 or code % 64 in (0, 63) or code % 1009 == 0:
                assert _code(g) == code
            count += 1
        assert count == 1 << n * (n - 1) // 2

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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_encoder_agrees(self, n):
        # every graph up to n = 6, every 251st at n = 7
        for g in islice(enumerate_all_graphs(n), 0, None, 1 if n < 7 else 251):
            assert to_graph6(g) == self._nx_encode(g)

    def test_encoder_agrees_at_every_size(self):
        # n(n-1)/2 mod 24 takes all 16 of its values: the code ends at every
        # place in a 3-byte chunk that some n gives it
        for n in range(1, 80):
            for p in (0.2, 0.5, 1.0):
                g = random_graph(n, p, n)
                assert to_graph6(g) == self._nx_encode(g)

    def test_decoder_agrees_on_random(self):
        for seed in range(10):
            g = random_graph(12, 0.4, seed)
            line = self._nx_encode(g)
            assert parse_graph6(line) == g
        # the payload's length takes every residue mod 4, so the decoder pads
        # its base64 input in every way it can be padded
        for n in range(1, 80):
            for p in (0.2, 0.5, 1.0):
                g = random_graph(n, p, n)
                assert parse_graph6(self._nx_encode(g)) == g


class TestErrors:
    def test_empty(self):
        with pytest.raises(FormatError):
            parse_graph6("")

    def test_bad_header_char(self):
        with pytest.raises(FormatError):
            parse_graph6("\x1f@@")

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

    # a character base64 would skip or read as its padding is refused by the
    # alphabet check, never passed to the codec
    @pytest.mark.parametrize("stray", ["=", " ", "!", "\x7f", "\n", "\u00e9"])
    def test_stray_character_inside_payload(self, stray):
        message = f"^stray character {re.escape(repr(stray))} in graph6 payload$"
        line = to_graph6(path(70))
        for record in ("D" + stray + "w", line[:9] + stray + line[10:]):
            with pytest.raises(FormatError, match=message):
                parse_graph6(record)

    # each n has one size form: a long size below 63 or past 4,096 vertices
    # and the 8-byte form are refused, as is a cut-off size
    @pytest.mark.parametrize("line, message", [
        ("~??", "truncated or malformed graph6 size '~??'"),
        ("~~??????", "8-byte size form unsupported (n > 4096)"),
        ("~??}", "got n=62"),
        ("~@?@", "got n=4097"),
    ], ids=["truncated", "eight-byte", "n62", "n4097"])
    def test_long_form_refused(self, line, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_graph6(line)


class TestLongForm:
    """n >= 63 is written as ``~`` and three size bytes (McKay's formats.txt)."""

    def test_size_header(self):
        assert to_graph6(path(62))[0] == "}"
        assert to_graph6(path(63))[:4] == "~??~"
        assert to_graph6(path(64))[:4] == "~?@?"

    @pytest.mark.parametrize("n", [63, 64, 100, 500])
    def test_agrees_with_networkx(self, n):
        for g in (random_tree(n, n), random_graph(n, 0.1, n)):
            nxg = networkx.Graph()
            nxg.add_nodes_from(range(g.n))
            nxg.add_edges_from(g.edges())
            line = networkx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert to_graph6(g) == line
            assert parse_graph6(line) == g

    def test_padding_bits_ignored(self):
        # n = 3 has 3 pairs, so the payload's last 3 bits pad; set or not,
        # they read as the canonical record's graph.  n = 63 pads 3 bits too
        assert parse_graph6("Bx") == parse_graph6("Bw") == complete(3)
        line = to_graph6(complete(63))
        assert line[:4] == "~??~" and line[-1] == "w"
        assert parse_graph6(line[:-1] + "~") == parse_graph6(line) == complete(63)

    def test_largest_round_trip(self, search_deadline):
        g = random_tree(4096, 1)
        line = to_graph6(g)
        assert line[:4] == "~@??" and parse_graph6(line) == g


class TestEdgeListFormat:
    def test_round_trip(self):
        g = cycle(5)
        text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())
        assert parse_edge_list_text(text) == g

    def test_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_edge_list_text("2 2\n0 1\n")

    def test_bad_token(self):
        with pytest.raises(FormatError):
            parse_edge_list_text("2 1\n0 x\n")

    def test_missing_heading(self):
        with pytest.raises(FormatError):
            parse_edge_list_text("")

    @pytest.mark.parametrize("text, lineno", [("3 1\n0 1 2\n", 2), ("3 1\n\n0\n", 3),
                                              ("3 2\n0 1\x0c1 2\n", 2), ("3 1\n\x1c\n0 1 2\n", 3)])
    def test_edge_line_without_two_indices(self, text, lineno):
        with pytest.raises(FormatError, match=f"line {lineno} .* two vertex indices"):
            parse_edge_list_text(text)


class TestLines:
    """A file's lines end at "\n" alone: form feeds, vertical tabs and the
    ASCII separators are ASCII, so a file may hold them, but they split no
    record, and the numbers in errors are the file's own line numbers."""

    def test_graph6_line_holding_a_form_feed_is_one_record(self):
        message = r"^line 1: graph6 payload for n=2 needs 1 characters, got 4$"
        with pytest.raises(FormatError, match=message):
            list(formats.parse_graph6_lines("A_\x0cBw\n"))

    def test_graph6_error_names_the_file_line(self):
        with pytest.raises(FormatError, match=r"^line 3: graph6 payload for n=3"):
            list(formats.parse_graph6_lines("A_\n\x1c\nB\n"))

    def test_crlf_lines(self):
        assert list(formats.parse_graph6_lines("A_\r\nBw\r\n")) == [path(2), complete(3)]
        assert parse_edge_list_text("3 2\r\n0 1\r\n1 2\r\n") == path(3)
