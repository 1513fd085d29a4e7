"""The pair theorems' class table: canonical keys of factors, one product
p_o solve per pair of factor classes, and the certificates that tie every
shared value to the pair's own labelled product.  The table belongs to a
``solvers.Run``, and is reached through the facts that carry it."""

import contextlib
import io
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs, relabelled
from openpack import cli, harness
from openpack.graph import (
    Graph,
    _canonical_form,
    complete,
    cycle,
    disjoint_union,
    enumerate_all_graphs,
    path,
    star,
)
from openpack.harness import GraphFacts, run_corpus
from openpack.products import PRODUCTS
from openpack.solvers import CertificateError, Run, VertexLabeling, is_opp

# graphs on n = 1..6 vertices up to isomorphism (OEIS A000088)
A000088 = (1, 2, 4, 11, 34, 156)
# the product each pair theorem is about, by theorem
PAIR_THEOREMS = {"T4": "cart", "T5": "direct", "T6": "lex", "T7": "corona"}


@pytest.fixture
def products(monkeypatch):
    """Every product's facts the pair checks build, in order."""
    built = []
    product_p_o = harness._product_p_o

    def recording(tid, fg, fh):
        fp, k = product_p_o(tid, fg, fh)
        built.append(fp)
        return fp, k

    monkeypatch.setattr(harness, "_product_p_o", recording)
    return built


class TestCanonicalForm:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_class_counts(self, n):
        keys = {_canonical_form(g)[0] for g in enumerate_all_graphs(n)}
        assert len(keys) == A000088[n - 1]

    def test_class_count_n6(self, search_deadline):
        keys = {_canonical_form(g)[0] for g in enumerate_all_graphs(6)}
        assert len(keys) == A000088[5]

    @settings(max_examples=150, deadline=None)
    @given(graphs(1, 7))
    def test_key_is_g_relabelled_by_perm(self, g):
        key, perm = _canonical_form(g)
        assert sorted(perm) == list(range(g.n))
        assert key == relabelled(g, perm)

    @settings(max_examples=150, deadline=None)
    @given(graphs(1, 7), st.randoms(use_true_random=False))
    def test_key_survives_relabelling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        other = Graph(g.n, relabelled(g, perm))
        assert _canonical_form(other)[0] == _canonical_form(g)[0]

    def test_one_cell_graphs_told_apart(self):
        # C6 and two triangles are 2-regular, so refinement leaves each one
        # cell; the least relabelling still tells them apart
        c6, triangles = cycle(6), disjoint_union(complete(3), complete(3))
        assert _canonical_form(c6)[0] != _canonical_form(triangles)[0]
        assert _canonical_form(complete(7))[0] == complete(7).adj


class TestClassTable:
    @pytest.mark.parametrize("tid", sorted(PAIR_THEOREMS))
    def test_hits_equal_fresh_solves(self, tid):
        # every pair of pair_grid(3, 3) through the table: a hit's value is the
        # fresh solve on its labelled product, and its labelling an OPP there
        hits = 0
        run = Run()
        for g, h in harness.pair_grid(3, 3):
            fg, fh = GraphFacts(g, run), GraphFacts(h, run)
            key = (PAIR_THEOREMS[tid], fg.canonical[0], fh.canonical[0])
            stored = run.classes.get(key)
            fp, value = harness._product_p_o(tid, fg, fh)
            assert fp.run is run
            if stored is None:
                continue
            hits += 1
            k, labels = stored
            prod, layout = PRODUCTS[key[0]](g, h)
            assert prod == fp.g
            carried = [labels[x] for x in layout.vertex_map(fg.canonical[1], fh.canonical[1])]
            assert value == k == GraphFacts(fp.g).p_o[0]
            assert is_opp(fp.g, VertexLabeling(tuple(carried), k))
        # 7 classes of graphs on 1-3 vertices, so 49 pairs of classes
        assert (hits, len(run.classes)) == (121 - 49, 49)

    def test_corrupted_label_raises(self, products):
        # P3 twice, centre 1 then centre 0: the second is a hit on the first's class
        pairs = [(path(3), path(2)), (star(3), path(2))]
        with contextlib.closing(run_corpus(["T4"], pairs)) as rows:
            next(rows), next(rows)
            classes = products[0].run.classes
            (key, (k, labels)), = classes.items()
            classes[key] = (1, (1,) * len(labels))
            with pytest.raises(CertificateError, match="fails is_opp"):
                next(rows)

    def test_corrupted_value_caught_by_the_witness(self, products):
        # (K2, K1) twice: the corona is P4, an equality row of T7.  A stored
        # value one too high with a labelling that still passes (one vertex
        # moved to a class of its own) makes the second row violated, and its
        # witness, solved on the labelled product, does not carry that value
        k2, k1 = path(2), Graph(1, (0,))
        with contextlib.closing(run_corpus(["T7"], [(k2, k1), (k2, k1)])) as rows:
            assert next(rows).verdict == harness.EQUALITY
            classes = products[0].run.classes
            (key, (k, labels)), = classes.items()
            moved = labels.index(next(lab for lab in labels if labels.count(lab) > 1))
            classes[key] = (k + 1, labels[:moved] + (k + 1,) + labels[moved + 1:])
            with pytest.raises(CertificateError, match=f"row read {k + 1}"):
                next(rows)

    def test_table_goes_with_the_run(self, products):
        # a run's table lives while its rows are being read, and goes with it
        pairs = list(harness.pair_grid(2, 2))
        rows = run_corpus(["T4"], pairs)
        next(rows)
        table = weakref.ref(products[0].run)
        assert table().classes
        list(rows)
        del products[:]
        assert table() is None

        rows = run_corpus(["T4"], pairs)
        next(rows)
        table = weakref.ref(products[0].run)
        rows.close()
        del products[:]
        assert table() is None

    def test_interleaved_runs_share_nothing(self, products):
        # a run started while another is suspended does its own first product
        # search, and each run's rows are those of a run alone
        pairs = list(harness.pair_grid(2, 3))
        fresh = [row.to_json() for row in run_corpus(["T4"], pairs)]
        del products[:]
        with contextlib.closing(run_corpus(["T4"], pairs)) as first:
            rows = [next(first).to_json()]
            assert "p_o" in vars(products[0])
            second = run_corpus(["T4"], pairs)
            assert next(second).to_json() == fresh[0]
            assert "p_o" in vars(products[1])
            assert products[1].run is not products[0].run
            assert [row.to_json() for row in second] == fresh[1:]
            rows.extend(row.to_json() for row in first)
        assert rows == fresh

    def test_a_check_alone_has_its_own_table(self):
        # a check called on its own solves its product in its facts' run, as a
        # run does
        pair = (path(3), path(2))
        fg, fh = GraphFacts(pair[0]), GraphFacts(pair[1])
        alone = harness.check_T4(fg, fh)
        assert len(fg.run.classes) == 1 and not fh.run.classes
        assert [r.to_json() for r in alone] == [r.to_json() for r in run_corpus(["T4"], [pair])]

    def test_verify_solves_each_class_once(self, monkeypatch):
        # verify --theorem T4,T5 --pair-grid 3 3: a product's p_o is searched
        # on at most one labelled product per class key
        products = []
        product_p_o = harness._product_p_o

        def recording(tid, fg, fh):
            fp, k = product_p_o(tid, fg, fh)
            products.append(((PAIR_THEOREMS[tid], fg.canonical[0], fh.canonical[0]), fp))
            return fp, k

        monkeypatch.setattr(harness, "_product_p_o", recording)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", "--theorem", "T4,T5", "--pair-grid", "3", "3"]) == 0
        searched = [key for key, fp in products if "p_o" in vars(fp)]
        assert len(searched) == len(set(searched)) == len({key for key, _ in products})
        assert len(products) > 2 * len(searched)
        assert len({id(fp.run) for _, fp in products}) == 1
        assert all(json.loads(line)["verdict"] != harness.VIOLATED
                   for line in out.getvalue().splitlines())
