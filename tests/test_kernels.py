"""Contracts of the kernel module ``openpack._kernels_py``.

The solvers call it through ``solvers._kernel`` and check each certificate
again; these tests pin what the kernel itself returns: contiguous colour
labels, an independent set of the stated size, the same answer on every run,
and a full 64-vertex instance.
"""

import random

import pytest

from openpack import _kernels_py
from openpack.graph import random_graph
from openpack.solvers import kernel_backend

pytestmark = pytest.mark.usefixtures("search_deadline")


def test_backend_name():
    assert _kernels_py.BACKEND == kernel_backend() == "python"


class TestKernelContracts:
    def test_labels_contiguous(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(1, 18)
            g = random_graph(n, rng.random(), rng.randrange(10 ** 6))
            k, colors = _kernels_py.chromatic_number(g.n, list(g.adj))
            assert sorted(set(colors)) == list(range(1, k + 1))
            assert all(
                colors[u] != colors[v] for u, v in g.edges()
            )

    def test_mis_certificate(self):
        rng = random.Random(6)
        for _ in range(25):
            n = rng.randrange(1, 20)
            g = random_graph(n, rng.random(), rng.randrange(10 ** 6))
            size, mask = _kernels_py.max_independent_set(g.n, list(g.adj))
            assert mask.bit_count() == size
            m = mask
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                assert not g.adj[v] & mask

    def test_deterministic_repeat(self):
        g = random_graph(18, 0.5, 42)
        first = _kernels_py.chromatic_number(g.n, list(g.adj))
        assert all(
            _kernels_py.chromatic_number(g.n, list(g.adj)) == first
            for _ in range(3)
        )

    def test_full_width_instance(self):
        g = random_graph(64, 0.06, 9)
        k, colors = _kernels_py.chromatic_number(g.n, list(g.adj))
        assert all(colors[u] != colors[v] for u, v in g.edges())
        size, mask = _kernels_py.max_independent_set(g.n, list(g.adj))
        assert mask.bit_count() == size
