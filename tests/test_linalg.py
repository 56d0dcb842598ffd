"""Unit tests for the local graph substrate (LocalGraph)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators as gen
from repro.graph.linalg import LocalGraph

from helpers import graph_from, small_dcsbm


@pytest.fixture(scope="module")
def g() -> LocalGraph:
    return small_dcsbm()


class TestConstruction:
    def test_degrees(self):
        gg = graph_from(gen.cycle(4))
        assert (gg.out_deg == 1).all() and (gg.in_deg == 1).all()

    def test_m(self, g):
        assert g.m == len(g.src)

    def test_edge_w_is_inverse_out_degree(self, g):
        assert np.allclose(g.edge_w, 1.0 / g.out_deg[g.src])

    def test_dangling_inv_out_zero(self):
        gg = graph_from(gen.chain(5))
        assert gg.inv_out[4] == 0.0
        assert gg.n_dangling == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LocalGraph(3, np.array([0, 5]), np.array([1, 2]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            LocalGraph(3, np.array([0, 1]), np.array([1]))


class TestSpMV:
    def test_push_matches_dense(self, g):
        A = g.dense_transition_T()
        rng = np.random.default_rng(0)
        x = rng.random(g.n)
        assert np.allclose(g.push(x), A @ x)

    def test_push_preserves_l1_without_dangling(self, g):
        assert g.n_dangling == 0
        x = np.random.default_rng(2).random(g.n)
        assert np.isclose(g.push(x).sum(), x.sum())

    def test_push_leaks_mass_with_dangling(self):
        gg = graph_from(gen.chain(4))
        x = np.ones(4)
        assert gg.push(x).sum() == pytest.approx(3.0)

    def test_push_linear(self, g):
        rng = np.random.default_rng(4)
        x, y = rng.random(g.n), rng.random(g.n)
        assert np.allclose(g.push(x + 2 * y), g.push(x) + 2 * g.push(y))

    def test_column_stochastic(self, g):
        """Ãᵀ columns sum to 1 for non-dangling sources."""
        A = g.dense_transition_T()
        assert np.allclose(A.sum(axis=0), 1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(10, 60))
    def test_property_push_matches_dense(self, seed, n):
        spec = gen.erdos_renyi(n, 4 * n, seed=seed)
        gg = graph_from(spec)
        x = np.random.default_rng(seed).random(n)
        assert np.allclose(gg.push(x), gg.dense_transition_T() @ x)


class TestAdjacency:
    def test_csr_consistent_with_edges(self, g):
        indptr, nbrs = g.out_csr
        assert indptr[-1] == g.m
        # every edge appears exactly once
        rebuilt = sorted(
            (u, int(v))
            for u in range(g.n)
            for v in nbrs[indptr[u] : indptr[u + 1]]
        )
        assert rebuilt == sorted(zip(g.src.tolist(), g.dst.tolist()))


class TestTraversal:
    def test_bfs_reaches_all_in_cycle(self):
        gg = graph_from(gen.cycle(6))
        assert len(gg.bfs(0)) == 6

    def test_bfs_respects_allowed(self):
        gg = graph_from(gen.cycle(6))
        allowed = np.array([True, True, True, False, False, False])
        visited = gg.bfs(0, allowed=allowed)
        assert set(visited.tolist()) == {0, 1, 2}

    def test_bfs_start_disallowed(self):
        gg = graph_from(gen.cycle(6))
        allowed = np.zeros(6, dtype=bool)
        assert len(gg.bfs(0, allowed=allowed)) == 0

    def test_components_single(self):
        gg = graph_from(gen.cycle(6))
        comps = gg.connected_components()
        assert len(comps) == 1 and len(comps[0]) == 6

    def test_components_disconnected(self):
        # two disjoint 2-cycles
        gg = LocalGraph(4, np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]))
        comps = gg.connected_components()
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_components_with_mask(self):
        gg = graph_from(gen.cycle(6))
        allowed = np.array([True, True, False, True, True, False])
        comps = gg.connected_components(allowed=allowed)
        assert sorted(len(c) for c in comps) == [2, 2]

    def test_components_cover_all_nodes(self, g):
        comps = g.connected_components()
        total = np.concatenate(comps)
        assert len(total) == g.n
        assert len(np.unique(total)) == g.n
