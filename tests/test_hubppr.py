"""Tests for the HubPPR baseline (backward push + forward walks + hub cache)."""
import time

import numpy as np
import pytest

from repro.baselines.hubppr import HubPPR, backward_push, forward_walk_endpoints
from repro.core.local_cpi import exact_rwr
from repro.deadline import OutOfTime, time_limit
from repro.metrics import l1_error, spearman

from helpers import C, small_dcsbm


@pytest.fixture(scope="module")
def g():
    return small_dcsbm(n=300, m=2400)


@pytest.fixture(scope="module")
def exact(g):
    return exact_rwr(g, 7, eps=1e-14)


class TestBackwardPush:
    def test_invariant(self, g, exact):
        """π(s,t) = p_t(s) + Σ_v π(s,v)·res_t(v) for every target t."""
        s = 7
        pi_s = exact  # π(s, ·)
        for t in (0, 7, 150):
            p, res = backward_push(g, t, c=C, r_max=1e-2)
            estimate = p[s] + pi_s @ res
            assert estimate == pytest.approx(pi_s[t], abs=1e-10)

    def test_residuals_below_rmax(self, g):
        _, res = backward_push(g, 5, r_max=1e-3)
        assert res.max() <= 1e-3 + 1e-12

    def test_tight_rmax_nearly_exact(self, g, exact):
        """r_max→0 makes p alone the answer column: p[s] → π(s,t)."""
        t = 42
        p, res = backward_push(g, t, r_max=1e-9)
        assert p[7] == pytest.approx(exact[t], abs=1e-6)

    def test_p_nonnegative(self, g):
        p, res = backward_push(g, 5, r_max=1e-3)
        assert (p >= 0).all() and (res >= 0).all()


class TestForwardWalks:
    def test_distribution_sums_to_one(self, g):
        rng = np.random.default_rng(0)
        f = forward_walk_endpoints(g, 7, 500, rng=rng)
        assert f.sum() == pytest.approx(1.0)

    def test_estimates_pi(self, g, exact):
        """Endpoint frequencies converge to π(s,·) (law of large numbers)."""
        rng = np.random.default_rng(1)
        f = forward_walk_endpoints(g, 7, 20_000, rng=rng)
        assert l1_error(f, exact) < 0.35  # MC noise at 20k walks over 300 nodes

    def test_seed_most_frequent_endpoint(self, g):
        rng = np.random.default_rng(2)
        f = forward_walk_endpoints(g, 7, 2_000, rng=rng)
        assert f.argmax() == 7

    def test_deterministic_given_rng(self, g):
        a = forward_walk_endpoints(g, 7, 500, rng=np.random.default_rng(3))
        b = forward_walk_endpoints(g, 7, 500, rng=np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestHubPPR:
    def test_query_requires_preprocess(self, g):
        with pytest.raises(RuntimeError):
            HubPPR(g).query(0)

    def test_full_vector_accuracy(self, g, exact):
        m = HubPPR(g, r_max=1e-3, n_walks=5_000)
        m.preprocess()
        r = m.query(7)
        assert l1_error(r, exact) < 0.2
        assert spearman(r, exact) > 0.8

    def test_pair_query_close_to_exact(self, g, exact):
        m = HubPPR(g, r_max=1e-3, n_walks=5_000)
        m.preprocess()
        t = int(np.argsort(-exact)[1])  # a high-score target
        assert m.query_pair(7, t) == pytest.approx(exact[t], abs=0.05)

    def test_hub_cache_used(self, g):
        m = HubPPR(g, n_hubs=10)
        m.preprocess()
        assert len(m.hub_cache) == 10
        assert m.preprocessed_bytes > 0

    def test_more_hubs_more_bytes(self, g):
        a = HubPPR(g, n_hubs=5)
        a.preprocess()
        b = HubPPR(g, n_hubs=25)
        b.preprocess()
        assert b.preprocessed_bytes > a.preprocessed_bytes

    def test_deadline_respected_online(self, g):
        m = HubPPR(g, r_max=1e-4)
        m.preprocess()
        with time_limit(0.0), pytest.raises(OutOfTime):
            time.sleep(0.01)
            m.query(7)

    def test_deadline_respected_preprocess(self, g):
        with time_limit(0.0), pytest.raises(OutOfTime):
            time.sleep(0.01)
            HubPPR(g, n_hubs=50).preprocess()
