"""Tests for the BEAR-APPROX baseline (hub/spoke block elimination)."""
import time

import numpy as np
import pytest

from repro.baselines.bear import BearApprox
from repro.core.local_cpi import exact_rwr
from repro.deadline import OutOfTime, time_limit
from repro.metrics import l1_error, spearman

from helpers import graph_from, small_dcsbm
from repro.graph import generators as gen


@pytest.fixture(scope="module")
def g():
    return small_dcsbm(n=400, m=3200)


@pytest.fixture(scope="module")
def exact(g):
    return exact_rwr(g, 7, eps=1e-14)


class TestExactLimit:
    def test_zero_drop_is_exact(self, g, exact):
        """Block elimination with drop tolerance 0 solves the system exactly."""
        be = BearApprox(g, drop_tol=0.0, block_max=60)
        be.preprocess()
        assert l1_error(be.query(7), exact) < 1e-8

    def test_zero_drop_exact_multiple_seeds(self, g):
        be = BearApprox(g, drop_tol=0.0, block_max=60)
        be.preprocess()
        for s in (0, 123, 399):
            assert l1_error(be.query(s), exact_rwr(g, s, eps=1e-14)) < 1e-8

    def test_zero_drop_exact_on_star(self):
        gg = graph_from(gen.star(60))
        be = BearApprox(gg, drop_tol=0.0, block_max=5)
        be.preprocess()
        assert l1_error(be.query(3), exact_rwr(gg, 3, eps=1e-14)) < 1e-8


class TestDropTolerance:
    def test_default_drop_is_paper_setting(self, g):
        assert BearApprox(g).drop_tol == pytest.approx(g.n**-0.5)

    def test_drop_reduces_bytes(self, g):
        lossless = BearApprox(g, drop_tol=0.0, block_max=60)
        lossless.preprocess()
        lossy = BearApprox(g, drop_tol=0.05, block_max=60)
        lossy.preprocess()
        assert lossy.preprocessed_bytes < lossless.preprocessed_bytes

    def test_drop_costs_accuracy(self, g, exact):
        lossless = BearApprox(g, drop_tol=0.0, block_max=60)
        lossless.preprocess()
        lossy = BearApprox(g, drop_tol=0.05, block_max=60)
        lossy.preprocess()
        assert l1_error(lossy.query(7), exact) > l1_error(lossless.query(7), exact)

    def test_default_still_useful(self, g, exact):
        be = BearApprox(g, block_max=60)
        be.preprocess()
        r = be.query(7)
        assert l1_error(r, exact) < 1.0
        assert spearman(r, exact) > 0.2


class TestBehaviour:
    def test_query_requires_preprocess(self, g):
        with pytest.raises(RuntimeError):
            BearApprox(g).query(0)

    def test_bytes_zero_before(self, g):
        assert BearApprox(g).preprocessed_bytes == 0

    def test_deadline_respected(self, g):
        with time_limit(0.0), pytest.raises(OutOfTime):
            time.sleep(0.01)
            BearApprox(g, block_max=20).preprocess()

    def test_hub_seed_query(self, g):
        """Seeding at a hub exercises the q2 path of back-substitution."""
        be = BearApprox(g, drop_tol=0.0, block_max=60)
        be.preprocess()
        hub = int(be.hubs[0]) if len(be.hubs) else 0
        assert l1_error(be.query(hub), exact_rwr(g, hub, eps=1e-14)) < 1e-8

    def test_result_mass(self, g):
        be = BearApprox(g, drop_tol=0.0, block_max=60)
        be.preprocess()
        assert be.query(7).sum() == pytest.approx(1.0, abs=1e-8)
