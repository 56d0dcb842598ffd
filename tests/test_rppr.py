"""Tests for the RPPR / BRPPR baselines (restricted propagation)."""
import time

import numpy as np
import pytest

from repro.baselines.rppr import BRPPR, RPPR
from repro.core.local_cpi import exact_rwr
from repro.deadline import OutOfTime, time_limit
from repro.metrics import l1_error, spearman

from helpers import small_dcsbm


@pytest.fixture(scope="module")
def g():
    return small_dcsbm(n=400, m=3200)


@pytest.fixture(scope="module")
def exact(g):
    return exact_rwr(g, 7)


class TestRPPR:
    def test_converges_to_exact_as_theta_shrinks(self, g, exact):
        errs = [
            l1_error(RPPR(g, theta=th).query(7), exact) for th in (1e-2, 1e-4, 1e-8)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-5

    def test_estimate_nonnegative(self, g):
        assert (RPPR(g, theta=1e-3).query(7) >= 0).all()

    def test_mass_bounded_by_one(self, g):
        assert RPPR(g, theta=1e-3).query(7).sum() <= 1.0 + 1e-9

    def test_underestimates_pointwise(self, g, exact):
        """Push never over-propagates: p+c·res never exceeds exact by more
        than residual effects — check total mass is an underestimate."""
        r = RPPR(g, theta=1e-3).query(7)
        assert r.sum() <= exact.sum() + 1e-9

    def test_seed_gets_highest_score(self, g):
        r = RPPR(g, theta=1e-4).query(7)
        assert r.argmax() == 7

    def test_no_preprocessing(self, g):
        m = RPPR(g)
        m.preprocess()
        assert m.preprocessed_bytes == 0

    def test_invalid_theta(self, g):
        with pytest.raises(ValueError):
            RPPR(g, theta=0.0)

    def test_deadline_respected(self, g):
        with time_limit(0.0), pytest.raises(OutOfTime):
            time.sleep(0.01)
            RPPR(g, theta=1e-9).query(7)

    def test_larger_theta_faster_coarser(self, g, exact):
        coarse = RPPR(g, theta=5e-2).query(7)
        fine = RPPR(g, theta=1e-6).query(7)
        assert l1_error(coarse, exact) > l1_error(fine, exact)


class TestBRPPR:
    def test_converges_to_exact_as_kappa_shrinks(self, g, exact):
        errs = [
            l1_error(BRPPR(g, kappa=k).query(7), exact) for k in (1e-1, 1e-3, 1e-6)
        ]
        assert errs[0] > errs[2]
        assert errs[2] < 1e-4

    def test_rank_quality_reasonable(self, g, exact):
        rho = spearman(BRPPR(g, kappa=1e-3).query(7), exact)
        assert rho > 0.5

    def test_estimate_nonnegative(self, g):
        assert (BRPPR(g, kappa=1e-2).query(7) >= 0).all()

    def test_mass_bounded(self, g):
        assert BRPPR(g, kappa=1e-2).query(7).sum() <= 1.0 + 1e-9

    def test_no_preprocessing(self, g):
        m = BRPPR(g)
        m.preprocess()
        assert m.preprocessed_bytes == 0

    def test_invalid_kappa(self, g):
        with pytest.raises(ValueError):
            BRPPR(g, kappa=-1.0)

    def test_deadline_respected(self, g):
        with time_limit(0.0), pytest.raises(OutOfTime):
            time.sleep(0.01)
            BRPPR(g, kappa=1e-9).query(7)

    def test_seed_gets_highest_score(self, g):
        r = BRPPR(g, kappa=1e-3).query(7)
        assert r.argmax() == 7
