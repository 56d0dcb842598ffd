"""Tests for the experiment runner (timing, time limits, accounting)."""
import inspect

import numpy as np
import pytest

from repro.baselines.bear import BearApprox
from repro.baselines.hubppr import HubPPR
from repro.baselines.nb_lin import NBLin
from repro.baselines.rppr import BRPPR, RPPR
from repro.core.local_tpa import LocalTPA
from repro.experiments.datasets import load_local
from repro.experiments.runner import (
    EXPECTED_OOT,
    METHOD_ORDER,
    build_method,
    exact_vectors,
    pick_seeds,
    run_dataset,
)

SF = 0.015


@pytest.fixture(scope="module")
def ds():
    return load_local("slashdot-lite", SF)


class TestBuildMethod:
    def test_types(self, ds):
        g, spec = ds
        expect = {
            "TPA": LocalTPA,
            "RPPR": RPPR,
            "BRPPR": BRPPR,
            "NB-LIN": NBLin,
            "BEAR-APPROX": BearApprox,
            "HubPPR": HubPPR,
        }
        for name, cls in expect.items():
            assert isinstance(build_method(name, g, spec), cls)

    def test_tpa_gets_table2_window(self, ds):
        g, spec = ds
        m = build_method("TPA", g, spec)
        assert (m.S, m.T) == (spec.S, spec.T)

    def test_threshold_scaling(self, ds):
        """RPPR's θ is scaled by the shrink factor, clamped at 2e-2."""
        g, spec = ds
        m = build_method("RPPR", g, spec)
        assert m.theta == pytest.approx(min(2e-2, 1e-4 * spec.paper_n / g.n))

    def test_interface_takes_no_time_limit(self, ds):
        """The harness interface is ``preprocess()``, ``query(seed)`` and TPA's
        ``query_na(seed)``: the time limit is a scope, never a parameter."""
        g, spec = ds
        for name in METHOD_ORDER:
            m = build_method(name, g, spec)
            assert list(inspect.signature(m.preprocess).parameters) == [], name
            assert list(inspect.signature(m.query).parameters) == ["seed"], name
        tpa = build_method("TPA", g, spec)
        assert list(inspect.signature(tpa.query_na).parameters) == ["seed"]

    def test_unknown_method(self, ds):
        g, spec = ds
        with pytest.raises(ValueError):
            build_method("nope", g, spec)


class TestSeedsAndExact:
    def test_pick_seeds_deterministic(self, ds):
        g, _ = ds
        assert np.array_equal(pick_seeds(g, 5), pick_seeds(g, 5))

    def test_pick_seeds_non_dangling(self, ds):
        g, _ = ds
        s = pick_seeds(g, 10)
        assert (g.out_deg[s] > 0).all()

    def test_exact_vectors_sum_to_one(self, ds):
        g, _ = ds
        ex = exact_vectors(g, pick_seeds(g, 2))
        for v in ex.values():
            assert v.sum() == pytest.approx(1.0, abs=1e-6)


class TestRunDataset:
    @pytest.fixture(scope="class")
    def rows(self, ds):
        g, spec = ds
        return run_dataset("slashdot-lite", g, spec, n_seeds=2, time_cap=30.0)

    def test_all_methods_present(self, rows):
        methods = {r.method for r in rows}
        assert set(METHOD_ORDER) <= methods
        assert "TPA-NA" in methods

    def test_ok_rows_have_metrics(self, rows):
        for r in rows:
            if r.status == "ok":
                assert r.online_time is not None and r.online_time >= 0
                assert r.l1 is not None and r.l1 >= 0
                assert r.spearman is not None and -1 <= r.spearman <= 1

    def test_tpa_best_or_near_best_spearman(self, rows):
        """The headline claim: TPA's rank accuracy tops the table."""
        by = {r.method: r for r in rows}
        competitors = [
            by[m].spearman
            for m in METHOD_ORDER
            if m != "TPA" and by[m].spearman is not None
        ]
        # allow near-exact BRPPR-style methods a small edge at tiny scale
        assert by["TPA"].spearman >= max(competitors) - 0.1

    def test_no_preprocessing_phase_untimed(self, rows):
        by = {r.method: r for r in rows}
        for m in ("RPPR", "BRPPR", "TPA-NA"):
            assert by[m].pre_time is None and by[m].status == "ok"
        assert by["TPA"].pre_time > 0

    def test_tpa_na_worse_ranking_than_tpa(self, rows):
        by = {r.method: r for r in rows}
        assert by["TPA-NA"].spearman < by["TPA"].spearman

    def test_expected_oot_skipped(self, ds):
        g, spec = ds
        rows = run_dataset(
            "friendster-lite", g, spec, methods=["NB-LIN"], n_seeds=1, time_cap=30.0
        )
        assert rows[0].status == "OOT"
        assert rows[0].pre_time is None

    def test_expected_online_oot_skipped(self, ds):
        """HubPPR preprocesses on every graph, but its online phase is only
        run on the smallest one, as in the paper's Fig. 1(b)."""
        g, spec = ds
        rows = run_dataset(
            "google-lite", g, spec, methods=["HubPPR"], n_seeds=1, time_cap=30.0
        )
        assert rows[0].status == "OOT-online"
        assert rows[0].pre_time is not None and rows[0].bytes > 0
        assert rows[0].online_time is None and rows[0].l1 is None

    def test_oot_matrix_matches_paper(self):
        assert "pokec-lite" in EXPECTED_OOT["NB-LIN"]
        assert "google-lite" in EXPECTED_OOT["BEAR-APPROX"]
        assert "slashdot-lite" not in EXPECTED_OOT["BEAR-APPROX"]

    def test_tiny_time_cap_marks_oot(self, ds):
        g, spec = ds
        rows = run_dataset(
            "slashdot-lite",
            g,
            spec,
            methods=["HubPPR"],
            n_seeds=1,
            time_cap=1e-9,
        )
        assert rows[0].status in ("OOT", "OOT-online")
