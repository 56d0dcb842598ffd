"""Tests for the per-figure table builders at tiny scale — each table's
qualitative *shape* (who wins, which direction a sweep moves) is asserted,
not absolute numbers — and for the ``TABLES`` registry against the docs."""
import re
from pathlib import Path

import numpy as np

from repro.experiments import tables

ROOT = Path(__file__).resolve().parents[1]

SF = 0.015
DS = ["slashdot-lite", "pokec-lite"]
KW = dict(datasets=DS, sf=SF, n_seeds=2, time_cap=30.0)


class TestDatasetsTable:
    def test_columns(self):
        df = tables.datasets_table(sf=SF)
        assert list(df.columns) == [
            "dataset",
            "nodes",
            "edges",
            "S",
            "T",
            "paper_nodes",
            "paper_edges",
        ]
        assert len(df) == 7

    def test_matches_paper_S(self):
        df = tables.datasets_table(sf=SF).set_index("dataset")
        assert df.loc["twitter-lite", "S"] == 2


class TestMainTables:
    def test_preprocessing_table_shape(self):
        df = tables.preprocessing_table(**KW)
        assert list(df.index) == DS
        assert "TPA" in df.columns

    def test_rppr_has_no_preprocessing(self):
        """No bar where the paper's Fig. 1(a) has none."""
        df = tables.preprocessing_table(**KW)
        assert df[["RPPR", "BRPPR", "TPA-NA"]].isna().all().all()

    def test_online_table_positive(self):
        df = tables.online_table(**KW)
        assert (df["TPA"].dropna() > 0).all()

    def test_accuracy_table_has_both_metrics(self):
        """Fig. 1(c) holds the L1 columns and Fig. 4 the ρ columns."""
        assert all(c.endswith(" L1") for c in tables.l1_table(**KW).columns)
        assert all(c.endswith(" rho") for c in tables.spearman_table(**KW).columns)

    def test_tpa_spearman_high(self):
        df = tables.spearman_table(**KW)
        assert (df["TPA rho"].dropna() > 0.8).all()

    def test_memory_table_tpa_is_8n(self):
        from repro.experiments.datasets import load_local

        df = tables.memory_table(**KW)
        for name in DS:
            g, _ = load_local(name, SF)
            assert df.loc[name, "TPA"] == g.n * 8

    def test_tpa_smallest_memory_among_preprocessors(self):
        df = tables.memory_table(**KW)
        for col in ("NB-LIN", "BEAR-APPROX", "HubPPR"):
            vals = df[col].dropna()
            for ds in vals.index:
                assert df.loc[ds, "TPA"] < vals[ds]

    def test_cache_reuse(self):
        a = tables.main_rows(**KW)
        b = tables.main_rows(**KW)
        assert a is b


class TestAblationTables:
    def test_stranger_effect_shape(self):
        df = tables.stranger_effect_table(datasets=DS, sf=SF, n_seeds=2)
        # Fig. 5: TPA ranking >> TPA-NA ranking on every dataset
        assert (df["TPA rho"] > df["TPA-NA rho"]).all()

    def test_neighbor_effect_columns(self):
        df = tables.neighbor_effect_table(datasets=DS, sf=SF, n_seeds=2)
        assert set(df.columns) == {"real L1", "real rho", "random L1", "random rho"}
        assert np.isfinite(df.to_numpy()).all()

    def test_neighbor_effect_shape_at_scale(self):
        """Fig. 6's shape needs non-trivial graphs: at sf=0.15 the DCSBM
        graph must beat its ER twin in L1 while trailing it in ranking
        (block structure traps TPA-NA inside the seed's community)."""
        df = tables.neighbor_effect_table(datasets=["pokec-lite"], sf=0.15, n_seeds=3)
        assert (df["real L1"] < df["random L1"]).all()
        assert (df["real rho"] < df["random rho"]).all()

    def test_effect_of_S_monotone(self):
        df = tables.effect_of_S_table(
            ["pokec-lite"], S_values=(1, 3, 5, 7), sf=SF, n_seeds=2
        )
        sub = df[df.dataset == "pokec-lite"].sort_values("S")
        # Fig. 7: L1 error strictly decreases as S grows
        assert sub["L1"].is_monotonic_decreasing

    def test_effect_of_S_preprocesses_once(self, monkeypatch):
        """The stranger vector does not depend on S: one preprocess per
        dataset serves the whole sweep."""
        calls = []
        real = tables.LocalTPA.preprocess
        monkeypatch.setattr(
            tables.LocalTPA, "preprocess", lambda self: calls.append(1) or real(self)
        )
        tables.effect_of_S_table(["pokec-lite"], S_values=(1, 3, 5), sf=SF, n_seeds=1)
        assert len(calls) == 1

    def test_effect_of_T_finite_beats_infinite(self):
        df = tables.effect_of_T_table(
            ["pokec-lite"], T_values=(4, 10, 30, None), S=4, sf=SF, n_seeds=2
        )
        sub = df[df.dataset == "pokec-lite"].set_index("T")
        # the stranger term must reduce L1 vs omitting it entirely (T=∞)
        assert sub["L1"].min() < sub["L1"][float("inf")]
        # and the ranking collapse at T=∞ (Fig. 8 right axis)
        assert sub["rho"][float("inf")] < sub["rho"][:].drop(float("inf")).min()

    def test_effect_of_T_dips_at_scale(self):
        """Fig. 8's dip-then-rebound needs the full-size graph: at sf=1.0
        the L1 minimum sits at a small finite T, with a clear rebound."""
        df = tables.effect_of_T_table(
            ["pokec-lite"], T_values=(4, 5, 15, None), S=4, sf=1.0, n_seeds=2
        )
        sub = df.set_index("T")["L1"]
        assert sub.idxmin() == 5.0  # interior optimum
        assert sub[15.0] > sub[5.0]
        assert sub[float("inf")] > sub[5.0]

    def test_effect_of_T_rho_stays_high_for_finite_T(self):
        df = tables.effect_of_T_table(
            ["pokec-lite"], T_values=(6, 10, 15), S=4, sf=SF, n_seeds=2
        )
        assert (df["rho"] > 0.8).all()

    def test_effect_of_T_default_sweep(self):
        """Without ``datasets`` Fig. 8 sweeps its own pair, and its T values
        include the paper's minimum T=5."""
        df = tables.effect_of_T_table(sf=SF, n_seeds=1)
        assert set(df["dataset"]) == set(tables.SWEEP_DATASETS)
        assert 5 in df["T"].tolist()


class TestRegistry:
    def test_every_id_in_design_and_experiments(self):
        """Each ``TABLES`` id has a DESIGN.md §5 row and an EXPERIMENTS.md
        heading that names its benchmark."""
        design = (ROOT / "DESIGN.md").read_text()
        section5 = design[design.index("## 5.") : design.index("## 6.")]
        headings = re.findall(r"^## .*$", (ROOT / "EXPERIMENTS.md").read_text(), re.M)
        for table_id in tables.TABLES:
            assert f"\n| {table_id} |" in section5, table_id
            assert any(f"`test_table[{table_id}]`" in h for h in headings), table_id

