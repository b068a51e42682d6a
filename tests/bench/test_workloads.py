"""Smoke tests for the paper-table workloads (at the test-only scale).

These verify structure and internal consistency of the generated
tables, not timings — timings belong to ``benchmarks/``.
"""

import pytest

from repro.bench.harness import resolve_scale
from repro.bench.workloads import (
    INFEASIBLE,
    fit_loglog_slope,
    run_ablation_engine,
    run_ablation_g3_bounds,
    run_ablation_pruning,
    run_ablation_strategy,
    run_figure3,
    run_figure4,
    run_table1,
    run_table2,
    run_table3,
)
from repro.exceptions import ConfigurationError

SMOKE = resolve_scale("smoke")


@pytest.fixture(scope="module")
def table1():
    return run_table1(SMOKE)


class TestTable1:
    def test_has_paper_columns(self, table1):
        assert "TANE s" in table1.columns
        assert "paper N" in table1.columns

    def test_datasets_present(self, table1):
        names = table1.column("dataset")
        assert "wisconsin" in names
        assert "adult" in names
        assert any(name.startswith("wisconsin x") for name in names)

    def test_times_positive(self, table1):
        for row_index in range(len(table1.rows)):
            row = table1.row_dict(row_index)
            if row["TANE s"] != INFEASIBLE:
                assert row["TANE s"] > 0
                assert row["TANE/MEM s"] > 0

    def test_fdep_capped(self, table1):
        for row_index in range(len(table1.rows)):
            row = table1.row_dict(row_index)
            if row["|r|"] > SMOKE.fdep_row_cap:
                assert row["FDEP s"] == INFEASIBLE

    def test_paper_values_quoted(self, table1):
        wisconsin = next(
            table1.row_dict(i) for i in range(len(table1.rows))
            if table1.row_dict(i)["dataset"] == "wisconsin"
        )
        assert wisconsin["paper N"] == 46
        assert wisconsin["paper TANE s"] == 0.76

    def test_formats(self, table1):
        assert "Table 1" in table1.format()


class TestTable2:
    def test_structure(self):
        table = run_table2(SMOKE)
        assert set(table.column("eps")) == set(SMOKE.approx_epsilons)
        assert all(n >= 0 for n in table.column("N"))

    def test_eps_zero_matches_exact_count(self, table1):
        table2 = run_table2(SMOKE)
        exact_n = next(
            table1.row_dict(i)["N"] for i in range(len(table1.rows))
            if table1.row_dict(i)["dataset"] == "wisconsin"
        )
        eps0_n = next(
            table2.row_dict(i)["N"] for i in range(len(table2.rows))
            if table2.row_dict(i)["dataset"] == "wisconsin"
            and table2.row_dict(i)["eps"] == 0.0
        )
        assert eps0_n == exact_n


class TestTable3:
    def test_measured_and_quoted_rows(self):
        table = run_table3(SMOKE)
        kinds = set(table.column("kind"))
        assert kinds == {"measured", "quoted"}

    def test_lhs_limit_reduces_n(self):
        table = run_table3(SMOKE)
        measured = [
            table.row_dict(i) for i in range(len(table.rows))
            if table.row_dict(i)["kind"] == "measured"
            and table.row_dict(i)["database"] == "wisconsin"
            and table.row_dict(i)["algorithm"] == "TANE"
        ]
        by_limit = {row["|X|"]: row["N"] for row in measured}
        assert by_limit[4] <= by_limit[11]

    def test_quoted_rows_match_paper(self):
        table = run_table3(SMOKE)
        schlimmer = [
            table.row_dict(i) for i in range(len(table.rows))
            if table.row_dict(i)["algorithm"] == "Schlimmer [19]"
        ]
        assert len(schlimmer) == 1
        assert schlimmer[0]["time s"] == 4440.0


class TestFigure3:
    def test_series_structure(self):
        figures = run_figure3(SMOKE, epsilons=(0.0, 0.5))
        assert set(figures) == set(SMOKE.figure3_datasets)
        for series_map in figures.values():
            n_ratio = series_map["n_ratio"]
            time_ratio = series_map["time_ratio"]
            assert n_ratio.x == [0.0, 0.5]
            assert n_ratio.y[0] == pytest.approx(1.0)
            assert time_ratio.y[0] == pytest.approx(1.0)


class TestFigure4:
    def test_structure_and_slopes(self):
        table = run_figure4(SMOKE)
        multiples = table.column("multiple")
        assert multiples == sorted(multiples)
        assert any("fitted" in note for note in table.notes)

    def test_times_grow_with_rows(self):
        table = run_figure4(SMOKE)
        rows = table.column("|r|")
        assert rows == sorted(rows)


class TestRealUciIntegration:
    def test_bench_dataset_prefers_real_files(self, tmp_path, monkeypatch):
        from repro.bench import workloads

        (tmp_path / "breast-cancer-wisconsin.data").write_text(
            "1,5,1,1,1,2,1,3,1,1,2\n2,5,4,4,5,7,10,3,2,1,2\n"
        )
        monkeypatch.setenv("REPRO_UCI_DIR", str(tmp_path))
        saved = dict(workloads._DATASET_CACHE)
        workloads._DATASET_CACHE.clear()
        try:
            relation = workloads._dataset("wisconsin", SMOKE)
            assert relation.num_rows == 2
        finally:
            workloads._DATASET_CACHE.clear()
            workloads._DATASET_CACHE.update(saved)


class TestFitSlope:
    def test_linear(self):
        points = [(10, 1.0), (100, 10.0), (1000, 100.0)]
        assert fit_loglog_slope(points) == pytest.approx(1.0)

    def test_quadratic(self):
        points = [(10, 1.0), (100, 100.0)]
        assert fit_loglog_slope(points) == pytest.approx(2.0)

    def test_insufficient_points(self):
        assert fit_loglog_slope([(10, 1.0)]) is None
        assert fit_loglog_slope([]) is None

    def test_zero_values_skipped(self):
        assert fit_loglog_slope([(10, 0.0), (100, 0.0)]) is None


class TestAblations:
    def test_pruning_ablation(self):
        table = run_ablation_pruning(SMOKE)
        variants = set(table.column("variant"))
        assert "full" in variants
        assert any("rule 8" in v for v in variants)
        # weaker pruning never searches fewer sets
        rows = [table.row_dict(i) for i in range(len(table.rows))]
        full = {r["dataset"]: r["sets s"] for r in rows if r["variant"] == "full"}
        for row in rows:
            assert row["sets s"] >= 0
            if row["variant"] != "full":
                assert row["sets s"] >= full[row["dataset"]]
        # N identical across variants
        by_dataset: dict[str, set[int]] = {}
        for row in rows:
            by_dataset.setdefault(row["dataset"], set()).add(row["N"])
        assert all(len(values) == 1 for values in by_dataset.values())

    def test_engine_ablation(self):
        table = run_ablation_engine(SMOKE)
        assert len(table.rows) == 2
        assert table.rows[0][1] == table.rows[1][1]  # same product count

    def test_strategy_ablation(self):
        table = run_ablation_strategy(SMOKE)
        assert len(table.rows) == 2
        pairwise, singletons = (table.row_dict(i) for i in range(2))
        assert pairwise["N"] == singletons["N"]
        assert singletons["partition products"] > pairwise["partition products"]

    def test_strategy_ablation_refuses_an_lhs_cap(self):
        with pytest.raises(ConfigurationError, match="max_lhs_size=3"):
            run_ablation_strategy(SMOKE, max_lhs_size=3)

    def test_g3_bounds_ablation(self):
        table = run_ablation_g3_bounds(SMOKE)
        rows = [table.row_dict(i) for i in range(len(table.rows))]
        on = [r for r in rows if r["variant"] == "bounds on"]
        off = [r for r in rows if r["variant"] == "bounds off"]
        assert len(on) == len(off) >= 1
        for row in off:
            assert row["bound rejections"] == 0
