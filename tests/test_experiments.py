import numpy as np
import pytest
from sweeps import mean_over_seeds

from ris_isac import CapExceeded, ConfigError, LambdaPolicy, TargetSpec, solve_scenario
from ris_isac.channel import angle_from_positions
from ris_isac.experiments import (
    GridSpec,
    beampattern_vs_aoa,
    run_complexity_probe,
    run_heatmap,
    sweep_alpha,
    sweep_weight_ratio,
    write_csv,
)


@pytest.fixture(scope="module")
def tiny_grid():
    return GridSpec(0.0, 120.0, -40.0, 40.0, 12.0)


class TestGridSpec:
    def test_centers(self):
        g = GridSpec(0.0, 10.0, 0.0, 4.0, 2.0)
        x, y = g.centers()
        np.testing.assert_allclose(x, [1, 3, 5, 7, 9])
        np.testing.assert_allclose(y, [1, 3])


class TestHeatmap:
    def test_shape_and_finiteness(self, scenario, tiny_grid):
        h = run_heatmap(scenario, tiny_grid, "proposed", seeds=[1])
        x, y = tiny_grid.centers()
        # one row per grid cell, y outer and x inner
        assert [(r["x_m"], r["y_m"]) for r in h.rows] == [(xi, yi) for yi in y for xi in x]
        assert np.all(np.isfinite([r["gain_db"] for r in h.rows]))

    def test_sdr_cap(self, scenario, tiny_grid):
        with pytest.raises(CapExceeded):
            run_heatmap(scenario, tiny_grid, "sdr", seeds=[1], sdr_cap=64)

    def test_unknown_method(self, scenario, tiny_grid):
        with pytest.raises(ConfigError):
            run_heatmap(scenario, tiny_grid, "magic", seeds=[1])

    def test_proposed_beats_comm_only_at_targets(self, scenario):
        """Perturbing toward the targets raises the gain at the target angles."""
        # grid cells centered on rays toward both targets
        seeds = [1, 2, 3]
        grid = GridSpec(29.0, 33.0, 50.0, 54.0, 4.0)  # single cell near 90 deg
        p = run_heatmap(scenario, grid, "proposed", seeds=seeds)
        c = run_heatmap(scenario, grid, "comm_only", seeds=seeds)
        assert all(pr["gain_db"] >= cr["gain_db"] for pr, cr in zip(p.rows, c.rows))

    def test_csv_roundtrip(self, scenario, tiny_grid, tmp_path):
        h = run_heatmap(scenario, tiny_grid, "comm_only", seeds=[1])
        path = tmp_path / "heatmap.csv"
        h.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,gain_db"
        assert len(lines) == 1 + len(h.rows)


class TestSweepAlpha:
    def test_rows_and_determinism(self, scenario, tmp_path):
        r1 = sweep_alpha(scenario, [0.0, 1.0], ["adaptive", "fixed:0.5"], [1, 2])
        r2 = sweep_alpha(scenario, [0.0, 1.0], ["adaptive", "fixed:0.5"], [1, 2])
        assert len(r1.rows) == 2 * 2 * 2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.write_csv(p1)
        r2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fieldnames_cover_targets(self, scenario):
        r = sweep_alpha(scenario, [0.5], ["adaptive"], [1])
        assert r.fieldnames == (
            "alpha", "lambda_policy", "seed", "gamma_db", "gain_t1_db", "gain_t2_db"
        )

    def test_mean_over_seeds(self, scenario):
        r = sweep_alpha(scenario, [0.5], ["adaptive"], [1, 2])
        vals = [row["gamma_db"] for row in r.rows]
        assert mean_over_seeds(r, "gamma_db", alpha=0.5) == pytest.approx(np.mean(vals))
        with pytest.raises(KeyError):
            mean_over_seeds(r, "gamma_db", alpha=0.123)


class TestSharedRealization:
    """Cells that share a seed's realization equal independent solves exactly."""

    def test_sweep_alpha_matches_independent_solves(self, scenario):
        alphas, policies, seeds = [0.25, 1.0], ["adaptive", "fixed:0.1"], [1, 2]
        r = sweep_alpha(scenario, alphas, policies, seeds)
        assert [(row["alpha"], row["lambda_policy"], row["seed"]) for row in r.rows] == [
            (a, p, s) for a in alphas for p in policies for s in seeds
        ]
        for row in r.rows:
            cell = scenario.replace(
                alpha=row["alpha"],
                lambda_policy=LambdaPolicy.parse(row["lambda_policy"]),
                seed=row["seed"],
            )
            metrics = solve_scenario(cell).metrics
            assert row["gamma_db"] == metrics.snr_db[0]
            assert (row["gain_t1_db"], row["gain_t2_db"]) == tuple(metrics.gains[0, :, 1])

    def test_sweep_weight_ratio_matches_independent_solves(self, scenario):
        base = scenario.replace(alpha=0.5)
        r = sweep_weight_ratio(base, [1.0, 10.0], [1, 2])
        assert [(row["ratio"], row["seed"]) for row in r.rows] == [
            (1.0, 1), (1.0, 2), (10.0, 1), (10.0, 2)
        ]
        for row in r.rows:
            ratio = row["ratio"]
            cell = base.replace(targets=(
                TargetSpec(ratio / (1 + ratio), angle_deg=base.targets[0].angle_deg),
                TargetSpec(1 / (1 + ratio), angle_deg=base.targets[1].angle_deg),
            ))
            metrics = solve_scenario(cell.replace(seed=row["seed"])).metrics
            assert row["gamma_db"] == metrics.snr_db[0]
            assert (row["gain_t1_db"], row["gain_t2_db"]) == tuple(metrics.gains[0, :, 1])


class TestSweepWeightRatio:
    def test_requires_two_targets(self, scenario):
        one = scenario.replace(targets=(TargetSpec(weight=1.0, angle_deg=90.0),))
        with pytest.raises(ConfigError):
            sweep_weight_ratio(one, [1.0], [1])

    def test_positive_ratios_only(self, scenario):
        with pytest.raises(ConfigError):
            sweep_weight_ratio(scenario, [0.0], [1])

    def test_ratio_one_balanced(self, scenario):
        r = sweep_weight_ratio(scenario.replace(alpha=0.5), [1.0], [1, 2, 3])
        p1 = mean_over_seeds(r, "gain_t1_db", ratio=1.0)
        p2 = mean_over_seeds(r, "gain_t2_db", ratio=1.0)
        assert abs(p1 - p2) < 1.0


class TestAoaScan:
    def test_band_expansion_and_grid(self, small_scenario):
        r = beampattern_vs_aoa(small_scenario, seeds=[1])
        assert {row["method"] for row in r.rows} == {"proposed", "sdr"}
        # scan grid contains the band samples and the exact user angle
        ue_deg = np.rad2deg(
            angle_from_positions(small_scenario.ris_pos, small_scenario.ue_pos)
        )
        for needed in list(np.arange(85.0, 96.0)) + [ue_deg]:
            assert any(abs(row["angle_deg"] - needed) < 1e-9 for row in r.rows)

    def test_large_surface_skips_sdr(self, scenario):
        r = beampattern_vs_aoa(scenario, seeds=[1], sdr_cap=16)
        assert {row["method"] for row in r.rows} == {"proposed"}


class TestComplexityProbe:
    def test_repeats_validated(self, scenario):
        with pytest.raises(ConfigError):
            run_complexity_probe([16], scenario, repeats=0)

    def test_rows_and_slope(self, scenario):
        r = run_complexity_probe([16, 32], repeats=2, scenario=scenario, sdr_cap=16)
        methods = {(row["n_elements"], row["method"]) for row in r.rows}
        assert (16, "proposed") in methods and (32, "proposed") in methods
        assert (16, "sdr") in methods and (32, "sdr") not in methods
        n, t = np.array([(row["n_elements"], row["median_seconds"])
                         for row in r.rows if row["method"] == "proposed"]).T
        assert np.isfinite(np.polyfit(np.log(n), np.log(t), 1)[0])


class TestCsvFormat:
    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("a", "b"), [{"a": np.pi, "b": 1}])
        assert path.read_text().splitlines()[1] == "3.14159265,1"
