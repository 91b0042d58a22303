import numpy as np
import pytest
from sweeps import mean_over_seeds

from ris_isac import (
    CapExceeded,
    ConfigError,
    LambdaPolicy,
    TargetSpec,
    build_system,
    channel,
    pipeline,
    solve_scenario,
)
from ris_isac.channel import angle_from_positions, ris_steering_tx, target_angle
from ris_isac.errors import IllPosedWarning
from ris_isac.experiments import (
    WEIGHT_RATIOS,
    beampattern_vs_aoa,
    run_complexity_probe,
    run_heatmap,
    sweep_alpha,
    sweep_weight_ratio,
    write_csv,
)


class TestHeatmap:
    def test_shape_and_finiteness(self, scenario):
        h = run_heatmap(scenario, "proposed", seeds=[1])
        # one row per cell of the fixed 2 m grid, 60 x 40 cells, y outer and x inner
        x, y = [1.0 + 2.0 * i for i in range(60)], [-39.0 + 2.0 * j for j in range(40)]
        assert [(r["x_m"], r["y_m"]) for r in h.rows] == [(xi, yi) for yi in y for xi in x]
        assert (h.rows[0]["x_m"], h.rows[0]["y_m"]) == (1.0, -39.0)
        assert (h.rows[-1]["x_m"], h.rows[-1]["y_m"]) == (119.0, 39.0)
        assert np.all(np.isfinite([r["gain_db"] for r in h.rows]))

    def test_sdr_cap(self, scenario):
        with pytest.raises(CapExceeded):
            run_heatmap(scenario, "sdr", seeds=[1])

    def test_unknown_method(self, scenario):
        with pytest.raises(ConfigError):
            run_heatmap(scenario, "magic", seeds=[1])

    def test_proposed_beats_comm_only_at_targets(self, scenario):
        """Perturbing toward the targets raises the gain at the target angles."""
        seeds = [1, 2, 3]
        p = run_heatmap(scenario, "proposed", seeds=seeds).rows
        c = run_heatmap(scenario, "comm-only", seeds=seeds).rows
        ris_x, ris_y = scenario.ris_pos
        cell_angles = np.array([np.arctan2(r["y_m"] - ris_y, r["x_m"] - ris_x) for r in p])
        # the cell whose angle from the RIS is nearest each target's angle
        picked = [int(np.argmin(np.abs(cell_angles - target_angle(scenario, k))))
                  for k in range(len(scenario.targets))]
        assert [(p[i]["x_m"], p[i]["y_m"]) for i in picked] == [(33.0, 37.0), (29.0, 39.0)]
        assert all(p[i]["gain_db"] > c[i]["gain_db"] for i in picked)

    def test_csv_roundtrip(self, scenario, tmp_path):
        h = run_heatmap(scenario, "comm-only", seeds=[1])
        path = tmp_path / "heatmap.csv"
        h.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_m,y_m,gain_db"
        assert len(lines) == 1 + len(h.rows)


class TestCellRunner:
    """The one seed loop, `_realizations`, behind every study that takes a seed list."""

    @pytest.mark.parametrize("method, factorizations", [
        ("comm-only", 0), ("sdr", 0), ("proposed", 2),
    ])
    def test_only_designs_factorize(self, small_scenario, monkeypatch, method, factorizations):
        calls = []

        def counting_build_system(*args):
            calls.append(args)
            return build_system(*args)

        monkeypatch.setattr(pipeline, "build_system", counting_build_system)
        run_heatmap(small_scenario, method, seeds=[1, 2])
        assert len(calls) == factorizations

    def test_steering_computed_once_per_study(self, scenario, monkeypatch):
        calls = []

        def counting_steering_tx(*args):
            calls.append(args)
            return ris_steering_tx(*args)

        monkeypatch.setattr(channel, "ris_steering_tx", counting_steering_tx)
        sweep_alpha(scenario, [0.5], [LambdaPolicy()], [1, 2, 3])
        assert len(calls) == 1

    @pytest.mark.parametrize("study", [
        lambda s, seeds: run_heatmap(s, "proposed", seeds),
        lambda s, seeds: sweep_alpha(s, [0.5], [LambdaPolicy()], seeds),
        sweep_weight_ratio,
        beampattern_vs_aoa,
    ], ids=["heatmap", "alpha-sweep", "weight-sweep", "aoa-scan"])
    def test_empty_seed_list_rejected(self, small_scenario, study):
        with pytest.raises(ConfigError, match="seeds"):
            study(small_scenario, [])

    @pytest.mark.parametrize("size, study", [
        (4, lambda s, seeds: run_heatmap(s, "comm-only", seeds)),
        (4, lambda s, seeds: run_heatmap(s, "proposed", seeds)),
        # 6x6: the 11-target band gives 22 equations for 36 elements, and SDR runs
        (6, beampattern_vs_aoa),
    ], ids=["heatmap-comm-only", "heatmap-proposed", "aoa-scan"])
    def test_two_seed_mean_is_mean_of_one_seed_runs(self, small_scenario, size, study):
        """The seed mean is a running total in seed order, so it equals the
        mean of the one-seed runs bit for bit."""
        s = small_scenario.replace(ris_rows=size, ris_cols=size)
        g1, g2, g12 = ([r["gain_db"] for r in study(s, seeds).rows] for seeds in ([1], [2], [1, 2]))
        assert g12 == [(a + b) / 2 for a, b in zip(g1, g2)]


class TestSweepAlpha:
    def test_rows_and_determinism(self, scenario, tmp_path):
        r1 = sweep_alpha(scenario, [0.0, 1.0], [LambdaPolicy(), LambdaPolicy(0.5)], [1, 2])
        r2 = sweep_alpha(scenario, [0.0, 1.0], [LambdaPolicy(), LambdaPolicy(0.5)], [1, 2])
        assert len(r1.rows) == 2 * 2 * 2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1.write_csv(p1)
        r2.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fieldnames_cover_targets(self, scenario):
        r = sweep_alpha(scenario, [0.5], [LambdaPolicy()], [1])
        assert r.fieldnames == (
            "alpha", "lambda_policy", "seed", "gamma_db", "gain_t1_db", "gain_t2_db"
        )

    def test_mean_over_seeds(self, scenario):
        r = sweep_alpha(scenario, [0.5], [LambdaPolicy()], [1, 2])
        vals = [row["gamma_db"] for row in r.rows]
        assert mean_over_seeds(r, "gamma_db", alpha=0.5) == pytest.approx(np.mean(vals))
        with pytest.raises(KeyError):
            mean_over_seeds(r, "gamma_db", alpha=0.123)


class TestSharedRealization:
    """Cells that share a seed's realization equal independent solves exactly."""

    def test_sweep_alpha_matches_independent_solves(self, scenario):
        alphas, policies, seeds = [0.25, 1.0], [LambdaPolicy(), LambdaPolicy(0.1)], [1, 2]
        r = sweep_alpha(scenario, alphas, policies, seeds)
        assert [(row["alpha"], row["lambda_policy"], row["seed"]) for row in r.rows] == [
            (a, str(p), s) for a in alphas for p in policies for s in seeds
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
        r = sweep_weight_ratio(base, [1, 2])
        assert [(row["ratio"], row["seed"]) for row in r.rows] == [
            (ratio, seed) for ratio in WEIGHT_RATIOS for seed in (1, 2)
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
            sweep_weight_ratio(one, [1])

    def test_ratio_one_balanced(self, scenario):
        r = sweep_weight_ratio(scenario.replace(alpha=0.5), [1, 2, 3])
        p1 = mean_over_seeds(r, "gain_t1_db", ratio=1.0)
        p2 = mean_over_seeds(r, "gain_t2_db", ratio=1.0)
        assert abs(p1 - p2) < 1.0


class TestAoaScan:
    def test_band_expansion_and_grid(self, small_scenario):
        # 11 band targets give 22 real equations for the 16 elements
        with pytest.warns(IllPosedWarning):
            r = beampattern_vs_aoa(small_scenario, seeds=[1])
        assert {row["method"] for row in r.rows} == {"proposed", "sdr"}
        # scan grid contains the band samples and the exact user angle
        ue_deg = np.rad2deg(
            angle_from_positions(small_scenario.ris_pos, small_scenario.ue_pos)
        )
        for needed in list(np.arange(85.0, 96.0)) + [ue_deg]:
            assert any(abs(row["angle_deg"] - needed) < 1e-9 for row in r.rows)

    def test_large_surface_skips_sdr(self, scenario):
        r = beampattern_vs_aoa(scenario, seeds=[1])
        assert {row["method"] for row in r.rows} == {"proposed"}


class TestComplexityProbe:
    def test_repeats_validated(self, scenario):
        with pytest.raises(ConfigError):
            run_complexity_probe([16], scenario, repeats=0)

    def test_rows_and_slope(self, scenario):
        r = run_complexity_probe([16, 128], repeats=2, scenario=scenario)
        methods = {(row["n_elements"], row["method"]) for row in r.rows}
        assert (16, "proposed") in methods and (128, "proposed") in methods
        assert (16, "sdr") in methods and (128, "sdr") not in methods
        n, t = np.array([(row["n_elements"], row["median_seconds"])
                         for row in r.rows if row["method"] == "proposed"]).T
        assert np.isfinite(np.polyfit(np.log(n), np.log(t), 1)[0])


class TestCsvFormat:
    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ("a", "b"), [{"a": np.pi, "b": 1}])
        assert path.read_text().splitlines()[1] == "3.14159265,1"
