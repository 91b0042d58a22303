import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from ris_isac import cli
from ris_isac.cli import (
    EXIT_CAPABILITY,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
)
from ris_isac.config import ScenarioConfig, default_scenario_path


@pytest.fixture()
def small_file(tmp_path, small_scenario):
    p = tmp_path / "small.json"
    p.write_text(json.dumps(small_scenario.to_dict()))
    return str(p)


class TestValidate:
    def test_shipped_ok(self, capsys):
        assert main(["validate"]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_bad_weights(self, tmp_path, scenario, capsys):
        d = scenario.to_dict()
        d["targets"][0]["weight"] = 0.6
        d["targets"][1]["weight"] = 0.6
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert main(["validate", "--scenario", str(p)]) == EXIT_CONFIG
        assert "sum to 1" in capsys.readouterr().err

    def test_missing_targets_key(self, tmp_path, scenario, capsys):
        d = scenario.to_dict()
        del d["targets"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert main(["validate", "--scenario", str(p)]) == EXIT_CONFIG
        assert "targets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, mutate",
        [
            ("targets[0].weight", lambda d: d["targets"][0].update(weight=float("nan"))),
            ("seed", lambda d: d.update(seed=1.5)),
            ("ris_rows", lambda d: d.update(ris_rows=2.5)),
            ("seed", lambda d: d.update(seed=True)),
            ("alpha", lambda d: d.update(alpha="0.5")),
            ("ue_pos", lambda d: d.update(ue_pos=[1.0])),
            ("ue_pos", lambda d: d.update(ue_pos=[float("nan"), 0.0])),
            ("carrier_hz", lambda d: d.update(carrier_hz=float("nan"))),
            ("rician_kappa", lambda d: d.update(rician_kappa=float("nan"))),
            ("reference_loss_db", lambda d: d.update(reference_loss_db=float("nan"))),
            ("bs_ris_exponent", lambda d: d.update(bs_ris_exponent=float("nan"))),
            ("transmit_power_dbm", lambda d: d.update(transmit_power_dbm=float("inf"))),
            ("noise_power_dbm", lambda d: d.update(noise_power_dbm=float("nan"))),
            ("targets[1].angle_deg", lambda d: d["targets"][1].update(angle_deg=float("nan"))),
            ("ue_pos", lambda d: d.update(ue_pos=5)),
            (
                "targets[0].position",
                lambda d: d["targets"].__setitem__(0, {"weight": 0.5, "position": 5}),
            ),
            ("transmit_power_dbm", lambda d: d.update(transmit_power_dbm=1e6)),
            ("noise_power_dbm", lambda d: d.update(noise_power_dbm=-1e6)),
            ("reference_loss_db", lambda d: d.update(reference_loss_db=1e6)),
            ("lambda_policy", lambda d: d.update(lambda_policy=5)),
            ("targets[0].weight", lambda d: d["targets"][0].update(weight=True)),
            ("targets[1].angle_deg", lambda d: d["targets"][1].update(angle_deg="90")),
            ("bs_ris_exponent", lambda d: d.update(bs_ris_exponent=1e6)),
            ("bs_ris_exponent", lambda d: d.update(bs_ris_exponent=-1e6)),
            ("ris_ue_exponent", lambda d: d.update(ris_ue_exponent=1e6)),
            ("ris_ue_exponent", lambda d: d.update(ris_ue_exponent=-1e6)),
            ("_exponent", lambda d: d.update(ue_pos=[1e308, 0.0], ris_pos=[-1e308, 0.0])),
            ("carrier_hz", lambda d: d.update(carrier_hz=1e-300)),
            ("carrier_hz", lambda d: d.update(carrier_hz=1e308)),
            ("transmit_power_dbm", lambda d: d.update(transmit_power_dbm=3058)),
            (
                "targets[0]: unknown key(s): positon",
                lambda d: d["targets"].__setitem__(
                    0, {"weight": 0.5, "angle_deg": 65.0, "positon": [1, 2]}
                ),
            ),
            ("ris_rows", lambda d: d.update(ris_rows=1e308)),
            ("ris_rows", lambda d: d.update(ris_rows=2**63)),
        ],
        ids=[
            "nan_weight", "fractional_seed", "fractional_ris_rows", "bool_seed",
            "string_alpha", "short_ue_pos", "nan_ue_pos", "nan_carrier", "nan_kappa",
            "nan_reference_loss", "nan_bs_ris_exponent", "inf_power", "nan_noise",
            "nan_target_angle", "scalar_ue_pos", "scalar_target_position", "huge_power",
            "tiny_noise", "huge_reference_loss", "int_lambda_policy", "bool_weight",
            "string_target_angle", "bs_ris_gain_underflow", "bs_ris_gain_overflow",
            "ris_ue_gain_underflow", "ris_ue_gain_overflow", "far_apart_positions",
            "tiny_carrier", "huge_carrier", "link_budget_overflow", "misspelt_target_key",
            "float_ris_rows_overflow", "ris_rows_above_intp",
        ],
    )
    def test_invalid_value_named(self, tmp_path, scenario, capsys, field, mutate):
        d = scenario.to_dict()
        mutate(d)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert main(["solve", "--scenario", str(p)]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "validate"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda p: p.mkdir(),
            lambda p: p.write_text("[1, 2]"),
            lambda p: p.write_bytes(b'{"alpha": 0.5, "\xff": 1}'),
        ],
        ids=["directory", "json_list", "not_utf8"],
    )
    def test_unusable_scenario_file_named(self, tmp_path, capsys, command, make):
        p = tmp_path / "bad.json"
        make(p)
        out = tmp_path / "run"
        args = ["--out", str(out)] if command == "solve" else []
        assert main([command, "--scenario", str(p), *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and str(p) in captured.err
        assert captured.out == "" and not out.exists()

    def test_whole_number_counts_accepted(self, tmp_path, scenario, capsys):
        d = scenario.to_dict()
        assert main(["solve"]) == EXIT_OK
        expected = capsys.readouterr().out
        d.update(bs_antennas=float(d["bs_antennas"]), ris_rows=float(d["ris_rows"]))
        p = tmp_path / "floats.json"
        p.write_text(json.dumps(d))
        assert main(["solve", "--scenario", str(p)]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_alpha_out_of_range(self, tmp_path, scenario):
        d = scenario.to_dict()
        d["alpha"] = 1.5
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(d))
        assert main(["validate", "--scenario", str(p)]) == EXIT_CONFIG


class TestSolve:
    def test_summary_fields(self, capsys):
        assert main(["solve"]) == EXIT_OK
        out = capsys.readouterr().out
        for key in ("gamma_db=", "gain_t1_db=", "gain_ub_t1_db=", "gain_t2_db=",
                    "lambda=", "max_abs_dphi=", "objective="):
            assert key in out

    def test_alpha_zero_reports_sigma_max(self, capsys):
        """With the adaptive schedule at alpha=0 the reported ridge is sigma_max."""
        assert main(["solve", "--alpha", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        lam = float(next(l for l in out.splitlines() if l.startswith("lambda=")).split("=")[1])
        assert lam == pytest.approx(15.38800258951944, rel=1e-6)

    def test_flag_overrides_file(self, capsys):
        assert main(["solve", "--lambda-policy", "fixed:1.0", "--alpha", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        lam = float(next(l for l in out.splitlines() if l.startswith("lambda=")).split("=")[1])
        # fixed:1.0 ignores alpha and applies the full sigma_max
        assert lam == pytest.approx(15.38800258951944, rel=1e-6)

    def test_bad_policy_flag(self, capsys):
        assert main(["solve", "--lambda-policy", "banana"]) == EXIT_CONFIG

    @pytest.mark.parametrize("policy", ["fixed:nan", "fixed:inf", "fixed:1e308"])
    def test_nonfinite_ridge_rejected(self, capsys, policy):
        assert main(["solve", "--lambda-policy", policy]) == EXIT_CONFIG
        assert "lambda_policy" in capsys.readouterr().err

    def test_unexpected_exception_is_one_line(self, monkeypatch, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_solve", boom)
        assert main(["solve"]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_other_warnings_pass_through(self, monkeypatch):
        def warn(args):
            warnings.warn("boom", RuntimeWarning)
            return EXIT_OK

        monkeypatch.setattr(cli, "cmd_solve", warn)
        with pytest.warns(RuntimeWarning, match="boom"):
            assert main(["solve"]) == EXIT_OK
        # under the suite's filterwarnings = error it still fails the run
        assert main(["solve"]) == EXIT_INTERNAL

    def test_manifest_written(self, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["solve", "--out", str(out_dir)]) == EXIT_OK
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == ["solve", "--out", str(out_dir)]
        assert manifest["scenario_path"] == str(default_scenario_path())
        assert manifest["seed_list"] == [1]
        assert manifest["wall_time_s"] > 0


class TestExperiment:
    def test_alpha_sweep_row_count(self, small_file, tmp_path):
        out = tmp_path / "exp"
        code = main([
            "experiment", "alpha-sweep", "--scenario", small_file,
            "--out", str(out), "--alphas", "0,0.5,1", "--seeds", "2",
        ])
        assert code == EXIT_OK
        lines = (out / "alpha_sweep.csv").read_text().splitlines()
        # 3 alphas x 3 default policies x 2 seeds + header
        assert len(lines) == 1 + 3 * 3 * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed_list"] == [1, 2]

    def test_rerun_byte_identical(self, small_file, tmp_path):
        args = lambda d: [
            "experiment", "alpha-sweep", "--scenario", small_file,
            "--out", d, "--alphas", "0,1", "--seeds", "2",
        ]
        d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert main(args(d1)) == EXIT_OK
        assert main(args(d2)) == EXIT_OK
        b1 = (tmp_path / "r1" / "alpha_sweep.csv").read_bytes()
        b2 = (tmp_path / "r2" / "alpha_sweep.csv").read_bytes()
        assert b1 == b2

    def test_sdr_above_cap_exits_4(self, tmp_path, capsys):
        code = main([
            "experiment", "heatmap", "--method", "sdr", "--out", str(tmp_path / "h"),
        ])
        assert code == EXIT_CAPABILITY
        assert "cap" in capsys.readouterr().err

    def test_aoa_scan_writes_csv(self, small_file, tmp_path):
        out = tmp_path / "scan"
        code = main([
            "experiment", "aoa-scan", "--scenario", small_file, "--out", str(out),
        ])
        assert code == EXIT_OK
        header = (out / "aoa_scan.csv").read_text().splitlines()[0]
        assert header == "angle_deg,method,gain_db"

    def test_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "frobnicate"])

    @pytest.mark.parametrize("alphas", ["0.5,x", "1.5", "nan", "-1", ""])
    def test_bad_alphas_rejected_before_output(self, small_file, tmp_path, capsys, alphas):
        out = tmp_path / "exp"
        code = main([
            "experiment", "alpha-sweep", "--scenario", small_file,
            "--out", str(out), f"--alphas={alphas}",
        ])
        assert code == EXIT_CONFIG
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sdr_cap_rejected_before_output(self, tmp_path, capsys):
        out = tmp_path / "h"
        code = main([
            "experiment", "heatmap", "--method", "sdr", "--sdr-cap", "-3", "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert "--sdr-cap" in capsys.readouterr().err
        assert not out.exists()

    def test_complexity_manifest_records_probe_seed(self, small_file, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_N_LIST", (16,))
        out = tmp_path / "c"
        code = main([
            "experiment", "complexity", "--scenario", small_file,
            "--sdr-cap", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed_list"] == [ScenarioConfig.from_file(small_file).seed]
        # a cap of 0 is valid and leaves only the proposed row
        rows = (out / "complexity.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["16", "proposed"]]

    @pytest.mark.parametrize("study, flag, value", [
        ("heatmap", "--alphas", "0.5"),
        ("alpha-sweep", "--alpha", "0.5"),
        ("alpha-sweep", "--method", "sdr"),
        ("alpha-sweep", "--sdr-cap", "5"),
        ("weight-sweep", "--alphas", "0.3"),
        ("weight-sweep", "--method", "sdr"),
        ("weight-sweep", "--sdr-cap", "5"),
        ("aoa-scan", "--alphas", "0.5"),
        ("aoa-scan", "--method", "sdr"),
        ("complexity", "--seeds", "4"),
        ("complexity", "--alpha", "0.5"),
        ("complexity", "--alphas", "0.5"),
        ("complexity", "--method", "sdr"),
    ])
    def test_unread_flag_rejected_before_output(self, tmp_path, capsys, study, flag, value):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["experiment", study, flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1", "2"])
    def test_ill_posed_design_warns_on_one_line(self, tmp_path, scenario, capsys, seeds):
        """11 band targets on a 3x3 surface exceed N = 9; the scan still runs."""
        p = tmp_path / "three.json"
        p.write_text(json.dumps(scenario.replace(ris_rows=3, ris_cols=3).to_dict()))
        out = tmp_path / "scan"
        code = main([
            "experiment", "aoa-scan", "--scenario", str(p), "--seeds", seeds,
            "--sdr-cap", "0", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            "warning: 11 targets exceed 9 RIS elements; system is overdetermined\n"
        )
        assert len((out / "aoa_scan.csv").read_text().splitlines()) == 1 + 721

    def test_seeds_must_be_positive(self, small_file, tmp_path):
        code = main([
            "experiment", "alpha-sweep", "--scenario", small_file,
            "--out", str(tmp_path / "x"), "--seeds", "0",
        ])
        assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "argv",
    [
        lambda out: ["experiment", "weight-sweep", "--out", str(out)],
        lambda out: ["solve", "--out", str(out / "x")],
    ],
    ids=["existing_file", "below_a_file"],
)
def test_unusable_out_is_config_error(tmp_path, small_file, capsys, argv):
    """An --out that cannot be made a directory exits 2 and writes nothing."""
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main([*argv(out), "--scenario", small_file]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --out: ") and captured.out == ""
    assert out.read_text() == "keep" and sorted(tmp_path.iterdir()) == sorted(
        [out, tmp_path / "small.json"]
    )


def test_failed_experiment_leaves_no_output(tmp_path):
    """A study that fails writes neither a manifest nor a results directory."""
    out = tmp_path / "failed"
    assert main(["experiment", "heatmap", "--method", "sdr", "--out", str(out)]) == EXIT_CAPABILITY
    assert not out.exists()


_SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
    5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
]
_JUNK = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(),
    st.integers(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=3),
    st.none(),
)
# Element and antenna counts stay at or below 8 when they are valid, so that no
# example allocates a huge surface; every other invalid count is still drawn.
_COUNT = st.one_of(
    st.sampled_from([v for v in _SPECIAL_FLOATS if v != 1e308]),
    st.floats(max_value=8.0),
    st.integers(max_value=8),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.floats(), max_size=3),
    st.none(),
)
_POLICY = st.one_of(
    _JUNK,
    st.sampled_from(["adaptive", "fixed:nan", "fixed:inf", "fixed:-1", "fixed:1e308"]),
    st.floats().map(lambda c: f"fixed:{c!r}"),
)
_COUNTS = ("bs_antennas", "ris_rows", "ris_cols")


@st.composite
def _mutated_scenarios(draw):
    """The shipped scenario with one to four fields or target entries replaced."""
    d = json.loads(default_scenario_path().read_text())
    targets = d["targets"]
    keys = st.sampled_from([*d, "targets[0]", "targets[1]"])
    for key in draw(st.lists(keys, min_size=1, max_size=4)):
        if key.startswith("targets["):
            entry = draw(st.sampled_from(["weight", "angle_deg", "position"]))
            targets[int(key[8])][entry] = draw(_JUNK)
        else:
            values = _COUNT if key in _COUNTS else _POLICY if key == "lambda_policy" else _JUNK
            d[key] = draw(values)
    return d


def _shipped_with(**fields):
    d = json.loads(default_scenario_path().read_text())
    d.update(fields)
    return d


@settings(max_examples=200, deadline=None)
@given(d=_mutated_scenarios())
# alphas whose linear ceiling P*beta_g*M*(alpha*w_k*N)^2 is subnormal or underflows to 0
@example(d=_shipped_with(alpha=5e-162))
@example(d=_shipped_with(alpha=3e-162))
def test_any_scenario_is_rejected_or_finite(tmp_path_factory, d):
    """Any mutation of the shipped scenario exits 2, or exits 0 with finite output."""
    p = tmp_path_factory.getbasetemp() / "mutated.json"
    p.write_text(json.dumps(d))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", "--scenario", str(p)])
    assert code in (EXIT_OK, EXIT_CONFIG), err.getvalue()
    if code == EXIT_CONFIG:
        return
    # the gain ceiling is printed as a sum of logs, so it is -inf only for a zero factor
    s = ScenarioConfig.from_dict(d)
    zero_ceilings = {
        f"gain_ub_t{k}_db" for k, w in enumerate(s.weights, 1) if s.alpha == 0 or w == 0
    }
    for item in out.getvalue().split():
        key, value = item.split("=")
        assert math.isfinite(float(value)) or (key in zero_ceilings and value == "-inf"), item
