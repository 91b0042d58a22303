import ast
import inspect
import json

import pytest
from hypothesis import example, given, strategies as st

from ris_isac import ConfigError, LambdaPolicy, ScenarioConfig, TargetSpec, load_default_scenario
from ris_isac import config
from ris_isac.config import default_scenario_path


class TestLambdaPolicy:
    def test_parse_adaptive(self):
        p = LambdaPolicy.parse("adaptive")
        assert p == LambdaPolicy() and str(p) == "adaptive"

    def test_parse_fixed(self):
        p = LambdaPolicy.parse("fixed:0.5")
        assert p == LambdaPolicy(0.5)
        assert str(p) == "fixed:0.5"

    @pytest.mark.parametrize("bad", ["fixed:", "fixed:abc", "ridge", "", "0.5"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            LambdaPolicy.parse(bad)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigError):
            LambdaPolicy(-0.1)

    @pytest.mark.parametrize("fraction", [float("nan"), float("inf"), True, "0.5"])
    def test_nonfinite_fraction_rejected(self, fraction):
        with pytest.raises(ConfigError, match="lambda_policy"):
            LambdaPolicy(fraction)

    @given(st.none() | st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @example(0.123456789)
    @example(None)
    def test_parse_str_roundtrip(self, fraction):
        p = LambdaPolicy(fraction)
        assert LambdaPolicy.parse(str(p)) == p
        held = load_default_scenario().replace(lambda_policy=p)
        assert ScenarioConfig.from_dict(held.to_dict()) == held


class TestTargetSpec:
    def test_needs_exactly_one_location(self):
        with pytest.raises(ConfigError):
            TargetSpec(weight=0.5)
        with pytest.raises(ConfigError):
            TargetSpec(weight=0.5, angle_deg=90.0, position=(1.0, 2.0))

    def test_negative_weight(self):
        with pytest.raises(ConfigError):
            TargetSpec(weight=-0.1, angle_deg=90.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"weight": True, "angle_deg": 90.0}, "weight"),
            ({"weight": 0.5, "angle_deg": "90"}, "angle_deg"),
            ({"weight": 0.5, "position": (1.0, float("inf"))}, "position"),
        ],
    )
    def test_field_kinds_checked(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            TargetSpec(**kwargs)


class TestPathGains:
    def test_reference_values(self, scenario):
        # 30 + 22 log10(d) dB over the BS-RIS distance hypot(30, 30) of the shipped
        # layout, and 30 + 25 log10(d) dB over its RIS-user distance hypot(70, 50)
        beta_g, beta_ue = scenario.path_gains
        assert beta_g == pytest.approx(2.625428796375616e-07)
        assert beta_ue == pytest.approx(1.4570026790857404e-08)

    def test_monotone_in_distance(self, scenario):
        near = scenario.replace(ue_pos=(40.0, 30.0))  # 10 m from the RIS
        far = scenario.replace(ue_pos=(50.0, 30.0))  # 20 m
        assert near.path_gains[1] > far.path_gains[1]
        assert near.path_gains[0] == far.path_gains[0]


class TestScenarioConfig:
    def test_shipped_scenario_valid(self, scenario):
        scenario.validate()
        assert scenario.n_elements == 441
        assert scenario.weights == (0.5, 0.5)

    def test_power_conversions(self, scenario):
        assert scenario.transmit_power_w == pytest.approx(1.0)
        assert scenario.noise_power_w == pytest.approx(1e-11)

    def test_weights_must_sum_to_one(self, scenario):
        with pytest.raises(ConfigError, match="sum to 1"):
            scenario.replace(targets=tuple(
                TargetSpec(weight=0.6, angle_deg=t.angle_deg) for t in scenario.targets
            ))

    def test_alpha_range(self, scenario):
        with pytest.raises(ConfigError, match="alpha"):
            scenario.replace(alpha=1.5).validate()

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"bs_pos": [30.0, 30.0]}, "ris_pos"),
            ({"ue_pos": [30.0, 30.0]}, "ue_pos"),
            ({"targets": [{"weight": 0.5, "angle_deg": 65.0},
                          {"weight": 0.5, "position": [30.0, 30.0]}]}, r"targets\[1\]"),
            # distinct as integers, one float: 10**20 + 1 rounds to 1e20
            ({"bs_pos": [10**20, 0], "ris_pos": [10**20 + 1, 0]}, "ris_pos"),
        ],
        ids=["bs_ris", "ris_ue", "target_ris", "integers_equal_as_floats"],
    )
    def test_coincident_positions(self, fields, field):
        d = {**json.loads(default_scenario_path().read_text()), **fields}
        with pytest.raises(ConfigError, match=rf"^{field}: (position )?coincides"):
            ScenarioConfig.from_dict(d)

    def test_positions_held_as_float_pairs(self, scenario):
        d = json.loads(default_scenario_path().read_text())
        d.update(bs_pos=[0, 0], ris_pos=[30, 30], ue_pos=[100, -20])
        d["targets"][1] = {"weight": 0.5, "position": [45, 70]}
        s = ScenarioConfig.from_dict(d)
        for pos in (s.bs_pos, s.ris_pos, s.ue_pos, s.targets[1].position):
            assert type(pos) is tuple and [type(c) for c in pos] == [float, float], pos
        hash(s)
        # a list given to replace is held the same way
        assert scenario.replace(ue_pos=[100, -20]).ue_pos == (100.0, -20.0)

    def test_link_budget_derived_without_channel(self):
        # config derives the path gains itself and imports nothing from channel
        tree = ast.parse(inspect.getsource(config))
        assert "channel" not in {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}

    @pytest.mark.parametrize(
        "build",
        [
            lambda s: s.replace(alpha=float("nan")),
            lambda s: s.replace(lambda_policy="adaptive"),
            lambda s: s.replace(targets=[]),
            lambda s: ScenarioConfig(**{**vars(s), "seed": -1}),
        ],
        ids=["replace", "replace_policy_str", "replace_targets_list", "direct"],
    )
    def test_every_construction_checks(self, scenario, build):
        with pytest.raises(ConfigError):
            build(scenario)

    def test_dict_roundtrip(self, scenario):
        again = ScenarioConfig.from_dict(scenario.to_dict())
        assert again == scenario
        fixed = scenario.replace(lambda_policy=LambdaPolicy(0.123456789))
        assert ScenarioConfig.from_dict(fixed.to_dict()) == fixed

    def test_missing_key_named(self, scenario):
        d = scenario.to_dict()
        del d["targets"]
        with pytest.raises(ConfigError, match="targets"):
            ScenarioConfig.from_dict(d)

    def test_unknown_key_rejected(self, scenario):
        d = scenario.to_dict()
        d["bandwith_hz"] = 1e6
        with pytest.raises(ConfigError, match="bandwith_hz"):
            ScenarioConfig.from_dict(d)

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ScenarioConfig.from_file(tmp_path / "nope.json")

    def test_from_file_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            ScenarioConfig.from_file(p)

    def test_shipped_file_exists(self):
        assert default_scenario_path().exists()
        json.loads(default_scenario_path().read_text())
