"""RunConfig validation and the defaults < file < flags precedence chain."""
import json
import math

import pytest

from dynav.config import RunConfig, load_config
from dynav.errors import ConfigError


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.alpha == 0.8
    assert cfg.theta_delta == pytest.approx(math.radians(15.0))
    assert cfg.fov == pytest.approx(math.radians(131.0))
    assert cfg.avoid_clearance == pytest.approx(0.17 + 0.15)
    assert RunConfig(avoid_clearance_m=0.4).avoid_clearance == 0.4


@pytest.mark.parametrize("bad", [
    {"alpha": 0.0},
    {"alpha": 1.5},
    {"tau_stop": 1.2},
    {"theta_delta_deg": -1.0},
    {"n_rays": 1},
    {"d_max": 0.0},
    {"success_threshold_m": -0.1},
    {"r_min": -0.2},
    {"agent_radius": 0.0},
    {"epsilon_mask": 1.5},
    {"workers": 0},
    {"max_steps": 0},
    {"max_distance_m": 0.0},
    {"backend": "psychic"},
    {"backend": "remote"},  # remote without an endpoint
    {"memory_hops": -1},
    {"memory_budget": -1},
    {"d_max": math.nan},
    {"tau_stop": math.nan},
    {"max_distance_m": math.inf},
    {"avoid_clearance_m": -math.inf},
])
def test_validation_rejects(bad):
    with pytest.raises(ConfigError):
        RunConfig(**bad)


def test_load_config_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 0.5, "n_rays": 91}))
    cfg = load_config(str(path), {"alpha": 0.9, "seed": None})
    assert cfg.alpha == 0.9          # flag beats file
    assert cfg.n_rays == 91          # file beats default
    assert cfg.seed == 0             # None flags fall through to the default
    assert load_config(None, {}) == RunConfig()


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 0.5, "warp_drive": 9}))
    with pytest.raises(ConfigError, match="warp_drive"):
        load_config(str(path))


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "alpha": 0.5,\n}')
    with pytest.raises(ConfigError, match=r":3:1:"):
        load_config(str(path))


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(path))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_rejects_bad_override_key():
    with pytest.raises(ConfigError):
        load_config(None, {"flux": 1})