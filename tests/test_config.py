"""RunConfig validation and the defaults < file < flags precedence chain."""
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings

from dynav.config import RunConfig, load_config
from dynav.errors import ConfigError

from conftest import json_values, replaced, replacements


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
    {"fov_deg": 0.0},
    {"fov_deg": -30.0},
    {"fov_deg": 360.0},
    {"fov_deg": 400.0},
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
    {"max_backend_failures": -1},
    {"d_max": math.nan},
    {"tau_stop": math.nan},
    {"max_distance_m": math.inf},
    {"avoid_clearance_m": -math.inf},
    {"avoid_clearance_m": -0.1},
    {"hazard_clearance_m": -0.5},
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

# -- config files: each key is checked against the JSON type of its field ----------

@pytest.mark.parametrize("raw", [
    {"memory_enabled": "false"},   # a true string, which would keep memory on
    {"n_rays": 2.5},
    {"n_rays": True},
    {"alpha": "0.5"},
    {"alpha": None},
    {"avoid_clearance_m": "0.4"},
    {"endpoint": 8080},
    {"backend": ["oracle"]},
    {"d_max": 10 ** 400},
], ids=repr)
def test_load_config_refuses_a_wrong_type(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=next(iter(raw))):
        load_config(str(path))


def test_load_config_takes_integers_for_floats_and_null_for_optionals(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 1, "avoid_clearance_m": None, "endpoint": None,
                                "memory_enabled": False, "backend": "oracle"}))
    cfg = load_config(str(path))
    assert cfg.alpha == 1.0 and isinstance(cfg.alpha, float)
    assert cfg.avoid_clearance_m is None and cfg.memory_enabled is False


def test_load_config_takes_a_file_of_every_default(tmp_path):
    # every field's type is one that load_config knows how to check
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dataclasses.asdict(RunConfig())))
    assert load_config(str(path)) == RunConfig()


VALID_CONFIG = {"alpha": 0.5, "n_rays": 91, "memory_enabled": True, "avoid_clearance_m": 0.4,
                "backend": "remote", "endpoint": "http://127.0.0.1:1/decide", "seed": 3}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


def loads_or_refuses(path, payload):
    path.write_text(json.dumps(payload))
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert isinstance(cfg.n_rays, int) and isinstance(cfg.memory_enabled, bool)
    assert isinstance(cfg.alpha, float) and math.isfinite(cfg.alpha)


@settings(max_examples=200, deadline=None)
@given(payload=json_values)
def test_load_config_raises_only_config_error(config_path, payload):
    loads_or_refuses(config_path, payload)


@pytest.mark.parametrize("key", sorted(VALID_CONFIG))
@settings(max_examples=30, deadline=None)
@given(value=replacements)
def test_load_config_field_raises_only_config_error(config_path, key, value):
    loads_or_refuses(config_path, replaced(VALID_CONFIG, (key,), value))
