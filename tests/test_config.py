import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rovermotion.config import (
    ConfigError,
    RoverConfig,
    WheelId,
    load_config,
    validate_config,
    wheel_positions,
)


def test_breadboard_defaults_are_valid():
    cfg = validate_config(RoverConfig())
    assert cfg.mass == 84.0
    assert cfg.wheel_longitudinal_separation == 0.980
    assert cfg.wheel_lateral_separation == 0.830
    assert cfg.ground_clearance == 0.250


def test_zero_mass_rejected():
    with pytest.raises(ConfigError, match="non-positive mass"):
        validate_config(RoverConfig(mass=0.0))


def test_zero_steering_limit_rejected():
    with pytest.raises(ConfigError, match="empty steering range"):
        validate_config(RoverConfig(steering_limit=0.0))


def test_lunar_gravity_override():
    cfg = validate_config(RoverConfig(gravity=1.62))
    assert cfg.gravity == 1.62


def test_validate_is_idempotent():
    cfg = validate_config(RoverConfig())
    assert validate_config(cfg) == cfg


def test_wheel_positions_breadboard():
    pos = wheel_positions(RoverConfig())
    assert pos[WheelId.FL] == pytest.approx((0.490, 0.415))
    assert pos[WheelId.FR] == pytest.approx((0.490, -0.415))
    assert pos[WheelId.RR] == pytest.approx((-0.490, -0.415))


def test_wheel_positions_unit_square():
    pos = wheel_positions(
        RoverConfig(wheel_longitudinal_separation=2.0, wheel_lateral_separation=2.0)
    )
    assert sorted(pos.values()) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


@given(
    length=st.floats(0.1, 10.0),
    width=st.floats(0.1, 10.0),
)
def test_wheel_positions_reflection_symmetry(length, width):
    pos = wheel_positions(
        RoverConfig(
            wheel_longitudinal_separation=length, wheel_lateral_separation=width
        )
    )
    # mirror across the x axis swaps left/right, across y swaps front/rear
    assert pos[WheelId.FL] == (pos[WheelId.FR][0], -pos[WheelId.FR][1])
    assert pos[WheelId.FL] == (-pos[WheelId.RL][0], pos[WheelId.RL][1])
    assert pos[WheelId.FL] == (-pos[WheelId.RR][0], -pos[WheelId.RR][1])


def test_load_config_file(tmp_path):
    path = tmp_path / "rover.cfg"
    path.write_text("mass = 42\nwheel_radius = 0.2\n# comment\n")
    cfg = load_config(path)
    assert cfg.mass == 42.0
    assert cfg.wheel_radius == 0.2
    assert cfg.gravity == 9.81  # untouched default


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "rover.cfg"
    path.write_text("masss = 42\n")
    with pytest.raises(ConfigError, match="unknown config keys: masss"):
        load_config(path)


@pytest.mark.parametrize("name", sorted(RoverConfig.__dataclass_fields__))
def test_nan_field_rejected(name):
    with pytest.raises(ConfigError):
        validate_config(replace(RoverConfig(), **{name: math.nan}))
