import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rovermotion.config import (
    ConfigError,
    RoverConfig,
    WheelId,
    csv_rows,
    load_config,
    open_output,
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


def test_open_output_replaces_the_file_only_when_the_block_succeeds(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"previous\n")
    with pytest.raises(ZeroDivisionError):
        with open_output(path) as handle:
            handle.write(b"partial")
            1 / 0
    assert path.read_bytes() == b"previous\n"
    with open_output(path) as handle:
        handle.write(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_open_output_names_the_file_it_cannot_write(tmp_path):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(ConfigError) as info:
        with open_output(path):
            pass
    assert str(info.value) == f"cannot write {path}: No such file or directory"


def test_csv_rows_skips_blank_rows_and_names_lines():
    lines = ["a,b\n", "1,2\n", "\n", "3,4\n"]
    assert list(csv_rows(lines, ["a", "b"], "t.csv", first_lineno=5)) == [
        ("t.csv:6", ["1", "2"]), ("t.csv:8", ["3", "4"])]
    with pytest.raises(ConfigError, match=r"^t.csv: expected header a,b$"):
        list(csv_rows(["a\n"], ["a", "b"], "t.csv"))
    with pytest.raises(ConfigError, match=r"^t.csv:3: expected 2 columns, got 3$"):
        list(csv_rows(["a,b\n", "1,2\n", "1,2,3\n"], ["a", "b"], "t.csv"))
