import math
import re
from dataclasses import fields, replace
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rovermotion.config import (
    BodyTwist,
    LocomotionMode,
    RoverConfig,
    WheelId,
    csv_rows,
    load_config,
    open_output,
    wheel_positions,
)
from rovermotion.errors import DataError
from rovermotion.kinematics import ProfileSegment
from rovermotion.terrain import PowerModelParams, Scenario, TerrainParams


def test_breadboard_defaults_are_valid():
    cfg = RoverConfig()
    assert cfg.mass == 84.0
    assert cfg.wheel_longitudinal_separation == 0.980
    assert cfg.wheel_lateral_separation == 0.830
    assert cfg.wheel_radius == 0.15


def test_zero_mass_rejected():
    with pytest.raises(DataError, match="non-positive mass"):
        RoverConfig(mass=0.0)


def test_zero_steering_limit_rejected():
    with pytest.raises(DataError, match="empty steering range"):
        RoverConfig(steering_limit=0.0)


def test_lunar_gravity_override():
    cfg = RoverConfig(gravity=1.62)
    assert cfg.gravity == 1.62


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
    with pytest.raises(DataError, match="unknown keys: masss"):
        load_config(path)


@pytest.mark.parametrize("name", sorted(RoverConfig.__dataclass_fields__))
def test_nan_field_rejected(name):
    with pytest.raises(DataError):
        replace(RoverConfig(), **{name: math.nan})


# A value outside each range of the parameter types, and the message it
# raises. NaN is outside every range, so it raises its field's message.
OUT_OF_RANGE = [
    (RoverConfig, "mass", 0.0, "non-positive mass"),
    (RoverConfig, "gravity", -9.81, "non-positive gravity"),
    *[(RoverConfig, name, 0.0, f"non-positive {name}")
      for name in ("wheel_longitudinal_separation", "wheel_lateral_separation",
                   "wheel_radius")],
    (RoverConfig, "steering_rate", 0.0, "non-positive steering rate"),
    (RoverConfig, "steering_limit", 0.0, "empty steering range"),
    (RoverConfig, "steering_limit", 3.2, "empty steering range"),
    (TerrainParams, "slope_deg", -1.0, "slope out of supported range"),
    (TerrainParams, "slope_deg", 90.0, "slope out of supported range"),
    *[(TerrainParams, name, value, f"{name} outside (0, 1]")
      for name in ("skid_rotation_efficiency", "point_turn_efficiency")
      for value in (0.0, 1.01)],
    (TerrainParams, "longitudinal_slip_ratio", -0.1, "longitudinal_slip_ratio outside [0, 1)"),
    (TerrainParams, "longitudinal_slip_ratio", 1.0, "longitudinal_slip_ratio outside [0, 1)"),
    (TerrainParams, "noise_std", -0.01, "negative noise_std"),
    *[(TerrainParams, "rng_seed", seed, "rng_seed is not a non-negative integer")
      for seed in (-1, 1.5, 2.0)],
    *[(PowerModelParams, name, -0.1, f"negative {name}")
      for name in ("idle_power_per_drive", "rolling_resistance_coeff",
                   "steering_hold_power", "steering_move_power",
                   "speed_quadratic_coeff", "lateral_friction_coeff")],
    (PowerModelParams, "drivetrain_efficiency", 0.0, "drivetrain_efficiency outside (0, 1]"),
    (PowerModelParams, "drivetrain_efficiency", 1.5, "drivetrain_efficiency outside (0, 1]"),
    # a float that passes its range check but is infinite
    *[(cls, name, math.inf, f"non-finite {name}") for cls, names in [
        (RoverConfig, ("mass", "gravity", "wheel_longitudinal_separation",
                       "wheel_lateral_separation", "wheel_radius", "steering_rate")),
        (TerrainParams, ("noise_std",)),
        (PowerModelParams, ("idle_power_per_drive", "rolling_resistance_coeff",
                            "steering_hold_power", "steering_move_power",
                            "speed_quadratic_coeff", "lateral_friction_coeff",
                            "drawbar_force")),
    ] for name in names],
    (PowerModelParams, "drawbar_force", -math.inf, "non-finite drawbar_force"),
]
# Fields without a range check: none, every field has one
UNCHECKED = set()


def test_every_field_has_a_range_but_the_unchecked_ones():
    checked = {(cls, name) for cls, name, _, _ in OUT_OF_RANGE}
    assert checked.isdisjoint(UNCHECKED)
    assert checked | UNCHECKED == {
        (cls, field.name)
        for cls in (RoverConfig, TerrainParams, PowerModelParams)
        for field in fields(cls)
    }


INVALID = [
    *OUT_OF_RANGE,
    # NaN raises the first message of its field
    *[(cls, name, math.nan, message) for (cls, name), message in
      {(cls, name): message for cls, name, _, message in reversed(OUT_OF_RANGE)}.items()],
    *[(partial(Scenario, []), "step", step, "integration step outside (0, inf)")
      for step in (0.0, -0.01, math.inf, math.nan)],
    *[(partial(ProfileSegment, duration=1.0, twist=BodyTwist(), mode=LocomotionMode.CRAB),
       "duration", duration, "segment duration outside (0, inf)")
      for duration in (0.0, -1.0, math.inf, math.nan)],
]


@pytest.mark.parametrize(
    "build, name, value, message", INVALID,
    ids=[f"{getattr(build, 'func', build).__name__}.{name}={value}"
         for build, name, value, _ in INVALID],
)
def test_invalid_value_rejected_when_built(build, name, value, message):
    valid = build()
    match = f"^{re.escape(message)}$"
    with pytest.raises(DataError, match=match):
        build(**{name: value})
    with pytest.raises(DataError, match=match):
        replace(valid, **{name: value})


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
    path = tmp_path / "out.csv"
    (tmp_path / "out.csv.tmp").mkdir()
    with pytest.raises(DataError) as info:
        with open_output(path):
            pass
    assert str(info.value) == f"cannot write {path}: Is a directory"
    assert not path.exists()


def test_open_output_makes_a_missing_directory(tmp_path):
    path = tmp_path / "missing" / "sub" / "out.csv"
    with open_output(path) as handle:
        handle.write(b"new\n")
    assert path.read_bytes() == b"new\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.csv"]


def test_open_output_names_the_directory_it_cannot_make(tmp_path):
    (tmp_path / "file").write_text("a file\n")
    for directory, reason in [(tmp_path / "file", "File exists"),
                              (tmp_path / "file" / "sub", "Not a directory")]:
        with pytest.raises(DataError) as info:
            with open_output(directory / "out.csv"):
                pass
        assert str(info.value) == f"cannot make output directory {directory}: {reason}"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_csv_rows_skips_blank_rows_and_names_lines():
    lines = ["a,b\n", "1,2\n", "\n", "3,4\n"]
    assert list(csv_rows(lines, ["a", "b"], "t.csv", first_lineno=5)) == [
        ("t.csv:6", ["1", "2"]), ("t.csv:8", ["3", "4"])]
    with pytest.raises(DataError, match=r"^t.csv: expected header a,b$"):
        list(csv_rows(["a\n"], ["a", "b"], "t.csv"))
    with pytest.raises(DataError, match=r"^t.csv:3: expected 2 columns, got 3$"):
        list(csv_rows(["a,b\n", "1,2\n", "1,2,3\n"], ["a", "b"], "t.csv"))
