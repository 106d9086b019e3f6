import math
import re
from dataclasses import fields, replace
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rovermotion.config import (
    OUTPUT_LIMIT,
    BodyTwist,
    LocomotionMode,
    WHEELS,
    RoverConfig,
    csv_rows,
    csv_text,
    key_value_text,
    load_config,
    open_output,
    wheel_positions,
)
from rovermotion.deflection import CameraIntrinsics, WheelModel3D
from rovermotion.errors import DataError
from rovermotion.kinematics import ProfileSegment
from rovermotion.terrain import CalibrationRow, PowerModelParams, Scenario, TerrainParams


def test_breadboard_defaults_are_valid():
    cfg = RoverConfig()
    assert cfg.mass == 84.0
    assert cfg.wheel_longitudinal_separation == 0.980
    assert cfg.wheel_lateral_separation == 0.830
    assert cfg.wheel_radius == 0.15


def test_zero_mass_rejected():
    with pytest.raises(DataError, match=r"^mass = 0\.0 outside \(0, 10000\]$"):
        RoverConfig(mass=0.0)


def test_zero_steering_limit_rejected():
    with pytest.raises(DataError, match=r"^steering_limit = 0\.0 outside \(0, 3\.14"):
        RoverConfig(steering_limit=0.0)


def test_lunar_gravity_override():
    cfg = RoverConfig(gravity=1.62)
    assert cfg.gravity == 1.62


def positions(config: RoverConfig) -> dict[str, tuple[float, float]]:
    """wheel_positions by wheel name."""
    return dict(zip(WHEELS, wheel_positions(config), strict=True))


def test_wheel_positions_breadboard():
    pos = positions(RoverConfig())
    assert pos["fl"] == pytest.approx((0.490, 0.415))
    assert pos["fr"] == pytest.approx((0.490, -0.415))
    assert pos["rr"] == pytest.approx((-0.490, -0.415))


def test_wheel_positions_unit_square():
    pos = wheel_positions(
        RoverConfig(wheel_longitudinal_separation=2.0, wheel_lateral_separation=2.0)
    )
    assert sorted(pos) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


@given(
    length=st.floats(0.1, 10.0),
    width=st.floats(0.1, 10.0),
)
def test_wheel_positions_reflection_symmetry(length, width):
    pos = positions(
        RoverConfig(
            wheel_longitudinal_separation=length, wheel_lateral_separation=width
        )
    )
    # mirror across the x axis swaps left/right, across y swaps front/rear
    assert pos["fl"] == (pos["fr"][0], -pos["fr"][1])
    assert pos["fl"] == (-pos["rl"][0], pos["rl"][1])
    assert pos["fl"] == (-pos["rr"][0], -pos["rr"][1])


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


# The interval each field of the input types declares: the one range check,
# whose message is "{field} = {value!r} outside {interval}"
RANGES = {
    RoverConfig: {"mass": "(0, 10000]", "gravity": "(0, 30]",
                  "wheel_longitudinal_separation": "(0, 100]",
                  "wheel_lateral_separation": "(0, 100]", "wheel_radius": "(0, 10]",
                  "steering_rate": "(0, 100]", "steering_limit": "(0, 3.141592653589793]"},
    TerrainParams: {"slope_deg": "[0, 90)", "skid_rotation_efficiency": "(0, 1]",
                    "point_turn_efficiency": "(0, 1]", "longitudinal_slip_ratio": "[0, 1)",
                    "noise_std": "[0, 1]", "rng_seed": "[0, 9007199254740992]"},
    PowerModelParams: {"idle_power_per_drive": "[0, 10000]",
                       "rolling_resistance_coeff": "[0, 1]",
                       "drivetrain_efficiency": "(0, 1]",
                       "steering_hold_power": "[0, 10000]",
                       "steering_move_power": "[0, 10000]",
                       "speed_quadratic_coeff": "[0, 1000000]",
                       "lateral_friction_coeff": "[0, 2]",
                       "drawbar_force": "[-1000000, 1000000]"},
    Scenario: {"marker_offset": "[-100, 100]", "step": "(0, 1]"},
    ProfileSegment: {"duration": "(0, 10000000]"},
    BodyTwist: {"vx": "[-10, 10]", "vy": "[-10, 10]", "wz": "[-10, 10]"},
    WheelModel3D: {"radius": "(0, 10]", "width": "(0, 10]", "hub_radius": "(0, 10]"},
    CameraIntrinsics: {"fx": "(0, 1000000]", "fy": "(0, 1000000]", "cx": "[0, 100000]",
                       "cy": "[0, 100000]", "width": "[1, 100000]",
                       "height": "[1, 100000]"},
    CalibrationRow: {"slope_deg": "(-90, 90)", "velocity": "(0, 10]", "cot": "[0, 100]"},
}
# A valid instance of each type, built with keyword arguments
BUILD = {
    **{cls: cls for cls in (RoverConfig, TerrainParams, PowerModelParams, BodyTwist)},
    Scenario: partial(Scenario, []),
    ProfileSegment: partial(ProfileSegment, duration=1.0, twist=BodyTwist(),
                            mode=LocomotionMode.CRAB),
    WheelModel3D: partial(WheelModel3D, radius=0.15, width=0.12, hub_radius=0.05),
    CameraIntrinsics: partial(CameraIntrinsics, fx=800.0, fy=800.0, cx=640.0, cy=360.0,
                              width=1280, height=720),
    CalibrationRow: partial(CalibrationRow, slope_deg=0.0, velocity=0.06, cot=1.1),
}


def test_every_numeric_field_declares_a_range():
    # so that a new number cannot land unchecked
    numeric = {"float", "int", "tuple[float, float]"}
    assert {cls: {field.name: field.metadata["range"][0] for field in fields(cls)
                  if field.type in numeric}
            for cls in RANGES} == RANGES
    assert all(field.type in numeric or "range" not in field.metadata
               for cls in RANGES for field in fields(cls))


INTEGERS = {(TerrainParams, "rng_seed"), (CameraIntrinsics, "width"),
            (CameraIntrinsics, "height")}


def _outside(cls, name, value):
    return f"{name} = {value!r} outside {RANGES[cls][name]}"


# (type, field, a value outside its range, the message it raises): below and
# above each range, inf and nan, an int field's non-integers
OUT_OF_RANGE = [
    *[(RoverConfig, name, value) for name, values in [
        ("mass", (0.0, 10001.0)), ("gravity", (-9.81, 31.0)),
        ("wheel_longitudinal_separation", (0.0, 101.0)),
        ("wheel_lateral_separation", (0.0, 101.0)), ("wheel_radius", (0.0, 11.0)),
        ("steering_rate", (0.0, 101.0)), ("steering_limit", (0.0, 3.2))]
      for value in values],
    *[(TerrainParams, name, value) for name, values in [
        ("slope_deg", (-1.0, 90.0)), ("skid_rotation_efficiency", (0.0, 1.01)),
        ("point_turn_efficiency", (0.0, 1.01)), ("longitudinal_slip_ratio", (-0.1, 1.0)),
        ("noise_std", (-0.01, 1.5)), ("rng_seed", (-1, 2**53 + 1))]
      for value in values],
    *[(PowerModelParams, name, value) for name in (
        "idle_power_per_drive", "rolling_resistance_coeff", "steering_hold_power",
        "steering_move_power", "speed_quadratic_coeff", "lateral_friction_coeff")
      for value in (-0.1, 2e6)],
    (PowerModelParams, "drivetrain_efficiency", 0.0),
    (PowerModelParams, "drivetrain_efficiency", 1.5),
    (PowerModelParams, "drawbar_force", -2e6),
    (PowerModelParams, "drawbar_force", 2e6),
    *[(cls, name, math.inf) for cls, names in [
        (RoverConfig, ("mass", "gravity", "wheel_longitudinal_separation",
                       "wheel_lateral_separation", "wheel_radius", "steering_rate")),
        (TerrainParams, ("noise_std",)),
        (PowerModelParams, ("idle_power_per_drive", "rolling_resistance_coeff",
                            "steering_hold_power", "steering_move_power",
                            "speed_quadratic_coeff", "lateral_friction_coeff",
                            "drawbar_force")),
    ] for name in names],
    (PowerModelParams, "drawbar_force", -math.inf),
    *[(Scenario, "step", step) for step in (0.0, -0.01, 2.0, math.inf)],
    (Scenario, "marker_offset", (0.4, 100.5)),
    *[(ProfileSegment, "duration", duration) for duration in (0.0, -1.0, 2e7, math.inf)],
    *[(WheelModel3D, name, value) for name in ("radius", "width") for value in (0.0, 11.0)],
    (WheelModel3D, "hub_radius", 0.0),
    *[(CameraIntrinsics, name, value) for name in ("fx", "fy") for value in (0.0, 2e6)],
    (CameraIntrinsics, "cx", -1.0),
    (CameraIntrinsics, "cy", 100001.0),
    (CameraIntrinsics, "width", 0),
    (CameraIntrinsics, "height", 100001),
    *[(CalibrationRow, "slope_deg", value) for value in (-90.0, 90.0)],
    *[(CalibrationRow, "velocity", value) for value in (0.0, -0.06, 11.0)],
    *[(CalibrationRow, "cot", value) for value in (-0.1, 101.0)],
    *[(BodyTwist, name, value) for name in ("vx", "vy", "wz")
      for value in (-11.0, 11.0, math.inf)],
]


# Fields without an out-of-range case: none, every field has one
UNCHECKED = set()


def test_every_field_has_a_range_but_the_unchecked_ones():
    checked = {(cls, name) for cls, name, _ in OUT_OF_RANGE}
    assert checked.isdisjoint(UNCHECKED)
    assert checked | UNCHECKED == {(cls, name) for cls in RANGES for name in RANGES[cls]}


INVALID = [
    *[(BUILD[cls], name, value, _outside(cls, name, value))
      for cls, name, value in OUT_OF_RANGE],
    # NaN lies outside every range, and is not an int
    *[(BUILD[cls], name, math.nan, f"{name} = nan is not an integer"
       if (cls, name) in INTEGERS else _outside(cls, name, math.nan))
      for cls in RANGES for name in RANGES[cls]
      if name != "marker_offset"],
    (BUILD[Scenario], "marker_offset", (math.nan, 0.0),
     _outside(Scenario, "marker_offset", (math.nan, 0.0))),
    *[(BUILD[cls], name, value, f"{name} = {value!r} is not an integer")
      for cls, name, value in [(TerrainParams, "rng_seed", 1.5),
                               (TerrainParams, "rng_seed", 2.0),
                               (CameraIntrinsics, "width", 1280.0)]],
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


@pytest.mark.parametrize("name, value", [(name, value) for build, name, value, _ in INVALID
                                         if build is BodyTwist])
def test_a_segment_holds_its_twist_to_the_ranges(name, value):
    # a twist checks itself, so no segment holds one outside the ranges
    segment = BUILD[ProfileSegment]()
    message = f"^{re.escape(_outside(BodyTwist, name, value))}$"
    with pytest.raises(DataError, match=message):
        BUILD[ProfileSegment](twist=BodyTwist(**{name: value}))
    with pytest.raises(DataError, match=message):
        replace(segment, twist=replace(segment.twist, **{name: value}))


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


def test_renderers_write_six_decimals_and_pass_other_values_through():
    import numpy as np

    assert csv_text(["a", "b", "c"], [[-0.0, 3, "x,y"], [np.float64(1.5), 0, ""]]) == (
        'a,b,c\n-0.000000,3,"x,y"\n1.500000,0,\n')
    assert key_value_text([("a", -0.0), ("b", 3), ("c", "x y")]) == (
        "a = -0.000000\nb = 3\nc = x y\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_renderers_refuse_a_non_finite_float_by_name(value):
    import numpy as np

    # a numpy scalar is named as the Python float, not as np.float64(inf)
    message = f"^output b = {re.escape(repr(value))} outside \\[-1e12, 1e12\\]$"
    for number in (value, np.float64(value)):
        with pytest.raises(DataError, match=message):
            csv_text(["a", "b"], [[1.0, 2.0], [3.0, number]])
        with pytest.raises(DataError, match=message):
            key_value_text([("a", 1.0), ("b", number)])


def test_renderers_refuse_a_number_beyond_the_output_limit():
    import numpy as np

    assert OUTPUT_LIMIT == 1e12
    assert csv_text(["a"], [[-1e12], [10**12]]) == "a\n-1000000000000.000000\n1000000000000\n"
    for number, shown in [(math.nextafter(1e12, math.inf), "1000000000000.0001"),
                          (-1e13, "-10000000000000.0"), (np.float64(1e300), "1e+300"),
                          (10**12 + 1, "1000000000001")]:
        message = f"^output b = {re.escape(shown)} outside \\[-1e12, 1e12\\]$"
        with pytest.raises(DataError, match=message):
            csv_text(["a", "b"], [[1.0, number]])
        with pytest.raises(DataError, match=message):
            key_value_text([("a", 1.0), ("b", number)])


def test_csv_rows_skips_blank_rows_and_names_lines():
    lines = ["a,b\n", "1,2\n", "\n", "3,4\n"]
    assert list(csv_rows(lines, ["a", "b"], "t.csv", first_lineno=5)) == [
        ("t.csv:6", ["1", "2"]), ("t.csv:8", ["3", "4"])]
    with pytest.raises(DataError, match=r"^t.csv: expected header a,b$"):
        list(csv_rows(["a\n"], ["a", "b"], "t.csv"))
    with pytest.raises(DataError, match=r"^t.csv:3: expected 2 columns, got 3$"):
        list(csv_rows(["a,b\n", "1,2\n", "1,2,3\n"], ["a", "b"], "t.csv"))
