import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovermotion.config import WHEELS, BodyTwist, LocomotionMode, RoverConfig, wheel_positions
from rovermotion.errors import DataError
from rovermotion.kinematics import (
    ProfileSegment,
    _odometry_twist,
    inverse_kinematics,
    parse_profile,
    rolling_directions,
)
from rovermotion.telemetry import FIELD_COLUMNS, TELEMETRY_HEADER
from rovermotion.terrain import Scenario, TerrainParams, simulate_traverse

CFG = RoverConfig()

# The parallel-axes threshold on the smallest eigenvalue of u^T u (entries up to 4)
PARALLEL_EIG_TOL = 1e-12


def icr_of(angles, config):
    """Least-squares intersection of the four wheel axes (the ICR), and the RMS
    point-to-axis distance, of the steering angles `angles`. A point x lies
    u . (x - p) off the axis of a wheel at p rolling along u, so the ICR
    solves (u^T u) x = u^T (u . p). Parallel axes (straight driving) give
    None, the ICR at infinity, and residual 0."""
    u, p = rolling_directions(angles, config)
    offsets = np.einsum("ij,ij->i", u, p)
    normal = u.T @ u
    if np.linalg.eigvalsh(normal)[0] < PARALLEL_EIG_TOL:
        return None, 0.0
    point = np.linalg.solve(normal, u.T @ offsets)
    residual = math.sqrt(float(np.mean((u @ point - offsets) ** 2)))
    return (float(point[0]), float(point[1])), residual


def odometry(speeds, angles, config=CFG):
    """The body twist (vx, vy, wz) that the package's odometry recovers."""
    return _odometry_twist(speeds, config, *rolling_directions(angles, config))


def angles_of(commands):
    return dict(zip(WHEELS, commands[1]))


def speeds_of(commands):
    return dict(zip(WHEELS, commands[0]))


def test_wheel_order_is_the_telemetry_order_and_the_body_frame():
    # every per-wheel array and the per-wheel columns follow WHEELS
    for group, prefix in [("drive_current", "i_drive"), ("drive_speeds", "speed"),
                          ("steering_angles", "steer")]:
        assert TELEMETRY_HEADER[FIELD_COLUMNS[group]] == [f"{prefix}_{w}" for w in WHEELS]
    assert WHEELS == ("fl", "fr", "rl", "rr")
    # front wheels at +x, left wheels at +y
    for wheel, (x, y) in zip(WHEELS, wheel_positions(CFG)):
        assert (x > 0) == (wheel[0] == "f")
        assert (y > 0) == (wheel[1] == "l")
    # a CCW skid turn drives the left wheels slower than the right
    speeds = speeds_of(inverse_kinematics(BodyTwist(0.06, 0, 0.1),
                                          LocomotionMode.SKID_STEER, CFG))
    assert speeds["fl"] == speeds["rl"] < speeds["fr"] == speeds["rr"]


class TestInverseKinematics:
    def test_skid_straight_line(self):
        speeds, angles = inverse_kinematics(
            BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER, CFG)
        assert list(angles) == [0.0] * 4
        assert list(speeds) == pytest.approx([0.4] * 4)

    def test_skid_differential_sides(self):
        cmds = inverse_kinematics(
            BodyTwist(0.06, 0, 0.1), LocomotionMode.SKID_STEER, CFG
        )
        speeds = speeds_of(cmds)
        # left wheels slower than right for a CCW turn (y-left convention)
        assert speeds["fl"] == pytest.approx((0.06 - 0.1 * 0.415) / 0.15)
        assert speeds["fr"] == pytest.approx((0.06 + 0.1 * 0.415) / 0.15)
        assert speeds["fl"] == speeds["rl"]

    def test_point_turn_hand_oracle(self):
        # |p| = sqrt(0.49^2 + 0.415^2), FL axis angle folds past the limit
        cmds = inverse_kinematics(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, CFG)
        p = math.hypot(0.49, 0.415)
        assert p == pytest.approx(0.64213, abs=1e-5)
        speeds = speeds_of(cmds)
        angles = angles_of(cmds)
        assert abs(speeds["fl"]) == pytest.approx(0.1 * p / 0.15, abs=1e-5)
        assert abs(speeds["fl"]) == pytest.approx(0.42809, abs=1e-4)
        expected_fl = math.atan2(0.415, 0.49) - math.pi / 2.0
        assert angles["fl"] == pytest.approx(expected_fl)
        assert speeds["fl"] < 0  # reversed sign in the normalized form
        assert angles["fr"] == pytest.approx(-expected_fl)
        assert speeds["fr"] > 0

    def test_ackermann_hand_oracle(self):
        cmds = inverse_kinematics(
            BodyTwist(0.06, 0, 0.1), LocomotionMode.ACKERMANN, CFG
        )
        angles = angles_of(cmds)
        expected = math.atan2(0.49, 0.6 - 0.415)
        assert math.degrees(expected) == pytest.approx(69.32, abs=0.01)
        assert angles["fl"] == pytest.approx(expected)
        assert angles["rl"] == pytest.approx(-expected)

    def test_ackermann_rejects_lateral_velocity(self):
        with pytest.raises(DataError, match="lateral velocity"):
            inverse_kinematics(BodyTwist(0.06, 0.01, 0.1), LocomotionMode.ACKERMANN, CFG)

    def test_ackermann_straight_degrades_gracefully(self):
        for wz in (0.0, 1e-320, -1e-13):
            speeds, angles = inverse_kinematics(
                BodyTwist(0.06, 0, wz), LocomotionMode.ACKERMANN, CFG)
            assert list(angles) == [0.0] * 4
            assert list(speeds) == [0.06 / 0.15] * 4

    def test_crab_diagonal(self):
        speeds, angles = inverse_kinematics(
            BodyTwist(0.05, 0.05, 0), LocomotionMode.CRAB, CFG)
        assert list(angles) == pytest.approx([math.radians(45)] * 4)
        assert list(speeds) == pytest.approx([math.hypot(0.05, 0.05) / 0.15] * 4)

    def test_crab_zero_speed_is_all_zero(self):
        speeds, angles = inverse_kinematics(BodyTwist(), LocomotionMode.CRAB, CFG)
        assert list(speeds) == list(angles) == [0.0] * 4

    @pytest.mark.parametrize("mode", list(LocomotionMode))
    def test_zero_twist_no_drive(self, mode):
        # point turn keeps its tangential steering pose even at rest
        speeds, angles = inverse_kinematics(BodyTwist(), mode, CFG)
        assert all(speeds == 0)
        if mode is not LocomotionMode.POINT_TURN:
            assert all(angles == 0)

    def test_steering_limit_exceeded(self):
        tight = RoverConfig(steering_limit=math.radians(30))
        with pytest.raises(DataError, match="steering limit exceeded"):
            inverse_kinematics(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, tight)

    def test_steering_angle_invariant_to_magnitude(self):
        a = angles_of(
            inverse_kinematics(BodyTwist(0.06, 0, 0.1), LocomotionMode.ACKERMANN, CFG)
        )
        b = angles_of(
            inverse_kinematics(BodyTwist(0.12, 0, 0.2), LocomotionMode.ACKERMANN, CFG)
        )
        for wheel in WHEELS:
            assert a[wheel] == pytest.approx(b[wheel])

    def test_drive_speed_scales_linearly(self):
        s1 = speeds_of(
            inverse_kinematics(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, CFG)
        )
        s3 = speeds_of(
            inverse_kinematics(BodyTwist(0, 0, 0.3), LocomotionMode.POINT_TURN, CFG)
        )
        for wheel in WHEELS:
            assert s3[wheel] == pytest.approx(3 * s1[wheel])


class TestForwardOdometry:
    def test_skid_differential_algebra(self):
        vx, vy, wz = odometry([0.3, 0.5, 0.3, 0.5], [0.0] * 4)
        assert vx == pytest.approx(0.06)
        assert wz == pytest.approx((0.5 - 0.3) * 0.15 / 0.830)
        assert vy == pytest.approx(0.0, abs=1e-12)

    def test_point_turn_scaling(self):
        speeds, angles = inverse_kinematics(
            BodyTwist(0, 0, 0.2), LocomotionMode.POINT_TURN, CFG)
        vx, vy, wz = odometry(0.75 * speeds, angles)
        assert wz == pytest.approx(0.15)
        assert math.hypot(vx, vy) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "twist,mode",
        [
            (BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER),
            (BodyTwist(0.06, 0, 0.1), LocomotionMode.SKID_STEER),
            (BodyTwist(0.05, 0.05, 0), LocomotionMode.CRAB),
            (BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN),
            (BodyTwist(0.06, 0, 0.1), LocomotionMode.ACKERMANN),
            (BodyTwist(-0.04, 0, -0.2), LocomotionMode.ACKERMANN),
        ],
    )
    def test_round_trip_identity(self, twist, mode):
        recovered = odometry(*inverse_kinematics(twist, mode, CFG))
        assert tuple(recovered) == pytest.approx((twist.vx, twist.vy, twist.wz), abs=1e-9)


class TestIcr:
    def test_ackermann_icr_location(self):
        _, angles = inverse_kinematics(BodyTwist(0.06, 0, 0.1), LocomotionMode.ACKERMANN, CFG)
        icr, residual = icr_of(angles, CFG)
        assert icr == pytest.approx((0.0, 0.6), abs=1e-9)
        assert residual < 1e-9

    def test_straight_axes_at_infinity(self):
        icr, residual = icr_of([0.0] * 4, CFG)
        assert icr is None
        assert residual == 0.0

    def test_point_turn_icr_at_center(self):
        _, angles = inverse_kinematics(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, CFG)
        icr, residual = icr_of(angles, CFG)
        assert icr == pytest.approx((0.0, 0.0), abs=1e-9)
        assert residual < 1e-9


twists = st.builds(
    BodyTwist,
    vx=st.floats(-0.2, 0.2),
    vy=st.just(0.0),
    wz=st.floats(-0.5, 0.5).filter(lambda w: abs(w) > 1e-4),
)


@settings(max_examples=150, deadline=None)
@given(twist=twists, mode=st.sampled_from([LocomotionMode.ACKERMANN, LocomotionMode.SKID_STEER]))
def test_round_trip_property(twist, mode):
    vx, _, wz = odometry(*inverse_kinematics(twist, mode, CFG))
    assert math.isclose(vx, twist.vx, abs_tol=1e-9)
    assert math.isclose(wz, twist.wz, abs_tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(twist=twists)
def test_ackermann_icr_consistency_property(twist):
    _, angles = inverse_kinematics(twist, LocomotionMode.ACKERMANN, CFG)
    _, residual = icr_of(angles, CFG)
    assert residual < 1e-9


def slip_free_track(profile, marker_offset=(0.0, 0.0)):
    """(marker_x, marker_y, heading) columns of a slip-free simulated traverse."""
    terrain = TerrainParams(skid_rotation_efficiency=1.0, longitudinal_slip_ratio=0.0)
    telemetry = simulate_traverse(
        Scenario(profile=profile, terrain=terrain, marker_offset=marker_offset)
    )
    return tuple(telemetry.column(name) for name in ("marker_x", "marker_y", "heading"))


class TestPoseTrack:
    def test_point_turn_marker_circle(self):
        profile = [ProfileSegment(62.83, BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN)]
        mx, my, _ = slip_free_track(profile, marker_offset=(0.4, 0.0))
        assert np.max(np.abs(np.hypot(mx, my) - 0.4)) < 1e-9

    def test_crab_diagonal_track(self):
        profile = [ProfileSegment(10.0, BodyTwist(0.05, 0.05, 0), LocomotionMode.CRAB)]
        mx, my, headings = slip_free_track(profile)
        assert set(headings.tolist()) == {0.0}  # exactly constant
        assert math.degrees(math.atan2(my[-1], mx[-1])) == pytest.approx(45.0)
        assert math.hypot(mx[-1], my[-1]) == pytest.approx(10 * math.hypot(0.05, 0.05))

    def test_skid_straight_track(self):
        profile = [ProfileSegment(10.0, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)]
        mx, my, headings = slip_free_track(profile)
        assert mx[-1] == pytest.approx(0.6)
        assert my[-1] == pytest.approx(0.0, abs=1e-12)
        assert headings[-1] == 0.0

    def test_rejects_non_positive_duration(self):
        with pytest.raises(Exception, match="duration"):
            profile = [
                ProfileSegment(-1.0, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
            slip_free_track(profile)


def test_load_twist_profile(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("duration_s,vx,vy,wz,mode\n10,0.06,0,0,skid_steer\n5,0,0,0.1,point_turn\n")
    profile = parse_profile(path.read_text().splitlines(), path)
    assert len(profile) == 2
    assert profile[0].twist == BodyTwist(0.06, 0, 0)
    assert profile[1].mode is LocomotionMode.POINT_TURN


def test_load_twist_profile_names_bad_row(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text(
        "duration_s,vx,vy,wz,mode\n10,0.06,0,0,skid_steer\n\n5,0,x,0.1,point_turn\n"
    )
    with pytest.raises(DataError, match=f"^{path}:4: non-numeric vy 'x'$"):
        parse_profile(path.read_text().splitlines(), path)
