import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovermotion.config import (
    WHEEL_ORDER,
    BodyTwist,
    LocomotionMode,
    RoverConfig,
    WheelCommand,
    WheelId,
)
from rovermotion.errors import DataError
from rovermotion.kinematics import (
    ProfileSegment,
    forward_odometry,
    icr_of,
    inverse_kinematics,
    parse_profile,
)
from rovermotion.terrain import Scenario, TerrainParams, simulate_traverse

CFG = RoverConfig()


def angles_of(commands):
    return {c.wheel_id: c.steering_angle for c in commands}


def speeds_of(commands):
    return {c.wheel_id: c.drive_speed for c in commands}


class TestInverseKinematics:
    def test_skid_straight_line(self):
        cmds = inverse_kinematics(BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER, CFG)
        for cmd in cmds:
            assert cmd.steering_angle == 0.0
            assert cmd.drive_speed == pytest.approx(0.4)

    def test_skid_differential_sides(self):
        cmds = inverse_kinematics(
            BodyTwist(0.06, 0, 0.1), LocomotionMode.SKID_STEER, CFG
        )
        speeds = speeds_of(cmds)
        # left wheels slower than right for a CCW turn (y-left convention)
        assert speeds[WheelId.FL] == pytest.approx((0.06 - 0.1 * 0.415) / 0.15)
        assert speeds[WheelId.FR] == pytest.approx((0.06 + 0.1 * 0.415) / 0.15)
        assert speeds[WheelId.FL] == speeds[WheelId.RL]

    def test_point_turn_hand_oracle(self):
        # |p| = sqrt(0.49^2 + 0.415^2), FL axis angle folds past the limit
        cmds = inverse_kinematics(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, CFG)
        p = math.hypot(0.49, 0.415)
        assert p == pytest.approx(0.64213, abs=1e-5)
        speeds = speeds_of(cmds)
        angles = angles_of(cmds)
        assert abs(speeds[WheelId.FL]) == pytest.approx(0.1 * p / 0.15, abs=1e-5)
        assert abs(speeds[WheelId.FL]) == pytest.approx(0.42809, abs=1e-4)
        expected_fl = math.atan2(0.415, 0.49) - math.pi / 2.0
        assert angles[WheelId.FL] == pytest.approx(expected_fl)
        assert speeds[WheelId.FL] < 0  # reversed sign in the normalized form
        assert angles[WheelId.FR] == pytest.approx(-expected_fl)
        assert speeds[WheelId.FR] > 0

    def test_ackermann_hand_oracle(self):
        cmds = inverse_kinematics(
            BodyTwist(0.06, 0, 0.1), LocomotionMode.ACKERMANN, CFG
        )
        angles = angles_of(cmds)
        expected = math.atan2(0.49, 0.6 - 0.415)
        assert math.degrees(expected) == pytest.approx(69.32, abs=0.01)
        assert angles[WheelId.FL] == pytest.approx(expected)
        assert angles[WheelId.RL] == pytest.approx(-expected)

    def test_ackermann_rejects_lateral_velocity(self):
        with pytest.raises(DataError, match="lateral velocity"):
            inverse_kinematics(BodyTwist(0.06, 0.01, 0.1), LocomotionMode.ACKERMANN, CFG)

    def test_ackermann_straight_degrades_gracefully(self):
        cmds = inverse_kinematics(BodyTwist(0.06, 0, 0), LocomotionMode.ACKERMANN, CFG)
        for cmd in cmds:
            assert cmd.steering_angle == 0.0
            assert cmd.drive_speed == pytest.approx(0.4)

    def test_crab_diagonal(self):
        cmds = inverse_kinematics(BodyTwist(0.05, 0.05, 0), LocomotionMode.CRAB, CFG)
        for cmd in cmds:
            assert cmd.steering_angle == pytest.approx(math.radians(45))
            assert cmd.drive_speed == pytest.approx(math.hypot(0.05, 0.05) / 0.15)

    def test_crab_zero_speed_is_all_zero(self):
        cmds = inverse_kinematics(BodyTwist(), LocomotionMode.CRAB, CFG)
        assert all(c.drive_speed == 0 and c.steering_angle == 0 for c in cmds)

    @pytest.mark.parametrize("mode", list(LocomotionMode))
    def test_zero_twist_no_drive(self, mode):
        # point turn keeps its tangential steering pose even at rest
        cmds = inverse_kinematics(BodyTwist(), mode, CFG)
        assert all(c.drive_speed == 0 for c in cmds)
        if mode is not LocomotionMode.POINT_TURN:
            assert all(c.steering_angle == 0 for c in cmds)

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
        for wheel in WHEEL_ORDER:
            assert a[wheel] == pytest.approx(b[wheel])

    def test_drive_speed_scales_linearly(self):
        s1 = speeds_of(
            inverse_kinematics(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, CFG)
        )
        s3 = speeds_of(
            inverse_kinematics(BodyTwist(0, 0, 0.3), LocomotionMode.POINT_TURN, CFG)
        )
        for wheel in WHEEL_ORDER:
            assert s3[wheel] == pytest.approx(3 * s1[wheel])


class TestForwardOdometry:
    def test_skid_differential_algebra(self):
        cmds = [
            WheelCommand(w, s, 0.0)
            for w, s in zip(WHEEL_ORDER, [0.3, 0.5, 0.3, 0.5])
        ]
        twist = forward_odometry(cmds, CFG)
        assert twist.vx == pytest.approx(0.06)
        assert twist.wz == pytest.approx((0.5 - 0.3) * 0.15 / 0.830)
        assert twist.vy == pytest.approx(0.0, abs=1e-12)

    def test_point_turn_scaling(self):
        cmds = inverse_kinematics(BodyTwist(0, 0, 0.2), LocomotionMode.POINT_TURN, CFG)
        scaled = [
            WheelCommand(c.wheel_id, 0.75 * c.drive_speed, c.steering_angle)
            for c in cmds
        ]
        twist = forward_odometry(scaled, CFG)
        assert twist.wz == pytest.approx(0.15)
        assert math.hypot(twist.vx, twist.vy) == pytest.approx(0.0, abs=1e-12)

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
        recovered = forward_odometry(inverse_kinematics(twist, mode, CFG), CFG)
        assert recovered.vx == pytest.approx(twist.vx, abs=1e-9)
        assert recovered.vy == pytest.approx(twist.vy, abs=1e-9)
        assert recovered.wz == pytest.approx(twist.wz, abs=1e-9)


class TestIcr:
    def test_ackermann_icr_location(self):
        cmds = inverse_kinematics(BodyTwist(0.06, 0, 0.1), LocomotionMode.ACKERMANN, CFG)
        icr, residual = icr_of(cmds, CFG)
        assert icr == pytest.approx((0.0, 0.6), abs=1e-9)
        assert residual < 1e-9

    def test_straight_axes_at_infinity(self):
        cmds = [WheelCommand(w, 0.4, 0.0) for w in WHEEL_ORDER]
        icr, residual = icr_of(cmds, CFG)
        assert icr is None
        assert residual == 0.0

    def test_point_turn_icr_at_center(self):
        cmds = inverse_kinematics(BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN, CFG)
        icr, residual = icr_of(cmds, CFG)
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
    recovered = forward_odometry(inverse_kinematics(twist, mode, CFG), CFG)
    assert math.isclose(recovered.vx, twist.vx, abs_tol=1e-9)
    assert math.isclose(recovered.wz, twist.wz, abs_tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(twist=twists)
def test_ackermann_icr_consistency_property(twist):
    cmds = inverse_kinematics(twist, LocomotionMode.ACKERMANN, CFG)
    _, residual = icr_of(cmds, CFG)
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
