"""The kinematic kernels against the per-wheel loops they replaced.

The references below are `inverse_kinematics`, the odometry twist and
`drive_power` as the package computed them one wheel at a time, each
folding its own steering angles and turning them into rolling directions
itself. The kernels, which share `rolling_directions` and take and return
per-wheel arrays in `config.WHEELS` order, must give the same drive speeds
and steering angles, odometry twists (`kinematics._odometry_twist`) and
drive powers bit for bit.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rovermotion.config import BodyTwist, LocomotionMode, RoverConfig, wheel_positions
from rovermotion.errors import DataError
from rovermotion.kinematics import (
    _WZ_EPS,
    _odometry_twist,
    inverse_kinematics,
    rolling_directions,
)
from rovermotion.terrain import PowerModelParams, TerrainParams, drive_power


def reference_normalize_steering(angle, speed, limit):
    if angle > limit:
        angle -= math.pi
        speed = -speed
    elif angle < -limit:
        angle += math.pi
        speed = -speed
    if not -limit <= angle <= limit:
        raise DataError("steering limit exceeded")
    return angle, speed


def reference_inverse_kinematics(twist, mode, config):
    """(drive speeds, steering angles), each a list in WHEELS order."""
    r = config.wheel_radius
    positions = wheel_positions(config)
    limit = config.steering_limit
    speeds, angles = [], []

    if mode is LocomotionMode.SKID_STEER:
        half_w = config.wheel_lateral_separation / 2.0
        for _, y in positions:
            side = half_w if y > 0 else -half_w
            speeds.append((twist.vx - twist.wz * side) / r)
            angles.append(0.0)
        return speeds, angles

    if mode is LocomotionMode.CRAB:
        if twist.wz != 0.0:
            raise DataError("yaw rate unsupported in crab mode")
        speed = math.hypot(twist.vx, twist.vy)
        angle = math.atan2(twist.vy, twist.vx) if speed > 0 else 0.0
        for _ in positions:
            a, s = reference_normalize_steering(angle, speed / r, limit)
            speeds.append(s)
            angles.append(a)
        return speeds, angles

    if mode is LocomotionMode.POINT_TURN:
        for px, py in positions:
            angle = math.atan2(px, -py)
            speed = twist.wz * math.hypot(px, py) / r
            a, s = reference_normalize_steering(angle, speed, limit)
            speeds.append(s)
            angles.append(a)
        return speeds, angles

    if mode is LocomotionMode.ACKERMANN:
        if twist.vy != 0.0:
            raise DataError("lateral velocity unsupported in Ackermann")
        if abs(twist.wz) < _WZ_EPS:
            return [twist.vx / r] * 4, [0.0] * 4
        icr_y = twist.vx / twist.wz
        for px, py in positions:
            rel = (px, py - icr_y)
            angle = math.atan2(rel[0], -rel[1])
            speed = twist.wz * math.hypot(*rel) / r
            a, s = reference_normalize_steering(angle, speed, limit)
            speeds.append(s)
            angles.append(a)
        return speeds, angles

    raise DataError(f"unsupported mode {mode}")


def reference_odometry_twist(speeds, angles, config):
    r = config.wheel_radius
    rows = []
    rhs = []
    for (px, py), speed, angle in zip(wheel_positions(config), speeds, angles):
        ux = math.cos(angle)
        uy = math.sin(angle)
        rows.append([ux, uy, uy * px - ux * py])
        rhs.append(speed * r)
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return solution.tolist()


def reference_drive_power(speeds, angles, terrain, config, power):
    theta = math.radians(terrain.slope_deg)
    weight_per_wheel = config.mass * config.gravity / 4.0
    tractive_coeff = (
        power.rolling_resistance_coeff * math.cos(theta) + math.sin(theta)
    ) * weight_per_wheel
    normal_per_wheel = weight_per_wheel * math.cos(theta)
    vx, vy, wz = reference_odometry_twist(speeds, angles, config)

    drives = []
    for (px, py), speed, angle in zip(wheel_positions(config), speeds, angles):
        v_i = abs(speed) * config.wheel_radius
        cx = vx - wz * py
        cy = vy + wz * px
        ux = math.cos(angle)
        uy = math.sin(angle)
        lateral = abs(-uy * cx + ux * cy)
        p_i = (
            power.idle_power_per_drive
            + (
                tractive_coeff * v_i
                + power.speed_quadratic_coeff * v_i * v_i
                + power.lateral_friction_coeff * normal_per_wheel * lateral
                + (power.drawbar_force / 4.0) * v_i
            )
            / power.drivetrain_efficiency
        )
        drives.append(max(p_i, 0.0))
    return drives


def bits(values):
    return [float(value).hex() for value in values]


def odometry(speeds, angles, config):
    return _odometry_twist(speeds, config, *rolling_directions(angles, config))


# Zero, negative and positive components, an Ackermann ICR within 10 m
speeds = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
yaw_rates = st.one_of(st.just(0.0), st.floats(-2.0, -0.1), st.floats(0.1, 2.0))
twists = st.builds(BodyTwist, vx=speeds, vy=st.one_of(st.just(0.0), speeds), wz=yaw_rates)
# The default 95 degrees folds reverse crab and point-turn axes; a tight
# limit folds some angles and rejects the rest, and pi / 2 is met exactly
# by a sideways crab angle.
limits = st.one_of(st.just(math.radians(95.0)), st.just(math.pi / 2),
                   st.floats(0.01, 0.5), st.floats(0.5, math.pi))
# Measured steering angles: each wheel off its command by up to 0.05 rad.
angle_errors = st.one_of(
    st.just([0.0] * 4), st.lists(st.floats(-0.05, 0.05), min_size=4, max_size=4)
)
powers = st.builds(PowerModelParams, idle_power_per_drive=st.floats(0.0, 5.0),
                   drawbar_force=st.floats(-200.0, 200.0),
                   drivetrain_efficiency=st.floats(0.5, 1.0))


@settings(max_examples=400, deadline=None)
@given(twist=twists, mode=st.sampled_from(list(LocomotionMode)), limit=limits,
       errors=angle_errors, slope=st.floats(0.0, 30.0), power=powers)
# a sideways crab at a limit of exactly pi / 2 is not folded
@example(twist=BodyTwist(0.0, 0.5, 0.0), mode=LocomotionMode.CRAB, limit=math.pi / 2,
         errors=[0.0] * 4, slope=0.0, power=PowerModelParams())
# Ackermann at a yaw rate below _WZ_EPS drives straight
@example(twist=BodyTwist(0.06, 0.0, 1e-320), mode=LocomotionMode.ACKERMANN,
         limit=math.radians(95.0), errors=[0.0] * 4, slope=0.0, power=PowerModelParams())
# nearly parallel measured axes, which cross 12.9 km out
@example(twist=BodyTwist(0.0, 0.0, 0.0), mode=LocomotionMode.ACKERMANN,
         limit=1.6580627893946132,
         errors=[0.0, 0.0, 7.603174194651068e-05, 7.603174194651068e-05], slope=0.0,
         power=PowerModelParams())
# and nearer parallel still
@example(twist=BodyTwist(0.0, 0.0, 0.0), mode=LocomotionMode.ACKERMANN,
         limit=1.6580627893946132, errors=[0.0, 0.0, 1e-06, 1e-06], slope=0.0,
         power=PowerModelParams())
def test_kernels_match_the_per_wheel_loops(twist, mode, limit, errors, slope, power):
    config = replace(RoverConfig(), steering_limit=limit)
    try:
        expected_speeds, expected_angles = reference_inverse_kinematics(twist, mode, config)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            inverse_kinematics(twist, mode, config)
        assert str(raised.value) == str(exc)
        return
    speeds, angles = inverse_kinematics(twist, mode, config)
    assert bits(speeds) == bits(expected_speeds)
    assert bits(angles) == bits(expected_angles)

    measured = angles + np.array(errors)
    assert bits(odometry(speeds, measured, config)) == bits(
        reference_odometry_twist(speeds, measured, config))
    terrain = TerrainParams(slope_deg=slope)
    assert bits(drive_power(speeds, measured, terrain, config, power)) == bits(
        reference_drive_power(speeds, measured, terrain, config, power))
