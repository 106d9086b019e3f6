"""The kinematic kernels against the per-wheel loops they replaced.

The references below are `inverse_kinematics`, `forward_odometry`, `icr_of`
and `drive_power` as the package computed them one wheel at a time, each
folding its own steering angles and turning them into rolling directions
itself. The kernels, which share `rolling_directions` and one command path,
must give the same wheel commands, odometry twists and power breakdowns bit
for bit. `icr_of` now solves the normal equations (u^T u) x = u^T (u . p)
instead of summing the projections I - d d^T, so its point and residual
agree to within ICR_TOL times the ICR's distance from the body center, or
ICR_TOL for an ICR within 1 m.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rovermotion.config import (
    WHEEL_ORDER,
    BodyTwist,
    LocomotionMode,
    RoverConfig,
    WheelCommand,
    wheel_positions,
)
from rovermotion.errors import DataError
from rovermotion.kinematics import (
    _PARALLEL_EIG_TOL,
    forward_odometry,
    icr_of,
    inverse_kinematics,
    rolling_directions,
)
from rovermotion.terrain import PowerModelParams, TerrainParams, drive_power

# The two ICR solutions differ by rounding amplified by the conditioning of
# the normal equations, mostly in the reference, whose 1 - d_x^2 and
# 1 - d_y^2 cancel: for an Ackermann ICR at 600 m it gives 599.99999996 m,
# and the kernel 600.0 m. Over 80,000 random cases drawn like the ones below,
# the largest difference was 2.4e-13 m in an ICR coordinate of the commanded
# axes (ICRs within 10 m of the body center) and 1.2e-14 m in a residual,
# with or without steering-angle errors. Commanded ICRs 15-17.5 m out
# differed by up to 1.5e-12 m, and the least-squares point of nearly
# parallel measured axes by up to 4e-11 m, so those points are not compared.
# Rounding grows with the ICR's distance, so the tolerance does too: the
# residuals of measured axes whose ICR lies 12.9 km out differ by 1.35e-12 m.
ICR_TOL = 1e-12
# The kernel's and the reference's smallest eigenvalue of the 2x2 normal
# matrix (entries up to 4) differ by rounding, 1.8e-16 for nearly parallel
# axes; within EIG_ROUNDING of _PARALLEL_EIG_TOL either may call them parallel.
EIG_ROUNDING = 1e-14


def icr_tol(icr):
    """The tolerance on a point or residual of `icr` (None at infinity), at
    its distance."""
    return ICR_TOL * (1.0 if icr is None else max(1.0, math.hypot(*icr)))


def on_the_parallel_threshold(commands, config):
    """Whether the axes of `commands` are within rounding of parallel."""
    u, _ = rolling_directions(commands, config)
    return abs(np.linalg.eigvalsh(u.T @ u)[0] - _PARALLEL_EIG_TOL) <= EIG_ROUNDING


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
    r = config.wheel_radius
    positions = wheel_positions(config)
    limit = config.steering_limit
    commands = []

    if mode is LocomotionMode.SKID_STEER:
        half_w = config.wheel_lateral_separation / 2.0
        for wheel in WHEEL_ORDER:
            _, y = positions[wheel]
            side = half_w if y > 0 else -half_w
            commands.append(WheelCommand(wheel, (twist.vx - twist.wz * side) / r, 0.0))
        return commands

    if mode is LocomotionMode.CRAB:
        if twist.wz != 0.0:
            raise DataError("yaw rate unsupported in crab mode")
        speed = math.hypot(twist.vx, twist.vy)
        angle = math.atan2(twist.vy, twist.vx) if speed > 0 else 0.0
        for wheel in WHEEL_ORDER:
            a, s = reference_normalize_steering(angle, speed / r, limit)
            commands.append(WheelCommand(wheel, s, a))
        return commands

    if mode is LocomotionMode.POINT_TURN:
        for wheel in WHEEL_ORDER:
            px, py = positions[wheel]
            angle = math.atan2(px, -py)
            speed = twist.wz * math.hypot(px, py) / r
            a, s = reference_normalize_steering(angle, speed, limit)
            commands.append(WheelCommand(wheel, s, a))
        return commands

    if mode is LocomotionMode.ACKERMANN:
        if twist.vy != 0.0:
            raise DataError("lateral velocity unsupported in Ackermann")
        if twist.wz == 0.0:
            for wheel in WHEEL_ORDER:
                commands.append(WheelCommand(wheel, twist.vx / r, 0.0))
            return commands
        icr_y = twist.vx / twist.wz
        for wheel in WHEEL_ORDER:
            px, py = positions[wheel]
            rel = (px, py - icr_y)
            angle = math.atan2(rel[0], -rel[1])
            speed = twist.wz * math.hypot(*rel) / r
            a, s = reference_normalize_steering(angle, speed, limit)
            commands.append(WheelCommand(wheel, s, a))
        return commands

    raise DataError(f"unsupported mode {mode}")


def reference_forward_odometry(commands, config):
    positions = wheel_positions(config)
    r = config.wheel_radius
    rows = []
    rhs = []
    for cmd in commands:
        px, py = positions[cmd.wheel_id]
        ux = math.cos(cmd.steering_angle)
        uy = math.sin(cmd.steering_angle)
        rows.append([ux, uy, uy * px - ux * py])
        rhs.append(cmd.drive_speed * r)
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return BodyTwist(*solution)


def reference_icr_of(commands, config):
    positions = wheel_positions(config)
    acc = np.zeros((2, 2))
    vec = np.zeros(2)
    axes = []
    for cmd in commands:
        p = np.array(positions[cmd.wheel_id])
        d = np.array(
            [-math.sin(cmd.steering_angle), math.cos(cmd.steering_angle)]
        )
        proj = np.eye(2) - np.outer(d, d)
        acc += proj
        vec += proj @ p
        axes.append((p, d))
    eigvals = np.linalg.eigvalsh(acc)
    if eigvals[0] < _PARALLEL_EIG_TOL:
        return None, 0.0
    point = np.linalg.solve(acc, vec)
    sq_sum = 0.0
    for p, d in axes:
        rel = point - p
        perp = rel - (rel @ d) * d
        sq_sum += float(perp @ perp)
    return (float(point[0]), float(point[1])), math.sqrt(
        sq_sum / len(axes)
    )


def reference_drive_power(commands, terrain, config, power):
    theta = math.radians(terrain.slope_deg)
    weight_per_wheel = config.mass * config.gravity / 4.0
    tractive_coeff = (
        power.rolling_resistance_coeff * math.cos(theta) + math.sin(theta)
    ) * weight_per_wheel
    normal_per_wheel = weight_per_wheel * math.cos(theta)
    twist = reference_forward_odometry(commands, config)
    positions = wheel_positions(config)

    breakdown = {}
    for cmd in commands:
        v_i = abs(cmd.drive_speed) * config.wheel_radius
        px, py = positions[cmd.wheel_id]
        cx = twist.vx - twist.wz * py
        cy = twist.vy + twist.wz * px
        ux = math.cos(cmd.steering_angle)
        uy = math.sin(cmd.steering_angle)
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
        breakdown[f"drive_{cmd.wheel_id.value.lower()}"] = max(p_i, 0.0)
    for cmd in commands:
        breakdown[f"steer_{cmd.wheel_id.value.lower()}"] = power.steering_hold_power
    return sum(breakdown.values()), breakdown


def command_bits(commands):
    return [(c.wheel_id, float(c.drive_speed).hex(), float(c.steering_angle).hex())
            for c in commands]


def twist_bits(twist):
    return [float(value).hex() for value in (twist.vx, twist.vy, twist.wz)]


def power_bits(result):
    total, breakdown = result
    return float(total).hex(), [(key, float(value).hex()) for key, value in breakdown.items()]


# Zero, negative and positive components; |vx| <= 1 and |wz| >= 0.1 keep an
# Ackermann ICR within 10 m.
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
# nearly parallel measured axes, ICR 12.9 km out
@example(twist=BodyTwist(0.0, 0.0, 0.0), mode=LocomotionMode.ACKERMANN,
         limit=1.6580627893946132,
         errors=[0.0, 0.0, 7.603174194651068e-05, 7.603174194651068e-05], slope=0.0,
         power=PowerModelParams())
# measured axes on the parallel threshold: only the reference finds an ICR
@example(twist=BodyTwist(0.0, 0.0, 0.0), mode=LocomotionMode.ACKERMANN,
         limit=1.6580627893946132, errors=[0.0, 0.0, 1e-06, 1e-06], slope=0.0,
         power=PowerModelParams())
def test_kernels_match_the_per_wheel_loops(twist, mode, limit, errors, slope, power):
    config = replace(RoverConfig(), steering_limit=limit)
    try:
        expected = reference_inverse_kinematics(twist, mode, config)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            inverse_kinematics(twist, mode, config)
        assert str(raised.value) == str(exc)
        return
    commands = inverse_kinematics(twist, mode, config)
    assert command_bits(commands) == command_bits(expected)
    icr, _ = icr_of(commands, config)
    expected_icr, _ = reference_icr_of(commands, config)
    assert (icr is None) == (expected_icr is None)
    if icr is not None:
        assert (np.max(np.abs(np.subtract(icr, expected_icr)))
                <= icr_tol(expected_icr))

    measured = [WheelCommand(c.wheel_id, c.drive_speed, c.steering_angle + e)
                for c, e in zip(commands, errors)]
    assert twist_bits(forward_odometry(measured, config)) == twist_bits(
        reference_forward_odometry(measured, config))
    terrain = TerrainParams(slope_deg=slope)
    assert power_bits(drive_power(measured, terrain, config, power)) == power_bits(
        reference_drive_power(measured, terrain, config, power))
    icr, residual = icr_of(measured, config)
    expected_icr, expected_residual = reference_icr_of(measured, config)
    if (icr is None) != (expected_icr is None):
        assert on_the_parallel_threshold(measured, config)
    else:
        assert abs(residual - expected_residual) <= icr_tol(expected_icr)
