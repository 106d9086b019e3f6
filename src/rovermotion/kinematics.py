"""Body-twist <-> wheel-command kinematics for the four steering modes."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rovermotion.config import (
    WHEEL_ORDER,
    BodyTwist,
    ConfigError,
    LocomotionMode,
    RoverConfig,
    WheelCommand,
    csv_rows,
    wheel_positions,
)
from rovermotion.errors import KinematicsError


@dataclass(frozen=True)
class IcrResult:
    """Instantaneous center of rotation: a body-frame point or at infinity."""

    at_infinity: bool
    point: tuple[float, float] | None = None


AT_INFINITY = IcrResult(at_infinity=True)

_PARALLEL_EIG_TOL = 1e-12
_WZ_EPS = 1e-12  # below this yaw rate a step is integrated as a straight line


def _normalize_steering(angle: float, speed: float, limit: float) -> tuple[float, float]:
    """Fold a steering angle into [-limit, limit] via (angle +/- pi, -speed)."""
    if angle > limit:
        angle -= math.pi
        speed = -speed
    elif angle < -limit:
        angle += math.pi
        speed = -speed
    if not -limit <= angle <= limit:
        raise KinematicsError("steering limit exceeded")
    return angle, speed


def inverse_kinematics(
    twist: BodyTwist, mode: LocomotionMode, config: RoverConfig
) -> list[WheelCommand]:
    """Map a body twist to four wheel commands for the given mode.

    Skid steering realizes (vx, wz) by differential side speeds with zero
    steering; crab translates along (vx, vy) without commanding yaw; point
    turn steers every wheel tangent to a circle around the body center;
    Ackermann steers all wheel axes through a common ICR at (0, vx/wz).
    """
    r = config.wheel_radius
    positions = wheel_positions(config)
    limit = config.steering_limit
    commands: list[WheelCommand] = []

    if mode is LocomotionMode.SKID_STEER:
        half_w = config.wheel_lateral_separation / 2.0
        for wheel in WHEEL_ORDER:
            _, y = positions[wheel]
            side = half_w if y > 0 else -half_w
            commands.append(WheelCommand(wheel, (twist.vx - twist.wz * side) / r, 0.0))
        return commands

    if mode is LocomotionMode.CRAB:
        if twist.wz != 0.0:
            raise KinematicsError("yaw rate unsupported in crab mode")
        speed = math.hypot(twist.vx, twist.vy)
        angle = math.atan2(twist.vy, twist.vx) if speed > 0 else 0.0
        for wheel in WHEEL_ORDER:
            a, s = _normalize_steering(angle, speed / r, limit)
            commands.append(WheelCommand(wheel, s, a))
        return commands

    if mode is LocomotionMode.POINT_TURN:
        for wheel in WHEEL_ORDER:
            px, py = positions[wheel]
            # rolling direction is z-hat x p, so positive wz drives forward
            angle = math.atan2(px, -py)
            speed = twist.wz * math.hypot(px, py) / r
            a, s = _normalize_steering(angle, speed, limit)
            commands.append(WheelCommand(wheel, s, a))
        return commands

    if mode is LocomotionMode.ACKERMANN:
        if twist.vy != 0.0:
            raise KinematicsError("lateral velocity unsupported in Ackermann")
        if twist.wz == 0.0:
            # ICR at infinity: straight-line driving
            for wheel in WHEEL_ORDER:
                commands.append(WheelCommand(wheel, twist.vx / r, 0.0))
            return commands
        icr_y = twist.vx / twist.wz
        for wheel in WHEEL_ORDER:
            px, py = positions[wheel]
            rel = (px, py - icr_y)
            angle = math.atan2(rel[0], -rel[1])
            speed = twist.wz * math.hypot(*rel) / r
            a, s = _normalize_steering(angle, speed, limit)
            commands.append(WheelCommand(wheel, s, a))
        return commands

    raise KinematicsError(f"unsupported mode {mode}")


def forward_odometry(commands: list[WheelCommand], config: RoverConfig) -> BodyTwist:
    """Least-squares body twist explaining the wheel rolling speeds.

    Only the rolling-direction projection of each contact velocity is
    constrained, so skid steering (lateral scrub by design) and noisy
    measured steering angles are handled uniformly. Unobservable twist
    components come out as the minimum-norm solution (zero).
    """
    positions = wheel_positions(config)
    r = config.wheel_radius
    rows = []
    rhs = []
    for cmd in commands:
        px, py = positions[cmd.wheel_id]
        ux = math.cos(cmd.steering_angle)
        uy = math.sin(cmd.steering_angle)
        # u . (v + wz x p) = drive_speed * r
        rows.append([ux, uy, uy * px - ux * py])
        rhs.append(cmd.drive_speed * r)
    solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return BodyTwist(*solution)


def icr_of(
    commands: list[WheelCommand], config: RoverConfig
) -> tuple[IcrResult, float]:
    """Least-squares intersection of the four wheel axes.

    Returns the ICR and the RMS point-to-axis distance. Parallel axes
    (straight driving) give AT_INFINITY with zero residual.
    """
    positions = wheel_positions(config)
    acc = np.zeros((2, 2))
    vec = np.zeros(2)
    axes = []
    for cmd in commands:
        p = np.array(positions[cmd.wheel_id])
        # wheel axis is the rolling direction rotated by 90 degrees
        d = np.array(
            [-math.sin(cmd.steering_angle), math.cos(cmd.steering_angle)]
        )
        proj = np.eye(2) - np.outer(d, d)
        acc += proj
        vec += proj @ p
        axes.append((p, d))
    eigvals = np.linalg.eigvalsh(acc)
    if eigvals[0] < _PARALLEL_EIG_TOL:
        return AT_INFINITY, 0.0
    point = np.linalg.solve(acc, vec)
    sq_sum = 0.0
    for p, d in axes:
        rel = point - p
        perp = rel - (rel @ d) * d
        sq_sum += float(perp @ perp)
    return IcrResult(False, (float(point[0]), float(point[1]))), math.sqrt(
        sq_sum / len(axes)
    )


@dataclass(frozen=True)
class ProfileSegment:
    duration: float  # s
    twist: BodyTwist
    mode: LocomotionMode


PROFILE_HEADER = ["duration_s", "vx", "vy", "wz", "mode"]


def parse_profile(
    lines: Iterable[str], path: str | Path, first_lineno: int = 1
) -> list[ProfileSegment]:
    """Parse a twist profile CSV: the header duration_s,vx,vy,wz,mode, then rows.

    `lines` starts at the header, which is line `first_lineno` of `path`.
    Blank rows are skipped; any other malformed row raises ConfigError
    naming `path:line`.
    """
    segments = []
    for where, row in csv_rows(lines, PROFILE_HEADER, path, first_lineno):
        try:
            duration, vx, vy, wz = (float(cell) for cell in row[:4])
            if not 0.0 < duration < math.inf:
                raise ConfigError(f"duration {row[0]!r} outside (0, inf)")
            mode = LocomotionMode.parse(row[4])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        segments.append(ProfileSegment(duration, BodyTwist(vx, vy, wz), mode))
    return segments


def integrate_track(vx, vy, wz, dt, x0=0.0, y0=0.0, theta0=0.0):
    """Integrate a piecewise-constant planar twist sequence.

    Each step holds the body twist (vx[i], vy[i], wz[i]) constant for dt
    seconds and advances the pose along the exact constant-twist arc.
    Returns (x, y, theta) arrays of length n + 1 including the start pose.

    The headings and positions are running sums taken left to right from
    the start pose, the order of stepping the pose one step at a time
    (rovermotion._track_py), so the two agree bit for bit wherever numpy's
    sin and cos return the math module's values.
    """
    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    wz = np.asarray(wz, dtype=np.float64)
    n = vx.shape[0]
    if vy.shape[0] != n or wz.shape[0] != n:
        raise ValueError("twist component arrays must have equal length")
    dth = wz * dt
    straight = np.abs(wz) < _WZ_EPS
    w = np.where(straight, 1.0, wz)
    s = np.sin(dth) / w
    c = (1.0 - np.cos(dth)) / w
    # body-frame displacement of each step along its arc
    dxb = np.where(straight, vx * dt, vx * s - vy * c)
    dyb = np.where(straight, vy * dt, vx * c + vy * s)
    theta = np.cumsum(np.concatenate(([theta0], dth)))
    cos_t, sin_t = np.cos(theta[:-1]), np.sin(theta[:-1])
    x = np.cumsum(np.concatenate(([x0], cos_t * dxb - sin_t * dyb)))
    y = np.cumsum(np.concatenate(([y0], sin_t * dxb + cos_t * dyb)))
    return x, y, theta


def marker_positions(
    x: np.ndarray, y: np.ndarray, heading: np.ndarray, offset: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """World position of a marker rigidly attached at `offset` in the body frame."""
    mx, my = offset
    cos_t, sin_t = np.cos(heading), np.sin(heading)
    return x + cos_t * mx - sin_t * my, y + sin_t * mx + cos_t * my

