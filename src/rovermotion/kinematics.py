"""Body-twist <-> wheel-command kinematics for the four steering modes."""
from __future__ import annotations

import csv
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
    wheel_positions,
)
from rovermotion.kernels import integrate_track


class KinematicsError(ValueError):
    """Raised for mode/twist combinations the steering geometry cannot realize."""


@dataclass(frozen=True)
class IcrResult:
    """Instantaneous center of rotation: a body-frame point or at infinity."""

    at_infinity: bool
    point: tuple[float, float] | None = None


AT_INFINITY = IcrResult(at_infinity=True)

_PARALLEL_EIG_TOL = 1e-12


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


def forward_odometry(
    commands: list[WheelCommand], mode: LocomotionMode, config: RoverConfig
) -> BodyTwist:
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
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != PROFILE_HEADER:
        raise ConfigError(
            f"{path}: profile header must be {','.join(PROFILE_HEADER)}, got {header}"
        )
    segments = []
    for row in reader:
        if not row:
            continue
        where = f"{path}:{first_lineno - 1 + reader.line_num}"
        if len(row) != len(PROFILE_HEADER):
            raise ConfigError(
                f"{where}: expected {len(PROFILE_HEADER)} columns, got {len(row)}"
            )
        try:
            duration, vx, vy, wz = (float(cell) for cell in row[:4])
            mode = LocomotionMode.parse(row[4])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        segments.append(ProfileSegment(duration, BodyTwist(vx, vy, wz), mode))
    return segments


def load_twist_profile(path: str | Path) -> list[ProfileSegment]:
    """Load a twist profile CSV with header duration_s,vx,vy,wz,mode."""
    with open(path, newline="") as handle:
        return parse_profile(handle, path)


def marker_positions(
    x: np.ndarray, y: np.ndarray, heading: np.ndarray, offset: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """World position of a marker rigidly attached at `offset` in the body frame."""
    mx, my = offset
    cos_t, sin_t = np.cos(heading), np.sin(heading)
    return x + cos_t * mx - sin_t * my, y + sin_t * mx + cos_t * my


def simulate_pose_track(
    profile: list[ProfileSegment],
    config: RoverConfig,
    marker_offset: tuple[float, float] = (0.0, 0.0),
    step: float = 0.01,
) -> list[tuple[float, tuple[float, float], float]]:
    """Integrate a slip-free piecewise-constant twist profile.

    Returns (time, marker world position, body heading) samples at the
    integration step, starting at t = 0 with the body at the origin. The
    marker is rigidly attached at marker_offset in the body frame, so a
    point turn traces a circle of radius |marker_offset| around a fixed
    vehicle center.
    """
    if step <= 0:
        raise ConfigError("non-positive integration step")
    vx_steps: list[float] = []
    vy_steps: list[float] = []
    wz_steps: list[float] = []
    for segment in profile:
        if segment.duration <= 0:
            raise ConfigError("non-positive segment duration")
        n = max(1, round(segment.duration / step))
        if segment.mode is LocomotionMode.CRAB and segment.twist.wz != 0.0:
            raise KinematicsError("yaw rate unsupported in crab mode")
        vx_steps.extend([segment.twist.vx] * n)
        vy_steps.extend([segment.twist.vy] * n)
        wz_steps.extend([segment.twist.wz] * n)
    x, y, theta = integrate_track(
        np.array(vx_steps), np.array(vy_steps), np.array(wz_steps), step
    )
    marker_x, marker_y = marker_positions(x, y, theta, marker_offset)
    return [
        (i * step, (mx, my), th)
        for i, (mx, my, th) in enumerate(
            zip(marker_x.tolist(), marker_y.tolist(), theta.tolist())
        )
    ]
