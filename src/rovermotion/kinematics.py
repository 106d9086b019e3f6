"""Body-twist <-> wheel-command kinematics for the four steering modes."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rovermotion.config import (
    BodyTwist,
    LocomotionMode,
    RoverConfig,
    check_fields,
    csv_rows,
    parse_finite,
    wheel_positions,
    within,
)
from rovermotion.errors import DataError, naming


_WZ_EPS = 1e-12  # below this yaw rate a step is integrated as a straight line


def _normalize_steering(angle: float, speed: float, limit: float) -> tuple[float, float]:
    """Fold a steering angle into [-limit, limit] via (angle -/+ pi, -speed)."""
    if abs(angle) > limit:
        angle, speed = angle - math.copysign(math.pi, angle), -speed
    if not -limit <= angle <= limit:
        raise DataError("steering limit exceeded")
    return angle, speed


def inverse_kinematics(
    twist: BodyTwist, mode: LocomotionMode, config: RoverConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Map a body twist to the wheels' (drive speeds rad/s, steering angles
    rad), each in WHEELS order, for the given mode.

    Skid steering realizes (vx, wz) by differential side speeds with zero
    steering; crab translates along (vx, vy) without commanding yaw; point
    turn steers every wheel tangent to a circle around the body center;
    Ackermann steers all wheel axes through a common ICR at (0, vx/wz), and
    drives straight at a yaw rate below _WZ_EPS.
    """
    points = wheel_positions(config)
    if mode is LocomotionMode.SKID_STEER:
        half_w = config.wheel_lateral_separation / 2.0
        wheels = [(0.0, twist.vx - twist.wz * (half_w if y > 0 else -half_w))
                  for _, y in points]
    elif mode is LocomotionMode.CRAB:
        if twist.wz != 0.0:
            raise DataError("yaw rate unsupported in crab mode")
        speed = math.hypot(twist.vx, twist.vy)
        angle = math.atan2(twist.vy, twist.vx) if speed > 0 else 0.0
        wheels = [(angle, speed)] * len(points)
    elif mode is LocomotionMode.ACKERMANN and twist.vy != 0.0:
        raise DataError("lateral velocity unsupported in Ackermann")
    elif mode is LocomotionMode.ACKERMANN and abs(twist.wz) < _WZ_EPS:
        wheels = [(0.0, twist.vx)] * len(points)  # ICR at infinity: straight line
    elif mode is LocomotionMode.POINT_TURN or mode is LocomotionMode.ACKERMANN:
        # wheel axes through the ICR (0, icr_y), the center for a point turn;
        # rolling direction is z-hat x (p - icr), so positive wz drives forward
        icr_y = 0.0 if mode is LocomotionMode.POINT_TURN else twist.vx / twist.wz
        rels = [(px, py - icr_y) for px, py in points]
        wheels = [(math.atan2(rx, -ry), twist.wz * math.hypot(rx, ry)) for rx, ry in rels]
    else:
        raise DataError(f"unsupported mode {mode}")
    angles, speeds = zip(*(
        _normalize_steering(angle, speed / config.wheel_radius, config.steering_limit)
        for angle, speed in wheels))
    return np.array(speeds), np.array(angles)


def rolling_directions(angles, config: RoverConfig) -> tuple[np.ndarray, np.ndarray]:
    """(u, p): each wheel's unit rolling direction (cos, sin) of its steering
    angle in `angles`, and its contact position, as (4, 2) arrays in WHEELS order."""
    u = np.array([(math.cos(angle), math.sin(angle)) for angle in angles])
    return u, np.array(wheel_positions(config))


def _odometry_twist(speeds, config: RoverConfig, u, p) -> np.ndarray:
    """The least-squares body twist (vx, vy, wz) that explains the wheels'
    drive speeds `speeds`, given their rolling_directions (u, p).

    Only the rolling-direction projection of each contact velocity is
    constrained, so skid steering (lateral scrub by design) and noisy
    measured steering angles are handled uniformly. Unobservable twist
    components come out as the minimum-norm solution (zero).
    """
    # u . (v + wz x p) = drive_speed * r
    rows = np.column_stack((u, u[:, 1] * p[:, 0] - u[:, 0] * p[:, 1]))
    rhs = np.asarray(speeds) * config.wheel_radius
    return np.linalg.lstsq(rows, rhs, rcond=None)[0]


@dataclass(frozen=True)
class ProfileSegment:
    duration: float = within("(0, 10000000]")  # s
    twist: BodyTwist
    mode: LocomotionMode
    where: str | None = field(default=None, compare=False, repr=False)  # its path:line

    __post_init__ = check_fields


PROFILE_HEADER = ["duration_s", "vx", "vy", "wz", "mode"]


def parse_profile(
    lines: Iterable[str], path: str | Path, first_lineno: int = 1
) -> list[ProfileSegment]:
    """Parse a twist profile CSV: the header duration_s,vx,vy,wz,mode, then rows.

    `lines` starts at the header, which is line `first_lineno` of `path`.
    Blank rows are skipped; any other malformed row raises DataError
    naming `path:line`.
    """
    segments = []
    for where, row in csv_rows(lines, PROFILE_HEADER, path, first_lineno):
        duration, vx, vy, wz = (parse_finite(cell, name, where)
                                for name, cell in zip(PROFILE_HEADER, row[:4]))
        with naming(where):
            mode = LocomotionMode.parse(row[4])
            segments.append(ProfileSegment(duration, BodyTwist(vx, vy, wz), mode, where))
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
    x, y, theta = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    x[0], y[0], theta[0] = x0, y0, theta0
    dth = np.multiply(wz, dt, out=theta[1:])
    straight = np.abs(wz) < _WZ_EPS
    w = np.where(straight, 1.0, wz)
    s = np.sin(dth) / w
    c = (1.0 - np.cos(dth)) / w
    # body-frame displacement of each step along its arc, in x[1:] and y[1:]
    dxb = np.subtract(vx * s, vy * c, out=x[1:])
    dyb = np.add(vx * c, vy * s, out=y[1:])
    np.copyto(dxb, vx * dt, where=straight)
    np.copyto(dyb, vy * dt, where=straight)
    del straight, w, s, c  # at most five step-length temporaries live at once
    np.cumsum(theta, out=theta)
    cos_t, sin_t = np.cos(theta[:-1]), np.sin(theta[:-1])
    dx = cos_t * dxb - sin_t * dyb
    np.add(sin_t * dxb, cos_t * dyb, out=dyb)
    dxb[:] = dx
    np.cumsum(x, out=x)
    np.cumsum(y, out=y)
    return x, y, theta


def marker_positions(
    x: np.ndarray, y: np.ndarray, heading: np.ndarray, offset: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """World position of a marker rigidly attached at `offset` in the body frame."""
    mx, my = offset
    cos_t, sin_t = np.cos(heading), np.sin(heading)
    return x + cos_t * mx - sin_t * my, y + sin_t * mx + cos_t * my

