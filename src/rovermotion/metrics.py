"""Evaluation metrics: cost of transport, yaw-energy curves, slip ratios."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rovermotion.config import RoverConfig
from rovermotion.errors import MetricsError
from rovermotion.telemetry import Telemetry


RATIO_CLAMP = 5.0  # reporting clamp for efficiency ratios near zero denominators
WZ_THRESHOLD = 1e-3  # rad/s; an odometry yaw rate below it gives no efficiency ratio


@dataclass(frozen=True)
class CotReport:
    mean_velocity: float  # m/s, encoder-derived
    mean_power: float  # W
    cost_of_transport: float


def cost_of_transport(power_w: float, mass: float, gravity: float, v: float) -> float:
    """Dimensionless energy cost of moving mass at speed v: P / (m g v)."""
    if mass <= 0 or gravity <= 0:
        raise MetricsError("non-positive mass or gravity")
    if v <= 0:
        raise MetricsError("undefined at zero velocity")
    return power_w / (mass * gravity * v)


def encoder_speed(telemetry: Telemetry) -> np.ndarray:
    """Encoder-derived linear speed |(odo_vx, odo_vy)| of each sample."""
    vx, vy = telemetry.column("odo_vx"), telemetry.column("odo_vy")
    # math.hypot(x, ±0.0) is abs(x) bit for bit, so math.hypot is called
    # only where both components are non-zero (np.hypot differs from it in
    # the last bit on some inputs)
    speed = np.abs(vx)
    np.copyto(speed, np.abs(vy), where=vx == 0.0)
    both = np.flatnonzero((vx != 0.0) & (vy != 0.0))
    speed[both] = [
        math.hypot(x, y) for x, y in zip(vx[both].tolist(), vy[both].tolist())
    ]
    return speed


def mean_cot(telemetry: Telemetry, config: RoverConfig) -> CotReport:
    """Mean cost of transport of a telemetry series.

    Power is the time-weighted mean of the summed voltage-current products;
    velocity is the time-weighted mean encoder-derived linear speed (from
    the odometry twist), matching how the test campaign computed the table.
    """
    if len(telemetry) < 2:
        raise MetricsError("insufficient samples")
    t = telemetry.column("t")
    p = telemetry.total_power
    v = encoder_speed(telemetry)
    span = t[-1] - t[0]
    mean_power = float(np.trapezoid(p, t) / span)
    mean_velocity = float(np.trapezoid(v, t) / span)
    return CotReport(
        mean_velocity=mean_velocity,
        mean_power=mean_power,
        cost_of_transport=cost_of_transport(
            mean_power, config.mass, config.gravity, mean_velocity
        ),
    )


def energy_vs_yaw(telemetry: Telemetry) -> np.ndarray:
    """Cumulative electrical energy against cumulative ground-truth |yaw|:
    an (n, 2) array of rows (cumulative yaw deg, cumulative energy J).

    Steering reposition energy spent before the body rotates accumulates at
    yaw = 0, which is the point-turn basal offset.
    """
    if not telemetry:
        return np.empty((0, 2))
    heading = np.unwrap(telemetry.column("heading"))
    yaw = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(heading)))))
    # np.degrees multiplies by the same 180 / pi as math.degrees
    return np.column_stack((np.degrees(yaw), telemetry.cumulative_energy()))


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return values
    kernel = np.ones(window) / window
    padded = np.concatenate(
        (np.full(window // 2, values[0]), values, np.full(window // 2, values[-1]))
    )
    return np.convolve(padded, kernel, mode="valid")


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit, without np.median,
    whose import of numpy.ma costs an analyze process tens of milliseconds.

    The middle element, or the mean of the two middle ones, each summed from
    +0.0 as np.mean sums (so a median of -0.0 is +0.0); a NaN anywhere
    gives the NaN that a partition puts last.
    """
    n = len(values)
    part = np.partition(values, [(n - 1) // 2, n // 2, n - 1])
    if np.isnan(part[-1]):
        return float(part[-1])
    if n % 2:
        return float(0.0 + part[n // 2])
    return float((0.0 + part[n // 2 - 1] + part[n // 2]) / 2.0)


def angular_speed_efficiency(
    times: np.ndarray,
    gt_heading: np.ndarray,
    odo_wz: np.ndarray,
    smoothing_window_s: float = 0.5,
) -> np.ndarray:
    """Pointwise ground-truth yaw rate over odometry yaw rate, per sample.

    The ground-truth rate comes from central differences of the heading
    series, smoothed with a centered moving average. Samples where the
    odometry yaw rate is below WZ_THRESHOLD are gaps (NaN).
    """
    times = np.asarray(times, dtype=float)
    gt_heading = np.unwrap(np.asarray(gt_heading, dtype=float))
    odo_wz = np.asarray(odo_wz, dtype=float)
    if not len(times) == len(gt_heading) == len(odo_wz):
        raise MetricsError("series must be time-aligned")
    if len(times) < 3:
        raise MetricsError("insufficient samples")
    gt_rate = np.gradient(gt_heading, times)
    dt = _median(np.diff(times))
    window = max(1, int(round(smoothing_window_s / dt)))
    if window % 2 == 0:
        window += 1
    gt_rate = _smooth(gt_rate, window)
    ratio = np.full(len(times), np.nan)
    np.divide(gt_rate, odo_wz, out=ratio, where=np.abs(odo_wz) >= WZ_THRESHOLD)
    return ratio


def longitudinal_slip(encoder_v: np.ndarray, mocap_v: np.ndarray) -> np.ndarray:
    """Slip ratio (encoder - mocap) / encoder per sample; a gap (NaN) where
    the encoder speed is not positive."""
    encoder_v = np.asarray(encoder_v, dtype=float)
    mocap_v = np.asarray(mocap_v, dtype=float)
    if len(encoder_v) != len(mocap_v):
        raise MetricsError("series must be time-aligned")
    moving = encoder_v > 0
    slip = np.full(len(encoder_v), np.nan)
    np.subtract(encoder_v, mocap_v, out=slip, where=moving)
    np.divide(slip, encoder_v, out=slip, where=moving)
    return slip


def clamp_ratio(value: float | np.ndarray) -> float | np.ndarray:
    """Clamp a ratio, or each of an array of ratios, into
    [-RATIO_CLAMP, RATIO_CLAMP] for plot-friendly reporting.

    The result is max(-RATIO_CLAMP, min(RATIO_CLAMP, value)), so NaN clamps
    to RATIO_CLAMP.
    """
    below = np.where(value < RATIO_CLAMP, value, RATIO_CLAMP)
    return np.where(below > -RATIO_CLAMP, below, -RATIO_CLAMP)[()]
