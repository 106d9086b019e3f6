"""Evaluation metrics: cost of transport, yaw-energy curves, slip ratios."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rovermotion.config import RoverConfig
from rovermotion.telemetry import Telemetry


class MetricsError(ValueError):
    """Raised when a metric is undefined for the given input."""


RATIO_CLAMP = 5.0  # reporting clamp for efficiency ratios near zero denominators


@dataclass(frozen=True)
class CotReport:
    mode: str
    slope_deg: float
    mean_velocity: float  # m/s, encoder-derived
    mean_power: float  # W
    cost_of_transport: float


@dataclass(frozen=True)
class YawEnergyCurve:
    mode: str
    points: list[tuple[float, float]]  # (cumulative yaw deg, cumulative energy J)


def cost_of_transport(power_w: float, mass: float, gravity: float, v: float) -> float:
    """Dimensionless energy cost of moving mass at speed v: P / (m g v)."""
    if mass <= 0 or gravity <= 0:
        raise MetricsError("non-positive mass or gravity")
    if v <= 0:
        raise MetricsError("undefined at zero velocity")
    return power_w / (mass * gravity * v)


def encoder_speed(telemetry: Telemetry) -> np.ndarray:
    """Encoder-derived linear speed |(odo_vx, odo_vy)| of each sample."""
    # math.hypot, not np.hypot: the two differ in the last bit on some inputs
    return np.array(
        [
            math.hypot(vx, vy)
            for vx, vy in zip(
                telemetry.column("odo_vx").tolist(), telemetry.column("odo_vy").tolist()
            )
        ]
    )


def mean_cot(
    telemetry: Telemetry,
    config: RoverConfig,
    mode: str = "",
    slope_deg: float = 0.0,
) -> CotReport:
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
    if mean_velocity <= 0:
        raise MetricsError("undefined at zero velocity")
    return CotReport(
        mode=mode,
        slope_deg=slope_deg,
        mean_velocity=mean_velocity,
        mean_power=mean_power,
        cost_of_transport=cost_of_transport(
            mean_power, config.mass, config.gravity, mean_velocity
        ),
    )


def energy_vs_yaw(telemetry: Telemetry, mode: str = "") -> YawEnergyCurve:
    """Cumulative electrical energy against cumulative ground-truth |yaw|.

    Steering reposition energy spent before the body rotates accumulates at
    yaw = 0, which is the point-turn basal offset.
    """
    if not telemetry:
        return YawEnergyCurve(mode, [])
    heading = np.unwrap(telemetry.column("heading"))
    yaw = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(heading)))))
    energy = telemetry.cumulative_energy()
    return YawEnergyCurve(
        mode, [(math.degrees(a), float(e)) for a, e in zip(yaw, energy)]
    )


def _smooth(values: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return values
    kernel = np.ones(window) / window
    padded = np.concatenate(
        (np.full(window // 2, values[0]), values, np.full(window // 2, values[-1]))
    )
    return np.convolve(padded, kernel, mode="valid")


def angular_speed_efficiency(
    times: np.ndarray,
    gt_heading: np.ndarray,
    odo_wz: np.ndarray,
    smoothing_window_s: float = 0.5,
    wz_threshold: float = 1e-3,
) -> list[tuple[float, float | None]]:
    """Pointwise ground-truth yaw rate over odometry yaw rate.

    The ground-truth rate comes from central differences of the heading
    series, smoothed with a centered moving average. Samples where the
    odometry yaw rate is below wz_threshold are emitted as gaps (None).
    """
    times = np.asarray(times, dtype=float)
    gt_heading = np.unwrap(np.asarray(gt_heading, dtype=float))
    odo_wz = np.asarray(odo_wz, dtype=float)
    if not len(times) == len(gt_heading) == len(odo_wz):
        raise MetricsError("series must be time-aligned")
    if len(times) < 3:
        raise MetricsError("insufficient samples")
    gt_rate = np.gradient(gt_heading, times)
    dt = float(np.median(np.diff(times)))
    window = max(1, int(round(smoothing_window_s / dt)))
    if window % 2 == 0:
        window += 1
    gt_rate = _smooth(gt_rate, window)
    out: list[tuple[float, float | None]] = []
    for t, gt, odo in zip(times, gt_rate, odo_wz):
        if abs(odo) < wz_threshold:
            out.append((float(t), None))
        else:
            out.append((float(t), float(gt / odo)))
    return out


def longitudinal_slip(
    encoder_v: np.ndarray, mocap_v: np.ndarray
) -> list[float | None]:
    """Slip ratio (encoder - mocap) / encoder; non-positive encoder -> gap."""
    encoder_v = np.asarray(encoder_v, dtype=float)
    mocap_v = np.asarray(mocap_v, dtype=float)
    if len(encoder_v) != len(mocap_v):
        raise MetricsError("series must be time-aligned")
    out: list[float | None] = []
    for enc, moc in zip(encoder_v, mocap_v):
        if enc <= 0:
            out.append(None)
        else:
            out.append(float((enc - moc) / enc))
    return out


def clamp_ratio(value: float, limit: float = RATIO_CLAMP) -> float:
    """Clamp a ratio into [-limit, limit] for plot-friendly reporting."""
    return max(-limit, min(limit, value))
