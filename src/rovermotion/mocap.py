"""Motion-capture and actuator logs, and their alignment on one clock."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from rovermotion.telemetry import _WHEEL_TAGS, TelemetryFormatError


@dataclass(frozen=True)
class MocapRecord:
    t: float
    position: tuple[float, float, float]
    quaternion: tuple[float, float, float, float]  # w, x, y, z
    marker_id: str

    @property
    def yaw(self) -> float:
        w, x, y, z = self.quaternion
        return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


@dataclass(frozen=True)
class ActuatorRecord:
    t: float
    actuator_id: str  # drive_fl..drive_rr, steer_fl..steer_rr
    voltage: float
    current: float
    measured: float  # rad/s for drives, rad for steering units


MOCAP_HEADER = ["t", "x", "y", "z", "qw", "qx", "qy", "qz", "marker"]
ACTUATOR_IDS = tuple(
    [f"drive_{w}" for w in _WHEEL_TAGS] + [f"steer_{w}" for w in _WHEEL_TAGS]
)


def parse_mocap_csv(path: str | Path) -> list[MocapRecord]:
    """Parse mocap ground-truth samples; malformed rows fail with line numbers."""
    records: list[MocapRecord] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != MOCAP_HEADER:
            raise TelemetryFormatError(
                f"{path}: expected header {','.join(MOCAP_HEADER)}"
            )
        previous_t = None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(MOCAP_HEADER):
                raise TelemetryFormatError(f"{path}:{lineno}: wrong column count")
            try:
                t = float(row[0])
                pos = tuple(float(c) for c in row[1:4])
                quat = tuple(float(c) for c in row[4:8])
            except ValueError as exc:
                raise TelemetryFormatError(f"{path}:{lineno}: {exc}") from exc
            norm = math.sqrt(sum(c * c for c in quat))
            if abs(norm - 1.0) > 1e-6:
                raise TelemetryFormatError(
                    f"{path}: non-unit quaternion at line {lineno}"
                )
            if previous_t is not None and t < previous_t:
                raise TelemetryFormatError(
                    f"{path}:{lineno}: out-of-order timestamp"
                )
            previous_t = t
            records.append(MocapRecord(t, pos, quat, row[8]))
    return records


def parse_actuator_csv(path: str | Path) -> list[ActuatorRecord]:
    """Parse per-actuator electrical samples: t,actuator,voltage,current,measured."""
    expected = ["t", "actuator", "voltage", "current", "measured"]
    records: list[ActuatorRecord] = []
    last_t: dict[str, float] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected:
            raise TelemetryFormatError(f"{path}: expected header {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise TelemetryFormatError(f"{path}:{lineno}: wrong column count")
            if row[1] not in ACTUATOR_IDS:
                raise TelemetryFormatError(
                    f"{path}:{lineno}: unknown actuator {row[1]!r}"
                )
            try:
                t = float(row[0])
                volts, amps, measured = (float(c) for c in row[2:])
            except ValueError as exc:
                raise TelemetryFormatError(f"{path}:{lineno}: {exc}") from exc
            if row[1] in last_t and t < last_t[row[1]]:
                raise TelemetryFormatError(
                    f"{path}:{lineno}: out-of-order timestamp for {row[1]}"
                )
            last_t[row[1]] = t
            records.append(ActuatorRecord(t, row[1], volts, amps, measured))
    return records


@dataclass(frozen=True)
class AlignedSample:
    """Mocap pose interpolated onto one actuator timestamp.

    pose/yaw are None inside a mocap dropout longer than max_gap.
    """

    t: float
    position: tuple[float, float, float] | None
    yaw: float | None
    actuators: dict[str, ActuatorRecord]


def align_series(
    mocap: list[MocapRecord],
    actuators: list[ActuatorRecord],
    max_gap: float,
) -> list[AlignedSample]:
    """Join mocap and actuator series on the actuator clock.

    Mocap position and yaw are linearly interpolated at each actuator
    timestamp; when the bracketing mocap samples are farther apart than
    max_gap the sample is emitted as an explicit hole (None pose).
    """
    if not mocap or not actuators:
        raise TelemetryFormatError("no temporal overlap")
    times = sorted({a.t for a in actuators})
    m_t = [m.t for m in mocap]
    if times[-1] < m_t[0] or times[0] > m_t[-1]:
        raise TelemetryFormatError("no temporal overlap")
    by_time: dict[float, dict[str, ActuatorRecord]] = {}
    for record in actuators:
        by_time.setdefault(record.t, {})[record.actuator_id] = record

    samples: list[AlignedSample] = []
    j = 0
    for t in times:
        while j + 1 < len(mocap) and m_t[j + 1] < t:
            j += 1
        lo = mocap[j]
        hi = mocap[min(j + 1, len(mocap) - 1)]
        in_range = m_t[0] <= t <= m_t[-1]
        if not in_range or (hi.t - lo.t) > max_gap:
            samples.append(AlignedSample(t, None, None, by_time[t]))
            continue
        if hi.t == lo.t:
            frac = 0.0
        else:
            frac = (t - lo.t) / (hi.t - lo.t)
        pos = tuple(
            a + frac * (b - a) for a, b in zip(lo.position, hi.position)
        )
        yaw_lo = lo.yaw
        dyaw = math.remainder(hi.yaw - yaw_lo, math.tau)
        samples.append(AlignedSample(t, pos, yaw_lo + frac * dyaw, by_time[t]))
    return samples
