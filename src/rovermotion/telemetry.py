"""Telemetry series and records, CSV serialization, and series alignment."""
from __future__ import annotations

import csv
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rovermotion.config import BodyTwist

BUS_VOLTAGE = 24.0
FLOAT_FORMAT = "%.6f"

_WHEEL_TAGS = ("fl", "fr", "rl", "rr")


class TelemetryFormatError(ValueError):
    """Raised for malformed telemetry, mocap, or actuator files."""


@dataclass(frozen=True)
class TelemetryRecord:
    """One synchronized sample of ground truth, odometry, and power."""

    t: float
    pose: tuple[float, float, float]  # ground-truth x, y, heading
    marker: tuple[float, float]  # mocap marker world position
    odo_twist: BodyTwist
    commanded_twist: BodyTwist
    drive_voltage: tuple[float, float, float, float]
    drive_current: tuple[float, float, float, float]
    steer_voltage: tuple[float, float, float, float]
    steer_current: tuple[float, float, float, float]
    drive_speeds: tuple[float, float, float, float]  # rad/s, FL FR RL RR
    steering_angles: tuple[float, float, float, float]  # rad

    @property
    def total_power(self) -> float:
        return sum(v * i for v, i in zip(self.drive_voltage, self.drive_current)) + sum(
            v * i for v, i in zip(self.steer_voltage, self.steer_current)
        )


TELEMETRY_HEADER = (
    ["t", "x", "y", "heading", "marker_x", "marker_y"]
    + ["odo_vx", "odo_vy", "odo_wz", "cmd_vx", "cmd_vy", "cmd_wz"]
    + [f"v_drive_{w}" for w in _WHEEL_TAGS]
    + [f"i_drive_{w}" for w in _WHEEL_TAGS]
    + [f"v_steer_{w}" for w in _WHEEL_TAGS]
    + [f"i_steer_{w}" for w in _WHEEL_TAGS]
    + [f"speed_{w}" for w in _WHEEL_TAGS]
    + [f"steer_{w}" for w in _WHEEL_TAGS]
)


_HEADER_LINE = ",".join(TELEMETRY_HEADER)
_COLUMN = {name: j for j, name in enumerate(TELEMETRY_HEADER)}

# TelemetryRecord field -> its columns in TELEMETRY_HEADER
FIELD_COLUMNS = {
    "pose": slice(1, 4),
    "marker": slice(4, 6),
    "odo_twist": slice(6, 9),
    "commanded_twist": slice(9, 12),
    "drive_voltage": slice(12, 16),
    "drive_current": slice(16, 20),
    "steer_voltage": slice(20, 24),
    "steer_current": slice(24, 28),
    "drive_speeds": slice(28, 32),
    "steering_angles": slice(32, 36),
}


class Telemetry:
    """A telemetry series as one float64 column per TELEMETRY_HEADER field.

    `values` has shape (samples, len(TELEMETRY_HEADER)). `telemetry[i]`
    builds sample i as a TelemetryRecord on demand; whole-series code reads
    columns with `column(name)` instead.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(TELEMETRY_HEADER):
            raise ValueError(
                f"telemetry needs {len(TELEMETRY_HEADER)} columns, got shape "
                f"{values.shape}"
            )
        self.values = values

    @classmethod
    def empty(cls) -> "Telemetry":
        return cls(np.empty((0, len(TELEMETRY_HEADER))))

    @classmethod
    def from_records(cls, records: Iterable[TelemetryRecord]) -> "Telemetry":
        rows = [
            [
                r.t, *r.pose, *r.marker,
                r.odo_twist.vx, r.odo_twist.vy, r.odo_twist.wz,
                r.commanded_twist.vx, r.commanded_twist.vy, r.commanded_twist.wz,
                *r.drive_voltage, *r.drive_current, *r.steer_voltage,
                *r.steer_current, *r.drive_speeds, *r.steering_angles,
            ]
            for r in records
        ]
        return cls(np.array(rows).reshape(-1, len(TELEMETRY_HEADER)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> TelemetryRecord:
        v = self.values[operator.index(index)].tolist()
        return TelemetryRecord(
            t=v[0],
            pose=(v[1], v[2], v[3]),
            marker=(v[4], v[5]),
            odo_twist=BodyTwist(v[6], v[7], v[8]),
            commanded_twist=BodyTwist(v[9], v[10], v[11]),
            drive_voltage=tuple(v[12:16]),
            drive_current=tuple(v[16:20]),
            steer_voltage=tuple(v[20:24]),
            steer_current=tuple(v[24:28]),
            drive_speeds=tuple(v[28:32]),
            steering_angles=tuple(v[32:36]),
        )

    def __iter__(self) -> Iterator[TelemetryRecord]:
        return (self[i] for i in range(len(self)))

    def column(self, name: str) -> np.ndarray:
        """The column named `name` in TELEMETRY_HEADER (a view, not a copy)."""
        return self.values[:, _COLUMN[name]]

    @property
    def total_power(self) -> np.ndarray:
        """Per-sample TelemetryRecord.total_power, summed in the same order."""
        return _sum_left(
            self.values[:, FIELD_COLUMNS["drive_voltage"]]
            * self.values[:, FIELD_COLUMNS["drive_current"]]
        ) + _sum_left(
            self.values[:, FIELD_COLUMNS["steer_voltage"]]
            * self.values[:, FIELD_COLUMNS["steer_current"]]
        )

    def cumulative_energy(self) -> np.ndarray:
        """Trapezoidal energy (J) from the first sample to each sample.

        The intervals are accumulated one after another, so the last entry
        equals a sequential sum over the series.
        """
        t, p = self.column("t"), self.total_power
        return np.concatenate(
            ([0.0], np.cumsum(np.diff(t) * (p[1:] + p[:-1]) / 2.0))
        )


def _sum_left(products: np.ndarray) -> np.ndarray:
    # sum() over each row, left to right from 0, as TelemetryRecord.total_power
    total = np.zeros(len(products))
    for j in range(products.shape[1]):
        total = total + products[:, j]
    return total


def write_telemetry_csv(path: str | Path, telemetry: Telemetry) -> None:
    with open(path, "w", newline="") as handle:
        np.savetxt(
            handle, telemetry.values, fmt=FLOAT_FORMAT, delimiter=",",
            header=_HEADER_LINE, comments="",
        )


def read_telemetry_csv(path: str | Path) -> Telemetry:
    """Read a telemetry CSV written by write_telemetry_csv.

    The rows are parsed with one np.loadtxt call. A file that call rejects
    is read again row by row, so that the error names the offending line.
    """
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    if len(lines) > 1 and lines[0] == _HEADER_LINE:
        try:
            values = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
        # loadtxt skips blank lines, which the row-by-row reader rejects
        if values is not None and values.shape == (
            len(lines) - 1, len(TELEMETRY_HEADER)
        ):
            t = values[:, 0]
            late = np.flatnonzero(t[1:] <= t[:-1])
            if late.size:
                raise TelemetryFormatError(
                    f"{path}:{late[0] + 3}: non-increasing timestamp"
                )
            return Telemetry(values)
    return _read_rows(path)


def _read_rows(path: str | Path) -> Telemetry:
    rows: list[list[float]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != TELEMETRY_HEADER:
            raise TelemetryFormatError(f"{path}: unexpected telemetry header")
        previous_t = None
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(TELEMETRY_HEADER):
                raise TelemetryFormatError(f"{path}:{lineno}: wrong column count")
            try:
                v = [float(cell) for cell in row]
            except ValueError as exc:
                raise TelemetryFormatError(f"{path}:{lineno}: {exc}") from exc
            if previous_t is not None and v[0] <= previous_t:
                raise TelemetryFormatError(
                    f"{path}:{lineno}: non-increasing timestamp"
                )
            previous_t = v[0]
            rows.append(v)
    return Telemetry(np.array(rows).reshape(-1, len(TELEMETRY_HEADER)))


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
                    f"non-unit quaternion at line {lineno}"
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
