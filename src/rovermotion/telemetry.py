"""Telemetry series and records, and their CSV serialization."""
from __future__ import annotations

import csv
import operator
import threading
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


# Rows per vectorised formatting pass. It bounds the (rows, columns, width)
# byte buffer and its mask; 4096 rows raised a simulate's peak RSS by ~10 MB.
_CHUNK_ROWS = 1024


def _words(prefix: str, suffix: str) -> np.ndarray:
    """Entry k: the four bytes prefix + the three digits of k + suffix."""
    k = np.arange(1000)[:, None]
    digits = k // np.array([100, 10, 1]) % 10 + ord("0")
    columns = [np.full((1000, 1), ord(c)) for c in prefix]
    columns += [digits] + [np.full((1000, 1), ord(c)) for c in suffix]
    return np.hstack(columns).astype(np.uint8).view(np.uint32).ravel()


# Each cell is laid out in four-byte words: "-ddd" per group of three
# integer digits, ".ddd" and "ddd," for the six decimals.
_GROUP_WORDS = _words("-", "")
_POINT_WORDS = _words(".", "")
_TAIL_WORDS = _words("", ",")

# |x| * 1e6 below this is an exact float64 integer plus fraction
_FAST_LIMIT = 2.0**52


def write_fixed_csv(
    path: str | Path,
    header: Iterable[str],
    values: np.ndarray,
    blank: np.ndarray | None = None,
) -> None:
    """Write `header` and the rows of `values` as CSV, each cell as "%.6f" % x.

    The bytes are those of np.savetxt(fmt="%.6f", delimiter=",") under
    the header line. Cells where the boolean array `blank` is true are
    written as empty cells.
    """
    values = np.asarray(values, dtype=np.float64)
    with open(path, "wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(values), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            handle.write(
                _format_rows(
                    values[start:stop], None if blank is None else blank[start:stop]
                )
            )


def _format_rows(values: np.ndarray, blank: np.ndarray | None) -> bytes:
    """CSV text of `values`, byte for byte as "%.6f" % x writes each cell.

    Each cell is rounded to q = round(|x| * 1e6) and written in a fixed
    layout of four-byte words, whose unused sign, group-padding and
    leading-zero bytes one boolean mask drops. A row with a cell this
    rounding may get wrong is formatted by Python instead.
    """
    rows, cols = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 1e6
    fast = scaled < _FAST_LIMIT  # false for nan and inf
    scaled[~fast] = 0.0
    whole = np.floor(scaled)
    frac = scaled - whole
    # The product is within half a unit in the last place of the exact
    # |x| * 1e6, so rounding half up is exact unless frac lies within a
    # spacing of .5: exact ties (odd multiples of 1/128, which "%.6f" rounds
    # to even) and near-ties go to Python.
    fast &= np.abs(frac - 0.5) > np.spacing(scaled)
    if blank is not None:
        fast |= blank
    q = (whole + (frac > 0.5)).astype(np.int64)
    int_part = q // 1_000_000
    decimals = (q - int_part * 1_000_000).astype(np.int32)

    groups = -(-len(str(int_part.max(initial=0))) // 3)
    words = np.empty((rows, cols, groups + 2), dtype=np.uint32)
    for g in range(groups):
        group = int_part // 1000 ** (groups - 1 - g)
        words[..., g] = _GROUP_WORDS[group % 1000 if g else group]
    words[..., groups] = _POINT_WORDS[decimals // 1000]
    words[..., groups + 1] = _TAIL_WORDS[decimals % 1000]
    text = words.view(np.uint8).reshape(rows, cols, -1)
    text[:, -1, -1] = ord("\n")

    keep = np.zeros(text.shape, dtype=bool)
    keep[..., 0] = np.signbit(values)
    # the digit of place 10**p sits at byte 4 * g + 1 + j, with
    # p = 3 * (groups - 1 - g) + 2 - j; it is kept from the leading digit on
    for g in range(groups):
        for j in range(3):
            p = 3 * (groups - 1 - g) + 2 - j
            keep[..., 4 * g + 1 + j] = int_part >= 10**p if p else True
    keep[..., 4 * groups :] = True
    if blank is not None:
        keep[blank, :-1] = False
    out = text[keep].tobytes()

    slow = np.flatnonzero(~fast.all(axis=1))
    if slow.size == 0:
        return out
    ends = np.cumsum(keep.sum(axis=(1, 2))).tolist()
    pieces, done = [], 0
    for i in slow.tolist():
        pieces.append(out[done : ends[i - 1] if i else 0])
        cells = zip(values[i].tolist(), [False] * cols if blank is None else blank[i])
        pieces.append(
            (",".join("" if b else FLOAT_FORMAT % x for x, b in cells) + "\n").encode()
        )
        done = ends[i]
    pieces.append(out[done:])
    return b"".join(pieces)


def write_telemetry_csv(path: str | Path, telemetry: Telemetry) -> None:
    write_fixed_csv(path, TELEMETRY_HEADER, telemetry.values)


def read_telemetry_csv(path: str | Path) -> Telemetry:
    """Read a telemetry CSV written by write_telemetry_csv.

    A file in exactly the layout write_fixed_csv emits is parsed as
    fixed-point numbers (see _parse_fixed). Any other file, or one that
    layout cannot hold (such as a value of ten or more integer digits), is
    read row by row by _read_rows, which gives the same values and names the
    line of a malformed row.
    """
    values = _parse_fixed(Path(path).read_bytes())
    if values is None:
        return _read_rows(path)
    t = values[:, 0]
    late = np.flatnonzero(t[1:] <= t[:-1])
    if late.size:
        raise TelemetryFormatError(f"{path}:{late[0] + 3}: non-increasing timestamp")
    return Telemetry(values)


_HEADER_BYTES = (_HEADER_LINE + "\n").encode()

# Bytes per chunk of _parse_fixed, which cuts each chunk at a line end. On a
# 20,001-row file, 256 KiB chunks read faster than 64 KiB ones (more numpy
# calls per byte) and than 1 MiB ones (temporaries beyond the CPU caches).
_READ_CHUNK_BYTES = 1 << 18

# The bytes that end a cell, in order, on each line
_SEPARATORS = np.array([ord(",")] * (len(TELEMETRY_HEADER) - 1) + [ord("\n")], np.uint8)

_ZEROS = np.uint64(0x3030303030303030)  # eight "0" bytes
# Entry k: a mask of the top k - 1 bytes of a word, which hold the integer
# digits but the last of a cell with k of them (see _ChunkParser.parse)
_HIGH_BYTES = np.array(
    [0] + [(2**64 - 1) >> 8 * (9 - k) << 8 * (9 - k) for k in range(1, 10)],
    dtype=np.uint64,
)


def _eight_digits(words: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """The number written by the eight ASCII digits of each little-endian
    word, computed in the place of `words`; `spare` is overwritten."""
    v = words
    v -= _ZEROS
    pairs = np.right_shift(v, np.uint64(8), out=spare)
    v *= np.uint64(10)
    v += pairs  # each even byte holds two digits
    lanes = np.uint64(0x000000FF000000FF)
    np.right_shift(v, np.uint64(16), out=pairs)
    pairs &= lanes
    pairs *= np.uint64(1 + (10_000 << 32))
    v &= lanes
    v *= np.uint64(100 + (1_000_000 << 32))
    v += pairs
    v >>= np.uint64(32)
    return v


def _parse_fixed(data: bytes) -> np.ndarray | None:
    """The rows of a telemetry CSV in write_fixed_csv's layout, else None.

    The layout is the header line, then lines of 36 cells "-?D+.DDDDDD"
    (at most nine integer digits) separated by "," and ended by "\n".
    Each cell is read as the integer q = |x| * 1e6 and returned as q / 1e6,
    negated after a "-". q and 1e6 are exact doubles, so the division gives
    the correctly rounded value, which is float(cell) bit for bit.

    The rows are parsed in chunks of about _READ_CHUNK_BYTES, cut at line
    ends, by this thread and one helper thread (numpy releases the GIL).
    """
    if not data.startswith(_HEADER_BYTES) or not data.endswith(b"\n"):
        return None
    chunks, rows, start = [], 0, len(_HEADER_BYTES)
    while start < len(data):
        stop = data.find(b"\n", min(start + _READ_CHUNK_BYTES, len(data)) - 1) + 1
        chunks.append((start, stop, rows))
        rows += data.count(b"\n", start, stop)
        start = stop
    values = np.empty((rows, len(TELEMETRY_HEADER)))
    buf = np.frombuffer(data, dtype=np.uint8)
    # the eight bytes from each offset, as one little-endian integer
    words = np.ndarray((len(buf) - 7,), "<u8", data, 0, (1,))

    pending = iter(chunks)
    lock = threading.Lock()
    rejected: list[object] = []
    errors: list[BaseException] = []

    def work() -> None:
        parser = _ChunkParser(buf, words, values)
        while not rejected:
            with lock:
                chunk = next(pending, None)
            if chunk is None:
                return
            if not parser.parse(*chunk):
                rejected.append(chunk)

    def helper() -> None:
        try:
            work()
        except BaseException as exc:  # raised again by the calling thread
            errors.append(exc)

    thread = threading.Thread(target=helper) if len(chunks) > 1 else None
    if thread is not None:
        thread.start()
    try:
        work()
    finally:
        if thread is not None:
            thread.join()
    if errors:
        raise errors[0]
    return None if rejected else values


class _ChunkParser:
    """Parses chunks of a file in the layout of _parse_fixed into `values`.

    Each thread has its own. The chunk-sized arrays are kept from chunk to
    chunk: allocated afresh, each one got new pages from malloc, whose page
    faults made the first read in a process about half again as slow.
    """

    def __init__(self, buf: np.ndarray, words: np.ndarray, values: np.ndarray):
        self.buf, self.words, self.values = buf, words, values
        self._arrays: dict[str, np.ndarray] = {}

    def _scratch(self, name: str, size: int, dtype) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or len(array) < size:
            # room for the next chunk, which may end a little further on
            array = self._arrays[name] = np.empty(size * 9 // 8, dtype)
        return array[:size]

    def parse(self, start: int, stop: int, row: int) -> bool:
        """Parse the lines in buf[start:stop] into values[row:]; False if any
        byte breaks the layout."""
        text = self.buf[start:stop]
        # "," and "\n" (and any other byte below "-")
        flags = np.less(text, ord("-"), out=self._scratch("flags", len(text), bool))
        ends = np.flatnonzero(flags)
        cells = len(ends)
        if cells % len(_SEPARATORS) or not (
            text[ends].reshape(-1, len(_SEPARATORS)) == _SEPARATORS
        ).all():
            return False
        # each cell's first byte, then its number of integer digits
        digits = self._scratch("digits", cells, ends.dtype)
        digits[0] = 0
        np.add(ends[:-1], 1, out=digits[1:])
        negative = text[digits] == ord("-")
        np.subtract(ends, digits, out=digits)
        digits -= negative
        digits -= 7
        ends -= 7
        if digits.min() < 1 or digits.max() > 9 or not (text[ends] == ord(".")).all():
            return False
        # With one "." in each cell and "-" only as a first byte, every other
        # byte must be a digit
        if (
            np.count_nonzero(np.equal(text, ord("."), out=flags)) != cells
            or np.count_nonzero(np.equal(text, ord("-"), out=flags))
            != np.count_nonzero(negative)
            or np.equal(text, ord("/"), out=flags).any()
            or np.greater(text, ord("9"), out=flags).any()
        ):
            return False

        spare = self._scratch("spare", cells, np.uint64)
        # each cell's last eight bytes "I.DDDDDD" become "0IDDDDDD": I * 1e6
        # plus the decimals
        ends += start - 1
        low = self.words[ends]
        np.bitwise_and(low, np.uint64(0xFF), out=spare)
        spare <<= np.uint64(8)
        low &= np.uint64(0xFFFFFFFFFFFF0000)
        low |= spare
        low |= np.uint64(ord("0"))
        # the integer digits before I end the eight bytes before "I."; the
        # bytes in front of them (sign, earlier cells, the header line)
        # become "0"
        ends -= 8
        high = self.words[ends]
        keep = _HIGH_BYTES.take(digits, out=spare, mode="clip")
        high &= keep
        np.invert(keep, out=keep)
        keep &= _ZEROS
        high |= keep
        q = _eight_digits(high, spare)
        q *= np.uint64(10_000_000)
        q += _eight_digits(low, spare)
        out = self.values[row : row + cells // len(_SEPARATORS)].reshape(-1)
        np.divide(q, 1e6, out=out)
        np.negative(out, out=out, where=negative)
        return True


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
