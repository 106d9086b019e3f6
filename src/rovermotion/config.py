"""Rover configuration, shared locomotion value types and the package's file I/O."""
from __future__ import annotations

import csv
import enum
import io
import math
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from rovermotion.errors import DataError, naming


class LocomotionMode(enum.Enum):
    ACKERMANN = "ackermann"
    SKID_STEER = "skid_steer"
    CRAB = "crab"
    POINT_TURN = "point_turn"

    @classmethod
    def parse(cls, text: str) -> "LocomotionMode":
        key = text.strip().lower().replace("-", "_").replace(" ", "_")
        for mode in cls:
            if mode.value == key:
                return mode
        raise DataError(f"unknown locomotion mode {text!r}")


class WheelId(enum.Enum):
    FL = "FL"
    FR = "FR"
    RL = "RL"
    RR = "RR"

    @property
    def tag(self) -> str:
        """The wheel's name in telemetry columns and power breakdown keys."""
        return self.value.lower()


WHEEL_ORDER = (WheelId.FL, WheelId.FR, WheelId.RL, WheelId.RR)


@dataclass(frozen=True)
class BodyTwist:
    """Planar body velocity: x forward, y left, z up (yaw)."""

    vx: float = 0.0
    vy: float = 0.0
    wz: float = 0.0

    def __post_init__(self):
        for name in ("vx", "vy", "wz"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"non-finite twist component {name}")


@dataclass(frozen=True)
class WheelCommand:
    wheel_id: WheelId
    drive_speed: float  # rad/s at the wheel hub
    steering_angle: float  # rad, CCW positive about the wheel vertical axis


@dataclass(frozen=True)
class RoverConfig:
    """Breadboard mass, wheel layout and steering actuators (SI units)."""

    mass: float = 84.0
    gravity: float = 9.81
    wheel_longitudinal_separation: float = 0.980
    wheel_lateral_separation: float = 0.830
    wheel_radius: float = 0.15
    steering_rate: float = math.radians(10.0)
    steering_limit: float = math.radians(95.0)

    def __post_init__(self):
        """Raise DataError naming the first violated invariant; NaN violates all."""
        for name in ("mass", "gravity", "wheel_longitudinal_separation",
                     "wheel_lateral_separation", "wheel_radius"):
            if not getattr(self, name) > 0:
                raise DataError(f"non-positive {name}")
        if not self.steering_rate > 0:
            raise DataError("non-positive steering rate")
        if not 0.0 < self.steering_limit <= math.pi:
            raise DataError("empty steering range")
        check_finite(self)


def check_finite(params) -> None:
    """Raise DataError naming the first float field of the dataclass
    `params` that is not finite. The types call it after their range checks,
    so a NaN that a range check rejects raises that check's message."""
    for field in fields(params):
        if field.type == "float" and not math.isfinite(getattr(params, field.name)):
            raise DataError(f"non-finite {field.name}")


def wheel_positions(config: RoverConfig) -> dict[WheelId, tuple[float, float]]:
    """Planar wheel contact positions in the body frame, origin at center."""
    half_l = config.wheel_longitudinal_separation / 2.0
    half_w = config.wheel_lateral_separation / 2.0
    return {
        WheelId.FL: (half_l, half_w),
        WheelId.FR: (half_l, -half_w),
        WheelId.RL: (-half_l, half_w),
        WheelId.RR: (-half_l, -half_w),
    }


def read_text(path: str | Path) -> str:
    """The contents of file `path` decoded as UTF-8; DataError, naming the
    file, if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


@contextmanager
def open_output(path: str | Path) -> Iterator[io.BufferedWriter]:
    """A binary handle on `NAME.tmp` beside the file `path`, moved onto `path`
    by os.replace when the block succeeds and removed when it does not, so
    `path` holds a previous run's bytes or this run's, never part of them.
    The directory of `path` is made first, with its parents, if it is missing.
    The package's one way to write a file: an OSError, on making the
    directory, opening, writing or replacing, is DataError naming the
    directory or `path`."""
    directory = Path(path).parent
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at `directory` or above it, or no permission
        raise DataError(
            f"cannot make output directory {directory}: {exc.strerror}") from exc
    tmp = f"{path}.tmp"
    try:
        handle = open(tmp, "wb")
        try:
            with handle:
                yield handle
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_output(path: str | Path, text: str) -> None:
    """Write `text` to `path` as UTF-8, a surrogate escape as the byte it stands for."""
    with open_output(path) as handle:
        handle.write(text.encode("utf-8", "surrogateescape"))


def _cell(value: object, name: str) -> str:
    """`value`, the output named `name`, as text: a float with six decimals,
    any other value by str. DataError refuses a float that is not finite."""
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):  # named as a Python float, not as np.float64(inf)
        raise DataError(f"non-finite output {name} = {float(value)!r}")
    return f"{value:.6f}"


def csv_text(header: list[str], rows: Iterable[list]) -> str:
    """`header` and `rows` as CSV lines ending in "\n", each cell as _cell
    writes it under its column's name."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value, name) for name, value in zip(header, row, strict=True)]
                     for row in rows)
    return text.getvalue()


def csv_rows(
    lines: Iterable[str], header: list[str], path: str | Path, first_lineno: int = 1
) -> Iterator[tuple[str, list[str]]]:
    """The rows after `header` of the CSV `lines`, which start at line
    `first_lineno` of `path`, each with its `path:line`; blank rows are
    skipped. DataError names the file for another header, and the line for
    a row whose length differs from the header's."""
    reader = csv.reader(lines)
    if next(reader, None) != header:
        raise DataError(f"{path}: expected header {','.join(header)}")
    for row in reader:
        if row:
            where = f"{path}:{first_lineno - 1 + reader.line_num}"
            if len(row) != len(header):
                raise DataError(
                    f"{where}: expected {len(header)} columns, got {len(row)}"
                )
            yield where, row


def key_value_text(pairs: Iterable[tuple[str, object]]) -> str:
    """`key = value` lines that parse_key_value_file reads back, each value
    as _cell writes it under its key."""
    return "".join(f"{key} = {_cell(value, key)}\n" for key, value in pairs)


def parse_key_value_file(path: str | Path) -> dict[str, str]:
    """Parse a plain `key = value` file, one pair per line, '#' comments."""
    return parse_key_value_lines(read_text(path).splitlines(), path)


def parse_key_value_lines(lines: list[str], path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; errors name `path` and the 1-based line."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise DataError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def parse_finite(text: str, name: str, where: str | Path) -> float:
    """The value `text` of `name` at `where`, a file or its `path:line`, as a
    finite float; DataError names all three. The package's one parser of a
    number read from an input file, but for the cells of a telemetry file."""
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{where}: non-numeric {name} {text!r}") from None
    if not math.isfinite(value):
        raise DataError(f"{where}: non-finite {name} {text!r}")
    return value


def parse_integer(text: str, name: str, where: str | Path) -> int:
    """The value `text` of `name` at `where` as an int: parse_finite's
    number, refused unless it is an integer."""
    value = parse_finite(text, name, where)
    if not value.is_integer():
        raise DataError(f"{where}: {name} = {value!r} is not an integer")
    return int(value)


def from_pairs(cls, pairs: dict[str, str], path: str | Path, prefix: str = ""):
    """An instance of the dataclass `cls`, whose fields are floats and ints,
    built from the `key = value` `pairs` of file `path`, each key `prefix`
    and a field name. DataError, naming `path`, refuses unknown keys, missing
    keys (fields without a default), a value that parse_finite or, for an
    int field, parse_integer refuses, and the value that breaks an
    invariant of `cls`."""
    known = {f"{prefix}{field.name}": field for field in fields(cls)}
    unknown = sorted(set(pairs) - set(known))
    if unknown:
        raise DataError(f"{path}: unknown keys: {', '.join(unknown)}")
    missing = [key for key, field in known.items() if key not in pairs
               and field.default is MISSING and field.default_factory is MISSING]
    if missing:
        raise DataError(f"{path}: missing keys: {', '.join(missing)}")
    parse = {"float": parse_finite, "int": parse_integer}
    values = {known[key].name: parse[known[key].type](text, key, path)
              for key, text in pairs.items()}
    with naming(path):
        return cls(**values)


def load_config(path: str | Path) -> RoverConfig:
    """Load a RoverConfig from a `key = value` file."""
    return from_pairs(RoverConfig, parse_key_value_file(path), path)
