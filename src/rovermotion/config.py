"""Rover configuration, shared locomotion value types and the package's file I/O."""
from __future__ import annotations

import csv
import enum
import io
import math
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
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


# Every number a command writes lies in this interval, as `within` writes one;
# README shows that the declared input ranges keep the outputs far inside it.
OUTPUT_RANGE = "[-1e12, 1e12]"
OUTPUT_LIMIT = float(OUTPUT_RANGE[1:-1].split(",")[1])


def within(interval: str, default=MISSING):
    """A dataclass field that check_fields holds to `interval`, "[low, high]"
    with "(" or ")" for an end it excludes; a tuple's every number."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    low = math.nextafter(low, math.inf) if interval[0] == "(" else low
    high = math.nextafter(high, -math.inf) if interval[-1] == ")" else high
    return field(default=default, metadata={"range": (interval, low, high)})


def check_fields(obj) -> None:
    """Raise DataError naming the first field of the dataclass `obj` outside
    the interval it declares by `within` (NaN is outside every interval), or
    declared an int and holding another type: the one range check."""
    for item in fields(obj):
        if "range" in item.metadata:
            interval, low, high = item.metadata["range"]
            value = getattr(obj, item.name)
            if item.type == "int" and not isinstance(value, int):
                raise DataError(f"{item.name} = {value!r} is not an integer")
            numbers = value if isinstance(value, tuple) else (value,)
            if not all(low <= x <= high for x in numbers):
                raise DataError(f"{item.name} = {value!r} outside {interval}")


def output_error(name: str, value: object) -> DataError:
    """The refusal of `value`, the output named `name`, outside OUTPUT_RANGE."""
    return DataError(f"output {name} = {value!r} outside {OUTPUT_RANGE}")


@dataclass(frozen=True)
class BodyTwist:
    """Planar body velocity: x forward, y left, z up (yaw). A profile segment
    holds its twist to these ranges (m/s, rad/s); an odometry estimate is not held."""

    vx: float = within("[-10, 10]", 0.0)
    vy: float = within("[-10, 10]", 0.0)
    wz: float = within("[-10, 10]", 0.0)


@dataclass(frozen=True)
class WheelCommand:
    wheel_id: WheelId
    drive_speed: float  # rad/s at the wheel hub
    steering_angle: float  # rad, CCW positive about the wheel vertical axis


@dataclass(frozen=True)
class RoverConfig:
    """Breadboard mass, wheel layout and steering actuators (SI units). Each
    type's ranges and their bases are tabulated in README."""

    mass: float = within("(0, 10000]", 84.0)
    gravity: float = within("(0, 30]", 9.81)
    wheel_longitudinal_separation: float = within("(0, 100]", 0.980)
    wheel_lateral_separation: float = within("(0, 100]", 0.830)
    wheel_radius: float = within("(0, 10]", 0.15)
    steering_rate: float = within("(0, 100]", math.radians(10.0))
    steering_limit: float = within("(0, 3.141592653589793]", math.radians(95.0))

    __post_init__ = check_fields


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
    """`value`, the output named `name`, as text: a str as it is, a float
    with six decimals, an int by str; DataError refuses a number outside OUTPUT_RANGE."""
    if isinstance(value, str):
        return value
    if not -OUTPUT_LIMIT <= value <= OUTPUT_LIMIT:
        raise output_error(name, float(value) if isinstance(value, float) else value)
    return f"{value:.6f}" if isinstance(value, float) else str(value)


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
