"""Telemetry series and their CSV serialization."""
from __future__ import annotations

import io
import operator
from pathlib import Path

import numpy as np

from rovermotion.config import (
    OUTPUT_LIMIT, WHEELS, csv_rows, open_output, output_error, parse_finite, read_text)
from rovermotion.errors import DataError

BUS_VOLTAGE = 24.0
FLOAT_FORMAT = "%.6f"


def _per_wheel(prefix: str) -> list[str]:
    return [f"{prefix}_{wheel}" for wheel in WHEELS]


# The named groups of columns that follow the time column "t", in row order
_GROUPS = {
    "pose": ["x", "y", "heading"],
    "marker": ["marker_x", "marker_y"],
    "odo_twist": ["odo_vx", "odo_vy", "odo_wz"],
    "commanded_twist": ["cmd_vx", "cmd_vy", "cmd_wz"],
    "drive_voltage": _per_wheel("v_drive"),
    "drive_current": _per_wheel("i_drive"),
    "steer_voltage": _per_wheel("v_steer"),
    "steer_current": _per_wheel("i_steer"),
    "drive_speeds": _per_wheel("speed"),
    "steering_angles": _per_wheel("steer"),
}
TELEMETRY_HEADER = ["t", *(name for names in _GROUPS.values() for name in names)]
# Named groups of TELEMETRY_HEADER columns: group -> its slice of a row
FIELD_COLUMNS = {
    group: slice(TELEMETRY_HEADER.index(names[0]), TELEMETRY_HEADER.index(names[-1]) + 1)
    for group, names in _GROUPS.items()
}

_COLUMN = {name: j for j, name in enumerate(TELEMETRY_HEADER)}
# One row of a series, with a float64 field per TELEMETRY_HEADER name
_RECORD = np.dtype((np.record, [(name, np.float64) for name in TELEMETRY_HEADER]))


class Telemetry:
    """A telemetry series as one float64 column per TELEMETRY_HEADER field.

    `values` has shape (samples, len(TELEMETRY_HEADER)). Whole-series code
    reads columns with `column(name)`; `telemetry[i]` is sample i as a
    record, so `telemetry[i].odo_wz == telemetry.column("odo_wz")[i]`.
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

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: int) -> np.record:
        """Sample `index` as a record whose fields are the TELEMETRY_HEADER
        names; a copy, so writing a field leaves `values` as it was."""
        return self.values[operator.index(index)].copy().view(_RECORD)[0]

    def column(self, name: str) -> np.ndarray:
        """The column named `name` in TELEMETRY_HEADER (a view, not a copy)."""
        return self.values[:, _COLUMN[name]]

    @property
    def total_power(self) -> np.ndarray:
        """Per-sample electrical power: drive plus steering power, each the
        sum() of its four units' V * I columns, so added left to right from 0.
        A product that overflows is inf, for the writer to refuse, unwarned."""
        with np.errstate(over="ignore", invalid="ignore"):
            return sum((
                self.values[:, FIELD_COLUMNS["drive_voltage"]]
                * self.values[:, FIELD_COLUMNS["drive_current"]]
            ).T) + sum((
                self.values[:, FIELD_COLUMNS["steer_voltage"]]
                * self.values[:, FIELD_COLUMNS["steer_current"]]
            ).T)

    def cumulative_energy(self) -> np.ndarray:
        """Trapezoidal energy (J) from the first sample to each sample.

        The intervals are accumulated one after another, so the last entry
        equals a sequential sum over the series. A sum that overflows is
        inf, as in total_power.
        """
        t, p = self.column("t"), self.total_power
        with np.errstate(over="ignore", invalid="ignore"):
            return np.concatenate(
                ([0.0], np.cumsum(np.diff(t) * (p[1:] + p[:-1]) / 2.0))
            )


# Rows per vectorised formatting pass. It bounds the (rows, columns, width)
# byte buffer and its bytes copy; 4096 rows raised a simulate's peak RSS by ~10 MB.
_CHUNK_ROWS = 1024


def _words(table: np.ndarray) -> np.ndarray:
    """The rows of a (n, 4) table of byte values as four-byte words, in memory order."""
    return table.astype(np.uint8).view(np.uint32).ravel()


# Each cell is laid out in four-byte words: a sign slot and three integer
# digits per group of three, ".ddd" and "ddd," for the six decimals. Every
# byte "%.6f" does not write is NUL. Entry k < 1000 of a group table is the
# leading group k, with its leading zeros NUL; entry 1000 + k is a later
# group. A leading 0 is all NUL but in the last group, where it writes "0".
_K = np.arange(1000)[:, None]
_LATER = np.hstack([0 * _K, ord("0") + _K // [100, 10, 1] % 10])  # "\0ddd"
_GROUP_WORDS = _words(np.vstack([_LATER * (_K >= [0, 100, 10, 1]), _LATER]))
_LAST_GROUP_WORDS = _words(np.vstack([_LATER * (_K >= [0, 100, 10, 0]), _LATER]))
_POINT_WORDS = _words(_LATER + [ord("."), 0, 0, 0])
_TAIL_WORDS = _words(np.roll(_LATER, -1, axis=1) + [0, 0, 0, ord(",")])

# |x| * 1e6 below this is an exact float64 integer plus fraction
_FAST_LIMIT = 2.0**52


def fixed_csv_groups(header: list[str], values: np.ndarray,
                     blank: np.ndarray | None = None) -> int:
    """The digit groups of three that write_fixed_csv needs for the integer
    part of the largest cell of `values` where `blank` is not true, after
    DataError names the column of the first such cell outside OUTPUT_RANGE;
    _CHUNK_ROWS rows at a time, so as not to hold a mask of all cells."""
    blank = np.broadcast_to(False, values.shape) if blank is None else blank
    largest = 0.0
    for start in range(0, len(values), _CHUNK_ROWS):
        cells = np.abs(values[start : start + _CHUNK_ROWS])
        cells[blank[start : start + _CHUNK_ROWS]] = 0.0
        bad = ~(cells <= OUTPUT_LIMIT)  # nan included
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise output_error(header[col], values[start + row, col].item())
        largest = max(largest, cells.max(initial=0.0))
    # Rounding may carry into one more integer digit; a group that a cell
    # does not need writes only NUL words.
    return -(-len(str(int(largest) + 1)) // 3)


def write_fixed_csv(
    path: str | Path,
    header: list[str],
    values: np.ndarray,
    blank: np.ndarray | None = None,
    groups: int | None = None,
) -> None:
    """Write `header` and the rows of `values` as CSV, each cell as "%.6f" % x.

    The bytes are those of np.savetxt(fmt="%.6f", delimiter=",") under
    the header line. Cells where the boolean array `blank` is true are
    written as empty cells. `groups` is fixed_csv_groups' result for these
    arguments, which checks them before the file or its directory is made;
    it is called here if `groups` is None. _write_chunk formats _CHUNK_ROWS
    rows at a time into working arrays allocated once per file.
    """
    values = np.asarray(values, dtype=np.float64)
    blank = np.broadcast_to(False, values.shape) if blank is None else blank
    groups = fixed_csv_groups(header, values, blank) if groups is None else groups
    # Allocated afresh for each chunk, the working arrays got new pages from
    # malloc, whose page faults made the first pass in a process about half
    # again as slow.
    shape = values[:_CHUNK_ROWS].shape
    work = (np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, bool),
            np.empty(shape, bool), np.empty((*shape, groups + 2), np.uint32),
            np.empty(shape, np.uint32))
    with open_output(path) as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(values), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            _write_chunk(handle, values[rows], blank[rows], work)


def _write_chunk(handle, values: np.ndarray, blank: np.ndarray, work) -> None:
    """Write the CSV text of the rows `values`, byte for byte as "%.6f" % x
    writes each cell; every cell that is not blank is finite.

    Each cell is rounded to q = round(|x| * 1e6) and written in a fixed
    layout of four-byte words, whose unwritten bytes are NUL and are
    dropped by one bytes.translate. A row with a cell this rounding may
    get wrong is formatted by Python instead. The first len(values) rows of
    each of write_fixed_csv's `work` arrays hold: |x| * 1e6, its whole part
    and its fraction; two masks; each cell's words; one word per cell.
    """
    rows, cols = values.shape
    scaled, whole, frac, fast, flags, words, word = (array[:rows] for array in work)
    groups = words.shape[2] - 2
    with np.errstate(over="ignore", invalid="ignore"):
        np.abs(values, out=scaled)
        scaled *= 1e6
    np.less(scaled, _FAST_LIMIT, out=fast)  # false for nan and inf
    scaled[np.logical_not(fast, out=flags)] = 0.0
    np.floor(scaled, out=whole)
    np.subtract(scaled, whole, out=frac)
    # The product is within half a unit in the last place of the exact
    # |x| * 1e6, so rounding half up is exact unless frac lies within a
    # spacing of .5: exact ties (odd multiples of 1/128, which "%.6f"
    # rounds to even) and near-ties go to Python.
    whole += np.greater(frac, 0.5, out=flags)
    frac -= 0.5
    np.abs(frac, out=frac)
    fast &= np.greater(frac, np.spacing(scaled, out=scaled), out=flags)
    fast |= blank
    # once the rounding is known, the float64 arrays' memory holds q, its
    # decimals and its integer part
    q, decimals, int_part = scaled.view(np.int64), whole.view(np.int64), frac.view(np.int64)
    np.copyto(q, whole, casting="unsafe")
    np.floor_divide(q, 1_000_000, out=int_part)
    np.subtract(q, np.multiply(int_part, 1_000_000, out=decimals), out=decimals)

    # each word is looked up into a contiguous array first: take() copies
    # a strided `out` to a temporary
    np.floor_divide(decimals, 1000, out=q)
    words[..., groups] = np.take(_POINT_WORDS, q, out=word, mode="clip")
    q *= 1000
    decimals -= q
    words[..., groups + 1] = np.take(_TAIL_WORDS, decimals, out=word, mode="clip")
    for g in range(groups):
        # groups 0 to g as one number, looked up as itself while below
        # 1000 (the leading group), else as 1000 + its last three digits
        last = g == groups - 1
        index = prefix = (int_part if last else
                          np.floor_divide(int_part, 1000 ** (groups - 1 - g), out=q))
        if g:
            index = np.remainder(prefix, 1000, out=decimals)
            index += 1000
            np.minimum(prefix, index, out=index)
        table = _LAST_GROUP_WORDS if last else _GROUP_WORDS
        words[..., g] = np.take(table, index, out=word, mode="clip")
    text = words.view(np.uint8).reshape(rows, cols, -1)
    text[:, -1, -1] = ord("\n")
    # through a contiguous array: numpy 2.4's signbit writes wrong values
    # into a strided `out`
    np.copyto(text[..., 0], ord("-"), where=np.signbit(values, out=flags))
    text[blank, :-1] = 0
    out = text.tobytes().translate(None, b"\0")

    slow = np.flatnonzero(~fast.all(axis=1))
    if slow.size == 0:
        handle.write(out)
        return
    ends = np.cumsum(np.count_nonzero(text.reshape(rows, -1), axis=1)).tolist()
    done = 0
    for i in slow.tolist():
        handle.write(out[done : ends[i - 1] if i else 0])
        cells = zip(values[i].tolist(), blank[i].tolist())
        row = ",".join("" if b else FLOAT_FORMAT % x for x, b in cells) + "\n"
        handle.write(row.encode())
        done = ends[i]
    handle.write(out[done:])


def write_telemetry_csv(path: str | Path, telemetry: Telemetry,
                        groups: int | None = None) -> None:
    write_fixed_csv(path, TELEMETRY_HEADER, telemetry.values, groups=groups)


_HEADER_BYTES = (",".join(TELEMETRY_HEADER) + "\n").encode()
# The bytes np.loadtxt strips from around a number as spaces, where float()
# refuses the cell
_LOADTXT_SPACES = [b"\x1c", b"\x1d", b"\x1e", b"\x1f"]


def read_telemetry_csv(path: str | Path) -> Telemetry:
    """Read a telemetry CSV written by write_telemetry_csv.

    A file that starts with exactly the header line and a row, and holds
    none of _LOADTXT_SPACES, is read by np.loadtxt, whose rows are kept if
    they have the header's columns, every cell is finite and `t` increases.
    Any other file, or one those checks refuse, is read again by _read_rows,
    which gives the same values for every file both accept. DataError names
    the line of a malformed row, or of the first row whose `t` does not
    follow the last.
    """
    with open(path, "rb") as handle:
        fast = (handle.read(len(_HEADER_BYTES)) == _HEADER_BYTES
                # with no row, np.loadtxt warns that the file is empty
                and handle.peek(1)[:1] not in (b"", b"\n", b"\r")
                and not any(space in chunk
                            for chunk in iter(lambda: handle.read(1 << 18), b"")
                            for space in _LOADTXT_SPACES))
    if fast:
        try:
            values = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                                skiprows=1, encoding="utf-8")
        except ValueError:  # UnicodeDecodeError included
            pass
        else:
            if (values.shape[1] == len(TELEMETRY_HEADER) and np.isfinite(values).all()
                    and (values[1:, 0] > values[:-1, 0]).all()):
                return Telemetry(values)
    values, lines = _read_rows(path)
    late = np.flatnonzero(values[1:, 0] <= values[:-1, 0])
    if late.size:
        raise DataError(f"{lines[late[0] + 1]}: non-increasing timestamp")
    return Telemetry(values)


def _read_rows(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """The rows of a telemetry CSV as config.csv_rows reads a CSV, and each
    row's `path:line`; every cell is parsed by config.parse_finite, so the
    first cell it refuses, in column order, is named."""
    rows, lines = [], []
    for where, row in csv_rows(io.StringIO(read_text(path)), TELEMETRY_HEADER, path):
        rows.append([parse_finite(c, n, where) for n, c in zip(TELEMETRY_HEADER, row)])
        lines.append(where)
    return np.array(rows).reshape(-1, len(TELEMETRY_HEADER)), lines
