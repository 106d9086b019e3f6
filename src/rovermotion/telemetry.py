"""Telemetry series and their CSV serialization."""
from __future__ import annotations

import io
import math
import operator
import os
from pathlib import Path

import numpy as np

from rovermotion.config import (
    OUTPUT_LIMIT, WHEEL_ORDER, csv_rows, open_output, output_error, parse_finite, read_text)
from rovermotion.errors import DataError

BUS_VOLTAGE = 24.0
FLOAT_FORMAT = "%.6f"


def _per_wheel(prefix: str) -> list[str]:
    return [f"{prefix}_{wheel.tag}" for wheel in WHEEL_ORDER]


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


class _Scratch:
    """Named buffers kept from chunk to chunk, grown when a chunk needs more.

    Allocated afresh, each chunk-sized temporary got new pages from malloc,
    whose page faults made the first pass in a process about half again as
    slow. A buffer holds bytes, so an array whose values are no longer
    needed can lend its memory to one of another dtype.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def _scratch(self, name: str, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = int(np.prod(shape)) * dtype.itemsize
        buffer = self._buffers.get(name)
        if buffer is None or len(buffer) < size:
            # room for the next chunk, which may be a little larger
            buffer = self._buffers[name] = np.empty(size * 9 // 8, np.uint8)
        return buffer[:size].view(dtype).reshape(shape)


# Rows per vectorised formatting pass. It bounds the (rows, columns, width)
# byte buffer and its bytes copy; 4096 rows raised a simulate's peak RSS by ~10 MB.
_CHUNK_ROWS = 1024


def _words(cells: list[str]) -> np.ndarray:
    """The four-character `cells` as four-byte words, in memory order."""
    return np.frombuffer("".join(cells).encode(), np.uint32)


# Each cell is laid out in four-byte words: a sign slot and three integer
# digits per group of three, ".ddd" and "ddd," for the six decimals. Every
# byte "%.6f" does not write is NUL. Entry k < 1000 of a group table is the
# leading group k, with its leading zeros NUL; entry 1000 + k is a later
# group. A leading 0 is all NUL but in the last group, where it writes "0".
_LEAD = [str(k).rjust(4, "\0") for k in range(1000)]
_LATER = [f"\0{k:03}" for k in range(1000)]
_GROUP_WORDS = _words(["\0" * 4] + _LEAD[1:] + _LATER)
_LAST_GROUP_WORDS = _words(_LEAD + _LATER)
_POINT_WORDS = _words([f".{k:03}" for k in range(1000)])
_TAIL_WORDS = _words([f"{k:03}," for k in range(1000)])

# |x| * 1e6 below this is an exact float64 integer plus fraction
_FAST_LIMIT = 2.0**52


def write_fixed_csv(
    path: str | Path,
    header: list[str],
    values: np.ndarray,
    blank: np.ndarray | None = None,
) -> None:
    """Write `header` and the rows of `values` as CSV, each cell as "%.6f" % x.

    The bytes are those of np.savetxt(fmt="%.6f", delimiter=",") under
    the header line. Cells where the boolean array `blank` is true are
    written as empty cells. DataError names the column of the first other
    cell outside OUTPUT_RANGE, before the file or its directory is made.
    """
    values = np.asarray(values, dtype=np.float64)
    chunks = [slice(start, start + _CHUNK_ROWS)
              for start in range(0, len(values), _CHUNK_ROWS)]
    for chunk in chunks:  # a chunk at a time, so as not to hold a mask of all cells
        bad = ~(np.abs(values[chunk]) <= OUTPUT_LIMIT)  # nan included
        if blank is not None:
            bad &= ~blank[chunk]
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise output_error(header[col], values[chunk][row, col].item())
    formatter = _ChunkFormatter()
    with open_output(path) as handle:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        for chunk in chunks:
            formatter.write(handle, values[chunk], None if blank is None else blank[chunk])


class _ChunkFormatter(_Scratch):
    """Formats chunks of rows for write_fixed_csv in arrays it keeps."""

    def write(self, handle, values: np.ndarray, blank: np.ndarray | None) -> None:
        """Write the CSV text of `values`, byte for byte as "%.6f" % x
        writes each cell; every cell that is not blank is finite.

        Each cell is rounded to q = round(|x| * 1e6) and written in a fixed
        layout of four-byte words, whose unwritten bytes are NUL and are
        dropped by one bytes.translate. A row with a cell this rounding may
        get wrong is formatted by Python instead.
        """
        rows, cols = shape = values.shape
        # three float64 buffers; once the rounding is known, their memory
        # holds q, its integer part and its decimals
        scaled = self._scratch("scaled", shape, np.float64)
        whole = self._scratch("whole", shape, np.float64)
        frac = self._scratch("frac", shape, np.float64)
        fast = self._scratch("fast", shape, bool)
        flags = self._scratch("flags", shape, bool)
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
        if blank is not None:
            fast |= blank
        q = self._scratch("scaled", shape, np.int64)
        np.copyto(q, whole, casting="unsafe")
        int_part = self._scratch("frac", shape, np.int64)
        decimals = self._scratch("whole", shape, np.int64)
        np.floor_divide(q, 1_000_000, out=int_part)
        np.subtract(q, np.multiply(int_part, 1_000_000, out=decimals), out=decimals)

        groups = -(-len(str(int_part.max(initial=0))) // 3)
        words = self._scratch("words", (rows, cols, groups + 2), np.uint32)
        # each word is looked up into a contiguous array first: take() copies
        # a strided `out` to a temporary
        word = self._scratch("word", shape, np.uint32)
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
        if blank is not None:
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
            empty = [False] * cols if blank is None else blank[i]
            cells = zip(values[i].tolist(), empty)
            row = ",".join("" if b else FLOAT_FORMAT % x for x, b in cells) + "\n"
            handle.write(row.encode())
            done = ends[i]
        handle.write(out[done:])


def write_telemetry_csv(path: str | Path, telemetry: Telemetry) -> None:
    write_fixed_csv(path, TELEMETRY_HEADER, telemetry.values)


def read_telemetry_csv(path: str | Path) -> Telemetry:
    """Read a telemetry CSV written by write_telemetry_csv.

    A file in exactly the layout write_fixed_csv emits is parsed as
    fixed-point numbers (see _parse_fixed). Any other file, or one that
    layout cannot hold (such as a value of ten or more integer digits), is
    read by _read_rows, which gives the same values. DataError names the
    line of a malformed row or of one whose `t` does not follow the last.
    """
    values, lines = _parse_fixed(path), None
    if values is None:
        values, lines = _read_rows(path)
    late = np.flatnonzero(values[1:, 0] <= values[:-1, 0])
    if late.size:
        where = lines[late[0] + 1] if lines else f"{path}:{late[0] + 3}"
        raise DataError(f"{where}: non-increasing timestamp")
    return Telemetry(values)


_HEADER_BYTES = (",".join(TELEMETRY_HEADER) + "\n").encode()

# Bytes per chunk of _parse_fixed, which completes each chunk to a line end.
# On a 20,001-row file, 256 KiB chunks read faster than 64 KiB ones (more
# numpy calls per byte) and than 1 MiB ones (temporaries beyond the CPU
# caches).
_READ_CHUNK_BYTES = 1 << 18

# The shortest and the longest line in the layout of _parse_fixed: 36 cells
# of "0.000000" or "-123456789.123456" and their separators
_MIN_LINE_BYTES = len(TELEMETRY_HEADER) * len("0.000000,")
_MAX_LINE_BYTES = len(TELEMETRY_HEADER) * len("-123456789.123456,")

# Bytes in front of a chunk in a parser's buffer, where the eight-byte word
# before the chunk's first cell starts (see _ChunkParser.parse)
_PAD = 8

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


def _parse_fixed(path: str | Path) -> np.ndarray | None:
    """The rows of a telemetry CSV in write_fixed_csv's layout, else None.

    The layout is the header line, then lines of 36 cells "-?D+.DDDDDD"
    (at most nine integer digits) separated by "," and ended by "\n".
    Each cell is read as the integer q = |x| * 1e6 and returned as q / 1e6,
    negated after a "-". q and 1e6 are exact doubles, so the division gives
    the correctly rounded value, which is float(cell) bit for bit.

    The file is read in chunks of _READ_CHUNK_BYTES completed to a line end,
    each parsed in turn straight into one array sized for the most lines the
    file can hold, of which the filled rows are returned; pages never written
    are never resident.
    """
    with open(path, "rb") as handle:
        if handle.read(len(_HEADER_BYTES)) != _HEADER_BYTES:
            return None
        size = os.fstat(handle.fileno()).st_size - len(_HEADER_BYTES)
        values = np.empty((size // _MIN_LINE_BYTES, len(TELEMETRY_HEADER)))
        parser = _ChunkParser(values)
        rows = 0  # rows of the chunks read so far
        while (chunk := parser.read(handle)) is not None:
            parsed = parser.parse(*chunk, rows)
            if parsed is None:
                return None
            rows += parsed
    return values[:rows]


class _ChunkParser(_Scratch):
    """Reads chunks of a file in the layout of _parse_fixed into its buffer
    and parses them into `values`."""

    def __init__(self, values: np.ndarray):
        super().__init__()
        self.values = values
        # buf as little-endian words, and one word more
        words = (_PAD + _READ_CHUNK_BYTES + _MAX_LINE_BYTES) // 8 + 2
        self.aligned = np.empty(words, "<u8")
        self.buf = self.aligned.view(np.uint8)

    def read(self, handle) -> tuple[int, int] | None:
        """Read the next chunk into buf; its (start, stop) there, or None at
        the end of the file.

        The chunk is _READ_CHUNK_BYTES bytes, completed to the end of the
        line it stops in. A line that does not end within _MAX_LINE_BYTES
        leaves the chunk without a final "\n", which parse rejects.
        """
        stop = _PAD + handle.readinto(self.buf[_PAD : _PAD + _READ_CHUNK_BYTES])
        if stop == _PAD:
            return None
        if self.buf[stop - 1] != ord("\n"):
            tail = handle.readline(_MAX_LINE_BYTES)
            self.buf[stop : stop + len(tail)] = np.frombuffer(tail, np.uint8)
            stop += len(tail)
        return _PAD, stop

    def _words_at(self, offsets: np.ndarray, low: np.ndarray) -> np.ndarray:
        """Write the eight bytes of buf from each offset p in `offsets` (at
        least 8; overwritten) into `low`, and return the eight before each, as
        little-endian integers (A[i] >> s) | (A[i + 1] << (64 - s)) of the
        aligned words A, i = p // 8, s = 8 (p % 8); a shift by 64 gives 0.
        Unlike indexing buf at each offset, this allocates nothing."""
        # the buffers "flags" and "spare" are free by now
        shift, word, high = (self._scratch(name, len(offsets), np.uint64)
                             for name in ("flags", "spare", "high"))
        np.bitwise_and(offsets.view(np.uint64), np.uint64(7), out=shift)
        shift <<= np.uint64(3)
        offsets >>= 3
        np.take(self.aligned, offsets, out=word, mode="clip")
        np.right_shift(word, shift, out=low)
        np.subtract(np.uint64(64), shift, out=shift)
        np.left_shift(word, shift, out=high)
        offsets += 1
        np.take(self.aligned, offsets, out=word, mode="clip")
        word <<= shift
        low |= word
        np.subtract(np.uint64(64), shift, out=shift)
        offsets -= 2
        np.take(self.aligned, offsets, out=word, mode="clip")
        word >>= shift
        high |= word
        return high

    def parse(self, start: int, stop: int, row: int) -> int | None:
        """Parse the lines in buf[start:stop] into values[row:]; the number of
        lines, or None if any byte breaks the layout or the lines do not fit."""
        text = self.buf[start:stop]
        # "," and "\n" (and any other byte below "-")
        flags = np.less(text, ord("-"), out=self._scratch("flags", len(text), bool))
        ends = np.flatnonzero(flags)
        cells = len(ends)
        if (
            text[-1] != ord("\n")
            or cells % len(_SEPARATORS)
            or row + cells // len(_SEPARATORS) > len(self.values)
            or not (text[ends].reshape(-1, len(_SEPARATORS)) == _SEPARATORS).all()
        ):
            return None
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
            return None
        # With one "." in each cell and "-" only as a first byte, every other
        # byte must be a digit
        if (
            np.count_nonzero(np.equal(text, ord("."), out=flags)) != cells
            or np.count_nonzero(np.equal(text, ord("-"), out=flags))
            != np.count_nonzero(negative)
            or np.equal(text, ord("/"), out=flags).any()
            or np.greater(text, ord("9"), out=flags).any()
        ):
            return None

        lines = cells // len(_SEPARATORS)
        out = self.values[row : row + lines].reshape(-1)
        # each cell's last eight bytes "I.DDDDDD" (in its value's memory), and
        # the eight before them
        ends += start - 1
        low = out.view(np.uint64)
        high = self._words_at(ends, low)
        spare = self._scratch("spare", cells, np.uint64)
        # "I.DDDDDD" becomes "0IDDDDDD": I * 1e6 plus the decimals
        np.bitwise_and(low, np.uint64(0xFF), out=spare)
        spare <<= np.uint64(8)
        low &= np.uint64(0xFFFFFFFFFFFF0000)
        low |= spare
        low |= np.uint64(ord("0"))
        # the integer digits before I end the eight bytes before "I."; the
        # bytes in front of them (sign, earlier cells, the _PAD bytes before
        # the chunk) become "0"
        keep = _HIGH_BYTES.take(digits, out=spare, mode="clip")
        high &= keep
        np.invert(keep, out=keep)
        keep &= _ZEROS
        high |= keep
        q = _eight_digits(high, spare)
        q *= np.uint64(10_000_000)
        q += _eight_digits(low, spare)
        np.divide(q, 1e6, out=out)
        np.negative(out, out=out, where=negative)
        return lines


def _read_rows(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """The rows of a telemetry CSV as config.csv_rows reads a CSV, each cell
    a number config.parse_finite accepts, and each row's `path:line`."""
    rows, lines = [], []
    for where, row in csv_rows(io.StringIO(read_text(path)), TELEMETRY_HEADER, path):
        try:
            values = list(map(float, row))
            finite = math.isfinite(sum(values))
        except ValueError:
            finite = False
        if not finite:  # a cell to refuse by name, or a sum that overflowed
            values = [parse_finite(c, n, where) for n, c in zip(TELEMETRY_HEADER, row)]
        rows.append(values)
        lines.append(where)
    return np.array(rows).reshape(-1, len(TELEMETRY_HEADER)), lines
