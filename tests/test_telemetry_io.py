import io
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovermotion import telemetry as telemetry_module
from rovermotion.config import OUTPUT_LIMIT, BodyTwist, LocomotionMode
from rovermotion.errors import DataError
from rovermotion.kinematics import ProfileSegment
from rovermotion.telemetry import (
    FIELD_COLUMNS,
    TELEMETRY_HEADER,
    Telemetry,
    _CHUNK_ROWS,
    _parse_fixed,
    read_telemetry_csv,
    write_fixed_csv,
    write_telemetry_csv,
)
from rovermotion.terrain import Scenario, simulate_traverse


class TestTelemetryCsv:
    def test_round_trip(self, tmp_path):
        scenario = Scenario(
            profile=[
                ProfileSegment(1.0, BodyTwist(0.06, 0, 0.02), LocomotionMode.SKID_STEER)
            ]
        )
        records = simulate_traverse(scenario)
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, records)
        loaded = read_telemetry_csv(path)
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert b.t == pytest.approx(a.t, abs=1e-6)
            assert (b.x, b.y, b.heading) == pytest.approx((a.x, a.y, a.heading), abs=1e-6)
        assert loaded.total_power == pytest.approx(records.total_power, abs=1e-4)

    def test_values_written_six_decimal(self, tmp_path):
        scenario = Scenario(
            profile=[
                ProfileSegment(0.1, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
        )
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, simulate_traverse(scenario))
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        assert all("." in c and len(c.split(".")[1]) == 6 for c in cells)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text("t,x,y\n0,0,0\n")
        with pytest.raises(DataError, match="header"):
            read_telemetry_csv(path)

    def test_non_increasing_time_rejected(self, tmp_path):
        scenario = Scenario(
            profile=[
                ProfileSegment(0.05, BodyTwist(0.06, 0, 0), LocomotionMode.SKID_STEER)
            ]
        )
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, simulate_traverse(scenario))
        lines = path.read_text().splitlines()
        lines.append(lines[1])  # duplicate t=0 row at the end
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-increasing timestamp"):
            read_telemetry_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, 2])
    def test_non_finite_timestamp_rejected(self, tmp_path, cell, row):
        # a nan fails every comparison, so the order check alone lets it by
        path = tmp_path / "telemetry.csv"
        write_rows(path, np.ones((4, 36)))
        lines = path.read_text().splitlines(keepends=True)
        lines[row + 1] = cell + lines[row + 1][lines[row + 1].index(","):]
        path.write_text("".join(lines))
        with pytest.raises(DataError) as excinfo:
            read_telemetry_csv(path)
        assert str(excinfo.value) == f"{path}:{row + 2}: non-finite t '{cell}'"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", " -Infinity"])
    @pytest.mark.parametrize("column", ["x", "odo_vx", "steer_rr"])
    def test_non_finite_cell_rejected(self, tmp_path, cell, column):
        path = tmp_path / "telemetry.csv"
        write_rows(path, np.ones((4, 36)))
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[3].rstrip("\n").split(",")
        cells[TELEMETRY_HEADER.index(column)] = cell
        lines[3] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(DataError) as excinfo:
            read_telemetry_csv(path)
        assert str(excinfo.value) == f"{path}:4: non-finite {column} {cell!r}"

    def test_huge_finite_cells_read(self, tmp_path):
        # a row whose sum overflows is read cell by cell, and kept
        path = tmp_path / "telemetry.csv"
        write_rows(path, np.ones((4, 36)))
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].split(",", 1)[0] + ",1e308" * 35 + "\n"
        path.write_text("".join(lines))
        values = read_telemetry_csv(path).values
        assert values[2, 1:].tolist() == [1e308] * 35
        assert np.array_equal(np.delete(values, 2, axis=0)[:, 1:], np.ones((3, 35)))

    def test_blank_rows_skipped_and_lines_kept(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        written = write_rows(path, np.ones((4, 36)))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + ["\n", "\n"] + lines[2:]))
        assert np.array_equal(read_telemetry_csv(path).values, written)
        # the late row is named at its line in the file, past the blank ones
        path.write_text("".join(lines[:2] + ["\n", "\n"] + lines[2:] + [lines[2]]))
        with pytest.raises(DataError) as excinfo:
            read_telemetry_csv(path)
        assert str(excinfo.value) == f"{path}:8: non-increasing timestamp"

    def test_header_only_reads_as_empty(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, Telemetry.empty())
        assert path.read_text() == ",".join(TELEMETRY_HEADER) + "\n"
        assert len(read_telemetry_csv(path)) == 0

    def test_rows_the_fast_parser_rejects_still_read(self, tmp_path):
        # CRLF line ends and quoted cells go through the row-by-row reader
        scenario = Scenario(
            profile=[
                ProfileSegment(0.1, BodyTwist(0.06, 0, 0.02), LocomotionMode.SKID_STEER)
            ]
        )
        path = tmp_path / "telemetry.csv"
        write_telemetry_csv(path, simulate_traverse(scenario))
        plain = read_telemetry_csv(path).values
        lines = path.read_text().splitlines()
        lines[2] = '"' + lines[2].replace(",", '","') + '"'
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert np.array_equal(read_telemetry_csv(path).values, plain)


def savetxt_bytes(values):
    """The telemetry.csv bytes np.savetxt(fmt="%.6f") writes for `values`."""
    handle = io.StringIO()
    np.savetxt(handle, values, fmt="%.6f", delimiter=",",
               header=",".join(TELEMETRY_HEADER), comments="")
    return handle.getvalue().encode()


def percent_rows(values, blank):
    """CSV rows of "%.6f" % x per cell, blank cells empty."""
    return "".join(
        ",".join("" if e else "%.6f" % x for x, e in zip(row, empty)) + "\n"
        for row, empty in zip(values.tolist(), blank.tolist())
    ).encode()


# exact ties of the sixth decimal, which "%.6f" rounds half to even
TIES = [k / 128 for k in range(-9, 10, 2)] + [1001 / 128, -40001 / 128]
SPECIALS = [0.0, -0.0, -4e-7, 4e-7, math.nan, math.inf, -math.inf, 1e300, -1e300,
            0.9999995, -999.9999995, 2.0**52 / 1e6, 123456789012.5]

cells = st.one_of(
    st.floats(-OUTPUT_LIMIT, OUTPUT_LIMIT),
    st.integers(-(2**40), 2**40).map(lambda k: k / 128),
    st.floats(-1e9, 1e9).map(lambda x: round(x, 6) + 5e-7),
    st.sampled_from(SPECIALS),
)
# the cells write_fixed_csv writes as numbers; it refuses the others unless blank
writable_cells = cells.filter(lambda x: abs(x) <= OUTPUT_LIMIT)
# cells outside [-OUTPUT_LIMIT, OUTPUT_LIMIT]
UNWRITABLE = [math.nan, math.inf, -math.inf, 1e300, -1e300,
              math.nextafter(OUTPUT_LIMIT, math.inf)]


class TestFixedPointWriter:
    """write_fixed_csv writes exactly the bytes of "%.6f" % x per cell."""

    def write(self, path, values, blank=None):
        write_fixed_csv(path, [f"c{j}" for j in range(values.shape[1])], values, blank)
        return path.read_bytes().split(b"\n", 1)[1]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(writable_cells, min_size=1, max_size=120),
        width=st.integers(1, 7),
        blanks=st.lists(st.booleans(), min_size=120, max_size=120),
        non_finite=st.sampled_from(UNWRITABLE),
        at=st.integers(0, 119),
    )
    def test_cells_match_percent_format(self, tmp_path_factory, data, width, blanks,
                                        non_finite, at):
        rows = max(1, len(data) // width)
        values = np.resize(np.array(data), (rows, width))
        blank = np.array(blanks[: rows * width]).reshape(rows, width)
        path = tmp_path_factory.getbasetemp() / "fixed.csv"
        assert self.write(path, values) == percent_rows(values, np.zeros_like(blank))
        assert self.write(path, values, blank) == percent_rows(values, blank)
        # a cell outside the output range is written only as a blank one
        row, column = divmod(at % values.size, width)
        values[row, column] = non_finite
        with pytest.raises(DataError) as excinfo:
            self.write(path, values)
        assert str(excinfo.value) == (
            f"output c{column} = {non_finite!r} outside [-1e12, 1e12]")
        blank[row, column] = True
        assert self.write(path, values, blank) == percent_rows(values, blank)

    def test_ties_and_specials(self, tmp_path):
        values = np.array([TIES + SPECIALS])
        writable = np.abs(values) <= OUTPUT_LIMIT
        written = self.write(tmp_path / "s.csv", values, ~writable).decode()[:-1].split(",")
        assert written == ["%.6f" % x if abs(x) <= OUTPUT_LIMIT else ""
                           for x in TIES + SPECIALS]
        assert written[:4] == ["-0.070312", "-0.054688", "-0.039062", "-0.023438"]
        assert written[len(TIES):][:4] == [
            "0.000000", "-0.000000", "-0.000000", "0.000000"]
        assert written[len(TIES):][4:7] == ["", "", ""]
        for j in np.flatnonzero(~writable[0]):
            others = ~writable & (np.arange(values.size) != j)
            with pytest.raises(DataError, match=f"^output c{j} = .* outside "):
                self.write(tmp_path / "s.csv", values, others)

    def test_a_refused_cell_leaves_no_file(self, tmp_path):
        # past the first chunk, so the rows before it were already written
        path = tmp_path / "t.csv"
        write_rows(path, np.ones((3, 36)))
        before = path.read_bytes()
        values = np.ones((_CHUNK_ROWS + 2, 36))
        values[_CHUNK_ROWS + 1, 20] = math.inf
        with pytest.raises(DataError) as excinfo:
            write_telemetry_csv(path, Telemetry(values))
        assert str(excinfo.value) == (
            f"output {TELEMETRY_HEADER[20]} = inf outside [-1e12, 1e12]")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    @pytest.mark.parametrize(
        "rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1]
    )
    def test_row_counts_match_savetxt(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        values = rng.normal(0.0, 50.0, (rows, len(TELEMETRY_HEADER)))
        values[:, 0] = np.arange(rows) * 0.01
        telemetry = Telemetry(values) if rows else Telemetry.empty()
        write_telemetry_csv(tmp_path / "t.csv", telemetry)
        assert (tmp_path / "t.csv").read_bytes() == savetxt_bytes(telemetry.values)
        assert len((tmp_path / "t.csv").read_bytes().splitlines()) == rows + 1

    @pytest.mark.parametrize("row", [0, 500, _CHUNK_ROWS - 1, _CHUNK_ROWS + 2])
    def test_one_python_cell_among_fast_cells(self, tmp_path, row):
        rng = np.random.default_rng(row)
        values = rng.uniform(-2000.0, 2000.0, (_CHUNK_ROWS + 3, len(TELEMETRY_HEADER)))
        values[row, 17] = 1 / 128  # a tie: half to even gives ...812, half up ...813
        write_telemetry_csv(tmp_path / "t.csv", Telemetry(values))
        text = (tmp_path / "t.csv").read_bytes()
        assert text == savetxt_bytes(values)
        assert text.splitlines()[row + 1].split(b",")[17] == b"0.007812"


def bits(values):
    """The bit patterns of a float64 array, so that -0.0 and NaNs compare exactly."""
    return np.ascontiguousarray(values).view(np.int64)


def read_rows(path):
    """read_telemetry_csv(path) with every file read by the row reader, the
    oracle of the fixed-point parser."""
    with mock.patch.object(telemetry_module, "_parse_fixed", lambda path: None):
        return read_telemetry_csv(path)


def read_result(read, path):
    """What `read(path)` returns: its values, or the error it raises."""
    try:
        return bits(read(path).values)
    except DataError as exc:
        return str(exc)


def same_result(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.shape == b.shape and np.array_equal(a, b)


def write_rows(path, values):
    """A telemetry file of `values` with an increasing time column."""
    values = np.array(values, dtype=np.float64).reshape(-1, len(TELEMETRY_HEADER))
    values[:, 0] = np.arange(len(values)) * 0.01
    write_telemetry_csv(path, Telemetry(values))
    return values


@pytest.fixture
def fast_only(monkeypatch):
    """Fail any read the fixed-point parser leaves to the row-by-row reader."""
    def no_fallback(path):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr(telemetry_module, "_read_rows", no_fallback)


class TestFixedPointReader:
    """read_telemetry_csv gives the row reader's values bit for bit, or its error."""

    @settings(max_examples=200, deadline=None)
    @given(
        fixed=st.lists(
            st.one_of(
                st.floats(-1e9, 1e9),
                st.integers(-(10**15) + 1, 10**15 - 1).map(lambda q: q / 1e6),
                st.sampled_from(TIES + [0.0, -0.0, -4e-7, 999999999.9999994]),
            ),
            min_size=1,
            max_size=400,
        ),
        # a cell "%.6f" writes in another layout sends the file to _read_rows
        other=st.lists(writable_cells, max_size=2),
        chunk_bytes=st.integers(1, 3000),
    )
    def test_written_cells_read_back_bit_identical(
        self, tmp_path_factory, fixed, other, chunk_bytes
    ):
        data = fixed + other
        path = tmp_path_factory.getbasetemp() / "read.csv"
        write_rows(path, np.resize(np.array(data), (-(-len(data) // 36), 36)))
        lines = path.read_text().splitlines()[1:]
        expected = np.array([[float(c) for c in line.split(",")] for line in lines])
        with mock.patch.object(telemetry_module, "_READ_CHUNK_BYTES", chunk_bytes):
            values = read_telemetry_csv(path).values
        assert np.array_equal(bits(values), bits(expected))
        assert np.array_equal(bits(values), bits(read_rows(path).values))

    @pytest.mark.parametrize("rows", [0, 1])
    def test_few_rows(self, tmp_path, fast_only, rows):
        path = tmp_path / "t.csv"
        written = write_rows(path, np.full((rows, 36), -4e-7))
        values = read_telemetry_csv(path).values
        assert values.shape == (rows, 36)
        assert np.array_equal(bits(values), bits(np.round(written, 6)))
        assert all(math.copysign(1.0, x) == -1.0 for x in values[:, 1:].ravel())

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    def test_chunks(self, tmp_path, monkeypatch, chunks):
        # 6 lines of equal length, so a chunk of 6 / chunks lines ends at a line end
        rng = np.random.default_rng(chunks)
        values = rng.uniform(100.0, 999.0, (6, 36)) * np.resize([1.0, -1.0], 36)
        path = tmp_path / "t.csv"
        write_rows(path, values)
        lines = path.read_bytes().splitlines(keepends=True)[1:]
        assert len({len(line) for line in lines}) == 1
        expected = read_rows(path).values
        parsed = []
        parse = telemetry_module._ChunkParser.parse

        def counted(parser, start, stop, row):
            parsed.append((start, stop))
            return parse(parser, start, stop, row)

        monkeypatch.setattr(telemetry_module._ChunkParser, "parse", counted)
        monkeypatch.setattr(
            telemetry_module, "_READ_CHUNK_BYTES", len(lines[0]) * 6 // chunks
        )
        monkeypatch.setattr(telemetry_module, "_read_rows", None)
        assert np.array_equal(bits(read_telemetry_csv(path).values), bits(expected))
        assert len(parsed) == chunks

    def test_mission_sized_file(self, tmp_path, fast_only):
        # many chunks, with 1 to 9 integer digits
        rng = np.random.default_rng(9)
        values = rng.normal(0.0, 1.0, (3000, 36)) * 10.0 ** rng.integers(0, 9, (3000, 36))
        values[::7, 3] = -0.0
        path = tmp_path / "t.csv"
        write_rows(path, values)
        with open(path) as handle:
            next(handle)
            expected = [[float(c) for c in line.split(",")] for line in handle]
        assert np.array_equal(
            bits(read_telemetry_csv(path).values), bits(np.array(expected))
        )

    def test_concurrent_reads_parse_each_chunk_once(self, tmp_path, monkeypatch):
        # four reads at once from callers' threads, more than the cores,
        # with one line per chunk and a short switch interval
        rng = np.random.default_rng(4)
        path = tmp_path / "t.csv"
        write_rows(path, rng.normal(0.0, 100.0, (300, 36)))
        expected = bits(read_rows(path).values)
        parsed = {}  # id of each read's array -> (the array, the rows parsed into it)
        lock = threading.Lock()
        parse = telemetry_module._ChunkParser.parse

        def recorded(parser, start, stop, row):
            lines = np.count_nonzero(parser.buf[start:stop] == ord("\n"))
            with lock:
                rows = parsed.setdefault(id(parser.values), (parser.values, []))[1]
                rows.extend(range(row, row + lines))
            return parse(parser, start, stop, row)

        monkeypatch.setattr(telemetry_module._ChunkParser, "parse", recorded)
        monkeypatch.setattr(telemetry_module, "_READ_CHUNK_BYTES", 1)
        results = []
        readers = [
            threading.Thread(
                target=lambda: results.append(bits(read_telemetry_csv(path).values))
            )
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for reader in readers:
                reader.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert len(results) == 4
        assert all(np.array_equal(r, expected) for r in results)
        assert len(parsed) == 4
        assert all(sorted(rows) == list(range(300)) for _, rows in parsed.values())

    @pytest.mark.parametrize(
        "cell",
        ["+1.000000", " 1.000000", "1e-3", "1.5", ".500000", "--1.000000",
         "1-2.000000", "1/2.000000", "1:2.000000", "\u0661.000000", "1.0000000",
         "1234567890.000000", '"1.000000"', "1_0.000000", "", "nan", "-inf"],
    )
    @pytest.mark.parametrize("row", [0, 40])
    def test_rejected_cell_falls_back(self, tmp_path, monkeypatch, cell, row):
        monkeypatch.setattr(telemetry_module, "_READ_CHUNK_BYTES", 1000)
        path = tmp_path / "t.csv"
        write_rows(path, np.full((41, 36), 2.5))
        lines = path.read_text().splitlines(keepends=True)
        cells_of_row = lines[row + 1].split(",")
        cells_of_row[5] = cell
        lines[row + 1] = ",".join(cells_of_row)
        path.write_text("".join(lines), encoding="utf-8")
        self.check_falls_back(path)

    @pytest.mark.parametrize(
        "change",
        ["no final newline", "crlf", "blank line", "short row", "long row",
         "header only without newline", "late timestamp"],
    )
    def test_rejected_layout_falls_back(self, tmp_path, monkeypatch, change):
        monkeypatch.setattr(telemetry_module, "_READ_CHUNK_BYTES", 1000)
        path = tmp_path / "t.csv"
        write_rows(path, np.full((41, 36), -2.5))
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        if change == "no final newline":
            text = text[:-1]
        elif change == "crlf":
            text = text.replace("\n", "\r\n")
        elif change == "blank line":
            text = "".join(lines[:20] + ["\n"] + lines[20:])
        elif change == "short row":
            text = "".join(lines[:20] + [lines[20].split(",", 1)[1]] + lines[21:])
        elif change == "long row":
            text = "".join(lines[:20] + ["0.000000," + lines[20]] + lines[21:])
        elif change == "header only without newline":
            text = lines[0][:-1]
        elif change == "late timestamp":
            text = "".join(lines[:30] + [lines[29]] + lines[30:])
        path.write_text(text)
        if change == "late timestamp":
            # the layout holds, so the fast path reports it
            assert _parse_fixed(path) is not None
            assert read_result(read_telemetry_csv, path) == read_result(read_rows, path)
        else:
            self.check_falls_back(path)

    @staticmethod
    def check_falls_back(path):
        assert _parse_fixed(path) is None
        assert same_result(
            read_result(read_telemetry_csv, path), read_result(read_rows, path)
        )


class TestStreamedReader:
    """Chunks are read from the open file, each completed to a line end."""

    @pytest.mark.parametrize("chunk_bytes", [1, 7, 323, 324, 325, 1000, 4096, 1 << 18])
    @pytest.mark.parametrize(
        "change",
        ["none", "no final newline", "trailing cell", "crlf", "header only",
         "overlong line"],
    )
    def test_gives_the_row_readers_result(self, tmp_path, monkeypatch, chunk_bytes,
                                          change):
        # chunks shorter than a line, cutting lines anywhere, and longer
        rng = np.random.default_rng(chunk_bytes)
        path = tmp_path / "t.csv"
        write_rows(path, rng.normal(0.0, 100.0, (40, 36)))
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        if change == "no final newline":
            text = text[:-1]
        elif change == "trailing cell":
            text += "1.000000"
        elif change == "crlf":
            text = text.replace("\n", "\r\n")
        elif change == "header only":
            text = lines[0]
        elif change == "overlong line":
            cells = lines[20].split(",")
            cells[3] = "1" * 700 + ".000000"
            text = "".join(lines[:20] + [",".join(cells)] + lines[21:])
        path.write_text(text)
        monkeypatch.setattr(telemetry_module, "_READ_CHUNK_BYTES", chunk_bytes)
        fast = _parse_fixed(path)
        assert (fast is not None) == (change in ("none", "header only"))
        assert same_result(
            read_result(read_telemetry_csv, path), read_result(read_rows, path)
        )

    def test_lines_past_the_size_bound_fall_back(self, tmp_path):
        # A chunk whose lines would run past the rows the file size allows is
        # rejected before anything is written, not written out of bounds
        path = tmp_path / "t.csv"
        write_rows(path, np.ones((3, 36)))
        values = np.full((3, 36), np.nan)
        parser = telemetry_module._ChunkParser(values)
        with open(path, "rb") as handle:
            handle.readline()
            chunk = parser.read(handle)
        for row in (1, 3, 4):
            assert parser.parse(*chunk, row) is None
            assert np.isnan(values).all()
        assert parser.parse(*chunk, 0) == 3
        assert np.array_equal(bits(values), bits(read_rows(path).values))


def held(values):
    """Bytes of the allocation that holds `values` (a view holds its base)."""
    return values.nbytes if values.base is None else values.base.nbytes


def traced_peak(call, *args):
    """call(*args)'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """numpy reports its allocations to tracemalloc, so these peaks are exact."""

    @staticmethod
    def files(tmp_path):
        rng = np.random.default_rng(3)
        for rows in (3000, 20000):
            path = tmp_path / f"t{rows}.csv"
            yield path, write_rows(path, rng.normal(0.0, 50.0, (rows, 36)))

    def test_reader_scratch_does_not_grow_with_the_file(self, tmp_path, fast_only):
        # one chunk buffer and its temporaries, whatever the file's length
        bound = 8 * telemetry_module._READ_CHUNK_BYTES
        scratch = []
        for path, _ in self.files(tmp_path):
            read_telemetry_csv(path)
            telemetry, peak = traced_peak(read_telemetry_csv, path)
            # sized for the most lines the file could hold; the rows past
            # the last line are never written, so never resident
            assert held(telemetry.values) <= path.stat().st_size // 324 * 36 * 8
            scratch.append(peak - held(telemetry.values))
        small, large = scratch
        assert abs(large - small) < 64 * 1024
        assert large < bound < path.stat().st_size  # the 20k-row file

    def test_reader_keeps_its_chunk_temporaries(self, tmp_path, fast_only, monkeypatch):
        # Beyond its result and the buffers its parser keeps from chunk to
        # chunk, a 20,001-row read holds one more cell-sized array at most:
        # the separator offsets np.flatnonzero makes for each chunk (and the
        # buffers of 8192 elements in which numpy casts an operand).
        parsers = []

        class Recorded(telemetry_module._ChunkParser):
            def __init__(self, values):
                super().__init__(values)
                parsers.append(self)

        monkeypatch.setattr(telemetry_module, "_ChunkParser", Recorded)
        path = tmp_path / "t.csv"
        write_rows(path, np.random.default_rng(4).normal(0.0, 50.0, (20_001, 36)))
        read_telemetry_csv(path)
        telemetry, peak = traced_peak(read_telemetry_csv, path)
        assert len(telemetry) == 20_001
        parser = parsers[-1]
        kept = parser.aligned.nbytes + sum(b.nbytes for b in parser._buffers.values())
        # a cell is at least "0.000000,"
        offsets = len(parser.buf) // len("0.000000,") * 8
        assert peak - held(telemetry.values) - kept < offsets + 128 * 1024

    def test_writer_scratch_does_not_grow_with_the_rows(self, tmp_path):
        peaks = []
        for path, values in self.files(tmp_path):
            _, peak = traced_peak(write_fixed_csv, path, TELEMETRY_HEADER, values)
            peaks.append(peak)
        small, large = peaks
        assert large < small + 64 * 1024


def test_each_column_group_selects_its_header_names():
    wheels = ("fl", "fr", "rl", "rr")
    groups = {
        "pose": ["x", "y", "heading"],
        "marker": ["marker_x", "marker_y"],
        "odo_twist": ["odo_vx", "odo_vy", "odo_wz"],
        "commanded_twist": ["cmd_vx", "cmd_vy", "cmd_wz"],
        **{group: [f"{prefix}_{w}" for w in wheels] for group, prefix in [
            ("drive_voltage", "v_drive"), ("drive_current", "i_drive"),
            ("steer_voltage", "v_steer"), ("steer_current", "i_steer"),
            ("drive_speeds", "speed"), ("steering_angles", "steer")]},
    }
    assert {group: TELEMETRY_HEADER[columns]
            for group, columns in FIELD_COLUMNS.items()} == groups
    assert TELEMETRY_HEADER == ["t", *(name for names in groups.values() for name in names)]


class TestTelemetrySeries:
    @pytest.fixture
    def telemetry(self):
        return simulate_traverse(
            Scenario(
                profile=[
                    ProfileSegment(
                        1.0, BodyTwist(0, 0, 0.05), LocomotionMode.POINT_TURN
                    )
                ],
                marker_offset=(0.4, 0.1),
            )
        )

    def test_records_are_built_on_demand(self, telemetry):
        for i in (0, 7, -1):
            record = telemetry[i]
            assert record.dtype.names == tuple(TELEMETRY_HEADER)
            # the same float64 bits as the row
            assert np.array_equal(
                np.array(record.tolist()).view(np.uint64),
                telemetry.values[i].view(np.uint64),
            )
            assert record.odo_wz == telemetry.column("odo_wz")[i]
        assert telemetry[-1].t == telemetry[len(telemetry) - 1].t
        records = list(telemetry)
        assert len(records) == len(telemetry)
        assert [r.t for r in records] == telemetry.column("t").tolist()
        with pytest.raises(IndexError):
            telemetry[len(telemetry)]

    def test_writing_a_record_leaves_the_series(self, telemetry):
        record = telemetry[3]
        record.t = -1.0
        assert telemetry.column("t")[3] != -1.0

    def test_total_power_matches_the_records_bit_for_bit(self, telemetry):
        def row_power(row):  # the power of one sample, summed left to right
            drive = sum(v * i for v, i in zip(row[12:16], row[16:20]))
            return drive + sum(v * i for v, i in zip(row[20:24], row[24:28]))

        # the series starts with a steering reposition, so the steer terms vary
        rows = telemetry.values.tolist()
        assert telemetry.total_power.tolist() == [row_power(r) for r in rows]
        noisy = Telemetry(np.random.default_rng(5).uniform(0.0, 30.0, (500, 36)))
        assert noisy.total_power.tolist() == [row_power(r) for r in noisy.values.tolist()]

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="36 columns"):
            Telemetry(np.zeros((3, 35)))
