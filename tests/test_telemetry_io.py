import io
import math
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
        for name in ("t", "x", "y", "heading"):
            assert loaded.column(name) == pytest.approx(records.column(name), abs=1e-6)
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
        # huge finite cells are kept, though their sum overflows, by both
        # readers: CRLF line ends send the file to the row reader
        path = tmp_path / "telemetry.csv"
        write_rows(path, np.ones((4, 36)))
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[3].split(",", 1)[0] + ",1e308" * 35 + "\n"
        path.write_text("".join(lines))
        values = read_telemetry_csv(path).values
        assert values[2, 1:].tolist() == [1e308] * 35
        assert np.array_equal(np.delete(values, 2, axis=0)[:, 1:], np.ones((3, 35)))
        path.write_text("".join(lines), newline="\r\n")
        assert np.array_equal(read_telemetry_csv(path).values, values)

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

    @pytest.mark.parametrize("python_cells", [False, True])
    def test_chunks_that_need_different_widths(self, tmp_path, python_cells):
        # the digit groups are counted once per file: chunk 0 needs one,
        # chunk 1 two, as 999.9999996 carries into 1000.000000, chunk 2 five
        # when it holds 1e12; the short last chunk needs one
        rows = 3 * _CHUNK_ROWS + 5
        values = np.random.default_rng(3).uniform(-1.0, 1.0, (rows, len(TELEMETRY_HEADER)))
        values[7, 4], values[rows - 1, 5] = -0.0, 1 / 128
        values[_CHUNK_ROWS + 9, 2] = 999.9999996
        if python_cells:  # |x| * 1e6 at or past 2**52, formatted by Python
            values[2 * _CHUNK_ROWS + 3, 1:4] = [2.0**52 / 1e6, -7e9, 1e12]
        write_telemetry_csv(tmp_path / "t.csv", Telemetry(values))
        assert (tmp_path / "t.csv").read_bytes() == savetxt_bytes(values)
        # a column of gaps, as the analyze series write it: empty where
        # np.savetxt writes nan
        values[:, -1] = math.nan
        write_fixed_csv(tmp_path / "b.csv", TELEMETRY_HEADER, values, np.isnan(values))
        assert (tmp_path / "b.csv").read_bytes() == (
            savetxt_bytes(values).replace(b"nan", b""))

    def test_digit_tables_match_their_strings(self):
        def words(cells):
            return np.frombuffer("".join(cells).encode(), np.uint32)

        lead = [str(k).rjust(4, "\0") for k in range(1000)]
        later = [f"\0{k:03}" for k in range(1000)]
        tables = [
            (telemetry_module._GROUP_WORDS, words(["\0" * 4] + lead[1:] + later)),
            (telemetry_module._LAST_GROUP_WORDS, words(lead + later)),
            (telemetry_module._POINT_WORDS, words([f".{k:03}" for k in range(1000)])),
            (telemetry_module._TAIL_WORDS, words([f"{k:03}," for k in range(1000)])),
        ]
        for got, want in tables:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def bits(values):
    """The bit patterns of a float64 array, so that -0.0 and NaNs compare exactly."""
    return np.ascontiguousarray(values).view(np.int64)


def read_result(path):
    """What read_telemetry_csv(path) gives: its values' bits, or its refusal."""
    try:
        return bits(read_telemetry_csv(path).values)
    except DataError as exc:
        return str(exc)


def oracle(path):
    """What read_telemetry_csv(path) must give: the bits of the values the
    row reader _read_rows gives, or its refusal, or the refusal of the first
    row whose t is not above the last, at that row's line."""
    try:
        values, lines = telemetry_module._read_rows(path)
    except DataError as exc:
        return str(exc)
    t = values[:, 0].tolist()
    late = [i for i in range(1, len(t)) if not t[i] > t[i - 1]]
    return f"{lines[late[0]]}: non-increasing timestamp" if late else bits(values)


def assert_reads_as_oracle(path):
    got, want = read_result(path), oracle(path)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    else:
        assert got.shape == want.shape and np.array_equal(got, want)


def write_rows(path, values):
    """A telemetry file of `values` with an increasing time column."""
    values = np.array(values, dtype=np.float64).reshape(-1, len(TELEMETRY_HEADER))
    values[:, 0] = np.arange(len(values)) * 0.01
    write_telemetry_csv(path, Telemetry(values))
    return values


def read_fast(path):
    """read_telemetry_csv(path), failing if the file is read row by row."""
    with mock.patch.object(telemetry_module, "_read_rows",
                           side_effect=AssertionError(f"{path} was read row by row")):
        return read_telemetry_csv(path)


def written_values(path):
    """float(cell) of every cell under the header of the file `path`."""
    with open(path) as handle:
        next(handle)
        return np.array([[float(c) for c in line.split(",")] for line in handle])


# Cells the writer does not write, each put in place of a written one
CELLS = ["+1.000000", " 1.000000", "1e-3", "1.5", ".500000", "--1.000000",
         "1-2.000000", "1/2.000000", "1:2.000000", "\u0661.000000", "1.0000000",
         "1234567890.000000", '"1.000000"', "1_0.000000", "", "nan", "-inf",
         "NaN", " -Infinity", "abc", "1_0", "0x10", "1e308", "-2.5E+2", "1\0",
         # spaces to np.loadtxt, but not to float()
         "\x1c1.000000", "1.000000\x1f"]
# Changes to the layout of a written file, made at one of its rows (see changed)
CHANGES = ["no final newline", "crlf", "blank line", "short row", "long row",
           "header only without newline", "late timestamp", "none", "trailing cell",
           "header only", "overlong line", "lone cr", "non-utf-8 byte",
           "blank line first", "blank lines only", "cr blank lines only",
           "late timestamp after blank lines"]


def changed(text, change, row):
    """The written telemetry file `text` with `change` made at its data row
    `row`; a lone surrogate stands for a byte that is not UTF-8."""
    header, *lines = io.StringIO(text).readlines()  # lines end at "\n" alone
    before, line, after = lines[:row], lines[row], lines[row + 1:]
    cells = line.split(",")
    if change == "no final newline":
        return text[:-1]
    if change == "crlf":
        return text.replace("\n", "\r\n")
    if change == "trailing cell":
        return text + "1.000000"
    if change == "header only":
        return header
    if change == "header only without newline":
        return header[:-1]
    if change == "blank lines only":
        return header + "\n\n"
    if change == "cr blank lines only":
        return header + "\r\r"
    if change == "blank line first":
        return header + "\n" + "".join(lines)
    new = {
        "none": [line],
        "blank line": ["\n", line],
        "short row": [",".join(cells[1:])],  # 35 cells
        "long row": ["0.000000," + line],  # 37 cells
        "overlong line": [",".join(cells[:3] + ["1" * 700 + ".000000"] + cells[4:])],
        "lone cr": [line[:-1] + "\r"],
        # 0xA0, a space in Latin-1
        "non-utf-8 byte": [",".join(cells[:3] + [cells[3] + "\udca0"] + cells[4:])],
        # a row with the time of the row before it, after blank lines or not
        "late timestamp": [line, lines[row - 1]],
        "late timestamp after blank lines": [line, "\n", "\n", lines[row - 1]],
    }[change]
    return header + "".join(before + new + after)


def write_changed(path, change, row):
    path.write_bytes(changed(path.read_text(), change, row).encode("utf-8", "surrogateescape"))


def write_cell(path, cell, row, column=5):
    lines = io.StringIO(path.read_text()).readlines()
    cells = lines[row + 1].split(",")
    cells[column] = cell
    lines[row + 1] = ",".join(cells)
    path.write_text("".join(lines), encoding="utf-8")


class TestFixedPointReader:
    """read_telemetry_csv gives the oracle's result, the values bit for bit and
    a refusal byte for byte, on files the writer wrote and on changes to them."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.lists(
            st.one_of(
                st.floats(-1e9, 1e9),
                # up to ten integer digits
                st.integers(-(10**16) + 1, 10**16 - 1).map(lambda q: q / 1e6),
                st.sampled_from(TIES + [0.0, -0.0, -4e-7, 999999999.9999994]),
                writable_cells,
            ),
            min_size=1,
            max_size=108,
        ),
        rows=st.sampled_from([1, 3]),
        change=st.sampled_from(CHANGES),
        cell=st.sampled_from([None] + CELLS),
        at=st.integers(0, 2),
        column=st.integers(0, len(TELEMETRY_HEADER) - 1),
    )
    def test_written_cells_read_back_bit_identical(
        self, tmp_path_factory, data, rows, change, cell, at, column
    ):
        path = tmp_path_factory.getbasetemp() / "read.csv"
        write_rows(path, np.resize(np.array(data), (rows, 36)))
        assert np.array_equal(bits(read_fast(path).values), bits(written_values(path)))
        if cell is not None:
            write_cell(path, cell, at % rows, column)
        write_changed(path, change, at % rows)
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("rows", [0, 1])
    def test_few_rows(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        written = write_rows(path, np.full((rows, 36), -4e-7))
        values = (read_fast if rows else read_telemetry_csv)(path).values
        assert values.shape == (rows, 36)
        assert np.array_equal(bits(values), bits(np.round(written, 6)))
        assert all(math.copysign(1.0, x) == -1.0 for x in values[:, 1:].ravel())
        assert_reads_as_oracle(path)

    def test_mission_sized_file(self, tmp_path):
        # 20,001 rows, with 1 to 10 integer digits and -0.0
        rng = np.random.default_rng(9)
        shape = (20_001, 36)
        values = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(0, 10, shape)
        values[::7, 3] = -0.0
        path = tmp_path / "t.csv"
        write_rows(path, values)
        assert np.array_equal(bits(read_fast(path).values), bits(written_values(path)))
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("cell", CELLS)
    @pytest.mark.parametrize("row", [0, 40])
    def test_rejected_cell_falls_back(self, tmp_path, cell, row):
        path = tmp_path / "t.csv"
        write_rows(path, np.full((41, 36), 2.5))
        write_cell(path, cell, row)
        assert_reads_as_oracle(path)

    @pytest.mark.parametrize("change", CHANGES)
    def test_rejected_layout_falls_back(self, tmp_path, change):
        path = tmp_path / "t.csv"
        write_rows(path, np.full((41, 36), -2.5))
        write_changed(path, change, 29)
        assert_reads_as_oracle(path)


class TestStreamedReader:
    """Files of random rows, whole or changed, read as the oracle reads them."""

    @pytest.mark.parametrize("seed", [1, 7, 323, 324, 325, 1000, 4096, 1 << 18])
    @pytest.mark.parametrize(
        "change",
        ["none", "no final newline", "trailing cell", "crlf", "header only",
         "overlong line"],
    )
    def test_gives_the_row_readers_result(self, tmp_path, seed, change):
        path = tmp_path / "t.csv"
        write_rows(path, np.random.default_rng(seed).normal(0.0, 100.0, (40, 36)))
        write_changed(path, change, 20)
        assert_reads_as_oracle(path)


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

    def test_reader_holds_little_beyond_its_result(self, tmp_path):
        # The bound is below the 1.54 MB a chunked fixed-point parser held
        # on this file. np.loadtxt's working memory grows with the rows:
        # 0.27 MB at 3,000, 0.77 MB at 20,001 and 3.6 MB at 100,000.
        path = tmp_path / "t.csv"
        write_rows(path, np.random.default_rng(4).normal(0.0, 50.0, (20_001, 36)))
        read_telemetry_csv(path)
        telemetry, peak = traced_peak(read_telemetry_csv, path)
        assert len(telemetry) == 20_001
        assert peak - held(telemetry.values) <= 1_500_000

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
