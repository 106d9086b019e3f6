import csv
import errno
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from rovermotion import deflection
from rovermotion.cli import (
    EXIT_DATA,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    PRESET_NAMES,
    ROTATION_PRESETS,
    main,
    preset_path,
)
from rovermotion.telemetry import TELEMETRY_HEADER

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURE_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "rovermotion" / "data" / "deflection"
)


# Former RoverConfig fields that no output read; a file that sets one is refused
REMOVED_CONFIG_KEYS = ["wheel_width", "ground_clearance", "drive_motor_rated_power",
                       "steering_motor_rated_power"]


def run(args):
    return main(args)


def write_scenario(path, duration=10.0, vx=0.06):
    path.write_text(
        "name = cli_demo\n[profile]\nduration_s,vx,vy,wz,mode\n"
        f"{duration},{vx},0,0,skid_steer\n"
    )


class TestSimulate:
    def test_smoke(self, tmp_path, capsys):
        scn = tmp_path / "run.scn"
        write_scenario(scn)
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
        assert (out / "telemetry.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "scenario = cli_demo" in summary
        assert "records = 1001" in summary

    def test_missing_scenario_is_data_error(self, tmp_path, capsys):
        scn = tmp_path / "nope.scn"
        out = tmp_path / "out"
        assert run(["simulate", "--scenario", str(scn), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: no such file: {scn}\n"
        assert not out.exists()

    def test_preset_smoke(self, tmp_path):
        out = tmp_path / "out"
        code = run(
            ["simulate", "--scenario", str(preset_path("nominal_0_6cm")), "--out", str(out)]
        )
        assert code == EXIT_OK

    def test_byte_identical_reruns(self, tmp_path):
        scn = tmp_path / "run.scn"
        scn.write_text(
            "name = noisy\nterrain.noise_std = 0.05\nterrain.rng_seed = 11\n"
            "[profile]\nduration_s,vx,vy,wz,mode\n5,0.06,0,0.02,skid_steer\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--scenario", str(scn), "--out", str(out_a)]) == EXIT_OK
        assert run(["simulate", "--scenario", str(scn), "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "telemetry.csv").read_bytes() == (
            out_b / "telemetry.csv"
        ).read_bytes()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1.0,abc,0,0,skid_steer", "non-numeric vx 'abc'"),
            ("1.0,0.05,0", "expected 5 columns, got 3"),
            ("1.0,0.05,0,0,hover", "unknown locomotion mode 'hover'"),
            ("1,inf,0,0,skid_steer", "non-finite vx 'inf'"),
        ],
        ids=["non_numeric", "short_row", "unknown_mode", "non_finite_twist"],
    )
    def test_malformed_profile_row_is_data_error(self, tmp_path, capsys, row, message):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            "name = bad\n[profile]\nduration_s,vx,vy,wz,mode\n"
            f"2,0.06,0,0,skid_steer\n{row}\n"
        )
        code = run(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {scn}:5: {message}\n"

    @pytest.mark.parametrize(
        "setting, row, message",
        [
            ("step = nan", "", ": non-finite step 'nan'"),
            ("", "inf,0.06,0,0,skid_steer", ":6: non-finite duration_s 'inf'"),
            ("", "nan,0.06,0,0,skid_steer", ":6: non-finite duration_s 'nan'"),
            ("", "0,0.06,0,0,skid_steer", ":6: duration = 0.0 outside (0, 10000000]"),
            ("config.mass = nan", "", ": non-finite config.mass 'nan'"),
            ("config.steering_rate = inf", "", ": non-finite config.steering_rate 'inf'"),
            ("marker_offset_x = inf", "", ": non-finite marker_offset_x 'inf'"),
            ("terrain.noise_std = 0.05\nterrain.rng_seed = -1", "",
             ": rng_seed = -1 outside [0, 9007199254740992]"),
            ("terrain.rng_seed = 1.5", "",
             ": terrain.rng_seed = 1.5 is not an integer"),
            ("terrain.slope_deg = 95", "", ": slope_deg = 95.0 outside [0, 90)"),
            ("step = 0", "", ": step = 0.0 outside (0, 1]"),
            ("", "1e308,0.06,0,0,skid_steer", ":6: duration = 1e+308 outside (0, 10000000]"),
            # the segment whose rows pass the ceiling, before any allocation
            ("step = 5e-324", "", ":5: the profile plans more than 10000000 telemetry rows"),
            ("", "1e20,0.06,0,0,skid_steer", ":6: duration = 1e+20 outside (0, 10000000]"),
            ("", "1e6,0.06,0,0,skid_steer",
             ":6: the profile plans more than 10000000 telemetry rows"),
            ("", "0.05,1e150,0,0,skid_steer", ":6: vx = 1e+150 outside [-10, 10]"),
            ("", "0.05,0,0,0.01,crab", ":6: yaw rate unsupported in crab mode"),
            *[(f"config.{key} = 1", "", f": unknown keys: config.{key}")
              for key in REMOVED_CONFIG_KEYS],
        ],
        ids=["step_nan", "duration_inf", "duration_nan", "duration_zero", "mass_nan",
             "steering_rate_inf", "marker_offset_inf", "rng_seed_negative",
             "rng_seed_fractional", "slope_out_of_range", "step_zero",
             "duration_1e308", "step_5e-324", "duration_1e20", "duration_1e6",
             "velocity_1e150", "crab_yaw_rate",
             *(f"removed_{key}" for key in REMOVED_CONFIG_KEYS)],
    )
    def test_bad_scenario_number_names_the_file(self, tmp_path, capsys, setting, row,
                                                message):
        scn = tmp_path / "bad.scn"
        scn.write_text(
            f"name = bad\n{setting}\n[profile]\nduration_s,vx,vy,wz,mode\n"
            f"2,0.06,0,0,skid_steer\n{row}\n"
        )
        code = run(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {scn}{message}")
        assert not (tmp_path / "out" / "telemetry.csv").exists()

    def test_non_finite_output_names_the_scenario(self, tmp_path, capsys):
        # velocities whose energy is not finite are refused as inputs, at
        # their line, with no numpy warning first and before --out is made
        for vx, value in [(1e308, "1e+308"), (1e300, "1e+300"), (1e152, "1e+152")]:
            scn = tmp_path / "bad.scn"
            write_scenario(scn, duration=0.05, vx=vx)
            out = tmp_path / "out"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(["simulate", "--scenario", str(scn), "--out", str(out)])
            assert code == EXIT_DATA
            assert capsys.readouterr().err == (
                f"error: {scn}:4: vx = {value} outside [-10, 10]\n")
            assert not out.exists()

    @pytest.mark.parametrize("radius, message", [
        # a drive speed of 0.06 / 1e-300 rad/s: the telemetry is refused
        ("1e-300", "output speed_fl = 6e+298 outside [-1e12, 1e12]"),
        # a drive speed that overflows: the summary is refused first
        ("1e-320", "output energy_j = nan outside [-1e12, 1e12]"),
    ], ids=["radius_1e-300", "radius_1e-320"])
    def test_output_beyond_the_limit_names_the_scenario(self, tmp_path, capsys,
                                                         radius, message):
        scn = tmp_path / "bad.scn"
        write_scenario(scn, duration=0.05)
        scn.write_text(f"config.wheel_radius = {radius}\n" + scn.read_text())
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["simulate", "--scenario", str(scn), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {scn}: {message}\n"
        assert not out.exists()


class TestAnalyze:
    @pytest.fixture
    def telemetry(self, tmp_path):
        scn = tmp_path / "run.scn"
        write_scenario(scn, duration=30.0)
        out = tmp_path / "sim"
        run(["simulate", "--scenario", str(scn), "--out", str(out)])
        return out / "telemetry.csv"

    def test_cot_prints_value(self, telemetry, tmp_path, capsys):
        code = run(
            ["analyze", "cot", "--telemetry", str(telemetry), "--out", str(tmp_path / "m")]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out.strip()
        # calibrated model value; measured table reads 1.10 (fit residual 0.005)
        assert printed == "cot=1.095"
        with open(tmp_path / "m" / "cot.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["table2_cot"]) == pytest.approx(1.10, abs=0.01)

    def test_efficiency_and_slip(self, telemetry, tmp_path, capsys):
        for metric, out_file in (("efficiency", "efficiency.csv"), ("slip", "slip.csv")):
            code = run(
                ["analyze", metric, "--telemetry", str(telemetry),
                 "--out", str(tmp_path / metric)]
            )
            assert code == EXIT_OK
            assert (tmp_path / metric / out_file).exists()
        printed = capsys.readouterr().out
        assert "mean_slip=0.050" in printed

    @pytest.mark.parametrize("metric, twist, printed", [
        ("efficiency", "0.06,0,0", "mean_ratio=\n"),  # a straight run turns at no rate
        ("slip", "0,0,0.2", "mean_slip=\n"),  # a turn on the spot moves at no speed
    ])
    def test_an_undefined_mean_prints_empty(self, tmp_path, capsys, metric, twist,
                                            printed):
        scenario = tmp_path / "run.scn"
        scenario.write_text("name = cli_demo\n[profile]\nduration_s,vx,vy,wz,mode\n"
                            f"5,{twist},skid_steer\n")
        sim, out = tmp_path / "sim", tmp_path / metric
        assert run(["simulate", "--scenario", str(scenario), "--out", str(sim)]) == EXIT_OK
        capsys.readouterr()
        argv = ["analyze", metric, "--telemetry", str(sim / "telemetry.csv")]
        assert run(argv + ["--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == printed
        # every sample is a gap, as in the series file
        rows = (out / f"{metric}.csv").read_text().splitlines()[1:]
        assert rows and all(row.split(",", 1)[1].strip(",") == "" for row in rows)

    def test_yaw_energy(self, telemetry, tmp_path):
        code = run(
            ["analyze", "yaw-energy", "--telemetry", str(telemetry),
             "--out", str(tmp_path / "ye")]
        )
        assert code == EXIT_OK
        header = (tmp_path / "ye" / "yaw_energy.csv").read_text().splitlines()[0]
        assert header == "fig3_yaw_deg,fig3_energy_j"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run(
            ["analyze", "cot", "--telemetry", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
             "3: expected 36 columns, got 35"),
            (lambda lines: lines[:3] + ["abc" + lines[3][lines[3].index(","):]]
             + lines[4:], "4: non-numeric t 'abc'"),
            # the blank row is skipped, and the late row named at its own line
            (lambda lines: lines[:4] + [""] + lines[4:] + [lines[1]],
             "3004: non-increasing timestamp"),
            (lambda lines: lines + [lines[1]], "3003: non-increasing timestamp"),
        ],
        ids=["short_row", "non_numeric", "blank_line", "non_increasing_time"],
    )
    def test_malformed_telemetry_names_line(self, telemetry, tmp_path, capsys,
                                            damage, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(damage(telemetry.read_text().splitlines())) + "\n")
        code = run(["analyze", "cot", "--telemetry", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}:{message}\n"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_is_data_error(self, telemetry, tmp_path, capsys,
                                                cell):
        lines = telemetry.read_text().splitlines(keepends=True)
        lines[2] = cell + lines[2][lines[2].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        code = run(["analyze", "efficiency", "--telemetry", str(bad),
                    "--out", str(tmp_path / "eff")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}:3: non-finite t '{cell}'\n"
        assert not (tmp_path / "eff").exists()

    @staticmethod
    def with_cell(telemetry, rows, line, column, text):
        """A copy of the first `rows` rows of `telemetry` whose `column` at
        `line` is `text`: a fixed-layout file but for that cell, which sends
        it to the row reader."""
        lines = telemetry.read_text().splitlines(keepends=True)[: rows + 1]
        cells = lines[line - 1].split(",")
        cells[TELEMETRY_HEADER.index(column)] = text
        lines[line - 1] = ",".join(cells)
        bad = telemetry.parent.parent / "bad.csv"
        bad.write_text("".join(lines))
        return bad

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_data_error(self, telemetry, tmp_path, capsys, cell):
        bad = self.with_cell(telemetry, 3001, 4, "odo_vx", cell)
        out = tmp_path / "out"
        code = run(["analyze", "slip", "--telemetry", str(bad), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}:4: non-finite odo_vx '{cell}'\n"
        assert not out.exists()

    def test_a_huge_finite_cell_is_read(self, telemetry, tmp_path, capsys):
        bad = self.with_cell(telemetry, 3001, 4, "odo_vx", "1e308")
        out = tmp_path / "out"
        code = run(["analyze", "slip", "--telemetry", str(bad), "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("mean_slip=")

    def test_non_finite_output_names_the_telemetry(self, telemetry, tmp_path, capsys):
        # a finite drive current whose power, and so energy, is not
        bad = self.with_cell(telemetry, 6, 3, "i_drive_fl", "1e308")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["analyze", "yaw-energy", "--telemetry", str(bad),
                        "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr() == (
            "", f"error: {bad}: output fig3_energy_j = inf outside [-1e12, 1e12]\n")
        assert not out.exists()

    @pytest.mark.parametrize("source, message", [
        ("header_only", "insufficient samples"),
        ("rotation_skid", "undefined at zero velocity"),
        ("rotation_point_turn", "undefined at zero velocity"),
    ], ids=["header_only", "rotation_preset", "rotation_point_turn_preset"])
    def test_cot_undefined_on_the_telemetry_is_data_error(self, telemetry, tmp_path,
                                                          capsys, source, message):
        if source == "header_only":
            bad = tmp_path / "header.csv"
            bad.write_text(telemetry.read_text().splitlines()[0] + "\n")
        else:  # a rotation in place has no mean speed to divide by
            assert run(["simulate", "--scenario", str(preset_path(source)),
                        "--out", str(tmp_path / "sim")]) == EXIT_OK
            bad = tmp_path / "sim" / "telemetry.csv"
        out = tmp_path / "out"
        code = run(["analyze", "cot", "--telemetry", str(bad), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows", [0, 1])
    def test_slip_on_too_few_rows_is_data_error(self, telemetry, tmp_path, capsys,
                                                rows):
        short = tmp_path / "short.csv"
        short.write_text("".join(telemetry.read_text().splitlines(True)[: 1 + rows]))
        out = tmp_path / "out"
        code = run(["analyze", "slip", "--telemetry", str(short), "--out", str(out)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {short}: insufficient samples\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("masss = 42\n", "unknown keys: masss"),
            ("mass = heavy\n", "non-numeric mass 'heavy'"),
            ("mass = nan\n", "non-finite mass 'nan'"),
            ("steering_rate = inf\n", "non-finite steering_rate 'inf'"),
            ("mass = -1\n", "mass = -1.0 outside (0, 10000]"),
            *[(f"{key} = 1\n", f"unknown keys: {key}")
              for key in REMOVED_CONFIG_KEYS],
        ],
        ids=["unknown_key", "non_numeric", "nan", "inf", "invalid",
             *(f"removed_{key}" for key in REMOVED_CONFIG_KEYS)],
    )
    def test_bad_config_names_the_file(self, telemetry, tmp_path, capsys, text,
                                       message):
        config = tmp_path / "rover.cfg"
        config.write_text(text)
        code = run(["analyze", "cot", "--telemetry", str(telemetry),
                    "--config", str(config), "--out", str(tmp_path / "m")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {config}: {message}\n"

    def test_cot_of_a_vanishing_mass_names_the_telemetry(self, telemetry, tmp_path,
                                                         capsys):
        # m g v of the 5e-324 kg rover is 5e-324, so P / (m g v) overflows
        config = tmp_path / "rover.cfg"
        config.write_text("mass = 5e-324\n")
        out = tmp_path / "out"
        code = run(["analyze", "cot", "--telemetry", str(telemetry),
                    "--config", str(config), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {telemetry}: P / (m g v) = ")
        assert err.endswith(" / 5e-324 is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("metric, output", [
        ("yaw-energy", "yaw_energy.csv"), ("efficiency", "efficiency.csv"),
        ("slip", "slip.csv")])
    def test_only_cot_reads_the_config(self, telemetry, tmp_path, capsys, metric, output):
        config = tmp_path / "rover.cfg"
        config.write_text("mass = -1\n")
        written = []
        for extra in ([], ["--config", str(config)]):
            out = tmp_path / f"m{len(written)}"
            code = run(["analyze", metric, "--telemetry", str(telemetry),
                        "--out", str(out), *extra])
            assert code == EXIT_OK
            written.append(((out / output).read_bytes(), capsys.readouterr()))
        assert written[0] == written[1]

    def test_bad_metric_is_usage_error(self, telemetry, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["analyze", "wrong", "--telemetry", str(telemetry)])
        assert excinfo.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "metric, flag, value, kind",
        [
            ("cot", "--slope", "nan", "finite"),
            ("cot", "--slope", "inf", "finite"),
            ("cot", "--slope", "abc", "finite"),
            ("efficiency", "--window", "nan", "finite positive"),
            ("efficiency", "--window", "inf", "finite positive"),
            ("efficiency", "--window", "0", "finite positive"),
            ("efficiency", "--window", "-3", "finite positive"),
            # finite and positive, so the parser takes it, but longer than the
            # series: the metric refuses it as a data error
            ("efficiency", "--window", "1e308", None),
        ],
        ids=["nan_slope", "inf_slope", "non_numeric_slope", "nan_window",
             "inf_window", "zero_window", "negative_window", "window_past_the_series"],
    )
    def test_bad_number_is_usage_error(self, telemetry, tmp_path, capsys, metric,
                                       flag, value, kind):
        argv = ["analyze", metric, "--telemetry", str(telemetry),
                "--out", str(tmp_path / "m"), flag, value]
        if kind is None:
            assert run(argv) == EXIT_DATA
            err = capsys.readouterr().err
            assert err == f"error: {telemetry}: smoothing window longer than the series\n"
        else:
            with pytest.raises(SystemExit) as excinfo:
                run(argv)
            assert excinfo.value.code == EXIT_USAGE
            err = capsys.readouterr().err
            message = f"expected a {kind} number, got {value!r}"
            assert err.endswith(f"error: argument {flag}: {message}\n")
        assert not (tmp_path / "m").exists()


class TestDeflect:
    def test_fixture_pipeline(self, tmp_path, capsys):
        code = run(
            [
                "deflect",
                "--annotations", str(FIXTURE_DIR / "annotations.csv"),
                "--model", str(FIXTURE_DIR / "model.txt"),
                "--camera", str(FIXTURE_DIR / "camera.txt"),
                "--out", str(tmp_path),
                "--window", "3",
            ]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "frames=30" in printed
        with open(tmp_path / "deflection.csv") as handle:
            rows = list(csv.DictReader(handle))
        peak = max(float(r["fraction"]) for r in rows)
        assert peak < 0.065
        assert (tmp_path / "deflection_smoothed.csv").exists()

    def test_fixture_fractions_match_oracle_bytes(self, tmp_path):
        code = run(
            [
                "deflect",
                "--annotations", str(FIXTURE_DIR / "annotations.csv"),
                "--model", str(FIXTURE_DIR / "model.txt"),
                "--camera", str(FIXTURE_DIR / "camera.txt"),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_OK

        def columns(path):
            with open(path, newline="") as handle:
                return [(row[0], row[-1]) for row in csv.reader(handle)]

        written = columns(tmp_path / "deflection.csv")
        assert written[0] == ("frame", "fraction")
        assert written == columns(FIXTURE_DIR / "oracle.csv")

    def test_corrupt_annotations_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "annotations.csv"
        bad.write_text("frame,nope\n")
        code = run(
            [
                "deflect",
                "--annotations", str(bad),
                "--model", str(FIXTURE_DIR / "model.txt"),
                "--camera", str(FIXTURE_DIR / "camera.txt"),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "name, edit, where",
        [
            ("camera.txt", lambda text: text.replace("fx = 800.0", "fx = eight"),
             "camera.txt: non-numeric fx 'eight'"),
            ("camera.txt", lambda text: text.replace("width = 1280", "width = 1280.9"),
             "camera.txt: width = 1280.9 is not an integer"),
            ("model.txt", lambda text: text.replace("hub_radius = 0.05\n", ""),
             "model.txt: missing keys: hub_radius"),
            ("annotations.csv", lambda text: text.replace(":", ";", 1),
             "annotations.csv:2: loop point '850.142652' is not u:v"),
            ("annotations.csv", lambda text: text.replace("\n1,", "\nx0,", 1),
             "annotations.csv:3: non-numeric frame 'x0'"),
            ("annotations.csv",
             lambda text: text.replace("850.142652:406.666085", "nan:nan", 1),
             "annotations.csv:2: non-finite inboard_loop 'nan'"),
            ("annotations.csv", lambda text: text.replace("892.376577", "inf", 1),
             "annotations.csv:2: non-finite chord_x2 'inf'"),
            ("model.txt", lambda text: text.replace("hub_radius = 0.05", "hub_radius = 0.5"),
             "model.txt: hub radius must be in (0, radius)"),
            ("camera.txt", lambda text: text.replace("cx = 640.0", "cx = 99999"),
             "camera.txt: principal point outside image"),
        ],
        ids=["camera_value_not_a_number", "camera_size_not_an_integer",
             "model_key_missing", "loop_point_without_colon", "frame_not_an_integer",
             "loop_point_nan", "chord_end_inf", "hub_radius_too_large",
             "principal_point_outside"],
    )
    # a warning on the way to the error fails the test
    @pytest.mark.filterwarnings("error")
    def test_bad_input_names_the_file(self, tmp_path, capsys, name, edit, where):
        paths = {}
        for fixture_name in ("annotations.csv", "model.txt", "camera.txt"):
            paths[fixture_name] = tmp_path / fixture_name
            text = (FIXTURE_DIR / fixture_name).read_text()
            paths[fixture_name].write_text(edit(text) if fixture_name == name else text)
        assert paths[name].read_text() != (FIXTURE_DIR / name).read_text()
        code = run(
            [
                "deflect",
                "--annotations", str(paths["annotations.csv"]),
                "--model", str(paths["model.txt"]),
                "--camera", str(paths["camera.txt"]),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(tmp_path) in err and where in err
        assert not (tmp_path / "out" / "deflection.csv").exists()

    @pytest.mark.parametrize("missing, named", [
        (["model.txt"], "model.txt"),
        (["camera.txt"], "camera.txt"),
        (["annotations.csv"], "annotations.csv"),
        # the first missing file in the order they load: model, camera, annotations
        (["annotations.csv", "camera.txt"], "camera.txt"),
    ])
    def test_missing_input_is_data_error(self, tmp_path, capsys, missing, named):
        paths = {name: str((tmp_path if name in missing else FIXTURE_DIR) / name)
                 for name in ("annotations.csv", "model.txt", "camera.txt")}
        code = run(
            [
                "deflect",
                "--annotations", paths["annotations.csv"],
                "--model", paths["model.txt"],
                "--camera", paths["camera.txt"],
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: no such file: {paths[named]}\n"
        assert not (tmp_path / "out").exists()

    def test_point_far_outside_the_image_fails_its_frame(self, tmp_path, capsys):
        lines = (FIXTURE_DIR / "annotations.csv").read_text().splitlines()[:3]
        row = lines[1].split(",")
        loop = row[3].split(";")
        loop[0] = "-1e308:" + loop[0].split(":")[1]
        row[3] = ";".join(loop)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text("\n".join([lines[0], ",".join(row), lines[2]]) + "\n")
        code = run(["deflect", "--annotations", str(annotations),
                    "--model", str(FIXTURE_DIR / "model.txt"),
                    "--camera", str(FIXTURE_DIR / "camera.txt"),
                    "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            f"numerical failure: {annotations}: frame 0: pose fit did not converge: "
            "rms inf px after 1 evaluations (residual not finite)\n")
        assert not (tmp_path / "out").exists()

    def test_refusal_inside_a_frame_names_the_file_and_frame(self, tmp_path, capsys):
        # an inboard point far off makes the loop's apparent radius overflow
        lines = (FIXTURE_DIR / "annotations.csv").read_text().splitlines()[:3]
        row = lines[1].split(",")
        loop = row[2].split(";")
        loop[0] = "-1e308:" + loop[0].split(":")[1]
        row[2] = ";".join(loop)
        annotations = tmp_path / "annotations.csv"
        annotations.write_text("\n".join([lines[0], ",".join(row), lines[2]]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["deflect", "--annotations", str(annotations),
                        "--model", str(FIXTURE_DIR / "model.txt"),
                        "--camera", str(FIXTURE_DIR / "camera.txt"),
                        "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {annotations}: frame 0: degenerate loop\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", ["0", "-3", "2"])
    def test_bad_window_is_data_error(self, tmp_path, capsys, window):
        annotations = tmp_path / "annotations.csv"
        first_frame = (FIXTURE_DIR / "annotations.csv").read_text().splitlines()[:2]
        annotations.write_text("\n".join(first_frame) + "\n")
        code = run(
            [
                "deflect",
                "--annotations", str(annotations),
                "--model", str(FIXTURE_DIR / "model.txt"),
                "--camera", str(FIXTURE_DIR / "camera.txt"),
                "--out", str(tmp_path),
                "--window", window,
            ]
        )
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: window must be odd and >= 1\n"
        assert not (tmp_path / "deflection_smoothed.csv").exists()
        assert not (tmp_path / "deflection.csv").exists()

    def test_failed_fit_names_frame(self, tmp_path, capsys, monkeypatch):
        def failing_fit(loops, model, cam):
            raise deflection.PoseFitError(None, 8.8, 1200, "max_nfev reached")

        monkeypatch.setattr(deflection, "fit_wheel_pose", failing_fit)
        code = run(
            [
                "deflect",
                "--annotations", str(FIXTURE_DIR / "annotations.csv"),
                "--model", str(FIXTURE_DIR / "model.txt"),
                "--camera", str(FIXTURE_DIR / "camera.txt"),
                "--out", str(tmp_path),
            ]
        )
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {FIXTURE_DIR / 'annotations.csv'}: "
                              "frame 0: pose fit did not converge")
        assert "rms 8.8 px after 1200 evaluations (max_nfev reached)" in err
        assert not (tmp_path / "deflection.csv").exists()


def test_report_with_a_failed_fit_leaves_no_out(tmp_path, capsys, monkeypatch):
    # report fits the fixture after it has simulated and analysed every
    # preset; a fit that fails there still leaves none of its 16 files
    def failing_fit(loops, model, cam):
        raise deflection.PoseFitError(None, 8.8, 1200, "max_nfev reached")

    monkeypatch.setattr(deflection, "fit_wheel_pose", failing_fit)
    out = tmp_path / "report"
    assert run(["report", "--out", str(out)]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"numerical failure: {FIXTURE_DIR / 'annotations.csv'}: "
        "frame 0: pose fit did not converge")
    assert not out.exists()


def test_report_with_a_refused_value_leaves_no_out(tmp_path, capsys, monkeypatch):
    # every telemetry and figure series is checked before the first file is
    # opened, so a fig3 value refused after ten clean telemetries leaves none
    import numpy as np

    from rovermotion import metrics

    monkeypatch.setattr(metrics, "energy_vs_yaw", lambda telemetry: np.full((2, 2), np.nan))
    out = tmp_path / "report"
    assert run(["report", "--out", str(out)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: output fig3_yaw_deg = nan outside [-1e12, 1e12]\n"
    assert not out.exists()


class TestCalibrate:
    def test_flat_only(self, tmp_path, capsys):
        table = (
            Path(__file__).resolve().parents[1]
            / "src" / "rovermotion" / "data" / "cot_measurements.csv"
        )
        code = run(
            ["calibrate", "--table", str(table), "--flat-only",
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "rows=3" in printed
        params = (tmp_path / "power_params.txt").read_text()
        assert "rolling_resistance_coeff = 0.201" in params

    @pytest.mark.parametrize(
        "row, flat_only, message",
        [
            ("nominal,0,fast,1.1", False, "non-numeric velocity 'fast'"),
            ("nominal,0,0.06", False, "expected 4 columns, got 3"),
            ("nominal,flat,0.06,1.1", True, "non-numeric slope_deg 'flat'"),
            ("nominal,nan,0.06,1.1", False, "non-finite slope_deg 'nan'"),
            ("nominal,0,inf,1.1", False, "non-finite velocity 'inf'"),
            ("nominal,0,0.06,-inf", True, "non-finite cot '-inf'"),
            ("nominal,0,0,1.1", False, "velocity = 0.0 outside (0, 10]"),
            ("nominal,0,-0.06,1.1", True, "velocity = -0.06 outside (0, 10]"),
            ("nominal,0,0.06,1e308", False, "cot = 1e+308 outside [0, 100]"),
            # checked whether or not --flat-only would fit the row
            ("slope_up,95,0.06,1.1", True, "slope_deg = 95.0 outside (-90, 90)"),
        ],
        ids=["non_numeric", "short_row", "flat_only_non_numeric_slope", "nan_slope",
             "inf_velocity", "flat_only_inf_cot", "zero_velocity",
             "flat_only_negative_velocity", "cot_1e308", "flat_only_slope_95"],
    )
    def test_bad_row_names_the_line(self, tmp_path, capsys, row, flat_only, message):
        table = tmp_path / "table.csv"
        table.write_text(
            "mode,slope_deg,velocity,cot\nnominal,0,0.03,0.646\n"
            f"nominal,0,0.06,1.10\n{row}\nnominal,0,0.08,1.39\n"
        )
        args = ["calibrate", "--table", str(table), "--out", str(tmp_path / "out")]
        code = run(args + ["--flat-only"] * flat_only)
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {table}:4: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, config, message", [
        ("nominal,0,1e308,1.1", "", ":4: velocity = 1e+308 outside (0, 10]"),
        ("nominal,0,0.08,1.39", "mass = 5e-324\n",
         ": calibration terms out of floating-point range")],
        ids=["velocity_1e308", "config_mass_5e-324"])
    def test_terms_out_of_range_name_the_table(self, tmp_path, capsys, row, config,
                                               message):
        table = tmp_path / "table.csv"
        table.write_text("mode,slope_deg,velocity,cot\nnominal,0,0.03,0.646\n"
                         f"nominal,0,0.06,1.10\n{row}\n")
        args = ["calibrate", "--table", str(table), "--out", str(tmp_path / "out")]
        if config:
            (tmp_path / "rover.cfg").write_text(config)
            args += ["--config", str(tmp_path / "rover.cfg")]
        assert run(args) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {table}{message}\n"
        assert not (tmp_path / "out").exists()

    def test_underdetermined_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "short.csv"
        table.write_text("mode,slope_deg,velocity,cot\nnominal,0,0.06,1.1\n")
        code = run(["calibrate", "--table", str(table), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {table}: underdetermined calibration\n"


class TestInputAndOutputPaths:
    INPUT_FLAGS = ["simulate --scenario", "analyze --telemetry", "analyze --config",
                   "calibrate --table", "calibrate --config", "deflect --model",
                   "deflect --camera", "deflect --annotations"]

    @pytest.fixture
    def inputs(self, tmp_path):
        """A valid input file for each flag in INPUT_FLAGS."""
        scenario = tmp_path / "run.scn"
        write_scenario(scenario, duration=1.0)
        sim = tmp_path / "sim"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(sim)]) == EXIT_OK
        config = tmp_path / "rover.cfg"
        config.write_text("mass = 84\n")
        return {
            "simulate": {"--scenario": scenario},
            "analyze": {"--telemetry": sim / "telemetry.csv", "--config": config},
            "calibrate": {"--table": SRC / "rovermotion" / "data" / "cot_measurements.csv",
                          "--config": config},
            "deflect": {f"--{name}": FIXTURE_DIR / f"{name}.{ext}" for name, ext in
                        (("model", "txt"), ("camera", "txt"), ("annotations", "csv"))},
        }

    @staticmethod
    def argv(inputs, flag, path, out):
        """The arguments of `flag`'s command with `path` given to `flag`."""
        command, name = flag.split()
        files = {**inputs[command], name: path}
        metric = ["cot"] if command == "analyze" else []
        pairs = [str(arg) for pair in files.items() for arg in pair]
        return [command, *metric, *pairs, "--out", str(out)]

    @pytest.mark.parametrize("flag", INPUT_FLAGS)
    def test_directory_input_is_data_error(self, inputs, tmp_path, capsys, flag):
        directory = tmp_path / "a_directory"
        directory.mkdir()
        code = run(self.argv(inputs, flag, directory, tmp_path / "out"))
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: not a file: {directory}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", INPUT_FLAGS)
    def test_non_utf8_input_is_data_error(self, inputs, tmp_path, capsys, flag):
        command, name = flag.split()
        bad = tmp_path / "not_utf8"
        bad.write_bytes(inputs[command][name].read_bytes() + b"# \xff\n")
        code = run(self.argv(inputs, flag, bad, tmp_path / "out"))
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["simulate --scenario", "analyze --telemetry"])
    @pytest.mark.parametrize("where, reason", [
        ("out", "File exists"), ("out/sub", "Not a directory")])
    def test_out_at_or_under_a_file_is_data_error(self, inputs, tmp_path, capsys,
                                                  flag, where, reason):
        (tmp_path / "out").write_text("a file\n")
        out = tmp_path / where
        command, name = flag.split()
        code = run(self.argv(inputs, flag, inputs[command][name], out))
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: cannot make output directory {out}: {reason}\n")

    # (an input flag of the command, its metric or extra arguments, a file it writes)
    OUTPUTS = [
        ("simulate --scenario", [], "telemetry.csv"),
        ("simulate --scenario", [], "summary.txt"),
        *(("analyze --telemetry", [metric], name) for metric, name in [
            ("cot", "cot.csv"), ("yaw-energy", "yaw_energy.csv"),
            ("efficiency", "efficiency.csv"), ("slip", "slip.csv")]),
        ("deflect --model", [], "deflection.csv"),
        ("deflect --model", ["--window", "3"], "deflection_smoothed.csv"),
        ("calibrate --table", [], "power_params.txt"),
        ("calibrate --table", [], "calibration_residuals.csv"),
        # the temporary file an output is written through before it is renamed
        ("simulate --scenario", [], "telemetry.csv.tmp"),
    ]

    @pytest.mark.parametrize("flag, extra, name", OUTPUTS,
                             ids=[name for _, _, name in OUTPUTS])
    def test_directory_at_an_output_name_is_data_error(self, inputs, tmp_path, capsys,
                                                       flag, extra, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        command, option = flag.split()
        argv = self.argv(inputs, flag, inputs[command][option], out)
        if command == "analyze":
            argv[1] = extra[0]
        else:
            argv += extra
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: is a directory: {out / name}\n"
        assert [path.name for path in out.iterdir()] == [name]

    def test_a_write_that_fails_partway_keeps_the_previous_file(
            self, tmp_path, capsys, monkeypatch):
        from rovermotion import telemetry

        scenario, out = tmp_path / "run.scn", tmp_path / "out"
        write_scenario(scenario, duration=1.0)
        argv = ["simulate", "--scenario", str(scenario), "--out", str(out)]
        assert run(argv) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        write_chunk = telemetry._write_chunk

        def write_then_fail(handle, values, blank, work):
            write_chunk(handle, values, blank, work)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(telemetry, "_write_chunk", write_then_fail)
        assert run(argv) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'telemetry.csv'}: No space left on device\n")
        # the first run's telemetry.csv and summary.txt, and no telemetry.csv.tmp
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


SCIPY_GUARD = """
import sys
from pathlib import Path

from rovermotion.cli import main, preset_path

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

out, fixture, table = (Path(arg) for arg in sys.argv[1:])
sim = out / "sim"
annotations = out / "annotations.csv"
lines = (fixture / "annotations.csv").read_text().splitlines()
annotations.write_text("\\n".join(lines[:3]) + "\\n")
commands = [
    ["simulate", "--scenario", str(preset_path("nominal_0_6cm")), "--out", str(sim)],
    *(["analyze", metric, "--telemetry", str(sim / "telemetry.csv"),
       "--out", str(out / metric)] for metric in ("cot", "yaw-energy", "efficiency", "slip")),
    ["calibrate", "--table", str(table), "--out", str(out / "cal")],
    ["deflect", "--annotations", str(annotations), "--model", str(fixture / "model.txt"),
     "--camera", str(fixture / "camera.txt"), "--out", str(out / "defl")],
    ["report", "--out", str(out / "report")],
]
assert not scipy_loaded(), "import rovermotion.cli"
for argv in commands:
    assert main(argv) == 0, argv
    assert not scipy_loaded(), argv
print("ok")
"""


def python_env(**changes):
    """The environment of a fresh interpreter that imports this checkout's
    package, with `changes` applied; a change to None removes the variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for name, value in changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run_python(code, *args, **env):
    """Run `code` in a fresh interpreter under python_env(**env); its stdout,
    once it exits 0."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=python_env(**env), timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_no_command_loads_scipy(tmp_path):
    stdout = run_python(SCIPY_GUARD, str(tmp_path), str(FIXTURE_DIR),
                        str(SRC / "rovermotion" / "data" / "cot_measurements.csv"))
    assert stdout.splitlines()[-1] == "ok"


SIMULATOR_GUARD = """
import sys

from rovermotion.cli import main

SIMULATOR = ("rovermotion.terrain", "rovermotion.kinematics")

def simulator_loaded():
    return [name for name in SIMULATOR if name in sys.modules]

telemetry, scenario, out = sys.argv[1:]
assert not simulator_loaded(), "import rovermotion.cli"
assert "rovermotion.metrics" not in sys.modules, "import rovermotion.cli"
for metric in ("cot", "yaw-energy", "efficiency", "slip"):
    assert main(["analyze", metric, "--telemetry", telemetry,
                 "--out", f"{out}/{metric}"]) == 0
    assert not simulator_loaded(), metric
assert main(["simulate", "--scenario", scenario, "--out", f"{out}/simulate"]) == 0
assert simulator_loaded() == list(SIMULATOR)
print("ok")
"""


def test_analyze_does_not_load_the_simulator(tmp_path):
    assert run(["simulate", "--scenario", str(preset_path("nominal_0_6cm")),
                "--out", str(tmp_path / "sim")]) == 0
    stdout = run_python(SIMULATOR_GUARD, str(tmp_path / "sim" / "telemetry.csv"),
                        str(preset_path("nominal_0_6cm")), str(tmp_path))
    assert stdout.splitlines()[-1] == "ok"


START_UP_GUARD = """
import sys

from rovermotion.cli import main

def loaded():
    package = sorted(name for name in sys.modules if name.split(".")[0] == "rovermotion")
    return package, "numpy" in sys.modules

BARE = (["rovermotion", "rovermotion.cli", "rovermotion.errors"], False)
assert loaded() == BARE, ("import rovermotion.cli", loaded())
missing, directory, a_file, taken = sys.argv[1:]
for argv, code in [
    (["--help"], 0),
    (["analyze", "bogus", "--telemetry", missing], 1),
    (["deflect", "--annotations", missing, "--model", missing, "--camera", missing,
      "--out", missing, "--window", "2"], 2),
    (["deflect", "--annotations", missing, "--model", missing, "--camera", missing,
      "--out", missing, "--window", "1"], 2),
    (["simulate", "--scenario", missing, "--out", missing], 2),
    (["analyze", "cot", "--telemetry", missing, "--out", missing], 2),
    (["calibrate", "--table", missing, "--out", missing], 2),
    (["simulate", "--scenario", directory, "--out", missing], 2),
    (["analyze", "cot", "--telemetry", directory, "--out", missing], 2),
    (["calibrate", "--table", directory, "--out", missing], 2),
    (["deflect", "--annotations", directory, "--model", directory,
      "--camera", directory, "--out", missing], 2),
    (["simulate", "--scenario", a_file, "--out", taken], 2),
    (["analyze", "slip", "--telemetry", a_file, "--out", taken], 2),
    (["calibrate", "--table", a_file, "--out", taken], 2),
    (["deflect", "--annotations", a_file, "--model", a_file, "--camera", a_file,
      "--out", taken], 2),
    (["report", "--out", taken], 2),
]:
    try:
        result = main(argv)
    except SystemExit as exc:
        result = exc.code
    assert result == code, (argv, result)
    assert loaded() == BARE, (argv, loaded())
print("ok")
"""


def test_usage_and_input_errors_load_neither_numpy_nor_a_command(tmp_path):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    taken = tmp_path / "taken"  # a directory at an output name of each command
    for name in ("summary.txt", "slip.csv", "power_params.txt", "deflection.csv",
                 "table2.csv"):
        (taken / name).mkdir(parents=True)
    stdout = run_python(START_UP_GUARD, str(tmp_path / "missing"), str(tmp_path),
                        str(a_file), str(taken))
    assert stdout.splitlines()[-1] == "ok"
    assert not (tmp_path / "missing").exists()


LOADED_GUARD = """
import sys

from rovermotion.cli import main

assert main(sys.argv[1:]) == 0
print(" ".join(name for name in ("numpy.random", "numpy.ma") if name in sys.modules))
"""


def modules_loaded_by(args):
    """The optional numpy packages (numpy.random, numpy.ma) a CLI command loads."""
    return run_python(LOADED_GUARD, *args).split()


def test_noiseless_simulate_does_not_load_numpy_random(tmp_path):
    loaded = modules_loaded_by(["simulate", "--scenario",
                                str(preset_path("rotation_skid")),
                                "--out", str(tmp_path / "sim")])
    assert "numpy.random" not in loaded


def test_noisy_simulate_loads_numpy_random(tmp_path):
    scenario = tmp_path / "noisy.scn"
    write_scenario(scenario)
    scenario.write_text(scenario.read_text().replace(
        "[profile]", "terrain.noise_std = 0.02\nterrain.rng_seed = 3\n[profile]"))
    loaded = modules_loaded_by(["simulate", "--scenario", str(scenario),
                                "--out", str(tmp_path / "sim")])
    assert "numpy.random" in loaded


def test_analyze_efficiency_does_not_load_numpy_ma(tmp_path):
    assert run(["simulate", "--scenario", str(preset_path("rotation_skid")),
                "--out", str(tmp_path / "sim")]) == 0
    loaded = modules_loaded_by(["analyze", "efficiency", "--telemetry",
                                str(tmp_path / "sim" / "telemetry.csv"),
                                "--out", str(tmp_path / "eff")])
    assert "numpy.ma" not in loaded


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run([])
    assert excinfo.value.code == EXIT_USAGE


def test_preset_catalog_resolves():
    for name in PRESET_NAMES + ROTATION_PRESETS:
        assert preset_path(name).exists()


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                "PYTHONIOENCODING": None}

UTF8_GUARD = """
import locale
import sys

from rovermotion.cli import main

scenario, out = sys.argv[1:]
assert locale.getpreferredencoding(False).lower() not in ("utf-8", "utf8")
assert main(["simulate", "--scenario", scenario, "--out", out]) == 0
assert main(["analyze", "cot", "--telemetry", f"{out}/telemetry.csv",
             "--label", "caf\\u00e9", "--out", out]) == 0
print("ok")
"""


def test_text_outputs_are_utf8_under_an_ascii_locale(tmp_path):
    scenario = tmp_path / "cafe.scn"
    write_scenario(scenario, duration=2.0)
    scenario.write_text(scenario.read_text().replace("cli_demo", "caf\u00e9"),
                        encoding="utf-8")
    out = tmp_path / "out"
    stdout = run_python(UTF8_GUARD, str(scenario), str(out), **ASCII_LOCALE)
    assert stdout.splitlines()[-1] == "ok"
    assert (out / "summary.txt").read_bytes().startswith(
        "scenario = caf\u00e9\nrecords = 201\n".encode("utf-8"))
    assert (out / "cot.csv").read_bytes().splitlines()[1].startswith(
        "caf\u00e9,0.000000,".encode("utf-8"))


def test_an_undecodable_label_is_written_as_its_bytes(tmp_path):
    """Under an ASCII locale the UTF-8 bytes of `--label café` reach main() as
    surrogate escapes, and cot.csv holds those bytes, as under a UTF-8 locale."""
    sim = tmp_path / "sim"
    sim.mkdir()
    write_scenario(sim / "run.scn", duration=1.0)
    assert run(["simulate", "--scenario", str(sim / "run.scn"), "--out", str(sim)]) == 0
    written = []
    for name, locale in [("ascii", ASCII_LOCALE),
                         ("utf8", {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"})]:
        result = subprocess.run(
            [sys.executable, "-m", "rovermotion.cli", "analyze", "cot",
             "--telemetry", str(sim / "telemetry.csv"), "--out", str(tmp_path / name),
             "--label", "caf\u00e9".encode("utf-8")],
            capture_output=True, env=python_env(**locale), timeout=300,
        )
        assert result.returncode == EXIT_OK, result.stderr
        written.append((tmp_path / name / "cot.csv").read_bytes())
    assert written[0] == written[1]
    assert written[0].splitlines()[1].startswith("caf\u00e9,".encode("utf-8"))


BLAS_GUARD = """
import os
import sys

from rovermotion.cli import main

before = os.environ.get("OPENBLAS_NUM_THREADS")
assert main(["analyze", "cot", "--telemetry", sys.argv[1]]) == 2
print(before, os.environ["OPENBLAS_NUM_THREADS"])
"""


@pytest.mark.parametrize("before, after", [(None, "1"), ("3", "3")])
def test_main_pins_openblas_to_one_thread_unless_set(tmp_path, before, after):
    stdout = run_python(BLAS_GUARD, str(tmp_path / "missing.csv"),
                        OPENBLAS_NUM_THREADS=before)
    assert stdout.split() == [str(before), after]


def test_the_cli_process_matches_main_in_process(tmp_path, capsys, monkeypatch):
    """`python -m rovermotion.cli` ends through run()'s os._exit: with stdout a
    block-buffered pipe it prints, writes and exits as main() does."""
    cases = [
        ["simulate", "--scenario", str(preset_path("nominal_0_6cm")), "--out", "sim"],
        *(["analyze", metric, "--telemetry", "sim/telemetry.csv", "--out", metric]
          for metric in ("cot", "yaw-energy", "efficiency", "slip")),
        ["analyze", "slip", "--telemetry", "missing.csv"],
        ["analyze", "bogus", "--telemetry", "sim/telemetry.csv"],
        ["--help"],
    ]
    env = python_env(PYTHONUNBUFFERED=None, COLUMNS="80")  # --help wraps to COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    process, in_process = tmp_path / "process", tmp_path / "in_process"
    process.mkdir()
    in_process.mkdir()
    codes = []
    for argv in cases:
        result = subprocess.run([sys.executable, "-m", "rovermotion.cli", *argv],
                                cwd=process, env=env, capture_output=True, text=True,
                                timeout=300)
        monkeypatch.chdir(in_process)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (result.returncode, result.stdout, result.stderr) == (
            code, captured.out, captured.err), argv
        codes.append(code)
    assert codes == [EXIT_OK] * 5 + [EXIT_DATA, EXIT_USAGE, EXIT_OK]
    files = sorted(path.relative_to(process) for path in process.rglob("*.*"))
    assert files == sorted(path.relative_to(in_process) for path in in_process.rglob("*.*"))
    assert len(files) == 6  # telemetry.csv, summary.txt and one CSV per metric
    for name in files:
        assert (process / name).read_bytes() == (in_process / name).read_bytes(), name


def test_the_console_script_is_run():
    import importlib

    from rovermotion import cli

    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["rovermotion"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run

