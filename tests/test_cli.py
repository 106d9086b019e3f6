import csv
import os
import shutil
import subprocess
import sys
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

FIXTURE_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "rovermotion" / "data" / "deflection"
)


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
            ("1.0,abc,0,0,skid_steer", "could not convert string to float: 'abc'"),
            ("1.0,0.05,0", "expected 5 columns, got 3"),
            ("1.0,0.05,0,0,hover", "unknown locomotion mode 'hover'"),
        ],
        ids=["non_numeric", "short_row", "unknown_mode"],
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
             "3: wrong column count"),
            (lambda lines: lines[:3] + ["abc" + lines[3][lines[3].index(","):]]
             + lines[4:], "4: could not convert string to float: 'abc'"),
            (lambda lines: lines[:4] + [""] + lines[4:], "5: wrong column count"),
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

    def test_header_only_telemetry_is_data_error(self, telemetry, tmp_path, capsys):
        bad = tmp_path / "header.csv"
        bad.write_text(telemetry.read_text().splitlines()[0] + "\n")
        code = run(["analyze", "cot", "--telemetry", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: insufficient samples\n"

    def test_bad_metric_is_usage_error(self, telemetry, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["analyze", "wrong", "--telemetry", str(telemetry)])
        assert excinfo.value.code == EXIT_USAGE


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

    def test_failed_fit_names_frame(self, tmp_path, capsys, monkeypatch):
        def failing_fit(loops, model, cam, guess):
            raise deflection.PoseFitError(guess, 8.8, 1200, "max_nfev reached")

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
        assert err.startswith("numerical failure: frame 0: pose fit did not converge")
        assert "rms 8.8 px after 1200 evaluations (max_nfev reached)" in err
        assert not (tmp_path / "deflection.csv").exists()


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

    def test_underdetermined_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "short.csv"
        table.write_text("mode,slope_deg,velocity,cot\nnominal,0,0.06,1.1\n")
        code = run(["calibrate", "--table", str(table), "--out", str(tmp_path)])
        assert code == EXIT_DATA


SCIPY_GUARD = """
import sys
from pathlib import Path

from rovermotion.cli import main, preset_path

def scipy_loaded():
    return any(name.split(".")[0] == "scipy" for name in sys.modules)

out, fixture, table = (Path(arg) for arg in sys.argv[1:])
assert not scipy_loaded(), "import rovermotion.cli"
sim = out / "sim"
assert main(["simulate", "--scenario", str(preset_path("nominal_0_6cm")),
             "--out", str(sim)]) == 0
for metric in ("cot", "yaw-energy", "efficiency", "slip"):
    assert main(["analyze", metric, "--telemetry", str(sim / "telemetry.csv"),
                 "--out", str(out / metric)]) == 0
assert not scipy_loaded(), "simulate and analyze"
assert main(["calibrate", "--table", str(table), "--out", str(out / "cal")]) == 0
annotations = out / "annotations.csv"
lines = (fixture / "annotations.csv").read_text().splitlines()
annotations.write_text("\\n".join(lines[:3]) + "\\n")
assert main(["deflect", "--annotations", str(annotations),
             "--model", str(fixture / "model.txt"),
             "--camera", str(fixture / "camera.txt"), "--out", str(out / "defl")]) == 0
assert scipy_loaded()
print("ok")
"""


def test_scipy_loads_only_for_deflect_and_calibrate(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(tmp_path), str(FIXTURE_DIR),
         str(src / "rovermotion" / "data" / "cot_measurements.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "ok"


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run([])
    assert excinfo.value.code == EXIT_USAGE


def test_preset_catalog_resolves():
    for name in PRESET_NAMES + ROTATION_PRESETS:
        assert preset_path(name).exists()
