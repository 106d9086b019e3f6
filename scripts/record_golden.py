"""Record tests/golden.json, the reference outputs of the rovermotion CLI.

Usage: PYTHONPATH=src python scripts/record_golden.py

The manifest holds the numpy version and, for each invocation in
`invocations()`, its argv, the input files it needs, its exit code, the
SHA-256 of its stdout, its stderr and each file it writes, and the
directories it leaves. tests/test_golden.py
runs every invocation again through `cli.main` and compares the digests, so
run this script only on a commit whose outputs are the reference, and list
each digest that a re-recording changes.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy

import rovermotion
from rovermotion import cli

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.json"
# Directories an argv names through "{name}", besides "{work}", the directory
# every invocation runs under, and "{dir}", the invocation's own directory in it
PLACES = {
    "data": Path(rovermotion.__file__).resolve().parent / "data",
    "tests": ROOT / "tests" / "data",
}
METRICS = ["cot", "yaw-energy", "efficiency", "slip"]


def versions() -> dict[str, str]:
    return {"numpy": numpy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(invocation: dict, work: Path) -> dict:
    """Run `invocation` through cli.main in the directory `work / name`, after
    writing its inputs there (text, or a directory for None), and return its
    exit code, the digests of its stdout, its stderr and every other file in
    that directory, and the sorted relative paths of the directories in it,
    so that a failing command that leaves an output directory behind does not
    match a record without it. Paths in stdout and stderr are written as
    "{work}", "{data}" and "{tests}", so the digests do not depend on where it
    runs."""
    directory = work / invocation["name"]
    directory.mkdir()
    inputs = invocation.get("inputs", {})
    for name, text in inputs.items():
        path = directory / name
        if text is None:
            path.mkdir(parents=True)
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
    places = {**PLACES, "work": work, "dir": directory}
    argv = [arg.format(**places) for arg in invocation["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal's width; warnings go to the
    # recorded stderr, also under pytest, which would otherwise catch them
    with (mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(stdout),
          redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    texts = [stdout.getvalue(), stderr.getvalue()
             + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)]
    for name, path in sorted(places.items(), key=lambda item: -len(str(item[1]))):
        if name != "dir":
            texts = [text.replace(str(path), f"{{{name}}}") for text in texts]
    stdout_text, stderr_text = (text.encode("utf-8", "surrogateescape") for text in texts)
    left = sorted(directory.rglob("*"))
    return {
        "exit": code,
        "stdout": _sha256(stdout_text),
        "stderr": _sha256(stderr_text),
        "outputs": {
            path.relative_to(directory).as_posix(): _sha256(path.read_bytes())
            for path in left
            if path.is_file() and path.relative_to(directory).as_posix() not in inputs
        },
        "directories": [path.relative_to(directory).as_posix()
                        for path in left if path.is_dir()],
    }


def _slope(scenario: Path) -> str:
    match = re.search(r"^terrain\.slope_deg = (\S+)$", scenario.read_text(), re.M)
    return match.group(1) if match else "0"


def _scenario(setting: str = "", row: str = "", duration: str = "2") -> str:
    return (f"name = bad\n{setting}\n[profile]\nduration_s,vx,vy,wz,mode\n"
            f"{duration},0.06,0,0,skid_steer\n{row}\n")


@functools.cache
def _short_telemetry() -> str:
    """The telemetry.csv of a 6-row simulated run, for the analyze cases."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "run.scn"
        scenario.write_text(_scenario(duration="0.05"))
        with redirect_stdout(io.StringIO()):
            if cli.main(["simulate", "--scenario", str(scenario), "--out", tmp]):
                raise RuntimeError("the short run did not simulate")
        return (Path(tmp) / "telemetry.csv").read_text()


def _error_cases() -> list[tuple[str, list[str], dict]]:
    """(name, argv, inputs) of the error cases of tests/test_cli.py: scenario,
    telemetry, config, table and deflection inputs, usage errors and input and
    output paths. Each runs the CLI alone, but for one that reads a preset's
    telemetry from the `simulate` invocation before it."""
    cases = []
    simulate = ["simulate", "--scenario", "{dir}/bad.scn", "--out", "{dir}/out"]
    for name, row in [("non_numeric", "1.0,abc,0,0,skid_steer"),
                      ("short_row", "1.0,0.05,0"),
                      ("unknown_mode", "1.0,0.05,0,0,hover"),
                      ("non_finite_twist", "1,inf,0,0,skid_steer")]:
        cases.append((f"profile-{name}", simulate, {"bad.scn": _scenario(row=row)}))
    for name, setting, row in [
        ("step_nan", "step = nan", ""),
        ("duration_inf", "", "inf,0.06,0,0,skid_steer"),
        ("duration_nan", "", "nan,0.06,0,0,skid_steer"),
        ("duration_zero", "", "0,0.06,0,0,skid_steer"),
        ("mass_nan", "config.mass = nan", ""),
        ("steering_rate_inf", "config.steering_rate = inf", ""),
        ("marker_offset_inf", "marker_offset_x = inf", ""),
        ("rng_seed_negative", "terrain.noise_std = 0.05\nterrain.rng_seed = -1", ""),
        ("rng_seed_fractional", "terrain.rng_seed = 1.5", ""),
        ("slope_out_of_range", "terrain.slope_deg = 95", ""),
        ("step_zero", "step = 0", ""),
        ("unknown_key", "config.masss = 84", ""),
        # durations past the declared range, and row counts that overflow or
        # pass the ceiling, refused at the segment's line before any allocation
        ("duration_1e308", "", "1e308,0.06,0,0,skid_steer"),
        ("step_5e-324", "step = 5e-324", ""),
        ("duration_1e20", "", "1e20,0.06,0,0,skid_steer"),
        ("duration_1e6", "", "1e6,0.06,0,0,skid_steer"),
        ("crab_yaw_rate", "", "0.05,0,0,0.01,crab"),
        # a drive speed of 0.06 / 1e-300 rad/s, past the output limit
        ("wheel_radius_1e-300", "config.wheel_radius = 1e-300", ""),
    ]:
        cases.append((f"scenario-{name}", simulate,
                      {"bad.scn": _scenario(setting, row)}))
    # profile velocities past the declared range, refused at their line
    for velocity in ("1e308", "1e152", "1e150"):
        cases.append((f"scenario-velocity_{velocity}", simulate,
                      {"bad.scn": _scenario(duration="0.05").replace(",0.06,",
                                                                     f",{velocity},")}))
    cases.append(("scenario-missing", simulate, {}))

    telemetry = _short_telemetry()
    lines = telemetry.splitlines(keepends=True)
    analyze = ["--telemetry", "{dir}/t.csv", "--out", "{dir}/out"]
    columns = lines[0].rstrip("\n").split(",")

    def with_cell(line: str, column: str, text: str) -> str:
        cells = line.split(",")
        cells[columns.index(column)] = text
        return ",".join(cells)

    damaged = {
        "short_row": lines[:2] + [lines[2].rsplit(",", 1)[0] + "\n"] + lines[3:],
        "non_numeric": lines[:3] + ["abc" + lines[3][lines[3].index(","):]] + lines[4:],
        "non_increasing_time": lines + [lines[1]],
        # the blank row is skipped; the late row is named at its own line
        "blank_row_then_non_increasing_time": lines[:4] + ["\n"] + lines[4:] + [lines[1]],
        "header_only": lines[:1],
        **{f"timestamp_{cell}": lines[:2] + [cell + lines[2][lines[2].index(","):]]
           + lines[3:] for cell in ("nan", "inf", "-inf")},
    }
    for name, text in damaged.items():
        metric = "efficiency" if name.startswith("timestamp") else "cot"
        cases.append((f"telemetry-{name}", ["analyze", metric, *analyze],
                      {"t.csv": "".join(text)}))
    cases.append(("telemetry-odo_vx_nan", ["analyze", "slip", *analyze],
                  {"t.csv": "".join(lines[:3] + [with_cell(lines[3], "odo_vx", "nan")]
                                    + lines[4:])}))
    # a finite cell whose energy is not: refused before --out is made
    cases.append(("telemetry-i_drive_fl_1e308", ["analyze", "yaw-energy", *analyze],
                  {"t.csv": "".join(lines[:2] + [with_cell(lines[2], "i_drive_fl", "1e308")]
                                    + lines[3:])}))
    # a heading whose rate overflows, not a gap in the ratios
    cases.append(("telemetry-efficiency_heading_1e308",
                  ["analyze", "efficiency", *analyze, "--window", "0.02"],
                  {"t.csv": "".join(lines[:1] + [with_cell(lines[1], "heading", "1e308")]
                                    + lines[2:])}))
    cases.append(("telemetry-missing", ["analyze", "cot", *analyze], {}))
    for rows in (0, 1):
        cases.append((f"telemetry-slip_{rows}_rows", ["analyze", "slip", *analyze],
                      {"t.csv": "".join(lines[: 1 + rows])}))
    # a window of more samples than the series holds passes the parser
    cases.append(("telemetry-window_longer_than_the_series",
                  ["analyze", "efficiency", *analyze, "--window", "1e308"],
                  {"t.csv": telemetry}))
    # a rotation in place has no mean speed, so no cost of transport; this
    # reads the telemetry that simulate-rotation_skid wrote
    cases.append(("telemetry-cot_on_rotation_skid",
                  ["analyze", "cot", "--telemetry",
                   "{work}/simulate-rotation_skid/telemetry.csv", "--out", "{dir}/out"],
                  {}))
    for name, text in [("unknown_key", "masss = 42\n"), ("non_numeric", "mass = heavy\n"),
                       ("nan", "mass = nan\n"), ("inf", "steering_rate = inf\n"),
                       ("invalid", "mass = -1\n"), ("mass_5e-324", "mass = 5e-324\n")]:
        cases.append((f"config-{name}",
                      ["analyze", "cot", *analyze, "--config", "{dir}/rover.cfg"],
                      {"t.csv": telemetry, "rover.cfg": text}))
    # only cot reads the config, so yaw-energy succeeds with an invalid one
    cases.append(("config-invalid_unread_by_yaw_energy",
                  ["analyze", "yaw-energy", *analyze, "--config", "{dir}/rover.cfg"],
                  {"t.csv": telemetry, "rover.cfg": "mass = -1\n"}))
    cases.append(("usage-bad_metric", ["analyze", "wrong", *analyze], {"t.csv": telemetry}))
    for metric, flag, value in [
        ("cot", "--slope", "nan"), ("cot", "--slope", "inf"), ("cot", "--slope", "abc"),
        ("efficiency", "--window", "nan"), ("efficiency", "--window", "inf"),
        ("efficiency", "--window", "0"), ("efficiency", "--window", "-3"),
    ]:
        cases.append((f"usage-{metric}{flag}_{value}",
                      ["analyze", metric, *analyze, flag, value], {"t.csv": telemetry}))

    fixture = {name: (PLACES["data"] / "deflection" / name).read_text()
               for name in ("model.txt", "camera.txt", "annotations.csv")}
    # the header and the first two frames, where the edits below fall
    fixture["annotations.csv"] = "".join(
        fixture["annotations.csv"].splitlines(keepends=True)[:3])
    inboard, outboard = (loop.split(";")[0] for loop in
                         fixture["annotations.csv"].splitlines()[1].split(",")[2:4])

    def deflect(**given: str) -> list[str]:
        paths = {name: given.get(name, f"{{data}}/deflection/{name}.{ext}") for name, ext
                 in (("annotations", "csv"), ("model", "txt"), ("camera", "txt"))}
        return ["deflect", *(arg for name, path in paths.items()
                             for arg in (f"--{name}", path)), "--out", "{dir}/out"]

    cases.append(("deflect-corrupt_annotations", deflect(annotations="{dir}/a.csv"),
                  {"a.csv": "frame,nope\n"}))
    for name, file, old, new in [
        ("camera_value_not_a_number", "camera.txt", "fx = 800.0", "fx = eight"),
        ("camera_size_not_an_integer", "camera.txt", "width = 1280", "width = 1280.9"),
        ("model_key_missing", "model.txt", "hub_radius = 0.05\n", ""),
        ("loop_point_without_colon", "annotations.csv", ":", ";"),
        ("frame_not_an_integer", "annotations.csv", "\n1,", "\nx0,"),
        ("loop_point_nan", "annotations.csv", "850.142652:406.666085", "nan:nan"),
        ("chord_end_inf", "annotations.csv", "892.376577", "inf"),
        ("hub_radius_too_large", "model.txt", "hub_radius = 0.05", "hub_radius = 0.5"),
        ("principal_point_outside", "camera.txt", "cx = 640.0", "cx = 99999"),
        # frame 0's residual overflows: a pose fit failure, not an answer
        ("outboard_point_far_off", "annotations.csv", f",{outboard};",
         f",-1e308:{outboard.split(':')[1]};"),
        # frame 0's apparent inboard radius overflows: a degenerate loop
        ("inboard_point_far_off", "annotations.csv", f",{inboard};",
         f",-1e308:{inboard.split(':')[1]};"),
    ]:
        flag = file.split(".")[0]
        cases.append((f"deflect-{name}", deflect(**{flag: f"{{dir}}/{file}"}),
                      {file: fixture[file].replace(old, new, 1)}))
    for missing in (["model"], ["camera"], ["annotations"], ["annotations", "camera"]):
        cases.append((f"deflect-missing_{'_'.join(missing)}",
                      deflect(**{name: f"{{dir}}/{name}.none" for name in missing}), {}))
    for window in ("0", "-3", "2"):
        cases.append((f"deflect-window_{window}", deflect() + ["--window", window], {}))

    table = "mode,slope_deg,velocity,cot\nnominal,0,0.03,0.646\nnominal,0,0.06,1.10\n"
    for name, row, flat_only in [
        ("non_numeric", "nominal,0,fast,1.1", False),
        ("short_row", "nominal,0,0.06", False),
        ("flat_only_non_numeric_slope", "nominal,flat,0.06,1.1", True),
        ("nan_slope", "nominal,nan,0.06,1.1", False),
        ("inf_velocity", "nominal,0,inf,1.1", False),
        ("flat_only_inf_cot", "nominal,0,0.06,-inf", True),
        ("zero_velocity", "nominal,0,0,1.1", False),
        ("flat_only_negative_velocity", "nominal,0,-0.06,1.1", True),
        ("velocity_1e308", "nominal,0,1e308,1.1", False),
        ("cot_1e308", "nominal,0,0.06,1e308", False),
    ]:
        cases.append((f"table-{name}", ["calibrate", "--table", "{dir}/table.csv",
                                        "--out", "{dir}/out"] + ["--flat-only"] * flat_only,
                      {"table.csv": f"{table}{row}\nnominal,0,0.08,1.39\n"}))
    cases.append(("table-config_mass_5e-324",
                  ["calibrate", "--table", "{dir}/table.csv", "--config",
                   "{dir}/rover.cfg", "--out", "{dir}/out"],
                  {"table.csv": f"{table}nominal,0,0.08,1.39\n",
                   "rover.cfg": "mass = 5e-324\n"}))
    cases.append(("table-underdetermined",
                  ["calibrate", "--table", "{dir}/table.csv", "--out", "{dir}/out"],
                  {"table.csv": "mode,slope_deg,velocity,cot\nnominal,0,0.06,1.1\n"}))

    # a valid input for each input flag, then each flag given a bad one
    valid = {"--scenario": _scenario(duration="0.05"), "--telemetry": telemetry,
             "--config": "mass = 84\n", "--table": table + "nominal,0,0.08,1.39\n",
             "--model": fixture["model.txt"], "--camera": fixture["camera.txt"],
             "--annotations": fixture["annotations.csv"]}
    commands = {"simulate": ["--scenario"], "analyze": ["--telemetry", "--config"],
                "calibrate": ["--table", "--config"],
                "deflect": ["--model", "--camera", "--annotations"]}

    def command(name: str, out: str = "{dir}/out", **bad: str) -> tuple[list[str], dict]:
        argv, inputs = [name, *(["cot"] if name == "analyze" else [])], {}
        for flag in commands[name]:
            argv += [flag, bad.get(flag[2:], "{dir}/" + flag[2:])]
            inputs[flag[2:]] = valid[flag]
        return argv + ["--out", out], inputs

    for name, flags in commands.items():
        for flag in flags:
            argv, inputs = command(name, **{flag[2:]: "{dir}/a_directory"})
            cases.append((f"path-directory_{name}{flag}", argv,
                          {**inputs, "a_directory": None}))
            argv, inputs = command(name, **{flag[2:]: "{dir}/not_utf8"})
            cases.append((f"path-not_utf8_{name}{flag}", argv,
                          {**inputs, "not_utf8": valid[flag] + "# \udcff\n"}))
    for name in ("simulate", "analyze"):
        for where in ("out", "out/sub"):
            argv, inputs = command(name, out=f"{{dir}}/{where}")
            cases.append((f"path-{name}_out_at_{where.replace('/', '_')}", argv,
                          {**inputs, "out": "a file\n"}))
    for name, extra, output in [
        ("simulate", [], "telemetry.csv"), ("simulate", [], "summary.txt"),
        ("analyze", ["cot"], "cot.csv"), ("analyze", ["yaw-energy"], "yaw_energy.csv"),
        ("analyze", ["efficiency"], "efficiency.csv"), ("analyze", ["slip"], "slip.csv"),
        ("deflect", [], "deflection.csv"),
        ("deflect", ["--window", "3"], "deflection_smoothed.csv"),
        ("calibrate", [], "power_params.txt"),
        ("calibrate", [], "calibration_residuals.csv"),
        ("simulate", [], "telemetry.csv.tmp"),
    ]:
        argv, inputs = command(name)
        if name == "analyze":
            argv[1] = extra[0]
        else:
            argv += extra
        cases.append((f"path-directory_at_{output}", argv,
                      {**inputs, f"out/{output}": None}))
    return cases


def invocations() -> list[dict]:
    """Every recorded invocation, in the order they run: each `analyze` reads
    the telemetry of the `simulate` before it."""
    result = []
    scenarios = [PLACES["data"] / "presets" / f"{name}.scn"
                 for name in cli.PRESET_NAMES + cli.ROTATION_PRESETS]
    scenarios += sorted(PLACES["tests"].glob("mission_*.scn"))
    for scenario in scenarios:
        place = "tests" if scenario.parent == PLACES["tests"] else "data"
        path = f"{{{place}}}/{scenario.relative_to(PLACES[place]).as_posix()}"
        result.append({"name": f"simulate-{scenario.stem}",
                       "argv": ["simulate", "--scenario", path, "--out", "{dir}"]})
        for metric in METRICS:
            argv = ["analyze", metric, "--telemetry",
                    f"{{work}}/simulate-{scenario.stem}/telemetry.csv", "--out", "{dir}"]
            if metric == "cot":
                argv += ["--label", scenario.stem, "--slope", _slope(scenario)]
            result.append({"name": f"{metric}-{scenario.stem}", "argv": argv})
    table = "{data}/cot_measurements.csv"
    result.append({"name": "calibrate", "argv": ["calibrate", "--table", table,
                                                 "--out", "{dir}"]})
    result.append({"name": "calibrate-flat_only",
                   "argv": ["calibrate", "--table", table, "--flat-only", "--out", "{dir}"]})
    fixture = "{data}/deflection"
    result.append({"name": "deflect", "argv": [
        "deflect", "--annotations", f"{fixture}/annotations.csv", "--model",
        f"{fixture}/model.txt", "--camera", f"{fixture}/camera.txt", "--window", "3",
        "--out", "{dir}"]})
    result.append({"name": "report", "argv": ["report", "--out", "{dir}"]})
    for name, argv, inputs in _error_cases():
        result.append({"name": f"error-{name}", "argv": argv, "inputs": inputs})
    # a blank row is skipped, as in every input CSV
    lines = _short_telemetry().splitlines(keepends=True)
    result.append({"name": "cot-blank_row",
                   "argv": ["analyze", "cot", "--telemetry", "{dir}/t.csv",
                            "--out", "{dir}/out"],
                   "inputs": {"t.csv": "".join(lines[:4] + ["\n"] + lines[4:])}})
    return result


def record() -> dict:
    entries = []
    with tempfile.TemporaryDirectory() as work:
        for invocation in invocations():
            entries.append({**invocation, **run(invocation, Path(work))})
    return {"versions": versions(), "invocations": entries}


def main() -> None:
    manifest = record()
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"{len(manifest['invocations'])} invocations written to {MANIFEST}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
