"""Seeded mutants of the CLI's inputs: one number of a scenario, a config, the
calibration table, the annotations, the model, the camera or a telemetry file
replaced by an extreme or malformed value. Each mutant, run through
`cli.main`, exits 0, 2 or 3 and raises nothing else, prints no warning,
writes no number outside config.OUTPUT_RANGE (so no nan or inf), and leaves
no `--out` when it fails."""
import io
import random
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

from rovermotion import cli
from rovermotion.config import OUTPUT_LIMIT, RoverConfig

DATA = Path(cli.__file__).resolve().parent / "data"
SEED = 7
MUTANTS = 200
VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "1e20", "1e-320", "5e-324",
          "0", "-0", "-1", "", "x", "1e150", "1e152"]
# a number standing alone: a CSV cell, the value of a `key = value` line or a
# coordinate of a `u:v` loop point
NUMBER = re.compile(r"(?<=[\s=,;:])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?(?=[\s,;:]|$)")

# every section of a scenario, and a profile in each steering mode
SCENARIO = """name = mutant
step = 0.01
marker_offset_x = 0.4
marker_offset_y = -0.1
terrain.slope_deg = 10
terrain.skid_rotation_efficiency = 0.75
terrain.longitudinal_slip_ratio = 0.05
terrain.noise_std = 0.02
terrain.rng_seed = 7
config.mass = 84
config.wheel_radius = 0.15
config.steering_rate = 0.5
power.idle_power_per_drive = 1.5
power.speed_quadratic_coeff = 3069.549
power.drawbar_force = 10
[profile]
duration_s,vx,vy,wz,mode
0.05,0.06,0,0.01,skid_steer
0.05,0.04,0.02,0,crab
0.05,0,0,0.05,point_turn
0.05,0.05,0,0.02,ackermann
"""
# the six-row run whose telemetry the `analyze` mutants damage
SHORT_SCENARIO = ("name = short\n[profile]\nduration_s,vx,vy,wz,mode\n"
                  "0.05,0.06,0,0.01,skid_steer\n")

DEFLECT = ["deflect", "--annotations", "{annotations}", "--model", "{model}",
           "--camera", "{camera}", "--window", "3"]
# (the input each mutant damages, the command that reads it)
KINDS = [
    ("scenario", ["simulate", "--scenario", "{scenario}"]),
    ("config", ["analyze", "cot", "--telemetry", "{telemetry}", "--config", "{config}"]),
    ("config", ["calibrate", "--table", "{table}", "--config", "{config}"]),
    ("table", ["calibrate", "--table", "{table}"]),
    ("annotations", DEFLECT),
    ("model", DEFLECT),
    ("camera", DEFLECT),
    *(("telemetry", ["analyze", metric, "--telemetry", "{telemetry}"])
      for metric in ("cot", "yaw-energy", "efficiency", "slip")),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    """The text of each input: bundled files, the first annotated frame,
    and the telemetry of SHORT_SCENARIO."""
    work = tmp_path_factory.mktemp("short")
    (work / "short.scn").write_text(SHORT_SCENARIO)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--scenario", str(work / "short.scn"),
                         "--out", str(work)]) == cli.EXIT_OK
    annotations = (DATA / "deflection" / "annotations.csv").read_text()
    return {
        "scenario": SCENARIO,
        "config": "".join(f"{field.name} = {getattr(RoverConfig(), field.name)!r}\n"
                          for field in fields(RoverConfig)),
        "table": (DATA / "cot_measurements.csv").read_text(),
        "annotations": "".join(annotations.splitlines(keepends=True)[:2]),
        "model": (DATA / "deflection" / "model.txt").read_text(),
        "camera": (DATA / "deflection" / "camera.txt").read_text(),
        "telemetry": (work / "telemetry.csv").read_text(),
    }


def _cells_beyond_the_limit(text: str) -> list[str]:
    """The numbers in `text` outside [-OUTPUT_LIMIT, OUTPUT_LIMIT], nan included."""
    found = []
    for cell in re.split(r"[\s,;:=]+", text):
        try:
            if not abs(float(cell)) <= OUTPUT_LIMIT:
                found.append(cell)
        except ValueError:
            pass
    return found


def _run(directory: Path, inputs: dict[str, str], argv: list[str],
         damaged: dict[str, str]) -> tuple[int | None, str, list[str]]:
    """Run `argv` in `directory` on `inputs`, with the texts `damaged` in
    place of theirs: (exit code, stderr, each broken rule)."""
    directory.mkdir()
    paths = {}
    for name, text in {**inputs, **damaged}.items():
        paths[name] = directory / name
        paths[name].write_text(text)
    out = directory / "out"
    argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
    stderr, problems, code = io.StringIO(), [], None
    with (redirect_stdout(io.StringIO()), redirect_stderr(stderr),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception as exc:  # the rule is that nothing escapes
            problems.append(f"raised {type(exc).__name__}: {exc}")
    problems += sorted({f"{w.category.__name__}: {w.message}" for w in caught})
    if code not in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERICAL):
        problems.append(f"exit {code}")
    if code and out.exists():
        problems.append("left --out behind")
    for path in sorted(out.rglob("*")):
        if path.is_file() and (cells := _cells_beyond_the_limit(path.read_text())):
            problems.append(f"wrote {cells[0]} in {path.name}")
    return code, stderr.getvalue(), problems


def mutants(inputs: dict[str, str]) -> list[tuple[str, list[str], str, str]]:
    """MUTANTS (label, argv, input name, damaged text): each pair of a kind
    of KINDS and a value of VALUES in turn, put in place of a number of the
    kind's input that a Random(SEED) draws."""
    rng = random.Random(SEED)
    result = []
    for i in range(MUTANTS):
        name, argv = KINDS[i % len(KINDS)]
        value = VALUES[i // len(KINDS) % len(VALUES)]
        text = inputs[name]
        spans = [match.span() for match in NUMBER.finditer(text)]
        start, stop = spans[rng.randrange(len(spans))]
        line = text.count("\n", 0, start) + 1
        label = f"{argv[0]} {name}:{line} {text[start:stop]!r} -> {value!r}"
        result.append((label, argv, name, text[:start] + value + text[stop:]))
    return result


def test_every_mutant_exits_cleanly(inputs, tmp_path):
    broken = []
    for i, (label, argv, name, text) in enumerate(mutants(inputs)):
        _, _, problems = _run(tmp_path / str(i), inputs, argv, {name: text})
        broken += [f"{label}: {problem}" for problem in problems]
    assert not broken, "\n".join(broken)


def test_the_mutants_are_seeded(inputs):
    drawn = mutants(inputs)
    assert drawn == mutants(inputs)
    assert len({label for label, *_ in drawn}) > 0.9 * MUTANTS
    assert {name for _, _, name, _ in drawn} == {name for name, _ in KINDS}


def _with_loop_point(annotations: str, loop: int, u: str) -> str:
    """Frame 0's first point of loop `loop` (0 inboard, 1 outboard) moved to `u`."""
    point = annotations.splitlines()[1].split(",")[2 + loop].split(";")[0]
    return annotations.replace(f",{point};", f",{u}:{point.split(':')[1]};", 1)


def _with_cell(telemetry: str, line: int, column: str, value: str) -> str:
    lines = telemetry.split("\n")
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = value
    lines[line - 1] = ",".join(cells)
    return "\n".join(lines)


def _short_run(velocity: str) -> str:
    return SHORT_SCENARIO.replace("0.05,0.06,0,0.01", f"0.05,{velocity},0,0")


# (case, input, its damaged text, command, exit code, message after the
# input's path: ": " and the message, or ":LINE: " and the message)
NAMED = [
    *((f"velocity_{velocity}", "scenario", lambda inputs, v=velocity: _short_run(v),
       KINDS[0][1], cli.EXIT_DATA, f":4: vx = {float(velocity)!r} outside [-10, 10]")
      for velocity in ("1e150", "1e152", "1e308")),
    ("inboard_point_-1e308", "annotations",
     lambda inputs: _with_loop_point(inputs["annotations"], 0, "-1e308"),
     DEFLECT, cli.EXIT_DATA, ": frame 0: degenerate loop"),
    ("outboard_point_-1e308", "annotations",
     lambda inputs: _with_loop_point(inputs["annotations"], 1, "-1e308"),
     DEFLECT, cli.EXIT_NUMERICAL, ": frame 0: pose fit did not converge: rms inf px "
     "after 1 evaluations (residual not finite)"),
    ("drive_current_1e308", "telemetry",
     lambda inputs: _with_cell(inputs["telemetry"], 3, "i_drive_fl", "1e308"),
     ["analyze", "yaw-energy", "--telemetry", "{telemetry}"], cli.EXIT_DATA,
     ": output fig3_energy_j = inf outside [-1e12, 1e12]"),
    # calibrate_power would keep its all-zero start: the misfit is inf
    ("table_cot_1e308", "table",
     lambda inputs: inputs["table"].replace("0.553", "1e308", 1),
     KINDS[3][1], cli.EXIT_DATA, ":2: cot = 1e+308 outside [0, 100]"),
    # an overflow, not the gaps of an odometry yaw rate below WZ_THRESHOLD
    ("efficiency_heading_1e308", "telemetry",
     lambda inputs: _with_cell(inputs["telemetry"], 2, "heading", "1e308"),
     ["analyze", "efficiency", "--telemetry", "{telemetry}", "--window", "0.02"],
     cli.EXIT_DATA, ": ground-truth yaw rate is not finite"),
]


@pytest.mark.parametrize("case, name, damage, argv, code, message", NAMED,
                         ids=[case[0] for case in NAMED])
def test_named_reproduction(inputs, tmp_path, case, name, damage, argv, code, message):
    got, stderr, problems = _run(tmp_path / case, inputs, argv, {name: damage(inputs)})
    assert not problems
    assert got == code
    prefix = "numerical failure" if code == cli.EXIT_NUMERICAL else "error"
    assert stderr == f"{prefix}: {tmp_path / case / name}{message}\n"


def _replaced(name: str, old: str, new: str):
    def damage(inputs: dict[str, str]) -> str:
        assert old in inputs[name]
        return inputs[name].replace(old, new, 1)
    return damage


SLIP = ["analyze", "slip", "--telemetry", "{telemetry}"]
# (case, input, its damaged text, command) of mutants that a wider sweep
# found printing a numpy warning, all but the table's before a refusal
SWEPT = [
    ("step_1e308", "scenario", _replaced("scenario", "step = 0.01", "step = 1e308"),
     KINDS[0][1]),
    ("steering_rate_1e-320", "scenario",
     _replaced("scenario", "steering_rate = 0.5", "steering_rate = 1e-320"), KINDS[0][1]),
    ("noise_std_1e308", "scenario",
     _replaced("scenario", "noise_std = 0.02", "noise_std = 1e308"), KINDS[0][1]),
    ("idle_power_1e308", "scenario",
     _replaced("scenario", "idle_power_per_drive = 1.5", "idle_power_per_drive = 1e308"),
     KINDS[0][1]),
    ("table_cot_1e308", "table", _replaced("table", "0.553", "1e308"), KINDS[3][1]),
    ("model_radius_1e308", "model", _replaced("model", "radius = 0.15", "radius = 1e308"),
     DEFLECT),
    *((f"camera_{key}_{value}", "camera",
       _replaced("camera", f"{key} = 800.0", f"{key} = {value}"), DEFLECT)
      for key, value in (("fy", "1e308"), ("fx", "1e-320"), ("fx", "5e-324"))),
    ("slip_t_1e-320", "telemetry",
     lambda inputs: _with_cell(inputs["telemetry"], 3, "t", "1e-320"), SLIP),
    ("slip_x_1e308", "telemetry",
     lambda inputs: _with_cell(inputs["telemetry"], 3, "x", "1e308"), SLIP),
    ("cot_t_1e308", "telemetry",
     lambda inputs: _with_cell(inputs["telemetry"], 7, "t", "1e308"),
     ["analyze", "cot", "--telemetry", "{telemetry}"]),
]


@pytest.mark.parametrize("case, name, damage, argv", SWEPT, ids=[case[0] for case in SWEPT])
def test_swept_mutant_exits_cleanly(inputs, tmp_path, case, name, damage, argv):
    _, _, problems = _run(tmp_path / case, inputs, argv, {name: damage(inputs)})
    assert not problems
