"""Command-line harness: simulate scenarios, analyze telemetry, report."""
from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from rovermotion.errors import DataError, PoseFitError, naming

# Importing the CLI loads nothing else: each command imports numpy and the
# modules it runs when it runs, after the input checks that need neither.
if TYPE_CHECKING:
    from pathlib import Path

    import numpy as np

    from rovermotion import metrics
    from rovermotion.config import RoverConfig
    from rovermotion.telemetry import Telemetry

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

PRESET_NAMES = [
    "excavator_0_3cm",
    "nominal_0_3cm",
    "nominal_0_6cm",
    "nominal_0_8cm",
    "slope10_6cm",
    "slope15_6cm",
    "slope20_6cm",
    "slope25_6cm",
]
ROTATION_PRESETS = ["rotation_skid", "rotation_point_turn"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _number_arg(text: str, positive: bool = False) -> float:
    """argparse type: a finite float, > 0 if `positive`; else a usage error."""
    from math import isfinite

    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (isfinite(value) and (value > 0.0 or not positive)):
        kind = "finite positive" if positive else "finite"
        raise argparse.ArgumentTypeError(f"expected a {kind} number, got {text!r}")
    return value


def _check_exists(*paths: str | Path) -> None:
    """Raise DataError naming the first of `paths` that is not a file."""
    from pathlib import Path

    for path in paths:
        if not Path(path).is_file():
            problem = "not a file" if Path(path).exists() else "no such file"
            raise DataError(f"{problem}: {path}")


def _check_outputs(path: str, names: list[str]) -> None:
    """DataError names the first of `names` in the output directory `path`,
    or the `NAME.tmp` open_output writes it through, that is itself a
    directory, before the command does work whose result it could not write.
    Makes nothing: open_output makes `path` with the first file written into
    it, so a command refused before that leaves no `path` behind."""
    from pathlib import Path

    out = Path(path)
    for name in names:
        for target in (out / name, out / f"{name}.tmp"):
            if target.is_dir():
                raise DataError(f"is a directory: {target}")


_COT_HEADER = ["table2_mode", "table2_slope_deg", "table2_velocity_m_s",
              "table2_power_w", "table2_cot"]
_YAW_ENERGY_HEADER = ["fig3_yaw_deg", "fig3_energy_j"]


def _series(header: list[str], *columns: np.ndarray) -> tuple:
    """A fixed-CSV output of a time column, then value columns; the value
    cells of the samples where the first value column is NaN are blank."""
    import numpy as np

    values = np.column_stack(columns)
    blank = np.zeros(values.shape, dtype=bool)
    blank[:, 1:] = np.isnan(columns[1])[:, None]
    return header, values, blank


def _cot_row(mode: str, slope_deg: float, report: metrics.CotReport) -> list:
    return [mode, slope_deg, report.mean_velocity, report.mean_power,
            report.cost_of_transport]


def _defined_mean(values: np.ndarray) -> str:
    """The mean of the non-NaN `values`, summed left to right, as "%.3f"; "" if none."""
    import numpy as np

    valid = values[~np.isnan(values)].tolist()
    return f"{sum(valid) / len(valid):.3f}" if valid else ""


def _efficiency(telemetry: Telemetry, window_s: float) -> tuple:
    """The fig4 output: angular-speed efficiency, raw and clamped, over time."""
    from rovermotion import metrics

    times = telemetry.column("t")
    ratios = metrics.angular_speed_efficiency(
        times, telemetry.column("heading"), telemetry.column("odo_wz"),
        smoothing_window_s=window_s,
    )
    return _series(["fig4_t_s", "fig4_ratio", "fig4_ratio_clamped"],
                   times, ratios, metrics.clamp_ratio(ratios))


def preset_path(name: str) -> Path:
    from pathlib import Path

    return Path(__file__).parent / "data" / "presets" / f"{name}.scn"


# perfbench/trace_child.py wraps these two where the CLI looks them up, as
# attributes of this module. Each imports the telemetry module, and with it
# numpy, on its first call.
def read_telemetry_csv(path: str) -> Telemetry:
    from rovermotion import telemetry

    return telemetry.read_telemetry_csv(path)


def write_telemetry_csv(path: Path, series: Telemetry, groups: int) -> None:
    from rovermotion import telemetry

    telemetry.write_telemetry_csv(path, series, groups)


def _write_outputs(out: str, names: list[str], outputs: list, where: object) -> None:
    """Write each of `outputs` to its name in `names` under the directory
    `out`: text as it is, a Telemetry through write_telemetry_csv and a
    (header, values[, blank]) through write_fixed_csv; fixed_csv_groups checks
    all of the last two first, so a value it refuses leaves no `out`."""
    from pathlib import Path

    from rovermotion import telemetry
    from rovermotion.config import write_output

    with naming(where):
        groups = [None if isinstance(output, str) else telemetry.fixed_csv_groups(
            *(output if isinstance(output, tuple)
              else (telemetry.TELEMETRY_HEADER, output.values)))
            for output in outputs]
    for name, output, width in zip(names, outputs, groups, strict=True):
        path = Path(out) / name
        if width is None:
            write_output(path, output)
        elif isinstance(output, tuple):
            telemetry.write_fixed_csv(path, *output, groups=width)
        else:
            write_telemetry_csv(path, output, width)


def cmd_simulate(args) -> tuple[list, None]:
    from rovermotion import terrain
    from rovermotion.config import key_value_text

    scenario = terrain.load_scenario(args.scenario)
    telemetry = terrain.simulate_traverse(scenario)  # a refusal names its profile row
    # the summary is rendered, and so refused, before the telemetry is checked
    with naming(args.scenario):
        summary = key_value_text([
            ("scenario", scenario.name),
            ("records", len(telemetry)),
            *((key, telemetry.column(name)[-1] if len(telemetry) else 0.0)
              for key, name in [("duration_s", "t"), ("final_x_m", "x"),
                                ("final_y_m", "y"), ("final_heading_rad", "heading")]),
            ("energy_j", telemetry.cumulative_energy()[-1]),
        ])
    return [telemetry, summary], None


def _config_from_args(args) -> RoverConfig:
    from rovermotion.config import RoverConfig, load_config

    if args.config:
        _check_exists(args.config)
        return load_config(args.config)
    return RoverConfig()


def cmd_analyze(args) -> tuple[list, str]:
    telemetry = read_telemetry_csv(args.telemetry)
    # only cot reads the rover, after the telemetry
    config = _config_from_args(args) if args.metric == "cot" else None
    import numpy as np

    from rovermotion import metrics
    from rovermotion.config import csv_text

    # each metric gives its output and the line to print; a refusal names
    # the telemetry file, and a value that overflows is inf or nan,
    # unwarned, for the writer to refuse
    with naming(args.telemetry), np.errstate(all="ignore"):
        if args.metric == "cot":
            report = metrics.mean_cot(telemetry, config)
            output = csv_text(_COT_HEADER, [_cot_row(args.label, args.slope, report)])
            line = f"cot={report.cost_of_transport:.3f}"
        elif args.metric == "yaw-energy":
            curve = metrics.energy_vs_yaw(telemetry)
            total = curve[-1] if len(curve) else (0.0, 0.0)
            output = (_YAW_ENERGY_HEADER, curve)
            line = f"yaw_deg={total[0]:.3f} energy_j={total[1]:.3f}"
        elif args.metric == "efficiency":
            output = _efficiency(telemetry, args.window)
            line = f"mean_ratio={_defined_mean(output[1][:, 1])}"  # the ratio column
        else:  # slip
            times = telemetry.column("t")
            if len(times) < 2:  # the ground-truth speed is a finite difference
                raise DataError("insufficient samples")
            xy = np.column_stack((telemetry.column("x"), telemetry.column("y")))
            gt_speed = np.linalg.norm(np.gradient(xy, times, axis=0), axis=1)
            slip = metrics.longitudinal_slip(metrics.encoder_speed(telemetry), gt_speed)
            output = _series(["slip_t_s", "slip_ratio"], times, slip)
            line = f"mean_slip={_defined_mean(slip)}"
    return [output], line


def _estimate_deflection(annotations: str, model: str, camera: str
                         ) -> tuple[list[int], list[float], float]:
    """Load the model, camera and annotation files: each frame's number and
    deflected volume fraction, in file order, and the wheel's volume."""
    from rovermotion import deflection

    wheel = deflection.load_wheel_model(model)
    cam = deflection.load_camera(camera)
    frames = deflection.read_annotations_csv(annotations)
    with naming(annotations):
        fractions = deflection.process_annotations(frames, wheel, cam)
    return [item.frame for item in frames], fractions, wheel.volume


def cmd_deflect(args) -> tuple[list, str]:
    # the one check of the smoothing window, before any frame is read
    if args.window < 1 or args.window % 2 == 0:
        raise DataError("window must be odd and >= 1")
    from rovermotion import deflection
    from rovermotion.config import csv_text

    frames, fractions, volume = _estimate_deflection(
        args.annotations, args.model, args.camera)
    # each series is smoothed on its own, which keeps the volumes' bytes
    series = [([f * volume for f in fractions], fractions)]
    if args.window != 1:
        series.append([deflection.smooth_deflection_series(values, args.window)
                       for values in series[0]])
    peak = max(fractions, default=0.0)
    return ([csv_text(["frame", "volume_m3", "fraction"],
                      [[n, f"{v:.9f}", f] for n, v, f in zip(frames, *part)])
             for part in series], f"frames={len(frames)} max_fraction={peak:.4f}")


def cmd_calibrate(args) -> tuple[list, str]:
    import io
    from pathlib import Path

    from rovermotion import terrain
    from rovermotion.config import (
        csv_rows, csv_text, from_pairs, key_value_text, read_text)

    path = Path(args.table)
    rows = []
    header = ["mode", "slope_deg", "velocity", "cot"]
    for where, row in csv_rows(io.StringIO(read_text(path)), header, path):
        entry = from_pairs(terrain.CalibrationRow, dict(zip(header[1:], row[1:])), where)
        if args.flat_only and (entry.slope_deg != 0.0 or row[0].lower() != "nominal"):
            continue
        rows.append((entry.slope_deg, entry.velocity, entry.cot))
    config = _config_from_args(args)

    with naming(path):
        params, residuals = terrain.calibrate_power(rows, config)
        params_text = key_value_text(sorted(vars(params).items()))
        residuals_text = csv_text(
            ["slope_deg", "velocity_m_s", "cot_measured", "cot_residual"],
            [[*row, res] for row, res in zip(rows, residuals)])
    line = f"rows={len(rows)} max_abs_residual={max(abs(r) for r in residuals):.4f}"
    return [params_text, residuals_text], line


def cmd_report(args) -> tuple[list, str]:
    # the ten telemetries are held in memory until the fixture's fit has
    # succeeded, so a failed fit leaves no --out
    from pathlib import Path

    from rovermotion import metrics, terrain
    from rovermotion.config import csv_text

    scenarios = [terrain.load_scenario(preset_path(name))
                 for name in PRESET_NAMES + ROTATION_PRESETS]
    runs = [terrain.simulate_traverse(scenario) for scenario in scenarios]
    table_rows = [
        _cot_row(name.split("_")[0], scenario.terrain.slope_deg,
                 metrics.mean_cot(telemetry, scenario.config))
        for name, scenario, telemetry in zip(PRESET_NAMES, scenarios, runs)]
    figures = [output for telemetry in runs[len(PRESET_NAMES):] for output in (
        (_YAW_ENERGY_HEADER, metrics.energy_vs_yaw(telemetry)),
        _efficiency(telemetry, 0.5))]
    fixture = Path(__file__).parent / "data" / "deflection"
    frames, fractions, _ = _estimate_deflection(*(
        str(fixture / name) for name in ("annotations.csv", "model.txt", "camera.txt")))
    return [csv_text(_COT_HEADER, table_rows),
            csv_text(["fig6_frame", "fig6_fraction"], zip(frames, fractions)),
            *runs, *figures], f"report written to {Path(args.out)}"


# Each command: the function that computes its outputs and the line it prints;
# the arguments naming its input files, the first of which names an output
# value the writer refuses; and its output files' names under --out, in the
# order the function returns them. main checks all these paths first.
COMMANDS = {
    "simulate": (cmd_simulate, ["scenario"],
                 lambda args: ["telemetry.csv", "summary.txt"]),
    "analyze": (cmd_analyze, ["telemetry"],
                lambda args: [f"{args.metric.replace('-', '_')}.csv"]),
    "deflect": (cmd_deflect, ["model", "camera", "annotations"],
                lambda args: ["deflection.csv"]
                + ["deflection_smoothed.csv"] * (args.window != 1)),
    "calibrate": (cmd_calibrate, ["table"],
                  lambda args: ["power_params.txt", "calibration_residuals.csv"]),
    "report": (cmd_report, [], lambda args: [
        "table2.csv", "fig6.csv",
        *(f"telemetry_{name}.csv" for name in PRESET_NAMES + ROTATION_PRESETS),
        *(f"fig{n}_{name}.csv" for name in ROTATION_PRESETS for n in (3, 4))]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rovermotion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a scenario file to telemetry")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("analyze", help="compute metrics from a telemetry CSV")
    p.add_argument("metric", choices=["cot", "yaw-energy", "efficiency", "slip"])
    p.add_argument("--telemetry", required=True)
    p.add_argument("--config", default=None, help="rover config key/value file")
    p.add_argument("--out", default=".")
    p.add_argument("--label", default="", help="mode label for the report")
    p.add_argument("--slope", type=_number_arg, default=0.0)
    p.add_argument("--window", type=lambda text: _number_arg(text, positive=True),
                   default=0.5, help="smoothing window (s) for efficiency")

    p = sub.add_parser("deflect", help="run the wheel-deflection pipeline")
    p.add_argument("--annotations", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--window", type=int, default=1, help="odd smoothing window")

    p = sub.add_parser("calibrate", help="fit power-model parameters to CoT rows")
    p.add_argument("--table", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--flat-only", action="store_true",
                   help="fit only nominal flat-ground rows")

    p = sub.add_parser("report", help="bundle all preset analyses into one directory")
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    import os

    # One OpenBLAS thread: no command does BLAS-sized work, and the pool's
    # idle worker spins on a second core. Read once, when numpy first loads,
    # so it acts only on a process that has not loaded numpy yet; a value the
    # caller sets wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    compute, inputs, names = COMMANDS[args.command]
    inputs, names = [getattr(args, name) for name in inputs], names(args)
    try:
        _check_exists(*inputs)
        _check_outputs(args.out, names)
        outputs, line = compute(args)
        _write_outputs(args.out, names, outputs, inputs[0] if inputs else None)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PoseFitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if line is not None:
        print(line)
    return EXIT_OK


def run() -> None:
    """The console entry point: run main() and end the process with its exit
    code, skipping interpreter teardown (final garbage collection and module
    cleanup), which costs 20-30 ms after the outputs are written.

    The skip loses nothing: every file is written through
    `config.open_output`, which closes it before main() returns, and the
    package starts no thread and registers no `atexit` handler. Only
    stdout and stderr may hold buffered bytes, so they are flushed first.
    SystemExit (usage errors, `--help`) and uncaught exceptions propagate and
    end the process the normal way. Library callers and tests call main(),
    which returns its code and never ends the process.
    """
    import os

    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
