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

    from rovermotion import deflection, metrics
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


def _check_outputs(path: str, *names: str) -> Path:
    """The output directory `path`, after DataError names the first of `names`
    in it, or the `NAME.tmp` open_output writes it through, that is itself a
    directory, before the command does work whose result it could not write.
    Makes nothing: open_output makes `path` with the first file written into
    it, so a command refused before that leaves no `path` behind."""
    from pathlib import Path

    out = Path(path)
    for name in names:
        for target in (out / name, out / f"{name}.tmp"):
            if target.is_dir():
                raise DataError(f"is a directory: {target}")
    return out


_COT_HEADER = ["table2_mode", "table2_slope_deg", "table2_velocity_m_s",
              "table2_power_w", "table2_cot"]
_YAW_ENERGY_HEADER = ["fig3_yaw_deg", "fig3_energy_j"]
_EFFICIENCY_HEADER = ["fig4_t_s", "fig4_ratio", "fig4_ratio_clamped"]


def _write_series(path: Path, header: list[str], *columns: np.ndarray) -> None:
    """Write a time column, then value columns; the value cells of the samples
    where the first value column is NaN are written empty."""
    import numpy as np

    from rovermotion.telemetry import write_fixed_csv

    values = np.column_stack(columns)
    blank = np.zeros(values.shape, dtype=bool)
    blank[:, 1:] = np.isnan(columns[1])[:, None]
    write_fixed_csv(path, header, values, blank)


def _cot_row(mode: str, slope_deg: float, report: metrics.CotReport) -> list:
    return [mode, slope_deg, report.mean_velocity, report.mean_power,
            report.cost_of_transport]


def _defined_mean(values: np.ndarray) -> float:
    """The mean of the non-NaN `values`, summed left to right; NaN if none."""
    import numpy as np

    valid = values[~np.isnan(values)].tolist()
    return sum(valid) / len(valid) if valid else float("nan")


def _efficiency(telemetry: Telemetry, window_s: float) -> tuple[np.ndarray, ...]:
    """The angular-speed efficiency series: (times, ratio, clamped ratio)."""
    from rovermotion import metrics

    times = telemetry.column("t")
    ratios = metrics.angular_speed_efficiency(
        times, telemetry.column("heading"), telemetry.column("odo_wz"),
        smoothing_window_s=window_s,
    )
    return times, ratios, metrics.clamp_ratio(ratios)


def _data_dir(name: str) -> Path:
    """The directory `name` among the package's bundled data."""
    from importlib import resources
    from pathlib import Path

    return Path(str(resources.files("rovermotion").joinpath("data", name)))


def preset_path(name: str) -> Path:
    path = _data_dir("presets") / f"{name}.scn"
    if not path.exists():
        raise DataError(f"unknown preset {name!r}")
    return path


# perfbench/trace_child.py wraps these two where the commands look them up,
# as attributes of this module. Each imports the telemetry module, and with
# it numpy, on its first call.
def read_telemetry_csv(path: str) -> Telemetry:
    from rovermotion import telemetry

    return telemetry.read_telemetry_csv(path)


def write_telemetry_csv(path: Path, series: Telemetry) -> None:
    from rovermotion import telemetry

    telemetry.write_telemetry_csv(path, series)


def _check_exists(*paths: str | Path) -> None:
    """Raise DataError naming the first of `paths` that is not a file."""
    from pathlib import Path

    for path in paths:
        if not Path(path).is_file():
            problem = "not a file" if Path(path).exists() else "no such file"
            raise DataError(f"{problem}: {path}")


def cmd_simulate(args) -> int:
    _check_exists(args.scenario)
    out = _check_outputs(args.out, "telemetry.csv", "summary.txt")
    from rovermotion import terrain
    from rovermotion.config import key_value_text, write_output

    scenario = terrain.load_scenario(args.scenario)
    telemetry = terrain.simulate_traverse(scenario)  # a refusal names its profile row
    # the summary is rendered, and so refused, before the telemetry is written
    with naming(args.scenario):
        final = (telemetry[-1] if len(telemetry)
                 else dict.fromkeys(["t", "x", "y", "heading"], 0.0))
        summary = key_value_text([
            ("scenario", scenario.name),
            ("records", len(telemetry)),
            ("duration_s", final["t"]),
            ("final_x_m", final["x"]),
            ("final_y_m", final["y"]),
            ("final_heading_rad", final["heading"]),
            ("energy_j", telemetry.cumulative_energy()[-1]),
        ])
        write_telemetry_csv(out / "telemetry.csv", telemetry)
    write_output(out / "summary.txt", summary)
    return EXIT_OK


def _config_from_args(args) -> RoverConfig:
    from rovermotion.config import RoverConfig, load_config

    if getattr(args, "config", None):
        _check_exists(args.config)
        return load_config(args.config)
    return RoverConfig()


_ANALYZE_OUTPUTS = {"cot": "cot.csv", "yaw-energy": "yaw_energy.csv",
                    "efficiency": "efficiency.csv", "slip": "slip.csv"}


def cmd_analyze(args) -> int:
    _check_exists(args.telemetry)
    out = _check_outputs(args.out, _ANALYZE_OUTPUTS[args.metric])
    telemetry = read_telemetry_csv(args.telemetry)
    # only cot reads the rover; loaded before the output directory is made
    config = _config_from_args(args) if args.metric == "cot" else None
    import numpy as np

    from rovermotion import metrics
    from rovermotion.config import csv_text, write_output
    from rovermotion.telemetry import write_fixed_csv

    # each metric gives its writer, the writer's arguments after the path
    # and the line to print; the output directory is made only then;
    # a refusal names the telemetry file, and a value that overflows is inf
    # or nan, unwarned, for the writer to refuse
    with naming(args.telemetry), np.errstate(all="ignore"):
        if args.metric == "cot":
            report = metrics.mean_cot(telemetry, config)
            row = _cot_row(args.label, args.slope, report)
            write, data = write_output, (csv_text(_COT_HEADER, [row]),)
            line = f"cot={report.cost_of_transport:.3f}"
        elif args.metric == "yaw-energy":
            curve = metrics.energy_vs_yaw(telemetry)
            total = curve[-1] if len(curve) else (0.0, 0.0)
            write, data = write_fixed_csv, (_YAW_ENERGY_HEADER, curve)
            line = f"yaw_deg={total[0]:.3f} energy_j={total[1]:.3f}"
        elif args.metric == "efficiency":
            series = _efficiency(telemetry, args.window)
            write, data = _write_series, (_EFFICIENCY_HEADER, *series)
            line = f"mean_ratio={_defined_mean(series[1]):.3f}"
        else:  # slip
            times = telemetry.column("t")
            if len(times) < 2:  # the ground-truth speed is a finite difference
                raise DataError("insufficient samples")
            xy = np.column_stack((telemetry.column("x"), telemetry.column("y")))
            gt_speed = np.linalg.norm(np.gradient(xy, times, axis=0), axis=1)
            slip = metrics.longitudinal_slip(metrics.encoder_speed(telemetry), gt_speed)
            write, data = _write_series, (["slip_t_s", "slip_ratio"], times, slip)
            line = f"mean_slip={_defined_mean(slip):.3f}"
        write(out / _ANALYZE_OUTPUTS[args.metric], *data)
    print(line)
    return EXIT_OK


def _estimate_deflection(
    annotations: str, model: str, camera: str
) -> list[deflection.DeflectionEstimate]:
    """Load the model, camera and annotation files and estimate each frame."""
    from rovermotion import deflection

    wheel = deflection.load_wheel_model(model)
    cam = deflection.load_camera(camera)
    frames = deflection.read_annotations_csv(annotations)
    with naming(annotations):
        return deflection.process_annotations(frames, wheel, cam)


def _deflection_text(estimates: list[deflection.DeflectionEstimate]) -> str:
    from rovermotion.config import csv_text

    return csv_text(["frame", "volume_m3", "fraction"],
                    [[e.frame, f"{e.volume:.9f}", e.fraction] for e in estimates])


def cmd_deflect(args) -> int:
    # deflection.smooth_deflection_series checks this too, but only after the
    # fit of every frame; a bad window fails here, before any frame is read.
    if args.window < 1 or args.window % 2 == 0:
        raise DataError("window must be odd and >= 1")
    _check_exists(args.model, args.camera, args.annotations)
    out = _check_outputs(args.out, "deflection.csv",
                         *(["deflection_smoothed.csv"] if args.window != 1 else []))
    from rovermotion import deflection
    from rovermotion.config import write_output

    estimates = _estimate_deflection(args.annotations, args.model, args.camera)
    texts = {"deflection.csv": _deflection_text(estimates)}
    if args.window != 1:
        texts["deflection_smoothed.csv"] = _deflection_text(
            deflection.smooth_deflection_series(estimates, args.window))
    for name, text in texts.items():
        write_output(out / name, text)
    peak = max((e.fraction for e in estimates), default=0.0)
    print(f"frames={len(estimates)} max_fraction={peak:.4f}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    import io
    from pathlib import Path

    path = Path(args.table)
    _check_exists(path)
    out = _check_outputs(args.out, "power_params.txt", "calibration_residuals.csv")
    from rovermotion import terrain
    from rovermotion.config import (
        csv_rows, csv_text, from_pairs, key_value_text, read_text, write_output)

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
    write_output(out / "power_params.txt", params_text)
    write_output(out / "calibration_residuals.csv", residuals_text)
    print(f"rows={len(rows)} max_abs_residual={max(abs(r) for r in residuals):.4f}")
    return EXIT_OK


def cmd_report(args) -> int:
    out = _check_outputs(
        args.out, "table2.csv", "fig6.csv",
        *(f"telemetry_{name}.csv" for name in PRESET_NAMES + ROTATION_PRESETS),
        *(f"fig{n}_{name}.csv" for name in ROTATION_PRESETS for n in (3, 4)),
    )
    from rovermotion import metrics, terrain
    from rovermotion.config import csv_text, write_output
    from rovermotion.telemetry import write_fixed_csv

    table_rows = []
    for name in PRESET_NAMES + ROTATION_PRESETS:
        scenario = terrain.load_scenario(preset_path(name))
        telemetry = terrain.simulate_traverse(scenario)
        write_telemetry_csv(out / f"telemetry_{name}.csv", telemetry)
        if name in ROTATION_PRESETS:
            write_fixed_csv(out / f"fig3_{name}.csv", _YAW_ENERGY_HEADER,
                            metrics.energy_vs_yaw(telemetry))
            _write_series(out / f"fig4_{name}.csv", _EFFICIENCY_HEADER,
                          *_efficiency(telemetry, 0.5))
        else:
            report = metrics.mean_cot(telemetry, scenario.config)
            table_rows.append(
                _cot_row(name.split("_")[0], scenario.terrain.slope_deg, report))
    write_output(out / "table2.csv", csv_text(_COT_HEADER, table_rows))

    fixture = _data_dir("deflection")
    estimates = _estimate_deflection(
        str(fixture / "annotations.csv"),
        str(fixture / "model.txt"),
        str(fixture / "camera.txt"),
    )
    write_output(out / "fig6.csv", csv_text(["fig6_frame", "fig6_fraction"],
                                            [[e.frame, e.fraction] for e in estimates]))
    print(f"report written to {out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rovermotion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a scenario file to telemetry")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="compute metrics from a telemetry CSV")
    p.add_argument("metric", choices=["cot", "yaw-energy", "efficiency", "slip"])
    p.add_argument("--telemetry", required=True)
    p.add_argument("--config", default=None, help="rover config key/value file")
    p.add_argument("--out", default=".")
    p.add_argument("--label", default="", help="mode label for the report")
    p.add_argument("--slope", type=_number_arg, default=0.0)
    p.add_argument("--window", type=lambda text: _number_arg(text, positive=True),
                   default=0.5, help="smoothing window (s) for efficiency")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("deflect", help="run the wheel-deflection pipeline")
    p.add_argument("--annotations", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--window", type=int, default=1, help="odd smoothing window")
    p.set_defaults(func=cmd_deflect)

    p = sub.add_parser("calibrate", help="fit power-model parameters to CoT rows")
    p.add_argument("--table", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--flat-only", action="store_true",
                   help="fit only nominal flat-ground rows")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="bundle all preset analyses into one directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    import os

    # One OpenBLAS thread: no command does BLAS-sized work, and the pool's
    # idle worker spins on a second core. Read once, when numpy first loads,
    # so it acts only on a process that has not loaded numpy yet; a value the
    # caller sets wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PoseFitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


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
