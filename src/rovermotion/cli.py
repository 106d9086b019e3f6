"""Command-line harness: simulate scenarios, analyze telemetry, report."""
from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from rovermotion.errors import (
    CalibrationError,
    ConfigError,
    GeometryError,
    KinematicsError,
    MetricsError,
    PoseFitError,
    TelemetryFormatError,
)

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


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _check_outputs(path: str, *names: str) -> None:
    """Raise ConfigError naming the first of `names` in the output directory
    `path`, or the `NAME.tmp` open_output writes it through, that is itself a
    directory, before the command does work whose result it could not write.
    Makes nothing, so an input error leaves no `path` behind."""
    from pathlib import Path

    for name in names:
        for target in (Path(path) / name, Path(path) / f"{name}.tmp"):
            if target.is_dir():
                raise ConfigError(f"is a directory: {target}")


def _out_dir(path: str) -> Path:
    """The directory `path`, made with its parents if it does not exist."""
    from pathlib import Path

    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at `path` or above it, or no permission
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from None
    return out


_COT_HEADER = ["table2_mode", "table2_slope_deg", "table2_velocity_m_s",
              "table2_power_w", "table2_cot"]


def _write_series(
    path: Path, header: list[str], times: np.ndarray, gap: np.ndarray,
    *columns: np.ndarray,
) -> None:
    """Write a time column and value columns; the value cells of the samples
    where `gap` is true are written empty."""
    import numpy as np

    from rovermotion.telemetry import write_fixed_csv

    values = np.column_stack((times, *columns))
    blank = np.zeros(values.shape, dtype=bool)
    blank[:, 1:] = gap[:, None]
    write_fixed_csv(path, header, values, blank)


def _cot_row(mode: str, slope_deg: float, report: metrics.CotReport) -> list[str]:
    return [mode, _fmt(slope_deg), _fmt(report.mean_velocity),
            _fmt(report.mean_power), _fmt(report.cost_of_transport)]


def _write_yaw_energy(path: Path, telemetry: Telemetry) -> np.ndarray:
    from rovermotion import metrics
    from rovermotion.telemetry import write_fixed_csv

    curve = metrics.energy_vs_yaw(telemetry)
    write_fixed_csv(path, ["fig3_yaw_deg", "fig3_energy_j"], curve)
    return curve


def _write_efficiency(
    path: Path, telemetry: Telemetry, window_s: float
) -> list[float]:
    """Write the angular-speed efficiency series; returns its defined ratios."""
    import numpy as np

    from rovermotion import metrics

    ratios = metrics.angular_speed_efficiency(
        telemetry.column("t"),
        telemetry.column("heading"),
        telemetry.column("odo_wz"),
        smoothing_window_s=window_s,
    )
    gap = np.isnan(ratios)
    _write_series(
        path,
        ["fig4_t_s", "fig4_ratio", "fig4_ratio_clamped"],
        telemetry.column("t"),
        gap,
        ratios,
        metrics.clamp_ratio(ratios),
    )
    return ratios[~gap].tolist()


def _data_dir(name: str) -> Path:
    """The directory `name` among the package's bundled data."""
    from importlib import resources
    from pathlib import Path

    return Path(str(resources.files("rovermotion").joinpath("data", name)))


def preset_path(name: str) -> Path:
    path = _data_dir("presets") / f"{name}.scn"
    if not path.exists():
        raise ConfigError(f"unknown preset {name!r}")
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
    """Raise ConfigError naming the first of `paths` that is not a file."""
    from pathlib import Path

    for path in paths:
        if not Path(path).is_file():
            problem = "not a file" if Path(path).exists() else "no such file"
            raise ConfigError(f"{problem}: {path}")


def cmd_simulate(args) -> int:
    _check_exists(args.scenario)
    _check_outputs(args.out, "telemetry.csv", "summary.txt")
    from rovermotion import terrain
    from rovermotion.config import write_key_value_file

    scenario = terrain.load_scenario(args.scenario)
    telemetry = terrain.simulate_traverse(scenario)
    out = _out_dir(args.out)
    write_telemetry_csv(out / "telemetry.csv", telemetry)
    final = (telemetry[-1] if len(telemetry)
             else dict.fromkeys(["t", "x", "y", "heading"], 0.0))
    write_key_value_file(out / "summary.txt", [
        ("scenario", scenario.name),
        ("records", len(telemetry)),
        ("duration_s", _fmt(final["t"])),
        ("final_x_m", _fmt(final["x"])),
        ("final_y_m", _fmt(final["y"])),
        ("final_heading_rad", _fmt(final["heading"])),
        ("energy_j", _fmt(telemetry.cumulative_energy()[-1])),
    ])
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
    _check_outputs(args.out, _ANALYZE_OUTPUTS[args.metric])
    telemetry = read_telemetry_csv(args.telemetry)
    # only cot reads the rover; loaded before the output directory is made
    config = _config_from_args(args) if args.metric == "cot" else None
    from rovermotion import metrics
    from rovermotion.config import write_csv

    out = _out_dir(args.out)
    path = out / _ANALYZE_OUTPUTS[args.metric]

    if args.metric == "cot":
        report = metrics.mean_cot(telemetry, config)
        write_csv(path, _COT_HEADER, [_cot_row(args.label, args.slope, report)])
        print(f"cot={report.cost_of_transport:.3f}")
        return EXIT_OK

    if args.metric == "yaw-energy":
        curve = _write_yaw_energy(path, telemetry)
        total = curve[-1] if len(curve) else (0.0, 0.0)
        print(f"yaw_deg={total[0]:.3f} energy_j={total[1]:.3f}")
        return EXIT_OK

    if args.metric == "efficiency":
        valid = _write_efficiency(path, telemetry, args.window)
        mean = sum(valid) / len(valid) if valid else float("nan")
        print(f"mean_ratio={mean:.3f}")
        return EXIT_OK

    if args.metric == "slip":
        import numpy as np

        times = telemetry.column("t")
        if len(times) < 2:  # the ground-truth speed is a finite difference
            raise MetricsError("insufficient samples")
        xy = np.column_stack((telemetry.column("x"), telemetry.column("y")))
        gt_speed = np.linalg.norm(np.gradient(xy, times, axis=0), axis=1)
        slip = metrics.longitudinal_slip(metrics.encoder_speed(telemetry), gt_speed)
        gap = np.isnan(slip)
        _write_series(path, ["slip_t_s", "slip_ratio"], times, gap, slip)
        valid = slip[~gap].tolist()
        mean = sum(valid) / len(valid) if valid else float("nan")
        print(f"mean_slip={mean:.3f}")
        return EXIT_OK

    raise ConfigError(f"unknown metric {args.metric!r}")


def _estimate_deflection(
    annotations: str, model: str, camera: str
) -> list[deflection.DeflectionEstimate]:
    """Load the model, camera and annotation files and estimate each frame."""
    from rovermotion import deflection  # imports scipy

    wheel = deflection.load_wheel_model(model)
    cam = deflection.load_camera(camera)
    frames = deflection.read_annotations_csv(annotations)
    return deflection.process_annotations(frames, wheel, cam)


def _write_deflection(
    path: Path, estimates: list[deflection.DeflectionEstimate]
) -> None:
    from rovermotion.config import write_csv

    write_csv(
        path,
        ["frame", "volume_m3", "fraction"],
        [[str(e.frame), f"{e.volume:.9f}", _fmt(e.fraction)] for e in estimates],
    )


def cmd_deflect(args) -> int:
    # deflection.smooth_deflection_series checks this too, but only after the
    # fit of every frame; a bad window fails here, before scipy loads.
    if args.window < 1 or args.window % 2 == 0:
        raise GeometryError("window must be odd and >= 1")
    _check_exists(args.model, args.camera, args.annotations)
    _check_outputs(args.out, "deflection.csv",
                   *(["deflection_smoothed.csv"] if args.window != 1 else []))
    from rovermotion import deflection

    estimates = _estimate_deflection(args.annotations, args.model, args.camera)
    out = _out_dir(args.out)
    _write_deflection(out / "deflection.csv", estimates)
    if args.window != 1:
        _write_deflection(
            out / "deflection_smoothed.csv",
            deflection.smooth_deflection_series(estimates, args.window),
        )
    peak = max((e.fraction for e in estimates), default=0.0)
    print(f"frames={len(estimates)} max_fraction={peak:.4f}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    import io
    from math import isfinite
    from pathlib import Path

    path = Path(args.table)
    _check_exists(path)
    _check_outputs(args.out, "power_params.txt", "calibration_residuals.csv")
    from rovermotion.config import csv_rows, read_text, write_csv, write_key_value_file

    rows = []
    header = ["mode", "slope_deg", "velocity", "cot"]
    for where, row in csv_rows(io.StringIO(read_text(path)), header, path):
        try:
            slope, velocity, cot = values = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        for name, cell, value in zip(header[1:], row[1:], values):
            if not isfinite(value):
                raise ConfigError(f"{where}: non-finite {name} {cell!r}")
        if args.flat_only and (slope != 0.0 or row[0].lower() != "nominal"):
            continue
        if velocity <= 0.0:
            raise ConfigError(f"{where}: non-positive velocity in calibration row")
        rows.append((slope, velocity, cot))
    config = _config_from_args(args)
    from rovermotion import terrain

    params, residuals = terrain.calibrate_power(rows, config)
    out = _out_dir(args.out)
    write_key_value_file(out / "power_params.txt", [
        (name, _fmt(getattr(params, name))) for name in sorted(params.__dataclass_fields__)
    ])
    write_csv(
        out / "calibration_residuals.csv",
        ["slope_deg", "velocity_m_s", "cot_measured", "cot_residual"],
        [
            [_fmt(s), _fmt(v), _fmt(c), _fmt(res)]
            for (s, v, c), res in zip(rows, residuals)
        ],
    )
    print(f"rows={len(rows)} max_abs_residual={max(abs(r) for r in residuals):.4f}")
    return EXIT_OK


def cmd_report(args) -> int:
    _check_outputs(
        args.out, "table2.csv", "fig6.csv",
        *(f"telemetry_{name}.csv" for name in PRESET_NAMES + ROTATION_PRESETS),
        *(f"fig{n}_{name}.csv" for name in ROTATION_PRESETS for n in (3, 4)),
    )
    from rovermotion import metrics, terrain
    from rovermotion.config import write_csv

    out = _out_dir(args.out)

    table_rows = []
    for name in PRESET_NAMES:
        scenario = terrain.load_scenario(preset_path(name))
        telemetry = terrain.simulate_traverse(scenario)
        write_telemetry_csv(out / f"telemetry_{name}.csv", telemetry)
        report = metrics.mean_cot(telemetry, scenario.config)
        table_rows.append(
            _cot_row(name.split("_")[0], scenario.terrain.slope_deg, report))
    write_csv(out / "table2.csv", _COT_HEADER, table_rows)

    for name in ROTATION_PRESETS:
        scenario = terrain.load_scenario(preset_path(name))
        telemetry = terrain.simulate_traverse(scenario)
        write_telemetry_csv(out / f"telemetry_{name}.csv", telemetry)
        _write_yaw_energy(out / f"fig3_{name}.csv", telemetry)
        _write_efficiency(out / f"fig4_{name}.csv", telemetry, 0.5)

    fixture = _data_dir("deflection")
    estimates = _estimate_deflection(
        str(fixture / "annotations.csv"),
        str(fixture / "model.txt"),
        str(fixture / "camera.txt"),
    )
    write_csv(
        out / "fig6.csv",
        ["fig6_frame", "fig6_fraction"],
        [[str(e.frame), _fmt(e.fraction)] for e in estimates],
    )
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
    except (ConfigError, TelemetryFormatError, GeometryError, MetricsError,
            KinematicsError, CalibrationError, FileNotFoundError) as exc:
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
