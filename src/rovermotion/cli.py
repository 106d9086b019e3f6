"""Command-line harness: simulate scenarios, analyze telemetry, report."""
from __future__ import annotations

import argparse
import csv
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from rovermotion import metrics, terrain
from rovermotion.config import ConfigError, RoverConfig, load_config
from rovermotion.errors import GeometryError, PoseFitError
from rovermotion.kinematics import KinematicsError
from rovermotion.metrics import MetricsError
from rovermotion.telemetry import (
    Telemetry,
    TelemetryFormatError,
    read_telemetry_csv,
    write_telemetry_csv,
)

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


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


_COT_HEADER = ["table2_mode", "table2_slope_deg", "table2_velocity_m_s",
              "table2_power_w", "table2_cot"]


def _cot_row(report: metrics.CotReport) -> list[str]:
    return [report.mode, _fmt(report.slope_deg), _fmt(report.mean_velocity),
            _fmt(report.mean_power), _fmt(report.cost_of_transport)]


def _write_yaw_energy(
    path: Path, telemetry: Telemetry, mode: str
) -> metrics.YawEnergyCurve:
    curve = metrics.energy_vs_yaw(telemetry, mode=mode)
    _write_csv(
        path,
        ["fig3_yaw_deg", "fig3_energy_j"],
        [[_fmt(a), _fmt(e)] for a, e in curve.points],
    )
    return curve


def _write_efficiency(
    path: Path, telemetry: Telemetry, window_s: float
) -> list[float]:
    """Write the angular-speed efficiency series; returns its defined ratios."""
    series = metrics.angular_speed_efficiency(
        telemetry.column("t"),
        telemetry.column("heading"),
        telemetry.column("odo_wz"),
        smoothing_window_s=window_s,
    )
    _write_csv(
        path,
        ["fig4_t_s", "fig4_ratio", "fig4_ratio_clamped"],
        [
            [_fmt(t), "", ""] if ratio is None
            else [_fmt(t), _fmt(ratio), _fmt(metrics.clamp_ratio(ratio))]
            for t, ratio in series
        ],
    )
    return [ratio for _, ratio in series if ratio is not None]


def preset_path(name: str) -> Path:
    base = resources.files("rovermotion").joinpath("data", "presets")
    path = Path(str(base.joinpath(f"{name}.scn")))
    if not path.exists():
        raise ConfigError(f"unknown preset {name!r}")
    return path


def _load_telemetry_arg(path: str):
    if not Path(path).exists():
        raise TelemetryFormatError(f"no such file: {path}")
    return read_telemetry_csv(path)


def cmd_simulate(args) -> int:
    scenario = terrain.load_scenario(args.scenario)
    telemetry = terrain.simulate_traverse(scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_telemetry_csv(out / "telemetry.csv", telemetry)
    duration = telemetry[-1].t if telemetry else 0.0
    final = telemetry[-1].pose if telemetry else (0.0, 0.0, 0.0)
    summary = out / "summary.txt"
    summary.write_text(
        "\n".join(
            [
                f"scenario = {scenario.name}",
                f"records = {len(telemetry)}",
                f"duration_s = {_fmt(duration)}",
                f"final_x_m = {_fmt(final[0])}",
                f"final_y_m = {_fmt(final[1])}",
                f"final_heading_rad = {_fmt(final[2])}",
                f"energy_j = {_fmt(telemetry.cumulative_energy()[-1])}",
            ]
        )
        + "\n"
    )
    return EXIT_OK


def _config_from_args(args) -> RoverConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return RoverConfig()


def cmd_analyze(args) -> int:
    telemetry = _load_telemetry_arg(args.telemetry)
    config = _config_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if args.metric == "cot":
        report = metrics.mean_cot(
            telemetry, config, mode=args.label, slope_deg=args.slope
        )
        _write_csv(out / "cot.csv", _COT_HEADER, [_cot_row(report)])
        print(f"cot={report.cost_of_transport:.3f}")
        return EXIT_OK

    if args.metric == "yaw-energy":
        curve = _write_yaw_energy(out / "yaw_energy.csv", telemetry, args.label)
        total = curve.points[-1] if curve.points else (0.0, 0.0)
        print(f"yaw_deg={total[0]:.3f} energy_j={total[1]:.3f}")
        return EXIT_OK

    if args.metric == "efficiency":
        valid = _write_efficiency(out / "efficiency.csv", telemetry, args.window)
        mean = sum(valid) / len(valid) if valid else float("nan")
        print(f"mean_ratio={mean:.3f}")
        return EXIT_OK

    if args.metric == "slip":
        times = telemetry.column("t")
        xy = np.column_stack((telemetry.column("x"), telemetry.column("y")))
        gt_speed = np.linalg.norm(np.gradient(xy, times, axis=0), axis=1)
        slip = metrics.longitudinal_slip(metrics.encoder_speed(telemetry), gt_speed)
        rows = [
            [_fmt(t), "" if s is None else _fmt(s)] for t, s in zip(times, slip)
        ]
        _write_csv(out / "slip.csv", ["slip_t_s", "slip_ratio"], rows)
        valid = [s for s in slip if s is not None]
        mean = sum(valid) / len(valid) if valid else float("nan")
        print(f"mean_slip={mean:.3f}")
        return EXIT_OK

    raise ConfigError(f"unknown metric {args.metric!r}")


def cmd_deflect(args) -> int:
    from rovermotion import deflection  # imports scipy

    model = deflection.load_wheel_model(args.model)
    cam = deflection.load_camera(args.camera)
    frames = deflection.read_annotations_csv(args.annotations)
    estimates = deflection.process_annotations(frames, model, cam)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "deflection.csv",
        ["frame", "volume_m3", "fraction"],
        [[str(e.frame), f"{e.volume:.9f}", _fmt(e.fraction)] for e in estimates],
    )
    if args.window > 1:
        smoothed = deflection.smooth_deflection_series(estimates, args.window)
        _write_csv(
            out / "deflection_smoothed.csv",
            ["frame", "volume_m3", "fraction"],
            [[str(e.frame), f"{e.volume:.9f}", _fmt(e.fraction)] for e in smoothed],
        )
    peak = max((e.fraction for e in estimates), default=0.0)
    print(f"frames={len(estimates)} max_fraction={peak:.4f}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    path = Path(args.table)
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    rows = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        expected = ["mode", "slope_deg", "velocity", "cot"]
        if reader.fieldnames != expected:
            raise ConfigError(f"{path}: expected header {','.join(expected)}")
        for row in reader:
            if args.flat_only and (
                float(row["slope_deg"]) != 0.0 or row["mode"].lower() != "nominal"
            ):
                continue
            rows.append(
                (float(row["slope_deg"]), float(row["velocity"]), float(row["cot"]))
            )
    config = _config_from_args(args)
    params, residuals = terrain.calibrate_power(rows, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "power_params.txt").write_text(
        "\n".join(
            f"{name} = {_fmt(getattr(params, name))}"
            for name in sorted(params.__dataclass_fields__)
        )
        + "\n"
    )
    _write_csv(
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
    from rovermotion import deflection  # imports scipy

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    table_rows = []
    for name in PRESET_NAMES:
        scenario = terrain.load_scenario(preset_path(name))
        telemetry = terrain.simulate_traverse(scenario)
        write_telemetry_csv(out / f"telemetry_{name}.csv", telemetry)
        report = metrics.mean_cot(
            telemetry,
            scenario.config,
            mode=name.split("_")[0],
            slope_deg=scenario.terrain.slope_deg,
        )
        table_rows.append(_cot_row(report))
    _write_csv(out / "table2.csv", _COT_HEADER, table_rows)

    for name in ROTATION_PRESETS:
        scenario = terrain.load_scenario(preset_path(name))
        telemetry = terrain.simulate_traverse(scenario)
        write_telemetry_csv(out / f"telemetry_{name}.csv", telemetry)
        _write_yaw_energy(out / f"fig3_{name}.csv", telemetry, name)
        _write_efficiency(out / f"fig4_{name}.csv", telemetry, 0.5)

    fixture = resources.files("rovermotion").joinpath("data", "deflection")
    model = deflection.load_wheel_model(str(fixture.joinpath("model.txt")))
    cam = deflection.load_camera(str(fixture.joinpath("camera.txt")))
    frames = deflection.read_annotations_csv(str(fixture.joinpath("annotations.csv")))
    estimates = deflection.process_annotations(frames, model, cam)
    _write_csv(
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
    p.add_argument("--slope", type=float, default=0.0)
    p.add_argument("--window", type=float, default=0.5,
                   help="smoothing window (s) for efficiency")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TelemetryFormatError, GeometryError, MetricsError,
            KinematicsError, terrain.CalibrationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PoseFitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
