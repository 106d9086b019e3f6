"""End-to-end acceptance suite.

Each test checks one release criterion and prints a single PASS/FAIL line
so the acceptance status can be read straight off the pytest -s output.
"""
import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rovermotion.cli import main as cli_main
from rovermotion.config import BodyTwist, LocomotionMode, RoverConfig
from rovermotion.deflection import (
    CameraIntrinsics,
    WheelModel3D,
    WheelPose,
    deflected_volume_fraction,
    fit_wheel_pose,
    initial_pose_guess,
    load_camera,
    load_wheel_model,
    make_chord_annotation,
    process_annotations,
    project_wheel,
    read_annotations_csv,
    segment_fraction,
)
from rovermotion.kinematics import (
    ProfileSegment,
    forward_odometry,
    icr_of,
    inverse_kinematics,
)
from rovermotion.metrics import (
    angular_speed_efficiency,
    cost_of_transport,
    energy_vs_yaw,
)
from rovermotion.terrain import (
    PowerModelParams,
    Scenario,
    TerrainParams,
    calibrate_power,
    load_scenario,
    model_cot,
    simulate_traverse,
)

CFG = RoverConfig()
DATA = Path(__file__).resolve().parents[1] / "src" / "rovermotion" / "data"

TABLE_ROWS = [
    ("excavator", 0.0, 0.03, 0.553),
    ("nominal", 0.0, 0.03, 0.646),
    ("nominal", 0.0, 0.06, 1.10),
    ("nominal", 0.0, 0.08, 1.39),
    ("slope_up", 10.0, 0.06, 0.891),
    ("slope_up", 15.0, 0.06, 0.769),
    ("slope_up", 20.0, 0.06, 0.591),
    ("slope_up", 25.0, 0.06, 0.694),
]


def _report(number: int, name: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nacceptance criterion {number} ({name}): {status}")
    assert passed


def _sig3(value: float) -> float:
    if value == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(value)))
    return round(value, -exponent + 2)


def test_criterion_1_cot_identity():
    ok = abs(cost_of_transport(54.39, 84.0, 9.81, 0.06) - 1.100) <= 0.001
    for _, _, v, cot in TABLE_ROWS:
        power = cot * CFG.mass * CFG.gravity * v
        back = cost_of_transport(power, CFG.mass, CFG.gravity, v)
        ok = ok and _sig3(back) == _sig3(cot)
    _report(1, "cost-of-transport identity", ok)


def test_criterion_2_calibration():
    flat = [(s, v, c) for _, s, v, c in TABLE_ROWS[1:4]]
    _, residuals = calibrate_power(flat, CFG)
    ok = max(abs(r) for r in residuals) <= 0.15

    truth = PowerModelParams(
        idle_power_per_drive=2.0,
        rolling_resistance_coeff=0.17,
        speed_quadratic_coeff=2800.0,
    )
    rows = [
        (s, v, model_cot(truth, CFG, s, v))
        for s in (0.0, 8.0, 16.0)
        for v in (0.02, 0.05, 0.09)
    ]
    fitted, _ = calibrate_power(rows, CFG)
    for name, expected in (
        ("idle_power_per_drive", 2.0),
        ("rolling_resistance_coeff", 0.17),
        ("speed_quadratic_coeff", 2800.0),
    ):
        ok = ok and abs(getattr(fitted, name) - expected) <= 1e-6 * expected
    _report(2, "power-model calibration", ok)


def _rotation_efficiency(mode: LocomotionMode) -> float:
    duration = math.pi / (0.05 * 0.999)  # a hair past 180 deg of commanded yaw
    records = simulate_traverse(
        Scenario(profile=[ProfileSegment(duration, BodyTwist(0, 0, 0.05), mode)])
    )
    t = np.array([r.t for r in records])
    heading = np.array([r.heading for r in records])
    odo_wz = np.array([r.odo_wz for r in records])
    series = angular_speed_efficiency(t, heading, odo_wz)
    ratios = series[~np.isnan(series)]
    return float(np.mean(ratios))


def test_criterion_3_steering_mode_efficiency():
    skid = _rotation_efficiency(LocomotionMode.SKID_STEER)
    point = _rotation_efficiency(LocomotionMode.POINT_TURN)
    ok = abs(skid - 0.75) <= 0.01 and abs(point - 1.00) <= 0.01
    _report(3, "skid 0.75 / point-turn 1.00 efficiency", ok)


def test_criterion_4_yaw_energy_crossover():
    curves = {}
    for name in ("rotation_skid", "rotation_point_turn"):
        records = simulate_traverse(load_scenario(DATA / "presets" / f"{name}.scn"))
        curves[name] = energy_vs_yaw(records)
    skid, point = curves["rotation_skid"], curves["rotation_point_turn"]
    ok = skid[0][1] <= 1e-9  # skid curve starts from zero energy
    pt_basal = point[point[:, 0] <= 1e-9][:, 1].max()
    ok = ok and pt_basal > 0  # positive point-turn ordinate at yaw 0+
    grid = np.linspace(1.0, 360.0, 720)
    diff = np.interp(grid, point[:, 0], point[:, 1]) - np.interp(
        grid, skid[:, 0], skid[:, 1]
    )
    signs = np.sign(diff)
    crossings = int(np.sum(signs[:-1] != signs[1:]))
    ok = ok and crossings == 1 and diff[0] > 0 and diff[-1] < 0
    _report(4, "yaw-energy single crossover", ok)


def test_criterion_5_kinematics_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(1000):
        if rng.random() < 0.5:
            twist = BodyTwist(
                float(rng.uniform(-0.2, 0.2)), 0.0, float(rng.uniform(0.05, 0.5))
            )
            mode = LocomotionMode.ACKERMANN
        else:
            twist = BodyTwist(0.0, 0.0, float(rng.uniform(0.05, 0.5)))
            mode = LocomotionMode.POINT_TURN
        commands = inverse_kinematics(twist, mode, CFG)
        _, residual = icr_of(commands, CFG)
        ok = ok and residual < 1e-9
        back = forward_odometry(commands, CFG)
        ok = ok and max(
            abs(back.vx - twist.vx), abs(back.vy - twist.vy), abs(back.wz - twist.wz)
        ) < 1e-9

    slip_free = TerrainParams(skid_rotation_efficiency=1.0, longitudinal_slip_ratio=0.0)
    crab = simulate_traverse(
        Scenario(
            [ProfileSegment(20.0, BodyTwist(0.04, 0.03, 0), LocomotionMode.CRAB)],
            terrain=slip_free,
        )
    )
    ok = ok and bool(np.all(crab.column("heading") == 0.0))

    marker = simulate_traverse(
        Scenario(
            [ProfileSegment(60.0, BodyTwist(0, 0, 0.1), LocomotionMode.POINT_TURN)],
            terrain=slip_free,
            marker_offset=(0.4, 0.0),
            step=0.01,
        )
    )
    radii = np.hypot(marker.column("marker_x"), marker.column("marker_y"))
    radius_err = float(np.max(np.abs(radii - 0.4)))
    ok = ok and radius_err < 1e-4
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(5, f"kinematics invariants ({elapsed:.1f} s)", ok)


def test_criterion_6_deflection_oracle_equivalence():
    model = WheelModel3D(radius=0.15, width=0.12, hub_radius=0.05)
    cam = CameraIntrinsics(fx=800, fy=800, cx=640, cy=360, width=1280, height=720)
    pose = WheelPose.from_rotvec([0.1, -0.15, 0.06], [0.05, 0.02, 0.9])
    ok = True
    previous = -1.0
    for h in (0.99, 0.95, 0.9, 0.8, 0.6):
        chord = make_chord_annotation(model, pose, cam, h)
        est = deflected_volume_fraction(model, pose, cam, chord)
        analytic = segment_fraction(h)
        ok = ok and abs(est.fraction - analytic) <= 0.01 * analytic
        ok = ok and est.fraction > previous  # deeper chord, larger fraction
        previous = est.fraction
    tangent = make_chord_annotation(model, pose, cam, 1.0)
    ok = ok and deflected_volume_fraction(model, pose, cam, tangent).fraction == 0.0
    _report(6, "chord volume vs analytic segment volume", ok)


def test_criterion_7_fixture_reproduction():
    fixture = DATA / "deflection"
    model = load_wheel_model(fixture / "model.txt")
    cam = load_camera(fixture / "camera.txt")
    frames = read_annotations_csv(fixture / "annotations.csv")
    estimates = process_annotations(frames, model, cam)
    with open(fixture / "oracle.csv") as handle:
        oracle = {int(r["frame"]): float(r["fraction"]) for r in csv.DictReader(handle)}
    ok = len(estimates) == len(oracle)
    for est in estimates:
        ok = ok and abs(est.fraction - oracle[est.frame]) <= 0.002
    airborne = [est.fraction for est in estimates if oracle[est.frame] == 0.0]
    # stable windows sit in the 3.8-4.7% band; the dip and impact frames don't
    stable = [est.fraction for est in estimates if 0.037 < oracle[est.frame] < 0.05]
    ok = ok and all(f == 0.0 for f in airborne)
    ok = ok and all(0.035 <= f <= 0.05 for f in stable)
    ok = ok and max(est.fraction for est in estimates) < 0.065
    _report(7, "bundled deflection fixture", ok)


def test_criterion_8_pose_fit_round_trip():
    model = WheelModel3D(radius=0.15, width=0.12, hub_radius=0.05)
    cam = CameraIntrinsics(fx=800, fy=800, cx=640, cy=360, width=1280, height=720)
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        rotvec = rng.uniform(-0.25, 0.25, 3)
        translation = np.array(
            [rng.uniform(-0.08, 0.08), rng.uniform(-0.05, 0.05), rng.uniform(0.7, 1.1)]
        )
        true = WheelPose.from_rotvec(rotvec, translation)
        loops = project_wheel(model, true, cam, samples_per_circle=24)
        fitted, _ = fit_wheel_pose(loops, model, cam, initial_pose_guess(loops, model, cam))
        trans_err = float(np.linalg.norm(fitted.translation - true.translation))
        # spin about the wheel axis is unobservable; compare axis directions
        cosine = min(1.0, abs(float(fitted.axis @ true.axis)))
        axis_err_deg = math.degrees(math.acos(cosine))
        ok = ok and trans_err < 1e-4 and axis_err_deg < 0.01
    _report(8, "pose-fit round trip", ok)


def test_criterion_9_cli_determinism(tmp_path):
    scn = tmp_path / "noisy.scn"
    scn.write_text(
        "name = determinism\nterrain.noise_std = 0.05\nterrain.rng_seed = 9\n"
        "[profile]\nduration_s,vx,vy,wz,mode\n8,0.06,0,0.02,skid_steer\n"
    )
    outputs = []
    for label in ("a", "b"):
        sim = tmp_path / f"sim_{label}"
        assert cli_main(["simulate", "--scenario", str(scn), "--out", str(sim)]) == 0
        ana = tmp_path / f"ana_{label}"
        assert (
            cli_main(
                ["analyze", "cot", "--telemetry", str(sim / "telemetry.csv"),
                 "--out", str(ana)]
            )
            == 0
        )
        outputs.append(
            (sim / "telemetry.csv").read_bytes()
            + (sim / "summary.txt").read_bytes()
            + (ana / "cot.csv").read_bytes()
        )
    _report(9, "byte-identical reruns", outputs[0] == outputs[1])
