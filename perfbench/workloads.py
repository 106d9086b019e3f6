"""Workload inputs, CLI requests and output checks of the rovermotion benchmark.

A workload is built pass by pass. A pass is a list of `Request`s that are sent
one after another as `python -m rovermotion.cli ...` subprocesses; each request
carries the check its output must pass. All inputs derive from the workload
seed, so the same seed gives the same bytes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "rovermotion" / "data"
EXPECTED_PRESETS = Path(__file__).resolve().parent / "expected_presets.json"

STEP = 0.01  # integration step of every scenario the benchmark sends


@dataclass
class Outcome:
    """What one CLI subprocess did."""

    returncode: int | None  # None when killed at the deadline
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


@dataclass
class Request:
    """One CLI call, the output check it must pass, and the work it stands for."""

    kind: str  # simulate | analyze | deflect
    args: list[str]
    out: Path
    check: Callable[[Outcome], str | None]  # failure reason, or None if correct
    key: str = ""  # input/command; for presets, the key of the recorded digests
    records: int = 0  # telemetry rows a simulate request writes
    frames: int = 0  # annotation frames a deflect request fits


def failure_of(request: Request, outcome: Outcome) -> str | None:
    """Why a request failed: deadline, non-zero exit, or a failed check."""
    if outcome.returncode is None:
        return "killed at the request deadline"
    if outcome.returncode != 0:
        last = outcome.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {outcome.returncode}: {last[0]}"
    try:
        return request.check(outcome)
    except (ValueError, KeyError, IndexError, OSError) as exc:  # malformed output
        return f"output check raised {type(exc).__name__}: {exc}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path, header: list[str]) -> list[list[str]] | str:
    """Data rows of a CSV output, or a failure reason if missing or misheaded."""
    if not path.exists():
        return f"missing output {path.name}"
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        return f"{path.name}: unexpected header"
    return rows[1:]


# --------------------------------------------------------------------------
# presets: the 10 bundled scenarios, each analyzed with its paper metric
# --------------------------------------------------------------------------

# (preset, analyze metrics, --label, --slope); labels and slopes are the ones
# `rovermotion report` uses for the same tables.
PRESETS = [
    ("excavator_0_3cm", ("cot", "slip"), "excavator", 0.0),
    ("nominal_0_3cm", ("cot", "slip"), "nominal", 0.0),
    ("nominal_0_6cm", ("cot", "slip"), "nominal", 0.0),
    ("nominal_0_8cm", ("cot", "slip"), "nominal", 0.0),
    ("slope10_6cm", ("cot", "slip"), "slope10", 10.0),
    ("slope15_6cm", ("cot", "slip"), "slope15", 15.0),
    ("slope20_6cm", ("cot", "slip"), "slope20", 20.0),
    ("slope25_6cm", ("cot", "slip"), "slope25", 25.0),
    ("rotation_skid", ("yaw-energy", "efficiency"), "rotation_skid", 0.0),
    ("rotation_point_turn", ("yaw-energy", "efficiency"), "rotation_point_turn", 0.0),
]

ANALYZE_OUTPUT = {
    "cot": "cot.csv",
    "slip": "slip.csv",
    "yaw-energy": "yaw_energy.csv",
    "efficiency": "efficiency.csv",
}
ANALYZE_HEADER = {
    "cot": ["table2_mode", "table2_slope_deg", "table2_velocity_m_s",
            "table2_power_w", "table2_cot"],
    "slip": ["slip_t_s", "slip_ratio"],
    "yaw-energy": ["fig3_yaw_deg", "fig3_energy_j"],
    "efficiency": ["fig4_t_s", "fig4_ratio", "fig4_ratio_clamped"],
}
ANALYZE_STDOUT = {
    "cot": re.compile(r"cot=-?\d+\.\d{3}"),
    "slip": re.compile(r"mean_slip=-?\d+\.\d{3}"),
    "yaw-energy": re.compile(r"yaw_deg=-?\d+\.\d{3} energy_j=-?\d+\.\d{3}"),
    "efficiency": re.compile(r"mean_ratio=-?\d+\.\d{3}"),
}


def simulate_args(scenario: Path, out: Path) -> list[str]:
    return ["simulate", "--scenario", str(scenario), "--out", str(out)]


def analyze_args(metric: str, telemetry: Path, out: Path, label: str = "",
                 slope: float = 0.0) -> list[str]:
    args = ["analyze", metric, "--telemetry", str(telemetry), "--out", str(out)]
    if metric in ("cot", "yaw-energy"):
        args += ["--label", label]
    if metric == "cot":
        args += ["--slope", f"{slope:g}"]
    return args


def preset_outputs(kind: str, metric: str | None) -> list[str]:
    """Output files a preset request writes, in digest order."""
    if kind == "simulate":
        return ["telemetry.csv", "summary.txt"]
    return [ANALYZE_OUTPUT[metric]]


def _digest_check(key: str, out: Path, files: list[str], expected: dict) -> Callable:
    def check(outcome: Outcome) -> str | None:
        want = expected.get(key)
        if want is None:
            return f"no recorded digest for {key}"
        if outcome.stdout != want["stdout"]:
            return f"{key}: stdout differs from the recorded one"
        for name in files:
            path = out / name
            if not path.exists():
                return f"{key}: missing output {name}"
            if sha256(path) != want["files"][name]:
                return f"{key}: {name} differs from the recorded digest"
        return None

    return check


def preset_requests(order: list[int], work: Path, expected: dict) -> list[Request]:
    """simulate + analyze requests for the presets, in the given order."""
    requests = []
    for i in order:
        name, metrics, label, slope = PRESETS[i]
        sim_out = work / name / "sim"
        scenario = DATA / "presets" / f"{name}.scn"
        key = f"{name}/simulate"
        records = expected.get(key, {}).get("records", 0)
        requests.append(Request(
            "simulate", simulate_args(scenario, sim_out), sim_out,
            _digest_check(key, sim_out, preset_outputs("simulate", None), expected),
            key, records=records,
        ))
        for metric in metrics:
            out = work / name / metric
            key = f"{name}/{metric}"
            requests.append(Request(
                "analyze",
                analyze_args(metric, sim_out / "telemetry.csv", out, label, slope),
                out,
                _digest_check(key, out, preset_outputs("analyze", metric), expected),
                key,
            ))
    return requests


def load_expected_presets() -> dict:
    return json.loads(EXPECTED_PRESETS.read_text())


def presets_pass(seed: int, index: int, work: Path, expected: dict) -> list[Request]:
    order = list(range(len(PRESETS)))
    random.Random(f"presets-{seed}-{index}").shuffle(order)
    return preset_requests(order, work, expected)


# --------------------------------------------------------------------------
# mission: generated multi-segment, noisy, sloped scenarios
# --------------------------------------------------------------------------

MODES = ("skid_steer", "crab", "point_turn", "ackermann")
MISSION_SEGMENTS = 20
MISSION_RECORDS = 20_001  # every mission has this many telemetry rows
MIN_SEGMENT_STEPS = 100

# RoverConfig defaults; generated scenarios do not override them.
_HALF_L = 0.980 / 2.0
_HALF_W = 0.830 / 2.0
_WHEELS = ((_HALF_L, _HALF_W), (_HALF_L, -_HALF_W), (-_HALF_L, _HALF_W),
           (-_HALF_L, -_HALF_W))  # FL FR RL RR
_STEERING_RATE = math.radians(10.0)
_STEERING_LIMIT = math.radians(95.0)
_ANGLE_TOL = 1e-9


def _fold(angle: float) -> float:
    if angle > _STEERING_LIMIT:
        return angle - math.pi
    if angle < -_STEERING_LIMIT:
        return angle + math.pi
    return angle


def steering_angles(mode: str, vx: float, vy: float, wz: float) -> tuple[float, ...]:
    """Wheel steering angles a segment needs, from the documented geometry."""
    if mode == "skid_steer":
        return (0.0,) * 4
    if mode == "crab":
        angle = math.atan2(vy, vx) if math.hypot(vx, vy) > 0 else 0.0
        return (_fold(angle),) * 4
    if mode == "point_turn":
        return tuple(_fold(math.atan2(px, -py)) for px, py in _WHEELS)
    if wz == 0.0:  # ackermann, straight
        return (0.0,) * 4
    icr_y = vx / wz
    return tuple(_fold(math.atan2(px, -(py - icr_y))) for px, py in _WHEELS)


def reposition_steps(segments: list[tuple[str, float, float, float]]) -> int:
    """Samples the simulator inserts to slew the steering between segments."""
    current = (0.0,) * 4
    total = 0
    for mode, vx, vy, wz in segments:
        targets = steering_angles(mode, vx, vy, wz)
        slowest = max(abs(b - a) / _STEERING_RATE for a, b in zip(current, targets))
        if slowest > _ANGLE_TOL:
            total += math.ceil(slowest / STEP - 1e-9)
            current = targets
    return total


@dataclass
class Mission:
    name: str
    text: str  # .scn file contents
    records: int  # telemetry rows the profile implies
    duration_s: float
    slope_deg: float


def _draw_twist(rng: random.Random, mode: str) -> tuple[str, str, str]:
    if mode == "skid_steer":
        return f"{rng.uniform(0.02, 0.08):.4f}", "0", f"{rng.uniform(-0.05, 0.05):.4f}"
    if mode == "crab":
        return f"{rng.uniform(0.02, 0.06):.4f}", f"{rng.uniform(-0.05, 0.05):.4f}", "0"
    if mode == "point_turn":
        return "0", "0", f"{rng.choice((-1, 1)) * rng.uniform(0.03, 0.08):.4f}"
    return f"{rng.uniform(0.03, 0.08):.4f}", "0", f"{rng.uniform(-0.06, 0.06):.4f}"


def make_mission(seed: int, index: int) -> Mission:
    """A 20-segment scenario using all four modes, with noise and a slope.

    Segment durations are drawn so that the motion and the reposition
    samples add up to MISSION_RECORDS rows, which keeps the work per
    mission the same across seeds while the mode mix varies.
    """
    rng = random.Random(f"mission-{seed}-{index}")
    while True:
        modes = list(MODES) * (MISSION_SEGMENTS // len(MODES))
        rng.shuffle(modes)
        twists = [_draw_twist(rng, mode) for mode in modes]
        segments = [(m, float(vx), float(vy), float(wz))
                    for m, (vx, vy, wz) in zip(modes, twists)]
        motion = MISSION_RECORDS - 1 - reposition_steps(segments)
        spare = motion - MISSION_SEGMENTS * MIN_SEGMENT_STEPS
        if spare >= 0:
            break
    weights = [rng.uniform(0.5, 1.5) for _ in modes]
    steps = [MIN_SEGMENT_STEPS + int(spare * w / sum(weights)) for w in weights]
    steps[-1] += motion - sum(steps)
    name = f"mission_{seed}_{index}"
    slope = f"{rng.uniform(0.0, 15.0):.2f}"
    lines = [
        f"name = {name}",
        f"step = {STEP}",
        f"terrain.slope_deg = {slope}",
        f"terrain.noise_std = {rng.uniform(0.01, 0.05):.4f}",
        f"terrain.rng_seed = {rng.randrange(2**31)}",
        f"marker_offset_x = {rng.uniform(0.0, 0.5):.3f}",
        "[profile]",
        "duration_s,vx,vy,wz,mode",
    ]
    for mode, (vx, vy, wz), n in zip(modes, twists, steps):
        duration = f"{n / 100:.2f}"
        if max(1, round(float(duration) / STEP)) != n:
            raise ValueError(f"duration {duration} does not encode {n} steps")
        lines.append(f"{duration},{vx},{vy},{wz},{mode}")
    return Mission(name, "\n".join(lines) + "\n", MISSION_RECORDS,
                   (MISSION_RECORDS - 1) * STEP, float(slope))


def _mission_sim_check(mission: Mission, out: Path, reference: Path | None) -> Callable:
    def check(outcome: Outcome) -> str | None:
        rows = _csv_rows(out / "telemetry.csv", TELEMETRY_HEADER)
        if isinstance(rows, str):
            return rows
        if len(rows) != mission.records:
            return f"{len(rows)} telemetry rows, profile implies {mission.records}"
        summary_path = out / "summary.txt"
        if not summary_path.exists():
            return "missing output summary.txt"
        summary = dict(
            line.split(" = ", 1) for line in summary_path.read_text().splitlines()
        )
        if summary.get("records") != str(mission.records):
            return f"summary records = {summary.get('records')}"
        if summary.get("duration_s") != f"{mission.duration_s:.6f}":
            return f"summary duration_s = {summary.get('duration_s')}"
        if reference is not None:
            for name in ("telemetry.csv", "summary.txt"):
                if sha256(out / name) != sha256(reference / name):
                    return f"rerun of the same scenario changed {name}"
        return None

    return check


TELEMETRY_HEADER = (
    ["t", "x", "y", "heading", "marker_x", "marker_y"]
    + ["odo_vx", "odo_vy", "odo_wz", "cmd_vx", "cmd_vy", "cmd_wz"]
    + [f"{kind}_{wheel}" for kind in ("v_drive", "i_drive", "v_steer", "i_steer",
                                      "speed", "steer")
       for wheel in ("fl", "fr", "rl", "rr")]
)


def _analyze_check(metric: str, out: Path, rows_expected: int) -> Callable:
    def check(outcome: Outcome) -> str | None:
        if not ANALYZE_STDOUT[metric].fullmatch(outcome.stdout.strip()):
            return f"{metric}: unexpected stdout {outcome.stdout.strip()!r}"
        rows = _csv_rows(out / ANALYZE_OUTPUT[metric], ANALYZE_HEADER[metric])
        if isinstance(rows, str):
            return rows
        want = 1 if metric == "cot" else rows_expected
        if len(rows) != want:
            return f"{metric}: {len(rows)} rows, expected {want}"
        for row in rows:
            for cell in row[1:] if metric == "cot" else row:  # cot starts with a label
                if cell and not math.isfinite(float(cell)):
                    return f"{metric}: non-finite value {cell}"
        return None

    return check


def mission_pass(seed: int, index: int, work: Path) -> list[Request]:
    """Simulate one generated mission twice (rerun check), then analyze it 4 ways."""
    mission = make_mission(seed, index)
    base = work / mission.name
    base.mkdir(parents=True, exist_ok=True)
    scenario = base / "mission.scn"
    scenario.write_text(mission.text)
    first, second = base / "sim_a", base / "sim_b"
    requests = [
        Request("simulate", simulate_args(scenario, first), first,
                _mission_sim_check(mission, first, None), f"{mission.name}/simulate",
                records=mission.records),
        Request("simulate", simulate_args(scenario, second), second,
                _mission_sim_check(mission, second, first), f"{mission.name}/rerun",
                records=mission.records),
    ]
    for metric in ("cot", "yaw-energy", "efficiency", "slip"):
        out = base / metric
        requests.append(Request(
            "analyze",
            analyze_args(metric, first / "telemetry.csv", out, mission.name,
                         mission.slope_deg),
            out,
            _analyze_check(metric, out, mission.records),
            f"{mission.name}/{metric}",
        ))
    return requests


# --------------------------------------------------------------------------
# deflect: bundled fixture plus seeded synthetic annotation sets
# --------------------------------------------------------------------------

FIXTURE = DATA / "deflection"
FIXTURE_TOLERANCE = 1e-4  # noiseless loops written to 6 decimals
SYNTHETIC_TOLERANCE = 2e-3  # loops carry pixel noise
SYNTHETIC_FRAMES = 3
PIXEL_NOISE_PX = 0.25
BASIN_ROTATION_DEG = 20.0  # documented convergence basin of fit_wheel_pose
ANNOTATION_HEADER = ["frame", "cam_id", "inboard_loop", "outboard_loop", "hub_loop",
                     "chord_x1", "chord_y1", "chord_x2", "chord_y2"]


@dataclass
class AnnotationSet:
    name: str
    csv_text: str
    oracle: dict[int, float] = field(default_factory=dict)  # frame -> fraction
    tolerance: float = SYNTHETIC_TOLERANCE
    depths: dict[int, float] = field(default_factory=dict)  # frame -> chord depth / r


def _loop_text(points) -> str:
    return ";".join(f"{u:.6f}:{v:.6f}" for u, v in points)


def synthetic_annotations(seed: int, index: int, frames: int = SYNTHETIC_FRAMES
                          ) -> AnnotationSet:
    """Noisy annotation frames of poses drawn across the documented basin.

    Each pose is a rotation of up to 20 degrees about a random axis from the
    fronto-parallel initial guess, at 0.7 to 1.1 m depth; chords sit at
    depths from `depth_for_fraction`, so each frame's oracle is
    `segment_fraction` of its depth.
    """
    from rovermotion.deflection import (
        WheelPose,
        depth_for_fraction,
        load_camera,
        load_wheel_model,
        make_chord_annotation,
        project_wheel,
        segment_fraction,
    )

    model = load_wheel_model(FIXTURE / "model.txt")
    cam = load_camera(FIXTURE / "camera.txt")
    rng = random.Random(f"deflect-{seed}-{index}")
    rows = [",".join(ANNOTATION_HEADER)]
    oracle, depths = {}, {}
    for frame in range(frames):
        axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(a * a for a in axis))
        angle = math.radians(rng.uniform(0.0, BASIN_ROTATION_DEG))
        rotvec = [angle * a / norm for a in axis]
        translation = [rng.uniform(-0.08, 0.08), rng.uniform(-0.05, 0.05),
                       rng.uniform(0.7, 1.1)]
        pose = WheelPose.from_rotvec(rotvec, translation)
        loops = [
            [(u + rng.gauss(0.0, PIXEL_NOISE_PX), v + rng.gauss(0.0, PIXEL_NOISE_PX))
             for u, v in loop]
            for loop in project_wheel(model, pose, cam, samples_per_circle=24)
        ]
        depth = depth_for_fraction(rng.uniform(0.02, 0.08))
        chord = make_chord_annotation(model, pose, cam, depth)
        oracle[frame] = segment_fraction(depth)
        depths[frame] = depth
        cells = [str(frame), "synthetic", *(_loop_text(loop) for loop in loops),
                 *(f"{c:.6f}" for c in (*chord.p1, *chord.p2))]
        rows.append(",".join(cells))
    return AnnotationSet(f"synthetic_{seed}_{index}", "\n".join(rows) + "\n", oracle,
                         SYNTHETIC_TOLERANCE, depths)


def fixture_annotations(frames: int | None = None) -> AnnotationSet:
    """The bundled 30-frame fixture, optionally cut to its first frames."""
    lines = (FIXTURE / "annotations.csv").read_text().splitlines()
    with open(FIXTURE / "oracle.csv", newline="") as handle:
        oracle = {int(r["frame"]): float(r["fraction"]) for r in csv.DictReader(handle)}
    if frames is not None:
        lines = lines[: frames + 1]
        oracle = {k: v for k, v in oracle.items() if k < frames}
    return AnnotationSet("fixture", "\n".join(lines) + "\n", oracle, FIXTURE_TOLERANCE)


def _deflect_check(annotations: AnnotationSet, out: Path) -> Callable:
    def check(outcome: Outcome) -> str | None:
        rows = _csv_rows(out / "deflection.csv", ["frame", "volume_m3", "fraction"])
        if isinstance(rows, str):
            return rows
        got = {int(r[0]): float(r[2]) for r in rows}
        if sorted(got) != sorted(annotations.oracle):
            return f"frames {sorted(got)} differ from the oracle's"
        for frame, want in annotations.oracle.items():
            if abs(got[frame] - want) > annotations.tolerance:
                return (f"frame {frame}: fraction {got[frame]:.6f}, oracle "
                        f"{want:.6f}, tolerance {annotations.tolerance:g}")
        return None

    return check


def deflect_request(annotations: AnnotationSet, work: Path) -> Request:
    base = work / annotations.name
    base.mkdir(parents=True, exist_ok=True)
    path = base / "annotations.csv"
    path.write_text(annotations.csv_text)
    out = base / "out"
    args = ["deflect", "--annotations", str(path), "--model",
            str(FIXTURE / "model.txt"), "--camera", str(FIXTURE / "camera.txt"),
            "--out", str(out)]
    return Request("deflect", args, out, _deflect_check(annotations, out),
                   annotations.name, frames=len(annotations.oracle))


def deflect_pass(seed: int, index: int, work: Path, frames: int | None = None
                 ) -> list[Request]:
    """The fixture on the first pass, then one synthetic set per pass."""
    if frames is not None:  # traced run: a bounded number of fixture frames
        return [deflect_request(fixture_annotations(frames), work)]
    sets = [synthetic_annotations(seed, index)]
    if index == 0:
        sets.insert(0, fixture_annotations())
    return [deflect_request(s, work) for s in sets]
