"""The columnar simulator and writer against the per-record reference.

The reference below is the simulator and CSV writer the package used when
telemetry was a list of per-sample records: one row of floats per sample,
built in a Python loop, with per-step slip noise drawn for each step on top
of apply_slip's mean twist. The columnar `simulate` must write the same
telemetry.csv and summary.txt bytes, and hold the same float64 bits.
"""
import csv
import math
from dataclasses import dataclass

import numpy as np
import pytest

from rovermotion.cli import EXIT_OK, PRESET_NAMES, ROTATION_PRESETS, main, preset_path
from rovermotion.config import BodyTwist
from rovermotion._track_py import integrate_track
from rovermotion.telemetry import BUS_VOLTAGE, TELEMETRY_HEADER
from rovermotion.terrain import (
    _ANGLE_TOL,
    Scenario,
    apply_slip,
    drive_power,
    inverse_kinematics,
    load_scenario,
    simulate_traverse,
)


def _record(t, pose, marker_offset, odo, cmd, drive_p, steer_p, speeds, angles) -> list[float]:
    """One sample's row, in TELEMETRY_HEADER order: `drive_p` and `steer_p`
    are each wheel's drive and steering power, in WHEELS order."""
    x, y, heading = pose
    mx, my = marker_offset
    cos_t, sin_t = math.cos(heading), math.sin(heading)
    marker = (x + cos_t * mx - sin_t * my, y + sin_t * mx + cos_t * my)
    return [
        t, *pose, *marker,
        odo.vx, odo.vy, odo.wz, cmd.vx, cmd.vy, cmd.wz,
        *(BUS_VOLTAGE,) * 4, *(p / BUS_VOLTAGE for p in drive_p),
        *(BUS_VOLTAGE,) * 4, *(p / BUS_VOLTAGE for p in steer_p),
        *speeds, *angles,
    ]


def _power(row: list[float]) -> float:
    """A sample's drive plus steering power, each summed left to right."""
    drive = sum(v * i for v, i in zip(row[12:16], row[16:20]))
    return drive + sum(v * i for v, i in zip(row[20:24], row[24:28]))


@dataclass(frozen=True)
class _Phase:
    n_steps: int
    start_angles: tuple
    deltas: tuple
    move_times: tuple
    motion: tuple | None  # (odo, cmd, drive_p, steer_p, speeds, angles) or None


def reference_simulate(scenario: Scenario) -> list[list[float]]:
    config, terrain, power = scenario.config, scenario.terrain, scenario.power
    if not scenario.profile:
        return []
    rng = np.random.default_rng(terrain.rng_seed)
    step = scenario.step

    phases = []
    current_angles = (0.0, 0.0, 0.0, 0.0)
    vx_steps, vy_steps, wz_steps = [], [], []
    for segment in scenario.profile:
        speeds, angles = inverse_kinematics(segment.twist, segment.mode, config)
        targets = tuple(angles.tolist())
        deltas = tuple(b - a for a, b in zip(current_angles, targets))
        move_times = tuple(abs(d) / config.steering_rate for d in deltas)
        if max(move_times) > _ANGLE_TOL:
            n = math.ceil(max(move_times) / step - 1e-9)
            phases.append(_Phase(n, current_angles, deltas, move_times, None))
            vx_steps.extend([0.0] * n)
            vy_steps.extend([0.0] * n)
            wz_steps.extend([0.0] * n)
            current_angles = targets
        n = max(1, round(segment.duration / step))
        drive_p = drive_power(speeds, angles, terrain, config, power).tolist()
        steer_p = [power.steering_hold_power] * 4
        phases.append(
            _Phase(n, targets, (0.0,) * 4, (0.0,) * 4,
                   (segment.twist, segment.twist, drive_p, steer_p,
                    tuple(speeds.tolist()), targets))
        )
        slip = apply_slip(segment.twist, segment.mode, terrain)
        for _ in range(n):
            vx, vy, wz = slip.vx, slip.vy, slip.wz
            if terrain.noise_std > 0.0:
                vx *= 1.0 + rng.normal(0.0, terrain.noise_std)
                vy *= 1.0 + rng.normal(0.0, terrain.noise_std)
                wz *= 1.0 + rng.normal(0.0, terrain.noise_std)
            vx_steps.append(vx)
            vy_steps.append(vy)
            wz_steps.append(wz)

    xs, ys, ths = integrate_track(
        np.array(vx_steps), np.array(vy_steps), np.array(wz_steps), step
    )
    zero = BodyTwist()
    idle = [power.idle_power_per_drive] * 4

    def reposition_sample(phase, tau):
        angles = tuple(
            a + math.copysign(min(tau * config.steering_rate, abs(d)), d)
            for a, d in zip(phase.start_angles, phase.deltas)
        )
        steer_p = [power.steering_move_power if tau < mt - 1e-12
                   else power.steering_hold_power for mt in phase.move_times]
        return zero, zero, idle, steer_p, (0.0,) * 4, angles

    records = []
    k = 0
    for phase in phases:
        for j in range(phase.n_steps):
            if phase.motion is None:
                state = reposition_sample(phase, j * step)
            else:
                state = phase.motion
            pose = (float(xs[k]), float(ys[k]), float(ths[k]))
            records.append(_record(k * step, pose, scenario.marker_offset, *state))
            k += 1
    last = phases[-1]
    if last.motion is None:
        state = reposition_sample(last, last.n_steps * step)
    else:
        state = last.motion
    pose = (float(xs[k]), float(ys[k]), float(ths[k]))
    records.append(_record(k * step, pose, scenario.marker_offset, *state))
    return records


def reference_energy(records: list[list[float]]) -> float:
    energy = 0.0
    for a, b in zip(records, records[1:]):
        energy += (b[0] - a[0]) * (_power(a) + _power(b)) / 2.0
    return energy


def reference_outputs(scenario: Scenario, records: list[list[float]], out) -> None:
    """telemetry.csv and summary.txt as the per-record `simulate` wrote them."""
    out.mkdir(parents=True)
    with open(out / "telemetry.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(TELEMETRY_HEADER)
        for record in records:
            writer.writerow(["{:.6f}".format(v) for v in record])
    energy = reference_energy(records)
    duration = records[-1][0] if records else 0.0
    final = records[-1][1:4] if records else (0.0, 0.0, 0.0)
    (out / "summary.txt").write_text(
        "\n".join(
            [
                f"scenario = {scenario.name}",
                f"records = {len(records)}",
                f"duration_s = {duration:.6f}",
                f"final_x_m = {final[0]:.6f}",
                f"final_y_m = {final[1]:.6f}",
                f"final_heading_rad = {final[2]:.6f}",
                f"energy_j = {energy:.6f}",
            ]
        )
        + "\n"
    )


def assert_simulate_matches_reference(scenario_path, tmp_path):
    ours, theirs = tmp_path / "ours", tmp_path / "reference"
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(ours)])
    assert code == EXIT_OK
    scenario = load_scenario(scenario_path)
    records = reference_simulate(scenario)
    reference_outputs(scenario, records, theirs)
    for name in ("telemetry.csv", "summary.txt"):
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name
    # the same float64 bits, not only the same six printed decimals
    telemetry = simulate_traverse(scenario)
    reference = np.array(records, dtype=np.float64).reshape(-1, len(TELEMETRY_HEADER))
    assert np.array_equal(telemetry.values.view(np.uint64), reference.view(np.uint64))
    assert telemetry.total_power.tolist() == [_power(r) for r in records]
    assert telemetry.cumulative_energy()[-1] == reference_energy(records)


@pytest.mark.parametrize("preset", PRESET_NAMES + ROTATION_PRESETS)
def test_preset_matches_reference(preset, tmp_path):
    assert_simulate_matches_reference(preset_path(preset), tmp_path)


NOISY_MIXED = """\
name = noisy_mixed
step = 0.02
marker_offset_x = 0.3
marker_offset_y = -0.12
terrain.slope_deg = 12
terrain.noise_std = 0.05
terrain.rng_seed = 17
power.steering_hold_power = 1.5
power.idle_power_per_drive = 0.8
[profile]
duration_s,vx,vy,wz,mode
6,0.06,0,0.01,skid_steer
5,0.04,0.03,0,crab
7,0.05,0,0.02,ackermann
9,0,0,-0.08,point_turn
3,0.02,-0.05,0,crab
4,-0.03,0,0.03,skid_steer
"""


def test_noisy_mixed_modes_match_reference(tmp_path):
    path = tmp_path / "noisy.scn"
    path.write_text(NOISY_MIXED)
    scenario = load_scenario(path)
    assert scenario.terrain.noise_std > 0 and scenario.terrain.slope_deg > 0
    assert len({segment.mode for segment in scenario.profile}) == 4
    assert_simulate_matches_reference(path, tmp_path)


def test_empty_profile_matches_reference(tmp_path):
    path = tmp_path / "empty.scn"
    path.write_text("name = empty\n[profile]\nduration_s,vx,vy,wz,mode\n")
    assert_simulate_matches_reference(path, tmp_path)
