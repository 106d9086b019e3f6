"""Regolith slip, actuator power model, traverse simulation, calibration."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rovermotion.config import (
    WHEEL_ORDER,
    BodyTwist,
    LocomotionMode,
    RoverConfig,
    WheelCommand,
    check_fields,
    from_pairs,
    parse_finite,
    parse_key_value_lines,
    read_text,
    within,
)
from rovermotion.errors import DataError, naming
from rovermotion.kinematics import (
    ProfileSegment,
    integrate_track,
    inverse_kinematics,
    marker_positions,
    _odometry_twist,
    parse_profile,
    rolling_directions,
)
from rovermotion.telemetry import (
    BUS_VOLTAGE,
    FIELD_COLUMNS,
    TELEMETRY_HEADER,
    Telemetry,
)

_ANGLE_TOL = 1e-9

# The most telemetry rows one simulation plans, the final sample's included:
# 10**7 rows of 36 float64 columns take 2.9 GB.
MAX_ROWS = 10**7


@dataclass(frozen=True)
class TerrainParams:
    slope_deg: float = within("[0, 90)", 0.0)
    skid_rotation_efficiency: float = within("(0, 1]", 0.75)
    point_turn_efficiency: float = within("(0, 1]", 1.0)
    longitudinal_slip_ratio: float = within("[0, 1)", 0.05)
    noise_std: float = within("[0, 1]", 0.0)
    rng_seed: int = within("[0, 9007199254740992]", 0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class PowerModelParams:
    """Electrical power model of the drive and steering units.

    Default rolling-resistance and quadratic coefficients are the
    flat-ground calibration result for the breadboard configuration.
    """

    idle_power_per_drive: float = within("[0, 10000]", 0.0)  # W
    rolling_resistance_coeff: float = within("[0, 1]", 0.201)
    drivetrain_efficiency: float = within("(0, 1]", 1.0)
    steering_hold_power: float = within("[0, 10000]", 0.0)  # W per steering unit at rest
    steering_move_power: float = within("[0, 10000]", 8.0)  # W per unit while it slews
    speed_quadratic_coeff: float = within("[0, 1000000]", 3069.549)  # W s^2/m^2 per wheel
    lateral_friction_coeff: float = within("[0, 2]", 0.4)  # scrub drag in skid rotation
    # N, a payload or implement pull (excavator mode). Negative is an
    # assisting push: it lowers drive power, and each wheel stays clamped at 0 W.
    drawbar_force: float = within("[-1000000, 1000000]", 0.0)

    __post_init__ = check_fields


def apply_slip(cmd: BodyTwist, mode: LocomotionMode, terrain: TerrainParams) -> BodyTwist:
    """Scale a commanded twist down to the mean achieved twist on regolith.

    `simulate_traverse` draws the per-step slip noise on top of this.
    """
    if mode is LocomotionMode.SKID_STEER:
        yaw_eff = terrain.skid_rotation_efficiency
    elif mode is LocomotionMode.POINT_TURN:
        yaw_eff = terrain.point_turn_efficiency
    else:
        yaw_eff = 1.0
    lin = 1.0 - terrain.longitudinal_slip_ratio
    return BodyTwist(cmd.vx * lin, cmd.vy * lin, cmd.wz * yaw_eff)


def drive_power(
    commands: list[WheelCommand],
    terrain: TerrainParams,
    config: RoverConfig,
    power: PowerModelParams,
) -> tuple[float, dict[str, float]]:
    """Total electrical power and per-actuator breakdown for a command set.

    Per drive: idle power plus slope/rolling-resistance tractive power, a
    quadratic speed term, lateral scrub drag (nonzero only when a wheel's
    no-slip contact velocity has a component across its rolling direction,
    as in skid rotation), and an optional drawbar pull, all divided by the
    drivetrain efficiency. Steering units hold their angles during motion
    and draw hold power; their move power is charged only while they slew,
    by the reposition model (`reposition_between`, `simulate_traverse`),
    which charges each drive its idle power for the slew as well.
    """
    theta = math.radians(terrain.slope_deg)
    weight_per_wheel = config.mass * config.gravity / 4.0
    tractive_coeff = (
        power.rolling_resistance_coeff * math.cos(theta) + math.sin(theta)
    ) * weight_per_wheel
    normal_per_wheel = weight_per_wheel * math.cos(theta)
    u, p = rolling_directions(commands, config)
    vx, vy, wz = _odometry_twist(commands, config, u, p)
    v = np.abs([cmd.drive_speed for cmd in commands]) * config.wheel_radius
    cx, cy = vx - wz * p[:, 1], vy + wz * p[:, 0]
    lateral = np.abs(-u[:, 1] * cx + u[:, 0] * cy)
    # a power that overflows is refused as an output, without a warning first
    with np.errstate(over="ignore", invalid="ignore"):
        drive = power.idle_power_per_drive + (
            tractive_coeff * v
            + power.speed_quadratic_coeff * v * v
            + power.lateral_friction_coeff * normal_per_wheel * lateral
            + (power.drawbar_force / 4.0) * v
        ) / power.drivetrain_efficiency
    tags = [cmd.wheel_id.tag for cmd in commands]
    # Python floats, whose sum is inf, unwarned, where it overflows
    breakdown = {f"drive_{tag}": max(p_i, 0.0) for tag, p_i in zip(tags, drive.tolist())}
    breakdown.update((f"steer_{tag}", power.steering_hold_power) for tag in tags)
    return sum(breakdown.values()), breakdown


def _slew(from_angles, to_angles, config: RoverConfig) -> tuple[np.ndarray, np.ndarray]:
    """(signed angle change, slew time) of each steering unit at the configured
    rate; a time that overflows is inf, for the row ceiling to refuse."""
    deltas = np.subtract(to_angles, from_angles)
    with np.errstate(over="ignore"):
        return deltas, np.abs(deltas) / config.steering_rate


def reposition_between(
    from_angles: list[float],
    to_angles: list[float],
    config: RoverConfig,
    power: PowerModelParams,
) -> tuple[float, float]:
    """(energy J, duration s) to slew steering units between angle sets.

    This is the reposition phase `simulate_traverse` inserts: it lasts as
    long as the widest slew, T = max t_i, each unit draws move power for its
    own slew time t_i and hold power for the rest, T - t_i, and each drive
    draws its idle power for T. A slew no longer than the simulator's
    tolerance inserts no phase and costs nothing.
    """
    _, times = _slew(from_angles, to_angles, config)
    duration = float(times.max())
    if not duration > _ANGLE_TOL:
        return 0.0, 0.0
    moving = float(times.sum())
    holding = len(times) * duration - moving
    energy = (power.steering_move_power * moving + power.steering_hold_power * holding
              + len(times) * power.idle_power_per_drive * duration)
    return energy, duration


@dataclass(frozen=True)
class Scenario:
    profile: list[ProfileSegment]
    terrain: TerrainParams = field(default_factory=TerrainParams)
    config: RoverConfig = field(default_factory=RoverConfig)
    power: PowerModelParams = field(default_factory=PowerModelParams)
    marker_offset: tuple[float, float] = within("[-100, 100]", (0.0, 0.0))
    step: float = within("(0, 1]", 0.01)
    name: str = "scenario"

    __post_init__ = check_fields


def _phase_block(
    block: np.ndarray, twist, drive_current, steer_current, speeds, angles
) -> None:
    """Fill a phase's rows of telemetry but the time, pose and marker columns.

    Each argument broadcasts over the rows: a motion phase passes constants,
    a reposition phase one row per sample where its state varies.
    """
    for name, value in (
        ("odo_twist", twist),
        ("commanded_twist", twist),
        ("drive_voltage", BUS_VOLTAGE),
        ("drive_current", drive_current),
        ("steer_voltage", BUS_VOLTAGE),
        ("steer_current", steer_current),
        ("drive_speeds", speeds),
        ("steering_angles", angles),
    ):
        block[:, FIELD_COLUMNS[name]] = value


def _within_ceiling(planned: int, samples: float) -> float:
    """The row count `samples` of the next phase, before rounding up to at
    most `samples` + 1, refused (as are inf and nan) unless the `planned`
    rows and those stay within MAX_ROWS."""
    if not planned + samples < MAX_ROWS:
        raise DataError(f"the profile plans more than {MAX_ROWS} telemetry rows")
    return samples


def simulate_traverse(scenario: Scenario) -> Telemetry:
    """Simulate a scenario into synthetic telemetry.

    Before any segment whose steering pose differs from the current one, a
    reposition phase is inserted: the body holds still while the steering
    units slew at the configured rate, each drawing move power until it
    arrives and hold power after, while each drive draws its idle power (the
    energy `reposition_between` gives).
    During motion, odometry reflects the commanded (pre-slip) wheel speeds
    while the ground-truth pose integrates the slip-reduced twist, so the
    odometry / ground-truth efficiency gap appears by construction. Noise
    scales each step's vx, vy and wz by 1 + N(0, noise_std), in that order.

    The phases are planned first and then written into one telemetry array,
    so the working memory is that array and a few of its columns. A profile
    whose phases would hold more than MAX_ROWS rows is refused before any of
    them is allocated. A refusal names the `where` of the segment it plans.
    """
    config, terrain, power = scenario.config, scenario.terrain, scenario.power
    if not scenario.profile:
        return Telemetry.empty()
    step = scenario.step

    # (samples, achieved twist or None while the body holds still,
    #  _phase_block's arguments) of each phase
    phases: list[tuple[int, BodyTwist | None, tuple]] = []
    planned = 1  # the final sample
    current_angles = np.zeros(4)
    for segment in scenario.profile:
        with naming(segment.where):
            commands = inverse_kinematics(segment.twist, segment.mode, config)
            targets = np.array([cmd.steering_angle for cmd in commands])
            deltas, move_times = _slew(current_angles, targets, config)
            if move_times.max() > _ANGLE_TOL:
                n = math.ceil(_within_ceiling(planned, move_times.max() / step) - 1e-9)
                planned += n
                tau = (np.arange(n) * step)[:, None]
                angles = current_angles + np.copysign(
                    np.minimum(tau * config.steering_rate, np.abs(deltas)), deltas
                )
                steer_power = np.where(
                    tau < move_times - 1e-12,
                    power.steering_move_power,
                    power.steering_hold_power,
                )
                block = (0.0, power.idle_power_per_drive / BUS_VOLTAGE,
                         steer_power / BUS_VOLTAGE, 0.0, angles)
                phases.append((n, None, block))
                current_angles = targets
            n = max(1, round(_within_ceiling(planned, segment.duration / step)))
            planned += n
            _, breakdown = drive_power(commands, terrain, config, power)
            block = (
                (segment.twist.vx, segment.twist.vy, segment.twist.wz),
                [breakdown[f"drive_{w.tag}"] / BUS_VOLTAGE for w in WHEEL_ORDER],
                [breakdown[f"steer_{w.tag}"] / BUS_VOLTAGE for w in WHEEL_ORDER],
                [cmd.drive_speed for cmd in commands],
                targets,
            )
            phases.append((n, apply_slip(segment.twist, segment.mode, terrain), block))

    steps = planned - 1
    values = np.empty((planned, len(TELEMETRY_HEADER)))
    achieved = np.zeros((steps, 3))  # (vx, vy, wz) of each step
    # the generator, and numpy.random with it, only when there is noise to draw
    rng = np.random.default_rng(terrain.rng_seed) if terrain.noise_std > 0.0 else None
    start = 0
    for n, slip, block in phases:
        stop = start + n
        _phase_block(values[start:stop], *block)
        if slip is not None:
            achieved[start:stop] = (slip.vx, slip.vy, slip.wz)
            if rng is not None:
                # row-major, so the draws land in apply_slip's per-step order
                achieved[start:stop] *= 1.0 + rng.normal(
                    0.0, terrain.noise_std, size=(n, 3)
                )
        start = stop
    # the final sample carries the end state of the last phase, which is a
    # motion phase and so constant
    _phase_block(values[-1:], *phases[-1][2])

    telemetry = Telemetry(values)
    np.multiply(np.arange(len(values)), step, out=telemetry.column("t"))
    pose = integrate_track(*achieved.T, step)
    for name, column in zip(["x", "y", "heading", "marker_x", "marker_y"],
                            [*pose, *marker_positions(*pose, scenario.marker_offset)]):
        telemetry.column(name)[:] = column
    return telemetry


def model_cot(
    power: PowerModelParams, config: RoverConfig, slope_deg: float, v: float
) -> float:
    """Cost of transport of straight driving at speed v on the given slope."""
    theta = math.radians(slope_deg)
    mg = config.mass * config.gravity
    total = 4.0 * power.idle_power_per_drive + (
        (power.rolling_resistance_coeff * math.cos(theta) + math.sin(theta)) * mg * v
        + 4.0 * power.speed_quadratic_coeff * v * v
        + power.drawbar_force * v
    ) / power.drivetrain_efficiency
    return total / (mg * v)


@dataclass(frozen=True)
class CalibrationRow:
    """A calibration-table row: the measured cost of transport at a speed (m/s)."""

    slope_deg: float = within("(-90, 90)")
    velocity: float = within("(0, 10]")
    cot: float = within("[0, 100]")

    __post_init__ = check_fields


def calibrate_power(
    rows: list[tuple[float, float, float]], config: RoverConfig
) -> tuple[PowerModelParams, list[float]]:
    """Fit (idle power, rolling resistance, quadratic coefficient) to CoT rows.

    rows are (slope_deg, velocity m/s, measured CoT). The fit minimizes
    squared CoT residuals subject to non-negative parameters; the slope
    gravity term is fixed by the physics, not fitted. Returns the fitted
    params (drivetrain efficiency pinned at 1) and per-row residuals
    (predicted minus measured). Refused where a term or the misfit of the
    all-zero start (which no fit could then improve on) overflows, or m g v
    rounds to 0, and where a fitted parameter lies outside its declared range.
    """
    if len(rows) < 3:
        raise DataError("underdetermined calibration")
    # a numpy float, so that a product m g v that rounds to 0 divides to inf
    mg = np.float64(config.mass * config.gravity)
    design = np.zeros((len(rows), 3))
    target = np.zeros(len(rows))
    # a term or a misfit that overflows is inf, unwarned
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i, (slope_deg, v, cot) in enumerate(rows):
            theta = math.radians(slope_deg)
            design[i] = (4.0 / (mg * v), math.cos(theta), 4.0 * v / mg)
            target[i] = cot - math.sin(theta)
        norms, misfit = np.linalg.norm(design, axis=0), float(target @ target)
        if not (((norms > 0.0) & (norms < np.inf)).all() and misfit < math.inf):
            raise DataError("calibration terms out of floating-point range")
        # the non-negative fit is the least-squares fit on some set of free columns,
        # the rest at 0: keep the best feasible one (Lawson and Hanson 1974, ch. 23).
        # Unit columns keep lstsq's error at that of the column-scaled problem.
        unit, solution = design / norms, np.zeros(3)
        for free in ([j for j in range(3) if subset >> j & 1] for subset in range(1, 8)):
            trial = np.zeros(3)
            trial[free] = np.linalg.lstsq(unit[:, free], target, rcond=None)[0]
            trial_misfit = float(np.sum((unit @ trial - target) ** 2))
            if trial.min() >= 0.0 and trial_misfit < misfit:
                solution, misfit = trial, trial_misfit
    idle, rolling, quad = (float(c) for c in solution / norms)
    params = PowerModelParams(
        idle_power_per_drive=idle, rolling_resistance_coeff=rolling,
        speed_quadratic_coeff=quad, drivetrain_efficiency=1.0)
    residuals = [
        model_cot(params, config, slope_deg, v) - cot for slope_deg, v, cot in rows
    ]
    return params, residuals


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file: `key = value` lines, then a [profile] CSV block.

    Besides `name`, `step` and `marker_offset_x`/`_y`, each key is a section,
    `terrain`, `config` or `power`, a dot and a field of the section's type."""
    lines = read_text(path).splitlines()
    try:
        split = lines.index("[profile]")
    except ValueError:
        raise DataError(f"{path}: missing [profile] section") from None
    pairs = parse_key_value_lines(lines[:split], path)

    def number(key: str, default: str) -> float:
        return parse_finite(pairs.pop(key, default), key, path)

    name = pairs.pop("name", Path(path).stem)
    step = number("step", "0.01")
    marker = (number("marker_offset_x", "0"), number("marker_offset_y", "0"))
    sections = {"terrain": TerrainParams, "config": RoverConfig, "power": PowerModelParams}
    unknown = sorted(key for key in pairs if key.partition(".")[0] not in sections)
    if unknown:
        raise DataError(f"{path}: unknown keys: {', '.join(unknown)}")
    # built in the order of `sections`, which names the first invalid one
    params = {
        section: from_pairs(cls, {key: text for key, text in pairs.items()
                                  if key.startswith(f"{section}.")}, path, f"{section}.")
        for section, cls in sections.items()
    }
    profile = parse_profile(lines[split + 1 :], path, first_lineno=split + 2)
    with naming(path):
        return Scenario(profile, **params, marker_offset=marker, step=step, name=name)
