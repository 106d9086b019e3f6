"""Regolith slip, actuator power model, traverse simulation, calibration."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rovermotion.config import (
    WHEEL_ORDER,
    BodyTwist,
    ConfigError,
    LocomotionMode,
    RoverConfig,
    WheelCommand,
    parse_key_value_lines,
    validate_config,
    wheel_positions,
)
from rovermotion.kernels import integrate_track
from rovermotion.kinematics import (
    ProfileSegment,
    forward_odometry,
    inverse_kinematics,
    marker_positions,
    parse_profile,
)
from rovermotion.telemetry import (
    BUS_VOLTAGE,
    FIELD_COLUMNS,
    TELEMETRY_HEADER,
    Telemetry,
)

_ANGLE_TOL = 1e-9


class CalibrationError(ValueError):
    """Raised when the power-model calibration problem is ill-posed."""


@dataclass(frozen=True)
class TerrainParams:
    slope_deg: float = 0.0
    skid_rotation_efficiency: float = 0.75
    point_turn_efficiency: float = 1.0
    longitudinal_slip_ratio: float = 0.05
    noise_std: float = 0.0
    rng_seed: int = 0


def validate_terrain(terrain: TerrainParams) -> TerrainParams:
    if not 0.0 <= terrain.slope_deg < 90.0:
        raise ConfigError("slope out of supported range")
    for name in ("skid_rotation_efficiency", "point_turn_efficiency"):
        if not 0.0 < getattr(terrain, name) <= 1.0:
            raise ConfigError(f"{name} outside (0, 1]")
    if not 0.0 <= terrain.longitudinal_slip_ratio < 1.0:
        raise ConfigError("longitudinal_slip_ratio outside [0, 1)")
    if terrain.noise_std < 0.0:
        raise ConfigError("negative noise_std")
    return terrain


@dataclass(frozen=True)
class PowerModelParams:
    """Electrical power model of the drive and steering units.

    Default rolling-resistance and quadratic coefficients are the
    flat-ground calibration result for the breadboard configuration.
    """

    idle_power_per_drive: float = 0.0  # W
    rolling_resistance_coeff: float = 0.201
    drivetrain_efficiency: float = 1.0
    steering_hold_power: float = 0.0  # W per steering unit at rest
    steering_move_power: float = 8.0  # W per steering unit while repositioning
    speed_quadratic_coeff: float = 3069.549  # W s^2/m^2 per wheel
    lateral_friction_coeff: float = 0.4  # scrub drag during skid rotation
    drawbar_force: float = 0.0  # N, payload/implement pull (excavator mode)


def validate_power(power: PowerModelParams) -> PowerModelParams:
    for name in (
        "idle_power_per_drive",
        "rolling_resistance_coeff",
        "steering_hold_power",
        "steering_move_power",
        "speed_quadratic_coeff",
        "lateral_friction_coeff",
    ):
        if getattr(power, name) < 0.0:
            raise ConfigError(f"negative {name}")
    if not 0.0 < power.drivetrain_efficiency <= 1.0:
        raise ConfigError("drivetrain_efficiency outside (0, 1]")
    return power


def apply_slip(
    cmd: BodyTwist,
    mode: LocomotionMode,
    terrain: TerrainParams,
    rng: np.random.Generator | None = None,
) -> BodyTwist:
    """Scale a commanded twist down to the achieved twist on regolith."""
    if mode is LocomotionMode.SKID_STEER:
        yaw_eff = terrain.skid_rotation_efficiency
    elif mode is LocomotionMode.POINT_TURN:
        yaw_eff = terrain.point_turn_efficiency
    else:
        yaw_eff = 1.0
    lin = 1.0 - terrain.longitudinal_slip_ratio
    vx = cmd.vx * lin
    vy = cmd.vy * lin
    wz = cmd.wz * yaw_eff
    if rng is not None and terrain.noise_std > 0.0:
        vx *= 1.0 + rng.normal(0.0, terrain.noise_std)
        vy *= 1.0 + rng.normal(0.0, terrain.noise_std)
        wz *= 1.0 + rng.normal(0.0, terrain.noise_std)
    return BodyTwist(vx, vy, wz)


def drive_power(
    commands: list[WheelCommand],
    terrain: TerrainParams,
    config: RoverConfig,
    power: PowerModelParams,
    steering_in_motion: bool = False,
) -> tuple[float, dict[str, float]]:
    """Total electrical power and per-actuator breakdown for a command set.

    Per drive: idle power plus slope/rolling-resistance tractive power, a
    quadratic speed term, lateral scrub drag (nonzero only when a wheel's
    no-slip contact velocity has a component across its rolling direction,
    as in skid rotation), and an optional drawbar pull, all divided by the
    drivetrain efficiency. Steering units draw move power while
    repositioning and hold power otherwise.
    """
    theta = math.radians(terrain.slope_deg)
    weight_per_wheel = config.mass * config.gravity / 4.0
    tractive_coeff = (
        power.rolling_resistance_coeff * math.cos(theta) + math.sin(theta)
    ) * weight_per_wheel
    normal_per_wheel = weight_per_wheel * math.cos(theta)
    twist = forward_odometry(commands, LocomotionMode.SKID_STEER, config)
    positions = wheel_positions(config)

    breakdown: dict[str, float] = {}
    for cmd in commands:
        v_i = abs(cmd.drive_speed) * config.wheel_radius
        px, py = positions[cmd.wheel_id]
        cx = twist.vx - twist.wz * py
        cy = twist.vy + twist.wz * px
        ux = math.cos(cmd.steering_angle)
        uy = math.sin(cmd.steering_angle)
        lateral = abs(-uy * cx + ux * cy)
        p_i = (
            power.idle_power_per_drive
            + (
                tractive_coeff * v_i
                + power.speed_quadratic_coeff * v_i * v_i
                + power.lateral_friction_coeff * normal_per_wheel * lateral
                + (power.drawbar_force / 4.0) * v_i
            )
            / power.drivetrain_efficiency
        )
        breakdown[f"drive_{cmd.wheel_id.value.lower()}"] = max(p_i, 0.0)
    steer_power = (
        power.steering_move_power if steering_in_motion else power.steering_hold_power
    )
    for cmd in commands:
        breakdown[f"steer_{cmd.wheel_id.value.lower()}"] = steer_power
    return sum(breakdown.values()), breakdown


_MODE_REFERENCE_TWIST = {
    LocomotionMode.SKID_STEER: BodyTwist(1.0, 0.0, 0.0),
    LocomotionMode.CRAB: BodyTwist(1.0, 0.0, 0.0),
    LocomotionMode.ACKERMANN: BodyTwist(1.0, 0.0, 0.0),
    LocomotionMode.POINT_TURN: BodyTwist(0.0, 0.0, 1.0),
}


def mode_steering_angles(mode: LocomotionMode, config: RoverConfig) -> list[float]:
    """Canonical steering angles a mode requires before motion starts."""
    commands = inverse_kinematics(_MODE_REFERENCE_TWIST[mode], mode, config)
    return [cmd.steering_angle for cmd in commands]


def reposition_between(
    from_angles: list[float],
    to_angles: list[float],
    config: RoverConfig,
    power: PowerModelParams,
) -> tuple[float, float]:
    """(energy J, duration s) to slew steering units between angle sets."""
    deltas = [abs(b - a) for a, b in zip(from_angles, to_angles)]
    duration = max(deltas) / config.steering_rate
    moving = sum(1 for d in deltas if d > _ANGLE_TOL)
    return power.steering_move_power * moving * duration, duration


def steering_reposition_energy(
    from_mode: LocomotionMode,
    to_mode: LocomotionMode,
    config: RoverConfig,
    power: PowerModelParams,
) -> tuple[float, float]:
    """Energy and duration of the steering slew between two modes' poses."""
    return reposition_between(
        mode_steering_angles(from_mode, config),
        mode_steering_angles(to_mode, config),
        config,
        power,
    )


@dataclass(frozen=True)
class Scenario:
    profile: list[ProfileSegment]
    terrain: TerrainParams = field(default_factory=TerrainParams)
    config: RoverConfig = field(default_factory=RoverConfig)
    power: PowerModelParams = field(default_factory=PowerModelParams)
    marker_offset: tuple[float, float] = (0.0, 0.0)
    step: float = 0.01
    name: str = "scenario"


def _phase_block(
    n: int, twist, drive_current, steer_current, speeds, angles
) -> np.ndarray:
    """Telemetry rows of one phase's n samples; time, pose and marker stay 0.

    Each argument broadcasts over the samples: a motion phase passes
    constants, a reposition phase one row per sample where its state varies.
    """
    block = np.zeros((n, len(TELEMETRY_HEADER)))
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
    return block


def simulate_traverse(scenario: Scenario) -> Telemetry:
    """Simulate a scenario into synthetic telemetry.

    Before any segment whose steering pose differs from the current one, a
    reposition phase is inserted: the body holds still while the steering
    units slew at the configured rate, drawing move power. During motion,
    odometry reflects the commanded (pre-slip) wheel speeds while the
    ground-truth pose integrates the slip-reduced twist, so the odometry /
    ground-truth efficiency gap appears by construction.
    """
    config = validate_config(scenario.config)
    terrain = validate_terrain(scenario.terrain)
    power = validate_power(scenario.power)
    if scenario.step <= 0:
        raise ConfigError("non-positive integration step")
    if not scenario.profile:
        return Telemetry.empty()
    rng = np.random.default_rng(terrain.rng_seed)
    step = scenario.step
    tags = [w.value.lower() for w in WHEEL_ORDER]

    blocks: list[np.ndarray] = []  # telemetry rows of each phase
    twists: list[np.ndarray] = []  # achieved (vx, vy, wz) per step of each phase
    current_angles = np.zeros(4)
    for segment in scenario.profile:
        if segment.duration <= 0:
            raise ConfigError("non-positive segment duration")
        commands = inverse_kinematics(segment.twist, segment.mode, config)
        targets = np.array([cmd.steering_angle for cmd in commands])
        deltas = targets - current_angles
        move_times = np.abs(deltas) / config.steering_rate
        if move_times.max() > _ANGLE_TOL:
            n = math.ceil(move_times.max() / step - 1e-9)
            tau = (np.arange(n) * step)[:, None]
            angles = current_angles + np.copysign(
                np.minimum(tau * config.steering_rate, np.abs(deltas)), deltas
            )
            steer_power = np.where(
                tau < move_times - 1e-12,
                power.steering_move_power,
                power.steering_hold_power,
            )
            blocks.append(
                _phase_block(
                    n, 0.0, power.idle_power_per_drive / BUS_VOLTAGE,
                    steer_power / BUS_VOLTAGE, 0.0, angles,
                )
            )
            twists.append(np.zeros((n, 3)))
            current_angles = targets
        n = max(1, round(segment.duration / step))
        _, breakdown = drive_power(commands, terrain, config, power)
        blocks.append(
            _phase_block(
                n,
                (segment.twist.vx, segment.twist.vy, segment.twist.wz),
                [breakdown[f"drive_{tag}"] / BUS_VOLTAGE for tag in tags],
                [breakdown[f"steer_{tag}"] / BUS_VOLTAGE for tag in tags],
                [cmd.drive_speed for cmd in commands],
                targets,
            )
        )
        slip = apply_slip(segment.twist, segment.mode, terrain)
        achieved = np.tile((slip.vx, slip.vy, slip.wz), (n, 1))
        if terrain.noise_std > 0.0:
            # row-major, so the draws land in apply_slip's per-step order
            achieved *= 1.0 + rng.normal(0.0, terrain.noise_std, size=(n, 3))
        twists.append(achieved)

    vx, vy, wz = np.concatenate(twists).T
    xs, ys, ths = integrate_track(vx, vy, wz, step)
    # the final sample carries the end state of the last phase, which is a
    # motion phase and so constant
    values = np.concatenate(blocks + [blocks[-1][-1:]])
    # the leading columns: t, x, y, heading, marker_x, marker_y
    values[:, :6] = np.column_stack(
        (
            np.arange(len(values)) * step,
            xs,
            ys,
            ths,
            *marker_positions(xs, ys, ths, scenario.marker_offset),
        )
    )
    return Telemetry(values)


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


def calibrate_power(
    rows: list[tuple[float, float, float]], config: RoverConfig
) -> tuple[PowerModelParams, list[float]]:
    """Fit (idle power, rolling resistance, quadratic coefficient) to CoT rows.

    rows are (slope_deg, velocity m/s, measured CoT). The fit minimizes
    squared CoT residuals subject to non-negative parameters; the slope
    gravity term is fixed by the physics, not fitted. Returns the fitted
    params (drivetrain efficiency pinned at 1) and per-row residuals
    (predicted minus measured).
    """
    if len(rows) < 3:
        raise CalibrationError("underdetermined calibration")
    mg = config.mass * config.gravity
    design = np.zeros((len(rows), 3))
    target = np.zeros(len(rows))
    for i, (slope_deg, v, cot) in enumerate(rows):
        if v <= 0:
            raise CalibrationError("non-positive velocity in calibration row")
        theta = math.radians(slope_deg)
        design[i] = (4.0 / (mg * v), math.cos(theta), 4.0 * v / mg)
        target[i] = cot - math.sin(theta)
    from scipy.optimize import nnls  # scipy stays off the CLI's start-up path

    solution, _ = nnls(design, target)
    idle, rolling, quad = (float(c) for c in solution)
    params = replace(
        PowerModelParams(),
        idle_power_per_drive=idle,
        rolling_resistance_coeff=rolling,
        speed_quadratic_coeff=quad,
        drivetrain_efficiency=1.0,
    )
    residuals = [
        model_cot(params, config, slope_deg, v) - cot for slope_deg, v, cot in rows
    ]
    return params, residuals


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file: `key = value` lines, then a [profile] CSV block."""
    lines = Path(path).read_text().splitlines()
    try:
        split = lines.index("[profile]")
    except ValueError:
        raise ConfigError(f"{path}: missing [profile] section") from None
    pairs = parse_key_value_lines(lines[:split], path)

    def number(key: str, default: str) -> float:
        text = pairs.pop(key, default)
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{path}: non-numeric {key} {text!r}") from None

    config_kw: dict[str, float] = {}
    terrain_kw: dict[str, float] = {}
    power_kw: dict[str, float] = {}
    name = pairs.pop("name", Path(path).stem)
    step = number("step", "0.01")
    marker = (number("marker_offset_x", "0"), number("marker_offset_y", "0"))
    for key in list(pairs):
        if key.startswith("config."):
            bucket, field_name = config_kw, key[len("config.") :]
            known = RoverConfig.__dataclass_fields__
        elif key.startswith("terrain."):
            bucket, field_name = terrain_kw, key[len("terrain.") :]
            known = TerrainParams.__dataclass_fields__
        elif key.startswith("power."):
            bucket, field_name = power_kw, key[len("power.") :]
            known = PowerModelParams.__dataclass_fields__
        else:
            raise ConfigError(f"{path}: unknown scenario key {key!r}")
        if field_name not in known:
            raise ConfigError(f"{path}: unknown scenario key {key!r}")
        bucket[field_name] = number(key, "")
    if "rng_seed" in terrain_kw:
        terrain_kw["rng_seed"] = int(terrain_kw["rng_seed"])

    return Scenario(
        profile=parse_profile(lines[split + 1 :], path, first_lineno=split + 2),
        terrain=validate_terrain(TerrainParams(**terrain_kw)),
        config=validate_config(replace(RoverConfig(), **config_kw)),
        power=validate_power(PowerModelParams(**power_kw)),
        marker_offset=marker,
        step=step,
        name=name,
    )
