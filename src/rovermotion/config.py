"""Rover configuration and shared locomotion value types."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path


class ConfigError(ValueError):
    """Raised when a rover configuration violates an invariant."""


class LocomotionMode(enum.Enum):
    ACKERMANN = "ackermann"
    SKID_STEER = "skid_steer"
    CRAB = "crab"
    POINT_TURN = "point_turn"

    @classmethod
    def parse(cls, text: str) -> "LocomotionMode":
        key = text.strip().lower().replace("-", "_").replace(" ", "_")
        for mode in cls:
            if mode.value == key:
                return mode
        raise ConfigError(f"unknown locomotion mode {text!r}")


class WheelId(enum.Enum):
    FL = "FL"
    FR = "FR"
    RL = "RL"
    RR = "RR"


WHEEL_ORDER = (WheelId.FL, WheelId.FR, WheelId.RL, WheelId.RR)


@dataclass(frozen=True)
class BodyTwist:
    """Planar body velocity: x forward, y left, z up (yaw)."""

    vx: float = 0.0
    vy: float = 0.0
    wz: float = 0.0

    def __post_init__(self):
        for name in ("vx", "vy", "wz"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"non-finite twist component {name}")

    def scaled(self, k: float) -> "BodyTwist":
        return BodyTwist(self.vx * k, self.vy * k, self.wz * k)


@dataclass(frozen=True)
class WheelCommand:
    wheel_id: WheelId
    drive_speed: float  # rad/s at the wheel hub
    steering_angle: float  # rad, CCW positive about the wheel vertical axis


@dataclass(frozen=True)
class RoverConfig:
    """Breadboard mass, wheel layout and actuator ratings (SI units)."""

    mass: float = 84.0
    gravity: float = 9.81
    wheel_longitudinal_separation: float = 0.980
    wheel_lateral_separation: float = 0.830
    wheel_radius: float = 0.15
    wheel_width: float = 0.12
    ground_clearance: float = 0.250
    drive_motor_rated_power: float = 13.0
    steering_motor_rated_power: float = 16.0
    steering_rate: float = math.radians(10.0)
    steering_limit: float = math.radians(95.0)


_LENGTH_FIELDS = (
    "wheel_longitudinal_separation",
    "wheel_lateral_separation",
    "wheel_radius",
    "wheel_width",
    "ground_clearance",
)


def validate_config(raw: RoverConfig) -> RoverConfig:
    """Return the config unchanged if every invariant holds.

    Raises ConfigError naming the first violated invariant.
    """
    if raw.mass <= 0:
        raise ConfigError("non-positive mass")
    if raw.gravity <= 0:
        raise ConfigError("non-positive gravity")
    for name in _LENGTH_FIELDS:
        if getattr(raw, name) <= 0:
            raise ConfigError(f"non-positive {name}")
    if raw.drive_motor_rated_power <= 0 or raw.steering_motor_rated_power <= 0:
        raise ConfigError("non-positive motor rating")
    if raw.steering_rate <= 0:
        raise ConfigError("non-positive steering rate")
    if not 0.0 < raw.steering_limit <= math.pi:
        raise ConfigError("empty steering range")
    return raw


def wheel_positions(config: RoverConfig) -> dict[WheelId, tuple[float, float]]:
    """Planar wheel contact positions in the body frame, origin at center."""
    half_l = config.wheel_longitudinal_separation / 2.0
    half_w = config.wheel_lateral_separation / 2.0
    return {
        WheelId.FL: (half_l, half_w),
        WheelId.FR: (half_l, -half_w),
        WheelId.RL: (-half_l, half_w),
        WheelId.RR: (-half_l, -half_w),
    }


def parse_key_value_file(path: str | Path) -> dict[str, str]:
    """Parse a plain `key = value` file, one pair per line, '#' comments."""
    return parse_key_value_lines(Path(path).read_text().splitlines(), path)


def parse_key_value_lines(lines: list[str], path: str | Path) -> dict[str, str]:
    """Parse `key = value` lines; errors name `path` and the 1-based line."""
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in pairs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def load_config(path: str | Path) -> RoverConfig:
    """Load a RoverConfig from a key/value file; unknown keys are errors."""
    pairs = parse_key_value_file(path)
    known = set(RoverConfig.__dataclass_fields__)
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        values = {key: float(text) for key, text in pairs.items()}
    except ValueError as exc:
        raise ConfigError(f"non-numeric config value: {exc}") from exc
    return validate_config(replace(RoverConfig(), **values))
