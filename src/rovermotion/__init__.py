"""Four-wheel-steered rover locomotion simulation and telemetry analytics."""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule's public names. A name's submodule is imported on first
# access (PEP 562), so that `import rovermotion.cli` and `analyze` do not
# load the simulator.
_SUBMODULE_NAMES = {
    "config": ["BodyTwist", "LocomotionMode", "RoverConfig", "WheelCommand",
               "WheelId", "load_config", "wheel_positions"],
    "kinematics": ["forward_odometry", "icr_of", "inverse_kinematics"],
    "metrics": ["cost_of_transport", "energy_vs_yaw", "mean_cot"],
    "terrain": ["PowerModelParams", "Scenario", "TerrainParams", "apply_slip",
                "calibrate_power", "drive_power", "simulate_traverse",
                "steering_reposition_energy"],
}
_EXPORTS = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
