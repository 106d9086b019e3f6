"""Four-wheel-steered rover locomotion simulation and telemetry analytics."""

__version__ = "0.1.0"
