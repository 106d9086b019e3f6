"""Error types that the CLI maps to exit codes.

They live apart from the modules that raise them, so that the CLI can catch
them without loading those modules for every command: a usage error, or
an input error that needs neither, fails before `config` and `telemetry`
(numpy) load, `analyze` does not use the simulator (`kinematics`, `terrain`)
or `deflection`, and `simulate` does not use `metrics`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from rovermotion.deflection import WheelPose


class ConfigError(ValueError):
    """Raised when a rover configuration violates an invariant."""


class TelemetryFormatError(ValueError):
    """Raised for malformed telemetry files."""


class KinematicsError(ValueError):
    """Raised for mode/twist combinations the steering geometry cannot realize."""


class MetricsError(ValueError):
    """Raised when a metric is undefined for the given input."""


class CalibrationError(ValueError):
    """Raised when the power-model calibration problem is ill-posed."""


class GeometryError(ValueError):
    """Raised for geometrically invalid deflection inputs."""


class PoseFitError(RuntimeError):
    """Pose optimization did not converge.

    Carries the best pose found, its RMS reprojection distance in pixels,
    the number of residual evaluations (Jacobian columns included), why the
    solver stopped and, when raised by process_annotations, the frame number.
    """

    def __init__(
        self,
        pose: "WheelPose",
        rms: float,
        nfev: int,
        reason: str,
        frame: int | None = None,
    ):
        where = "" if frame is None else f"frame {frame}: "
        super().__init__(
            f"{where}pose fit did not converge: rms {rms:.3g} px after "
            f"{nfev} evaluations ({reason})"
        )
        self.pose = pose
        self.rms = rms
        self.nfev = nfev
        self.reason = reason
        self.frame = frame
