"""Error types of the deflection pipeline.

They live apart from `rovermotion.deflection`, which imports scipy, so that
the CLI can map them to exit codes without loading scipy for every command.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from rovermotion.deflection import WheelPose


class GeometryError(ValueError):
    """Raised for geometrically invalid deflection inputs."""


class PoseFitError(RuntimeError):
    """Pose optimization did not converge.

    Carries the best pose found, its RMS reprojection distance in pixels,
    the number of residual evaluations, the solver's termination message
    and, when raised by process_annotations, the frame number.
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
