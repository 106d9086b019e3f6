"""Error types that the CLI maps to exit codes.

They live apart from the modules that raise them, so that the CLI can catch
them without loading those modules for every command: a usage error, or
an input error that needs neither, fails before `config` and `telemetry`
(numpy) load, `analyze` does not use the simulator (`kinematics`, `terrain`)
or `deflection`, and `simulate` does not use `metrics`.
"""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from rovermotion.deflection import WheelPose


class DataError(ValueError):
    """An input the package refuses, or an output it cannot write: a file it
    cannot read, a value it cannot parse, one that breaks an invariant of the
    type built from it, or one for which a result is undefined. The CLI
    prints it and exits 2."""


@contextmanager
def naming(where: object) -> Iterator[None]:
    """Put `where`, an input's path or `path:line`, in front of the message
    of a DataError raised in the block, but for one raised from an OSError,
    which names the output it could not write."""
    try:
        yield
    except DataError as exc:
        if isinstance(exc.__cause__, OSError):
            raise
        raise DataError(f"{where}: {exc}") from None


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
