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
    """The package's one way to say where a failure happened: put `where`
    (an input's path, its `path:line` or `frame N`; None names nothing) in
    front of the message of a DataError or PoseFitError raised in the block,
    in place, so a PoseFitError keeps its diagnostics; but not for a
    DataError raised from an OSError, which names the output it could not write."""
    try:
        yield
    except (DataError, PoseFitError) as exc:
        if where is not None and not isinstance(exc.__cause__, OSError):
            exc.args = (f"{where}: {exc}",)
        raise


class PoseFitError(RuntimeError):
    """Pose optimization did not converge.

    Carries the best pose found, its RMS reprojection distance in pixels,
    the number of residual evaluations (Jacobian columns included) and why
    the solver stopped. process_annotations names the frame, and the CLI
    the annotation file, in front of its message.
    """

    def __init__(self, pose: "WheelPose", rms: float, nfev: int, reason: str):
        super().__init__(
            f"pose fit did not converge: rms {rms:.3g} px after "
            f"{nfev} evaluations ({reason})"
        )
        self.pose = pose
        self.rms = rms
        self.nfev = nfev
        self.reason = reason
