"""Run one rovermotion CLI command with a span around each layer's calls.

Usage: python perfbench/trace_child.py SPANS_JSON <rovermotion cli args...>

Each name in WRAPPED is replaced, where its caller looks it up, by a wrapper
that records a span (name, parent span, start, end, error) and the counts in
MEASURES. Spans are kept in memory and written to SPANS_JSON when the command
returns. The exit code is the CLI's.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name)
WRAPPED = [
    ("rovermotion.terrain", "simulate_traverse", "terrain.simulate_traverse"),
    ("rovermotion.terrain", "apply_slip", "terrain.apply_slip"),
    ("rovermotion.terrain", "inverse_kinematics", "kinematics.inverse_kinematics"),
    ("rovermotion.terrain", "integrate_track", "kernels.integrate_track"),
    ("rovermotion.cli", "write_telemetry_csv", "telemetry.write"),
    ("rovermotion.cli", "read_telemetry_csv", "telemetry.read"),
    ("rovermotion.metrics", "mean_cot", "metrics.mean_cot"),
    ("rovermotion.metrics", "energy_vs_yaw", "metrics.energy_vs_yaw"),
    ("rovermotion.metrics", "angular_speed_efficiency",
     "metrics.angular_speed_efficiency"),
    ("rovermotion.metrics", "longitudinal_slip", "metrics.longitudinal_slip"),
    ("rovermotion.deflection", "read_annotations_csv", "deflection.read_annotations"),
    ("rovermotion.deflection", "fit_wheel_pose", "deflection.fit"),
    ("rovermotion.deflection", "least_squares", "deflection.least_squares"),
    ("rovermotion.deflection", "deflected_volume_fraction",
     "deflection.volume_fraction"),
]


def _length(value) -> int | None:
    try:
        return len(value)
    except TypeError:
        return None


# span name -> counts taken from the call's arguments and result
MEASURES = {
    "terrain.simulate_traverse": lambda args, result: {"records": _length(result)},
    "kernels.integrate_track": lambda args, result: {"steps": _length(args[0])},
    "telemetry.write": lambda args, result: {
        "rows": _length(args[1]), "bytes": os.path.getsize(args[0])},
    "telemetry.read": lambda args, result: {"rows": _length(result)},
    "deflection.least_squares": lambda args, result: {"nfev": int(result.nfev)},
}


class Tracer:
    """In-memory spans of one process; a span's parent is the span open at its start."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if measure is not None:
                span.update(measure(args, result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every name in WRAPPED; returns the names the package lacks."""
        missing = []
        for module_name, attribute, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attribute, None)
            if fn is None:
                missing.append(f"{module_name}.{attribute}")
                continue
            setattr(module, attribute, self.wrap(fn, span_name))
        return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing = tracer.install()
    from rovermotion.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump({"spans": tracer.spans, "missing": missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
