"""End-to-end and per-layer benchmark of the rovermotion CLI.

Usage:
    python3 perfbench/run.py --workload presets|mission|deflect --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. One client sends the workload's requests one
after another (a closed loop, no threads), each as a `python -m
rovermotion.cli ...` subprocess, checks every output, and prints each metric
by name with its unit. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. `--trace 0` reports the end-to-end
metrics; `--trace 1` is the separate traced run that reports the per-layer
metrics and the tracing overhead. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from workloads import Outcome, Request

HERE = Path(__file__).resolve().parent
ROOT = wl.ROOT
OUT_DIR = ROOT / ".perfbench_out"
PYTHON = sys.executable

REQUEST_DEADLINE_S = 60.0  # a request still running then is killed and failed
RUN_DEADLINE_S = 165.0  # no request runs past this point of a run, which ends in 180 s
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TRACE_PASSES = {"presets": 1, "mission": 2, "deflect": 1}
TRACE_DEFLECT_FRAMES = 1  # each failing frame fit costs ~40 s today
KERNEL_STEPS = 1_000_000
KERNEL_REPEATS = 3
KERNEL_TOLERANCE = 1e-9

# name -> unit of every end-to-end metric; each workload reports its own set
E2E_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "deflect_s": "s",
    "sim_records_per_s": "records/s",
    "deflect_frames_per_s": "frames/s",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}
E2E_REPORTED = {
    "presets": ["setup_s", "simulate_s", "analyze_s", "sim_records_per_s", "peak_rss_mb"],
    "mission": ["setup_s", "simulate_s", "analyze_s", "sim_records_per_s", "peak_rss_mb"],
    "deflect": ["setup_s", "deflect_s", "deflect_frames_per_s", "failed_frac",
                "peak_rss_mb"],
}

# (layer, metric, unit) of the traced run
LAYER_METRICS = [
    ("cli", "cli.import_scipy_s", "s"),
    ("terrain", "terrain.simulate_traverse_s", "s"),
    ("terrain", "terrain.simulate_traverse_self_s", "s"),
    ("terrain", "terrain.records", "count"),
    ("terrain", "terrain.us_per_record", "us"),
    ("terrain", "terrain.apply_slip_calls", "count"),
    ("terrain", "terrain.apply_slip_s", "s"),
    ("kinematics", "kinematics.inverse_kinematics_calls", "count"),
    ("kinematics", "kinematics.inverse_kinematics_s", "s"),
    ("kernels", "kernels.integrate_track_s", "s"),
    ("kernels", "kernels.steps", "count"),
    ("kernels", "kernels.steps_per_s", "steps/s"),
    ("kernels", "kernels.probe_steps_per_s", "steps/s"),
    ("kernels", "kernels.oracle_steps_per_s", "steps/s"),
    ("telemetry", "telemetry.write_s", "s"),
    ("telemetry", "telemetry.write_bytes", "bytes"),
    ("telemetry", "telemetry.write_rows_per_s", "rows/s"),
    ("telemetry", "telemetry.read_s", "s"),
    ("telemetry", "telemetry.read_rows_per_s", "rows/s"),
    ("metrics", "metrics.mean_cot_s", "s"),
    ("metrics", "metrics.energy_vs_yaw_s", "s"),
    ("metrics", "metrics.angular_speed_efficiency_s", "s"),
    ("metrics", "metrics.longitudinal_slip_s", "s"),
    ("deflection", "deflection.read_annotations_s", "s"),
    ("deflection", "deflection.volume_fraction_s", "s"),
    ("deflection", "deflection.fit_s", "s"),
    ("deflection", "deflection.fit_nfev", "count"),
    ("deflection", "deflection.residual_eval_ms", "ms"),
    ("deflection", "deflection.fit_failed_frac", "ratio"),
    ("trace", "trace.overhead_s", "s"),
    ("trace", "trace.overhead_frac", "ratio"),
]
# layers each workload calls; the JSON line of a traced run carries these
LAYERS_REPORTED = {
    "presets": ("cli", "terrain", "kinematics", "kernels", "telemetry", "metrics",
                "trace"),
    "mission": ("cli", "terrain", "kinematics", "kernels", "telemetry", "metrics",
                "trace"),
    "deflect": ("cli", "deflection", "trace"),
}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run here (not a failed request)."""


@dataclass
class Sample:
    request: Request
    outcome: Outcome | None  # None when the run deadline came first
    failure: str | None
    traced: bool = False
    spans: dict | None = None  # what trace_child.py wrote


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(wl.SRC), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(cmd: list[str], log_stem: Path, timeout_s: float) -> Outcome:
    """Run cmd to completion or until timeout_s; wall time and its own rusage."""
    with open(f"{log_stem}.out", "w+b") as out, open(f"{log_stem}.err", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1e-3))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except _Deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(code, out.read().decode(errors="replace"),
                       err.read().decode(errors="replace"), wall, usage.ru_maxrss)


def cli_command(request: Request) -> list[str]:
    return [PYTHON, "-m", "rovermotion.cli", *request.args]


def traced_command(request: Request, spans_path: Path) -> list[str]:
    return [PYTHON, str(HERE / "trace_child.py"), str(spans_path), *request.args]


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def measure_setup(work: Path) -> list[float]:
    """Wall times of fresh interpreters that import rovermotion.cli and exit."""
    times = []
    for i in range(SETUP_REPEATS):
        outcome = run_child([PYTHON, "-c", "import rovermotion.cli"],
                            work / f"setup{i}", REQUEST_DEADLINE_S)
        if outcome.returncode != 0:
            raise BenchmarkError(f"import rovermotion.cli failed: {outcome.stderr}")
        times.append(outcome.wall_s)
    return times


def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative import time of the scipy modules rovermotion imports itself.

    `-X importtime` prints children before their parent, indented one level
    deeper; a scipy module counts once, unless another scipy module imported it.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            depth = len(name) - len(name.lstrip())
            entries.append((depth, int(cumulative), name.strip()))
    total_us = 0
    ancestors: list[tuple[int, bool]] = []  # (depth, is scipy)
    for depth, cumulative, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in ancestors):
            total_us += cumulative
        ancestors.append((depth, is_scipy))
    return total_us / 1e6


def measure_scipy_import(work: Path) -> float:
    values = []
    for i in range(IMPORTTIME_REPEATS):
        outcome = run_child([PYTHON, "-X", "importtime", "-c", "import rovermotion.cli"],
                            work / f"importtime{i}", REQUEST_DEADLINE_S)
        if outcome.returncode != 0:
            raise BenchmarkError(f"import rovermotion.cli failed: {outcome.stderr}")
        values.append(scipy_import_seconds(outcome.stderr))
    return statistics.median(values)


def reference_integrate_track(vx, vy, wz, dt):
    """A copy of the loop in rovermotion._track_py, kept as a fixed reference.

    It is timed next to the active integrator so that the probe keeps its
    meaning when the package's own backends change or go away.
    """
    import math

    import numpy as np

    vx = np.asarray(vx, dtype=np.float64)
    vy = np.asarray(vy, dtype=np.float64)
    wz = np.asarray(wz, dtype=np.float64)
    n = vx.shape[0]
    x = np.empty(n + 1)
    y = np.empty(n + 1)
    theta = np.empty(n + 1)
    x[0], y[0], theta[0] = 0.0, 0.0, 0.0
    cx, cy, cth = 0.0, 0.0, 0.0
    for i in range(n):
        w = wz[i]
        dth = w * dt
        if abs(w) < 1e-12:
            dxb = vx[i] * dt
            dyb = vy[i] * dt
        else:
            s = math.sin(dth) / w
            c = (1.0 - math.cos(dth)) / w
            dxb = vx[i] * s - vy[i] * c
            dyb = vx[i] * c + vy[i] * s
        cos_t = math.cos(cth)
        sin_t = math.sin(cth)
        cx += cos_t * dxb - sin_t * dyb
        cy += sin_t * dxb + cos_t * dyb
        cth += dth
        x[i + 1], y[i + 1], theta[i + 1] = cx, cy, cth
    return x, y, theta


def kernel_probe() -> dict:
    """Median time of the active integrator and of the reference loop on the
    seeded 1M-step twist arrays of benchmarks/bench_track.py."""
    import numpy as np
    from rovermotion import terrain

    rng = np.random.default_rng(0)
    vx = rng.uniform(-0.1, 0.1, KERNEL_STEPS)
    vy = rng.uniform(-0.1, 0.1, KERNEL_STEPS)
    wz = rng.uniform(-0.3, 0.3, KERNEL_STEPS)
    results = {}
    for label, fn in (("active", terrain.integrate_track),
                      ("oracle", reference_integrate_track)):
        times = []
        for _ in range(KERNEL_REPEATS):
            start = time.perf_counter()
            results[label] = fn(vx, vy, wz, 0.01)
            times.append(time.perf_counter() - start)
        results[f"{label}_s"] = statistics.median(times)
    deviation = max(float(np.max(np.abs(np.asarray(a) - b)))
                    for a, b in zip(results["active"], results["oracle"]))
    return {
        "active_steps_per_s": KERNEL_STEPS / results["active_s"],
        "oracle_steps_per_s": KERNEL_STEPS / results["oracle_s"],
        "max_deviation": deviation,
        "ok": deviation <= KERNEL_TOLERANCE,
    }


def build_pass(workload: str, seed: int, index: int, work: Path, expected: dict,
               traced: bool) -> list[Request]:
    if workload == "presets":
        return wl.presets_pass(seed, index, work, expected)
    if workload == "mission":
        return wl.mission_pass(seed, index, work)
    return wl.deflect_pass(seed, index, work,
                           TRACE_DEFLECT_FRAMES if traced else None)


def run_requests(requests: list[Request], work: Path, deadline: float, traced: bool,
                 samples: list[Sample]) -> None:
    """Send requests one after another; a traced run sends each twice, untraced
    and traced, alternating which goes first."""
    for request in requests:
        modes = [False, True] if traced else [False]
        if traced and len(samples) % 4 == 2:
            modes.reverse()
        for with_trace in modes:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                samples.append(Sample(request, None, "not sent: run deadline", with_trace))
                continue
            stem = work / f"req{len(samples)}"
            spans_path = Path(f"{stem}.spans.json")
            cmd = traced_command(request, spans_path) if with_trace else cli_command(request)
            outcome = run_child(cmd, stem, min(REQUEST_DEADLINE_S, remaining))
            spans = None
            if with_trace and outcome.returncode is not None and spans_path.exists():
                spans = json.loads(spans_path.read_text())  # complete unless killed
            samples.append(Sample(request, outcome, wl.failure_of(request, outcome),
                                  with_trace, spans))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                 deadline: float) -> tuple[list[Sample], int]:
    """Whole passes until `seconds` have gone by, or the fixed passes of a traced run."""
    expected = wl.load_expected_presets() if workload == "presets" else {}
    samples: list[Sample] = []
    started = time.perf_counter()
    passes = 0
    while True:
        requests = build_pass(workload, seed, passes, work, expected, trace)
        run_requests(requests, work, deadline, trace, samples)
        passes += 1
        if trace and passes >= TRACE_PASSES[workload]:
            break
        if not trace and time.perf_counter() - started >= seconds:
            break
        if time.perf_counter() >= deadline:
            break
    return samples, passes


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def e2e_metrics(setup_times: list[float], samples: list[Sample]) -> dict:
    """Every end-to-end metric with its value and the detail printed beside it."""
    sent = [s for s in samples if s.outcome is not None]
    walls = {kind: [s.outcome.wall_s for s in sent if s.request.kind == kind]
             for kind in ("simulate", "analyze", "deflect")}
    ok = [s for s in samples if s.failure is None]
    rows = sum(s.request.records for s in ok if s.request.kind == "simulate")
    frames = sum(s.request.frames for s in ok if s.request.kind == "deflect")
    failed = sum(1 for s in samples if s.failure is not None)
    return {
        "setup_s": _timing(setup_times),
        "simulate_s": _timing(walls["simulate"]),
        "analyze_s": _timing(walls["analyze"]),
        "deflect_s": _timing(walls["deflect"]),
        "sim_records_per_s": _rate(rows, walls["simulate"], "rows"),
        "deflect_frames_per_s": _rate(frames, walls["deflect"], "checked frames"),
        "failed_frac": (failed / len(samples) if samples else None,
                        f"{failed} of {len(samples)} requests"),
        "peak_rss_mb": (max(s.outcome.maxrss_kb for s in sent) / 1024 if sent else None,
                        "largest max-RSS of a CLI child"),
    }


def _timing(values: list[float]) -> tuple[float | None, str]:
    if not values:
        return None, "no samples"
    detail = f"median of n={len(values)}"
    high = tail(values)
    if high is None:
        detail += "; no percentile has 10 samples beyond it"
    else:
        detail += f"; p{high[0]:.0f} = {high[1]:.4f}"
    return statistics.median(values), detail


def _rate(count: int, walls: list[float], what: str) -> tuple[float | None, str]:
    if not walls:
        return None, "no samples"
    return count / sum(walls), f"{count} {what} / {sum(walls):.3f} s"


def span_totals(samples: list[Sample]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, errors and summed counts."""
    totals: dict[str, dict] = {}
    for sample in samples:
        spans = (sample.spans or {}).get("spans", [])
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, children in zip(spans, child_time):
            entry = totals.setdefault(span["name"], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
                "errors": 0, "records": 0, "steps": 0, "rows": 0, "bytes": 0,
                "nfev": 0})
            duration = span["end"] - span["start"]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - children
            entry["durations"].append(duration)
            entry["errors"] += "error" in span
            for key in ("records", "steps", "rows", "bytes", "nfev"):
                entry[key] += span.get(key) or 0
    return totals


def _per(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(samples: list[Sample], import_scipy_s: float, probe: dict | None
                  ) -> dict[str, float]:
    """Every per-layer metric of a traced run; layers not called read 0."""
    t = span_totals(samples)

    def get(name: str, key: str = "total_s"):
        return t.get(name, {}).get(key, 0)

    sim = "terrain.simulate_traverse"
    fit_durations = get("deflection.fit", "durations") or [0.0]
    nfev = get("deflection.least_squares", "nfev")
    plain = [s for s in samples if not s.traced and s.outcome is not None]
    traced = [s for s in samples if s.traced and s.outcome is not None]
    plain_s = sum(s.outcome.wall_s for s in plain)
    traced_s = sum(s.outcome.wall_s for s in traced)
    return {
        "cli.import_scipy_s": import_scipy_s,
        "terrain.simulate_traverse_s": get(sim),
        "terrain.simulate_traverse_self_s": get(sim, "self_s"),
        "terrain.records": get(sim, "records"),
        "terrain.us_per_record": 1e6 * _per(get(sim), get(sim, "records")),
        "terrain.apply_slip_calls": get("terrain.apply_slip", "calls"),
        "terrain.apply_slip_s": get("terrain.apply_slip"),
        "kinematics.inverse_kinematics_calls":
            get("kinematics.inverse_kinematics", "calls"),
        "kinematics.inverse_kinematics_s": get("kinematics.inverse_kinematics"),
        "kernels.integrate_track_s": get("kernels.integrate_track"),
        "kernels.steps": get("kernels.integrate_track", "steps"),
        "kernels.steps_per_s": _per(get("kernels.integrate_track", "steps"),
                                    get("kernels.integrate_track")),
        "kernels.probe_steps_per_s": probe["active_steps_per_s"] if probe else 0.0,
        "kernels.oracle_steps_per_s": probe["oracle_steps_per_s"] if probe else 0.0,
        "telemetry.write_s": get("telemetry.write"),
        "telemetry.write_bytes": get("telemetry.write", "bytes"),
        "telemetry.write_rows_per_s": _per(get("telemetry.write", "rows"),
                                           get("telemetry.write")),
        "telemetry.read_s": get("telemetry.read"),
        "telemetry.read_rows_per_s": _per(get("telemetry.read", "rows"),
                                          get("telemetry.read")),
        "metrics.mean_cot_s": get("metrics.mean_cot"),
        "metrics.energy_vs_yaw_s": get("metrics.energy_vs_yaw"),
        "metrics.angular_speed_efficiency_s": get("metrics.angular_speed_efficiency"),
        "metrics.longitudinal_slip_s": get("metrics.longitudinal_slip"),
        "deflection.read_annotations_s": get("deflection.read_annotations"),
        "deflection.volume_fraction_s": get("deflection.volume_fraction"),
        "deflection.fit_s": statistics.median(fit_durations),
        "deflection.fit_nfev": nfev,
        "deflection.residual_eval_ms": 1e3 * _per(get("deflection.fit"), nfev),
        "deflection.fit_failed_frac": _per(get("deflection.fit", "errors"),
                                           get("deflection.fit", "calls")),
        "trace.overhead_s": (traced_s - plain_s) / len(traced) if traced else 0.0,
        "trace.overhead_frac": traced_s / plain_s - 1.0 if plain_s > 0 else 0.0,
    }


def json_metrics(workload: str, trace: bool, e2e: dict, layers: dict) -> dict:
    """The metrics of the final JSON line: exactly the workload's reported set."""
    if trace:
        return {name: {"value": layers[name], "unit": unit}
                for layer, name, unit in LAYER_METRICS
                if layer in LAYERS_REPORTED[workload]}
    return {name: {"value": e2e[name][0], "unit": E2E_UNITS[name]}
            for name in E2E_REPORTED[workload]}


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def environment(workload: str, seed: int, trace: bool) -> dict:
    from importlib import metadata

    import numpy

    try:
        from rovermotion.kernels import BACKEND as backend
    except ImportError:
        backend = "none (rovermotion.kernels absent)"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": metadata.version("scipy"),
        "backend": backend,
    }


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report_lines(env: dict, passes: int, samples: list[Sample], e2e: dict,
                 layers: dict | None, missing: list[str]) -> list[str]:
    failed = [s for s in samples if s.failure is not None]
    lines = [
        f"# rovermotion benchmark: workload={env['workload']} seed={env['seed']} "
        f"trace={env['trace']} passes={passes} requests={len(samples)} "
        f"failed={len(failed)}",
        "# env: " + " ".join(f"{k}={v}" for k, v in env.items()
                             if k not in ("workload", "seed", "trace")),
    ]
    for s in failed[:10]:
        lines.append(f"# failed {s.request.key}: {s.failure}")
    lines.append("# end-to-end metrics (untraced requests):")
    for name, unit in E2E_UNITS.items():
        value, detail = e2e[name]
        lines.append(f"{name:<24} {_fmt(value):>12} {unit:<10} {detail}")
    if layers is not None:
        lines.append("# per-layer metrics (traced requests; 0 = layer not called):")
        for _, name, unit in LAYER_METRICS:
            lines.append(f"{name:<40} {_fmt(layers[name]):>12} {unit}")
        if missing:
            lines.append("# not found, so not traced: " + ", ".join(sorted(missing)))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(E2E_REPORTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not (wl.SRC / "rovermotion" / "cli.py").is_file():
        print(f"error: no rovermotion sources under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    import rovermotion

    if Path(rovermotion.__file__).resolve().parent != wl.SRC / "rovermotion":
        print(f"error: imported rovermotion from {rovermotion.__file__}",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    try:
        env = environment(args.workload, args.seed, trace)
        setup_times, import_scipy_s, probe = [], 0.0, None
        if trace:
            import_scipy_s = measure_scipy_import(work)
            if "kernels" in LAYERS_REPORTED[args.workload]:
                probe = kernel_probe()
        else:
            setup_times = measure_setup(work)
        samples, passes = run_workload(args.workload, args.seed, args.seconds,
                                       trace, work, deadline)
        e2e = e2e_metrics(setup_times, [s for s in samples if not s.traced])
        layers, missing = None, []
        if trace:
            layers = layer_metrics(samples, import_scipy_s, probe)
            missing = sorted({m for s in samples if s.spans for m in s.spans["missing"]})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["samples"] = {kind: sum(1 for s in samples if s.request.kind == kind)
                      for kind in ("simulate", "analyze", "deflect")}
    env["setup_samples"] = len(setup_times)
    if layers is not None:
        env["trace_overhead_s"] = layers["trace.overhead_s"]
        env["trace_overhead_frac"] = layers["trace.overhead_frac"]
    if probe is not None:
        env["kernel_max_deviation"] = probe["max_deviation"]
    for line in report_lines(env, passes, samples, e2e, layers, missing):
        print(line)
    if probe is not None and not probe["ok"]:
        print(f"# kernel probe: active integrator deviates by "
              f"{probe['max_deviation']:.3g} from the reference loop")

    failed = sum(1 for s in samples if s.failure is not None)
    result = {
        "correct": failed == 0 and (probe is None or probe["ok"]),
        "attempted": len(samples),
        "failed": failed,
        "metrics": json_metrics(args.workload, trace, e2e, layers or {}),
    }
    record = {"env": env, "result": result, "e2e": e2e, "layers": layers,
              "requests": [{"kind": s.request.kind, "args": s.request.args,
                            "traced": s.traced, "failure": s.failure,
                            "wall_s": s.outcome.wall_s if s.outcome else None}
                           for s in samples]}
    name = f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
