"""Record the reference outputs that the `presets` workload compares against.

Usage: python3 perfbench/record_digests.py

Runs every preset request once and writes perfbench/expected_presets.json:
the stdout, the SHA-256 of each output file and the telemetry row count of
each request. Run it only on a commit whose outputs are the reference; a
change that alters these bytes is a change of behaviour, not of speed.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads as wl
from run import child_env, cli_command


def main() -> int:
    work = wl.ROOT / ".perfbench_out" / "record"
    shutil.rmtree(work, ignore_errors=True)
    requests = wl.preset_requests(list(range(len(wl.PRESETS))), work, {})
    expected = {}
    for request in requests:
        done = subprocess.run(cli_command(request), cwd=wl.ROOT, env=child_env(),
                              capture_output=True, text=True, check=True)
        metric = None if request.kind == "simulate" else request.args[1]
        files = wl.preset_outputs(request.kind, metric)
        entry = {"stdout": done.stdout,
                 "files": {name: wl.sha256(request.out / name) for name in files}}
        if request.kind == "simulate":
            with open(request.out / "telemetry.csv") as handle:
                entry["records"] = sum(1 for _ in handle) - 1
        expected[request.key] = entry
    wl.EXPECTED_PRESETS.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"recorded {len(expected)} requests to {wl.EXPECTED_PRESETS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
