"""Compare a base commit with the working tree in alternating benchmark pairs.

Usage: python3 scripts/bench_pairs.py BASE --workload W --pairs N --seconds S

BASE, any git revision, is extracted with `git archive` into a temporary
directory under `.perfbench_out/`, which is removed afterwards. Pair i (1 to N)
runs `python3 perfbench/run.py --workload W --seed i --seconds S --trace 0`
once in that tree and once in the working tree, the base first in odd pairs
and the working tree first in even ones. For each end-to-end metric of
BENCHMARK.json that the runs report, it prints each side's median and
quartiles, the median per-pair ratio of the working tree's value to the
base's, and the pairs the working tree won by the metric's `better`, ties
counting for neither side. It exits 1 if any run is not `correct`.
"""
from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run in `tree`; a run that
    exits non-zero or prints no result is not correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# {tree}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric in `end_to_end` that every run of `pairs`, each a
    (base, change) pair of result lines, reports as a number: each side's
    (first quartile, median, third quartile), the median of the per-pair
    ratios change / base, and the pairs the change won."""
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        values = [[run["metrics"].get(name, {}).get("value") for run in pair]
                  for pair in pairs]
        if not pairs or any(value is None for pair in values for value in pair):
            continue
        base, change = np.array(values, dtype=float).T
        gain = change - base if metric["better"] == "higher" else base - change
        rows.append({
            "name": name,
            "better": metric["better"],
            "base": tuple(np.percentile(base, [25, 50, 75]).tolist()),
            "change": tuple(np.percentile(change, [25, 50, 75]).tolist()),
            "ratio": float(np.median(change / base)),
            "wins": int(np.count_nonzero(gain > 0)),
            "pairs": len(pairs),
        })
    return rows


def report(rows: list[dict], base: str) -> list[str]:
    """The printed table of `summarize`'s rows."""
    lines = [f"{'metric':<18} {'better':<7} {base + ' median [q1-q3]':<30} "
             f"{'change median [q1-q3]':<30} {'ratio':>6} wins"]
    for row in rows:
        sides = [f"{median:.5g} [{low:.5g}-{high:.5g}]"
                 for low, median, high in (row["base"], row["change"])]
        lines.append(f"{row['name']:<18} {row['better']:<7} {sides[0]:<30} "
                     f"{sides[1]:<30} {row['ratio']:>6.3f} {row['wins']}/{row['pairs']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="the git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "archive", "--format=tar", args.base],
                             cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        print(archive.stderr.decode(errors="replace"), end="", file=sys.stderr)
        return 2
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="base-", dir=OUT_DIR) as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        for seed in range(1, args.pairs + 1):
            trees = [Path(tmp), ROOT] if seed % 2 else [ROOT, Path(tmp)]
            results = {tree: run_benchmark(tree, args.workload, seed, args.seconds)
                       for tree in trees}
            pairs.append((results[Path(tmp)], results[ROOT]))
            print(f"# pair {seed}: {'base' if seed % 2 else 'change'} first", flush=True)
    print(f"{args.workload}, {len(pairs)} pairs: {args.base} against the working tree")
    for line in report(summarize(pairs, end_to_end), args.base):
        print(line)
    failed = [f"pair {i} {side}" for i, pair in enumerate(pairs, 1)
              for side, run in zip(("base", "change"), pair) if not run["correct"]]
    if failed:
        print(f"not correct: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
