"""scripts/bench_pairs.py summarizes alternating benchmark pairs per metric."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "simulate_s", "better": "lower"},
              {"name": "sim_records_per_s", "better": "higher"},
              {"name": "deflect_s", "better": "lower"}]


def result(simulate_s, records_per_s):
    return {"correct": True, "metrics": {
        "simulate_s": {"value": simulate_s, "unit": "s"},
        "sim_records_per_s": {"value": records_per_s, "unit": "records/s"}}}


def test_summary_per_metric():
    pairs = [(result(0.20, 100.0), result(0.10, 150.0)),  # the change wins both
             (result(0.30, 100.0), result(0.30, 100.0)),  # a tie counts for neither
             (result(0.40, 200.0), result(0.60, 100.0)),  # the base wins both
             (result(0.50, 100.0), result(0.25, 300.0))]  # the change wins both
    simulate, records = bench_pairs.summarize(pairs, END_TO_END)  # no deflect_s
    assert simulate["name"] == "simulate_s" and records["name"] == "sim_records_per_s"
    assert simulate["base"] == pytest.approx((0.275, 0.35, 0.425))
    assert simulate["change"] == pytest.approx((0.2125, 0.275, 0.375))
    assert simulate["ratio"] == pytest.approx(0.75)  # of 0.5, 1, 1.5 and 0.5
    assert (simulate["wins"], simulate["pairs"]) == (2, 4)
    assert records["base"] == pytest.approx((100.0, 100.0, 125.0))
    assert records["ratio"] == pytest.approx(1.25)  # of 1.5, 1, 0.5 and 3
    assert (records["wins"], records["pairs"]) == (2, 4)
    lines = bench_pairs.report([simulate, records], "HEAD")
    assert lines[1].split()[:3] == ["simulate_s", "lower", "0.35"]
    assert lines[2].endswith(" 1.250 2/4")


def test_a_metric_a_run_lacks_is_left_out():
    failed = {"correct": False, "metrics": {}}
    assert bench_pairs.summarize([(result(0.2, 100.0), failed)], END_TO_END) == []
    assert bench_pairs.summarize([], END_TO_END) == []
