"""Tests of the benchmark itself.

Run with: python3 -m pytest perfbench
"""
import json
import sys

import numpy as np
import pytest

import run
import workloads as wl

sys.path.insert(0, str(wl.SRC))

from rovermotion import _track_py, deflection, terrain  # noqa: E402


def test_same_seed_gives_same_scenario_bytes():
    assert wl.make_mission(5, 0).text == wl.make_mission(5, 0).text
    assert wl.make_mission(5, 0).text != wl.make_mission(6, 0).text
    assert wl.make_mission(5, 0).text != wl.make_mission(5, 1).text


def test_same_seed_gives_same_annotation_bytes():
    first = wl.synthetic_annotations(5, 0)
    assert first.csv_text == wl.synthetic_annotations(5, 0).csv_text
    assert first.csv_text != wl.synthetic_annotations(6, 0).csv_text


@pytest.mark.parametrize("seed", range(8))
def test_generated_scenarios_load_and_use_every_mode(tmp_path, seed):
    mission = wl.make_mission(seed, seed % 3)
    path = tmp_path / "mission.scn"
    path.write_text(mission.text)
    scenario = terrain.load_scenario(path)
    assert len(scenario.profile) == wl.MISSION_SEGMENTS
    assert {s.mode.value for s in scenario.profile} == set(wl.MODES)
    assert scenario.terrain.noise_std > 0
    assert scenario.terrain.slope_deg >= 0


def test_mission_record_count_matches_the_simulator(tmp_path):
    mission = wl.make_mission(3, 0)
    path = tmp_path / "mission.scn"
    path.write_text(mission.text)
    records = terrain.simulate_traverse(terrain.load_scenario(path))
    assert len(records) == mission.records == wl.MISSION_RECORDS
    assert records[-1].t == pytest.approx(mission.duration_s)


def test_synthetic_oracle_is_segment_fraction_of_depth(tmp_path):
    annotations = wl.synthetic_annotations(2, 1)
    path = tmp_path / "annotations.csv"
    path.write_text(annotations.csv_text)
    frames = deflection.read_annotations_csv(path)
    assert [f.frame for f in frames] == sorted(annotations.oracle)
    assert all(f.chord is not None for f in frames)
    for frame, fraction in annotations.oracle.items():
        assert fraction == deflection.segment_fraction(annotations.depths[frame])
        assert 0.02 <= fraction <= 0.08 + 1e-12


def test_fixture_can_be_cut_to_its_first_frames():
    cut = wl.fixture_annotations(frames=2)
    assert len(cut.csv_text.splitlines()) == 3
    assert sorted(cut.oracle) == [0, 1]
    assert len(wl.fixture_annotations().oracle) == 30


def test_reference_loop_matches_the_package_loop():
    rng = np.random.default_rng(1)
    vx, vy, wz = (rng.uniform(-0.3, 0.3, 500) for _ in range(3))
    wz[::7] = 0.0
    for ours, theirs in zip(run.reference_integrate_track(vx, vy, wz, 0.01),
                            _track_py.integrate_track(vx, vy, wz, 0.01)):
        assert np.array_equal(ours, theirs)


def test_scipy_import_time_counts_top_level_scipy_imports_once():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |        150 |   scipy",
        "import time:       300 |        300 |     numpy.linalg",
        "import time:       200 |        500 |   scipy.optimize",
        "import time:        10 |        660 | rovermotion.terrain",
        "import time:        40 |         40 | rovermotion.metrics",
    ])
    assert run.scipy_import_seconds(log) == pytest.approx(650e-6)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    percentile, value = run.tail([float(i) for i in range(20)])
    assert percentile == 50.0
    assert value == 9.0


def _fake_samples() -> list:
    request = wl.Request("simulate", ["simulate"], wl.ROOT, lambda o: None, records=10)
    outcome = wl.Outcome(0, "", "", 1.5, 2048)
    spans = {"missing": [], "spans": [
        {"name": "terrain.simulate_traverse", "parent": None, "start": 0.0,
         "end": 1.0, "records": 10},
        {"name": "kernels.integrate_track", "parent": 0, "start": 0.1,
         "end": 0.3, "steps": 9},
    ]}
    return [run.Sample(request, outcome, None),
            run.Sample(request, wl.Outcome(0, "", "", 1.6, 2048), None, True, spans)]


def test_printer_emits_every_metric_in_benchmark_json():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    samples = _fake_samples()
    e2e = run.e2e_metrics([0.5, 0.6, 0.7], samples[:1])
    layers = run.layer_metrics(samples, 0.4, {"active_steps_per_s": 1.0,
                                              "oracle_steps_per_s": 1.0})
    env = {"workload": "presets", "seed": 0, "trace": 1}
    printed = "\n".join(run.report_lines(env, 1, samples, e2e, layers, []))
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run.json_metrics(workload, False, e2e, layers)
        traced = run.json_metrics(workload, True, e2e, layers)
        assert list(untraced) == [m["name"] for m in spec["end_to_end"]]
        assert list(traced) == [m["name"] for m in spec["per_layer"]]
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert metric["name"] in printed
            entry = (untraced if metric in spec["end_to_end"] else traced)[metric["name"]]
            assert entry["unit"] == metric["unit"]


def test_layer_metrics_from_spans():
    layers = run.layer_metrics(_fake_samples(), 0.4, None)
    assert layers["terrain.simulate_traverse_self_s"] == pytest.approx(0.8)
    assert layers["terrain.us_per_record"] == pytest.approx(1e5)
    assert layers["kernels.steps"] == 9
    assert layers["trace.overhead_s"] == pytest.approx(0.1)
    assert layers["deflection.fit_failed_frac"] == 0.0
