import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rovermotion import _track_py, terrain
from rovermotion.cli import PRESET_NAMES, ROTATION_PRESETS, preset_path
from rovermotion.kinematics import integrate_track


def test_straight_line():
    n = 100
    vx = np.full(n, 0.06)
    zeros = np.zeros(n)
    x, y, th = integrate_track(vx, zeros, zeros, 0.01)
    assert len(x) == n + 1
    assert x[-1] == pytest.approx(0.06)
    assert np.all(y == 0)
    assert np.all(th == 0)


def test_exact_circle():
    # constant twist closes a full circle exactly
    wz = 0.1
    duration = 2 * math.pi / wz
    n = 1000
    dt = duration / n
    vx = np.full(n, 0.05)
    vy = np.zeros(n)
    x, y, th = integrate_track(vx, vy, np.full(n, wz), dt)
    assert x[-1] == pytest.approx(0.0, abs=1e-9)
    assert y[-1] == pytest.approx(0.0, abs=1e-9)
    assert th[-1] == pytest.approx(2 * math.pi)


def test_initial_pose_offset():
    x, y, th = integrate_track(
        np.array([1.0]), np.array([0.0]), np.array([0.0]), 1.0,
        x0=2.0, y0=3.0, theta0=math.pi / 2,
    )
    assert (x[0], y[0], th[0]) == (2.0, 3.0, math.pi / 2)
    assert x[-1] == pytest.approx(2.0, abs=1e-12)
    assert y[-1] == pytest.approx(4.0)


def test_tiny_yaw_rate_matches_straight_limit():
    # below the epsilon branch the arc should degrade to a straight step
    x, y, _ = integrate_track(
        np.array([1.0]), np.array([0.0]), np.array([1e-15]), 1.0
    )
    assert x[-1] == pytest.approx(1.0, abs=1e-9)
    assert y[-1] == pytest.approx(0.0, abs=1e-9)


finite = st.floats(-1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=40),
    dt=st.floats(1e-3, 0.5),
)
def test_backends_agree(steps, dt):
    vx, vy, wz = (np.array(col) for col in zip(*steps))
    ours = integrate_track(vx, vy, wz, dt)
    ref = _track_py.integrate_track(vx, vy, wz, dt)
    for a, b in zip(ours, ref):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def twist_steps(scenario, monkeypatch):
    """The (vx, vy, wz, dt) that simulate_traverse integrates for a scenario."""
    calls = []

    def capture(*args):
        calls.append(args)
        return _track_py.integrate_track(*args)

    monkeypatch.setattr(terrain, "integrate_track", capture)
    terrain.simulate_traverse(scenario)
    (args,) = calls
    return args


def assert_same_bits(vx, vy, wz, dt, **start):
    ours = integrate_track(vx, vy, wz, dt, **start)
    ref = _track_py.integrate_track(vx, vy, wz, dt, **start)
    for a, b in zip(ours, ref):
        assert np.array_equal(a, b)


START = {"x0": -1.25, "y0": 3.5, "theta0": 2.0}


@pytest.mark.parametrize("preset", PRESET_NAMES + ROTATION_PRESETS)
def test_preset_twists_bit_identical(preset, monkeypatch):
    scenario = terrain.load_scenario(preset_path(preset))
    steps = twist_steps(scenario, monkeypatch)
    assert_same_bits(*steps)
    assert_same_bits(*steps, **START)


NOISY_FOUR_MODES = """\
name = noisy_four_modes
step = 0.01
terrain.slope_deg = 8
terrain.noise_std = 0.05
terrain.rng_seed = 5
[profile]
duration_s,vx,vy,wz,mode
4,0.06,0,0.02,skid_steer
3,0.04,-0.03,0,crab
5,0.05,0,-0.03,ackermann
6,0,0,0.08,point_turn
"""


def test_noisy_four_mode_twists_bit_identical(tmp_path, monkeypatch):
    path = tmp_path / "noisy.scn"
    path.write_text(NOISY_FOUR_MODES)
    scenario = terrain.load_scenario(path)
    assert len({segment.mode for segment in scenario.profile}) == 4
    vx, vy, wz, dt = twist_steps(scenario, monkeypatch)
    # both the straight-line and the arc step occur
    assert np.any(np.abs(wz) < 1e-12) and np.any(np.abs(wz) >= 1e-12)
    assert_same_bits(vx, vy, wz, dt)
    assert_same_bits(vx, vy, wz, dt, **START)


def test_empty_sequence_is_the_start_pose():
    x, y, th = integrate_track(np.array([]), np.array([]), np.array([]), 0.01, **START)
    assert (x.tolist(), y.tolist(), th.tolist()) == ([-1.25], [3.5], [2.0])


def test_unequal_lengths_rejected():
    with pytest.raises(ValueError, match="equal length"):
        integrate_track(np.zeros(3), np.zeros(2), np.zeros(3), 0.01)
