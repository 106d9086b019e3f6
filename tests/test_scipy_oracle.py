"""The package's numpy numerics against the scipy routines they replaced.

scipy is a test dependency only. Each test runs one rewrite and its scipy
reference on the same input; the tolerances are the measured differences
with some headroom, quoted next to each.
"""
import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, least_squares, nnls
from scipy.spatial.transform import Rotation

from rovermotion import deflection
from rovermotion.config import RoverConfig
from rovermotion.deflection import (
    CameraIntrinsics,
    WheelModel3D,
    WheelPose,
    depth_for_fraction,
    fit_wheel_pose,
    initial_pose_guess,
    project_wheel,
    read_annotations_csv,
    segment_fraction,
)
from rovermotion.terrain import calibrate_power

DATA = Path(__file__).resolve().parents[1] / "src" / "rovermotion" / "data"
MODEL = WheelModel3D(radius=0.15, width=0.12, hub_radius=0.05)
CAM = CameraIntrinsics(fx=800.0, fy=800.0, cx=640.0, cy=360.0, width=1280, height=720)
CFG = RoverConfig()


@pytest.mark.parametrize("angle", [0.0, 1e-9, 1.234, math.pi])
def test_from_rotvec_matches_scipy_rotation(angle):
    # largest entry difference over 50 random axes: 0 at 0 rad, 1e-25 at
    # 1e-9 rad, 3.9e-16 at 1.234 rad and 6.7e-16 at pi
    rng = np.random.default_rng(3)
    for _ in range(50):
        axis = rng.normal(size=3)
        rotvec = angle * axis / np.linalg.norm(axis)
        np.testing.assert_allclose(
            WheelPose.from_rotvec(rotvec, [0.0, 0.0, 1.0]).rotation,
            Rotation.from_rotvec(rotvec).as_matrix(), rtol=0.0, atol=2e-15)


def test_depth_for_fraction_matches_brentq():
    # both stop within 1e-14 of the root; the largest difference over the
    # grid was 5.9e-15
    for fraction in np.linspace(1e-6, 0.4999, 501):
        expected = brentq(lambda h: segment_fraction(h) - fraction, 0.0, 1.0, xtol=1e-14)
        assert abs(depth_for_fraction(fraction) - expected) <= 2e-14, fraction


def _design(rows):
    """calibrate_power's least-squares problem: (design, target) of its rows."""
    mg = CFG.mass * CFG.gravity
    design = [(4.0 / (mg * v), math.cos(math.radians(s)), 4.0 * v / mg) for s, v, _ in rows]
    target = [c - math.sin(math.radians(s)) for s, _, c in rows]
    return np.array(design), np.array(target)


def _assert_matches_nnls(rows):
    """calibrate_power on `rows` holds nnls's coefficients at 0 and agrees
    with the others to 1e-12 relative; returns the number held at 0."""
    expected, _ = nnls(*_design(rows))
    params, _ = calibrate_power(rows, CFG)
    fitted = np.array([params.idle_power_per_drive, params.rolling_resistance_coeff,
                       params.speed_quadratic_coeff])
    np.testing.assert_array_equal(fitted == 0.0, expected == 0.0)
    np.testing.assert_allclose(fitted, expected, rtol=1e-12, atol=0.0)
    return int(np.sum(expected == 0.0))


def test_calibrate_power_matches_nnls_on_random_problems():
    # 8 of these 60 problems hold no coefficient at 0, 9 one, 14 two and 29
    # all three; the largest relative difference was 1.7e-14
    active = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        truth = [rng.uniform(-3.0, 3.0), rng.uniform(-0.3, 0.3), rng.uniform(-3000, 3000)]
        rows = []
        for _ in range(rng.integers(4, 12)):
            slope, v = rng.uniform(-10.0, 10.0), rng.uniform(0.02, 0.1)
            (row,), _ = _design([(slope, v, 0.0)])
            cot = row @ truth + math.sin(math.radians(slope)) + rng.normal(0.0, 0.02)
            rows.append((slope, v, float(cot)))
        active.add(_assert_matches_nnls(rows))
    assert {0, 1, 2} <= active


@pytest.mark.parametrize("flat_only", [False, True])
def test_calibrate_power_matches_nnls_on_the_bundled_table(flat_only):
    # the largest relative difference was 1.8e-15
    with open(DATA / "cot_measurements.csv", newline="") as handle:
        rows = [(float(r["slope_deg"]), float(r["velocity"]), float(r["cot"]))
                for r in csv.DictReader(handle)
                if not flat_only or (r["mode"] == "nominal" and float(r["slope_deg"]) == 0)]
    assert _assert_matches_nnls(rows) == 1  # idle power is held at 0


def _scipy_lm(fun, x, max_nfev):
    """The former solver behind the package's Levenberg-Marquardt signature."""
    result = least_squares(fun, x, method="lm", xtol=1e-14, ftol=1e-14, gtol=1e-14,
                           diff_step=1e-6, max_nfev=max_nfev)
    return result.x, result.fun, result.nfev, None if result.success else result.message


def _both_fits(loops, monkeypatch):
    """fit_wheel_pose's (pose, rms) from the package's solver, then scipy's."""
    guess = initial_pose_guess(loops, MODEL, CAM)
    own = fit_wheel_pose(loops, MODEL, CAM, guess)
    with monkeypatch.context() as patch:
        patch.setattr(deflection, "_levenberg_marquardt", _scipy_lm)
        return own, fit_wheel_pose(loops, MODEL, CAM, guess)


def test_pose_fit_matches_minpack_on_criterion_8_poses(monkeypatch):
    # acceptance criterion 8's 100 noiseless poses: axes agreed to 3.6e-16,
    # translations to 2.2e-16 m and RMS distances (~1e-14 px) to 2.4e-14 px
    rng = np.random.default_rng(42)
    for _ in range(100):
        rotvec = rng.uniform(-0.25, 0.25, 3)
        translation = [rng.uniform(-0.08, 0.08), rng.uniform(-0.05, 0.05),
                       rng.uniform(0.7, 1.1)]
        loops = project_wheel(MODEL, WheelPose.from_rotvec(rotvec, translation), CAM,
                              samples_per_circle=24)
        (pose, rms), (expected, expected_rms) = _both_fits(loops, monkeypatch)
        np.testing.assert_allclose(pose.axis, expected.axis, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(pose.translation, expected.translation, rtol=0.0,
                                   atol=1e-14)
        assert abs(rms - expected_rms) <= 1e-12


def test_pose_fit_matches_minpack_on_the_fixture(monkeypatch):
    # the 30 frames: axes agreed to 3.8e-15, translations to 2.2e-14 m and
    # RMS distances (~2.6e-7 px) to 1e-14 px
    for item in read_annotations_csv(DATA / "deflection" / "annotations.csv"):
        (pose, rms), (expected, expected_rms) = _both_fits(item.loops, monkeypatch)
        np.testing.assert_allclose(pose.axis, expected.axis, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(pose.translation, expected.translation, rtol=0.0,
                                   atol=1e-13)
        assert abs(rms - expected_rms) <= 1e-12, item.frame
