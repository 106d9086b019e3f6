import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rovermotion.deflection import (
    AnnotationFrame,
    CameraIntrinsics,
    ChordAnnotation,
    PoseFitError,
    WheelModel3D,
    WheelPose,
    deflected_volume_fraction,
    depth_for_fraction,
    fit_wheel_pose,
    load_camera,
    load_wheel_model,
    make_chord_annotation,
    project_wheel,
    read_annotations_csv,
    segment_fraction,
    smooth_deflection_series,
)
from rovermotion import deflection
from rovermotion.errors import DataError

MODEL = WheelModel3D(radius=0.15, width=0.12, hub_radius=0.05)
CAM = CameraIntrinsics(fx=800.0, fy=800.0, cx=640.0, cy=360.0, width=1280, height=720)
ROOT = Path(__file__).resolve().parents[1]
FIXTURE_DIR = ROOT / "src" / "rovermotion" / "data" / "deflection"


def frontal_pose(depth=1.0):
    return WheelPose(np.eye(3), np.array([0.0, 0.0, depth]))


def fixture_script():
    spec = importlib.util.spec_from_file_location(
        "make_deflection_fixture", ROOT / "scripts" / "make_deflection_fixture.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestModel:
    def test_circle_layout(self):
        circles = MODEL.circles
        assert circles[0] == (0.15, -0.06)  # inboard perimeter
        assert circles[1] == (0.15, +0.06)
        assert circles[2] == (0.05, -0.06)  # hub on the inboard face

    def test_volume(self):
        assert MODEL.volume == pytest.approx(math.pi * 0.15**2 * 0.12)

    def test_invalid_hub(self):
        with pytest.raises(DataError, match="hub radius"):
            WheelModel3D(radius=0.15, width=0.12, hub_radius=0.2)


class TestProjection:
    def test_frontal_pixel_radius(self):
        # fronto-parallel at 1 m: apparent radius = fx * r / (z + z_offset)
        loops = project_wheel(MODEL, frontal_pose(1.0), CAM)
        inboard = loops[0]
        radii = np.linalg.norm(inboard - [CAM.cx, CAM.cy], axis=1)
        assert radii == pytest.approx(800.0 * 0.15 / (1.0 - 0.06))

    def test_behind_camera_raises(self):
        with pytest.raises(DataError, match="behind camera"):
            project_wheel(MODEL, frontal_pose(-1.0), CAM)

    def test_loop_count_and_shape(self):
        loops = project_wheel(MODEL, frontal_pose(), CAM, samples_per_circle=32)
        assert len(loops) == 3
        assert all(loop.shape == (32, 2) for loop in loops)


class TestSegmentFraction:
    def test_known_values(self):
        assert segment_fraction(1.0) == 0.0
        assert segment_fraction(0.0) == pytest.approx(0.5)

    def test_inverse_round_trip(self):
        for target in (0.01, 0.04, 0.1, 0.3, 0.49):
            assert segment_fraction(depth_for_fraction(target)) == pytest.approx(
                target, abs=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(DataError):
            segment_fraction(1.5)
        with pytest.raises(DataError):
            depth_for_fraction(0.6)


class TestVolumeFraction:
    @pytest.mark.parametrize("h", [0.99, 0.95, 0.9, 0.8, 0.6])
    def test_matches_analytic_segment(self, h):
        pose = WheelPose.from_rotvec([0.1, -0.15, 0.05], [0.05, 0.02, 0.9])
        chord = make_chord_annotation(MODEL, pose, CAM, h)
        fraction = deflected_volume_fraction(MODEL, pose, CAM, chord)
        assert fraction == pytest.approx(segment_fraction(h), rel=0, abs=1e-12)

    def test_tangent_is_zero(self):
        pose = frontal_pose(0.9)
        chord = make_chord_annotation(MODEL, pose, CAM, 1.0)
        assert deflected_volume_fraction(MODEL, pose, CAM, chord) == 0.0

    def test_miss_is_zero(self):
        pose = WheelPose.from_rotvec([0.1, -0.15, 0.05], [0.05, 0.02, 0.9])
        chord = make_chord_annotation(MODEL, pose, CAM, 1.5)
        assert deflected_volume_fraction(MODEL, pose, CAM, chord) == 0.0

    def test_monotone_in_depth(self):
        pose = WheelPose.from_rotvec([0.12, -0.18, 0.08], [0.06, 0.03, 0.85])
        fractions = []
        for h in np.linspace(0.98, 0.2, 12):
            chord = make_chord_annotation(MODEL, pose, CAM, h)
            fractions.append(deflected_volume_fraction(MODEL, pose, CAM, chord))
        assert all(b > a for a, b in zip(fractions, fractions[1:]))

    def test_deep_cut_stays_under_half(self):
        # a chord close to the centre cuts off the segment on its far side
        # from the centre: still less than half of the wheel
        pose = frontal_pose(0.9)
        chord = make_chord_annotation(MODEL, pose, CAM, 0.05, direction=(0.0, 1.0))
        assert deflected_volume_fraction(MODEL, pose, CAM, chord) < 0.5


class TestSmoothing:
    def test_impulse(self):
        smoothed = smooth_deflection_series([0.0, 0.0, 6.0, 0.0, 0.0], 3)
        assert [round(f, 9) for f in smoothed] == [0.0, 2.0, 2.0, 2.0, 0.0]

    def test_edges_truncated(self):
        smoothed = smooth_deflection_series([1.0] * 4, 5)
        assert all(f == pytest.approx(1.0) for f in smoothed)


class TestPoseFit:
    def test_noiseless_round_trip(self):
        true = WheelPose.from_rotvec([0.12, -0.2, 0.07], [0.05, -0.02, 0.9])
        loops = project_wheel(MODEL, true, CAM, samples_per_circle=24)
        pose, rms = fit_wheel_pose(loops, MODEL, CAM)
        assert rms < 1e-5
        assert np.linalg.norm(pose.translation - true.translation) < 1e-6
        axis_err = math.degrees(
            math.acos(min(1.0, abs(float(pose.axis @ true.axis))))
        )
        assert axis_err < 1e-3

    def test_noisy_fit_stays_close(self):
        rng = np.random.default_rng(5)
        true = WheelPose.from_rotvec([0.1, -0.15, 0.05], [0.02, 0.01, 0.85])
        loops = [
            loop + rng.normal(0.0, 0.3, loop.shape)
            for loop in project_wheel(MODEL, true, CAM, samples_per_circle=24)
        ]
        pose, rms = fit_wheel_pose(loops, MODEL, CAM)
        assert rms < 1.0  # pixel noise floor
        assert np.linalg.norm(pose.translation - true.translation) < 0.005

    def test_failure_carries_diagnostics(self):
        true = WheelPose.from_rotvec([0.12, -0.2, 0.07], [0.05, -0.02, 0.9])
        loops = project_wheel(MODEL, true, CAM, samples_per_circle=24)
        with pytest.raises(PoseFitError) as info:
            fit_wheel_pose(loops, MODEL, CAM, max_iterations=1)
        exc = info.value
        assert exc.nfev > 0 and exc.rms > 0 and exc.reason
        message = str(exc)
        assert f"{exc.nfev} evaluations" in message and " px " in message
        assert exc.reason in message

    def test_nfev_counts_every_residual_evaluation(self, monkeypatch):
        # the Jacobian's columns count too: a budget of 18 holds the first
        # evaluation and two steps of a 5-column Jacobian and one trial each
        true = WheelPose.from_rotvec([0.12, -0.2, 0.07], [0.05, -0.02, 0.9])
        loops = project_wheel(MODEL, true, CAM, samples_per_circle=24)
        calls = []
        distances = deflection._signed_curve_distances
        monkeypatch.setattr(deflection, "_signed_curve_distances",
                            lambda *args: calls.append(1) or distances(*args))
        with pytest.raises(PoseFitError) as info:
            fit_wheel_pose(loops, MODEL, CAM, max_iterations=3)
        assert info.value.nfev == len(calls) == 13

    def test_guess_where_no_parameter_moves_a_residual_fails(self):
        # loops 100 times the size put the start 9.4 mm from the camera,
        # where the wheel is behind it for every nearby pose, so every
        # residual is the same penalty
        loops = project_wheel(MODEL, frontal_pose(), CAM, samples_per_circle=16)
        centroid = loops[0].mean(axis=0)
        loops = [centroid + 100.0 * (loop - centroid) for loop in loops]
        assert deflection._initial_pose_guess(loops, MODEL, CAM)[4] == pytest.approx(
            0.0094, abs=1e-4)
        with pytest.raises(PoseFitError, match="moves no residual") as info:
            fit_wheel_pose(loops, MODEL, CAM)
        assert info.value.nfev == 6

    @pytest.mark.parametrize("value", [1e308, math.inf, math.nan])
    def test_non_finite_residual_at_the_start_fails(self, value):
        def fun(x):  # at 1e308 each entry is finite, but |f|^2 is not
            return np.array([value, 1.0]) + x[0]

        with np.errstate(over="ignore"):
            x, f, nfev, failure = deflection._levenberg_marquardt(fun, np.zeros(2), 100)
        assert (failure, nfev) == ("residual not finite", 1)

    def test_a_point_far_outside_the_image_fails_its_frame(self):
        # its distance to the curve is finite, its square is not: the fit
        # once stopped there as converged, with an RMS of inf px
        frames = read_annotations_csv(FIXTURE_DIR / "annotations.csv")[:2]
        frames[0].loops[1][0, 0] = -1e308
        with pytest.raises(PoseFitError, match="residual not finite") as info:
            deflection.process_annotations(frames, MODEL, CAM)
        # the frame is put in front of the message, and the diagnostics survive
        assert str(info.value).startswith("frame 0: pose fit did not converge: ")
        assert (info.value.nfev, info.value.reason) == (1, "residual not finite")

    def test_behind_camera_guess_rejected(self):
        # with fx = 5e-324 the start's depth, fx r / apparent radius, underflows to 0
        frames = read_annotations_csv(FIXTURE_DIR / "annotations.csv")[:1]
        cam = CameraIntrinsics(fx=5e-324, fy=800.0, cx=640.0, cy=360.0,
                               width=1280, height=720)
        with pytest.raises(DataError, match="^frame 0: wheel behind camera$"):
            deflection.process_annotations(frames, MODEL, cam)

    def test_too_few_points_rejected(self):
        loops = project_wheel(MODEL, frontal_pose(), CAM, samples_per_circle=4)
        with pytest.raises(DataError, match="at least 8 points"):
            fit_wheel_pose(loops, MODEL, CAM)

    @pytest.mark.parametrize("count", [0, 2])
    def test_loop_count_is_refused_before_the_start_reads_a_loop(self, count):
        loops = project_wheel(MODEL, frontal_pose(), CAM)[:count]
        with pytest.raises(DataError, match="^expected one observed loop per model circle$"):
            fit_wheel_pose(loops, MODEL, CAM)

    def test_degenerate_loop_is_refused_before_its_length(self):
        # the start is read off the inboard loop before any loop's points
        # are counted: four points in one place fail as degenerate, not as
        # too few
        frames = read_annotations_csv(FIXTURE_DIR / "annotations.csv")[:1]
        frames[0].loops[0] = np.full((4, 2), 300.0)
        with pytest.raises(DataError, match="^frame 0: degenerate loop$"):
            deflection.process_annotations(frames, MODEL, CAM)


_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def golden_signed_curve_distances(
    observed: np.ndarray,
    radius: np.ndarray,
    z_offset: np.ndarray,
    pose: WheelPose,
    cam: CameraIntrinsics,
    coarse: int = 64,
    refine_iters: int = 36,
) -> np.ndarray:
    """Signed distance from image points to their projected circle curves.

    The former search, kept as the oracle of the closed-form one. Per point,
    the closest curve parameter is found by a coarse scan followed by
    golden-section refinement; the sign is positive outside the curve
    (relative to the projected loop centroid).
    """
    phi_grid = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)

    def at(phi):
        x = radius * np.cos(phi)
        pts = np.stack(
            [x, radius * np.sin(phi), np.broadcast_to(z_offset, x.shape)], axis=-1
        )
        return deflection._project(pts, pose, cam)

    curve = at(phi_grid[:, None])  # (coarse, n, 2)
    centroid = curve.mean(axis=0)
    d2 = ((curve - observed[None, :, :]) ** 2).sum(axis=2)
    best = np.argmin(d2, axis=0)
    span = 2.0 * math.pi / coarse
    a = phi_grid[best] - span
    b = phi_grid[best] + span

    def f(phi):
        return ((at(phi) - observed) ** 2).sum(axis=1)

    c = b - _INV_GOLD * (b - a)
    d = a + _INV_GOLD * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(refine_iters):
        take_left = fc < fd
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        c = b - _INV_GOLD * (b - a)
        d = a + _INV_GOLD * (b - a)
        fc, fd = f(c), f(d)
    closest = at((a + b) / 2.0)
    dist = np.linalg.norm(observed - closest, axis=1)
    outside = np.linalg.norm(observed - centroid, axis=1) > np.linalg.norm(
        closest - centroid, axis=1
    )
    return np.where(outside, dist, -dist)


def _random_tilt(rng, max_deg):
    axis = rng.normal(size=3)
    return axis / np.linalg.norm(axis) * math.radians(rng.uniform(0.0, max_deg))


class TestCurveDistances:
    """The closed-form closest points against the golden-section search."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=1346192)  # the 20-degree-off pose needs 21 Newton steps
    def test_matches_golden_section_search(self, seed):
        # a pose in the fit's basin, noisy loops, and evaluation poses the fit
        # passes through: the true pose, its own start, and a pose 20 degrees
        # and 20% in depth away
        rng = np.random.default_rng(seed)
        translation = np.array(
            [rng.uniform(-0.08, 0.08), rng.uniform(-0.05, 0.05), rng.uniform(0.7, 1.1)]
        )
        true = WheelPose.from_rotvec(_random_tilt(rng, 20.0), translation)
        noise = rng.uniform(0.0, 1.0)
        loops = [
            loop + rng.normal(0.0, noise, loop.shape)
            for loop in project_wheel(MODEL, true, CAM, samples_per_circle=24)
        ]
        observed = np.concatenate(loops)
        radius = np.repeat([c[0] for c in MODEL.circles], 24)
        z_offset = np.repeat([c[1] for c in MODEL.circles], 24)
        tilt = WheelPose.from_rotvec(_random_tilt(rng, 20.0), np.zeros(3)).rotation
        off = WheelPose(
            tilt @ true.rotation, translation * [1.0, 1.0, rng.uniform(0.8, 1.2)]
        )
        x0 = deflection._initial_pose_guess(loops, MODEL, CAM)
        start = WheelPose.from_rotvec([x0[0], x0[1], 0.0], x0[2:])
        for pose in (true, start, off):
            want = golden_signed_curve_distances(observed, radius, z_offset, pose, CAM)
            got = deflection._signed_curve_distances(
                observed, radius, z_offset, pose, CAM
            )
            np.testing.assert_allclose(np.abs(got), np.abs(want), rtol=0, atol=1e-6)
            clear = np.abs(want) > 1e-6
            np.testing.assert_array_equal(np.sign(got[clear]), np.sign(want[clear]))

    def test_edge_on_circle_plane_raises(self):
        # the wheel axis is along the camera's x axis and the circle's plane
        # holds the camera centre, so every viewing ray of its image lies in
        # the plane (the rotation is written out, so that this holds exactly)
        pose = WheelPose(
            np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
            np.array([0.0, 0.0, 1.0]),
        )
        phi = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        circle = deflection._circle_points_3d(0.15, 0.0, phi)
        observed = deflection._project(circle, pose, CAM)
        np.testing.assert_allclose(observed[:, 0], CAM.cx)
        with pytest.raises(DataError, match="parallel"):
            deflection._signed_curve_distances(
                observed, np.full(12, 0.15), np.zeros(12), pose, CAM
            )

    def test_nearly_edge_on_circle_plane_raises(self):
        # a quarter turn about y holds the camera centre in the circle's plane
        # only to rounding; the image points lie on the projected curve, but
        # the viewing rays would meet the plane at rounding noise
        pose = WheelPose.from_rotvec([0.0, math.pi / 2, 0.0], [0.0, 0.0, 1.0])
        assert abs(pose.translation @ pose.axis) < 1e-15
        phi = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        circle = deflection._circle_points_3d(0.15, 0.0, phi)
        observed = deflection._project(circle, pose, CAM)
        with pytest.raises(DataError, match="edge-on"):
            deflection._signed_curve_distances(
                observed, np.full(12, 0.15), np.zeros(12), pose, CAM
            )

    def test_oblique_circle_plane_is_measured(self):
        # a plane a millionth of a radian from edge-on is still measured
        pose = WheelPose.from_rotvec([0.0, math.pi / 2 - 1e-6, 0.0], [0.0, 0.0, 1.0])
        phi = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
        circle = deflection._circle_points_3d(0.15, 0.0, phi)
        observed = deflection._project(circle, pose, CAM)
        got = deflection._signed_curve_distances(
            observed, np.full(12, 0.15), np.zeros(12), pose, CAM
        )
        np.testing.assert_allclose(got, 0.0, atol=1e-9)


class TestAnnotationsCsv:
    def test_round_trip(self, tmp_path):
        pose = frontal_pose(0.9)
        loops = project_wheel(MODEL, pose, CAM, samples_per_circle=12)
        chord = make_chord_annotation(MODEL, pose, CAM, 0.9)
        frames = [
            AnnotationFrame(0, loops, chord),
            AnnotationFrame(1, loops, None),  # airborne
        ]
        path = tmp_path / "annotations.csv"
        fixture_script().write_annotations_csv(path, frames)
        loaded = read_annotations_csv(path)
        assert len(loaded) == 2
        assert loaded[0].chord.p1 == pytest.approx(chord.p1, abs=1e-5)
        assert loaded[1].chord is None
        for a, b in zip(loops, loaded[0].loops):
            np.testing.assert_allclose(a, b, atol=1e-5)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,oops\n")
        with pytest.raises(DataError, match="expected header frame,cam_id,"):
            read_annotations_csv(path)


class TestBundledFixture:
    def test_model_and_camera_load(self):
        model = load_wheel_model(FIXTURE_DIR / "model.txt")
        cam = load_camera(FIXTURE_DIR / "camera.txt")
        assert model == MODEL
        assert cam == CAM

    def test_fixture_script_rebuilds_the_files(self, tmp_path):
        fixture_script().main(tmp_path)
        names = ["annotations.csv", "camera.txt", "model.txt", "oracle.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (FIXTURE_DIR / name).read_bytes(), name

    def test_oracle_shape(self):
        with open(FIXTURE_DIR / "oracle.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 30
        fractions = [float(r["fraction"]) for r in rows]
        assert max(fractions) == pytest.approx(0.060, abs=1e-6)
        assert fractions.count(0.0) == 4  # airborne frames


@settings(max_examples=50, deadline=None)
@given(h=st.floats(0.05, 0.999))
def test_segment_fraction_monotone_property(h):
    # deeper chord (smaller h) always deflects at least as much volume
    assert segment_fraction(h) <= segment_fraction(max(0.0, h - 0.05)) + 1e-12
