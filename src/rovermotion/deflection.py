"""Wheel-deflection estimation: reprojection, pose fit, chord geometry, volume."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, least_squares
from scipy.spatial.transform import Rotation

from rovermotion.errors import GeometryError, PoseFitError


@dataclass(frozen=True)
class WheelModel3D:
    """Simplified wheel: two perimeter circles plus a hub plate circle.

    The wheel frame has z along the wheel axis; the inboard face (the one
    the close-up camera watches, carrying the hub plate) sits at z = -w/2
    and the outboard face at z = +w/2.
    """

    radius: float
    width: float
    hub_radius: float

    def __post_init__(self):
        if not 0 < self.hub_radius < self.radius:
            raise GeometryError("hub radius must be in (0, radius)")
        if self.width <= 0:
            raise GeometryError("non-positive wheel width")

    @property
    def circles(self) -> list[tuple[float, float]]:
        """(radius, z offset) of inboard perimeter, outboard perimeter, hub."""
        half = self.width / 2.0
        return [
            (self.radius, -half),
            (self.radius, +half),
            (self.hub_radius, -half),
        ]

    @property
    def volume(self) -> float:
        return math.pi * self.radius**2 * self.width


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("non-positive focal length")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise GeometryError("principal point outside image")


@dataclass(frozen=True)
class WheelPose:
    """Wheel frame in camera frame: 3x3 rotation and translation (m)."""

    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def from_rotvec(cls, rotvec, translation) -> "WheelPose":
        return cls(
            Rotation.from_rotvec(np.asarray(rotvec, dtype=float)).as_matrix(),
            np.asarray(translation, dtype=float),
        )

    @property
    def rotvec(self) -> np.ndarray:
        return Rotation.from_matrix(self.rotation).as_rotvec()

    @property
    def axis(self) -> np.ndarray:
        """Wheel axis direction in the camera frame."""
        return self.rotation[:, 2]


@dataclass(frozen=True)
class ChordAnnotation:
    """Image-space deflection line undercutting the inboard perimeter."""

    p1: tuple[float, float]
    p2: tuple[float, float]

    def __post_init__(self):
        if self.p1 == self.p2:
            raise GeometryError("degenerate chord: identical endpoints")


@dataclass(frozen=True)
class DeflectionEstimate:
    """One frame's deflected volume and its fraction of the undeformed
    cylinder; deflected_volume_fraction gives fractions in [0, 0.5]."""

    frame: int
    volume: float  # m^3
    fraction: float  # of the undeformed cylinder volume


def _circle_points_3d(radius: float, z_offset: float, phi: np.ndarray) -> np.ndarray:
    return np.stack(
        [radius * np.cos(phi), radius * np.sin(phi), np.full_like(phi, z_offset)],
        axis=-1,
    )


def _project(points_3d: np.ndarray, pose: WheelPose, cam: CameraIntrinsics) -> np.ndarray:
    return _pixels(points_3d @ pose.rotation.T + pose.translation, cam)


def _pixels(cam_pts: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Pinhole image of camera-frame points."""
    z = cam_pts[..., 2]
    if np.any(z <= 0):
        raise GeometryError("wheel behind camera")
    return np.stack(
        [
            cam.fx * cam_pts[..., 0] / z + cam.cx,
            cam.fy * cam_pts[..., 1] / z + cam.cy,
        ],
        axis=-1,
    )


def project_wheel(
    model: WheelModel3D,
    pose: WheelPose,
    cam: CameraIntrinsics,
    samples_per_circle: int = 90,
) -> list[np.ndarray]:
    """Pinhole projection of the three model circles, sampled uniformly.

    Returns [inboard, outboard, hub] loops as (n, 2) pixel arrays ordered
    by parameter angle.
    """
    phi = np.linspace(0.0, 2.0 * math.pi, samples_per_circle, endpoint=False)
    return [
        _project(_circle_points_3d(radius, z_off, phi), pose, cam)
        for radius, z_off in model.circles
    ]


# Each closest-point search takes Newton steps until no point's step moves
# its curve point by more than _CLOSEST_POINT_TOL_PX; the distance's own
# error is second order in that move. On a circle seen face on, a step takes
# a parameter error e to about e**3 / 3, so two or three steps suffice. Where
# the curvature floor binds (a point near its curve's centre of curvature,
# seen obliquely), convergence is linear: a 20-degree-off evaluation pose
# needed ~20 steps at a rate of 0.32. A search still moving after
# _CLOSEST_POINT_MAX_STEPS keeps its last point, whose distance is an upper
# bound on the true one.
_CLOSEST_POINT_TOL_PX = 1e-9
_CLOSEST_POINT_MAX_STEPS = 32

# A circle plane whose distance from the camera centre is at most this share
# of the circle centre's distance is seen edge-on. Points on the image of a
# circle seen at a share of 1e-11 still measure below 1e-12 px from it; at
# 1e-13 rounding in the plane's offset moves them by ~0.01 px, at 1e-14 by
# pixels.
_EDGE_ON_REL_TOL = 1e-9


def _signed_curve_distances(
    observed: np.ndarray,
    radius: np.ndarray,
    z_offset: np.ndarray,
    pose: WheelPose,
    cam: CameraIntrinsics,
) -> np.ndarray:
    """Signed distance in pixels from image points to their projected circles.

    radius/z_offset are per-point, so loops on several model circles can be
    processed in one vectorized pass. Each point's viewing ray meets its
    circle's plane at `hit` (relative to the circle centre), whose angle is
    the closest curve parameter if the point is on the curve. From there,
    Newton steps on the squared pixel distance find it to within
    _CLOSEST_POINT_TOL_PX. The sign is positive where the ray passes outside
    the circle. A plane that holds the camera centre to within
    _EDGE_ON_REL_TOL, a ray parallel to the plane, or a curve point at or
    behind the camera raises GeometryError.

    Limit: seen within ~6 degrees of edge-on, noise can move the ray-plane
    seed far along the thin projected ellipse, and Newton may settle on a
    curve point that is not the closest: with 0.5 px noise the error reached
    228 px, against 0.04 px at 0.05 rad from edge-on. Such views lie far
    outside the pose fit's +/-20 degree basin.
    """
    e1, e2, normal = pose.rotation.T
    centre = np.multiply.outer(z_offset, normal) + pose.translation
    offset = centre @ normal
    if np.any(np.abs(offset) <= _EDGE_ON_REL_TOL * np.linalg.norm(centre, axis=1)):
        raise GeometryError("wheel plane seen edge-on: viewing rays parallel to it")
    focal = np.array([cam.fx, cam.fy])
    ray = np.column_stack([(observed - [cam.cx, cam.cy]) / focal, np.ones(len(observed))])
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = ray * (offset / (ray @ normal))[:, None] - centre
    if not np.isfinite(hit).all():
        raise GeometryError("viewing ray parallel to the wheel plane")
    phi = np.arctan2(hit @ e2, hit @ e1)
    r = radius[:, None]
    converged = False
    for count in range(_CLOSEST_POINT_MAX_STEPS + 1):
        cos, sin = np.cos(phi)[:, None], np.sin(phi)[:, None]
        radial = r * (cos * e1 + sin * e2)
        point = centre + radial
        gap = _pixels(point, cam) - observed
        if converged or count == _CLOSEST_POINT_MAX_STEPS:
            break
        # d/dphi of the image point by the quotient rule, once (slope) and
        # twice (bend); the point's own derivatives are tangent and -radial
        tangent = r * (cos * e2 - sin * e1)
        depth, image = point[:, 2:], point[:, :2] / point[:, 2:]
        slope = focal * (tangent[:, :2] - image * tangent[:, 2:]) / depth
        bend = focal * (image * radial[:, 2:] - radial[:, :2]) / depth
        bend -= 2.0 * slope * tangent[:, 2:] / depth
        speed2 = (slope * slope).sum(axis=1)
        # a curvature of at least a quarter of Gauss-Newton's: always downhill
        curvature = np.maximum(speed2 + (bend * gap).sum(axis=1), speed2 / 4.0)
        step = (slope * gap).sum(axis=1) / curvature
        phi = phi - step
        # the curve point moves by |step| * speed pixels
        converged = bool((step * step * speed2 <= _CLOSEST_POINT_TOL_PX**2).all())
    dist = np.hypot(gap[:, 0], gap[:, 1])
    return np.where(np.linalg.norm(hit, axis=1) > radius, dist, -dist)


def _tilt_rotvec(axis: np.ndarray) -> np.ndarray:
    """x, y of the rotation vector of the smallest tilt carrying e_z onto axis.

    The tilt turns about e_z x axis, which lies in the xy plane, so the
    rotation vector's z component is 0 and the rotation has no spin.
    """
    axis = np.asarray(axis, dtype=float)
    cross = np.array([-axis[1], axis[0]])  # e_z x axis
    sin = math.hypot(cross[0], cross[1])
    angle = math.atan2(sin, float(axis[2]))
    if sin == 0.0:  # axis along +-e_z: any horizontal tilt axis will do
        return np.array([angle, 0.0])
    return angle * cross / sin


def fit_wheel_pose(
    loops: list[np.ndarray],
    model: WheelModel3D,
    cam: CameraIntrinsics,
    initial_guess: WheelPose,
    max_iterations: int = 200,
) -> tuple[WheelPose, float]:
    """Nonlinear least-squares wheel pose from observed circle loops.

    loops are [inboard, outboard, hub] image point sets. The residuals are
    each point's signed pixel distance to its projected model circle, exact
    to rounding (see _signed_curve_distances); the Levenberg-Marquardt
    solver takes their Jacobian by finite differences. The model circles are
    symmetric about the wheel axis, so spin about that axis changes no
    residual and cannot be observed. The fit therefore solves for 5
    unknowns: the axis tilt, as a rotation vector with its z component
    pinned to 0, and the translation. It is seeded with the tilt that
    carries e_z onto the guess's axis, so spin in the guess is ignored.

    The returned rotation is the zero-spin representative: only its
    `axis` and the `translation` carry meaning, and rotation[:, :2] is
    one in-plane basis among many. The initial guess must lie within
    roughly +-20 degrees of axis tilt and +-20% of depth. Returns the
    pose and the RMS reprojection distance in pixels. Raises PoseFitError
    (carrying the best pose so far and the solver's diagnostics) on
    non-convergence.
    """
    if len(loops) != len(model.circles):
        raise GeometryError("expected one observed loop per model circle")
    for loop in loops:
        if len(loop) < 8:
            raise GeometryError("need at least 8 points per loop")
    if initial_guess.translation[2] <= 0:
        raise GeometryError("wheel behind camera")

    observed = np.concatenate([np.asarray(loop, dtype=float) for loop in loops])
    radius, z_offset = np.repeat(model.circles, [len(loop) for loop in loops], axis=0).T

    def pose_of(x):
        return WheelPose.from_rotvec([x[0], x[1], 0.0], x[2:])

    def residuals(x):
        pose = pose_of(x)
        if pose.translation[2] <= 0:
            return np.full(len(observed), 1e6)
        try:
            return _signed_curve_distances(observed, radius, z_offset, pose, cam)
        except GeometryError:
            return np.full(len(observed), 1e6)

    x0 = np.concatenate([_tilt_rotvec(initial_guess.axis), initial_guess.translation])
    result = least_squares(
        residuals,
        x0,
        method="lm",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        diff_step=1e-6,
        max_nfev=max_iterations * (len(x0) + 1),
    )
    pose = pose_of(result.x)
    rms = math.sqrt(float(np.mean(result.fun**2)))
    if not result.success:
        raise PoseFitError(pose, rms, result.nfev, result.message)
    return pose, rms


def _chord_plane_line(
    chord: ChordAnnotation,
    pose: WheelPose,
    cam: CameraIntrinsics,
    plane_z: float,
) -> tuple[float, float, float] | None:
    """Back-project the image chord onto a wheel circle plane.

    Returns (a, b, c) with a x + b y + c = 0 in the circle-plane 2D
    coordinates of the wheel frame, or None if the viewing plane misses
    the circle plane (parallel).
    """
    def ray(p):
        return np.array([(p[0] - cam.cx) / cam.fx, (p[1] - cam.cy) / cam.fy, 1.0])

    normal = np.cross(ray(chord.p1), ray(chord.p2))
    # plane through the camera origin: normal . X_cam = 0
    e1 = pose.rotation[:, 0]
    e2 = pose.rotation[:, 1]
    origin = pose.rotation @ np.array([0.0, 0.0, plane_z]) + pose.translation
    a = float(normal @ e1)
    b = float(normal @ e2)
    c = float(normal @ origin)
    if math.hypot(a, b) < 1e-15:
        return None
    return a, b, c


# A chord whose distance from the centre is within this share of the radius
# of the circle's rim touches the circle and cuts nothing.
_TANGENT_REL_TOL = 1e-12


def deflected_volume_fraction(
    model: WheelModel3D,
    pose: WheelPose,
    cam: CameraIntrinsics,
    chord: ChordAnnotation,
    frame: int = 0,
) -> DeflectionEstimate:
    """Deflected volume fraction from an annotated chord line.

    The chord is back-projected onto the inboard perimeter plane and taken
    to cut the outboard perimeter in the same place (equal deflection on
    both sides). The deflected shape is then a prism as wide as the wheel
    over the circular segment the chord cuts off on the far side from the
    centre, so the fraction is segment_fraction of the chord's distance
    from the centre, at most one half. A chord that misses or touches the
    circle yields fraction 0.
    """
    line = _chord_plane_line(chord, pose, cam, -model.width / 2.0)
    if line is None:
        return DeflectionEstimate(frame, 0.0, 0.0)
    a, b, c = line
    depth_ratio = abs(c) / math.hypot(a, b) / model.radius
    if depth_ratio >= 1.0 - _TANGENT_REL_TOL:
        return DeflectionEstimate(frame, 0.0, 0.0)
    fraction = segment_fraction(depth_ratio)
    return DeflectionEstimate(frame, fraction * model.volume, fraction)


def smooth_deflection_series(
    raw: list[DeflectionEstimate], window: int
) -> list[DeflectionEstimate]:
    """Centered moving average of fractions; edges use truncated windows."""
    if window < 1 or window % 2 == 0:
        raise GeometryError("window must be odd and >= 1")
    if not raw:
        return []
    half = window // 2
    out = []
    for i, est in enumerate(raw):
        lo = max(0, i - half)
        hi = min(len(raw), i + half + 1)
        fractions = [r.fraction for r in raw[lo:hi]]
        volumes = [r.volume for r in raw[lo:hi]]
        out.append(
            DeflectionEstimate(
                est.frame,
                sum(volumes) / len(volumes),
                sum(fractions) / len(fractions),
            )
        )
    return out


def segment_fraction(depth_ratio: float) -> float:
    """Analytic deflected fraction for a chord at distance h = depth_ratio * r.

    The deflected prism volume is the circular-segment area times the wheel
    width, so the fraction is (acos(h/r) - (h/r) sqrt(1 - (h/r)^2)) / pi.
    """
    if not 0.0 <= depth_ratio <= 1.0:
        raise GeometryError("depth ratio outside [0, 1]")
    return (
        math.acos(depth_ratio) - depth_ratio * math.sqrt(1.0 - depth_ratio**2)
    ) / math.pi


def depth_for_fraction(fraction: float) -> float:
    """Invert segment_fraction: chord distance ratio for a target fraction."""
    if not 0.0 <= fraction < 0.5:
        raise GeometryError("fraction outside [0, 0.5)")
    if fraction == 0.0:
        return 1.0
    return brentq(lambda h: segment_fraction(h) - fraction, 0.0, 1.0, xtol=1e-14)


def make_chord_annotation(
    model: WheelModel3D,
    pose: WheelPose,
    cam: CameraIntrinsics,
    depth_ratio: float,
    direction: tuple[float, float] = (0.0, -1.0),
) -> ChordAnnotation:
    """Synthesize an image chord at perpendicular distance depth_ratio * r.

    direction is the unit deflection direction in the wheel plane (default
    -y, toward the ground for an upright wheel).
    """
    dx, dy = direction
    norm = math.hypot(dx, dy)
    dx, dy = dx / norm, dy / norm
    h = depth_ratio * model.radius
    half_span = 1.2 * model.radius
    inboard_z = -model.width / 2.0
    ends = []
    for sign in (-1.0, 1.0):
        x = h * dx + sign * half_span * -dy
        y = h * dy + sign * half_span * dx
        pt = _project(np.array([[x, y, inboard_z]]), pose, cam)[0]
        ends.append((float(pt[0]), float(pt[1])))
    return ChordAnnotation(ends[0], ends[1])


@dataclass(frozen=True)
class AnnotationFrame:
    frame: int
    cam_id: str
    loops: list[np.ndarray]  # inboard, outboard, hub image loops
    chord: ChordAnnotation | None  # None while the wheel is airborne


def _serialize_loop(loop: np.ndarray) -> str:
    return ";".join(f"{u:.6f}:{v:.6f}" for u, v in loop)


def _finite(text: str) -> float:
    """The annotation cell `text` as a finite float; else ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parse_loop(text: str) -> np.ndarray:
    points = []
    for pair in text.split(";"):
        uv = pair.split(":")
        if len(uv) != 2:
            raise ValueError(f"loop point {pair!r} is not u:v")
        points.append((_finite(uv[0]), _finite(uv[1])))
    return np.array(points)


ANNOTATION_HEADER = [
    "frame",
    "cam_id",
    "inboard_loop",
    "outboard_loop",
    "hub_loop",
    "chord_x1",
    "chord_y1",
    "chord_x2",
    "chord_y2",
]


def write_annotations_csv(path: str | Path, frames: list[AnnotationFrame]) -> None:
    from rovermotion.config import write_csv

    rows = []
    for item in frames:
        chord = ([""] * 4 if item.chord is None
                 else [f"{c:.6f}" for c in (*item.chord.p1, *item.chord.p2)])
        rows.append([item.frame, item.cam_id, *map(_serialize_loop, item.loops), *chord])
    write_csv(path, ANNOTATION_HEADER, rows)


def read_annotations_csv(path: str | Path) -> list[AnnotationFrame]:
    from rovermotion.config import read_text

    frames = []
    reader = csv.reader(io.StringIO(read_text(path, GeometryError)))
    header = next(reader, None)
    if header != ANNOTATION_HEADER:
        raise GeometryError(f"{path}: unexpected annotation header")
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(ANNOTATION_HEADER):
            raise GeometryError(f"{path}:{lineno}: wrong column count")
        try:
            loops = [_parse_loop(cell) for cell in row[2:5]]
            if any(cell.strip() for cell in row[5:9]):
                x1, y1, x2, y2 = map(_finite, row[5:9])
                chord = ChordAnnotation((x1, y1), (x2, y2))
            else:
                chord = None
            frames.append(AnnotationFrame(int(row[0]), row[1], loops, chord))
        except ValueError as exc:  # GeometryError is one too
            raise GeometryError(f"{path}:{lineno}: {exc}") from None
    return frames


def initial_pose_guess(
    loops: list[np.ndarray], model: WheelModel3D, cam: CameraIntrinsics
) -> WheelPose:
    """Fronto-parallel pose guess from the apparent inboard circle.

    Depth from the apparent radius via similar triangles; lateral position
    from the back-projected loop centroid. Adequate as a fit seed for
    wheels viewed within the documented convergence basin.
    """
    inboard = np.asarray(loops[0], dtype=float)
    centroid = inboard.mean(axis=0)
    apparent = float(np.mean(np.linalg.norm(inboard - centroid, axis=1)))
    if apparent <= 0:
        raise GeometryError("degenerate loop")
    depth = cam.fx * model.radius / apparent
    x = (centroid[0] - cam.cx) / cam.fx * depth
    y = (centroid[1] - cam.cy) / cam.fy * depth
    return WheelPose(np.eye(3), np.array([x, y, depth]))


def process_annotations(
    frames: list[AnnotationFrame],
    model: WheelModel3D,
    cam: CameraIntrinsics,
) -> list[DeflectionEstimate]:
    """Full per-frame pipeline: pose fit, then the closed-form deflected
    volume fraction of the frame's chord (0 for a frame without one).

    Stops at the first frame whose pose fit fails, raising PoseFitError
    with that frame's number.
    """
    estimates = []
    for item in frames:
        try:
            pose, _ = fit_wheel_pose(
                item.loops, model, cam, initial_pose_guess(item.loops, model, cam)
            )
        except PoseFitError as exc:
            raise PoseFitError(
                exc.pose, exc.rms, exc.nfev, exc.reason, frame=item.frame
            ) from None
        if item.chord is None:
            estimates.append(DeflectionEstimate(item.frame, 0.0, 0.0))
        else:
            estimates.append(
                deflected_volume_fraction(model, pose, cam, item.chord, item.frame)
            )
    return estimates


def _load_numbers(path: str | Path, keys: tuple[str, ...]) -> dict[str, float]:
    """The numeric `key = value` pairs of a file that holds exactly `keys`."""
    from rovermotion.config import parse_key_value_file

    pairs = parse_key_value_file(path)
    unknown = sorted(set(pairs) - set(keys))
    if unknown:
        raise GeometryError(f"{path}: unknown keys: {', '.join(unknown)}")
    missing = [key for key in keys if key not in pairs]
    if missing:
        raise GeometryError(f"{path}: missing keys: {', '.join(missing)}")
    values = {}
    for key, text in pairs.items():
        try:
            values[key] = float(text)
        except ValueError:
            values[key] = math.nan
        if not math.isfinite(values[key]):
            raise GeometryError(f"{path}: {key} = {text!r} is not a finite number")
    return values


def load_wheel_model(path: str | Path) -> WheelModel3D:
    values = _load_numbers(path, ("radius", "width", "hub_radius"))
    try:
        return WheelModel3D(**values)
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from None


def load_camera(path: str | Path) -> CameraIntrinsics:
    values = _load_numbers(path, ("fx", "fy", "cx", "cy", "width", "height"))
    for key in ("width", "height"):
        if not values[key].is_integer():
            raise GeometryError(f"{path}: {key} = {values[key]!r} is not an integer")
        values[key] = int(values[key])
    try:
        return CameraIntrinsics(**values)
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from None
