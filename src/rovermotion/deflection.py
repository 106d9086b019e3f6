"""Wheel-deflection estimation: reprojection, pose fit, chord geometry, volume."""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rovermotion.config import (
    check_fields,
    csv_rows,
    from_pairs,
    parse_finite,
    parse_integer,
    parse_key_value_file,
    read_text,
    within,
)
from rovermotion.errors import DataError, PoseFitError, naming


@dataclass(frozen=True)
class WheelModel3D:
    """Simplified wheel: two perimeter circles plus a hub plate circle.

    The wheel frame has z along the wheel axis; the inboard face (the one
    the close-up camera watches, carrying the hub plate) sits at z = -w/2
    and the outboard face at z = +w/2.
    """

    radius: float = within("(0, 10]")  # m
    width: float = within("(0, 10]")
    hub_radius: float = within("(0, 10]")

    def __post_init__(self):
        check_fields(self)
        if not self.hub_radius < self.radius:
            raise DataError("hub radius must be in (0, radius)")

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
    fx: float = within("(0, 1000000]")  # px
    fy: float = within("(0, 1000000]")
    cx: float = within("[0, 100000]")
    cy: float = within("[0, 100000]")
    width: int = within("[1, 100000]")
    height: int = within("[1, 100000]")

    def __post_init__(self):
        check_fields(self)
        if not (self.cx <= self.width and self.cy <= self.height):
            raise DataError("principal point outside image")


@dataclass(frozen=True)
class WheelPose:
    """Wheel frame in camera frame: 3x3 rotation and translation (m)."""

    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def from_rotvec(cls, rotvec, translation) -> "WheelPose":
        """The rotation by |rotvec| rad about rotvec, by Rodrigues' formula."""
        rotvec = np.asarray(rotvec, dtype=float)
        angle = float(np.linalg.norm(rotvec))
        # the matrix of v -> k x v for the unit axis k, written out: np.cross costs more
        x, y, z = (rotvec / angle).tolist() if angle else (0.0, 0.0, 0.0)
        cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        rotation = (np.eye(3) + math.sin(angle) * cross
                    + 2.0 * math.sin(angle / 2.0) ** 2 * cross @ cross)
        return cls(rotation, np.asarray(translation, dtype=float))

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
            raise DataError("degenerate chord: identical endpoints")


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
        raise DataError("wheel behind camera")
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
    behind the camera raises DataError.

    Limit: seen within ~6 degrees of edge-on, noise can move the ray-plane
    seed far along the thin projected ellipse, and Newton may settle on a
    curve point that is not the closest: with 0.5 px noise the error reached
    228 px, against 0.04 px at 0.05 rad from edge-on. Such views lie far
    outside the pose fit's basin (correct to about 60 degrees of tilt).
    """
    e1, e2, normal = pose.rotation.T
    centre = np.multiply.outer(z_offset, normal) + pose.translation
    offset = centre @ normal
    if np.any(np.abs(offset) <= _EDGE_ON_REL_TOL * np.linalg.norm(centre, axis=1)):
        raise DataError("wheel plane seen edge-on: viewing rays parallel to it")
    focal = np.array([cam.fx, cam.fy])
    ray = np.column_stack([(observed - [cam.cx, cam.cy]) / focal, np.ones(len(observed))])
    with np.errstate(divide="ignore", invalid="ignore"):
        hit = ray * (offset / (ray @ normal))[:, None] - centre
    if not np.isfinite(hit).all():
        raise DataError("viewing ray parallel to the wheel plane")
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


def _initial_pose_guess(
    loops: list[np.ndarray], model: WheelModel3D, cam: CameraIntrinsics
) -> np.ndarray:
    """The fit's start [0, 0, x, y, depth]: no tilt, so the wheel faces the
    camera, at the depth where the model radius looks as large as the
    inboard loop's mean distance from its centroid (similar triangles), and
    at that centroid's back-projection to that depth.
    """
    inboard = np.asarray(loops[0], dtype=float)
    # a radius that overflows is inf, refused as one of 0 is
    with np.errstate(over="ignore", invalid="ignore"):
        centroid = inboard.mean(axis=0)
        apparent = float(np.mean(np.linalg.norm(inboard - centroid, axis=1)))
    if not 0.0 < apparent < math.inf:
        raise DataError("degenerate loop")
    # Python floats: a position that overflows is inf, for the fit to refuse
    u, v = centroid.tolist()
    depth = cam.fx * model.radius / apparent
    x = (u - cam.cx) / cam.fx * depth
    y = (v - cam.cy) / cam.fy * depth
    return np.array([0.0, 0.0, x, y, depth])


def fit_wheel_pose(
    loops: list[np.ndarray],
    model: WheelModel3D,
    cam: CameraIntrinsics,
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
    pinned to 0, and the translation. It starts facing the camera, where
    _initial_pose_guess puts the inboard loop.

    The returned rotation is the zero-spin representative: only its
    `axis` and the `translation` carry meaning, and rotation[:, :2] is
    one in-plane basis among many. With 0.5 px of noise the fit is correct
    up to about 60 degrees of axis tilt and silently wrong from about 70.
    Returns the pose and the RMS reprojection distance in pixels. Raises
    DataError, in this order, for a loop count other than the model's
    circles, a degenerate inboard loop, a loop of fewer than 8 points and a
    start at or behind the camera; and PoseFitError (carrying the best pose
    so far and the solver's diagnostics) on non-convergence.
    """
    if len(loops) != len(model.circles):
        raise DataError("expected one observed loop per model circle")
    x0 = _initial_pose_guess(loops, model, cam)
    for loop in loops:
        if len(loop) < 8:
            raise DataError("need at least 8 points per loop")
    if x0[4] <= 0:
        raise DataError("wheel behind camera")

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
        except DataError:
            return np.full(len(observed), 1e6)

    # a residual that overflows is inf or nan, which the solver refuses by name
    with np.errstate(over="ignore", invalid="ignore"):
        x, fun, nfev, failure = _levenberg_marquardt(
            residuals, x0, max_iterations * (len(x0) + 1))
        pose, rms = pose_of(x), math.sqrt(float(np.mean(fun**2)))
    if failure:
        raise PoseFitError(pose, rms, nfev, failure)
    return pose, rms


def _levenberg_marquardt(fun, x, max_nfev: int):
    """Minimise |fun(x)|^2 from x: (x, fun(x), evaluations, failure or None).

    A step h solves (J^T J + mu D) h = -J^T f, with J the forward-difference
    Jacobian (steps 1e-6 max(1, |x|)) and D the largest diag(J^T J) seen yet
    (Marquardt's damping, scaled as in More 1978). The gain ratio rho, actual
    over predicted reduction, accepts the step if positive and updates mu by
    Nielsen's rule. The fit converges when the scaled step falls to 1e-14 of
    the scaled x, or both reductions to 1e-14 of |f|^2; it fails if |f(x)|^2
    is not finite (an accepted step lowers it, so the answer's is finite when
    the start's is) or a column of J is 0. Every call of `fun` counts against
    `max_nfev`, Jacobian columns too.
    """
    f, nfev, mu, nu, scale, fresh = fun(x), 1, 1e-3, 2.0, np.zeros(len(x)), True
    if not np.isfinite(f @ f):
        return x, f, nfev, "residual not finite"
    while nfev + len(x) * fresh < max_nfev:
        if fresh:
            dx = 1e-6 * np.maximum(1.0, np.abs(x))
            jac = (np.column_stack([fun(x + h) for h in np.diag(dx)]) - f[:, None]) / dx
            nfev, scale = nfev + len(x), np.maximum(scale, np.einsum("ij,ij->j", jac, jac))
            if not scale.all():
                return x, f, nfev, "a parameter moves no residual"
        step = np.linalg.solve(jac.T @ jac + np.diag(mu * scale), -jac.T @ f)
        trial, nfev = fun(x + step), nfev + 1
        cost, actual, linear = f @ f, f @ f - trial @ trial, jac @ step
        predicted = linear @ linear + 2.0 * mu * step @ (scale * step)
        rho = actual / predicted if predicted > 0.0 else 0.0
        done = (scale @ step**2 <= 1e-28 * (scale @ x**2)
                or max(abs(actual), predicted) <= 1e-14 * cost and rho <= 2.0)
        fresh = rho > 0.0
        if fresh:
            x, f, mu, nu = x + step, trial, mu * max(1 / 3, 1 - (2 * rho - 1) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
        if done:
            return x, f, nfev, None
    return x, f, nfev, f"no room for another step within {max_nfev} evaluations"


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
) -> float:
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
        return 0.0
    a, b, c = line
    depth_ratio = abs(c) / math.hypot(a, b) / model.radius
    if depth_ratio >= 1.0 - _TANGENT_REL_TOL:
        return 0.0
    return segment_fraction(depth_ratio)


def smooth_deflection_series(values: list[float], window: int) -> list[float]:
    """Centered moving average; edges use truncated windows. The window is
    odd and >= 1, the rule the caller checks where it reads the window."""
    half = window // 2
    near = [values[max(0, i - half):i + half + 1] for i in range(len(values))]
    return [sum(part) / len(part) for part in near]


def segment_fraction(depth_ratio: float) -> float:
    """Analytic deflected fraction for a chord at distance h = depth_ratio * r.

    The deflected prism volume is the circular-segment area times the wheel
    width, so the fraction is (acos(h/r) - (h/r) sqrt(1 - (h/r)^2)) / pi.
    """
    if not 0.0 <= depth_ratio <= 1.0:
        raise DataError("depth ratio outside [0, 1]")
    return (
        math.acos(depth_ratio) - depth_ratio * math.sqrt(1.0 - depth_ratio**2)
    ) / math.pi


def depth_for_fraction(fraction: float) -> float:
    """Invert segment_fraction: chord distance ratio for a target fraction."""
    if not 0.0 <= fraction < 0.5:
        raise DataError("fraction outside [0, 0.5)")
    if fraction == 0.0:
        return 1.0
    low, high = 0.0, 1.0  # segment_fraction falls from 0.5 at 0 to 0 at 1
    while high - low > 1e-14:
        middle = (low + high) / 2.0
        low, high = (middle, high) if segment_fraction(middle) > fraction else (low, middle)
    return (low + high) / 2.0


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
    loops: list[np.ndarray]  # inboard, outboard, hub image loops
    chord: ChordAnnotation | None  # None while the wheel is airborne


def _parse_loop(text: str, name: str, where: str) -> np.ndarray:
    points = []
    for pair in text.split(";"):
        uv = pair.split(":")
        if len(uv) != 2:
            raise DataError(f"{where}: loop point {pair!r} is not u:v")
        points.append([parse_finite(cell, name, where) for cell in uv])
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


def read_annotations_csv(path: str | Path) -> list[AnnotationFrame]:
    """The frames of an annotation file; its cam_id column is read by no one."""
    frames = []
    for where, row in csv_rows(io.StringIO(read_text(path)), ANNOTATION_HEADER, path):
        cells = list(zip(ANNOTATION_HEADER, row))
        loops = [_parse_loop(cell, name, where) for name, cell in cells[2:5]]
        chord = None  # while the wheel is airborne
        if any(cell.strip() for cell in row[5:9]):
            x1, y1, x2, y2 = (parse_finite(cell, name, where)
                              for name, cell in cells[5:9])
            with naming(where):
                chord = ChordAnnotation((x1, y1), (x2, y2))
        frame = parse_integer(row[0], "frame", where)
        frames.append(AnnotationFrame(frame, loops, chord))
    return frames


def process_annotations(
    frames: list[AnnotationFrame],
    model: WheelModel3D,
    cam: CameraIntrinsics,
) -> list[float]:
    """Each frame's deflected volume fraction, in file order: the pose fit,
    then the closed-form fraction of the frame's chord (0 for a frame
    without one).

    Stops at the first frame that fails, raising its PoseFitError or
    DataError with `frame N: ` in front of the message.
    """
    fractions = []
    for item in frames:
        with naming(f"frame {item.frame}"):
            pose, _ = fit_wheel_pose(item.loops, model, cam)
            fractions.append(0.0 if item.chord is None
                             else deflected_volume_fraction(model, pose, cam, item.chord))
    return fractions


def load_wheel_model(path: str | Path) -> WheelModel3D:
    return from_pairs(WheelModel3D, parse_key_value_file(path), path)


def load_camera(path: str | Path) -> CameraIntrinsics:
    return from_pairs(CameraIntrinsics, parse_key_value_file(path), path)
