"""Wheel-deflection estimation: reprojection, pose fit, chord geometry, hull."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, least_squares
from scipy.spatial import ConvexHull, QhullError
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
    frame: int
    volume: float  # m^3
    fraction: float  # of the undeformed cylinder volume
    implausible: bool = False  # chord cut more than half the wheel


def _circle_points_3d(radius: float, z_offset: float, phi: np.ndarray) -> np.ndarray:
    return np.stack(
        [radius * np.cos(phi), radius * np.sin(phi), np.full_like(phi, z_offset)],
        axis=-1,
    )


def _project(points_3d: np.ndarray, pose: WheelPose, cam: CameraIntrinsics) -> np.ndarray:
    cam_pts = points_3d @ pose.rotation.T + pose.translation
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


_INV_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def _signed_curve_distances(
    observed: np.ndarray,
    radius: np.ndarray,
    z_offset: np.ndarray,
    pose: WheelPose,
    cam: CameraIntrinsics,
    coarse: int = 64,
    refine_iters: int = 36,
) -> np.ndarray:
    """Signed distance from image points to their projected circle curves.

    radius/z_offset are per-point, so loops on several model circles can be
    processed in one vectorized pass. Per point, the closest curve
    parameter is found by a coarse scan followed by golden-section
    refinement; the sign is positive outside the curve (relative to the
    projected loop centroid).
    """
    phi_grid = np.linspace(0.0, 2.0 * math.pi, coarse, endpoint=False)

    def at(phi):
        x = radius * np.cos(phi)
        pts = np.stack(
            [x, radius * np.sin(phi), np.broadcast_to(z_offset, x.shape)], axis=-1
        )
        return _project(pts, pose, cam)

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

    loops are [inboard, outboard, hub] image point sets; residuals are
    signed point-to-projected-curve distances. The model circles are
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
    radius = np.concatenate(
        [
            np.full(len(loop), circle[0])
            for loop, circle in zip(loops, model.circles)
        ]
    )
    z_offset = np.concatenate(
        [
            np.full(len(loop), circle[1])
            for loop, circle in zip(loops, model.circles)
        ]
    )

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


def chord_circle_intersections(
    center: tuple[float, float],
    radius: float,
    p1: tuple[float, float],
    p2: tuple[float, float],
    tangent_rel_tol: float = 1e-12,
) -> list[tuple[float, float]]:
    """Intersections of the infinite line through p1, p2 with a circle.

    Tangency within the relative tolerance is reported as a single point.
    """
    if p1 == p2:
        raise GeometryError("degenerate chord: identical endpoints")
    cx, cy = center
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length
    rx, ry = p1[0] - cx, p1[1] - cy
    t0 = -(rx * ux + ry * uy)  # foot of perpendicular along the line
    fx, fy = rx + t0 * ux, ry + t0 * uy
    h = math.hypot(fx, fy)
    if abs(h - radius) <= tangent_rel_tol * radius:
        return [(cx + fx, cy + fy)]
    if h > radius:
        return []
    half = math.sqrt(radius * radius - h * h)
    return [
        (cx + fx - half * ux, cy + fy - half * uy),
        (cx + fx + half * ux, cy + fy + half * uy),
    ]


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


def deflected_volume_fraction(
    model: WheelModel3D,
    pose: WheelPose,
    cam: CameraIntrinsics,
    chord: ChordAnnotation,
    frame: int = 0,
    arc_resolution_deg: float = 1.0,
) -> DeflectionEstimate:
    """Deflected volume fraction from an annotated chord line.

    The chord is back-projected onto the inboard perimeter plane; its two
    circle intersections are mirrored onto the outboard perimeter (equal
    deflection on both sides), both arcs between the intersections are
    sampled at the given angular resolution, and the convex hull volume of
    the point set is taken as the deflected volume. A chord that misses
    the circle yields fraction 0; a fraction above one half is flagged
    implausible.
    """
    inboard_z = -model.width / 2.0
    line = _chord_plane_line(chord, pose, cam, inboard_z)
    if line is None:
        return DeflectionEstimate(frame, 0.0, 0.0)
    a, b, c = line
    norm = math.hypot(a, b)
    p0 = (-c * a / (norm * norm), -c * b / (norm * norm))
    p1 = (p0[0] - b, p0[1] + a)
    hits = chord_circle_intersections((0.0, 0.0), model.radius, p0, p1)
    if len(hits) < 2:
        return DeflectionEstimate(frame, 0.0, 0.0)

    phi1 = math.atan2(hits[0][1], hits[0][0])
    phi2 = math.atan2(hits[1][1], hits[1][0])
    # walk the arc on the side of the line away from the circle center
    center_sign = math.copysign(1.0, c)
    span = (phi2 - phi1) % (2.0 * math.pi)
    mid = phi1 + span / 2.0
    mx, my = model.radius * math.cos(mid), model.radius * math.sin(mid)
    if (a * mx + b * my + c) * center_sign > 0:
        phi1, phi2 = phi2, phi1
        span = (phi2 - phi1) % (2.0 * math.pi)
    n_arc = max(2, int(math.ceil(span / math.radians(arc_resolution_deg))) + 1)
    phi = phi1 + span * np.linspace(0.0, 1.0, n_arc)
    arc = np.stack(
        [model.radius * np.cos(phi), model.radius * np.sin(phi)], axis=-1
    )
    planar = np.vstack([arc, hits])
    points = np.vstack(
        [
            np.column_stack([planar, np.full(len(planar), inboard_z)]),
            np.column_stack([planar, np.full(len(planar), -inboard_z)]),
        ]
    )
    try:
        volume = float(ConvexHull(points).volume)
    except QhullError:
        return DeflectionEstimate(frame, 0.0, 0.0)
    fraction = volume / model.volume
    return DeflectionEstimate(frame, volume, fraction, implausible=fraction > 0.5)


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
                est.implausible,
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


def _parse_loop(text: str) -> np.ndarray:
    points = []
    for pair in text.split(";"):
        u, v = pair.split(":")
        points.append((float(u), float(v)))
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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(ANNOTATION_HEADER)
        for item in frames:
            chord = (
                ["", "", "", ""]
                if item.chord is None
                else [
                    f"{c:.6f}"
                    for c in (*item.chord.p1, *item.chord.p2)
                ]
            )
            writer.writerow(
                [
                    item.frame,
                    item.cam_id,
                    *(_serialize_loop(loop) for loop in item.loops),
                    *chord,
                ]
            )


def read_annotations_csv(path: str | Path) -> list[AnnotationFrame]:
    frames = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ANNOTATION_HEADER:
            raise GeometryError(f"{path}: unexpected annotation header")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(ANNOTATION_HEADER):
                raise GeometryError(f"{path}:{lineno}: wrong column count")
            loops = [_parse_loop(cell) for cell in row[2:5]]
            if any(cell.strip() for cell in row[5:9]):
                chord = ChordAnnotation(
                    (float(row[5]), float(row[6])), (float(row[7]), float(row[8]))
                )
            else:
                chord = None
            frames.append(AnnotationFrame(int(row[0]), row[1], loops, chord))
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
    arc_resolution_deg: float = 1.0,
) -> list[DeflectionEstimate]:
    """Full per-frame pipeline: pose fit then deflected volume fraction.

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
                deflected_volume_fraction(
                    model, pose, cam, item.chord, item.frame, arc_resolution_deg
                )
            )
    return estimates


def load_wheel_model(path: str | Path) -> WheelModel3D:
    from rovermotion.config import parse_key_value_file

    pairs = parse_key_value_file(path)
    known = {"radius", "width", "hub_radius"}
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise GeometryError(f"unknown wheel model keys: {', '.join(unknown)}")
    return WheelModel3D(**{k: float(v) for k, v in pairs.items()})


def load_camera(path: str | Path) -> CameraIntrinsics:
    from rovermotion.config import parse_key_value_file

    pairs = parse_key_value_file(path)
    known = {"fx", "fy", "cx", "cy", "width", "height"}
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise GeometryError(f"unknown camera keys: {', '.join(unknown)}")
    values = {k: float(v) for k, v in pairs.items()}
    values["width"] = int(values["width"])
    values["height"] = int(values["height"])
    return CameraIntrinsics(**values)
