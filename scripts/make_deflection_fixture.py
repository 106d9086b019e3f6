"""Generate the bundled synthetic wheel-deflection fixture.

Writes model.txt, camera.txt, annotations.csv, and oracle.csv into
src/rovermotion/data/deflection/, or into the directory given to main().
The fraction series mimics an obstacle-clearing run: a stable window, a
dip, an airborne window with no chord, an impact peak, and a return to the
stable band.
"""
from pathlib import Path

import numpy as np

from rovermotion.config import csv_text, write_output
from rovermotion.deflection import (
    ANNOTATION_HEADER,
    AnnotationFrame,
    CameraIntrinsics,
    WheelModel3D,
    WheelPose,
    depth_for_fraction,
    make_chord_annotation,
    project_wheel,
)

OUT = Path(__file__).resolve().parents[1] / "src" / "rovermotion" / "data" / "deflection"

MODEL = WheelModel3D(radius=0.15, width=0.12, hub_radius=0.05)
CAM = CameraIntrinsics(fx=800.0, fy=800.0, cx=640.0, cy=360.0, width=1280, height=720)

# target deflected-volume fractions; None = wheel airborne (no chord)
TARGETS = (
    [0.042, 0.044, 0.040, 0.038, 0.047, 0.043, 0.0415, 0.039]  # stable on obstacle
    + [0.036, 0.035]  # leaving the obstacle
    + [None, None, None, None]  # airborne
    + [0.060, 0.052, 0.047, 0.044]  # impact peak and recovery
    + [0.041, 0.043, 0.040, 0.038, 0.042, 0.044, 0.039, 0.041, 0.040, 0.042,
       0.041, 0.040]  # re-balanced stable window
)


CAM_ID = "wheel_a"  # the annotation file's cam_id column, which no command reads


def _serialize_loop(loop: np.ndarray) -> str:
    return ";".join(f"{u:.6f}:{v:.6f}" for u, v in loop)


def write_annotations_csv(path: str | Path, frames: list[AnnotationFrame]) -> None:
    """`frames` as an annotation file that read_annotations_csv reads back."""
    rows = []
    for item in frames:
        chord = ([""] * 4 if item.chord is None
                 else [f"{c:.6f}" for c in (*item.chord.p1, *item.chord.p2)])
        rows.append([item.frame, CAM_ID, *map(_serialize_loop, item.loops), *chord])
    write_output(path, csv_text(ANNOTATION_HEADER, rows))


def frame_pose(index: int) -> WheelPose:
    rotvec = np.array(
        [
            0.12 + 0.02 * np.sin(0.7 * index),
            -0.18 + 0.03 * np.cos(0.5 * index),
            0.08 + 0.01 * np.sin(0.3 * index),
        ]
    )
    translation = np.array(
        [0.06 + 0.002 * np.sin(0.4 * index), 0.03, 0.85 + 0.01 * np.cos(0.2 * index)]
    )
    return WheelPose.from_rotvec(rotvec, translation)


def main(out: Path = OUT):
    write_output(
        out / "model.txt",
        f"radius = {MODEL.radius}\nwidth = {MODEL.width}\nhub_radius = {MODEL.hub_radius}\n",
    )
    write_output(
        out / "camera.txt",
        f"fx = {CAM.fx}\nfy = {CAM.fy}\ncx = {CAM.cx}\ncy = {CAM.cy}\n"
        f"width = {CAM.width}\nheight = {CAM.height}\n",
    )
    frames = []
    oracle_rows = []
    for index, target in enumerate(TARGETS):
        pose = frame_pose(index)
        loops = project_wheel(MODEL, pose, CAM, samples_per_circle=16)
        if target is None:
            chord = None
            oracle_rows.append([index, 0.0])
        else:
            chord = make_chord_annotation(
                MODEL, pose, CAM, depth_for_fraction(target)
            )
            oracle_rows.append([index, target])
        frames.append(AnnotationFrame(index, loops, chord))
    write_annotations_csv(out / "annotations.csv", frames)
    write_output(out / "oracle.csv", csv_text(["frame", "fraction"], oracle_rows))
    print(f"wrote fixture ({len(frames)} frames) to {out}")


if __name__ == "__main__":
    main()
