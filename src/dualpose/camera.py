"""Ideal pinhole projection, back-projection, and vertical-axis rotation."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError
from .skeleton import Pose2D, Pose3D


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        # the comparisons are False for NaN, so NaN fails them too
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be finite and positive")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError("the principal point must be finite")


def checked_depths(z: np.ndarray) -> np.ndarray:
    """The depths ``z``, after checking that every one is positive.

    The package's one z <= 0 check: raises BehindCameraError for a depth at
    or behind the camera.
    """
    if np.count_nonzero(z <= 0):
        raise BehindCameraError("a depth is z <= 0, at or behind the camera")
    return z


def project(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Project (..., 3) camera-space mm points to (..., 2) pixel coordinates.

    u = fx * x / z + cx, v = fy * y / z + cy.  Raises BehindCameraError for
    any point with z <= 0.  The result is laid out in memory as the points'
    (x, y) part is: interleaved for C-ordered points, and two contiguous
    planes for a (..., 3) view of coordinate planes.
    """
    points = np.asarray(points, dtype=np.float64)
    z = checked_depths(points[..., 2])
    uv = np.empty_like(points[..., :2])
    uv[..., 0] = cam.fx * points[..., 0] / z + cam.cx
    uv[..., 1] = cam.fy * points[..., 1] / z + cam.cy
    return uv


def back_project(pixels: np.ndarray, depth: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Lift (..., 2) pixel coordinates at the given depth(s) to camera space.

    ``depth`` broadcasts against the pixel batch; all depths must be > 0.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    depth = checked_depths(np.asarray(depth, dtype=np.float64))
    pts = np.empty(np.broadcast_shapes(pixels.shape[:-1], depth.shape) + (3,),
                   dtype=np.float64)
    pts[..., 0] = (pixels[..., 0] - cam.cx) * depth / cam.fx
    pts[..., 1] = (pixels[..., 1] - cam.cy) * depth / cam.fy
    pts[..., 2] = depth
    return pts


def project_pose(pose: Pose3D, cam: CameraIntrinsics) -> Pose2D:
    """Project a camera-centric 3D pose to a 2D pose, keeping confidences."""
    return Pose2D(joints=project(pose.joints, cam), conf=pose.conf)


def rotation_about_y(angle: float) -> np.ndarray:
    """3x3 rotation matrix about the vertical (y) axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotate_about_y(pose: Pose3D, angle: float, pivot) -> Pose3D:
    """Rigidly rotate a pose about the vertical axis through ``pivot`` (mm).

    Bone lengths are preserved; the frame tag is unchanged.
    """
    if not np.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    return Pose3D(joints=rotate_points_about_y(pose.joints, angle, pivot), conf=pose.conf,
                  frame=pose.frame)


def rotate_points_about_y(points: np.ndarray, angle: float, pivot) -> np.ndarray:
    """Rotate raw (..., 3) points about the vertical axis through ``pivot``."""
    pivot = np.asarray(pivot, dtype=np.float64).reshape(3)
    rot = rotation_about_y(angle)
    return (np.asarray(points, dtype=np.float64) - pivot) @ rot.T + pivot
