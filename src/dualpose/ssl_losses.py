"""Consistency losses and sample weighting for semi-supervised fine-tuning.

The networks being fine-tuned are abstract callbacks here: a ``Lifter`` maps
a 2D pose plus camera intrinsics back to a camera-centric 3D pose.  Oracle
and perturbed lifters are provided for testing the loss machinery.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .camera import CameraIntrinsics, back_project, project_pose, rotate_about_y
from .skeleton import Frame, Pose2D, Pose3D, SkeletonSpec, require_camera_centric
from .tto import reprojection_loss_grad

# (Pose2D, intrinsics) -> camera-centric Pose3D; must be deterministic.
Lifter = Callable[[Pose2D, CameraIntrinsics], Pose3D]


def reprojection_loss(p3d: Pose3D, p2d: Pose2D, cam: CameraIntrinsics) -> float:
    """Confidence-weighted mean squared pixel error of the projected pose.

    (1/K) * sum_k conf_k * ||project(X_k) - x_k||^2, using the 2D pose's
    confidences as weights: the one-frame case of the TTO reprojection term.
    """
    require_camera_centric(p3d)
    if p3d.num_joints != p2d.num_joints:
        raise ValueError("2D and 3D poses must share one skeleton")
    loss, _ = reprojection_loss_grad(p3d.joints[None], p2d.joints[None], p2d.conf[None], cam)
    return loss


def multi_perspective_loss(p3d_pseudo: Pose3D, cam: CameraIntrinsics,
                           angle: float, lifter: Lifter,
                           skel: SkeletonSpec) -> float:
    """Self-consistency of a 3D pose under a virtual viewpoint change.

    Rotates the pose about the vertical axis through its root, projects the
    rotated pose to 2D, re-lifts it with ``lifter``, and returns the mean
    per-joint squared distance (mm^2) between re-lifted and rotated poses.
    """
    require_camera_centric(p3d_pseudo)
    pivot = p3d_pseudo.joints[skel.root_index]
    rotated = rotate_about_y(p3d_pseudo, angle, pivot)
    relifted = lifter(project_pose(rotated, cam), cam)
    diff = relifted.joints - rotated.joints
    return float(np.mean(np.sum(diff * diff, axis=-1)))


@dataclass(frozen=True)
class SslWeightState:
    """Per-sample consistency errors for one batch at epoch ``r``."""

    r: int
    e_rep: np.ndarray  # (N,) non-negative
    e_mp: np.ndarray   # (N,) non-negative

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("epoch counter r must be >= 1")
        e_rep = np.asarray(self.e_rep, dtype=np.float64)
        e_mp = np.asarray(self.e_mp, dtype=np.float64)
        if e_rep.ndim != 1 or e_rep.shape != e_mp.shape:
            raise ValueError("e_rep and e_mp must be matching 1-D arrays")
        if e_rep.size == 0:
            raise ValueError("batch must be non-empty")
        # NaN fails both comparisons and +inf the second
        if not all(((e >= 0.0) & (e < np.inf)).all() for e in (e_rep, e_mp)):
            raise ValueError("errors must be finite and non-negative")
        object.__setattr__(self, "e_rep", e_rep)
        object.__setattr__(self, "e_mp", e_mp)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


def ssl_weights(state: SslWeightState) -> np.ndarray:
    """Per-sample training weights from the two consistency errors.

    w_i = softmax_i(-E_rep/r) + softmax_i(-E_mp/r); softmaxes run over the
    batch and the errors are negated so low-error (easy) samples get high
    weight early, with r annealing toward the uniform 2/N limit.  The
    weights always sum to 2.
    """
    r = float(state.r)
    return _softmax(-state.e_rep / r) + _softmax(-state.e_mp / r)


def ssl_total(l_rep: float, l_mp: float, l_dis: float, w: float) -> float:
    """Combined semi-supervised objective: w*(L_rep + L_mp) + L_dis."""
    return w * (l_rep + l_mp) + l_dis


def oracle_lifter(reference: Pose3D) -> Lifter:
    """Exact geometric inverse for a known pose: back-projects each 2D joint
    at the reference pose's true depth.  Useful as a consistency oracle."""
    depths = reference.joints[:, 2].copy()

    def lift(p2d: Pose2D, cam: CameraIntrinsics) -> Pose3D:
        joints = back_project(p2d.joints, depths, cam)
        return Pose3D(joints=joints, conf=p2d.conf, frame=Frame.CAMERA_CENTRIC)

    return lift


def offset_lifter(base: Lifter, offset_mm) -> Lifter:
    """Wrap a lifter with a fixed 3D offset on every joint (test helper)."""
    offset = np.asarray(offset_mm, dtype=np.float64).reshape(3)

    def lift(p2d: Pose2D, cam: CameraIntrinsics) -> Pose3D:
        pose = base(p2d, cam)
        return Pose3D(joints=pose.joints + offset, conf=pose.conf, frame=pose.frame)

    return lift
