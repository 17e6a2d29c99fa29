"""Pairing of top-down and bottom-up pose sets via OKS similarity.

Similarity between two camera-centric poses is a confidence-weighted sum of
per-joint OKS kernels; the optimal one-to-one pairing is found with the
Hungarian algorithm (scipy's linear sum assignment).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .camera import CameraIntrinsics, project
from .errors import FrameMismatchError
from .skeleton import Frame, Pose3D, default_oks_sigmas

# Poses collapsed to a point still need a positive OKS scale.
MIN_SCALE_MM = 1.0


def default_tau_match(num_joints: int) -> float:
    """Default pairing threshold: 10% of the all-confident maximum similarity."""
    return 0.1 * num_joints


@dataclass(frozen=True)
class MatchConfig:
    """Parameters controlling pose similarity and assignment.

    The per-pair OKS scale is the square root of the TD pose's axis-aligned
    x-y bounding-box area (the metric-space analog of image-box
    normalization), unless ``fixed_scale_mm`` pins it.  ``tau_match`` is
    the minimum similarity for a valid pair; pairs below it are demoted to
    unmatched.  ``distance_mode`` selects 3D mm distances (default) or
    projected 2D pixel distances (requires ``camera``).
    """

    fixed_scale_mm: float | None = None
    tau_match: float = 1.5
    distance_mode: str = "3d"
    camera: CameraIntrinsics | None = None

    def __post_init__(self):
        if self.fixed_scale_mm is not None and self.fixed_scale_mm <= 0:
            raise ValueError("fixed_scale_mm must be positive")
        if self.tau_match < 0:
            raise ValueError("tau_match must be non-negative")
        if self.distance_mode not in ("3d", "2d"):
            raise ValueError("distance_mode must be '3d' or '2d'")
        if self.distance_mode == "2d" and self.camera is None:
            raise ValueError("distance_mode '2d' requires a camera")


@dataclass(frozen=True)
class MatchResult:
    """Outcome of assigning one TD pose set against one BU pose set."""

    pairs: tuple[tuple[int, int, float], ...]  # (td_index, bu_index, similarity)
    unmatched_td: tuple[int, ...]
    unmatched_bu: tuple[int, ...]

    @property
    def total_similarity(self) -> float:
        total = 0.0
        for _, _, sim in self.pairs:
            total += sim
        return total


def oks(joint_a, joint_b, s: float, sigma: float) -> float:
    """Object keypoint similarity: exp(-d^2 / (2 s^2 sigma^2))."""
    if s <= 0 or sigma <= 0:
        raise ValueError("s and sigma must be positive")
    a = np.asarray(joint_a, dtype=np.float64)
    b = np.asarray(joint_b, dtype=np.float64)
    d2 = float(np.sum((a - b) ** 2))
    return float(np.exp(-d2 / (2.0 * s * s * sigma * sigma)))


def pair_scale_mm(p_td: Pose3D, cfg: MatchConfig) -> float:
    """OKS scale for a pose pair, from the TD pose's x-y extent."""
    if cfg.fixed_scale_mm is not None:
        return cfg.fixed_scale_mm
    ext = p_td.joints.max(axis=0) - p_td.joints.min(axis=0)
    area = ext[0] * ext[1]
    return max(float(np.sqrt(max(area, 0.0))), MIN_SCALE_MM)


def _joint_positions(pose: Pose3D, cfg: MatchConfig) -> np.ndarray:
    if cfg.distance_mode == "2d":
        return project(pose.joints, cfg.camera)
    return pose.joints


def pose_similarity(p_bu: Pose3D, p_td: Pose3D, cfg: MatchConfig,
                    sigma: np.ndarray | None = None) -> float:
    """Confidence-weighted sum over joints of OKS between two poses.

    Sim = sum_k min(c_bu[k], c_td[k]) * exp(-d_k^2 / (2 s^2 sigma_k^2)).
    ``sigma`` holds the per-joint OKS sigmas (a skeleton's ``oks_sigma``);
    it defaults to ``default_oks_sigmas`` of the joint count.
    """
    if p_bu.frame is not Frame.CAMERA_CENTRIC or p_td.frame is not Frame.CAMERA_CENTRIC:
        raise FrameMismatchError("pose similarity is defined on camera-centric poses")
    if p_bu.num_joints != p_td.num_joints:
        raise ValueError("poses must share one skeleton")
    k = p_td.num_joints
    sigma = default_oks_sigmas(k) if sigma is None else np.asarray(sigma)
    if sigma.shape != (k,):
        raise ValueError(f"sigma must have shape ({k},)")
    s = pair_scale_mm(p_td, cfg)
    a = _joint_positions(p_bu, cfg)
    b = _joint_positions(p_td, cfg)
    d2 = np.sum((a - b) ** 2, axis=-1)
    kern = np.exp(-d2 / (2.0 * s * s * sigma * sigma))
    w = np.minimum(p_bu.conf, p_td.conf)
    return float(np.sum(w * kern))


def similarity_matrix(td: list[Pose3D], bu: list[Pose3D], cfg: MatchConfig,
                      sigma: np.ndarray | None = None) -> np.ndarray:
    """(len(td), len(bu)) matrix of pose similarities."""
    sim = np.zeros((len(td), len(bu)), dtype=np.float64)
    for i, p_td in enumerate(td):
        for j, p_bu in enumerate(bu):
            sim[i, j] = pose_similarity(p_bu, p_td, cfg, sigma)
    return sim


def match_sets(td: list[Pose3D], bu: list[Pose3D], cfg: MatchConfig,
               sigma: np.ndarray | None = None) -> MatchResult:
    """Optimal assignment between the TD and BU pose sets.

    Maximizes total similarity via the Hungarian algorithm, then demotes
    pairs whose similarity falls below ``cfg.tau_match``.  Ties are broken
    toward the lexicographically smallest (td_index, bu_index) pairing by
    the deterministic solver ordering.
    """
    if not td or not bu:
        return MatchResult(
            pairs=(),
            unmatched_td=tuple(range(len(td))),
            unmatched_bu=tuple(range(len(bu))),
        )
    sim = similarity_matrix(td, bu, cfg, sigma)
    rows, cols = linear_sum_assignment(-sim)
    pairs = []
    matched_td, matched_bu = set(), set()
    for i, j in sorted(zip(rows.tolist(), cols.tolist())):
        if sim[i, j] >= cfg.tau_match:
            pairs.append((i, j, float(sim[i, j])))
            matched_td.add(i)
            matched_bu.add(j)
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_td=tuple(i for i in range(len(td)) if i not in matched_td),
        unmatched_bu=tuple(j for j in range(len(bu)) if j not in matched_bu),
    )
