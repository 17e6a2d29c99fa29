"""Pairing of top-down and bottom-up pose sets via OKS similarity.

Similarity between two camera-centric poses is a confidence-weighted sum of
per-joint OKS kernels; the optimal one-to-one pairing is found with the
in-package linear sum assignment solver (``assignment``), which returns the
pairs scipy's solver would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import linear_sum_assignment
from .camera import CameraIntrinsics, project
from .skeleton import Pose3D, default_oks_sigmas, require_camera_centric, stack_poses

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
        # the comparisons are False for NaN, so NaN fails them too
        if self.fixed_scale_mm is not None and not 0 < self.fixed_scale_mm < math.inf:
            raise ValueError("fixed_scale_mm must be finite and positive")
        if not 0 <= self.tau_match < math.inf:
            raise ValueError("tau_match must be finite and non-negative")
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


def _oks_kernel(d2, s, sigma):
    """exp(-d^2 / (2 s^2 sigma^2)), elementwise over broadcast arrays."""
    return np.exp(-d2 / (2.0 * s * s * sigma * sigma))


def oks(joint_a, joint_b, s: float, sigma: float) -> float:
    """Object keypoint similarity: exp(-d^2 / (2 s^2 sigma^2))."""
    if not (s > 0 and sigma > 0):
        raise ValueError("s and sigma must be positive")
    a = np.asarray(joint_a, dtype=np.float64)
    b = np.asarray(joint_b, dtype=np.float64)
    d2 = float(np.sum((a - b) ** 2))
    return float(_oks_kernel(d2, s, sigma))


def _pair_scales(td_joints: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    """(P,) OKS scales of (P, K, 3) TD poses, from each pose's x-y extent."""
    if cfg.fixed_scale_mm is not None:
        return np.full(len(td_joints), cfg.fixed_scale_mm, dtype=np.float64)
    ext = td_joints.max(axis=1) - td_joints.min(axis=1)
    area = ext[:, 0] * ext[:, 1]
    return np.maximum(np.sqrt(np.maximum(area, 0.0)), MIN_SCALE_MM)


def _joint_positions(joints: np.ndarray, cfg: MatchConfig) -> np.ndarray:
    if cfg.distance_mode == "2d":
        return project(joints, cfg.camera)
    return joints


def pose_similarity(p_bu: Pose3D, p_td: Pose3D, cfg: MatchConfig,
                    sigma: np.ndarray | None = None) -> float:
    """Similarity of one BU/TD pose pair: the 1x1 ``similarity_matrix``."""
    return float(similarity_matrix([p_td], [p_bu], cfg, sigma)[0, 0])


def similarity_matrix(td: list[Pose3D], bu: list[Pose3D], cfg: MatchConfig,
                      sigma: np.ndarray | None = None) -> np.ndarray:
    """(len(td), len(bu)) matrix of pose similarities, all pairs at once.

    Sim[i, j] = sum_k min(c_bu[k], c_td[k]) * exp(-d_k^2 / (2 s^2 sigma_k^2)),
    a confidence-weighted sum over joints of the OKS between TD pose i and
    BU pose j, with s the OKS scale of TD pose i (``MatchConfig``).
    ``sigma`` holds the per-joint OKS sigmas (a skeleton's ``oks_sigma``);
    it defaults to ``default_oks_sigmas`` of the joint count.
    """
    if not td and not bu:
        return np.zeros((0, 0))
    require_camera_centric(*td, *bu)
    joints, conf = stack_poses([*td, *bu])
    k = joints.shape[1]
    sigma = default_oks_sigmas(k) if sigma is None else np.asarray(sigma)
    if sigma.shape != (k,):
        raise ValueError(f"sigma must have shape ({k},)")
    # Axes (td, bu, joint[, coordinate]).  Each entry's sums run over its own
    # pair's elements in the same order as for a lone pair, so an entry does
    # not depend on the other poses of the sets.
    n = len(td)
    s = _pair_scales(joints[:n], cfg)[:, None, None]
    positions = _joint_positions(joints, cfg)
    d2 = np.sum((positions[None, n:] - positions[:n, None]) ** 2, axis=-1)
    kern = _oks_kernel(d2, s, sigma)
    w = np.minimum(conf[None, n:], conf[:n, None])
    return np.sum(w * kern, axis=-1)


def match_sets(td: list[Pose3D], bu: list[Pose3D], cfg: MatchConfig,
               sigma: np.ndarray | None = None) -> MatchResult:
    """Optimal assignment between the TD and BU pose sets.

    Maximizes total similarity with ``linear_sum_assignment``, then demotes
    pairs whose similarity falls below ``cfg.tau_match``.  Among equally
    good pairings the one returned is deterministic and set by the solver's
    scan order: it is not always the lexicographically smallest, but equal
    similarities everywhere pair TD pose i with BU pose i.
    """
    sim = similarity_matrix(td, bu, cfg, sigma)
    rows, cols = linear_sum_assignment(-sim)
    pairs = []
    matched_td, matched_bu = set(), set()
    for i, j in zip(rows.tolist(), cols.tolist()):  # rows ascending
        if sim[i, j] >= cfg.tau_match:
            pairs.append((i, j, float(sim[i, j])))
            matched_td.add(i)
            matched_bu.add(j)
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_td=tuple(i for i in range(len(td)) if i not in matched_td),
        unmatched_bu=tuple(j for j in range(len(bu)) if j not in matched_bu),
    )
