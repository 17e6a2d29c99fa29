"""Integration of matched TD/BU pose pairs into final camera-centric poses.

Ships three closed-form strategies (hard, linear, fixed-weight) plus a
pluggable integrator hook, the pairwise plausibility composition and its
training loss, the pair-perturbation operator used to train integrators, and
deterministic geometric stand-ins for the learned plausibility scorers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ScorerContractError
from .matching import MatchResult
from .skeleton import (
    Frame,
    Pose3D,
    SkeletonSpec,
    bone_lengths_of,
    poses_from_stack,
    require_camera_centric,
    rest_pose,
    stack_poses,
    to_person_centric,
    vector_lengths,
)

Integrator = Callable[[Pose3D, Pose3D], Pose3D]


@dataclass(frozen=True)
class FusionStrategy:
    """How a matched TD/BU pose pair is combined.

    Variants: ``hard`` keeps the TD person-centric pose and re-roots it at
    the BU root depth; ``linear`` blends each joint by confidence;
    ``weighted`` blends with a fixed coefficient ``alpha`` on the TD side;
    ``pluggable`` delegates to an arbitrary integrator callable.
    """

    variant: str = "linear"
    alpha: float = 0.5
    integrator: Integrator | None = None

    def __post_init__(self):
        if self.variant not in ("hard", "linear", "weighted", "pluggable"):
            raise ValueError(f"unknown fusion variant {self.variant!r}")
        if self.variant == "weighted" and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.variant == "pluggable" and self.integrator is None:
            raise ValueError("pluggable strategy requires an integrator")

    @classmethod
    def hard(cls) -> "FusionStrategy":
        return cls(variant="hard")

    @classmethod
    def linear(cls) -> "FusionStrategy":
        return cls(variant="linear")

    @classmethod
    def weighted(cls, alpha: float) -> "FusionStrategy":
        return cls(variant="weighted", alpha=alpha)

    @classmethod
    def pluggable(cls, integrator: Integrator) -> "FusionStrategy":
        return cls(variant="pluggable", integrator=integrator)


def fuse_pair(p_td: Pose3D, p_bu: Pose3D, strategy: FusionStrategy,
              skel: SkeletonSpec) -> Pose3D:
    """Combine one matched TD/BU pair into a single camera-centric pose: the
    one-pair case of ``fuse_frame``."""
    pair = MatchResult(pairs=((0, 0, 0.0),), unmatched_td=(), unmatched_bu=())
    return fuse_frame(pair, [p_td], [p_bu], strategy, skel)[0]


def _fuse_stacks(td_joints: np.ndarray, td_conf: np.ndarray, bu_joints: np.ndarray,
                 bu_conf: np.ndarray, strategy: FusionStrategy,
                 root_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form fusion of n pairs at once: (n, K, 3) joints and (n, K)
    confidences per side.  Every output entry is computed from its own
    pair's entries alone, as for a lone pair."""
    if strategy.variant == "hard":
        # TD relative pose, root x/y from TD, root depth from BU.
        td_root = td_joints[:, root_index:root_index + 1]
        new_root = np.concatenate(
            [td_root[..., :2], bu_joints[:, root_index:root_index + 1, 2:]], axis=-1)
        joints = td_joints - td_root + new_root
    elif strategy.variant == "linear":
        w_td = td_conf[..., None]
        w_bu = bu_conf[..., None]
        denom = w_td + w_bu
        # Zero-confidence joints on both sides fall back to the pose with
        # higher overall confidence (ties go to TD).
        td_first = np.mean(td_conf, axis=-1) >= np.mean(bu_conf, axis=-1)
        fallback = np.where(td_first[:, None, None], td_joints, bu_joints)
        joints = np.where(
            denom > 0.0,
            (w_td * td_joints + w_bu * bu_joints) / np.where(denom > 0.0, denom, 1.0),
            fallback,
        )
    else:  # weighted
        a = strategy.alpha
        joints = a * td_joints + (1.0 - a) * bu_joints
    return joints, np.maximum(td_conf, bu_conf)


def fuse_frame(match: MatchResult, td: list[Pose3D], bu: list[Pose3D],
               strategy: FusionStrategy, skel: SkeletonSpec) -> list[Pose3D]:
    """Fuse matched pairs and pass unmatched poses through unchanged.

    Output order, owned by ``MatchResult.in_fused_order``: fused pairs (by
    td index), unmatched TD, unmatched BU.
    The closed-form variants fuse all pairs in one broadcast and take the
    per-joint maximum of each pair's confidences; a pluggable integrator
    runs once per pair and its pose is kept as it is.  The paired poses
    must be camera-centric and have the skeleton's joint count.
    """
    for i, j, _ in match.pairs:
        if not (0 <= i < len(td) and 0 <= j < len(bu)):
            raise IndexError(f"match pair ({i}, {j}) out of range")
    for i in match.unmatched_td:
        if not 0 <= i < len(td):
            raise IndexError(f"unmatched td index {i} out of range")
    for j in match.unmatched_bu:
        if not 0 <= j < len(bu):
            raise IndexError(f"unmatched bu index {j} out of range")
    td_paired = [td[i] for i, _, _ in match.pairs]
    bu_paired = [bu[j] for _, j, _ in match.pairs]
    require_camera_centric(*td_paired, *bu_paired)
    joints, conf = stack_poses([*td_paired, *bu_paired], (skel.num_joints, 3))
    if strategy.variant == "pluggable":
        fused = [strategy.integrator(a, b) for a, b in zip(td_paired, bu_paired)]
    else:
        n = len(td_paired)
        fused = poses_from_stack(
            *_fuse_stacks(joints[:n], conf[:n], joints[n:], conf[n:], strategy, skel.root_index),
            Frame.CAMERA_CENTRIC)
    return match.in_fused_order(fused, td, bu)


@dataclass(frozen=True)
class PlausibilityScorers:
    """Plausibility callbacks: ``d1`` scores one person-centric pose,
    ``d2`` scores a camera-centric pose pair.  Both map into (0, 1)."""

    d1: Callable[[Pose3D], float]
    d2: Callable[[Pose3D, Pose3D], float]


def _checked_score(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ScorerContractError(f"{name} returned {value}, outside (0, 1)")
    return value


def discriminator_score(pa: Pose3D, pb: Pose3D, scorers: PlausibilityScorers,
                        skel: SkeletonSpec) -> float:
    """Pairwise plausibility: 0.25*(D1(a) + D1(b)) + 0.5*D2(a, b).

    D1 sees the person-centric reduction of each pose; D2 sees the raw
    camera-centric pair.  The result stays inside (0, 1).
    """
    require_camera_centric(pa, pb)
    pa_pc, _ = to_person_centric(pa, skel)
    pb_pc, _ = to_person_centric(pb, skel)
    d1a = _checked_score(scorers.d1(pa_pc), "d1")
    d1b = _checked_score(scorers.d1(pb_pc), "d1")
    d2 = _checked_score(scorers.d2(pa, pb), "d2")
    return 0.25 * (d1a + d1b) + 0.5 * d2


def discriminator_loss(c_real: float, c_fake: float) -> float:
    """Adversarial objective log(c_real) + log(1 - c_fake); always <= 0."""
    if not (0.0 < c_real < 1.0 and 0.0 < c_fake < 1.0):
        raise DomainError("discriminator scores must lie strictly inside (0, 1)")
    return math.log(c_real) + math.log(1.0 - c_fake)


def corrupt_pair(pair: tuple[Pose3D, Pose3D], seed: int, mask_rate: float,
                 shift_sigma_mm: float, drop_rate: float) -> tuple[Pose3D, Pose3D]:
    """Pair-perturbation operator for integrator training.

    Joints are masked (confidence zeroed) with probability ``mask_rate``,
    every joint is shifted by Gaussian noise of the given sigma, and with
    probability ``drop_rate`` one pose of the pair is zeroed entirely to
    simulate an unpaired detection.  Deterministic for a fixed seed.
    """
    for rate in (mask_rate, drop_rate):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rates must be within [0, 1]")
    # the comparisons are False for NaN, so NaN fails them too
    if not 0 <= shift_sigma_mm < math.inf:
        raise ValueError("shift_sigma_mm must be finite and non-negative")
    rng = np.random.default_rng(seed)
    k = pair[0].num_joints
    masks = rng.random((2, k)) < mask_rate
    shifts = shift_sigma_mm * rng.standard_normal((2, k, 3))
    do_drop = rng.random() < drop_rate
    drop_side = int(rng.integers(0, 2))

    out = []
    for side, pose in enumerate(pair):
        joints = pose.joints + shifts[side]
        conf = np.where(masks[side], 0.0, pose.conf)
        if do_drop and side == drop_side:
            joints = np.zeros_like(joints)
            conf = np.zeros_like(conf)
        out.append(Pose3D(joints=joints, conf=conf, frame=pose.frame))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# Reference geometric plausibility scorers.  Deterministic stand-ins that
# keep the composition formula and loss testable; learned scorers can be
# plugged in through the same PlausibilityScorers interface.
# ---------------------------------------------------------------------------

def _sigmoid(x: float | np.ndarray):
    return 1.0 / (1.0 + np.exp(-x))


# Hinge joints whose interior angle should stay clearly away from full fold.
_HINGE_TRIPLES = (
    ("left_shoulder", "left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow", "right_wrist"),
    ("left_hip", "left_knee", "left_ankle"),
    ("right_hip", "right_knee", "right_ankle"),
)


def single_pose_scorer(skel: SkeletonSpec, ref_lengths: np.ndarray | None = None,
                       ratio_band: tuple[float, float] = (0.7, 1.3),
                       ratio_softness: float = 0.08) -> Callable[[Pose3D], float]:
    """Geometric D1: bone-length ratios inside a tolerance band and open
    hinge angles at elbows/knees, combined as a product of sigmoids."""
    if ref_lengths is None:
        ref_lengths = bone_lengths_of(rest_pose(), skel)
    ref_lengths = np.asarray(ref_lengths, dtype=np.float64)
    lo, hi = ratio_band
    # (n_hinges, 3) joint indices: outer, hinge, outer
    triples = np.array([[skel.joint_names.index(n) for n in names] for names in _HINGE_TRIPLES
                        if set(names) <= set(skel.joint_names)], dtype=np.intp).reshape(-1, 3)

    def d1(pose: Pose3D) -> float:
        ratios = bone_lengths_of(pose.joints, skel) / np.maximum(ref_lengths, 1e-9)
        band = _sigmoid((ratios - lo) / ratio_softness) * _sigmoid((hi - ratios) / ratio_softness)
        # (n_hinges, 2, 3): each hinge's two sides, from the hinge joint out
        sides = pose.joints[triples[:, [0, 2]]] - pose.joints[triples[:, 1:2]]
        n1, n2 = vector_lengths(sides).T
        # a hinge with a zero-length side has no angle and scores 0.5
        folded = (n1 < 1e-9) | (n2 < 1e-9)
        cosang = np.clip(np.sum(sides[:, 0] * sides[:, 1], axis=-1)
                         / np.where(folded, 1.0, n1 * n2), -1.0, 1.0)
        factors = np.where(folded, 0.5, _sigmoid((np.degrees(np.arccos(cosang)) - 3.0) / 4.0))
        # one factor after another, left to right, as a running product
        score = math.prod(factors.tolist(), start=float(np.prod(band)))
        # Keep strictly inside (0, 1).
        return min(max(score, 1e-300), 1.0 - 1e-12)

    return d1


def _clamped_ratio(num: np.ndarray, den: np.ndarray, otherwise) -> np.ndarray:
    """num / den clipped to [0, 1] where den > 1e-12, else ``otherwise``."""
    ok = den > 1e-12
    return np.where(ok, np.clip(num / np.where(ok, den, 1.0), 0.0, 1.0), otherwise)


def pair_pose_scorer(skel: SkeletonSpec, capsule_radius_mm: float = 50.0,
                     clearance_scale_mm: float = 100.0
                     ) -> Callable[[Pose3D, Pose3D], float]:
    """Geometric D2: sigmoid of the signed clearance between the two poses'
    bone capsules, over all bone pairs at once.  Interpenetration drives
    the score toward 0."""
    parents, children = skel.bone_array.T

    def d2(pa: Pose3D, pb: Pose3D) -> float:
        # pa's bones along axis 0, pb's along axis 1
        p0 = pa.joints[parents, None]
        u = pa.joints[children, None] - p0
        q0 = pb.joints[None, parents]
        v = pb.joints[None, children] - q0
        w0 = p0 - q0
        a = np.sum(u * u, axis=-1)
        b = np.sum(u * v, axis=-1)
        c = np.sum(v * v, axis=-1)
        d = np.sum(u * w0, axis=-1)
        e = np.sum(v * w0, axis=-1)
        # closest points p0 + s u, q0 + t v of two segments (Lumelsky 1985),
        # s and t clamped to [0, 1], then refined once from each other;
        # near-parallel bones (a c - b^2 ~ 0) start from s = t = 0
        s = _clamped_ratio(b * e - c * d, a * c - b * b, 0.0)
        t = _clamped_ratio(a * e - b * d, a * c - b * b, 0.0)
        t = _clamped_ratio(b * s + e, c, t)
        s = _clamped_ratio(b * t - d, a, s)
        dist = vector_lengths((p0 + s[..., None] * u) - (q0 + t[..., None] * v))
        min_clearance = np.min(dist, initial=np.inf) - 2.0 * capsule_radius_mm
        score = float(_sigmoid(min_clearance / clearance_scale_mm))
        return min(max(score, 1e-300), 1.0 - 1e-12)

    return d2


def reference_scorers(skel: SkeletonSpec, **kwargs) -> PlausibilityScorers:
    """Bundle the geometric D1/D2 stand-ins for the default pipeline."""
    return PlausibilityScorers(
        d1=single_pose_scorer(skel),
        d2=pair_pose_scorer(skel, **kwargs),
    )
