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

from .errors import DomainError, FrameMismatchError, ScorerContractError
from .matching import MatchResult
from .skeleton import (
    Frame,
    Pose3D,
    SkeletonSpec,
    bone_lengths_of,
    rest_pose,
    to_person_centric,
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


def _require_camera_centric(*poses: Pose3D) -> None:
    for p in poses:
        if p.frame is not Frame.CAMERA_CENTRIC:
            raise FrameMismatchError("fusion operates on camera-centric poses")


def fuse_pair(p_td: Pose3D, p_bu: Pose3D, strategy: FusionStrategy,
              skel: SkeletonSpec) -> Pose3D:
    """Combine one matched TD/BU pair into a single camera-centric pose.

    Output confidences are the per-joint maximum of the two inputs.
    """
    _require_camera_centric(p_td, p_bu)
    if p_td.num_joints != p_bu.num_joints:
        raise ValueError("poses must share one skeleton")
    conf = np.maximum(p_td.conf, p_bu.conf)

    if strategy.variant == "pluggable":
        return strategy.integrator(p_td, p_bu)

    if strategy.variant == "hard":
        # TD relative pose, root x/y from TD, root depth from BU.
        td_root = p_td.joints[skel.root_index]
        bu_root = p_bu.joints[skel.root_index]
        new_root = np.array([td_root[0], td_root[1], bu_root[2]])
        joints = p_td.joints - td_root + new_root
    elif strategy.variant == "linear":
        w_td = p_td.conf[:, None]
        w_bu = p_bu.conf[:, None]
        denom = w_td + w_bu
        # Zero-confidence joints on both sides fall back to the pose with
        # higher overall confidence (ties go to TD).
        fallback = p_td.joints if float(np.mean(p_td.conf)) >= float(np.mean(p_bu.conf)) \
            else p_bu.joints
        blended = np.where(
            denom > 0.0,
            (w_td * p_td.joints + w_bu * p_bu.joints) / np.where(denom > 0.0, denom, 1.0),
            fallback,
        )
        joints = blended
    else:  # weighted
        a = strategy.alpha
        joints = a * p_td.joints + (1.0 - a) * p_bu.joints

    return Pose3D(joints=joints, conf=conf, frame=Frame.CAMERA_CENTRIC)


def fuse_frame(match: MatchResult, td: list[Pose3D], bu: list[Pose3D],
               strategy: FusionStrategy, skel: SkeletonSpec) -> list[Pose3D]:
    """Fuse matched pairs and pass unmatched poses through unchanged.

    Output order: fused pairs (by td index), unmatched TD, unmatched BU.
    """
    out: list[Pose3D] = []
    for i, j, _ in match.pairs:
        if not (0 <= i < len(td) and 0 <= j < len(bu)):
            raise IndexError(f"match pair ({i}, {j}) out of range")
        out.append(fuse_pair(td[i], bu[j], strategy, skel))
    for i in match.unmatched_td:
        if not 0 <= i < len(td):
            raise IndexError(f"unmatched td index {i} out of range")
        out.append(td[i])
    for j in match.unmatched_bu:
        if not 0 <= j < len(bu):
            raise IndexError(f"unmatched bu index {j} out of range")
        out.append(bu[j])
    return out


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
    _require_camera_centric(pa, pb)
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
    if shift_sigma_mm < 0:
        raise ValueError("shift_sigma_mm must be non-negative")
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


def _segment_distance(p0, p1, q0, q1) -> float:
    """Minimum distance between 3D segments [p0, p1] and [q0, q1]."""
    u = p1 - p0
    v = q1 - q0
    w0 = p0 - q0
    a = float(u @ u)
    b = float(u @ v)
    c = float(v @ v)
    d = float(u @ w0)
    e = float(v @ w0)
    denom = a * c - b * b
    if denom > 1e-12:
        s = (b * e - c * d) / denom
        t = (a * e - b * d) / denom
    else:
        s = 0.0
        t = e / c if c > 1e-12 else 0.0
    s = min(max(s, 0.0), 1.0)
    t = min(max(t, 0.0), 1.0)
    # One clamped refinement pass keeps the result a true segment distance.
    if c > 1e-12:
        t = min(max((b * s + e) / c, 0.0), 1.0)
    if a > 1e-12:
        s = min(max((b * t - d) / a, 0.0), 1.0)
    return float(np.linalg.norm((p0 + s * u) - (q0 + t * v)))


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
    name_to_idx = {n: i for i, n in enumerate(skel.joint_names)}
    triples = [
        tuple(name_to_idx[n] for n in names)
        for names in _HINGE_TRIPLES
        if all(n in name_to_idx for n in names)
    ]

    def d1(pose: Pose3D) -> float:
        lengths = bone_lengths_of(pose.joints, skel)
        ratios = lengths / np.maximum(ref_lengths, 1e-9)
        band = _sigmoid((ratios - lo) / ratio_softness) * \
            _sigmoid((hi - ratios) / ratio_softness)
        score = float(np.prod(band))
        for a, b, c in triples:
            v1 = pose.joints[a] - pose.joints[b]
            v2 = pose.joints[c] - pose.joints[b]
            n1 = np.linalg.norm(v1)
            n2 = np.linalg.norm(v2)
            if n1 < 1e-9 or n2 < 1e-9:
                score *= 0.5
                continue
            cosang = np.clip(v1 @ v2 / (n1 * n2), -1.0, 1.0)
            angle_deg = math.degrees(math.acos(cosang))
            score *= float(_sigmoid((angle_deg - 3.0) / 4.0))
        # Keep strictly inside (0, 1).
        return min(max(score, 1e-300), 1.0 - 1e-12)

    return d1


def pair_pose_scorer(skel: SkeletonSpec, capsule_radius_mm: float = 50.0,
                     clearance_scale_mm: float = 100.0
                     ) -> Callable[[Pose3D, Pose3D], float]:
    """Geometric D2: sigmoid of the signed clearance between the two poses'
    bone capsules.  Interpenetration drives the score toward 0."""

    bones = skel.bone_array

    def d2(pa: Pose3D, pb: Pose3D) -> float:
        min_clearance = np.inf
        for pi, ci in bones:
            for pj, cj in bones:
                dist = _segment_distance(
                    pa.joints[pi], pa.joints[ci],
                    pb.joints[pj], pb.joints[cj],
                )
                clearance = dist - 2.0 * capsule_radius_mm
                if clearance < min_clearance:
                    min_clearance = clearance
        score = float(_sigmoid(min_clearance / clearance_scale_mm))
        return min(max(score, 1e-300), 1.0 - 1e-12)

    return d2


def reference_scorers(skel: SkeletonSpec, **kwargs) -> PlausibilityScorers:
    """Bundle the geometric D1/D2 stand-ins for the default pipeline."""
    return PlausibilityScorers(
        d1=single_pose_scorer(skel),
        d2=pair_pose_scorer(skel, **kwargs),
    )


class MlpIntegrator:
    """Three fully connected layers mapping a pose pair to a fused pose.

    Shipped untrained: weights are small random values under a fixed seed
    unless loaded from an .npz checkpoint.  Intended as the pluggable
    integrator slot for a learned fusion model.
    """

    def __init__(self, num_joints: int, hidden: int = 256, seed: int = 0):
        self.num_joints = num_joints
        in_dim = 2 * (num_joints * 3 + num_joints)
        out_dim = num_joints * 3
        rng = np.random.default_rng(seed)
        dims = [in_dim, hidden, hidden, out_dim]
        self.weights = []
        self.biases = []
        for a, b in zip(dims[:-1], dims[1:]):
            self.weights.append(rng.standard_normal((a, b)) * np.sqrt(2.0 / a))
            self.biases.append(np.zeros(b))

    def load(self, path) -> None:
        data = np.load(path)
        self.weights = [data[f"w{i}"] for i in range(3)]
        self.biases = [data[f"b{i}"] for i in range(3)]

    def save(self, path) -> None:
        arrays = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        np.savez(path, **arrays)

    def __call__(self, p_td: Pose3D, p_bu: Pose3D) -> Pose3D:
        x = np.concatenate([
            p_td.joints.ravel(), p_td.conf,
            p_bu.joints.ravel(), p_bu.conf,
        ])
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w + b
            if i < 2:
                x = np.maximum(x, 0.0)
        joints = x.reshape(self.num_joints, 3)
        conf = np.maximum(p_td.conf, p_bu.conf)
        return Pose3D(joints=joints, conf=conf, frame=Frame.CAMERA_CENTRIC)
