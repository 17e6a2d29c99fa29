"""Synthetic multi-person scenes with exact ground truth.

Scenes combine a per-person body shape (scaled rest pose) with analytic
root trajectories and optional articulation, then derive noisy 3D estimates
for two sources and noisy 2D observations.  Every quantity is
deterministic under the scene seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, project, rotate_points_about_y
from .skeleton import (
    Frame,
    Pose2D,
    Pose3D,
    SkeletonSpec,
    TrackSequence,
    poses_from_stack,
    rest_pose,
)


class SceneSpecError(ValueError):
    """The scene recipe is internally inconsistent or unrenderable."""


@dataclass(frozen=True)
class MotionSpec:
    """Analytic motion of one person.

    ``root_coeffs`` are polynomial coefficients (constant, per-frame linear,
    quadratic, cubic) of the root trajectory, each a 3-vector in mm.  ``kind``
    caps the polynomial degree (constant / linear / polynomial) or adds
    per-joint sinusoidal articulation (sinusoidal).  ``yaw_rate`` spins the
    body about the vertical axis through the root (rigid, rad/frame).
    """

    kind: str = "constant"
    root_coeffs: tuple[tuple[float, float, float], ...] = ((0.0, 0.0, 3000.0),)
    body_scale: float = 1.0
    yaw_rate: float = 0.0
    swing_amplitude_mm: float = 0.0
    swing_period_frames: float = 40.0

    _DEGREE = {"constant": 0, "linear": 1, "polynomial": 3, "sinusoidal": 1}

    def __post_init__(self):
        if self.kind not in self._DEGREE:
            raise SceneSpecError(f"unknown motion kind {self.kind!r}")
        coeffs = np.array(self.root_coeffs, dtype=np.float64).reshape(-1, 3)
        if coeffs.shape[0] > self._DEGREE[self.kind] + 1:
            raise SceneSpecError(
                f"{self.kind} motion allows at most {self._DEGREE[self.kind] + 1} "
                f"polynomial coefficients, got {coeffs.shape[0]}"
            )
        # the comparisons are False for NaN, so NaN fails them too
        if not (np.isfinite(coeffs).all() and abs(self.yaw_rate) < math.inf):
            raise SceneSpecError("root coefficients and yaw rate must be finite")
        if not 0 <= self.swing_amplitude_mm < math.inf:
            raise SceneSpecError("swing amplitude must be finite and non-negative")
        if not 0 < self.body_scale < math.inf:
            raise SceneSpecError("body scale must be finite and positive")
        if self.kind != "sinusoidal" and self.swing_amplitude_mm != 0.0:
            raise SceneSpecError("swing amplitude requires sinusoidal motion")
        if not 0 < self.swing_period_frames < math.inf:
            raise SceneSpecError("swing period must be finite and positive")
        object.__setattr__(self, "root_coeffs",
                           tuple(tuple(row) for row in coeffs))

    def root_at(self, t: float) -> np.ndarray:
        coeffs = np.array(self.root_coeffs)
        powers = np.power(float(t), np.arange(coeffs.shape[0]))
        return powers @ coeffs


@dataclass(frozen=True)
class SceneSpec:
    """Scene recipe: persons, frames, motion, noise, occlusion, seed."""

    num_persons: int
    num_frames: int
    motions: tuple[MotionSpec, ...]
    sigma_3d_mm: float = 0.0
    sigma_2d_px: float = 0.0
    conf_base: float = 1.0
    conf_jitter: float = 0.0
    drop_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_frames < 1:
            raise SceneSpecError("num_frames must be >= 1")
        if self.num_persons < 0:
            raise SceneSpecError("num_persons must be >= 0")
        if len(self.motions) != self.num_persons:
            raise SceneSpecError("one MotionSpec per person required")
        for prob in (self.drop_prob,):
            if not 0.0 <= prob <= 1.0:
                raise SceneSpecError("probabilities must lie in [0, 1]")
        if not 0.0 <= self.conf_base <= 1.0 or not 0.0 <= self.conf_jitter <= 1.0:
            raise SceneSpecError("confidence parameters must lie in [0, 1]")
        # the comparisons are False for NaN, so NaN fails them too
        if not (0 <= self.sigma_3d_mm < math.inf and 0 <= self.sigma_2d_px < math.inf):
            raise SceneSpecError("noise sigmas must be finite and non-negative")
        object.__setattr__(self, "motions", tuple(self.motions))


@dataclass
class SceneData:
    """Generated scene: exact tracks plus derived noisy estimates."""

    gt_tracks: list[TrackSequence]
    noisy_td: list[list[Pose3D]]   # per frame
    noisy_bu: list[list[Pose3D]]   # per frame
    obs_2d: list[list[Pose2D]]     # per frame

    @property
    def num_frames(self) -> int:
        return len(self.noisy_td)

    def gt_frames(self) -> list[list[Pose3D]]:
        """Ground truth regrouped per frame (same person order as tracks)."""
        frames = []
        for t in range(self.num_frames):
            frames.append([track.frames[t] for track in self.gt_tracks])
        return frames


def _gt_joints(spec: SceneSpec, skel: SkeletonSpec, rng: np.random.Generator
               ) -> np.ndarray:
    """(P, T, K, 3) exact joint positions."""
    k = skel.num_joints
    limbs = np.flatnonzero(np.arange(k) != skel.root_index)
    out = np.empty((spec.num_persons, spec.num_frames, k, 3))
    for p, motion in enumerate(spec.motions):
        offsets = rest_pose(motion.body_scale)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
        axes = rng.integers(0, 3, size=k)
        for t in range(spec.num_frames):
            root = motion.root_at(t)
            joints = offsets.copy()
            if motion.kind == "sinusoidal" and motion.swing_amplitude_mm > 0.0:
                swing = motion.swing_amplitude_mm * np.sin(
                    2.0 * np.pi * t / motion.swing_period_frames + phases)
                joints[limbs, axes[limbs]] += swing[limbs]
            if motion.yaw_rate != 0.0:
                joints = rotate_points_about_y(joints, motion.yaw_rate * t,
                                               np.zeros(3))
            out[p, t] = joints + root
    return out


def generate(spec: SceneSpec, cam: CameraIntrinsics, skel: SkeletonSpec) -> SceneData:
    """Build a scene: exact tracks, noisy TD/BU estimates, 2D observations.

    Noisy sources are ground truth plus independent Gaussian 3D noise;
    observations are exact projections plus Gaussian 2D noise.  Dropped
    joints keep their (noisy) position but get confidence 0.  Raises
    SceneSpecError if any ground-truth joint lands behind the camera.
    """
    rng = np.random.default_rng(spec.seed)
    gt = _gt_joints(spec, skel, rng)
    if gt.size and np.any(gt[..., 2] <= 0.0):
        raise SceneSpecError("ground-truth joints must stay in front of the camera")

    p_count, t_count, k, _ = gt.shape

    def confidences(shape) -> np.ndarray:
        conf = spec.conf_base - spec.conf_jitter * rng.random(shape)
        return np.clip(conf, 0.0, 1.0)

    def per_frame(joints: np.ndarray, conf: np.ndarray, frame: Frame | None) -> list[list]:
        """One batch of poses per frame of (P, T, K, d) joints and (P, T, K)
        confidences."""
        return [poses_from_stack(joints[:, t], conf[:, t], frame) for t in range(t_count)]

    def noisy_source() -> list[list[Pose3D]]:
        noise = spec.sigma_3d_mm * rng.standard_normal(gt.shape)
        conf = confidences((p_count, t_count, k))
        drops = rng.random((p_count, t_count, k)) < spec.drop_prob
        return per_frame(gt + noise, np.where(drops, 0.0, conf), Frame.CAMERA_CENTRIC)

    noisy_td = noisy_source()
    noisy_bu = noisy_source()

    noise_2d = spec.sigma_2d_px * rng.standard_normal((p_count, t_count, k, 2))
    conf_2d = confidences((p_count, t_count, k))
    drops_2d = rng.random((p_count, t_count, k)) < spec.drop_prob
    obs_2d = per_frame(project(gt, cam) + noise_2d, np.where(drops_2d, 0.0, conf_2d), None)

    gt_tracks = [
        TrackSequence(person_id=p, frames=dict(enumerate(
            poses_from_stack(gt[p], np.ones((t_count, k)), Frame.CAMERA_CENTRIC))))
        for p in range(p_count)
    ]

    return SceneData(gt_tracks=gt_tracks, noisy_td=noisy_td, noisy_bu=noisy_bu,
                     obs_2d=obs_2d)


def benchmark_camera() -> CameraIntrinsics:
    """Intrinsics used by the standard synthetic benchmark."""
    return CameraIntrinsics(fx=1100.0, fy=1100.0, cx=640.0, cy=360.0)


def make_benchmark_spec(seed: int, num_frames: int = 100,
                        sigma_3d_mm: float = 30.0) -> SceneSpec:
    """Standard refinement benchmark: three persons with smooth polynomial
    motion, Gaussian 3D noise, exact 2D observations."""
    motions = (
        MotionSpec(kind="polynomial", root_coeffs=(
            (-900.0, 250.0, 3600.0), (6.0, -0.5, 8.0), (0.02, 0.0, -0.05),
        )),
        MotionSpec(kind="polynomial", root_coeffs=(
            (50.0, 280.0, 4200.0), (-4.0, 0.3, -6.0), (0.0, 0.01, 0.04),
            (0.0003, 0.0, -0.0002),
        )),
        MotionSpec(kind="polynomial", root_coeffs=(
            (950.0, 220.0, 5000.0), (2.0, 0.6, 10.0), (-0.03, -0.01, -0.06),
        )),
    )
    return SceneSpec(
        num_persons=3,
        num_frames=num_frames,
        motions=motions,
        sigma_3d_mm=sigma_3d_mm,
        sigma_2d_px=0.0,
        conf_base=1.0,
        conf_jitter=0.0,
        drop_prob=0.0,
        seed=seed,
    )
