"""Test-time refinement of 3D pose sequences by gradient descent.

Minimizes a trajectory-smoothness term (polynomial extrapolation residuals
at orders 1-3), a confidence-weighted reprojection term against 2D
observations, and a bone-length consistency term with one latent length per
bone, using fixed-step gradient descent with backtracking halving and a
two-stage reprojection-coefficient schedule.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .camera import CameraIntrinsics
from .errors import (
    BehindCameraError,
    InsufficientHistoryError,
    MisalignedFramesError,
    NumericFailureError,
)
from .skeleton import Pose2D, SkeletonSpec, TrackSequence, bone_lengths_of

STEP_GROWTH = 2.0
MIN_STEP = 1e-18
MAX_STEP = 1e9


@dataclass(frozen=True)
class TtoConfig:
    """Optimization schedule and loss coefficients.

    ``windows`` maps polynomial order (1, 2, 3) to the number of past frames
    used for that order's fit; 0 disables an order.  Reprojection weight is
    ``c_rep_stage1`` during the first pass and ``c_rep_stage2`` during the
    second (enabled by ``two_stage``).
    """

    windows: tuple[int, int, int] = (2, 5, 5)
    c_rep_stage1: float = 0.1
    c_rep_stage2: float = 100.0
    c_bone: float = 1.0
    iters_per_stage: int = 300
    step_size: float = 1e-3
    two_stage: bool = True

    def __post_init__(self):
        if len(self.windows) != 3:
            raise ValueError("windows must give lengths for orders 1, 2, 3")
        for order, w in self.window_map().items():
            if w < order + 1:
                raise ValueError(
                    f"order {order} needs a window of at least {order + 1}, got {w}"
                )
        for name in ("c_rep_stage1", "c_rep_stage2", "c_bone"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.iters_per_stage < 1:
            raise ValueError("iters_per_stage must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")

    def window_map(self) -> dict[int, int]:
        """Enabled orders mapped to their window lengths."""
        return {o: w for o, w in zip((1, 2, 3), self.windows) if w > 0}

    def c_rep(self, stage: int) -> float:
        return self.c_rep_stage1 if stage == 1 else self.c_rep_stage2

    def to_dict(self) -> dict:
        return {
            "windows": list(self.windows),
            "c_rep_stage1": self.c_rep_stage1,
            "c_rep_stage2": self.c_rep_stage2,
            "c_bone": self.c_bone,
            "iters_per_stage": self.iters_per_stage,
            "step_size": self.step_size,
            "two_stage": self.two_stage,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TtoConfig":
        return cls(
            windows=tuple(d.get("windows", (2, 5, 5))),
            c_rep_stage1=float(d.get("c_rep_stage1", 0.1)),
            c_rep_stage2=float(d.get("c_rep_stage2", 100.0)),
            c_bone=float(d.get("c_bone", 1.0)),
            iters_per_stage=int(d.get("iters_per_stage", 300)),
            step_size=float(d.get("step_size", 1e-3)),
            two_stage=bool(d.get("two_stage", True)),
        )


@dataclass
class TraceRow:
    """One optimizer iteration: accepted loss and its components."""

    iteration: int
    stage: int
    l_traj: float
    l_rep: float
    l_bone: float
    total: float


@dataclass
class TtoState:
    """Optimization variables and the per-iteration loss trace."""

    positions: np.ndarray           # (T, K, 3) mm
    bone_latents: np.ndarray        # (n_bones,) mm, kept >= 0
    trace: list[TraceRow] = field(default_factory=list)


def extrapolation_weights(window: int, order: int) -> np.ndarray:
    """Weights w such that w @ history predicts the next sample.

    Least-squares polynomial of the given degree fitted at t = 0..window-1
    and evaluated at t = window.  Exact interpolation when window == order+1.
    The returned array is cached and read-only.
    """
    if window < order + 1:
        raise InsufficientHistoryError(
            f"order {order} needs at least {order + 1} points, got {window}"
        )
    return _extrapolation_weights_cached(int(window), int(order))


@lru_cache(maxsize=None)
def _extrapolation_weights_cached(window: int, order: int) -> np.ndarray:
    t = np.arange(window, dtype=np.float64)
    design = np.vander(t, order + 1, increasing=True)
    basis_next = np.power(float(window), np.arange(order + 1, dtype=np.float64))
    coef = np.linalg.solve(design.T @ design, basis_next)
    weights = design @ coef
    weights.setflags(write=False)
    return weights


def fit_trajectory(history: np.ndarray, order: int) -> np.ndarray:
    """Extrapolate a point series one step past its end.

    ``history`` is (w,) or (w, D) with consecutive, uniformly spaced samples;
    returns the degree-``order`` least-squares prediction at the next index.
    """
    history = np.asarray(history, dtype=np.float64)
    w = history.shape[0]
    weights = extrapolation_weights(w, order)
    return weights @ history


def _trajectory_residuals(positions: np.ndarray, windows: dict[int, int]
                          ) -> tuple[float, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Trajectory loss and, per enabled order with enough frames, the
    (window, extrapolation weights, residual) it was summed from."""
    t_total, k, _ = positions.shape
    loss = 0.0
    parts = []
    for order, w in sorted(windows.items()):
        if t_total <= w:
            continue
        weights = extrapolation_weights(w, order)
        windows_view = sliding_window_view(positions, w, axis=0)  # (T-w+1, K, 3, w)
        pred = np.tensordot(windows_view[: t_total - w], weights, axes=([3], [0]))
        res = positions[w:] - pred
        loss += float(np.sum(res * res)) / k
        parts.append((w, weights, res))
    return loss, parts


def trajectory_loss_grad(positions: np.ndarray, windows: dict[int, int]
                         ) -> tuple[float, np.ndarray]:
    """Trajectory residual loss and its gradient w.r.t. joint positions.

    Sum over valid frames and enabled orders of the mean-per-joint squared
    distance between the frame's joints and the per-order extrapolation from
    the preceding window.  Frames with insufficient history contribute 0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    t_total, k, _ = positions.shape
    loss, parts = _trajectory_residuals(positions, windows)
    grad = np.zeros_like(positions)
    coeff = 2.0 / k
    for w, weights, res in parts:
        grad[w:] += coeff * res
        for j in range(w):
            grad[j:j + t_total - w] -= coeff * weights[j] * res
    return loss, grad


def trajectory_loss(seq: TrackSequence, cfg: TtoConfig) -> float:
    """Trajectory residual loss of a track under the configured windows."""
    _, joints, _ = seq.as_arrays()
    loss, _ = trajectory_loss_grad(joints, cfg.window_map())
    return loss


def _bone_residuals(positions: np.ndarray, bones: np.ndarray, latents: np.ndarray
                    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Bone loss with the bone vectors, lengths and length residuals."""
    diff = positions[:, bones[:, 1]] - positions[:, bones[:, 0]]  # (T, nB, 3)
    lengths = np.linalg.norm(diff, axis=-1)
    resid = lengths - latents
    return float(np.sum(resid * resid)), diff, lengths, resid


def bone_loss_grad(positions: np.ndarray, bones: np.ndarray, latents: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Bone-length consistency loss, gradient w.r.t. positions and latents.

    Sum over frames and bones of (length - latent)^2.  For fixed positions
    the optimal latent is the per-bone temporal mean length.
    """
    positions = np.asarray(positions, dtype=np.float64)
    loss, diff, lengths, resid = _bone_residuals(positions, bones, latents)
    unit = diff / np.maximum(lengths, 1e-12)[..., None]
    per_bone = (2.0 * resid)[..., None] * unit
    grad_pos = np.zeros_like(positions)
    for i, (parent, child) in enumerate(bones):
        grad_pos[:, child] += per_bone[:, i]
        grad_pos[:, parent] -= per_bone[:, i]
    grad_latents = -2.0 * resid.sum(axis=0)
    return loss, grad_pos, grad_latents


def bone_loss(seq: TrackSequence, latents: np.ndarray, skel: SkeletonSpec) -> float:
    """Bone-length consistency loss of a track against latent lengths."""
    _, joints, _ = seq.as_arrays()
    loss, _, _ = bone_loss_grad(joints, skel.bone_array, np.asarray(latents, dtype=np.float64))
    return loss


def optimal_bone_latents(seq: TrackSequence, skel: SkeletonSpec) -> np.ndarray:
    """Closed-form minimizer of the bone loss over latents alone:
    the per-bone temporal mean length."""
    _, joints, _ = seq.as_arrays()
    return bone_lengths_of(joints, skel).mean(axis=0)


def _reprojection_residuals(positions: np.ndarray, obs_uv: np.ndarray,
                           obs_conf: np.ndarray, cam: CameraIntrinsics
                           ) -> tuple[float, np.ndarray, np.ndarray]:
    """Reprojection loss with the u and v pixel residuals."""
    k = positions.shape[1]
    z = positions[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("reprojection encountered a joint with z <= 0")
    ru = cam.fx * positions[..., 0] / z + cam.cx - obs_uv[..., 0]
    rv = cam.fy * positions[..., 1] / z + cam.cy - obs_uv[..., 1]
    return float(np.sum(obs_conf * (ru * ru + rv * rv)) / k), ru, rv


def reprojection_loss_grad(positions: np.ndarray, obs_uv: np.ndarray,
                           obs_conf: np.ndarray, cam: CameraIntrinsics
                           ) -> tuple[float, np.ndarray]:
    """Sequence reprojection loss and gradient w.r.t. joint positions.

    Sum over frames of the per-frame confidence-weighted mean squared pixel
    residual.  All joint depths must be positive.
    """
    positions = np.asarray(positions, dtype=np.float64)
    loss, ru, rv = _reprojection_residuals(positions, obs_uv, obs_conf, cam)
    x = positions[..., 0]
    y = positions[..., 1]
    z = positions[..., 2]
    w = obs_conf * (2.0 / positions.shape[1])
    grad = np.empty_like(positions)
    grad[..., 0] = w * ru * (cam.fx / z)
    grad[..., 1] = w * rv * (cam.fy / z)
    grad[..., 2] = -w * (ru * cam.fx * x + rv * cam.fy * y) / (z * z)
    return loss, grad


def _observation_arrays(seq: TrackSequence,
                        observations: dict[int, Pose2D] | None,
                        k: int) -> tuple[np.ndarray, np.ndarray]:
    idx = seq.frame_indices
    uv = np.zeros((len(idx), k, 2))
    conf = np.zeros((len(idx), k))
    if observations is None:
        return uv, conf
    frame_set = set(idx)
    stray = sorted(set(observations) - frame_set)
    if stray:
        raise MisalignedFramesError(
            f"observations reference frames absent from the track: {stray[:5]}"
        )
    for t, i in enumerate(idx):
        obs = observations.get(i)
        if obs is None:
            continue
        uv[t] = obs.joints
        conf[t] = obs.conf
    return uv, conf


def tto_loss(seq: TrackSequence, observations: dict[int, Pose2D] | None,
             cam: CameraIntrinsics, state: TtoState, cfg: TtoConfig,
             stage: int, skel: SkeletonSpec) -> float:
    """Combined objective L_traj + c_rep(stage)*L_rep + c_bone*L_bone."""
    _, joints, _ = seq.as_arrays()
    uv, conf = _observation_arrays(seq, observations, joints.shape[1])
    l_traj, l_rep, l_bone = _loss_terms(joints, state.bone_latents, uv, conf, cam,
                                        skel.bone_array, cfg.window_map())
    return l_traj + cfg.c_rep(stage) * l_rep + cfg.c_bone * l_bone


def _loss_terms(positions: np.ndarray, latents: np.ndarray, uv: np.ndarray,
                conf: np.ndarray, cam: CameraIntrinsics, bones: np.ndarray,
                windows: dict[int, int]) -> tuple[float, float, float]:
    """Value-only evaluation of the three loss terms (backtracking path)."""
    l_traj, _ = _trajectory_residuals(positions, windows)
    l_rep, _, _ = _reprojection_residuals(positions, uv, conf, cam)
    l_bone, _, _, _ = _bone_residuals(positions, bones, latents)
    return l_traj, l_rep, l_bone


def _value_and_grad(positions: np.ndarray, latents: np.ndarray, uv: np.ndarray,
                    conf: np.ndarray, cam: CameraIntrinsics, bones: np.ndarray,
                    windows: dict[int, int], c_rep: float, c_bone: float):
    l_traj, g_traj = trajectory_loss_grad(positions, windows)
    l_rep, g_rep = reprojection_loss_grad(positions, uv, conf, cam)
    l_bone, g_bone_pos, g_latents = bone_loss_grad(positions, bones, latents)
    total = l_traj + c_rep * l_rep + c_bone * l_bone
    grad_pos = g_traj + c_rep * g_rep + c_bone * g_bone_pos
    return (l_traj, l_rep, l_bone, total), grad_pos, c_bone * g_latents


def optimize(seq: TrackSequence, observations: dict[int, Pose2D] | None,
             cam: CameraIntrinsics, cfg: TtoConfig, skel: SkeletonSpec
             ) -> tuple[TrackSequence, TtoState]:
    """Refine a track by gradient descent over joints and bone latents.

    Runs ``iters_per_stage`` iterations per stage (two stages when
    ``two_stage``).  A step that would increase the stage loss is halved
    until it does not, so the accepted loss trace is non-increasing within
    each stage.  Bone latents are projected to >= 0 after every step.
    """
    _, positions, _ = seq.as_arrays()
    positions = positions.copy()
    k = positions.shape[1]
    bones = skel.bone_array
    windows = cfg.window_map()
    uv, conf = _observation_arrays(seq, observations, k)
    latents = bone_lengths_of(positions[0], skel)
    state = TtoState(positions=positions, bone_latents=latents, trace=[])

    stages = (1, 2) if cfg.two_stage else (1,)
    iteration = 0
    for stage in stages:
        c_rep = cfg.c_rep(stage)
        step = cfg.step_size
        comps, grad_pos, grad_lat = _value_and_grad(
            positions, latents, uv, conf, cam, bones, windows, c_rep, cfg.c_bone)
        for _ in range(cfg.iters_per_stage):
            if not (np.all(np.isfinite(grad_pos)) and np.all(np.isfinite(grad_lat))):
                raise NumericFailureError(
                    f"non-finite gradient at stage {stage}, iteration {iteration}"
                )
            accepted = False
            while step >= MIN_STEP:
                cand_pos = positions - step * grad_pos
                cand_lat = np.maximum(latents - step * grad_lat, 0.0)
                try:
                    cand_comps = _loss_terms(cand_pos, cand_lat, uv, conf, cam,
                                             bones, windows)
                except BehindCameraError:
                    # overshoot past the image plane counts as a rejected step
                    step *= 0.5
                    continue
                cand_total = cand_comps[0] + c_rep * cand_comps[1] + \
                    cfg.c_bone * cand_comps[2]
                if cand_total <= comps[3]:
                    accepted = True
                    break
                step *= 0.5
            if accepted:
                positions = cand_pos
                latents = cand_lat
                comps = (*cand_comps, cand_total)
                _, grad_pos, grad_lat = _value_and_grad(
                    positions, latents, uv, conf, cam, bones, windows,
                    c_rep, cfg.c_bone)
                step = min(step * STEP_GROWTH, MAX_STEP)
            state.trace.append(TraceRow(
                iteration=iteration, stage=stage,
                l_traj=comps[0], l_rep=comps[1], l_bone=comps[2], total=comps[3],
            ))
            iteration += 1
    state.positions = positions
    state.bone_latents = latents
    return seq.with_joints(positions), state

