"""Test-time refinement of 3D pose sequences by gradient descent.

Minimizes a trajectory-smoothness term (polynomial extrapolation residuals
at orders 1-3), a confidence-weighted reprojection term against 2D
observations, and a bone-length consistency term with one latent length per
bone, using fixed-step gradient descent with backtracking halving and a
two-stage reprojection-coefficient schedule.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .camera import CameraIntrinsics, checked_depths, project
from .errors import (
    BehindCameraError,
    InsufficientHistoryError,
    MisalignedFramesError,
    NumericFailureError,
)
from .skeleton import (Pose2D, SkeletonSpec, TrackSequence, bone_incidence, bone_lengths_of,
                       stack_poses, vector_lengths)

STEP_GROWTH = 2.0
MIN_STEP = 1e-18
MAX_STEP = 1e9
# frames per trajectory stencil block
BLOCK = 8


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
        for order, w in zip((1, 2, 3), self.windows):
            if isinstance(w, bool) or not isinstance(w, numbers.Integral) \
                    or (w != 0 and w < order + 1):
                raise ValueError(
                    f"windows: order {order} needs an integer window of 0 (off) or "
                    f"at least {order + 1}, got {w!r}"
                )
        # the comparisons are False for NaN, so NaN fails them too
        for name in ("c_rep_stage1", "c_rep_stage2", "c_bone"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        n = self.iters_per_stage
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"iters_per_stage must be an integer >= 1, got {n!r}")
        if not isinstance(self.two_stage, bool):
            raise ValueError(f"two_stage must be True or False, got {self.two_stage!r}")
        if not 0 < self.step_size < math.inf:
            raise ValueError("step_size must be finite and positive")

    def window_map(self) -> dict[int, int]:
        """Enabled orders mapped to their window lengths."""
        return {o: w for o, w in zip((1, 2, 3), self.windows) if w > 0}

    def c_rep(self, stage: int) -> float:
        return self.c_rep_stage1 if stage == 1 else self.c_rep_stage2


@dataclass
class TraceRow:
    """One optimizer iteration: accepted loss and its components, the step
    size of this iteration's update (the last step tried if none was
    accepted) and how many times the step was halved in this iteration."""

    iteration: int
    stage: int
    l_traj: float
    l_rep: float
    l_bone: float
    total: float
    step: float
    halvings: int


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
    """
    if window < order + 1:
        raise InsufficientHistoryError(
            f"order {order} needs at least {order + 1} points, got {window}"
        )
    t = np.arange(window, dtype=np.float64)
    design = np.vander(t, order + 1, increasing=True)
    basis_next = np.power(float(window), np.arange(order + 1, dtype=np.float64))
    coef = np.linalg.solve(design.T @ design, basis_next)
    return design @ coef


def fit_trajectory(history: np.ndarray, order: int) -> np.ndarray:
    """Extrapolate a point series one step past its end.

    ``history`` is (w,) or (w, D) with consecutive, uniformly spaced samples;
    returns the degree-``order`` least-squares prediction at the next index.
    """
    history = np.asarray(history, dtype=np.float64)
    w = history.shape[0]
    weights = extrapolation_weights(w, order)
    return weights @ history


class _Objective:
    """The TTO loss terms of one track of fixed shape, skeleton and
    observations, with everything that does not depend on the joints
    computed once.

    The trajectory residuals are one batched product of small dense stencil
    blocks with overlapping windows of the joints, and the bone vectors one
    incidence matrix times the joints, so each term is a few whole-array
    operations; both operators are built from this objective's own inputs.
    The reprojection term exists only when observations are given; the
    check that every joint lies in front of the camera runs either way.

    Each term method evaluates one loss term and keeps its residuals; the
    matching ``*_grad`` method builds that term's gradient from them, so a
    point is evaluated once whether or not its gradient is needed.
    ``value`` and ``grad`` do this for the whole objective.
    """

    def __init__(self, shape: tuple[int, int], windows: dict[int, int] | None = None,
                 bones: np.ndarray | None = None, uv: np.ndarray | None = None,
                 conf: np.ndarray | None = None, cam: CameraIntrinsics | None = None):
        t_count, k = shape
        self.k = k
        self.shape = (t_count, k, 3)
        self.coeff = coeff = 2.0 / k
        self.blocks, self.gather, halo = _trajectory_blocks(t_count, windows or {})
        n_blocks, rows, span = self.blocks.shape
        n_orders = rows // BLOCK
        # Both buffers belong to this objective alone: each evaluation
        # overwrites them.  `frames` holds the joints after `halo` zero rows,
        # padded to whole blocks; block b reads its rows b*BLOCK .. b*BLOCK +
        # span - 1.  `residuals` holds one row per (frame, order), then `halo`
        # frames of zero rows; the gradient of block b's frames reads the
        # residuals of frames b*BLOCK .. b*BLOCK + span - 1.
        self.halo = halo
        self.frames = np.zeros((halo + n_blocks * BLOCK, 3 * k))
        self.frame_windows = _block_windows(self.frames, n_blocks, BLOCK, span)
        residuals = np.zeros(((n_blocks * BLOCK + halo) * n_orders, 3 * k))
        self.traj_res = residuals[:n_blocks * rows].reshape(n_blocks, rows, 3 * k)
        self.res_windows = _block_windows(residuals, n_blocks, BLOCK * n_orders,
                                          span * n_orders)
        bones = np.zeros((0, 2), dtype=np.intp) if bones is None \
            else np.asarray(bones, dtype=np.intp)
        self.incidence = bone_incidence(k, bones)
        self.cam = cam
        if cam is not None:
            self.obs_uv = uv
            self.conf = conf
            self.rep_weight = conf * coeff

    def value(self, positions: np.ndarray, latents: np.ndarray
              ) -> tuple[float, float, float]:
        """(trajectory, reprojection, bone) loss at the given point."""
        # the depth check runs first, so a candidate behind the camera costs
        # no other term
        if self.cam is None:
            checked_depths(positions[..., 2])
            l_rep = 0.0
        else:
            l_rep = self.reprojection(positions)
        return self.trajectory(positions), l_rep, self.bone(positions, latents)

    def grad(self, c_rep: float, c_bone: float) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of L_traj + c_rep*L_rep + c_bone*L_bone w.r.t. joints and
        latents at the point of the last ``value`` call."""
        g_bone, g_latents = self.bone_grad()
        grad_pos = self.trajectory_grad()
        if self.cam is not None:
            grad_pos += c_rep * self.reprojection_grad()
        grad_pos += c_bone * g_bone
        return grad_pos, c_bone * g_latents

    def trajectory(self, positions: np.ndarray) -> float:
        t_count, halo = self.shape[0], self.halo
        self.frames[halo:halo + t_count] = positions.reshape(t_count, -1)
        res = np.matmul(self.blocks, self.frame_windows, out=self.traj_res)
        return float(np.vdot(res, res)) / self.k

    def trajectory_grad(self) -> np.ndarray:
        grad = np.matmul(self.gather, self.res_windows)  # (n_blocks, BLOCK, 3K)
        grad = self.coeff * grad.reshape(-1, 3 * self.k)[:self.shape[0]]
        return grad.reshape(self.shape)

    def bone(self, positions: np.ndarray, latents: np.ndarray) -> float:
        diff = self.incidence @ positions  # (T, nB, 3): child minus parent
        self.bone_lengths = vector_lengths(diff)
        self.bone_diff = diff
        self.bone_res = res = self.bone_lengths - latents
        return float(np.vdot(res, res))

    def bone_grad(self) -> tuple[np.ndarray, np.ndarray]:
        scale = 2.0 * self.bone_res / np.maximum(self.bone_lengths, 1e-12)
        per_bone = self.bone_diff * scale[..., None]
        return self.incidence.T @ per_bone, -2.0 * self.bone_res.sum(axis=0)

    def reprojection(self, positions: np.ndarray) -> float:
        self.positions = positions
        self.rep_res = res = project(positions, self.cam)
        res -= self.obs_uv
        sq = res * res
        return float(np.vdot(self.conf, sq[..., 0] + sq[..., 1])) / self.k

    def reprojection_grad(self) -> np.ndarray:
        positions, cam = self.positions, self.cam
        z = positions[..., 2]
        w = self.rep_weight / z
        grad = np.empty_like(positions)
        # d(fx * x / z)/dx = fx / z and d(fx * x / z)/dz = -(fx / z) * x / z
        grad[..., 0] = g_x = (cam.fx * w) * self.rep_res[..., 0]
        grad[..., 1] = g_y = (cam.fy * w) * self.rep_res[..., 1]
        grad[..., 2] = -(g_x * positions[..., 0] + g_y * positions[..., 1]) / z
        return grad


def _trajectory_blocks(t_count: int, windows: dict[int, int]
                       ) -> tuple[np.ndarray, np.ndarray, int]:
    """The trajectory stencil of a track of ``t_count`` frames as dense
    blocks: (blocks, gather, halo).

    For each enabled (order, window w) with ``t_count > w``, the residual of
    order o at frame p (w <= p < t_count) is frame p minus the extrapolation
    weights applied to frames p-w .. p-1; an order without enough frames
    has no residuals.  ``halo`` is the largest window of an order with
    residuals and c = BLOCK.

    ``blocks`` (n_blocks, c * n_orders, c + halo) gives the residuals:
    block b reads frames b*c - halo .. b*c + c - 1 and row i * n_orders + o
    is order o's residual at frame b*c + i, or zero where that frame has
    none.  ``gather`` (c, (c + halo) * n_orders) is the transpose of the
    same stencil for any block: row j collects frame b*c + j's gradient
    from the residuals of frames b*c .. b*c + c + halo - 1, laid out as in
    ``blocks``' rows.  The blocks cover ceil(t_count / c) * c frames.
    """
    orders = [(order, w) for order, w in sorted(windows.items()) if t_count > w]
    halo = max((w for _, w in orders), default=0)
    c = BLOCK
    span = c + halo
    n_blocks = -(-t_count // c)
    # band[q, o, halo + f]: the weight of frame f in order o's residual at
    # frame q, with frames counted from a block's first predicted frame
    band = np.zeros((span, len(orders), span + halo))
    q = np.arange(span)[:, None]
    for j, (order, w) in enumerate(orders):
        taps = np.append(-extrapolation_weights(w, order), 1.0)
        band[q, j, q + np.arange(halo - w, halo + 1)] = taps
    frame = np.arange(n_blocks)[:, None] * c + np.arange(c)
    has_residual = (frame[..., None] >= [w for _, w in orders]) & (frame[..., None] < t_count)
    blocks = np.where(has_residual[..., None], band[:c, :, :span], 0.0)
    blocks = blocks.reshape(n_blocks, c * len(orders), span)
    gather = band[:, :, halo:span].transpose(2, 0, 1).reshape(c, span * len(orders))
    return blocks, gather, halo


def _block_windows(buffer: np.ndarray, n_blocks: int, step: int, rows: int
                   ) -> np.ndarray:
    """Read-only view (n_blocks, rows, columns) of a 2-D buffer whose block b
    is rows b*step .. b*step + rows - 1; consecutive blocks overlap."""
    row, col = buffer.strides
    return as_strided(buffer, shape=(n_blocks, rows, buffer.shape[1]),
                      strides=(step * row, row, col), writeable=False)


def _consecutive_joints(seq: TrackSequence) -> np.ndarray:
    """Joint array (T, K, 3) of a track whose frames are consecutive."""
    idx, joints, _ = seq.as_arrays()
    if np.any(np.diff(idx) != 1):
        raise MisalignedFramesError(
            f"track {seq.person_id!r} does not cover consecutive frames "
            f"({idx[0]}..{idx[-1]}, {len(idx)} frames); the trajectory term needs "
            "consecutive frames, so split it with pipeline.contiguous_runs first"
        )
    return joints


def trajectory_loss_grad(positions: np.ndarray, windows: dict[int, int]
                         ) -> tuple[float, np.ndarray]:
    """Trajectory residual loss and its gradient w.r.t. joint positions.

    Sum over valid frames and enabled orders of the mean-per-joint squared
    distance between the frame's joints and the per-order extrapolation from
    the preceding window.  Frames with insufficient history contribute 0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    objective = _Objective(positions.shape[:2], windows=windows)
    loss = objective.trajectory(positions)
    return loss, objective.trajectory_grad()


def trajectory_loss(seq: TrackSequence, cfg: TtoConfig) -> float:
    """Trajectory residual loss of a track under the configured windows.

    The track's frames must be consecutive (``MisalignedFramesError``
    otherwise)."""
    loss, _ = trajectory_loss_grad(_consecutive_joints(seq), cfg.window_map())
    return loss


def bone_loss_grad(positions: np.ndarray, bones: np.ndarray, latents: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Bone-length consistency loss, gradient w.r.t. positions and latents.

    Sum over frames and bones of (length - latent)^2.  For fixed positions
    the optimal latent is the per-bone temporal mean length.
    """
    positions = np.asarray(positions, dtype=np.float64)
    objective = _Objective(positions.shape[:2], bones=bones)
    loss = objective.bone(positions, latents)
    return (loss, *objective.bone_grad())


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


def reprojection_loss_grad(positions: np.ndarray, obs_uv: np.ndarray,
                           obs_conf: np.ndarray, cam: CameraIntrinsics
                           ) -> tuple[float, np.ndarray]:
    """Sequence reprojection loss and gradient w.r.t. joint positions.

    Sum over frames of the per-frame confidence-weighted mean squared pixel
    residual.  All joint depths must be positive.
    """
    positions = np.asarray(positions, dtype=np.float64)
    objective = _Objective(positions.shape[:2], uv=obs_uv, conf=obs_conf, cam=cam)
    loss = objective.reprojection(positions)
    return loss, objective.reprojection_grad()


def _observation_arrays(seq: TrackSequence,
                        observations: dict[int, Pose2D] | None,
                        k: int) -> tuple[np.ndarray, np.ndarray]:
    observations = observations or {}
    idx = seq.frame_indices
    uv = np.zeros((len(idx), k, 2))
    conf = np.zeros((len(idx), k))
    stray = sorted(set(observations) - set(idx))
    if stray:
        raise MisalignedFramesError(
            f"observations reference frames absent from the track: {stray[:5]}"
        )
    rows = [t for t, i in enumerate(idx) if observations.get(i) is not None]
    uv[rows], conf[rows] = stack_poses([observations[idx[t]] for t in rows], (k, 2))
    return uv, conf


def _track_objective(seq: TrackSequence, positions: np.ndarray,
                     observations: dict[int, Pose2D] | None,
                     cam: CameraIntrinsics, cfg: TtoConfig, skel: SkeletonSpec
                     ) -> _Objective:
    uv, conf = _observation_arrays(seq, observations, positions.shape[1])
    # with no observation weight there is no reprojection term to build
    reprojection = dict(uv=uv, conf=conf, cam=cam) if np.any(conf > 0) else {}
    return _Objective(positions.shape[:2], windows=cfg.window_map(),
                      bones=skel.bone_array, **reprojection)


def _stage_total(terms: tuple[float, float, float], c_rep: float, c_bone: float) -> float:
    """L_traj + c_rep*L_rep + c_bone*L_bone of the terms (l_traj, l_rep, l_bone)."""
    l_traj, l_rep, l_bone = terms
    return l_traj + c_rep * l_rep + c_bone * l_bone


def tto_loss(seq: TrackSequence, observations: dict[int, Pose2D] | None,
             cam: CameraIntrinsics, state: TtoState, cfg: TtoConfig,
             stage: int, skel: SkeletonSpec) -> float:
    """Combined objective L_traj + c_rep(stage)*L_rep + c_bone*L_bone.

    The track's frames must be consecutive (``MisalignedFramesError``
    otherwise)."""
    joints = _consecutive_joints(seq)
    objective = _track_objective(seq, joints, observations, cam, cfg, skel)
    return _stage_total(objective.value(joints, state.bone_latents), cfg.c_rep(stage),
                        cfg.c_bone)


def optimize(seq: TrackSequence, observations: dict[int, Pose2D] | None,
             cam: CameraIntrinsics, cfg: TtoConfig, skel: SkeletonSpec
             ) -> tuple[TrackSequence, TtoState]:
    """Refine a track by gradient descent over joints and bone latents.

    Runs ``iters_per_stage`` iterations per stage (two stages when
    ``two_stage``).  A step that would increase the stage loss is halved
    until it does not, so the accepted loss trace is non-increasing within
    each stage.  Bone latents are projected to >= 0 after every step.
    The track's frames must be consecutive (``MisalignedFramesError``
    otherwise; ``pipeline.contiguous_runs`` splits a track at its gaps).
    """
    positions = _consecutive_joints(seq).copy()
    objective = _track_objective(seq, positions, observations, cam, cfg, skel)
    latents = bone_lengths_of(positions[0], skel)
    state = TtoState(positions=positions, bone_latents=latents, trace=[])

    stages = (1, 2) if cfg.two_stage else (1,)
    iteration = 0
    # An overflowing or undefined evaluation shows as an inf or NaN loss,
    # which the line search rejects, or as a non-finite gradient, which
    # raises NumericFailureError; numpy's RuntimeWarnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for stage in stages:
            c_rep = cfg.c_rep(stage)
            step = cfg.step_size
            comps = objective.value(positions, latents)
            comps = (*comps, _stage_total(comps, c_rep, cfg.c_bone))
            grad_pos, grad_lat = objective.grad(c_rep, cfg.c_bone)
            accepted = True
            tried = step
            for _ in range(cfg.iters_per_stage):
                # the gradient is new at a stage's start and after an accepted
                # step; a rejected iteration leaves it as it was checked
                if accepted and not (np.isfinite(grad_pos).all()
                                     and np.isfinite(grad_lat).all()):
                    raise NumericFailureError(
                        f"non-finite gradient at stage {stage}, iteration {iteration}"
                    )
                accepted = False
                halvings = 0
                while step >= MIN_STEP:
                    tried = step
                    cand_pos = positions - step * grad_pos
                    cand_lat = np.maximum(latents - step * grad_lat, 0.0)
                    try:
                        cand_comps = objective.value(cand_pos, cand_lat)
                        cand_total = _stage_total(cand_comps, c_rep, cfg.c_bone)
                    except BehindCameraError:
                        # overshoot past the image plane has no loss: NaN fails the
                        # comparison, so the step is rejected even at an inf total
                        cand_total = math.nan
                    if cand_total <= comps[3]:
                        accepted = True
                        break
                    step *= 0.5
                    halvings += 1
                if accepted:
                    positions = cand_pos
                    latents = cand_lat
                    comps = (*cand_comps, cand_total)
                    # the objective still holds the residuals of this candidate
                    grad_pos, grad_lat = objective.grad(c_rep, cfg.c_bone)
                    step = min(step * STEP_GROWTH, MAX_STEP)
                state.trace.append(TraceRow(
                    iteration=iteration, stage=stage,
                    l_traj=comps[0], l_rep=comps[1], l_bone=comps[2], total=comps[3],
                    step=tried, halvings=halvings,
                ))
                iteration += 1
    state.positions = positions
    state.bone_latents = latents
    return seq.with_joints(positions), state
