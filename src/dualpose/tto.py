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


class _Objective:
    """The TTO loss terms of one track of fixed shape, skeleton and
    observations, with everything that does not depend on the joints
    computed once.

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
        self.coeff = coeff = 2.0 / k
        # (window, taps, gradient taps, rows) per enabled order with enough
        # frames: row t predicts frame t + window from frames t .. t+window-1
        self.orders = []
        for order, w in sorted((windows or {}).items()):
            if t_count > w:
                taps = extrapolation_weights(w, order).tolist()
                self.orders.append((w, taps, [coeff * x for x in taps], t_count - w))
        bones = np.zeros((0, 2), dtype=np.intp) if bones is None else np.asarray(bones)
        self.parents = bones[:, 0]
        self.children = bones[:, 1]
        self.scatter = _bone_scatter_rounds(bones)
        if uv is not None:
            self.obs_u = np.ascontiguousarray(uv[..., 0])
            self.obs_v = np.ascontiguousarray(uv[..., 1])
            self.conf = conf
            self.rep_weight = conf * coeff
            self.cam = cam

    def value(self, positions: np.ndarray, latents: np.ndarray
              ) -> tuple[float, float, float]:
        """(trajectory, reprojection, bone) loss at the given point."""
        # the depth check runs first, so a candidate behind the camera costs
        # no other term
        l_rep = self.reprojection(positions)
        return self.trajectory(positions), l_rep, self.bone(positions, latents)

    def grad(self, c_rep: float, c_bone: float) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of L_traj + c_rep*L_rep + c_bone*L_bone w.r.t. joints and
        latents at the point of the last ``value`` call."""
        g_bone, g_latents = self.bone_grad()
        grad_pos = self.trajectory_grad() + c_rep * self.reprojection_grad() \
            + c_bone * g_bone
        return grad_pos, c_bone * g_latents

    def trajectory(self, positions: np.ndarray) -> float:
        self.positions = positions
        self.traj_res = []
        loss = 0.0
        for w, taps, _, rows in self.orders:
            pred = taps[0] * positions[:rows]
            for j in range(1, w):
                pred += taps[j] * positions[j:j + rows]
            res = positions[w:] - pred
            loss += float(np.sum(res * res)) / self.k
            self.traj_res.append(res)
        return loss

    def trajectory_grad(self) -> np.ndarray:
        grad = np.zeros_like(self.positions)
        for (w, _, grad_taps, rows), res in zip(self.orders, self.traj_res):
            grad[w:] += self.coeff * res
            for j in range(w):
                grad[j:j + rows] -= grad_taps[j] * res
        return grad

    def bone(self, positions: np.ndarray, latents: np.ndarray) -> float:
        self.positions = positions
        diff = np.take(positions, self.children, axis=1) \
            - np.take(positions, self.parents, axis=1)  # (T, nB, 3)
        sq = diff * diff
        # the sum np.linalg.norm forms, without its reduction overhead
        self.bone_lengths = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
        self.bone_diff = diff
        self.bone_res = self.bone_lengths - latents
        return float(np.sum(self.bone_res * self.bone_res))

    def bone_grad(self) -> tuple[np.ndarray, np.ndarray]:
        unit = self.bone_diff / np.maximum(self.bone_lengths, 1e-12)[..., None]
        per_bone = (2.0 * self.bone_res)[..., None] * unit
        # scatter joint-major, so each group moves whole (T, 3) blocks
        per_bone = np.ascontiguousarray(per_bone.transpose(1, 0, 2))
        t_count = self.positions.shape[0]
        grad = np.zeros((self.k, t_count, 3))
        for sign, joints, bones in self.scatter:
            if sign > 0:
                grad[joints] += per_bone[bones]
            else:
                grad[joints] -= per_bone[bones]
        grad = np.ascontiguousarray(grad.transpose(1, 0, 2))
        return grad, -2.0 * self.bone_res.sum(axis=0)

    def reprojection(self, positions: np.ndarray) -> float:
        self.positions = positions
        z = positions[..., 2]
        if np.any(z <= 0):
            raise BehindCameraError("reprojection encountered a joint with z <= 0")
        cam = self.cam
        self.ru = cam.fx * positions[..., 0] / z + cam.cx - self.obs_u
        self.rv = cam.fy * positions[..., 1] / z + cam.cy - self.obs_v
        return float(np.sum(self.conf * (self.ru * self.ru + self.rv * self.rv)) / self.k)

    def reprojection_grad(self) -> np.ndarray:
        positions, cam = self.positions, self.cam
        x = positions[..., 0]
        y = positions[..., 1]
        z = positions[..., 2]
        w = self.rep_weight
        grad = np.empty_like(positions)
        grad[..., 0] = w * self.ru * (cam.fx / z)
        grad[..., 1] = w * self.rv * (cam.fy / z)
        grad[..., 2] = -w * (self.ru * cam.fx * x + self.rv * cam.fy * y) / (z * z)
        return grad


def _bone_scatter_rounds(bones: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Index groups that scatter per-bone gradients onto joints.

    Bone i adds its gradient to its child and subtracts it from its parent.
    Round r holds every joint's r-th update in bone order, as a child group
    (sign +1) and a parent group (sign -1) of (sign, joints, bones), so no
    joint repeats within a group and each joint receives its updates in the
    same order as a loop over the bones.  Any bones array works: trees in any
    order, and joints shared by several bones.
    """
    rounds: list[dict[int, tuple[list[int], list[int]]]] = []
    seen: dict[int, int] = {}
    for i, (parent, child) in enumerate(np.asarray(bones).tolist()):
        for joint, sign in ((child, 1), (parent, -1)):
            r = seen.get(joint, 0)
            seen[joint] = r + 1
            if r == len(rounds):
                rounds.append({1: ([], []), -1: ([], [])})
            rounds[r][sign][0].append(joint)
            rounds[r][sign][1].append(i)
    return [(sign, np.array(joints, dtype=np.intp), np.array(ids, dtype=np.intp))
            for groups in rounds for sign, (joints, ids) in groups.items() if joints]


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


def _track_objective(seq: TrackSequence, positions: np.ndarray,
                     observations: dict[int, Pose2D] | None,
                     cam: CameraIntrinsics, cfg: TtoConfig, skel: SkeletonSpec
                     ) -> _Objective:
    uv, conf = _observation_arrays(seq, observations, positions.shape[1])
    return _Objective(positions.shape[:2], windows=cfg.window_map(),
                      bones=skel.bone_array, uv=uv, conf=conf, cam=cam)


def tto_loss(seq: TrackSequence, observations: dict[int, Pose2D] | None,
             cam: CameraIntrinsics, state: TtoState, cfg: TtoConfig,
             stage: int, skel: SkeletonSpec) -> float:
    """Combined objective L_traj + c_rep(stage)*L_rep + c_bone*L_bone.

    The track's frames must be consecutive (``MisalignedFramesError``
    otherwise)."""
    joints = _consecutive_joints(seq)
    objective = _track_objective(seq, joints, observations, cam, cfg, skel)
    l_traj, l_rep, l_bone = objective.value(joints, state.bone_latents)
    return l_traj + cfg.c_rep(stage) * l_rep + cfg.c_bone * l_bone


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
    for stage in stages:
        c_rep = cfg.c_rep(stage)
        step = cfg.step_size
        comps = objective.value(positions, latents)
        comps = (*comps, comps[0] + c_rep * comps[1] + cfg.c_bone * comps[2])
        grad_pos, grad_lat = objective.grad(c_rep, cfg.c_bone)
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
                    cand_comps = objective.value(cand_pos, cand_lat)
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
                # the objective still holds the residuals of this candidate
                grad_pos, grad_lat = objective.grad(c_rep, cfg.c_bone)
                step = min(step * STEP_GROWTH, MAX_STEP)
            state.trace.append(TraceRow(
                iteration=iteration, stage=stage,
                l_traj=comps[0], l_rep=comps[1], l_bone=comps[2], total=comps[3],
            ))
            iteration += 1
    state.positions = positions
    state.bone_latents = latents
    return seq.with_joints(positions), state
