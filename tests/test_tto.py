import json
import math

import numpy as np
import pytest

from dualpose.camera import project
from dualpose.pipeline import contiguous_runs, write_traces
from dualpose.errors import InsufficientHistoryError, MisalignedFramesError, SchemaError
from dualpose.frames_io import RunConfig, load_config
from dualpose.skeleton import (
    Frame,
    Pose2D,
    Pose3D,
    TrackSequence,
    bone_lengths_of,
    default_skeleton,
    rest_pose,
)
from dualpose import tto
from dualpose.tto import (
    MAX_STEP,
    MIN_STEP,
    TtoConfig,
    TtoState,
    bone_loss,
    bone_loss_grad,
    extrapolation_weights,
    fit_trajectory,
    optimal_bone_latents,
    optimize,
    reprojection_loss_grad,
    trajectory_loss,
    trajectory_loss_grad,
    tto_loss,
)

from oracles import bone_loss_grad_loops, trajectory_loss_grad_loops


def make_track(joints, conf=None):
    t, k, _ = joints.shape
    frames = {
        i: Pose3D(joints=joints[i],
                  conf=np.ones(k) if conf is None else conf[i],
                  frame=Frame.CAMERA_CENTRIC)
        for i in range(t)
    }
    return TrackSequence(person_id=0, frames=frames)


def polyfit_prediction_oracle(history, order):
    """Independent extrapolation via np.polyfit per dimension."""
    history = np.atleast_2d(np.asarray(history, dtype=float).T).T
    w = history.shape[0]
    t = np.arange(w, dtype=float)
    out = np.empty(history.shape[1])
    for d in range(history.shape[1]):
        coeffs = np.polyfit(t, history[:, d], deg=order)
        out[d] = np.polyval(coeffs, float(w))
    return out


# --- fit_trajectory -------------------------------------------------------

def test_fit_constant_history():
    for order in (1, 2, 3):
        w = max(order + 1, 4)
        pred = fit_trajectory(np.full((w, 3), 7.5), order)
        assert np.allclose(pred, 7.5, atol=1e-9)


def test_fit_linear_scalar_series():
    assert fit_trajectory(np.array([0.0, 1.0, 2.0]), order=1) == pytest.approx(3.0, abs=1e-12)


def test_fit_cubic_reproduction():
    t = np.arange(5, dtype=float)
    coeffs = np.array([2.0, -1.5, 0.25, 0.125])
    series = coeffs[0] + coeffs[1] * t + coeffs[2] * t ** 2 + coeffs[3] * t ** 3
    pred = fit_trajectory(series, order=3)
    true = coeffs[0] + coeffs[1] * 5 + coeffs[2] * 25 + coeffs[3] * 125
    assert pred == pytest.approx(true, abs=1e-9)


def test_fit_matches_polyfit_oracle():
    rng = np.random.default_rng(81)
    for order in (1, 2, 3):
        for _ in range(10):
            w = int(rng.integers(order + 1, 8))
            history = rng.standard_normal((w, 3)) * 100.0
            assert np.allclose(fit_trajectory(history, order),
                               polyfit_prediction_oracle(history, order),
                               rtol=1e-8, atol=1e-6)


def test_fit_insufficient_history():
    with pytest.raises(InsufficientHistoryError):
        fit_trajectory(np.zeros((3, 3)), order=3)
    with pytest.raises(InsufficientHistoryError):
        extrapolation_weights(2, 2)


# --- trajectory loss ------------------------------------------------------

def linear_motion_joints(t_count, k, velocity=(3.0, -2.0, 5.0)):
    base = rest_pose() + (0.0, 0.0, 4000.0)
    t = np.arange(t_count, dtype=float)
    return base[None] + t[:, None, None] * np.asarray(velocity)


def test_trajectory_loss_zero_for_linear_motion():
    joints = linear_motion_joints(20, 15)
    seq = make_track(joints)
    assert trajectory_loss(seq, TtoConfig()) < 1e-12


def test_trajectory_loss_zero_for_static_sequence():
    joints = np.tile(rest_pose() + (0, 0, 4000.0), (12, 1, 1))
    assert trajectory_loss(make_track(joints), TtoConfig()) == pytest.approx(0.0, abs=1e-18)


def test_trajectory_order3_reproduces_cubic():
    t = np.arange(30, dtype=float)
    cubic = (np.stack([0.5 * t + 0.02 * t ** 3,
                       -0.3 * t + 0.05 * t ** 2,
                       4000 + 2 * t - 0.01 * t ** 3], axis=-1))
    joints = rest_pose()[None] + cubic[:, None, :]
    loss3, _ = trajectory_loss_grad(joints, {3: 5})
    assert loss3 < 1e-12


def test_trajectory_loss_matches_polyfit_oracle():
    rng = np.random.default_rng(82)
    t_count, k = 14, 4
    joints = 4000.0 + 50.0 * rng.standard_normal((t_count, k, 3))
    windows = {1: 2, 2: 5, 3: 5}
    loss, _ = trajectory_loss_grad(joints, windows)
    expected = 0.0
    for order, w in windows.items():
        for t in range(w, t_count):
            pred = np.stack([
                polyfit_prediction_oracle(joints[t - w:t, j], order)
                for j in range(k)
            ])
            expected += float(np.mean(np.sum((joints[t] - pred) ** 2, axis=-1)))
    assert loss == pytest.approx(expected, rel=1e-8)


def test_trajectory_loss_translation_invariance():
    rng = np.random.default_rng(83)
    joints = 4000.0 + 80.0 * rng.standard_normal((16, 5, 3))
    base, _ = trajectory_loss_grad(joints, {1: 2, 2: 5, 3: 5})
    shifted, _ = trajectory_loss_grad(joints + np.array([123.0, -55.0, 900.0]),
                                      {1: 2, 2: 5, 3: 5})
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_trajectory_short_sequence_contributes_zero():
    joints = 4000.0 + np.random.default_rng(84).standard_normal((3, 4, 3))
    loss, grad = trajectory_loss_grad(joints, {2: 5, 3: 5})
    assert loss == 0.0
    assert not grad.any()


def gapped_linear_track():
    """Exact 20 mm/frame motion on frames 0-9 and 20-29: each run is a fixed
    point of every loss term, but not if the gap were closed up."""
    base = rest_pose() + (0.0, 0.0, 4000.0)
    frames = list(range(10)) + list(range(20, 30))
    return TrackSequence(person_id=0, frames={
        t: Pose3D(joints=base + (20.0 * t, 0.0, 0.0), conf=np.ones(15),
                  frame=Frame.CAMERA_CENTRIC)
        for t in frames
    })


def test_gapped_track_rejected_by_trajectory_and_optimize(skel, cam):
    seq = gapped_linear_track()
    with pytest.raises(MisalignedFramesError, match="pipeline.contiguous_runs"):
        trajectory_loss(seq, TtoConfig())
    with pytest.raises(MisalignedFramesError, match="pipeline.contiguous_runs"):
        optimize(seq, None, cam, TtoConfig(iters_per_stage=5), skel)
    joints = seq.as_arrays()[1]
    state = TtoState(positions=joints, bone_latents=bone_lengths_of(joints[0], skel))
    with pytest.raises(MisalignedFramesError, match="pipeline.contiguous_runs"):
        tto_loss(seq, None, cam, state, TtoConfig(), stage=1, skel=skel)
    # each contiguous run is exact motion: zero loss, and optimize keeps it
    for run in contiguous_runs(seq):
        assert trajectory_loss(run, TtoConfig()) < 1e-12
        refined, _ = optimize(run, None, cam, TtoConfig(iters_per_stage=20), skel)
        np.testing.assert_allclose(refined.as_arrays()[1], run.as_arrays()[1],
                                   atol=1e-6)


# Loss and gradients against the loop oracles.  The vectorized core adds in
# another order, so they agree to float64 rounding: within 1e-12 relative to
# the largest magnitude of each compared quantity.
ORACLE_REL = 1e-12


def assert_close_to_oracle(value, expected):
    value, expected = np.asarray(value), np.asarray(expected)
    assert value.shape == expected.shape
    assert np.max(np.abs(value - expected)) <= ORACLE_REL * np.max(np.abs(expected))


def test_trajectory_loss_grad_matches_loop_oracle():
    rng = np.random.default_rng(94)
    c = tto.BLOCK  # frames per stencil block
    # ({3: 4}, 9) has one enabled order; the (t_count, default windows) cases
    # end one frame before, on and after a block edge, and mid-block after
    # three blocks; ({2: 12}, 30) has a window wider than BLOCK, and
    # ({1: 2, 3: 9}, 9) an order with rows beside one without.  The last
    # three have stencils with no rows: no enabled order, or a track shorter
    # than every window
    for windows, t_count in (({1: 2, 2: 5, 3: 5}, 30), ({1: 3, 3: 4}, 12),
                             ({2: 6}, 7), ({1: 2, 2: 5, 3: 5}, 5), ({3: 4}, 9),
                             ({1: 2, 2: 5, 3: 5}, c - 1), ({1: 2, 2: 5, 3: 5}, c),
                             ({1: 2, 2: 5, 3: 5}, c + 1), ({1: 2, 2: 5, 3: 5}, 3 * c + 2),
                             ({2: 12}, 30), ({1: 2, 3: 9}, 9),
                             ({}, 6), ({1: 2, 2: 5, 3: 5}, 2), ({2: 6}, 6)):
        joints = 4000.0 + 80.0 * rng.standard_normal((t_count, 6, 3))
        stencils = {o: extrapolation_weights(w, o) for o, w in windows.items()
                    if t_count > w}
        loss, grad = trajectory_loss_grad(joints, windows)
        expected_loss, expected_grad = trajectory_loss_grad_loops(joints, stencils)
        assert loss == pytest.approx(expected_loss, rel=ORACLE_REL)
        assert_close_to_oracle(grad, expected_grad)


def test_objectives_of_one_shape_keep_their_own_trajectory_state():
    # two objectives of the same (T, windows) share the cached stencil, not
    # their buffers: each gradient is that of its own last evaluation
    rng = np.random.default_rng(95)
    windows = {1: 2, 2: 5, 3: 5}
    first = tto._Objective((20, 6), windows=windows)
    second = tto._Objective((20, 6), windows=windows)
    for _ in range(3):
        x, y = 4000.0 + 80.0 * rng.standard_normal((2, 20, 6, 3))
        loss_x = first.trajectory(x)
        loss_y = second.trajectory(y)
        expected_x = trajectory_loss_grad(x, windows)
        expected_y = trajectory_loss_grad(y, windows)
        assert (loss_x, loss_y) == (expected_x[0], expected_y[0])
        assert np.array_equal(first.trajectory_grad(), expected_x[1])
        assert np.array_equal(second.trajectory_grad(), expected_y[1])


# --- bone loss ------------------------------------------------------------

def test_bone_loss_zero_for_matching_latents(skel):
    joints = np.tile(rest_pose() + (0, 0, 4000.0), (6, 1, 1))
    seq = make_track(joints)
    latents = bone_lengths_of(joints[0], skel)
    assert bone_loss(seq, latents, skel) == pytest.approx(0.0, abs=1e-18)


def test_bone_loss_two_frame_arithmetic():
    skel = default_skeleton()
    # scale the whole pose so every bone length scales by 0.9 / 1.1
    base = rest_pose()
    joints = np.stack([base * 0.9, base * 1.1]) + (0.0, 0.0, 4000.0)
    lengths = bone_lengths_of(base, skel)
    latents = lengths  # midpoint of the two scaled lengths
    loss = bone_loss(make_track(joints), latents, skel)
    expected = float(np.sum((0.9 * lengths - lengths) ** 2)
                     + np.sum((1.1 * lengths - lengths) ** 2))
    assert loss == pytest.approx(expected, rel=1e-12)


def test_optimal_bone_latents_is_temporal_mean(skel):
    rng = np.random.default_rng(85)
    joints = rest_pose()[None] + (0, 0, 4000.0) + 20.0 * rng.standard_normal((9, 15, 3))
    seq = make_track(joints)
    latents = optimal_bone_latents(seq, skel)
    lengths = bone_lengths_of(joints, skel)
    assert np.allclose(latents, lengths.mean(axis=0), atol=1e-12)
    # minimized loss equals frame count * summed temporal variance
    min_loss = bone_loss(seq, latents, skel)
    expected = joints.shape[0] * float(np.sum(lengths.var(axis=0)))
    assert min_loss == pytest.approx(expected, rel=1e-9)


def test_bone_loss_rigid_invariance(skel):
    rng = np.random.default_rng(86)
    joints = rest_pose()[None] + (0, 0, 4000.0) + 15.0 * rng.standard_normal((7, 15, 3))
    latents = rng.uniform(100, 500, size=len(skel.bones))
    base, _, _ = bone_loss_grad(joints, skel.bone_array, latents)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = joints @ q.T + np.array([900.0, -40.0, 1200.0])
    rotated, _, _ = bone_loss_grad(moved, skel.bone_array, latents)
    assert rotated == pytest.approx(base, rel=1e-9)


def test_bone_loss_grad_matches_loop_oracle(skel):
    rng = np.random.default_rng(95)
    tree = skel.bone_array
    shuffled = tree[rng.permutation(len(tree))]
    # joint 0 is the parent of three bones and joint 1 the child of three
    shared = np.array([[0, 1], [0, 2], [2, 1], [0, 3], [3, 1], [1, 4]])
    for bones, k in ((tree, 15), (tree[::-1], 15), (shuffled, 15), (shared, 5)):
        joints = 4000.0 + 150.0 * rng.standard_normal((9, k, 3))
        latents = np.abs(np.linalg.norm(joints[0, bones[:, 1]] - joints[0, bones[:, 0]],
                                        axis=-1) + 20.0 * rng.standard_normal(len(bones)))
        loss, grad_pos, grad_lat = bone_loss_grad(joints, bones, latents)
        expected = bone_loss_grad_loops(joints, bones, latents)
        assert loss == pytest.approx(expected[0], rel=ORACLE_REL)
        assert_close_to_oracle(grad_pos, expected[1])
        assert_close_to_oracle(grad_lat, expected[2])


# --- gradient checks ------------------------------------------------------

def finite_difference(fn, x, indices, h=1e-3):
    grad = {}
    for idx in indices:
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def random_instance(rng, t_count=8, k=6):
    joints = 3500.0 + 200.0 * rng.standard_normal((t_count, k, 3))
    joints[..., 2] = np.abs(joints[..., 2]) + 500.0
    return joints


def sample_indices(rng, shape, count):
    flat = rng.choice(np.prod(shape), size=count, replace=False)
    return [np.unravel_index(f, shape) for f in flat]


def test_trajectory_gradient_matches_fd():
    rng = np.random.default_rng(87)
    windows = {1: 2, 2: 5, 3: 5}
    joints = random_instance(rng, t_count=10)
    _, grad = trajectory_loss_grad(joints, windows)
    fd = finite_difference(lambda j: trajectory_loss_grad(j, windows)[0],
                           joints, sample_indices(rng, joints.shape, 12))
    for idx, val in fd.items():
        assert grad[idx] == pytest.approx(val, rel=1e-4, abs=1e-7)


def test_reprojection_gradient_matches_fd(cam):
    rng = np.random.default_rng(88)
    joints = random_instance(rng, t_count=6)
    uv = project(joints.reshape(-1, 3), cam).reshape(joints.shape[0], joints.shape[1], 2)
    uv += rng.standard_normal(uv.shape) * 5.0
    conf = rng.random(joints.shape[:2])
    _, grad = reprojection_loss_grad(joints, uv, conf, cam)
    fd = finite_difference(lambda j: reprojection_loss_grad(j, uv, conf, cam)[0],
                           joints, sample_indices(rng, joints.shape, 12))
    for idx, val in fd.items():
        assert grad[idx] == pytest.approx(val, rel=1e-4, abs=1e-7)


def test_bone_gradient_matches_fd(skel):
    rng = np.random.default_rng(89)
    joints = rest_pose()[None] + (0, 0, 4000.0) + 30.0 * rng.standard_normal((5, 15, 3))
    latents = bone_lengths_of(joints, skel).mean(axis=0) + rng.standard_normal(14) * 5.0
    _, grad_pos, grad_lat = bone_loss_grad(joints, skel.bone_array, latents)
    fd = finite_difference(
        lambda j: bone_loss_grad(j, skel.bone_array, latents)[0],
        joints, sample_indices(rng, joints.shape, 12))
    for idx, val in fd.items():
        assert grad_pos[idx] == pytest.approx(val, rel=1e-4, abs=1e-6)
    fd_lat = finite_difference(
        lambda b: bone_loss_grad(joints, skel.bone_array, b)[0],
        latents, [(i,) for i in range(len(latents))])
    for idx, val in fd_lat.items():
        assert grad_lat[idx] == pytest.approx(val, rel=1e-4, abs=1e-6)


# --- combined loss and optimizer ------------------------------------------

def consistent_sequence(skel, t_count=12):
    """Linear rigid motion: zero trajectory loss, constant bone lengths."""
    joints = linear_motion_joints(t_count, skel.num_joints)
    return make_track(joints), joints


def test_tto_loss_zero_on_consistent_input(skel, cam):
    seq, joints = consistent_sequence(skel)
    obs = {
        i: Pose2D(joints=project(joints[i], cam), conf=np.ones(skel.num_joints))
        for i in range(joints.shape[0])
    }
    state = TtoState(positions=joints,
                     bone_latents=bone_lengths_of(joints[0], skel))
    cfg = TtoConfig()
    assert tto_loss(seq, obs, cam, state, cfg, stage=1, skel=skel) < 1e-12


def test_tto_loss_stage_ratio(skel, cam):
    rng = np.random.default_rng(90)
    seq, joints = consistent_sequence(skel)
    uv = {
        i: Pose2D(joints=project(joints[i], cam) + 3.0, conf=np.ones(skel.num_joints))
        for i in range(joints.shape[0])
    }
    state = TtoState(positions=joints, bone_latents=bone_lengths_of(joints[0], skel))
    cfg = TtoConfig()
    l1 = tto_loss(seq, uv, cam, state, cfg, stage=1, skel=skel)
    l2 = tto_loss(seq, uv, cam, state, cfg, stage=2, skel=skel)
    # only the reprojection term is non-zero here
    assert l2 == pytest.approx(1000.0 * l1, rel=1e-9)


def test_tto_loss_composition(skel, cam):
    rng = np.random.default_rng(91)
    joints = rest_pose()[None] + (0, 0, 4000.0) + 25.0 * rng.standard_normal((9, 15, 3))
    seq = make_track(joints)
    uv = {
        i: Pose2D(joints=project(joints[i], cam) + rng.standard_normal((15, 2)),
                  conf=np.ones(15))
        for i in range(9)
    }
    latents = bone_lengths_of(joints, skel).mean(axis=0)
    state = TtoState(positions=joints, bone_latents=latents)
    cfg = TtoConfig()
    total = tto_loss(seq, uv, cam, state, cfg, stage=2, skel=skel)
    l_traj, _ = trajectory_loss_grad(joints, cfg.window_map())
    uv_arr = np.stack([uv[i].joints for i in range(9)])
    conf_arr = np.ones((9, 15))
    l_rep, _ = reprojection_loss_grad(joints, uv_arr, conf_arr, cam)
    l_bone, _, _ = bone_loss_grad(joints, skel.bone_array, latents)
    assert total == l_traj + cfg.c_rep_stage2 * l_rep + cfg.c_bone * l_bone


def test_tto_loss_misaligned_observations(skel, cam):
    seq, joints = consistent_sequence(skel)
    obs = {999: Pose2D(joints=np.zeros((15, 2)), conf=np.zeros(15))}
    state = TtoState(positions=joints, bone_latents=bone_lengths_of(joints[0], skel))
    with pytest.raises(MisalignedFramesError):
        tto_loss(seq, obs, cam, state, TtoConfig(), stage=1, skel=skel)


def test_optimize_identity_on_optimal_input(skel, cam):
    seq, joints = consistent_sequence(skel, t_count=10)
    obs = {
        i: Pose2D(joints=project(joints[i], cam), conf=np.ones(skel.num_joints))
        for i in range(joints.shape[0])
    }
    cfg = TtoConfig(iters_per_stage=20)
    refined, state = optimize(seq, obs, cam, cfg, skel)
    _, out_joints, _ = refined.as_arrays()
    assert np.max(np.abs(out_joints - joints)) < 1e-9
    totals = [row.total for row in state.trace]
    assert max(totals) - min(totals) < 1e-12


def test_optimize_monotone_trace_and_improvement(skel, cam):
    rng = np.random.default_rng(92)
    t_count = 40
    clean = linear_motion_joints(t_count, skel.num_joints)
    noisy = clean + 30.0 * rng.standard_normal(clean.shape)
    noisy[..., 2] = np.maximum(noisy[..., 2], 100.0)
    seq = make_track(noisy)
    obs = {
        i: Pose2D(joints=project(clean[i], cam), conf=np.ones(skel.num_joints))
        for i in range(t_count)
    }
    cfg = TtoConfig(iters_per_stage=120)
    refined, state = optimize(seq, obs, cam, cfg, skel)
    stages = {row.stage for row in state.trace}
    assert stages == {1, 2}
    for stage in stages:
        totals = [row.total for row in state.trace if row.stage == stage]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    _, out_joints, _ = refined.as_arrays()
    err_before = float(np.mean(np.linalg.norm(noisy - clean, axis=-1)))
    err_after = float(np.mean(np.linalg.norm(out_joints - clean, axis=-1)))
    assert err_after < err_before
    # with exact observations and the large stage-2 coefficient, the
    # reprojection residual ends below that of the noisy input
    uv_arr = np.stack([obs[i].joints for i in range(t_count)])
    conf_arr = np.ones((t_count, skel.num_joints))
    from dualpose.tto import reprojection_loss_grad

    rep_in, _ = reprojection_loss_grad(noisy, uv_arr, conf_arr, cam)
    rep_out, _ = reprojection_loss_grad(out_joints, uv_arr, conf_arr, cam)
    assert rep_out < rep_in
    assert state.trace[-1].l_rep == pytest.approx(rep_out, rel=1e-9)


def image_plane_scene(cam):
    """Shallow depths with wildly inconsistent observations: huge
    reprojection gradients, so big steps overshoot past the image plane."""
    rng = np.random.default_rng(93)
    joints = rest_pose()[None] * 0.02 + (0.0, 0.0, 60.0) \
        + 2.0 * rng.standard_normal((8, 15, 3))
    joints[..., 2] = np.abs(joints[..., 2] - 60.0) + 40.0
    obs = {
        i: Pose2D(joints=project(joints[i], cam) + 200.0, conf=np.ones(15))
        for i in range(8)
    }
    return make_track(joints), obs, TtoConfig(iters_per_stage=60, step_size=1.0)


def test_optimize_rejects_steps_past_image_plane(skel, cam):
    # overshooting candidates must be halved, not crash
    seq, obs, cfg = image_plane_scene(cam)
    refined, state = optimize(seq, obs, cam, cfg, skel)
    _, out_joints, _ = refined.as_arrays()
    assert np.all(out_joints[..., 2] > 0)
    for stage in {row.stage for row in state.trace}:
        totals = [row.total for row in state.trace if row.stage == stage]
        assert all(b <= a for a, b in zip(totals, totals[1:]))


def test_trace_records_step_and_halvings(skel, cam):
    seq, obs, cfg = image_plane_scene(cam)
    _, state = optimize(seq, obs, cam, cfg, skel)
    assert any(row.halvings > 0 for row in state.trace)
    # replay the step schedule: each row starts from the previous step
    # (doubled after an accepted one), halves it `halvings` times, and
    # reports the step it was accepted at, else the last one it tried
    step, stage, accepted = cfg.step_size, 1, 0
    for row in state.trace:
        if row.stage != stage:
            step, stage = cfg.step_size, row.stage
        final = step * 0.5 ** row.halvings
        if final >= MIN_STEP:
            accepted += 1
            assert row.step == final
            step = min(2.0 * final, MAX_STEP)
        else:
            if row.halvings:
                assert row.step == final * 2.0
            step = final
        assert row.step >= MIN_STEP
    assert accepted > 0


def test_no_observations_equal_zero_confidence_observations(skel, cam):
    rng = np.random.default_rng(96)
    clean = linear_motion_joints(12, skel.num_joints)
    seq = make_track(clean + 20.0 * rng.standard_normal(clean.shape))
    zero_conf = {
        i: Pose2D(joints=project(clean[i], cam) + 50.0, conf=np.zeros(skel.num_joints))
        for i in range(12)
    }
    cfg = TtoConfig(iters_per_stage=30)
    refined_none, state_none = optimize(seq, None, cam, cfg, skel)
    refined_zero, state_zero = optimize(seq, zero_conf, cam, cfg, skel)
    assert np.array_equal(refined_none.as_arrays()[1], refined_zero.as_arrays()[1])
    assert state_none.trace == state_zero.trace
    assert all(row.l_rep == 0.0 for row in state_none.trace)


def test_no_observations_huge_step_stays_in_front_of_camera(skel, cam):
    # a rigid track running into the image plane and stopping just short of
    # it: the trajectory term pulls the last frames to z < 0, so a step that
    # lowers the loss can cross the plane.  Without observations there is no
    # reprojection term, but the depth check still rejects such a candidate.
    z = np.array([40.0, 30.0, 20.0, 10.0, 2.0, 2.0])
    joints = rest_pose()[None] * 0.05 + z[:, None, None] * (0.0, 0.0, 1.0)
    cfg = TtoConfig(iters_per_stage=40, step_size=1e6)
    refined, state = optimize(make_track(joints), None, cam, cfg, skel)
    assert np.all(refined.as_arrays()[1][..., 2] > 0)
    assert any(row.halvings > 0 for row in state.trace)


def test_step_behind_camera_is_rejected_at_an_infinite_total(skel, cam, monkeypatch):
    # the scene above, with the stage's first total reported as inf: every
    # candidate in front of the camera lowers it, but one behind the camera
    # has no loss and must still be halved away
    z = np.array([40.0, 30.0, 20.0, 10.0, 2.0, 2.0])
    joints = rest_pose()[None] * 0.05 + z[:, None, None] * (0.0, 0.0, 1.0)
    real_total = tto._stage_total
    calls = []

    def first_total_inf(*args):
        calls.append(args)
        return math.inf if len(calls) == 1 else real_total(*args)

    monkeypatch.setattr(tto, "_stage_total", first_total_inf)
    cfg = TtoConfig(iters_per_stage=1, step_size=1e6, two_stage=False)
    refined, state = optimize(make_track(joints), None, cam, cfg, skel)
    assert state.trace[0].halvings > 0
    assert math.isfinite(state.trace[0].total)
    assert np.all(refined.as_arrays()[1][..., 2] > 0)


def test_optimize_without_trajectory_rows(skel, cam):
    # a track shorter than every window and windows=(0, 0, 0) both give a
    # stencil with no rows: the same bone-only descent, with no trajectory loss
    rng = np.random.default_rng(98)
    joints = rest_pose()[None] + (0, 0, 4000.0) + 15.0 * rng.standard_normal((2, 15, 3))
    seq = make_track(joints)
    short, short_state = optimize(seq, None, cam, TtoConfig(iters_per_stage=15), skel)
    off, off_state = optimize(seq, None, cam,
                              TtoConfig(windows=(0, 0, 0), iters_per_stage=15), skel)
    assert np.array_equal(short.as_arrays()[1], off.as_arrays()[1])
    assert short_state.trace == off_state.trace
    assert all(row.l_traj == 0.0 for row in short_state.trace)
    assert short_state.trace[-1].l_bone < short_state.trace[0].l_bone


def test_optimize_single_order_trace_matches_loop_oracle(skel, cam):
    rng = np.random.default_rng(99)
    joints = linear_motion_joints(11, skel.num_joints) \
        + 10.0 * rng.standard_normal((11, skel.num_joints, 3))
    cfg = TtoConfig(windows=(0, 3, 0), iters_per_stage=15)
    refined, state = optimize(make_track(joints), None, cam, cfg, skel)
    out = refined.as_arrays()[1]
    expected, _ = trajectory_loss_grad_loops(out, {2: extrapolation_weights(3, 2)})
    assert state.trace[-1].l_traj == pytest.approx(expected, rel=ORACLE_REL)
    assert state.trace[-1].l_traj < state.trace[0].l_traj


def test_optimize_trace_csv(tmp_path, skel, cam):
    seq, joints = consistent_sequence(skel, t_count=8)
    cfg = TtoConfig(iters_per_stage=3)
    _, state = optimize(seq, None, cam, cfg, skel)
    write_traces({seq.person_id: state.trace}, tmp_path / "trace.csv")
    text = (tmp_path / "trace.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "track,iteration,stage,l_traj,l_rep,l_bone,total,step,halvings"
    assert len(lines) == 1 + len(state.trace)
    first = state.trace[0]
    assert lines[1] == ",".join(str(v) for v in (
        seq.person_id, first.iteration, first.stage, repr(first.l_traj),
        repr(first.l_rep), repr(first.l_bone), repr(first.total),
        repr(first.step), first.halvings))


def test_config_validation():
    with pytest.raises(ValueError):
        TtoConfig(windows=(1, 5, 5))  # order 1 needs >= 2
    with pytest.raises(ValueError):
        TtoConfig(windows=(2, 5, 3))  # order 3 needs >= 4
    with pytest.raises(ValueError):
        TtoConfig(iters_per_stage=0)
    cfg = TtoConfig(windows=(2, 0, 0))
    assert cfg.window_map() == {1: 2}


@pytest.mark.parametrize("field, value", [
    ("windows", (-3, 5, 5)), ("windows", (2, -1, 5)), ("windows", (2.5, 5, 5)),
    ("step_size", float("nan")), ("step_size", float("inf")),
    ("c_rep_stage1", float("nan")), ("c_rep_stage2", float("inf")),
    ("c_bone", float("nan")), ("c_bone", float("inf")),
])
def test_config_rejects_negative_window_and_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        TtoConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("iters_per_stage", 2.5), ("iters_per_stage", True), ("two_stage", "no"),
])
def test_config_rejects_non_integer_iters_and_non_bool_two_stage(field, value):
    with pytest.raises(ValueError, match=field):
        TtoConfig(**{field: value})


def test_config_accepts_numpy_integer_iters(skel, cam):
    cfg = TtoConfig(iters_per_stage=np.int64(3))
    seq, _ = consistent_sequence(skel, t_count=8)
    _, state = optimize(seq, None, cam, cfg, skel)
    assert len(state.trace) == 2 * 3


def test_config_file_with_negative_window_names_the_field(tmp_path):
    data = RunConfig.default().to_dict()
    data["tto"]["windows"] = [-3, 5, 5]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=r"config\.tto: windows: order 1"):
        load_config(path)
