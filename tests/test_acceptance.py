"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as pinned were produced by a pilot run of
this implementation and act as regression bounds.
"""
import functools
import json

import numpy as np
import pytest

from dualpose.camera import CameraIntrinsics, project
from dualpose.frames_io import RunConfig
from dualpose.heatmaps import decode_stack, render_stack
from dualpose.matching import MatchConfig, match_sets, oks, similarity_matrix
from dualpose.metrics import (
    MetricThresholds,
    ap_root,
    auc_rel,
    auc_thresholds,
    evaluate_frames,
    f1_at,
    mpjpe,
    pa_mpjpe,
    pck,
    pck_abs,
    pck_set,
)
from dualpose.skeleton import (
    Frame,
    Pose2D,
    Pose3D,
    TrackSequence,
    bone_lengths_of,
    default_skeleton,
    pose3d_camera,
    rest_pose,
)
from dualpose.synth import (
    MotionSpec,
    SceneSpec,
    benchmark_camera,
    generate,
    make_benchmark_spec,
)
from dualpose.tto import (
    TtoConfig,
    bone_loss_grad,
    optimize,
    reprojection_loss_grad,
    trajectory_loss_grad,
)

import oracles
from conftest import random_point_pose

SKEL = default_skeleton()

# Pilot-pinned panel means for the refinement benchmark (criterion 7).
PANEL_BEFORE_MM = 63.3719864636101
PANEL_ONE_STAGE_MM = 22.96131377443575
PANEL_TWO_STAGE_MM = 13.51457905542676


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number:2d}: {description}")
                raise
            print(f"[PASS] criterion {number:2d}: {description}")
        return wrapper
    return decorate


@criterion(1, "assignment optimality vs exhaustive brute force (500 instances)")
def test_criterion_01_assignment_optimality():
    rng = np.random.default_rng(1001)
    cfg = MatchConfig(fixed_scale_mm=700.0, tau_match=0.0)
    for _ in range(500):
        n_td = int(rng.integers(0, 8))
        n_bu = int(rng.integers(0, 8))
        td = [random_point_pose(rng, 15, spread_mm=900.0, conf=rng.random(15))
              for _ in range(n_td)]
        bu = [random_point_pose(rng, 15, spread_mm=900.0, conf=rng.random(15))
              for _ in range(n_bu)]
        sim = similarity_matrix(td, bu, cfg)
        result = match_sets(td, bu, cfg)
        total = 0.0
        for i, j, _ in sorted(result.pairs):
            total += float(sim[i, j])
        assert total == oracles.brute_force_assignment_total(sim)


@criterion(2, "OKS identities: unit at zero distance, exp(-1) point, monotone")
def test_criterion_02_oks_identities():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        p = rng.uniform(-1000, 1000, 3)
        s = float(rng.uniform(50, 2000))
        sigma = float(rng.uniform(0.02, 0.2))
        assert oks(p, p, s, sigma) == 1.0
        d = s * sigma * np.sqrt(2.0)
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        assert abs(oks(p, p + d * direction, s, sigma) - np.exp(-1.0)) < 1e-12
        # strict decrease along sampled distances (within representable range)
        dists = np.sort(rng.uniform(0.1, 4.0 * s * sigma, size=8))
        values = [oks(p, p + direction * dd, s, sigma) for dd in dists]
        assert all(b < a for a, b in zip(values, values[1:]))


def _fd_check(rng, value_grad, x, count, h=1e-3, rel_tol=1e-4):
    _, grad = value_grad(x)
    flat_idx = rng.choice(x.size, size=min(count, x.size), replace=False)
    for flat in flat_idx:
        idx = np.unravel_index(flat, x.shape)
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        fd = (value_grad(xp)[0] - value_grad(xm)[0]) / (2.0 * h)
        denom = max(abs(fd), 1e-6)
        assert abs(grad[idx] - fd) / denom < rel_tol, (idx, grad[idx], fd)


@criterion(3, "analytic gradients match central finite differences (rel 1e-4)")
def test_criterion_03_gradient_correctness(cam):
    rng = np.random.default_rng(1003)
    windows = {1: 2, 2: 5, 3: 5}
    bones = SKEL.bone_array
    cfg = TtoConfig()
    for case in range(100):
        # one 3-person scene per case; persons optimize independently, so the
        # combined gradient is checked track by track (20 frames x 15 joints)
        for person in range(3):
            center = np.array([(person - 1) * 1500.0, 0.0, 4000.0 + 400.0 * person])
            joints = rest_pose()[None] + center \
                + 60.0 * rng.standard_normal((20, 15, 3))
            uv = project(joints.reshape(-1, 3), cam).reshape(20, 15, 2)
            uv += 4.0 * rng.standard_normal(uv.shape)
            conf = rng.random((20, 15))
            latents = bone_lengths_of(joints, SKEL).mean(axis=0) \
                + 10.0 * rng.standard_normal(len(bones))
            latents = np.abs(latents)

            _fd_check(rng, lambda x: trajectory_loss_grad(x, windows), joints, 2)
            _fd_check(rng, lambda x: reprojection_loss_grad(x, uv, conf, cam),
                      joints, 2)
            _fd_check(rng, lambda x: bone_loss_grad(x, bones, latents)[:2],
                      joints, 2)

            def combined(x):
                lt, gt_ = trajectory_loss_grad(x, windows)
                lr, gr = reprojection_loss_grad(x, uv, conf, cam)
                lb, gb, _ = bone_loss_grad(x, bones, latents)
                c_rep = cfg.c_rep_stage2
                return (lt + c_rep * lr + cfg.c_bone * lb,
                        gt_ + c_rep * gr + cfg.c_bone * gb)

            _fd_check(rng, combined, joints, 2)

            def latent_side(b):
                loss, _, grad_b = bone_loss_grad(joints, bones, b)
                return loss, grad_b

            _fd_check(rng, latent_side, latents, 2)


@criterion(4, "trajectory reproduction: linear exact, cubic exact at order 3")
def test_criterion_04_trajectory_reproduction():
    rng = np.random.default_rng(1004)
    t = np.arange(40, dtype=float)
    for _ in range(10):
        base = rest_pose() + (0.0, 0.0, 4500.0)
        vel = rng.uniform(-8, 8, 3)
        linear = base[None] + t[:, None, None] * vel
        loss, _ = trajectory_loss_grad(linear, {1: 2, 2: 5, 3: 5})
        assert loss < 1e-12
        cubic_coeffs = rng.uniform(-1, 1, (4, 3)) * np.array([[50], [5.0], [0.1], [0.002]])
        cubic = base[None] + np.stack([
            np.polyval(cubic_coeffs[::-1, d], t) for d in range(3)
        ], axis=-1)[:, None, :]
        order3, _ = trajectory_loss_grad(cubic, {3: 5})
        assert order3 < 1e-12


@criterion(5, "bone latents: descent reaches temporal means; closed-form minimum")
def test_criterion_05_bone_closed_form():
    rng = np.random.default_rng(1005)
    bones = SKEL.bone_array
    for _ in range(20):
        t_count = int(rng.integers(3, 12))
        joints = rest_pose()[None] + (0.0, 0.0, 4000.0) \
            + 25.0 * rng.standard_normal((t_count, 15, 3))
        lengths = bone_lengths_of(joints, SKEL)
        target = lengths.mean(axis=0)
        latents = np.abs(target + 40.0 * rng.standard_normal(len(bones)))
        step = 0.4 / t_count
        for _ in range(200):
            _, _, grad_b = bone_loss_grad(joints, bones, latents)
            latents = np.maximum(latents - step * grad_b, 0.0)
        assert np.max(np.abs(latents - target)) < 1e-6
        min_loss, _, _ = bone_loss_grad(joints, bones, target)
        expected = t_count * float(np.sum(lengths.var(axis=0)))
        assert min_loss == pytest.approx(expected, rel=1e-9)


@criterion(6, "Procrustes removes similarity transforms; never above MPJPE")
def test_criterion_06_procrustes():
    rng = np.random.default_rng(1006)
    for _ in range(1000):
        gt = random_point_pose(rng, 15, spread_mm=rng.uniform(100, 600))
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        scale = float(rng.uniform(0.5, 2.0))
        trans = rng.uniform(-3000, 3000, 3)
        pred = pose3d_camera(scale * gt.joints @ q.T + trans)
        assert pa_mpjpe(pred, gt) < 1e-9
    for _ in range(300):
        a = random_point_pose(rng, 15)
        b = random_point_pose(rng, 15)
        assert pa_mpjpe(a, b) <= mpjpe(a, b, SKEL) + 1e-9


def _panel_mpjpe(seed, two_stage):
    spec = make_benchmark_spec(seed=seed)
    cam = benchmark_camera()
    data = generate(spec, cam, SKEL)
    cfg = TtoConfig(iters_per_stage=300, two_stage=two_stage)
    before, after, traces = [], [], []
    for p in range(spec.num_persons):
        noisy = TrackSequence(p, {t: data.noisy_td[t][p]
                                  for t in range(spec.num_frames)})
        obs = {t: data.obs_2d[t][p] for t in range(spec.num_frames)}
        refined, state = optimize(noisy, obs, cam, cfg, SKEL)
        traces.append(state.trace)
        gt = data.gt_tracks[p]
        for t in range(spec.num_frames):
            before.append(mpjpe(noisy.frames[t], gt.frames[t], SKEL))
            after.append(mpjpe(refined.frames[t], gt.frames[t], SKEL))
    return float(np.mean(before)), float(np.mean(after)), traces


@criterion(7, "refinement efficacy on the 10-seed benchmark panel (pinned)")
def test_criterion_07_refinement_panel():
    before_means, one_means, two_means = [], [], []
    all_traces = []
    for seed in range(10):
        before, two, traces = _panel_mpjpe(seed, two_stage=True)
        _, one, _ = _panel_mpjpe(seed, two_stage=False)
        assert two < before, f"seed {seed}: two-stage did not improve"
        assert one < before, f"seed {seed}: one-stage did not improve"
        before_means.append(before)
        one_means.append(one)
        two_means.append(two)
        all_traces.extend(traces)
    mean_before = float(np.mean(before_means))
    mean_one = float(np.mean(one_means))
    mean_two = float(np.mean(two_means))
    # two-stage at least as good as one-stage on the panel mean (direction of
    # the published one-stage/two-stage ordering)
    assert mean_two <= mean_one
    assert mean_before == pytest.approx(PANEL_BEFORE_MM, rel=1e-6)
    assert mean_one == pytest.approx(PANEL_ONE_STAGE_MM, rel=1e-6)
    assert mean_two == pytest.approx(PANEL_TWO_STAGE_MM, rel=1e-6)
    # stash the traces for the monotonicity criterion
    test_criterion_07_refinement_panel.traces = all_traces


@criterion(8, "metric oracle equivalence on 200 randomized instances")
def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(1008)
    root = SKEL.root_index
    thresholds = MetricThresholds()
    for _ in range(200):
        n_gt = int(rng.integers(1, 5))
        gts = [random_point_pose(rng, 15,
                                 center=(rng.uniform(-3000, 3000), 0.0,
                                         rng.uniform(3000, 8000)),
                                 spread_mm=300.0)
               for _ in range(n_gt)]
        n_pred = max(0, n_gt + int(rng.integers(-1, 2)))
        preds = []
        for i in range(n_pred):
            base = gts[i % n_gt].joints
            preds.append(Pose3D(
                joints=base + rng.standard_normal((15, 3)) * rng.uniform(10, 300),
                conf=rng.random(15),
                frame=Frame.CAMERA_CENTRIC,
            ))
        # pairwise metrics on a matched pair
        if preds:
            p0, g0 = preds[0], gts[0]
            assert mpjpe(p0, g0, SKEL) == pytest.approx(
                float(np.mean([np.linalg.norm(
                    (p0.joints[k] - p0.joints[root]) - (g0.joints[k] - g0.joints[root]))
                    for k in range(15)])), abs=1e-9)
            assert pa_mpjpe(p0, g0) == pytest.approx(
                oracles.horn_similarity_mpjpe(p0.joints, g0.joints), abs=1e-9)
            hits = sum(1 for k in range(15) if np.linalg.norm(
                (p0.joints[k] - p0.joints[root]) - (g0.joints[k] - g0.joints[root]))
                < thresholds.pck_mm)
            assert pck(p0, g0, thresholds.pck_mm, SKEL) == hits / 15
            hits_abs = sum(1 for k in range(15) if np.linalg.norm(
                p0.joints[k] - g0.joints[k]) < thresholds.pck_abs_mm)
            assert pck_abs(p0, g0, thresholds.pck_abs_mm) == hits_abs / 15
        # set-level metrics
        for t in auc_thresholds()[::7]:
            assert pck_set(preds, gts, t, SKEL) == oracles.set_pck_loops(
                preds, gts, t, root, absolute=False)
        grid = auc_thresholds()
        expected_auc = sum(
            oracles.set_pck_loops(preds, gts, t, root, absolute=False)
            for t in grid) / len(grid)
        assert auc_rel(preds, gts, SKEL) == pytest.approx(expected_auc, abs=1e-12)
        # the aggregate report counts through the same set-level path
        report = evaluate_frames([preds], [gts], SKEL, thresholds)
        assert report.pck / 100 == pytest.approx(oracles.set_pck_loops(
            preds, gts, thresholds.pck_mm, root, absolute=False), abs=1e-12)
        assert report.pck == 100 * pck_set(preds, gts, thresholds.pck_mm, SKEL)
        assert report.pck_abs / 100 == pytest.approx(oracles.set_pck_loops(
            preds, gts, thresholds.pck_abs_mm, root, absolute=True), abs=1e-12)
        assert report.auc_rel / 100 == pytest.approx(expected_auc, abs=1e-12)
        assert ap_root(preds, gts, SKEL) == pytest.approx(
            oracles.ap_root_loops(preds, gts, thresholds.ap_root_radius_mm, root),
            abs=1e-12)
        for t in (0.4, 0.8, 1.2):
            assert f1_at(preds, gts, t, SKEL) == pytest.approx(
                oracles.f1_loops(preds, gts, t, root), abs=1e-12)
    # perfect-prediction identities
    gts = [random_point_pose(rng, 15, center=(i * 2500.0, 0, 4000))
           for i in range(3)]
    assert mpjpe(gts[0], gts[0], SKEL) == 0.0
    assert pck_set(gts, gts, thresholds.pck_mm, SKEL) == 1.0
    assert pck_set(gts, gts, thresholds.pck_abs_mm, SKEL, absolute=True) == 1.0
    assert auc_rel(gts, gts, SKEL) == 1.0
    assert ap_root(gts, gts, SKEL) == 1.0
    for t in (0.4, 0.8, 1.2):
        assert f1_at(gts, gts, t, SKEL) == 1.0


def _random_separated_scene(rng, cam, sigma_px):
    lanes_u = np.array([-32.0, 0.0, 32.0])  # px offsets from principal point
    n = int(rng.integers(1, 4))
    chosen = rng.choice(3, size=n, replace=False)
    poses = []
    for lane in sorted(chosen):
        depth = float(rng.uniform(3800, 4400))
        x_mm = (lanes_u[lane] + rng.uniform(-6, 6)) * depth / cam.fx
        y_mm = rng.uniform(-100, 100)
        joints = rest_pose() + (x_mm, y_mm, depth)
        joints += rng.standard_normal((15, 3)) * 20.0  # articulation jitter
        poses.append(pose3d_camera(joints))
    # enforce per-joint lateral separation >= 4 sigma in pixels
    uv = [project(p.joints, cam) for p in poses]
    for i in range(len(poses)):
        for j in range(i + 1, len(poses)):
            if np.min(np.linalg.norm(uv[i] - uv[j], axis=-1)) < 4.0 * sigma_px:
                return None
    return poses


@criterion(9, "heatmap render/decode round trip on 100 separated scenes")
def test_criterion_09_heatmap_round_trip():
    rng = np.random.default_rng(1009)
    cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    sigma_px = 2.0
    done = 0
    while done < 100:
        poses = _random_separated_scene(rng, cam, sigma_px)
        if poses is None:
            continue
        stack = render_stack(poses, cam, SKEL, width=128, height=96,
                             sigma_px=sigma_px)
        decoded = decode_stack(stack, SKEL)
        assert len(decoded) == len(poses)
        uv_true = [project(p.joints, cam) for p in poses]
        claimed = set()
        for p2d, z_root, z_rel in decoded:
            assert np.all(p2d.conf > 0.0)  # every joint recovered
            # grouping: all joints belong to a single ground-truth person
            errors = [np.max(np.linalg.norm(p2d.joints - uv, axis=-1))
                      for uv in uv_true]
            owner = int(np.argmin(errors))
            assert errors[owner] <= 0.5
            assert owner not in claimed
            claimed.add(owner)
            truth = poses[owner]
            assert abs(z_root - truth.joints[SKEL.root_index, 2]) <= 1e-3
            rel_true = truth.joints[:, 2] - truth.joints[SKEL.root_index, 2]
            assert np.max(np.abs(z_rel - rel_true)) <= 1e-3
        done += 1


@criterion(10, "accepted loss trace is non-increasing within every stage")
def test_criterion_10_monotone_optimizer(cam):
    rng = np.random.default_rng(1010)
    traces = list(getattr(test_criterion_07_refinement_panel, "traces", []))
    # independent mini panel in case criterion 7 has not run yet
    for case in range(3):
        t_count = 30
        base = rest_pose() + (0.0, 0.0, 4200.0)
        clean = base[None] + np.arange(t_count)[:, None, None] * rng.uniform(-6, 6, 3)
        noisy = clean + 35.0 * rng.standard_normal(clean.shape)
        seq = TrackSequence(0, {
            t: pose3d_camera(noisy[t]) for t in range(t_count)
        })
        obs = {t: Pose2D(joints=project(clean[t], cam), conf=np.ones(15))
               for t in range(t_count)}
        _, state = optimize(seq, obs, cam, TtoConfig(iters_per_stage=80), SKEL)
        traces.append(state.trace)
    assert traces
    for trace in traces:
        by_stage = {}
        for row in trace:
            by_stage.setdefault(row.stage, []).append(row.total)
        for totals in by_stage.values():
            assert all(b <= a for a, b in zip(totals, totals[1:]))


@criterion(11, "byte-identical outputs for identical config and seed")
def test_criterion_11_determinism(tmp_path):
    from dualpose.cli import main

    config = RunConfig.default().to_dict()
    config["seed"] = 77
    config["tto"]["iters_per_stage"] = 8
    config["scene"] = {
        "num_persons": 2,
        "num_frames": 12,
        "motions": [
            {"kind": "linear",
             "root_coeffs": [[-800.0, 250.0, 4000.0], [5.0, 0.0, 8.0]]},
            {"kind": "polynomial",
             "root_coeffs": [[900.0, 250.0, 5000.0], [-4.0, 1.0, 6.0],
                             [0.02, 0.0, -0.03]]},
        ],
        "sigma_3d_mm": 25.0,
        "seed": 77,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    scene = tmp_path / "scene"
    assert main(["synth", "--config", str(config_path), "--out", str(scene)]) == 0
    blobs = []
    for label in ("first", "second"):
        out = tmp_path / label
        code = main([
            "run", "--config", str(config_path), "--out", str(out),
            str(scene / "td.jsonl"), str(scene / "bu.jsonl"),
            "--gt", str(scene / "gt.jsonl"), "--obs", str(scene / "obs.jsonl"),
            "--trace", str(out / "trace.csv"),
        ])
        assert code == 0
        blobs.append({
            name: (out / name).read_bytes()
            for name in ("fused.jsonl", "refined.jsonl", "report.json",
                         "report.csv", "trace.csv")
        })
    assert blobs[0] == blobs[1]
