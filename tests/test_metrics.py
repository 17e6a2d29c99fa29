import numpy as np
import pytest

from dualpose.errors import DegenerateGeometryError, FrameMismatchError, SchemaError
from dualpose.frames_io import RunConfig
from dualpose.metrics import (
    MetricThresholds,
    ap_root,
    auc_rel,
    auc_thresholds,
    evaluate_frames,
    f1_at,
    f1_counts,
    f1_from_counts,
    greedy_root_match,
    mpjpe,
    pa_mpjpe,
    pck,
    pck_abs,
    ap_root_pooled,
    pck_set,
    similarity_align,
)
from dualpose.skeleton import Frame, Pose3D, pose3d_camera, pose3d_person, rest_pose

from conftest import random_camera_pose, random_point_pose
from oracles import (
    ap_root_pooled_loops,
    f1_counts_loops,
    greedy_root_match_loops,
    pa_mpjpe_pairs,
    similarity_align_pair,
)
from oracles import horn_similarity_mpjpe as horn_similarity_oracle


def rand_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_mpjpe_identity(skel):
    rng = np.random.default_rng(101)
    pose = random_camera_pose(rng, skel)
    assert mpjpe(pose, pose, skel) == 0.0


def test_mpjpe_translation_invariance(skel):
    rng = np.random.default_rng(102)
    pose = random_camera_pose(rng, skel)
    moved = pose3d_camera(pose.joints + (500.0, -300.0, 1200.0))
    assert mpjpe(moved, pose, skel) < 1e-9


def test_mpjpe_single_offset_joint(skel):
    rng = np.random.default_rng(103)
    gt = random_camera_pose(rng, skel)
    joints = gt.joints.copy()
    joints[7] += (0.0, 30.0, 0.0)
    assert mpjpe(pose3d_camera(joints), gt, skel) == pytest.approx(2.0, abs=1e-12)


def test_pa_mpjpe_removes_similarity_transform(skel):
    rng = np.random.default_rng(104)
    gt = random_camera_pose(rng, skel)
    rot = rand_rotation(rng)
    pred = pose3d_camera(1.3 * gt.joints @ rot.T + (900.0, -100.0, 2500.0))
    assert pa_mpjpe(pred, gt) < 1e-9
    assert pa_mpjpe(gt, gt) == pytest.approx(0.0, abs=1e-12)


def test_pa_mpjpe_not_above_mpjpe(skel):
    rng = np.random.default_rng(105)
    for _ in range(50):
        pred = random_camera_pose(rng, skel, spread_mm=250.0)
        gt = random_camera_pose(rng, skel, spread_mm=250.0)
        assert pa_mpjpe(pred, gt) <= mpjpe(pred, gt, skel) + 1e-9


def test_pa_mpjpe_matches_horn_oracle(skel):
    rng = np.random.default_rng(106)
    for _ in range(40):
        pred = random_point_pose(rng, skel.num_joints)
        gt = random_point_pose(rng, skel.num_joints)
        ours = pa_mpjpe(pred, gt)
        oracle = horn_similarity_oracle(pred.joints, gt.joints)
        assert ours == pytest.approx(oracle, rel=1e-9, abs=1e-9)


def test_pa_mpjpe_close_to_grid_search_oracle(skel):
    # coarse grid over rotations / scales upper-bounds the optimum
    rng = np.random.default_rng(107)
    pred = random_camera_pose(rng, skel, spread_mm=100.0)
    gt = random_camera_pose(rng, skel, spread_mm=100.0)
    best = np.inf
    angles = np.linspace(-np.pi, np.pi, 13)
    scales = np.linspace(0.8, 1.25, 10)

    def rot_xyz(a, b, c):
        ca, sa = np.cos(a), np.sin(a)
        cb, sb = np.cos(b), np.sin(b)
        cc, sc = np.cos(c), np.sin(c)
        rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
        ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
        rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
        return rz @ ry @ rx

    mu_p = pred.joints.mean(axis=0)
    mu_g = gt.joints.mean(axis=0)
    for a in angles:
        for b in angles[::2]:
            for c in angles[::2]:
                rot = rot_xyz(a, b, c)
                for s in scales:
                    cand = s * (pred.joints - mu_p) @ rot.T + mu_g
                    err = float(np.mean(np.linalg.norm(cand - gt.joints, axis=-1)))
                    best = min(best, err)
    ours = pa_mpjpe(pred, gt)
    assert ours <= best + 1e-9
    assert best - ours < 60.0  # grid resolution bound


def test_pa_mpjpe_degenerate(skel):
    line = np.zeros((skel.num_joints, 3))
    line[:, 0] = np.arange(skel.num_joints)
    with pytest.raises(DegenerateGeometryError):
        pa_mpjpe(pose3d_camera(line + (0, 0, 3000.0)),
                 pose3d_camera(line + (0, 0, 3000.0)))


def test_pck_perfect_and_threshold_edge(skel):
    rng = np.random.default_rng(108)
    pose = random_camera_pose(rng, skel)
    assert pck(pose, pose, 150.0, skel) == 1.0
    eps_out = pose.joints - pose.joints[0] + pose.joints[0]  # copy
    # every non-root joint offset by exactly threshold + eps, root stays
    offset = np.zeros_like(pose.joints)
    offset[1:, 0] = 150.0 + 1e-6
    moved = pose3d_camera(pose.joints + offset)
    got = pck(moved, pose, 150.0, skel)
    assert got == pytest.approx(1.0 / skel.num_joints)  # only the root survives


def test_pck_half_in_half_out(skel):
    gt = pose3d_camera(np.zeros((14, 3)) + (0, 0, 3000.0),
                       conf=np.ones(14))
    joints = gt.joints.copy()
    joints[7:, 0] += 200.0  # half the joints pushed out of a 150mm threshold
    # root stays at joint 0 for both; make a 14-joint skeleton clone
    from dualpose.skeleton import SkeletonSpec

    skel14 = SkeletonSpec(
        joint_names=tuple(f"j{i}" for i in range(14)),
        bones=tuple((0, i) for i in range(1, 14)),
        root_index=0,
    )
    assert pck(pose3d_camera(joints), gt, 150.0, skel14) == pytest.approx(0.5)


def test_pck_abs_depth_shift(skel):
    rng = np.random.default_rng(109)
    gt = random_camera_pose(rng, skel)
    moved = pose3d_camera(gt.joints + (0.0, 0.0, 300.0))
    assert pck_abs(moved, gt, 250.0) == 0.0
    assert pck_abs(gt, gt, 250.0) == 1.0
    assert pck(moved, gt, 150.0, skel) == 1.0  # root alignment cancels the shift


def test_pck_abs_requires_camera_frame(skel):
    pc = pose3d_person(np.zeros((skel.num_joints, 3)))
    with pytest.raises(FrameMismatchError):
        pck_abs(pc, pc, 250.0)


def test_pck_abs_counting_oracle(skel):
    rng = np.random.default_rng(110)
    gt = random_camera_pose(rng, skel)
    pred = pose3d_camera(gt.joints + rng.standard_normal((15, 3)) * 200.0)
    expected = sum(
        1 for k in range(15)
        if np.linalg.norm(pred.joints[k] - gt.joints[k]) < 250.0
    ) / 15.0
    assert pck_abs(pred, gt, 250.0) == pytest.approx(expected, abs=0)


def test_auc_grid_excludes_zero():
    grid = auc_thresholds(150.0, 5.0)
    assert grid[0] == 5.0 and grid[-1] == 150.0 and len(grid) == 30


def test_pck_monotone_in_threshold(skel):
    rng = np.random.default_rng(120)
    gt = random_camera_pose(rng, skel)
    pred = pose3d_camera(gt.joints + rng.standard_normal((15, 3)) * 90.0)
    values = [pck(pred, gt, t, skel) for t in auc_thresholds(300.0, 10.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_auc_perfect_predictions(skel):
    rng = np.random.default_rng(111)
    poses = [random_camera_pose(rng, skel)]
    assert auc_rel(poses, poses, skel) == 1.0


def test_auc_between_min_and_max_pck(skel):
    rng = np.random.default_rng(112)
    gt = [random_camera_pose(rng, skel)]
    pred = [pose3d_camera(gt[0].joints + rng.standard_normal((15, 3)) * 60.0)]
    values = [pck_set(pred, gt, t, skel) for t in auc_thresholds()]
    auc = auc_rel(pred, gt, skel)
    assert min(values) <= auc <= max(values)
    assert auc == pytest.approx(np.mean(values), abs=1e-12)


def test_ap_root_perfect(skel):
    rng = np.random.default_rng(113)
    poses = [random_camera_pose(rng, skel, center=(i * 2000.0, 0, 3500))
             for i in range(3)]
    assert ap_root(poses, poses, skel) == 1.0


def test_ap_root_none_within_radius(skel):
    rng = np.random.default_rng(114)
    gt = [random_camera_pose(rng, skel)]
    pred = [pose3d_camera(gt[0].joints + (5000.0, 0.0, 0.0))]
    assert ap_root(pred, gt, skel) == 0.0


def test_ap_root_staged_pr_curve(skel):
    # 3 ranked predictions, 2 gts: TP, FP, TP -> AP = (1/1 + 2/3) / 2
    base = rest_pose() + (0.0, 0.0, 4000.0)
    gt = [pose3d_camera(base), pose3d_camera(base + (3000.0, 0.0, 0.0))]
    p1 = Pose3D(joints=base + (10.0, 0, 0), conf=np.full(15, 0.9),
                frame=Frame.CAMERA_CENTRIC)
    p2 = Pose3D(joints=base + (9000.0, 0, 0), conf=np.full(15, 0.8),
                frame=Frame.CAMERA_CENTRIC)
    p3 = Pose3D(joints=base + (3010.0, 0, 0), conf=np.full(15, 0.7),
                frame=Frame.CAMERA_CENTRIC)
    ap = ap_root([p1, p2, p3], gt, skel, radius_mm=250.0)
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_f1_perfect_and_empty(skel):
    rng = np.random.default_rng(115)
    poses = [random_camera_pose(rng, skel)]
    assert f1_at(poses, poses, 0.4, skel) == 1.0
    assert f1_at([], poses, 0.4, skel) == 0.0
    assert f1_at(poses, [], 0.4, skel) == 0.0
    assert f1_at([], [], 0.4, skel) == 0.0


def test_f1_one_missed_person(skel):
    base = rest_pose() + (0.0, 0.0, 4000.0)
    gt = [pose3d_camera(base), pose3d_camera(base + (4000.0, 0.0, 0.0))]
    pred = [pose3d_camera(base)]
    got = f1_at(pred, gt, 0.4, skel)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_f1_counts_oracle(skel):
    rng = np.random.default_rng(116)
    base = rest_pose() + (0.0, 0.0, 4000.0)
    gt = [pose3d_camera(base + (i * 3000.0, 0.0, 0.0)) for i in range(2)]
    pred = [pose3d_camera(gt[i].joints + rng.standard_normal((15, 3)) * 300.0)
            for i in range(2)]
    tp, fp, fn = f1_counts(pred, gt, 0.4, skel)
    # oracle: same person pairing is the closest, count joints directly
    exp_tp = 0
    for i in range(2):
        d = np.linalg.norm(pred[i].joints - gt[i].joints, axis=-1)
        exp_tp += int(np.sum(d < 400.0))
    assert tp == exp_tp
    assert fp == 30 - exp_tp
    assert fn == 30 - exp_tp


def test_shared_assignment_f1_counts_equal_per_threshold_oracle(skel):
    # evaluate_frames pairs persons once per frame for all thresholds; the
    # oracle pairs them again for each threshold, by exhaustive search.
    rng = np.random.default_rng(122)
    thresholds = (0.05, 0.1, 0.2, 0.4, 1.2)
    pred_frames, gt_frames = [], []
    totals = {t: np.zeros(3, dtype=int) for t in thresholds}
    for _ in range(16):
        gts = [random_camera_pose(rng, skel, center=(rng.uniform(-3000, 3000), 0.0,
                                                     rng.uniform(3000, 7000)))
               for _ in range(int(rng.integers(0, 5)))]
        preds = [pose3d_camera(g.joints + rng.normal(0.0, 60.0, (skel.num_joints, 3)))
                 for g in gts if rng.random() < 0.8]
        preds += [random_camera_pose(rng, skel, center=(rng.uniform(-3000, 3000), 0.0, 5000.0))
                  for _ in range(int(rng.integers(0, 2)))]
        rng.shuffle(preds)
        pred_frames.append(preds)
        gt_frames.append(gts)
        for t in thresholds:
            expected = f1_counts_loops(preds, gts, t, skel.root_index)
            assert f1_counts(preds, gts, t, skel) == expected
            totals[t] += expected
    report = evaluate_frames(pred_frames, gt_frames, skel,
                             MetricThresholds(f1_thresholds_m=thresholds))
    assert report.f1_at == {t: f1_from_counts(*map(int, totals[t])) for t in thresholds}
    # every threshold sees hits and misses, so the shared distances matter
    assert all(0 < totals[t][0] < totals[t][0] + totals[t][1] for t in thresholds[:3])
    with pytest.raises(ValueError, match="threshold"):
        evaluate_frames(pred_frames, gt_frames, skel, MetricThresholds(f1_thresholds_m=(0.0,)))


_POSE = pose3d_camera(rest_pose() + (0.0, 0.0, 3000.0))

# Each positivity check, called with NaN: a NaN threshold compares False
# with everything, so it must fail the check, not score 0 or raise later.
NAN_THRESHOLD_SITES = {
    "pck": (lambda skel, x: pck(_POSE, _POSE, x, skel), "threshold must be positive"),
    "pck_abs": (lambda skel, x: pck_abs(_POSE, _POSE, x), "threshold must be positive"),
    "auc_thresholds": (lambda skel, x: auc_thresholds(step_mm=x), "step must be positive"),
    "ap_root": (lambda skel, x: ap_root([_POSE], [_POSE], skel, x), "radius must be positive"),
    "f1_counts": (lambda skel, x: f1_counts([_POSE], [_POSE], x, skel),
                  "threshold must be positive"),
}


@pytest.mark.parametrize("site", sorted(NAN_THRESHOLD_SITES))
def test_nan_threshold_is_rejected(site, skel):
    call, message = NAN_THRESHOLD_SITES[site]
    call(skel, 1.0)
    with pytest.raises(ValueError, match=message):
        call(skel, float("nan"))


_SHORT = pose3d_camera(_POSE.joints[:-1])


def _last_pair(sets):
    return sets[0][-1], sets[1][-1]


# Each metric, called with a pose of another joint count than the rest;
# the set metrics also with both sides of 14 joints against the 15-joint
# skeleton, which they used to score.
TWO_SKELETON_SITES = {
    "mpjpe": lambda skel, sets: mpjpe(*_last_pair(sets), skel),
    "pa_mpjpe": lambda skel, sets: pa_mpjpe(*_last_pair(sets)),
    "pck": lambda skel, sets: pck(*_last_pair(sets), 150.0, skel),
    "pck_abs": lambda skel, sets: pck_abs(*_last_pair(sets), 250.0),
    "pck_set": lambda skel, sets: pck_set(*sets, 150.0, skel),
    "auc_rel": lambda skel, sets: auc_rel(*sets, skel),
    "ap_root": lambda skel, sets: ap_root(*sets, skel),
    "f1_counts": lambda skel, sets: f1_counts(*sets, 1.0, skel),
    "evaluate_frames": lambda skel, sets: evaluate_frames(*([[], s] for s in sets), skel),
}


@pytest.mark.parametrize("site", sorted(TWO_SKELETON_SITES))
def test_metrics_reject_poses_of_two_skeletons(site, skel):
    call = TWO_SKELETON_SITES[site]
    call(skel, ([_POSE], [_POSE]))
    for sets in (([_POSE], [_SHORT]), ([_SHORT], [_POSE]), ([_POSE, _SHORT], [_POSE])):
        with pytest.raises(ValueError, match="^poses must share one skeleton$"):
            call(skel, sets)
    if site not in ("mpjpe", "pa_mpjpe", "pck", "pck_abs"):
        with pytest.raises(ValueError, match="^poses must share one skeleton$"):
            call(skel, ([_SHORT], [_SHORT]))


def test_greedy_root_match_prefers_nearest():
    pred = np.array([[0.0, 0, 0], [100.0, 0, 0]])
    gt = np.array([[90.0, 0, 0], [1.0, 0, 0]])
    pairs, un_p, un_g = greedy_root_match(pred, gt)
    assert set(pairs) == {(0, 1), (1, 0)}
    assert un_p == [] and un_g == []


def test_greedy_root_match_gate():
    rng = np.random.default_rng(130)
    for _ in range(60):
        # roots on a coarse grid: many exactly tied distances
        pred = 100.0 * rng.integers(-3, 4, size=(int(rng.integers(0, 6)), 3)).astype(float)
        gt = 100.0 * rng.integers(-3, 4, size=(int(rng.integers(0, 6)), 3)).astype(float)
        # no gate, and a gate above every distance, give today's pairing
        expected = greedy_root_match_loops(pred, gt)
        assert greedy_root_match(pred, gt) == expected
        assert greedy_root_match(pred, gt, 1e9) == expected
        for gate in (0.0, 150.0, 300.0):
            assert greedy_root_match(pred, gt, gate) == greedy_root_match_loops(pred, gt, gate)
    # a pair above the gate stays unmatched
    pred = np.array([[0.0, 0, 0], [1000.0, 0, 0]])
    gt = np.array([[10.0, 0, 0], [1500.0, 0, 0]])
    assert greedy_root_match(pred, gt, 250.0) == ([(0, 0)], [1], [1])
    assert greedy_root_match(pred, gt, 500.0) == ([(0, 0), (1, 1)], [], [])


def test_metric_joint_permutation_invariance(skel):
    rng = np.random.default_rng(117)
    gt = random_camera_pose(rng, skel)
    pred = pose3d_camera(gt.joints + rng.standard_normal((15, 3)) * 80.0)
    perm = rng.permutation(15)
    # permuted skeleton keeps the same root joint
    from dualpose.skeleton import SkeletonSpec

    inv = np.empty(15, dtype=int)
    inv[perm] = np.arange(15)
    skel_p = SkeletonSpec(
        joint_names=tuple(skel.joint_names[i] for i in perm),
        bones=tuple((int(inv[p]), int(inv[c])) for p, c in skel.bones),
        root_index=int(inv[skel.root_index]),
    )
    pred_p = pose3d_camera(pred.joints[perm])
    gt_p = pose3d_camera(gt.joints[perm])
    assert mpjpe(pred_p, gt_p, skel_p) == pytest.approx(mpjpe(pred, gt, skel), rel=1e-12)
    assert pa_mpjpe(pred_p, gt_p) == pytest.approx(pa_mpjpe(pred, gt), rel=1e-9)
    assert pck(pred_p, gt_p, 150.0, skel_p) == pck(pred, gt, 150.0, skel)
    assert pck_abs(pred_p, gt_p, 250.0) == pck_abs(pred, gt, 250.0)


def test_evaluate_frames_report(skel):
    rng = np.random.default_rng(118)
    gt_frames = []
    pred_frames = []
    for t in range(4):
        gts = [random_camera_pose(rng, skel, center=(i * 2500.0, 0, 4000))
               for i in range(2)]
        preds = [pose3d_camera(g.joints + rng.standard_normal((15, 3)) * 40.0)
                 for g in gts]
        gt_frames.append(gts)
        pred_frames.append(preds)
    report = evaluate_frames(pred_frames, gt_frames, skel)
    assert report.matched_persons == 8
    assert report.missed_persons == 0 and report.extra_persons == 0
    assert 0.0 <= report.pck <= 100.0
    assert 0.0 <= report.auc_rel <= 100.0
    assert report.pa_mpjpe_mm <= report.mpjpe_mm + 1e-9
    assert set(report.f1_at) == {0.4, 0.8, 1.2}
    # perfect predictions
    perfect = evaluate_frames(gt_frames, gt_frames, skel)
    assert perfect.mpjpe_mm == 0.0
    assert perfect.pck == 100.0 and perfect.pck_abs == 100.0
    assert perfect.auc_rel == 100.0 and perfect.ap_root == 100.0
    assert all(v == 1.0 for v in perfect.f1_at.values())


def test_report_serialization(tmp_path, skel):
    rng = np.random.default_rng(119)
    gts = [[random_camera_pose(rng, skel)]]
    report = evaluate_frames(gts, gts, skel)
    report.to_json(tmp_path / "report.json")
    report.to_csv(tmp_path / "report.csv")
    import json

    data = json.loads((tmp_path / "report.json").read_text())
    assert data["pck"] == 100.0
    text = (tmp_path / "report.csv").read_text()
    assert "mpjpe_mm" in text


# Stacked Procrustes may differ from one SVD per pair in the last digits;
# this bound was fixed before the stacked version was written (criterion 8's).
PA_TOLERANCE_MM = 1e-9


def _random_pair_stack(rng, n, k=15):
    gt = np.stack([random_point_pose(rng, k, spread_mm=rng.uniform(100, 600)).joints
                   for _ in range(n)])
    pred = np.empty_like(gt)
    for i in range(n):
        rot = rand_rotation(rng)
        noise = rng.standard_normal((k, 3)) * rng.uniform(0.0, 200.0)
        pred[i] = rng.uniform(0.5, 2.0) * (gt[i] + noise) @ rot.T + rng.uniform(-3000, 3000, 3)
    return pred, gt


def test_stacked_similarity_align_matches_per_pair_oracle():
    rng = np.random.default_rng(123)
    for n in (1, 2, 7, 30):
        pred, gt = _random_pair_stack(rng, n)
        aligned, scale, rot, trans = similarity_align(pred, gt)
        assert aligned.shape == pred.shape and scale.shape == (n,)
        assert rot.shape == (n, 3, 3) and trans.shape == (n, 3)
        for i in range(n):
            assert np.max(np.abs(aligned[i] - similarity_align_pair(pred[i], gt[i]))) \
                <= PA_TOLERANCE_MM
            one = similarity_align(pred[i], gt[i])
            assert np.allclose(one[0], aligned[i], rtol=0, atol=PA_TOLERANCE_MM)
            assert isinstance(one[1], float) and one[1] == pytest.approx(scale[i], rel=1e-12)
        errors = np.mean(np.linalg.norm(aligned - gt, axis=-1), axis=-1)
        assert np.max(np.abs(errors - pa_mpjpe_pairs(pred, gt))) <= PA_TOLERANCE_MM


def test_evaluate_frames_pa_matches_per_pair_oracle(skel):
    rng = np.random.default_rng(124)
    root = skel.root_index
    pred_frames, gt_frames, expected = [], [], []
    for _ in range(12):
        m = int(rng.integers(0, 6))
        gts = [random_camera_pose(rng, skel, center=(rng.uniform(-4000, 4000), 0.0,
                                                     rng.uniform(3000, 8000)))
               for _ in range(m)]
        preds = [pose3d_camera(g.joints + rng.standard_normal((15, 3)) * 80.0)
                 for g in gts if rng.random() < 0.8]
        preds += [random_camera_pose(rng, skel, center=(0.0, 0.0, 5000.0))
                  for _ in range(int(rng.integers(0, 3)))]
        pairs, _, _ = greedy_root_match_loops([p.joints[root] for p in preds],
                                              [g.joints[root] for g in gts])
        expected += pa_mpjpe_pairs([preds[i].joints for i, _ in pairs],
                                   [gts[j].joints for _, j in pairs])
        pred_frames.append(preds)
        gt_frames.append(gts)
    report = evaluate_frames(pred_frames, gt_frames, skel)
    assert report.matched_persons == len(expected) > 20
    assert abs(report.pa_mpjpe_mm - float(np.mean(expected))) <= PA_TOLERANCE_MM


def test_stacked_alignment_raises_when_any_pair_is_degenerate(skel):
    rng = np.random.default_rng(125)
    pred, gt = _random_pair_stack(rng, 5)
    line = np.zeros((15, 3))
    line[:, 0] = np.arange(15.0)
    for bad_source in (True, False):
        p, g = pred.copy(), gt.copy()
        (p if bad_source else g)[3] = line + (0.0, 0.0, 3000.0)
        with pytest.raises(DegenerateGeometryError):
            similarity_align(p, g)
    p = pred.copy()
    p[1] = 5.0  # coincident source points
    with pytest.raises(DegenerateGeometryError):
        similarity_align(p, gt)
    # evaluate_frames aligns each frame's pairs in one call
    gts = [pose3d_camera(g) for g in gt[:3]]
    preds = [pose3d_camera(g.joints) for g in gts]
    preds[2] = pose3d_camera(gts[2].joints[0] + line * 1e-3)
    with pytest.raises(DegenerateGeometryError):
        evaluate_frames([preds], [gts], skel)


def test_evaluate_frames_ap_pools_frames_like_loop_oracle(skel):
    # Confidences come from a few constant levels, so that detections of
    # different frames tie and the ranking falls back to frame, then index.
    rng = np.random.default_rng(126)
    root = skel.root_index
    levels = (0.25, 0.5, 0.75, 1.0)
    pooling_matters = 0
    for _ in range(25):
        pred_frames, gt_frames = [], []
        for _ in range(int(rng.integers(1, 7))):
            gts = [random_camera_pose(rng, skel, center=(rng.uniform(-2000, 2000), 0.0,
                                                         rng.uniform(3000, 6000)))
                   for _ in range(int(rng.integers(0, 5)))]
            preds = [pose3d_camera(g.joints + rng.standard_normal(3) * rng.uniform(20, 300),
                                   conf=np.full(15, rng.choice(levels)))
                     for g in gts if rng.random() < 0.85]
            preds += [pose3d_camera(rest_pose() + (rng.uniform(-2000, 2000), 0.0, 4500.0),
                                    conf=np.full(15, rng.choice(levels)))
                      for _ in range(int(rng.integers(0, 3)))]
            rng.shuffle(preds)
            pred_frames.append(preds)
            gt_frames.append(gts)
        scenes = list(zip(pred_frames, gt_frames))
        expected = ap_root_pooled_loops(scenes, 250.0, root)
        assert ap_root_pooled(scenes, skel) == expected
        assert evaluate_frames(pred_frames, gt_frames, skel).ap_root == 100.0 * expected
        per_frame = np.mean([ap_root_pooled_loops([scene], 250.0, root) for scene in scenes])
        pooling_matters += expected != pytest.approx(per_frame)
    # the shared ranking is not an average of per-frame APs
    assert pooling_matters > 5


@pytest.mark.parametrize("key, value", [
    ("pck_mm", -150.0), ("pck_mm", np.nan), ("pck_abs_mm", 0.0), ("pck_abs_mm", np.inf),
    ("auc_step_mm", 0.0), ("auc_step_mm", np.nan), ("ap_root_radius_mm", -1.0),
    ("ap_root_radius_mm", np.inf), ("auc_max_mm", 2.0), ("auc_max_mm", np.inf),
    ("f1_thresholds_m", (0.4, -0.8)), ("f1_thresholds_m", (0.4, np.nan)),
    ("f1_thresholds_m", (np.inf,)),
])
def test_metric_thresholds_reject_bad_values(key, value):
    with pytest.raises(ValueError, match=key):
        MetricThresholds(**{key: value})
    data = {"metrics": {key: list(value) if isinstance(value, tuple) else value}}
    with pytest.raises(SchemaError, match=rf"^config\.metrics(: |\.){key}\b"):
        RunConfig.from_dict(data)
