import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpose.camera import CameraIntrinsics
from dualpose.errors import FrameMismatchError
from dualpose.matching import (
    MatchConfig,
    default_tau_match,
    match_sets,
    oks,
    pose_similarity,
    similarity_matrix,
)
from dualpose.skeleton import default_oks_sigmas, pose3d_camera, pose3d_person

from conftest import random_camera_pose, random_point_pose
from oracles import similarity_matrix_loops


def brute_force_best_total(sim: np.ndarray) -> float:
    """Exhaustive max-total-similarity over all injections of the smaller set."""
    n_td, n_bu = sim.shape
    if n_td == 0 or n_bu == 0:
        return 0.0
    best = -np.inf
    if n_td <= n_bu:
        for perm in itertools.permutations(range(n_bu), n_td):
            total = 0.0
            for i, j in enumerate(perm):
                total += float(sim[i, j])
            best = max(best, total)
    else:
        for perm in itertools.permutations(range(n_td), n_bu):
            total = 0.0
            for j, i in enumerate(perm):
                total += float(sim[i, j])
            best = max(best, total)
    return best


def match_total(result, sim) -> float:
    total = 0.0
    for i, j, _ in sorted(result.pairs):
        total += float(sim[i, j])
    return total


def test_oks_identity():
    assert oks((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), s=2.0, sigma=0.5) == 1.0


def test_oks_reference_point():
    s, sigma = 3.0, 0.4
    d = s * sigma * np.sqrt(2.0)
    val = oks((0.0, 0.0, 0.0), (d, 0.0, 0.0), s, sigma)
    assert abs(val - np.exp(-1.0)) < 1e-12


def test_oks_strictly_decreasing():
    s, sigma = 200.0, 0.5  # s*sigma = 100 mm falloff
    prev = 1.0
    for d in np.linspace(0.5, 500.0, 40):
        val = oks((0.0, 0.0, 0.0), (d, 0.0, 0.0), s, sigma)
        assert val < prev
        prev = val
    assert prev < 1e-5


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1000.0),
       st.floats(min_value=1e-3, max_value=1000.0))
def test_oks_monotone_property(d, extra):
    s, sigma = 300.0, 0.8
    near = oks((0.0, 0.0, 0.0), (d, 0.0, 0.0), s, sigma)
    far = oks((0.0, 0.0, 0.0), (d + extra, 0.0, 0.0), s, sigma)
    assert far < near <= 1.0
    assert far > 0.0


def test_pose_similarity_identical_full_conf(skel):
    rng = np.random.default_rng(31)
    pose = random_point_pose(rng, skel.num_joints)
    cfg = MatchConfig()
    assert pose_similarity(pose, pose, cfg) == pytest.approx(skel.num_joints, abs=1e-12)


def test_pose_similarity_zero_conf_side(skel):
    rng = np.random.default_rng(32)
    a = random_point_pose(rng, skel.num_joints, conf=np.zeros(skel.num_joints))
    b = random_point_pose(rng, skel.num_joints)
    assert pose_similarity(a, b, MatchConfig()) == 0.0


def test_pose_similarity_matches_loop_oracle(skel):
    rng = np.random.default_rng(33)
    k = skel.num_joints
    a = random_point_pose(rng, k, conf=rng.random(k))
    b = random_point_pose(rng, k, conf=rng.random(k))
    cfg = MatchConfig(fixed_scale_mm=800.0)
    sigma = skel.oks_sigma  # default sigmas match default_oks_sigmas(15)
    expected = 0.0
    for j in range(k):
        d2 = float(np.sum((a.joints[j] - b.joints[j]) ** 2))
        kern = np.exp(-d2 / (2.0 * 800.0 ** 2 * sigma[j] ** 2))
        expected += min(a.conf[j], b.conf[j]) * kern
    assert pose_similarity(a, b, cfg) == pytest.approx(expected, rel=0, abs=1e-12)


def test_pose_similarity_symmetric_with_roles(skel):
    rng = np.random.default_rng(34)
    k = skel.num_joints
    a = random_point_pose(rng, k, conf=rng.random(k))
    b = random_point_pose(rng, k, conf=rng.random(k))
    cfg = MatchConfig(fixed_scale_mm=500.0)
    assert pose_similarity(a, b, cfg) == pytest.approx(pose_similarity(b, a, cfg), abs=1e-12)


def test_pose_similarity_requires_camera_frame(skel):
    centered = pose3d_person(np.zeros((skel.num_joints, 3)))
    with pytest.raises(FrameMismatchError):
        pose_similarity(centered, centered, MatchConfig())


def _similarity_sets(rng, skel, n_td, n_bu, zero_conf=False):
    """TD poses and BU poses near them (plus far ones), with random confidences."""
    k = skel.num_joints
    td = [random_camera_pose(rng, skel, center=(rng.uniform(-2000, 2000), 0.0,
                                                rng.uniform(3000, 6000)),
                             conf=rng.random(k))
          for _ in range(n_td)]
    bu = []
    for j in range(n_bu):
        if j < n_td:  # a noisy copy of TD pose j
            bu.append(pose3d_camera(td[j].joints + 10.0 * rng.standard_normal((k, 3)),
                                    rng.random(k)))
        else:  # a person no TD pose saw
            bu.append(random_camera_pose(rng, skel, center=(rng.uniform(-2000, 2000), 0.0,
                                                            5000.0),
                                         conf=rng.random(k)))
    if zero_conf:
        for poses in (td, bu):
            if poses:
                conf = poses[0].conf.copy()
                conf[::2] = 0.0
                poses[0] = pose3d_camera(poses[0].joints, conf)
                poses[-1] = pose3d_camera(poses[-1].joints, np.zeros(k))
    return td, bu


# (config, sigma, camera) of each variant
SIMILARITY_VARIANTS = {
    "box_scale": (MatchConfig(), None, None),
    "fixed_scale": (MatchConfig(fixed_scale_mm=450.0), None, None),
    "2d": (MatchConfig(distance_mode="2d"), None,
           CameraIntrinsics(fx=1100.0, fy=1050.0, cx=640.0, cy=360.0)),
    "custom_sigma": (MatchConfig(), np.linspace(0.02, 0.3, 15), None),
    "zero_conf": (MatchConfig(), None, None),
}


@pytest.mark.parametrize("variant", sorted(SIMILARITY_VARIANTS))
@pytest.mark.parametrize("n_td, n_bu", [(0, 0), (0, 3), (4, 0), (1, 1), (5, 3), (3, 7)])
def test_similarity_matrix_equals_pair_loop_oracle(skel, variant, n_td, n_bu):
    cfg, sigma, cam = SIMILARITY_VARIANTS[variant]
    rng = np.random.default_rng(40 + 10 * n_td + n_bu)
    td, bu = _similarity_sets(rng, skel, n_td, n_bu, zero_conf=variant == "zero_conf")
    expected = similarity_matrix_loops(
        td, bu, cfg, default_oks_sigmas(skel.num_joints) if sigma is None else sigma, cam)
    sim = similarity_matrix(td, bu, cfg, sigma, cam)
    assert sim.shape == (n_td, n_bu)
    assert sim.dtype == np.float64
    assert np.array_equal(sim, expected)  # the same arithmetic, so bit-equal
    if n_td and n_bu:
        assert pose_similarity(bu[-1], td[0], cfg, sigma, cam) == expected[0, -1]
        if variant != "zero_conf":
            assert sim.max() > 1.0  # near pairs score well above underflow


def test_similarity_matrix_rejects_person_centric_and_mixed_joint_counts(skel):
    rng = np.random.default_rng(41)
    k = skel.num_joints
    td, bu = _similarity_sets(rng, skel, 2, 3)
    centered = pose3d_person(np.zeros((k, 3)))
    with pytest.raises(FrameMismatchError):
        similarity_matrix(td, bu + [centered], MatchConfig())
    with pytest.raises(FrameMismatchError):
        similarity_matrix([centered] + td, bu, MatchConfig())
    short = random_point_pose(rng, k - 1)
    with pytest.raises(ValueError, match="share one skeleton"):
        similarity_matrix(td, bu + [short], MatchConfig())
    with pytest.raises(ValueError, match="share one skeleton"):
        similarity_matrix(td + [short], bu, MatchConfig())
    with pytest.raises(ValueError, match="sigma"):
        similarity_matrix(td, bu, MatchConfig(), np.ones(k - 1))
    # against an empty side, the same checks run on the other side
    for side in ([centered], [*td, centered]):
        with pytest.raises(FrameMismatchError):
            similarity_matrix(side, [], MatchConfig())
        with pytest.raises(FrameMismatchError):
            similarity_matrix([], side, MatchConfig())
        with pytest.raises(FrameMismatchError):
            match_sets(side, [], MatchConfig())
    with pytest.raises(ValueError, match="share one skeleton"):
        similarity_matrix(td + [short], [], MatchConfig())
    with pytest.raises(ValueError, match="share one skeleton"):
        similarity_matrix([], bu + [short], MatchConfig())
    with pytest.raises(ValueError, match="sigma"):
        similarity_matrix([short], [], MatchConfig(), skel.oks_sigma)
    with pytest.raises(ValueError, match="sigma"):
        similarity_matrix([], bu, MatchConfig(), np.ones(k - 1))


def test_match_identity_on_same_sets(skel):
    rng = np.random.default_rng(35)
    poses = [
        random_point_pose(rng, skel.num_joints, center=(-2000, 0, 3000), spread_mm=100),
        random_point_pose(rng, skel.num_joints, center=(2000, 0, 6000), spread_mm=100),
    ]
    result = match_sets(poses, poses, MatchConfig(tau_match=default_tau_match(15)))
    assert [(i, j) for i, j, _ in result.pairs] == [(0, 0), (1, 1)]
    assert result.unmatched_td == ()
    assert result.unmatched_bu == ()


def test_match_empty_side(skel):
    rng = np.random.default_rng(36)
    poses = [random_point_pose(rng, skel.num_joints)]
    result = match_sets(poses, [], MatchConfig())
    assert result.pairs == ()
    assert result.unmatched_td == (0,)
    result = match_sets([], poses, MatchConfig())
    assert result.unmatched_bu == (0,)


def test_match_optimality_against_brute_force(skel):
    rng = np.random.default_rng(37)
    cfg = MatchConfig(fixed_scale_mm=600.0, tau_match=0.0)
    for _ in range(30):
        n_td = int(rng.integers(1, 7))
        n_bu = int(rng.integers(1, 7))
        td = [random_point_pose(rng, skel.num_joints, spread_mm=900.0) for _ in range(n_td)]
        bu = [random_point_pose(rng, skel.num_joints, spread_mm=900.0) for _ in range(n_bu)]
        sim = similarity_matrix(td, bu, cfg)
        result = match_sets(td, bu, cfg)
        assert match_total(result, sim) == brute_force_best_total(sim)


@pytest.mark.parametrize("cost, pairs", [
    # Equal totals: (0,0),(1,1),(2,2) is lexicographically smaller, but the
    # solver's scan order returns the anti-diagonal.
    ([[1, 0, 0], [1, 0, 1], [1, 0, 0]], [(0, 2), (1, 1), (2, 0)]),
    # A constant matrix pairs as the identity.
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [(0, 0), (1, 1), (2, 2)]),
])
def test_match_ties_follow_the_solver_scan_order(monkeypatch, cost, pairs):
    import dualpose.matching as matching

    sim = 1.0 - np.asarray(cost, dtype=np.float64)
    monkeypatch.setattr(matching, "similarity_matrix", lambda td, bu, cfg, sigma, cam: sim)
    result = match_sets([None] * 3, [None] * 3, MatchConfig(tau_match=0.0))
    assert [(i, j) for i, j, _ in result.pairs] == pairs


def test_match_permutation_invariance(skel):
    rng = np.random.default_rng(38)
    cfg = MatchConfig(fixed_scale_mm=600.0, tau_match=0.0)
    td = [random_point_pose(rng, skel.num_joints, spread_mm=800.0) for _ in range(4)]
    bu = [random_point_pose(rng, skel.num_joints, spread_mm=800.0) for _ in range(5)]
    base = match_sets(td, bu, cfg)
    perm_td = [2, 0, 3, 1]
    perm_bu = [4, 2, 0, 3, 1]
    shuffled = match_sets([td[i] for i in perm_td], [bu[j] for j in perm_bu], cfg)
    base_pairs = {(id(td[i]), id(bu[j])) for i, j, _ in base.pairs}
    shuf_pairs = {(id(td[perm_td[i]]), id(bu[perm_bu[j]])) for i, j, _ in shuffled.pairs}
    assert base_pairs == shuf_pairs
    assert base.total_similarity == pytest.approx(shuffled.total_similarity, abs=1e-12)


def test_tau_match_demotes_low_similarity(skel):
    rng = np.random.default_rng(39)
    near = random_point_pose(rng, skel.num_joints, center=(0, 0, 3000), spread_mm=50)
    far = random_point_pose(rng, skel.num_joints, center=(50000, 0, 90000), spread_mm=50)
    cfg = MatchConfig(fixed_scale_mm=300.0, tau_match=default_tau_match(15))
    result = match_sets([near], [far], cfg)
    assert result.pairs == ()
    assert result.unmatched_td == (0,)
    assert result.unmatched_bu == (0,)


@pytest.mark.parametrize("s, sigma", [(float("nan"), 0.1), (300.0, float("nan"))])
def test_oks_rejects_nan_scale_or_sigma(s, sigma):
    a, b = np.zeros(3), np.ones(3)
    assert 0.0 < oks(a, b, 300.0, 0.1) < 1.0
    with pytest.raises(ValueError, match="s and sigma must be positive"):
        oks(a, b, s, sigma)


@pytest.mark.parametrize("n_td, n_bu", [(0, 0), (2, 0), (2, 3)])
def test_2d_matching_without_a_camera_is_rejected(skel, n_td, n_bu):
    # an empty frame gets the check of a full one
    td, bu = _similarity_sets(np.random.default_rng(42), skel, n_td, n_bu)
    cfg = MatchConfig(distance_mode="2d")
    with pytest.raises(ValueError, match="distance_mode '2d' requires a camera"):
        similarity_matrix(td, bu, cfg)
    with pytest.raises(ValueError, match="distance_mode '2d' requires a camera"):
        match_sets(td, bu, cfg, skel.oks_sigma)
    if n_td and n_bu:
        with pytest.raises(ValueError, match="distance_mode '2d' requires a camera"):
            pose_similarity(bu[0], td[0], cfg)
    # 3D matching needs no camera
    assert similarity_matrix(td, bu, MatchConfig()).shape == (n_td, n_bu)


def test_match_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(fixed_scale_mm=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="fixed_scale_mm must be finite"):
            MatchConfig(fixed_scale_mm=value)
        # a NaN threshold would silently pair nothing, even identical poses
        with pytest.raises(ValueError, match="tau_match must be finite"):
            MatchConfig(tau_match=value)
