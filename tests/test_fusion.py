import math

import numpy as np
import pytest

from dualpose.errors import DomainError, FrameMismatchError, ScorerContractError
from dualpose.fusion import (
    FusionStrategy,
    PlausibilityScorers,
    corrupt_pair,
    discriminator_loss,
    discriminator_score,
    fuse_frame,
    fuse_pair,
    reference_scorers,
)
from dualpose.matching import MatchConfig, MatchResult, match_sets
from dualpose.skeleton import pose3d_camera, pose3d_person, rest_pose

from conftest import random_camera_pose
from oracles import fuse_frame_per_pair

STRATEGIES = [
    FusionStrategy.hard(),
    FusionStrategy.linear(),
    FusionStrategy.weighted(0.3),
]


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.variant)
def test_fuse_pair_idempotent_on_equal_inputs(strategy, skel):
    rng = np.random.default_rng(41)
    pose = random_camera_pose(rng, skel, conf=rng.random(skel.num_joints))
    out = fuse_pair(pose, pose, strategy, skel)
    assert np.allclose(out.joints, pose.joints)
    assert np.allclose(out.conf, pose.conf)


def test_fuse_pair_hard_reroots_at_bu_depth(skel):
    rng = np.random.default_rng(42)
    rel = rest_pose()
    td = pose3d_camera(rel + (0.0, 0.0, 2000.0))
    bu = random_camera_pose(rng, skel, center=(50.0, 50.0, 3000.0))
    bu_joints = bu.joints.copy()
    bu_joints[skel.root_index] = (50.0, 50.0, 3000.0)
    bu = pose3d_camera(bu_joints)
    out = fuse_pair(td, bu, FusionStrategy.hard(), skel)
    assert np.allclose(out.joints[skel.root_index], (0.0, 0.0, 3000.0))
    # relative structure comes entirely from TD
    assert np.allclose(out.joints - out.joints[skel.root_index],
                       td.joints - td.joints[skel.root_index])


def test_fuse_pair_linear_degenerate_weights(skel):
    rng = np.random.default_rng(43)
    td = random_camera_pose(rng, skel, conf=np.ones(skel.num_joints))
    bu = random_camera_pose(rng, skel, conf=np.zeros(skel.num_joints))
    out = fuse_pair(td, bu, FusionStrategy.linear(), skel)
    assert np.allclose(out.joints, td.joints)


def test_fuse_pair_linear_convexity(skel):
    rng = np.random.default_rng(44)
    td = random_camera_pose(rng, skel, conf=rng.random(skel.num_joints))
    bu = random_camera_pose(rng, skel, conf=rng.random(skel.num_joints))
    out = fuse_pair(td, bu, FusionStrategy.linear(), skel)
    lo = np.minimum(td.joints, bu.joints) - 1e-9
    hi = np.maximum(td.joints, bu.joints) + 1e-9
    assert np.all(out.joints >= lo) and np.all(out.joints <= hi)


def test_fuse_pair_weighted_blend(skel):
    rng = np.random.default_rng(45)
    td = random_camera_pose(rng, skel)
    bu = random_camera_pose(rng, skel)
    out = fuse_pair(td, bu, FusionStrategy.weighted(0.25), skel)
    assert np.allclose(out.joints, 0.25 * td.joints + 0.75 * bu.joints)


def test_fuse_pair_rejects_person_centric(skel):
    pc = pose3d_person(np.zeros((skel.num_joints, 3)))
    cc = pose3d_camera(rest_pose() + (0, 0, 3000.0))
    with pytest.raises(FrameMismatchError):
        fuse_pair(pc, cc, FusionStrategy.linear(), skel)


def test_fuse_frame_counts(skel):
    rng = np.random.default_rng(46)
    centers = [(-3000, 0, 3000), (0, 0, 4000), (3000, 0, 5000), (-3000, 0, 8000)]
    td = [random_camera_pose(rng, skel, center=c, spread_mm=25) for c in centers[:3]]
    bu = [random_camera_pose(rng, skel, center=c, spread_mm=25) for c in centers[:2]]
    bu.append(random_camera_pose(rng, skel, center=centers[3], spread_mm=25))
    cfg = MatchConfig(tau_match=1.5)
    match = match_sets(td, bu, cfg)
    fused = fuse_frame(match, td, bu, FusionStrategy.linear(), skel)
    # 2 matched pairs, 1 unmatched TD, 1 unmatched BU
    assert len(match.pairs) == 2
    assert len(fused) == len(match.pairs) + len(match.unmatched_td) + len(match.unmatched_bu)
    assert len(fused) == 4


def test_fuse_frame_all_matched_and_disjoint(skel):
    rng = np.random.default_rng(47)
    td = [random_camera_pose(rng, skel, center=(0, 0, 3000), spread_mm=20)]
    bu = [random_camera_pose(rng, skel, center=(0, 0, 3000), spread_mm=20)]
    match = match_sets(td, bu, MatchConfig(tau_match=1.5))
    assert len(fuse_frame(match, td, bu, FusionStrategy.linear(), skel)) == 1
    empty = MatchResult(pairs=(), unmatched_td=(0,), unmatched_bu=(0,))
    assert len(fuse_frame(empty, td, bu, FusionStrategy.linear(), skel)) == 2


def test_fuse_frame_index_errors(skel):
    rng = np.random.default_rng(48)
    td = [random_camera_pose(rng, skel)]
    bad = MatchResult(pairs=((0, 3, 1.0),), unmatched_td=(), unmatched_bu=())
    with pytest.raises(IndexError):
        fuse_frame(bad, td, td, FusionStrategy.linear(), skel)


ALL_STRATEGIES = STRATEGIES + [
    FusionStrategy.pluggable(lambda p_td, p_bu: p_td.with_joints(p_bu.joints)),
]


def _dyadic_conf(rng, k):
    """Confidences in steps of 1/8, so every mean is exact."""
    return rng.integers(0, 9, size=k) / 8.0


def _fusion_frames(skel):
    """(name, match, td, bu) frames covering the fallback cases of ``linear``."""
    rng = np.random.default_rng(59)
    k = skel.num_joints
    td = [random_camera_pose(rng, skel, center=(800.0 * i, 0, 4000), conf=_dyadic_conf(rng, k))
          for i in range(9)]
    bu = [random_camera_pose(rng, skel, center=(800.0 * i, 0, 4100), conf=_dyadic_conf(rng, k))
          for i in range(8)]
    # Pairs 0-2: joints 0-4 carry zero confidence on both sides, with TD,
    # BU and neither side ahead in mean confidence.
    for i, (td_c, bu_c) in enumerate([(0.75, 0.5), (0.5, 0.75), (0.5, 0.5)]):
        td_conf = np.full(k, td_c)
        bu_conf = np.full(k, bu_c)
        td_conf[:5] = bu_conf[:5] = 0.0
        td[i] = random_camera_pose(rng, skel, center=(800.0 * i, 0, 4000), conf=td_conf)
        bu[i] = random_camera_pose(rng, skel, center=(800.0 * i, 0, 4100), conf=bu_conf)
    # Pair 3: equal mean confidences from permuted per-joint values, and
    # joint 0 unconfident on both sides.
    conf = _dyadic_conf(rng, k)
    conf[0] = 0.0
    td[3] = random_camera_pose(rng, skel, center=(2400.0, 0, 4000), conf=conf)
    bu[3] = random_camera_pose(rng, skel, center=(2400.0, 0, 4100),
                               conf=np.concatenate([[0.0], conf[:0:-1]]))
    pairs = tuple((i, j, 1.0) for i, j in [(0, 0), (1, 1), (2, 2), (3, 3), (4, 6), (6, 4), (7, 5)])
    return [
        ("pairs", MatchResult(pairs, unmatched_td=(5, 8), unmatched_bu=(7,)), td, bu),
        ("one-pair", MatchResult(pairs[3:4], unmatched_td=(), unmatched_bu=()), td, bu),
        ("no-pairs", MatchResult((), unmatched_td=(2, 0), unmatched_bu=(1,)), td, bu),
        ("only-td", MatchResult((), unmatched_td=(0, 1), unmatched_bu=()), td, []),
        ("empty", MatchResult((), unmatched_td=(), unmatched_bu=()), [], []),
    ]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.variant)
def test_fuse_frame_equals_per_pair_fusion_bit_for_bit(strategy, skel):
    for name, match, td, bu in _fusion_frames(skel):
        fused = fuse_frame(match, td, bu, strategy, skel)
        expected = fuse_frame_per_pair(match, td, bu, strategy, skel)
        assert len(fused) == len(expected), name
        for got, want in zip(fused, expected):
            assert np.array_equal(got.joints, want.joints), name
            assert np.array_equal(got.conf, want.conf), name
            assert got.frame is want.frame
        n_pairs = len(match.pairs)
        assert all(got is want for got, want in zip(fused[n_pairs:], expected[n_pairs:]))


def test_fusion_frames_reach_every_linear_fallback(skel):
    _, match, td, bu = _fusion_frames(skel)[0]
    unconfident = [(td[i].conf == 0) & (bu[j].conf == 0) for i, j, _ in match.pairs[:4]]
    assert all(mask.any() for mask in unconfident)
    td_means = [float(np.mean(td[i].conf)) for i in range(4)]
    bu_means = [float(np.mean(bu[j].conf)) for j in range(4)]
    assert td_means[0] > bu_means[0] and td_means[1] < bu_means[1]
    assert td_means[2] == bu_means[2] and td_means[3] == bu_means[3]
    # a tie keeps the TD joints where neither side is confident
    out = fuse_frame(match, td, bu, FusionStrategy.linear(), skel)
    assert np.array_equal(out[3].joints[0], td[3].joints[0])
    assert np.array_equal(out[1].joints[0], bu[1].joints[0])


def test_fuse_frame_poses_are_read_only(skel):
    _, match, td, bu = _fusion_frames(skel)[0]
    for pose in fuse_frame(match, td, bu, FusionStrategy.linear(), skel)[:len(match.pairs)]:
        for arr in (pose.joints, pose.conf, pose.joints.base, pose.conf.base):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_fuse_frame_rejects_paired_poses_of_two_skeletons(skel):
    rng = np.random.default_rng(60)
    td = [random_camera_pose(rng, skel) for _ in range(2)]
    short = pose3d_camera(td[1].joints[:-1])
    match = MatchResult(((0, 0, 1.0), (1, 1, 1.0)), unmatched_td=(), unmatched_bu=())
    with pytest.raises(ValueError, match="share one skeleton"):
        fuse_frame(match, td, [td[0], short], FusionStrategy.linear(), skel)
    # pairs of one joint count that is not the skeleton's, pluggable or not
    pair = MatchResult(((0, 0, 1.0),), unmatched_td=(), unmatched_bu=())
    for strategy in (FusionStrategy.linear(), FusionStrategy.pluggable(lambda a, b: a)):
        with pytest.raises(ValueError, match="share one skeleton"):
            fuse_frame(pair, [short], [short], strategy, skel)


def constant_scorers(v1a, v1b=None, v2=0.5, skel=None):
    values = iter([v1a, v1b if v1b is not None else v1a])
    d1_values = {}

    def d1(pose):
        key = pose.joints.tobytes()
        if key not in d1_values:
            d1_values[key] = next(values)
        return d1_values[key]

    return PlausibilityScorers(d1=d1, d2=lambda a, b: v2)


def test_discriminator_score_constant_half(skel):
    rng = np.random.default_rng(49)
    pa = random_camera_pose(rng, skel)
    pb = random_camera_pose(rng, skel, center=(1500, 0, 4000))
    scorers = PlausibilityScorers(d1=lambda p: 0.5, d2=lambda a, b: 0.5)
    assert discriminator_score(pa, pb, scorers, skel) == pytest.approx(0.5, abs=1e-15)


def test_discriminator_score_arithmetic(skel):
    rng = np.random.default_rng(50)
    pa = random_camera_pose(rng, skel)
    pb = random_camera_pose(rng, skel, center=(1500, 0, 4000))
    scorers = constant_scorers(0.8, 0.4, 0.6)
    assert discriminator_score(pa, pb, scorers, skel) == pytest.approx(0.6, abs=1e-12)


def test_discriminator_score_upper_bound(skel):
    rng = np.random.default_rng(51)
    pa = random_camera_pose(rng, skel)
    pb = random_camera_pose(rng, skel, center=(1500, 0, 4000))
    eps = 1e-9
    scorers = PlausibilityScorers(d1=lambda p: 1.0 - eps, d2=lambda a, b: 1.0 - eps)
    score = discriminator_score(pa, pb, scorers, skel)
    assert 1.0 - 1e-8 < score < 1.0


def test_discriminator_score_convex_combination_bound(skel):
    rng = np.random.default_rng(52)
    pa = random_camera_pose(rng, skel)
    pb = random_camera_pose(rng, skel, center=(1500, 0, 4000))
    scorers = constant_scorers(0.9, 0.2, 0.55)
    score = discriminator_score(pa, pb, scorers, skel)
    assert min(0.9, 0.2, 0.55) <= score <= max(0.9, 0.2, 0.55)


def test_discriminator_score_contract_violation(skel):
    rng = np.random.default_rng(53)
    pa = random_camera_pose(rng, skel)
    pb = random_camera_pose(rng, skel, center=(1500, 0, 4000))
    scorers = PlausibilityScorers(d1=lambda p: 1.0, d2=lambda a, b: 0.5)
    with pytest.raises(ScorerContractError):
        discriminator_score(pa, pb, scorers, skel)


def test_discriminator_loss_values():
    assert discriminator_loss(0.5, 0.5) == pytest.approx(2.0 * math.log(0.5), abs=1e-12)
    assert discriminator_loss(0.5, 0.5) == pytest.approx(-1.3863, abs=1e-4)
    # approaches the supremum 0 from below
    assert -1e-6 < discriminator_loss(1.0 - 1e-9, 1e-9) < 0.0
    assert discriminator_loss(0.9, 0.1) > discriminator_loss(0.5, 0.5)


def test_discriminator_loss_domain():
    with pytest.raises(DomainError):
        discriminator_loss(0.0, 0.5)
    with pytest.raises(DomainError):
        discriminator_loss(0.5, 1.0)


def test_corrupt_pair_no_rates_is_identity(skel):
    rng = np.random.default_rng(54)
    pair = (random_camera_pose(rng, skel), random_camera_pose(rng, skel))
    out = corrupt_pair(pair, seed=99, mask_rate=0.0, shift_sigma_mm=0.0, drop_rate=0.0)
    for before, after in zip(pair, out):
        assert np.array_equal(before.joints, after.joints)
        assert np.array_equal(before.conf, after.conf)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_corrupt_pair_rejects_a_bad_shift_sigma(skel, sigma):
    pose = random_camera_pose(np.random.default_rng(58), skel)
    with pytest.raises(ValueError, match="^shift_sigma_mm must be finite and non-negative$"):
        corrupt_pair((pose, pose), seed=1, mask_rate=0.0, shift_sigma_mm=sigma, drop_rate=0.0)


def test_corrupt_pair_full_mask(skel):
    rng = np.random.default_rng(55)
    pair = (random_camera_pose(rng, skel), random_camera_pose(rng, skel))
    out = corrupt_pair(pair, seed=1, mask_rate=1.0, shift_sigma_mm=0.0, drop_rate=0.0)
    assert np.all(out[0].conf == 0.0)
    assert np.all(out[1].conf == 0.0)


def test_corrupt_pair_deterministic(skel):
    rng = np.random.default_rng(56)
    pair = (random_camera_pose(rng, skel), random_camera_pose(rng, skel))
    a = corrupt_pair(pair, seed=7, mask_rate=0.3, shift_sigma_mm=25.0, drop_rate=0.5)
    b = corrupt_pair(pair, seed=7, mask_rate=0.3, shift_sigma_mm=25.0, drop_rate=0.5)
    for x, y in zip(a, b):
        assert np.array_equal(x.joints, y.joints)
        assert np.array_equal(x.conf, y.conf)


def test_corrupt_pair_drop_zeroes_one_side(skel):
    rng = np.random.default_rng(57)
    pair = (random_camera_pose(rng, skel), random_camera_pose(rng, skel))
    out = corrupt_pair(pair, seed=3, mask_rate=0.0, shift_sigma_mm=0.0, drop_rate=1.0)
    zeroed = [np.all(p.joints == 0.0) and np.all(p.conf == 0.0) for p in out]
    assert sum(zeroed) == 1


def test_reference_scorers_rest_pose_plausible(skel):
    scorers = reference_scorers(skel)
    plausible = pose3d_person(rest_pose())
    score = scorers.d1(plausible)
    assert 0.0 < score < 1.0
    # grossly stretched bones score lower
    stretched = pose3d_person(rest_pose() * 3.0)
    assert scorers.d1(stretched) < score


def test_reference_d2_prefers_separation(skel):
    scorers = reference_scorers(skel)
    apart_a = pose3d_camera(rest_pose() + (-1500.0, 0.0, 4000.0))
    apart_b = pose3d_camera(rest_pose() + (1500.0, 0.0, 4000.0))
    overlap_b = pose3d_camera(rest_pose() + (-1490.0, 0.0, 4000.0))
    separated = scorers.d2(apart_a, apart_b)
    penetrating = scorers.d2(apart_a, overlap_b)
    assert separated >= penetrating
    assert penetrating < 0.5  # interpenetration drops below the midpoint
    assert 0.0 < separated < 1.0


def test_discriminator_with_reference_scorers_end_to_end(skel):
    scorers = reference_scorers(skel)
    real_a = pose3d_camera(rest_pose() + (-800.0, 0.0, 4000.0))
    real_b = pose3d_camera(rest_pose() + (800.0, 0.0, 4000.0))
    fake_b = pose3d_camera(rest_pose() * 2.5 + (-790.0, 0.0, 4000.0))
    c_real = discriminator_score(real_a, real_b, scorers, skel)
    c_fake = discriminator_score(real_a, fake_b, scorers, skel)
    assert c_real > c_fake
    loss = discriminator_loss(c_real, c_fake)
    assert loss <= 0.0


def test_pluggable_integrator_pose_is_returned_unchanged(skel):
    rng = np.random.default_rng(58)
    td = random_camera_pose(rng, skel)
    bu = random_camera_pose(rng, skel)
    own = random_camera_pose(rng, skel, conf=rng.random(skel.num_joints))
    calls = []

    def integrator(p_td, p_bu):
        calls.append((p_td, p_bu))
        return own

    out = fuse_pair(td, bu, FusionStrategy.pluggable(integrator), skel)
    assert out is own
    assert len(calls) == 1 and calls[0][0] is td and calls[0][1] is bu


def test_strategy_validation():
    with pytest.raises(ValueError):
        FusionStrategy(variant="nope")
    with pytest.raises(ValueError):
        FusionStrategy.weighted(1.5)
    with pytest.raises(ValueError):
        FusionStrategy(variant="pluggable")
