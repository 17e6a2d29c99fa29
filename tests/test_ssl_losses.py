import numpy as np
import pytest

from dualpose.camera import project
from dualpose.errors import BehindCameraError, FrameMismatchError
from dualpose.skeleton import Pose2D, pose3d_camera, pose3d_person, rest_pose
from dualpose.ssl_losses import (
    SslWeightState,
    multi_perspective_loss,
    offset_lifter,
    oracle_lifter,
    reprojection_loss,
    ssl_total,
    ssl_weights,
)

from conftest import random_camera_pose


def test_reprojection_zero_on_exact_projection(skel, cam):
    rng = np.random.default_rng(61)
    pose = random_camera_pose(rng, skel)
    p2d = Pose2D(joints=project(pose.joints, cam), conf=np.ones(skel.num_joints))
    assert reprojection_loss(pose, p2d, cam) == 0.0


def test_reprojection_zero_weights(skel, cam):
    rng = np.random.default_rng(62)
    pose = random_camera_pose(rng, skel)
    p2d = Pose2D(joints=project(pose.joints, cam) + 37.0,
                 conf=np.zeros(skel.num_joints))
    assert reprojection_loss(pose, p2d, cam) == 0.0


def test_reprojection_single_offset_joint(skel, cam):
    rng = np.random.default_rng(63)
    pose = random_camera_pose(rng, skel)
    uv = project(pose.joints, cam)
    uv[4] += (2.0, 0.0)  # one joint off by 2 px
    p2d = Pose2D(joints=uv, conf=np.ones(skel.num_joints))
    assert reprojection_loss(pose, p2d, cam) == pytest.approx(4.0 / 15.0, abs=1e-12)


def test_reprojection_behind_camera(skel, cam):
    joints = rest_pose()
    joints[:, 2] -= 100.0  # straddles the image plane
    pose = pose3d_camera(joints)
    p2d = Pose2D(joints=np.zeros((skel.num_joints, 2)), conf=np.ones(skel.num_joints))
    with pytest.raises(BehindCameraError):
        reprojection_loss(pose, p2d, cam)


def test_reprojection_frame_check(skel, cam):
    pose = pose3d_person(np.zeros((skel.num_joints, 3)))
    p2d = Pose2D(joints=np.zeros((skel.num_joints, 2)), conf=np.ones(skel.num_joints))
    with pytest.raises(FrameMismatchError):
        reprojection_loss(pose, p2d, cam)


def test_reprojection_permutation_invariance(skel, cam):
    rng = np.random.default_rng(64)
    pose = random_camera_pose(rng, skel, conf=rng.random(skel.num_joints))
    uv = project(pose.joints, cam) + rng.standard_normal((skel.num_joints, 2))
    p2d = Pose2D(joints=uv, conf=rng.random(skel.num_joints))
    base = reprojection_loss(pose, p2d, cam)
    perm = rng.permutation(skel.num_joints)
    pose_p = pose3d_camera(pose.joints[perm], conf=pose.conf[perm])
    p2d_p = Pose2D(joints=uv[perm], conf=p2d.conf[perm])
    assert reprojection_loss(pose_p, p2d_p, cam) == pytest.approx(base, rel=1e-12)


def test_multi_perspective_zero_with_oracle_lifter(skel, cam):
    rng = np.random.default_rng(65)
    pose = random_camera_pose(rng, skel)
    from dualpose.camera import rotate_about_y

    for angle in (0.0, 0.3, -1.2, np.pi / 2):
        rotated = rotate_about_y(pose, angle, pose.joints[skel.root_index])
        lifter = oracle_lifter(rotated)
        loss = multi_perspective_loss(pose, cam, angle, lifter, skel)
        assert loss < 1e-9


def test_multi_perspective_fixed_offset(skel, cam):
    rng = np.random.default_rng(66)
    pose = random_camera_pose(rng, skel)
    angle = 0.7
    from dualpose.camera import rotate_about_y

    rotated = rotate_about_y(pose, angle, pose.joints[skel.root_index])
    lifter = offset_lifter(oracle_lifter(rotated), (10.0, 0.0, 0.0))
    loss = multi_perspective_loss(pose, cam, angle, lifter, skel)
    assert loss == pytest.approx(100.0, abs=1e-9)


def test_multi_perspective_behind_camera(skel, cam):
    # A pose near the optical axis at shallow depth swings behind the camera
    # under a half-turn about its own root when it is laterally offset.
    joints = rest_pose() * 0.1 + (0.0, 0.0, 60.0)
    joints[:, 2] += np.linspace(0.0, 100.0, skel.num_joints)  # depth spread
    pose = pose3d_camera(joints)
    lifter = oracle_lifter(pose)
    with pytest.raises(BehindCameraError):
        multi_perspective_loss(pose, cam, np.pi, lifter, skel)


def test_ssl_weights_uniform_for_equal_errors():
    for n in (1, 3, 8):
        state = SslWeightState(r=5, e_rep=np.full(n, 2.5), e_mp=np.full(n, 0.7))
        w = ssl_weights(state)
        assert np.allclose(w, 2.0 / n, atol=1e-12)
        assert abs(float(np.sum(w)) - 2.0) < 1e-12


def test_ssl_weights_softmax_arithmetic():
    r = 4
    state = SslWeightState(r=r, e_rep=np.array([0.0, r * np.log(3.0)]),
                           e_mp=np.array([1.0, 1.0]))
    w = ssl_weights(state)
    assert w[0] == pytest.approx(0.75 + 0.5, abs=1e-12)
    assert w[1] == pytest.approx(0.25 + 0.5, abs=1e-12)


def test_ssl_weights_anneal_to_uniform():
    rng = np.random.default_rng(67)
    e_rep = rng.uniform(0, 10, size=6)
    e_mp = rng.uniform(0, 10, size=6)
    w = ssl_weights(SslWeightState(r=10**9, e_rep=e_rep, e_mp=e_mp))
    assert np.max(np.abs(w - 2.0 / 6)) < 1e-6


def test_ssl_weights_sum_is_two():
    rng = np.random.default_rng(68)
    for n in (2, 5, 17):
        state = SslWeightState(r=3, e_rep=rng.uniform(0, 50, n), e_mp=rng.uniform(0, 50, n))
        assert abs(float(np.sum(ssl_weights(state))) - 2.0) < 1e-12


def test_ssl_weights_validation():
    with pytest.raises(ValueError):
        SslWeightState(r=0, e_rep=np.array([1.0]), e_mp=np.array([1.0]))
    with pytest.raises(ValueError):
        SslWeightState(r=1, e_rep=np.array([]), e_mp=np.array([]))
    for bad in (np.nan, np.inf, -1.0):
        for e_rep, e_mp in (([bad, 1.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, bad])):
            with pytest.raises(ValueError, match="^errors must be finite and non-negative$"):
                SslWeightState(r=1, e_rep=np.array(e_rep), e_mp=np.array(e_mp))


def test_ssl_total():
    assert ssl_total(2.0, 3.0, -1.0, w=1.0) == pytest.approx(4.0)
    assert ssl_total(5.0, 7.0, -0.25, w=0.0) == pytest.approx(-0.25)
    assert ssl_total(0.0, 0.0, -1.5, w=3.0) == pytest.approx(-1.5)
