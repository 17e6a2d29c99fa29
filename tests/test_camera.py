import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualpose
from dualpose.camera import (
    CameraIntrinsics,
    back_project,
    project,
    rotate_about_y,
)
from dualpose.errors import BehindCameraError
from dualpose.skeleton import TrackSequence, bone_lengths, pose3d_camera, rest_pose
from dualpose.tto import TtoConfig, optimize, reprojection_loss_grad

from conftest import random_camera_pose


def test_optical_axis_maps_to_principal_point(cam):
    assert np.allclose(project(np.array([0.0, 0.0, 1000.0]), cam), (500.0, 500.0))


def test_similar_triangles(cam):
    assert np.allclose(project(np.array([100.0, 0.0, 1000.0]), cam), (600.0, 500.0))


def test_project_matches_symbolic_formula():
    rng = np.random.default_rng(21)
    cam = CameraIntrinsics(fx=937.5, fy=1042.25, cx=633.1, cy=351.7)
    pts = rng.uniform([-2000, -2000, 500], [2000, 2000, 9000], size=(200, 3))
    uv = project(pts, cam)
    for p, q in zip(pts, uv):
        assert q[0] == cam.fx * p[0] / p[2] + cam.cx
        assert q[1] == cam.fy * p[1] / p[2] + cam.cy


def test_project_pose_keeps_confidences(skel, cam):
    rng = np.random.default_rng(22)
    conf = rng.uniform(0.0, 1.0, skel.num_joints)
    conf[[2, 7]] = 0.0
    pose = random_camera_pose(rng, skel, conf=conf)
    pose2d = dualpose.project_pose(pose, cam)
    assert np.array_equal(pose2d.joints, project(pose.joints, cam))
    assert np.array_equal(pose2d.conf, pose.conf)


def test_project_rejects_nonpositive_depth(cam):
    with pytest.raises(BehindCameraError):
        project(np.array([0.0, 0.0, 0.0]), cam)
    with pytest.raises(BehindCameraError):
        project(np.array([[1.0, 1.0, 100.0], [0.0, 0.0, -5.0]]), cam)


def test_back_project_trivial(cam):
    assert np.allclose(back_project(np.array([500.0, 500.0]), 1000.0, cam),
                       (0.0, 0.0, 1000.0))
    assert np.allclose(back_project(np.array([600.0, 500.0]), 1000.0, cam),
                       (100.0, 0.0, 1000.0))


def test_back_project_round_trip(cam):
    rng = np.random.default_rng(22)
    pixels = rng.uniform(0, 1000, size=(300, 2))
    depths = rng.uniform(100, 9000, size=300)
    pts = back_project(pixels, depths, cam)
    again = project(pts, cam)
    assert np.max(np.abs(again - pixels)) < 1e-9


def test_back_project_rejects_nonpositive_depth(cam):
    with pytest.raises(BehindCameraError):
        back_project(np.array([10.0, 10.0]), 0.0, cam)


@pytest.mark.parametrize("z", [0.0, -5.0])
def test_every_depth_check_raises_one_message(skel, cam, z):
    joints = rest_pose() + (0.0, 0.0, 3000.0)
    joints[4, 2] = z
    track = TrackSequence(0, {t: pose3d_camera(joints) for t in range(3)})
    calls = {
        "project": lambda: project(joints, cam),
        "back_project": lambda: back_project(np.zeros((15, 2)), joints[:, 2], cam),
        # the TTO objective, with and without a reprojection term
        "reprojection": lambda: reprojection_loss_grad(
            joints[None], np.zeros((1, 15, 2)), np.ones((1, 15)), cam),
        "optimize": lambda: optimize(track, None, cam, TtoConfig(iters_per_stage=1), skel),
    }
    for name, call in calls.items():
        with pytest.raises(BehindCameraError) as info:
            call()
        assert str(info.value) == "a depth is z <= 0, at or behind the camera", name


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_projection_scale_covariance(lam):
    cam = CameraIntrinsics(fx=800.0, fy=820.0, cx=400.0, cy=300.0)
    point = np.array([150.0, -200.0, 2500.0])
    assert np.allclose(project(point * lam, cam), project(point, cam),
                       rtol=1e-12, atol=1e-9)


def test_rotate_zero_angle_identity(skel):
    rng = np.random.default_rng(23)
    pose = random_camera_pose(rng, skel)
    out = rotate_about_y(pose, 0.0, pose.joints[0])
    assert np.allclose(out.joints, pose.joints)


def test_rotate_full_turn_identity(skel):
    rng = np.random.default_rng(24)
    pose = random_camera_pose(rng, skel)
    out = rotate_about_y(pose, 2.0 * np.pi, pose.joints[0])
    assert np.max(np.abs(out.joints - pose.joints)) < 1e-9


def test_rotate_quarter_turn_against_matrix_oracle(skel):
    pivot = np.array([0.0, 0.0, 3000.0])
    joints = np.tile(pivot, (skel.num_joints, 1))
    joints[1] = pivot + (1.0, 0.0, 0.0)
    pose = pose3d_camera(joints)
    out = rotate_about_y(pose, np.pi / 2.0, pivot)
    assert np.allclose(out.joints[1] - pivot, (0.0, 0.0, -1.0), atol=1e-12)


def test_rotation_preserves_bone_lengths(skel):
    rng = np.random.default_rng(25)
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=10):
        pose = random_camera_pose(rng, skel)
        base = bone_lengths(pose, skel)
        rotated = bone_lengths(rotate_about_y(pose, theta, pose.joints[0]), skel)
        assert np.max(np.abs(rotated - base) / np.maximum(base, 1e-12)) < 1e-9


def test_intrinsics_validate():
    with pytest.raises(ValueError):
        CameraIntrinsics(fx=0.0, fy=100.0, cx=0.0, cy=0.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="focal lengths must be finite"):
            CameraIntrinsics(fx=value, fy=100.0, cx=0.0, cy=0.0)
        with pytest.raises(ValueError, match="focal lengths must be finite"):
            CameraIntrinsics(fx=100.0, fy=value, cx=0.0, cy=0.0)
        with pytest.raises(ValueError, match="principal point must be finite"):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=value, cy=0.0)
        with pytest.raises(ValueError, match="principal point must be finite"):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=value)
