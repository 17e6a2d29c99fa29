import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpose.camera import CameraIntrinsics
from dualpose.errors import FrameMismatchError
from dualpose.fusion import FusionStrategy, discriminator_score, fuse_pair, reference_scorers
from dualpose.heatmaps import render_stack
from dualpose.matching import MatchConfig, similarity_matrix
from dualpose.metrics import pck_abs
from dualpose.skeleton import (
    Frame,
    Pose2D,
    Pose3D,
    SkeletonSpec,
    TrackSequence,
    bone_lengths,
    default_skeleton,
    pose3d_camera,
    pose3d_person,
    poses_from_stack,
    rest_pose,
    stack_poses,
    to_camera_centric,
    to_person_centric,
)
from dualpose.ssl_losses import multi_perspective_loss, oracle_lifter, reprojection_loss

from conftest import random_camera_pose

_CAM = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
_CAMERA_POSE = pose3d_camera(rest_pose() + (0.0, 0.0, 5000.0))

# every entry point that needs camera-centric poses, called with person-centric `p`
CAMERA_CENTRIC_ENTRY_POINTS = {
    "fuse_pair": lambda p, skel: fuse_pair(_CAMERA_POSE, p, FusionStrategy.linear(), skel),
    "discriminator_score": lambda p, skel: discriminator_score(
        p, _CAMERA_POSE, reference_scorers(skel), skel),
    "similarity_matrix": lambda p, skel: similarity_matrix([_CAMERA_POSE], [p], MatchConfig()),
    "pck_abs": lambda p, skel: pck_abs(_CAMERA_POSE, p, 150.0),
    "render_stack": lambda p, skel: render_stack([p], _CAM, skel, 128, 96),
    "reprojection_loss": lambda p, skel: reprojection_loss(
        p, Pose2D(joints=np.zeros((15, 2)), conf=np.ones(15)), _CAM),
    "multi_perspective_loss": lambda p, skel: multi_perspective_loss(
        p, _CAM, 0.3, oracle_lifter(_CAMERA_POSE), skel),
    "TrackSequence": lambda p, skel: TrackSequence(0, {0: _CAMERA_POSE, 1: p}),
    "TrackSequence.add": lambda p, skel: TrackSequence(0, {0: _CAMERA_POSE}).add(1, p),
    "to_person_centric": lambda p, skel: to_person_centric(p, skel),
}


@pytest.mark.parametrize("entry", sorted(CAMERA_CENTRIC_ENTRY_POINTS))
def test_person_centric_pose_is_rejected_at_every_entry_point(skel, entry):
    person = pose3d_person(rest_pose())
    with pytest.raises(FrameMismatchError,
                       match="^expected a camera-centric pose, got person_centric$"):
        CAMERA_CENTRIC_ENTRY_POINTS[entry](person, skel)


def test_default_skeleton_is_valid_tree(skel):
    assert skel.num_joints == 15
    assert len(skel.bones) == 14
    assert skel.root_index == 0
    assert np.all(skel.oks_sigma > 0)


def test_skeleton_rejects_disconnected_graph():
    with pytest.raises(ValueError, match="connected"):
        SkeletonSpec(
            joint_names=("a", "b", "c", "d"),
            bones=((0, 1), (2, 3), (1, 0)),
            root_index=0,
        )


def test_skeleton_rejects_wrong_bone_count():
    with pytest.raises(ValueError, match="bones"):
        SkeletonSpec(joint_names=("a", "b", "c"), bones=((0, 1),), root_index=0)


def test_pose_conf_validated():
    with pytest.raises(ValueError):
        pose3d_camera(np.zeros((15, 3)), conf=np.full(15, 1.5))


_NAN_JOINT = np.zeros((2, 15, 3))
_NAN_JOINT[1, 4, 0] = np.nan


@pytest.mark.parametrize("joints, conf, frame, message", [
    (_NAN_JOINT, np.ones((2, 15)), Frame.CAMERA_CENTRIC, "finite"),
    (np.zeros((2, 15, 3)), np.full((2, 15), 1.5), Frame.CAMERA_CENTRIC, "confidences"),
    (np.zeros((2, 15, 3)), np.full((2, 15), -0.1), Frame.CAMERA_CENTRIC, "confidences"),
    (np.zeros((2, 15, 2)), np.ones((2, 15)), Frame.CAMERA_CENTRIC, r"\(n, K, 3\)"),
    (np.zeros((2, 15, 3)), np.ones((2, 15)), None, r"\(n, K, 2\)"),
    (np.zeros((2, 15, 3)), np.ones((2, 15)), "camera_centric", "Frame enum"),
], ids=["nan-joint", "conf-above-1", "conf-below-0", "2d-joints-as-3d", "3d-joints-as-2d",
        "string-tag"])
def test_poses_from_stack_checks_its_stacks(joints, conf, frame, message):
    with pytest.raises(ValueError, match=message):
        poses_from_stack(joints, conf, frame)


# signed zeros, subnormals and extremes must come back bit for bit
_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308,
                         -1e308, 3.0, 2.0 ** 53])


@pytest.mark.parametrize("frame", [None, Frame.CAMERA_CENTRIC, Frame.PERSON_CENTRIC])
def test_stack_poses_inverts_poses_from_stack(frame):
    rng = np.random.default_rng(12)
    d = 2 if frame is None else 3
    joints = rng.choice(_EDGE_VALUES, (4, 6, d)) * rng.choice([1.0, -1.0], (4, 6, d))
    joints[0, 0] = -0.0
    conf = rng.choice(np.array([0.0, -0.0, 5e-324, 0.5, 1.0]), (4, 6))
    for shape in (None, (6, d)):
        got_joints, got_conf = stack_poses(poses_from_stack(joints, conf, frame), shape)
        for got, want in ((got_joints, joints), (got_conf, conf)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_stack_poses_rejects_poses_of_two_skeletons(skel):
    rng = np.random.default_rng(13)
    pose = random_camera_pose(rng, skel)
    short = pose3d_camera(pose.joints[:-1])
    flat = Pose2D(joints=pose.joints[:, :2], conf=pose.conf)
    for poses, shape in (([pose, short], None), ([short, pose], None), ([pose, flat], None),
                         ([pose, pose], (14, 3)), ([short], (15, 3)), ([pose], (15, 2))):
        with pytest.raises(ValueError, match="^poses must share one skeleton$"):
            stack_poses(poses, shape)


def test_stack_poses_of_no_poses_needs_the_shape():
    joints, conf = stack_poses([], (15, 3))
    assert joints.shape == (0, 15, 3) and conf.shape == (0, 15)
    assert joints.dtype == conf.dtype == np.float64
    assert stack_poses([], (7, 2))[0].shape == (0, 7, 2)
    with pytest.raises(ValueError, match="shape"):
        stack_poses([])
    with pytest.raises(ValueError, match="shape"):
        TrackSequence(0).as_arrays()


def test_poses_have_no_instance_dict_and_stay_frozen():
    batch = poses_from_stack(np.zeros((2, 15, 3)), np.ones((2, 15)), Frame.CAMERA_CENTRIC)
    flat = poses_from_stack(np.zeros((1, 15, 2)), np.ones((1, 15)), None)
    built = Pose3D(joints=np.zeros((15, 3)), conf=np.ones(15), frame=Frame.CAMERA_CENTRIC)
    for pose in (*batch, *flat, built, Pose2D(joints=np.zeros((15, 2)), conf=np.ones(15))):
        assert not hasattr(pose, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pose.joints = np.ones_like(pose.joints)
    assert batch[0].frame is Frame.CAMERA_CENTRIC


def test_to_camera_centric_translates_zero_pose(skel):
    pose = pose3d_person(np.zeros((skel.num_joints, 3)))
    out = to_camera_centric(pose, (0.0, 0.0, 3000.0))
    assert out.frame is Frame.CAMERA_CENTRIC
    assert np.allclose(out.joints, [0.0, 0.0, 3000.0])


def test_to_camera_centric_additivity(skel):
    joints = np.zeros((skel.num_joints, 3))
    joints[1] = (100.0, 0.0, 0.0)
    out = to_camera_centric(pose3d_person(joints), (0.0, 0.0, 2000.0))
    assert np.allclose(out.joints[1], (100.0, 0.0, 2000.0))


def test_to_camera_centric_rejects_wrong_frame(skel):
    pose = pose3d_camera(rest_pose() + (0, 0, 3000.0))
    with pytest.raises(FrameMismatchError):
        to_camera_centric(pose, (0, 0, 0))


def test_to_person_centric_inverts(skel):
    rng = np.random.default_rng(7)
    for _ in range(20):
        pose = random_camera_pose(rng, skel)
        centered, root = to_person_centric(pose, skel)
        # independent subtract-root oracle
        assert np.allclose(centered.joints, pose.joints - pose.joints[0], atol=0)
        assert np.allclose(root, pose.joints[skel.root_index])
        assert np.max(np.abs(centered.joints[skel.root_index])) < 1e-9
        back = to_camera_centric(centered, root)
        assert np.max(np.abs(back.joints - pose.joints)) < 1e-9


def test_check_person_centric_validator(skel):
    from dualpose.skeleton import check_person_centric

    good, _ = to_person_centric(pose3d_camera(rest_pose() + (0, 0, 3000.0)), skel)
    check_person_centric(good, skel)  # no raise
    off = pose3d_person(rest_pose() + (1e-6, 0.0, 0.0))
    with pytest.raises(ValueError, match="root"):
        check_person_centric(off, skel)


def test_to_person_centric_identity_when_rooted(skel):
    pose = pose3d_camera(rest_pose() + (0, 0, 3000.0))
    centered, root = to_person_centric(pose, skel)
    recentered, root2 = to_person_centric(to_camera_centric(centered, (0, 0, 0)), skel)
    assert np.allclose(root2, 0.0)
    assert np.allclose(recentered.joints, centered.joints)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_round_trip_property(seed):
    skel = default_skeleton()
    rng = np.random.default_rng(seed)
    pose = random_camera_pose(rng, skel)
    centered, root = to_person_centric(pose, skel)
    back = to_camera_centric(centered, root)
    assert np.max(np.abs(back.joints - pose.joints)) < 1e-9


def test_bone_lengths_unit_offsets(skel):
    # Build joints so every bone spans exactly 1 mm along x: child = parent + x.
    joints = np.zeros((skel.num_joints, 3))
    depth = {skel.root_index: 0}
    for parent, child in skel.bones:
        depth[child] = depth[parent] + 1
        joints[child] = joints[parent] + (1.0, 0.0, 0.0)
    lengths = bone_lengths(pose3d_camera(joints + (0, 0, 10.0)), skel)
    assert np.allclose(lengths, 1.0)


def test_bone_lengths_degenerate_pose(skel):
    lengths = bone_lengths(pose3d_camera(np.full((skel.num_joints, 3), 5.0)), skel)
    assert np.allclose(lengths, 0.0)


def test_bone_lengths_matches_loop_oracle(skel):
    rng = np.random.default_rng(11)
    pose = random_camera_pose(rng, skel)
    lengths = bone_lengths(pose, skel)
    for i, (p, c) in enumerate(skel.bones):
        expected = np.sqrt(np.sum((pose.joints[c] - pose.joints[p]) ** 2))
        assert lengths[i] == expected


def test_bone_lengths_rigid_invariance(skel):
    rng = np.random.default_rng(13)
    pose = random_camera_pose(rng, skel)
    base = bone_lengths(pose, skel)
    # random rotation via QR, plus translation
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = pose3d_camera(pose.joints @ q.T + (123.0, -77.0, 4000.0))
    rotated = bone_lengths(moved, skel)
    assert np.max(np.abs(rotated - base) / np.maximum(base, 1e-12)) < 1e-9


def test_track_sequence_sorts_and_validates(skel):
    rng = np.random.default_rng(3)
    poses = {i: random_camera_pose(rng, skel) for i in (5, 1, 3)}
    track = TrackSequence(person_id=0, frames=poses)
    assert track.frame_indices == [1, 3, 5]
    track.add(6, poses[1])
    track.add(2, poses[3])
    assert track.frame_indices == [1, 2, 3, 5, 6]
    with pytest.raises(ValueError, match="frame 3 already present"):
        track.add(3, poses[5])
    with pytest.raises(FrameMismatchError):
        TrackSequence(person_id=1, frames={0: pose3d_person(np.zeros((15, 3)))})


def test_track_as_arrays_round_trip(skel):
    rng = np.random.default_rng(4)
    track = TrackSequence(0, {i: random_camera_pose(rng, skel) for i in range(4)})
    idx, joints, conf = track.as_arrays()
    rebuilt = track.with_joints(joints + 1.0)
    _, joints2, _ = rebuilt.as_arrays()
    assert np.allclose(joints2, joints + 1.0)
    empty = TrackSequence(7).with_joints(np.zeros((0, 15, 3)))
    assert empty.person_id == 7 and len(empty) == 0
    with pytest.raises(ValueError, match="share one skeleton"):
        track.with_joints(joints[:, :-1])
