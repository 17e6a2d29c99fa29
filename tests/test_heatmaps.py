import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpose.camera import CameraIntrinsics, project, rotate_points_about_y
from dualpose.errors import FrameMismatchError, OutOfGridError, SchemaError
from dualpose.frames_io import load_config
from dualpose.heatmaps import (
    WINDOW_SIGMAS,
    HeatmapConfig,
    HeatmapStack,
    bilinear_sample,
    decode_poses,
    decode_stack,
    extract_peaks,
    grid_camera,
    group_by_tags,
    read_stack,
    render_stack,
    retrieve_depths,
    write_stack,
)
from dualpose.skeleton import Pose2D, pose3d_camera, pose3d_person, rest_pose
from dualpose.synth import benchmark_camera

from oracles import (
    bilinear_sample_point,
    decode_loops,
    extract_peaks_loops,
    group_by_tags_loops,
    render_stack_loops,
)


def gaussian_map(h, w, u, v, sigma):
    ys, xs = np.mgrid[0:h, 0:w].astype(float)
    return np.exp(-((xs - u) ** 2 + (ys - v) ** 2) / (2.0 * sigma * sigma))


def single_joint_stack(h=64, w=64, k=1, u=30.0, v=40.0, sigma=2.0):
    joint = np.stack([gaussian_map(h, w, u, v, sigma) for _ in range(k)])
    return HeatmapStack(
        width=w, height=h,
        joint_maps=joint,
        tag_maps=np.zeros((k, h, w)),
        rel_depth_maps=np.zeros((k, h, w)),
        root_depth_map=np.full((h, w), 3000.0),
    )


def test_stack_shape_validation():
    with pytest.raises(ValueError):
        HeatmapStack(width=8, height=8, joint_maps=np.zeros((2, 8, 8)),
                     tag_maps=np.zeros((2, 8, 7)),
                     rel_depth_maps=np.zeros((2, 8, 8)),
                     root_depth_map=np.zeros((8, 8)))
    with pytest.raises(ValueError):
        HeatmapStack(width=8, height=8, joint_maps=np.full((1, 8, 8), 2.0),
                     tag_maps=np.zeros((1, 8, 8)),
                     rel_depth_maps=np.zeros((1, 8, 8)),
                     root_depth_map=np.zeros((8, 8)))


@pytest.mark.parametrize("plane", range(4))
def test_stack_accepts_each_plane_as_nested_lists(plane):
    k, h, w = 2, 3, 4
    planes = [np.full((k, h, w), 0.5) for _ in range(3)] + [np.full((h, w), 0.5)]
    planes[plane] = planes[plane].tolist()
    stack = HeatmapStack(w, h, *planes)
    assert stack.num_joints == k
    assert all(p.dtype == np.float64 for p in _stack_planes(stack))


def test_stack_reports_the_shape_of_joint_maps_that_are_not_3d():
    planes = np.zeros((2, 3))
    with pytest.raises(ValueError, match=re.escape(
            "joint_maps must have shape (K, 2, 3), got (2, 3)")):
        HeatmapStack(3, 2, planes, planes, planes, planes)


def test_extract_single_gaussian_peak():
    stack = single_joint_stack(u=30.0, v=40.0)
    peaks = extract_peaks(stack, 0.3)
    assert len(peaks) == 1 and len(peaks[0]) == 1
    u, v, score = peaks[0][0]
    assert abs(u - 30.0) <= 0.5 and abs(v - 40.0) <= 0.5
    assert score == pytest.approx(1.0, abs=1e-9)


def test_extract_subpixel_refinement_direction():
    # true peak at 30.4: integer max at 30, right neighbor larger -> +0.25
    stack = single_joint_stack(u=30.4, v=40.0)
    (u, v, _), = extract_peaks(stack, 0.3)[0]
    assert u == pytest.approx(30.25)
    assert v == pytest.approx(40.0)


def test_extract_on_all_zero_map():
    stack = single_joint_stack()
    zero = HeatmapStack(width=stack.width, height=stack.height,
                        joint_maps=np.zeros_like(stack.joint_maps),
                        tag_maps=stack.tag_maps,
                        rel_depth_maps=stack.rel_depth_maps,
                        root_depth_map=stack.root_depth_map)
    assert extract_peaks(zero, 0.3) == [[]]


def test_extract_two_separated_gaussians():
    h = w = 64
    m = np.maximum(gaussian_map(h, w, 20.0, 32.0, 2.0),
                   gaussian_map(h, w, 40.0, 32.0, 2.0))
    stack = HeatmapStack(width=w, height=h, joint_maps=m[None],
                         tag_maps=np.zeros((1, h, w)),
                         rel_depth_maps=np.zeros((1, h, w)),
                         root_depth_map=np.zeros((h, w)))
    peaks = extract_peaks(stack, 0.3)[0]
    assert len(peaks) == 2


def test_extract_threshold_monotonicity():
    h = w = 48
    rng = np.random.default_rng(71)
    m = np.zeros((h, w))
    for _ in range(6):
        m = np.maximum(m, rng.uniform(0.2, 1.0) * gaussian_map(
            h, w, rng.uniform(5, 43), rng.uniform(5, 43), 1.5))
    stack = HeatmapStack(width=w, height=h, joint_maps=m[None],
                         tag_maps=np.zeros((1, h, w)),
                         rel_depth_maps=np.zeros((1, h, w)),
                         root_depth_map=np.zeros((h, w)))
    previous = None
    for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
        peaks = {(u, v) for u, v, _ in extract_peaks(stack, theta)[0]}
        if previous is not None:
            assert peaks <= previous
        previous = peaks


def test_extract_rejects_bad_threshold():
    stack = single_joint_stack()
    with pytest.raises(ValueError):
        extract_peaks(stack, 0.0)


def test_group_rejects_nan_theta_tag():
    tags = np.zeros((1, 8, 8))
    peaks = [[(3.0, 3.0, 0.9)]]
    assert len(group_by_tags(peaks, tags, theta_tag=1.0)) == 1
    with pytest.raises(ValueError, match="theta_tag must be positive"):
        group_by_tags(peaks, tags, theta_tag=float("nan"))


def test_group_single_person_constant_tag():
    k, h, w = 3, 32, 32
    joint = np.stack([gaussian_map(h, w, 10.0 + 4 * j, 16.0, 1.5) for j in range(k)])
    stack_tags = np.full((k, h, w), 2.0)
    peaks = extract_peaks(HeatmapStack(width=w, height=h, joint_maps=joint,
                                       tag_maps=stack_tags,
                                       rel_depth_maps=np.zeros((k, h, w)),
                                       root_depth_map=np.zeros((h, w))), 0.3)
    persons = group_by_tags(peaks, stack_tags, theta_tag=1.0)
    assert len(persons) == 1
    assert np.sum(persons[0].conf > 0) == k


def test_group_two_persons_distinct_tags():
    k, h, w = 2, 40, 40
    # person A joints near x=10 with tag 0, person B near x=30 with tag 5
    joint = np.stack([
        np.maximum(gaussian_map(h, w, 10.0, 12.0 + 6 * j, 1.5),
                   gaussian_map(h, w, 30.0, 12.0 + 6 * j, 1.5))
        for j in range(k)
    ])
    tags = np.zeros((k, h, w))
    tags[:, :, 20:] = 5.0
    peaks = extract_peaks(HeatmapStack(width=w, height=h, joint_maps=joint,
                                       tag_maps=tags,
                                       rel_depth_maps=np.zeros((k, h, w)),
                                       root_depth_map=np.zeros((h, w))), 0.3)
    persons = group_by_tags(peaks, tags, theta_tag=1.0)
    assert len(persons) == 2
    for person in persons:
        xs = person.joints[person.conf > 0, 0]
        assert np.all(xs < 20) or np.all(xs > 20)  # no mixing


def test_group_outside_threshold_starts_new_person():
    # one existing group with tag 0; new peak with tag 10 beyond theta -> new group
    k, h, w = 1, 16, 32
    m = np.maximum(gaussian_map(h, w, 6.0, 8.0, 1.2),
                   gaussian_map(h, w, 25.0, 8.0, 1.2))
    tags = np.zeros((k, h, w))
    tags[:, :, 16:] = 10.0
    peaks = extract_peaks(HeatmapStack(width=w, height=h, joint_maps=m[None],
                                       tag_maps=tags,
                                       rel_depth_maps=np.zeros((k, h, w)),
                                       root_depth_map=np.zeros((h, w))), 0.3)
    persons = group_by_tags(peaks, tags, theta_tag=1.0)
    assert len(persons) == 2


def test_retrieve_depths_constant_map(skel):
    k, h, w = skel.num_joints, 32, 32
    stack = HeatmapStack(width=w, height=h, joint_maps=np.zeros((k, h, w)),
                         tag_maps=np.zeros((k, h, w)),
                         rel_depth_maps=np.full((k, h, w), -120.0),
                         root_depth_map=np.full((h, w), 3000.0))
    rng = np.random.default_rng(72)
    joints = rng.uniform(1, 30, size=(k, 2))
    pose = Pose2D(joints=joints, conf=np.ones(k))
    z_root, z_rel = retrieve_depths(pose.joints, stack, skel)
    assert z_root == 3000.0
    assert np.allclose(z_rel, -120.0)


def test_bilinear_integer_coordinates_match_cells():
    rng = np.random.default_rng(73)
    grid = rng.standard_normal((9, 7))
    for y in range(9):
        for x in range(7):
            assert bilinear_sample(grid, float(x), float(y)) == pytest.approx(grid[y, x], abs=1e-12)


def test_bilinear_matches_independent_oracle():
    rng = np.random.default_rng(74)
    grid = rng.standard_normal((16, 12))

    def oracle(g, u, v):
        x0, y0 = int(np.floor(u)), int(np.floor(v))
        x1, y1 = min(x0 + 1, g.shape[1] - 1), min(y0 + 1, g.shape[0] - 1)
        fx, fy = u - x0, v - y0
        return (g[y0, x0] * (1 - fx) * (1 - fy) + g[y0, x1] * fx * (1 - fy)
                + g[y1, x0] * (1 - fx) * fy + g[y1, x1] * fx * fy)

    for _ in range(200):
        u = rng.uniform(0, 11)
        v = rng.uniform(0, 15)
        assert bilinear_sample(grid, u, v) == pytest.approx(oracle(grid, u, v), abs=1e-9)


def test_retrieve_depths_out_of_grid(skel):
    k, h, w = skel.num_joints, 16, 16
    stack = HeatmapStack(width=w, height=h, joint_maps=np.zeros((k, h, w)),
                         tag_maps=np.zeros((k, h, w)),
                         rel_depth_maps=np.zeros((k, h, w)),
                         root_depth_map=np.zeros((h, w)))
    joints = np.full((k, 2), 40.0)
    pose = Pose2D(joints=joints, conf=np.ones(k))
    with pytest.raises(OutOfGridError):
        retrieve_depths(pose.joints, stack, skel)


def test_retrieve_depths_of_many_persons_equal_one_person_calls(skel):
    rng = np.random.default_rng(79)
    k = skel.num_joints
    for h, w in GRIDS:
        stack = random_stack(rng, k, h, w)
        joints = rng.uniform(0, 1, (5, k, 2)) * (w - 1, h - 1)
        joints[0, :3] = np.floor(joints[0, :3])
        joints[1, skel.root_index] = (w - 1, h - 1)
        z_root, z_rel = retrieve_depths(joints, stack, skel)
        assert z_root.shape == (5,) and z_rel.shape == (5, k)
        for p in range(5):
            one_root, one_rel = retrieve_depths(joints[p], stack, skel)
            assert type(one_root) is float and z_root[p] == one_root
            assert z_rel[p].tolist() == one_rel.tolist()
        z_root, z_rel = retrieve_depths(np.zeros((0, k, 2)), stack, skel)
        assert z_root.shape == (0,) and z_rel.shape == (0, k)


def test_grid_camera_scales_the_image_onto_the_grid():
    fitted = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
    assert grid_camera(fitted, 128, 96) == fitted
    assert grid_camera(benchmark_camera(), 128, 96) == \
        CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=36.0)
    with pytest.raises(ValueError, match="principal point"):
        grid_camera(CameraIntrinsics(fx=110.0, fy=110.0, cx=0.0, cy=-1.0), 128, 96)


def _random_persons_stack(rng, skel, cam, n):
    """A 128x96 stack rendered from ``n`` persons placed, turned and scaled
    at random, with person 0's root peak and person 1's head peak erased:
    the first leaves a group with no root joint, the second a person with a
    zero-confidence joint."""
    poses = []
    while len(poses) < n:
        root = (rng.uniform(-4000, 4000), rng.uniform(-300, 300), rng.uniform(3500, 7000))
        joints = rotate_points_about_y(rest_pose(rng.uniform(0.8, 1.1)), rng.uniform(-3, 3),
                                       np.zeros(3)) + root
        uv = project(joints, cam)
        if (uv >= 0).all() and (uv <= (127, 95)).all():
            poses.append(pose3d_camera(joints))
    stack = render_stack(poses, cam, skel, width=128, height=96)
    joint_maps = stack.joint_maps.copy()
    ys, xs = np.mgrid[0:96, 0:128]
    for person, joint in ((0, skel.root_index), (1, skel.joint_names.index("head"))):
        u, v = project(poses[person].joints[joint], cam)
        joint_maps[joint][(xs - u) ** 2 + (ys - v) ** 2 <= 25.0] = 0.0
    return HeatmapStack(128, 96, joint_maps, stack.tag_maps, stack.rel_depth_maps,
                        stack.root_depth_map)


def test_decode_equals_per_person_loop(skel):
    rng = np.random.default_rng(80)
    cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    rootless = zero_conf = 0
    for _ in range(12):
        stack = _random_persons_stack(rng, skel, cam, int(rng.integers(2, 7)))
        expected, joints3d = decode_loops(stack, cam, skel, 0.3, 1.0)
        decoded = decode_stack(stack, skel)
        assert len(decoded) == len(expected)
        for (pose, z_root, z_rel), (pose_x, z_root_x, z_rel_x) in zip(decoded, expected):
            assert np.array_equal(pose.joints, pose_x.joints)
            assert np.array_equal(pose.conf, pose_x.conf)
            assert type(z_root) is float and z_root == z_root_x
            assert np.array_equal(z_rel, z_rel_x)
        poses = decode_poses(stack, cam, skel)
        assert len(poses) == len(expected)
        for pose, joints, (pose_x, _, _) in zip(poses, joints3d, expected):
            assert np.array_equal(pose.joints, joints)
            assert np.array_equal(pose.conf, pose_x.conf)
        groups = group_by_tags(extract_peaks(stack, 0.3), stack.tag_maps, 1.0)
        rootless += len(groups) - len(decoded)
        zero_conf += sum(bool((pose.conf == 0.0).any()) for pose in poses)
    assert rootless > 0 and zero_conf > 0


@pytest.mark.parametrize("key, value", [
    ("width", 0), ("width", 12.5), ("height", -96), ("sigma_px", 0.0), ("sigma_px", -2.0),
    ("sigma_px", np.nan), ("theta_peak", 0.0), ("theta_peak", 1.5), ("theta_peak", np.nan),
    ("theta_tag", -1.0), ("theta_tag", np.inf),
])
def test_heatmap_config_rejects_bad_values(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"heatmap": {key: value}}))
    with pytest.raises(SchemaError, match=rf"invalid config: config\.heatmap(: |\.){key}\b"):
        load_config(path)
    with pytest.raises(ValueError, match=key):
        HeatmapConfig(**{key: value})


def scene_pose(skel, cam, center, scale=0.06):
    """Small-bodied pose that projects well inside a 128x96 grid."""
    return pose3d_camera(rest_pose(scale) * 20.0 + np.asarray(center))


def test_render_decode_round_trip_single(skel):
    from dualpose.camera import CameraIntrinsics

    # depth chosen so no joint projects exactly onto a half-integer pixel
    # (such plateau ties are undetectable by the strict local-max rule)
    grid_cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    pose = pose3d_camera(rest_pose(1.0) + (0.0, 0.0, 4001.0))
    stack = render_stack([pose], grid_cam, skel, width=128, height=96, sigma_px=2.0)
    decoded = decode_stack(stack, skel)
    assert len(decoded) == 1
    p2d, z_root, z_rel = decoded[0]
    from dualpose.camera import project

    uv_true = project(pose.joints, grid_cam)
    assert np.max(np.abs(p2d.joints - uv_true)) <= 0.5
    assert abs(z_root - pose.joints[skel.root_index, 2]) <= 1e-3
    z_true = pose.joints[:, 2] - pose.joints[skel.root_index, 2]
    assert np.max(np.abs(z_rel - z_true)) <= 1e-3


def test_render_zero_poses_gives_zero_stack(skel, cam):
    stack = render_stack([], cam, skel, width=32, height=24)
    assert not stack.joint_maps.any()
    assert not stack.root_depth_map.any()
    assert decode_stack(stack, skel) == []
    assert decode_poses(stack, cam, skel) == []


def test_render_decode_two_person_grouping(skel):
    from dualpose.camera import CameraIntrinsics, project

    cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    a = pose3d_camera(rest_pose(1.0) + (-1500.0, 0.0, 4000.0))
    b = pose3d_camera(rest_pose(1.0) + (1800.0, 0.0, 4000.0))
    stack = render_stack([a, b], cam, skel, width=128, height=96, sigma_px=2.0)
    decoded = decode_stack(stack, skel)
    assert len(decoded) == 2
    # map each decoded person to the nearer ground truth by root pixel
    roots_true = [project(p.joints[skel.root_index], cam) for p in (a, b)]
    for p2d, z_root, _ in decoded:
        root_px = p2d.joints[skel.root_index]
        dists = [np.linalg.norm(root_px - r) for r in roots_true]
        nearest = int(np.argmin(dists))
        assert dists[nearest] <= 0.5
        truth = (a, b)[nearest]
        assert abs(z_root - truth.joints[skel.root_index, 2]) <= 1e-3


def test_render_rejects_out_of_grid(skel, cam):
    pose = pose3d_camera(rest_pose(1.0) + (0.0, 0.0, 2000.0))  # projects huge
    with pytest.raises(OutOfGridError):
        render_stack([pose], cam, skel, width=64, height=48)


def test_stack_file_round_trip(tmp_path, skel):
    rng = np.random.default_rng(75)
    k, h, w = 4, 12, 10
    stack = HeatmapStack(
        width=w, height=h,
        joint_maps=rng.random((k, h, w)).astype(np.float32).astype(np.float64),
        tag_maps=rng.standard_normal((k, h, w)).astype(np.float32).astype(np.float64),
        rel_depth_maps=rng.standard_normal((k, h, w)).astype(np.float32).astype(np.float64),
        root_depth_map=(3000 + rng.standard_normal((h, w))).astype(np.float32).astype(np.float64),
    )
    path = tmp_path / "stack.phms"
    write_stack(stack, path)
    loaded = read_stack(path)
    assert loaded.width == w and loaded.height == h
    assert np.array_equal(loaded.joint_maps, stack.joint_maps)
    assert np.array_equal(loaded.tag_maps, stack.tag_maps)
    assert np.array_equal(loaded.rel_depth_maps, stack.rel_depth_maps)
    assert np.array_equal(loaded.root_depth_map, stack.root_depth_map)
    # header sanity
    blob = path.read_bytes()
    assert blob[:4] == b"PHMS"


def test_read_stack_rejects_garbage(tmp_path):
    path = tmp_path / "bad.phms"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(SchemaError):
        read_stack(path)
    path.write_bytes(b"PHMS")
    with pytest.raises(SchemaError):
        read_stack(path)


def random_stack(rng, k, h, w, levels=None, dtype=np.float64):
    """Stack of random planes of ``dtype``; ``levels`` > 0 draws joint maps
    from that many equally spaced values, so neighbors and scores tie."""
    if levels:
        joint = rng.integers(0, levels + 1, (k, h, w)) / levels
    else:
        joint = rng.random((k, h, w))
    return HeatmapStack(width=w, height=h, joint_maps=joint.astype(dtype),
                        tag_maps=(rng.standard_normal((k, h, w)) * 3.0).astype(dtype),
                        rel_depth_maps=(rng.standard_normal((k, h, w)) * 200.0).astype(dtype),
                        root_depth_map=(3000.0 + rng.standard_normal((h, w))).astype(dtype))


GRIDS = [(1, 1), (1, 7), (7, 1), (2, 2), (5, 9), (12, 10), (24, 32)]


def test_extract_peaks_equal_loop_oracle():
    rng = np.random.default_rng(76)
    border = 0
    for h, w in GRIDS:
        for levels in (None, 3, 8):
            stack = random_stack(rng, 3, h, w, levels)
            for theta in (0.05, 0.5, 0.9):
                peaks = extract_peaks(stack, theta)
                assert peaks == extract_peaks_loops(stack.joint_maps, theta)
                border += sum(u in (0.0, w - 1) or v in (0.0, h - 1)
                              for joint in peaks for u, v, _ in joint)
    assert border > 50


# 0.3 rounded to float32, its float32 neighbor above it, and a threshold
# between the two
_F32 = float(np.float32(0.3))
_F32_NEXT = float(np.nextafter(np.float32(0.3), np.float32(1.0)))


@pytest.mark.parametrize("theta", [(_F32 + _F32_NEXT) / 2, _F32, _F32_NEXT, 0.3, 0.5,
                                   0.5 + 1e-12, 0.9])
def test_extract_peaks_of_float32_planes_equal_the_loop_oracle_on_their_float64_copy(theta):
    """A float32 cell meets the threshold exactly when its float64 value
    does, also for thresholds that float32 cannot hold.  The joint maps
    mix random values with the values either side of each threshold, so
    cells lie on both sides of it and on plateaus; with every cell below
    it, or a one-wide grid, no candidate or no neighbor is left."""
    rng = np.random.default_rng(82)
    near = np.array([_F32, _F32_NEXT, 0.5, float(np.nextafter(np.float32(0.5), np.float32(1.0))),
                     float(np.nextafter(np.float32(0.5), np.float32(0.0)))])
    found = 0
    for h, w in GRIDS:
        for levels in (None, 3):
            stack = random_stack(rng, 3, h, w, levels, np.float32)
            joint = np.where(rng.random((3, h, w)) < 0.5, rng.choice(near, (3, h, w)),
                             stack.joint_maps).astype(np.float32)
            for maps in (joint, joint * np.float32(0.25)):
                stack = HeatmapStack(w, h, maps, stack.tag_maps, stack.rel_depth_maps,
                                     stack.root_depth_map)
                peaks = extract_peaks(stack, theta)
                assert peaks == extract_peaks_loops(maps.astype(np.float64), theta)
                found += sum(map(len, peaks))
    assert found > 20


def test_group_by_tags_on_float32_tag_planes_equals_the_loop_oracle_on_their_float64_copy():
    rng = np.random.default_rng(83)
    persons = 0
    for h, w in GRIDS:
        stack = random_stack(rng, 4, h, w, 4, np.float32)
        peaks = extract_peaks(stack, 0.3)
        for theta_tag in (0.5, 2.0, 8.0):
            grouped = group_by_tags(peaks, stack.tag_maps, theta_tag)
            joints, conf = group_by_tags_loops(peaks, stack.tag_maps.astype(np.float64), theta_tag)
            assert len(grouped) == len(joints)
            for person, j_exp, c_exp in zip(grouped, joints, conf):
                assert person.joints.tobytes() == j_exp.tobytes()
                assert person.conf.tobytes() == c_exp.tobytes()
            persons += len(grouped)
    assert persons > 20


def test_bilinear_interpolates_float32_planes_in_float64():
    # a float32 plane is sampled as its float64 copy: the weights of a point
    # that float32 cannot hold, and the sums, stay float64
    grid = (np.arange(20.0).reshape(4, 5) / 7.0).astype(np.float32)
    grid64 = grid.astype(np.float64)
    u, v = 1.3, 2.7
    expected = bilinear_sample(grid64, u, v)
    # the point tells the two apart: rounded to float32, it samples elsewhere
    assert bilinear_sample(grid64, np.float32(u), np.float32(v)) != expected
    assert bilinear_sample(grid, u, v) == expected
    stack = np.stack([grid, grid[::-1]])
    points = np.array([[u, 0.5], [3.9, u]]), np.array([[v, 0.25], [v, 1.1]])
    assert np.array_equal(bilinear_sample(stack, *points),
                          bilinear_sample(stack.astype(np.float64), *points))


def test_bilinear_gather_equals_scalar_oracle():
    rng = np.random.default_rng(77)
    for h, w in GRIDS:
        grid = rng.standard_normal((h, w))
        u = np.concatenate([rng.uniform(0, w - 1, 40), np.arange(w), np.full(h, w - 1.0)])
        v = np.concatenate([rng.uniform(0, h - 1, 40), np.zeros(w), np.arange(h)])
        got = bilinear_sample(grid, u, v)
        assert got.shape == u.shape
        assert got.tolist() == [bilinear_sample_point(grid, a, b) for a, b in zip(u, v)]
        assert bilinear_sample(grid, u[0], v[0]) == bilinear_sample_point(grid, u[0], v[0])
        planes = rng.standard_normal((5, h, w))
        got = bilinear_sample(planes, u[:5], v[:5])
        assert got.tolist() == [bilinear_sample_point(planes[i], u[i], v[i]) for i in range(5)]
        got = bilinear_sample(planes, np.tile(u[:4], (5, 1)), np.tile(v[:4], (5, 1)))
        assert got.tolist() == [[bilinear_sample_point(planes[i], u[j], v[j]) for j in range(4)]
                                for i in range(5)]


def test_bilinear_gather_rejects_any_point_outside():
    grid = np.zeros((4, 6))
    with pytest.raises(OutOfGridError, match=r"sample \(5.5, 1.0\) outside grid 6x4"):
        bilinear_sample(grid, 5.5, 1.0)
    with pytest.raises(OutOfGridError, match=r"sample \(-0.5, 0.0\) outside grid 6x4"):
        bilinear_sample(grid, np.array([1.0, -0.5, 9.0]), np.zeros(3))
    with pytest.raises(OutOfGridError):
        bilinear_sample(grid, np.array([1.0, np.nan]), np.zeros(2))


def test_depth_and_tag_gathers_equal_scalar_oracle(skel):
    rng = np.random.default_rng(78)
    k = skel.num_joints
    for h, w in GRIDS:
        stack = random_stack(rng, k, h, w)
        joints = rng.uniform(0, 1, (k, 2)) * (w - 1, h - 1)
        joints[:3] = np.floor(joints[:3])  # cells, including the last row / column
        joints[3] = (w - 1, h - 1)
        z_root, z_rel = retrieve_depths(joints, stack, skel)
        u, v = joints[skel.root_index]
        assert z_root == bilinear_sample_point(stack.root_depth_map, u, v)
        assert z_rel.tolist() == [bilinear_sample_point(stack.rel_depth_maps[j], *joints[j])
                                  for j in range(k)]
        for levels in (None, 4):
            stack = random_stack(rng, 4, h, w, levels)
            peaks = extract_peaks(stack, 0.3)
            for theta_tag in (0.5, 2.0, 8.0):
                persons = group_by_tags(peaks, stack.tag_maps, theta_tag)
                joints_expected, conf_expected = group_by_tags_loops(
                    peaks, stack.tag_maps, theta_tag)
                assert len(persons) == len(joints_expected)
                for person, j_exp, c_exp in zip(persons, joints_expected, conf_expected):
                    assert np.array_equal(person.joints, j_exp)
                    assert np.array_equal(person.conf, c_exp)


def _stack_bytes(k, w, h, seed=0):
    rng = np.random.default_rng(seed)
    planes = np.concatenate([rng.random(k * h * w), rng.standard_normal(2 * k * h * w + h * w)])
    return (b"PHMS" + struct.pack("<H3I", 1, k, w, h)
            + planes.astype("<f4").tobytes())


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), w=st.integers(1, 12), h=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_stack_file_round_trip_is_bit_exact(tmp_path_factory, k, w, h, seed):
    path = tmp_path_factory.mktemp("stacks") / "s.phms"
    blob = _stack_bytes(k, w, h, seed)
    path.write_bytes(blob)
    stack = read_stack(path, num_joints=k)
    assert (stack.num_joints, stack.width, stack.height) == (k, w, h)
    again = path.with_name("again.phms")
    write_stack(stack, again)
    assert again.read_bytes() == blob


def test_read_stack_rejects_every_truncation(tmp_path):
    blob = _stack_bytes(2, 3, 2)
    path = tmp_path / "cut.phms"
    for cut in range(1, len(blob) + 1):
        path.write_bytes(blob[:-cut])
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
            read_stack(path)


def _good_or(value, strategy):
    return st.one_of(st.just(value), strategy)


@settings(max_examples=80, deadline=None)
@given(k=_good_or(2, st.integers(0, 2**32 - 1)), w=_good_or(3, st.integers(0, 2**32 - 1)),
       h=_good_or(2, st.integers(0, 2**32 - 1)), version=_good_or(1, st.integers(0, 2**16 - 1)),
       magic=_good_or(b"PHMS", st.binary(min_size=4, max_size=4)))
def test_read_stack_rejects_bad_headers(tmp_path_factory, k, w, h, version, magic):
    blob = _stack_bytes(2, 3, 2)
    path = tmp_path_factory.mktemp("stacks") / "bad.phms"
    path.write_bytes(magic + struct.pack("<H3I", version, k, w, h) + blob[18:])
    if magic == b"PHMS" and version == 1 and (k, w, h) == (2, 3, 2):
        assert read_stack(path).num_joints == 2
        return
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
        read_stack(path)


@pytest.mark.parametrize("plane, message", [
    (0, "joint_maps values must lie within [0, 1]"),
    (1, "tag_maps values must be finite"),
    (2, "rel_depth_maps values must be finite"),
    (3, "root_depth_map values must be finite"),
])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_stack_rejects_non_finite_planes(tmp_path, plane, message, bad):
    k, w, h = 2, 3, 2
    values = np.frombuffer(_stack_bytes(k, w, h), dtype="<f4", offset=18).copy()
    values[plane * k * w * h + 4] = bad
    path = tmp_path / "nan.phms"
    path.write_bytes(b"PHMS" + struct.pack("<H3I", 1, k, w, h) + values.tobytes())
    with pytest.raises(SchemaError) as info:
        read_stack(path)
    assert str(info.value) == f"{path}: {message}"


def test_read_stack_checks_the_joint_count(tmp_path):
    path = tmp_path / "five.phms"
    path.write_bytes(_stack_bytes(5, 4, 3))
    assert read_stack(path).num_joints == 5
    with pytest.raises(SchemaError) as info:
        read_stack(path, num_joints=15)
    assert str(info.value) == f"{path}: expected 15 joints, got 5"


def _stack_planes(stack):
    return stack.joint_maps, stack.tag_maps, stack.rel_depth_maps, stack.root_depth_map


def _render_scene(case, seed):
    """Poses (and tags) of one render-test scene: zero, one or six persons,
    spread, overlapping or on a coarse grid where some coincide."""
    rng = np.random.default_rng(seed)
    n = {"zero": 0, "one": 1}.get(case, 6)
    poses, tags = [], None
    for _ in range(n):
        root = np.array([rng.uniform(-1500, 1500), rng.uniform(-300, 300),
                         rng.uniform(4500, 7000)])
        if case == "overlapping":
            root = np.array([0.0, 0.0, 5000.0]) + rng.uniform(-60, 60, size=3)
        if case == "grid_ties":  # persons on a coarse grid, some exactly coincident
            root = np.array([400.0 * rng.integers(-1, 2), 0.0, 5000.0 + 500.0 * rng.integers(0, 2)])
        poses.append(pose3d_camera(rest_pose() + root))
    if case == "custom_tags":
        tags = rng.normal(size=n).tolist()
    return poses, tags


def _disks(poses, cam, skel, width, height, radius):
    """(K, H, W): which cells lie within ``radius`` px of some person's joint k."""
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    inside = np.zeros((skel.num_joints, height, width), dtype=bool)
    for pose in poses:
        for joint, (u, v) in enumerate(project(pose.joints, cam)):
            inside[joint] |= (xs - u) ** 2 + (ys - v) ** 2 <= radius * radius
    return inside


@pytest.mark.parametrize("case", ["zero", "one", "spread", "custom_tags", "overlapping",
                                  "grid_ties"])
def test_render_stack_equals_loop_oracle(skel, case):
    """Within WINDOW_SIGMAS sigma of some person's joint every plane equals
    the full-grid per-person loop bit for bit; elsewhere every plane is 0,
    where the loop's Gaussians are at most exp(-r^2 / (2 sigma^2))."""
    cam = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
    poses, tags = _render_scene(case, ["zero", "one", "spread", "custom_tags", "overlapping",
                                       "grid_ties"].index(case))
    stack = render_stack(poses, cam, skel, width=128, height=96, tags=tags)
    expected = render_stack_loops(poses, cam, skel, 128, 96, tags=tags)
    radius = math.ceil(WINDOW_SIGMAS * 2.0)
    inside = _disks(poses, cam, skel, 128, 96, radius)
    for plane, plane_x, disk in zip(_stack_planes(stack), expected,
                                    [inside] * 3 + [inside[skel.root_index]]):
        assert plane.dtype == plane_x.dtype
        assert np.array_equal(plane[disk], plane_x[disk])
        assert not plane[~disk].any()
    assert (expected[0][~inside] <= math.exp(-radius ** 2 / (2.0 * 2.0 ** 2))).all()


@pytest.mark.parametrize("sigma", [40.0, 1e300])
def test_render_stack_disks_wider_than_the_grid_cover_it(skel, sigma):
    """A disk wider than the grid's diagonal renders every cell, as the
    full-grid loop does, however large sigma is."""
    cam = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
    poses = [pose3d_camera(rest_pose() + root) for root in ((-900.0, 0.0, 5000.0),
                                                           (700.0, 100.0, 6000.0))]
    stack = render_stack(poses, cam, skel, 128, 96, sigma_px=sigma)
    expected = render_stack_loops(poses, cam, skel, 128, 96, sigma_px=sigma)
    for plane, plane_x in zip(_stack_planes(stack), expected):
        assert np.array_equal(plane, plane_x)


@pytest.mark.parametrize("seed", range(4))
def test_render_stack_decodes_as_the_loop_oracle(tmp_path, skel, seed):
    """Six persons 0.9 m apart about 6 m away, turned at random, as in the
    decode benchmark: the windowed stack, stored as float32, decodes byte
    for byte as the full-grid loop's."""
    rng = np.random.default_rng(100 + seed)
    cam = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
    poses = []
    for i in range(6):
        root = (-2250.0 + 900.0 * i + rng.uniform(-100, 100), rng.uniform(-100, 100),
                6000.0 + rng.uniform(-300, 300))
        joints = rotate_points_about_y(rest_pose(rng.uniform(0.9, 1.05)), rng.uniform(-3, 3),
                                       np.zeros(3))
        poses.append(pose3d_camera(joints + root))
    write_stack(render_stack(poses, cam, skel, 128, 96), tmp_path / "windowed.phms")
    write_stack(HeatmapStack(128, 96, *render_stack_loops(poses, cam, skel, 128, 96)),
                tmp_path / "loops.phms")
    decoded, expected = (decode_poses(read_stack(tmp_path / name), cam, skel)
                         for name in ("windowed.phms", "loops.phms"))
    assert len(decoded) == len(expected) == 6
    for pose, pose_x in zip(decoded, expected):
        assert pose.joints.tobytes() == pose_x.joints.tobytes()
        assert pose.conf.tobytes() == pose_x.conf.tobytes()


def test_render_stack_error_order(skel):
    cam = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
    inside = pose3d_camera(rest_pose() + (0.0, 0.0, 5000.0))
    with pytest.raises(ValueError, match="one tag value per pose"):
        render_stack([inside], cam, skel, 128, 96, tags=[0.0, 1.0])
    with pytest.raises(ValueError, match="one tag value per pose"):
        render_stack([], cam, skel, 128, 96, tags=[1.0, 2.0])
    with pytest.raises(FrameMismatchError, match="camera-centric"):
        render_stack([inside, pose3d_person(rest_pose())], cam, skel, 128, 96)
    with pytest.raises(ValueError, match="share one skeleton"):
        render_stack([pose3d_camera(inside.joints[:-1])], cam, skel, 128, 96)
    with pytest.raises(OutOfGridError, match="outside the heatmap grid"):
        render_stack([inside, pose3d_camera(rest_pose() + (0.0, 0.0, 500.0))], cam, skel,
                     128, 96)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("persons", [0, 1])
def test_render_stack_rejects_a_bad_sigma(skel, sigma, persons):
    cam = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
    poses = [pose3d_camera(rest_pose() + (0.0, 0.0, 5000.0))] * persons
    with pytest.raises(ValueError, match=f"sigma_px must be finite and positive, got {sigma!r}"):
        render_stack(poses, cam, skel, 128, 96, sigma_px=sigma)


def test_read_stack_keeps_float32_planes_and_decodes_as_their_float64_copy(tmp_path, skel):
    rng = np.random.default_rng(81)
    cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    persons = 0
    for i in range(6):
        path = tmp_path / f"stack{i}.phms"
        write_stack(_random_persons_stack(rng, skel, cam, int(rng.integers(3, 7))), path)
        stack32 = read_stack(path, skel.num_joints)
        assert all(plane.dtype == np.float32 for plane in _stack_planes(stack32))
        stack64 = HeatmapStack(128, 96, *(plane.astype(np.float64)
                                          for plane in _stack_planes(stack32)))
        assert all(plane.dtype == np.float64 for plane in _stack_planes(stack64))
        decoded32, decoded64 = decode_stack(stack32, skel), decode_stack(stack64, skel)
        assert len(decoded32) == len(decoded64)
        persons += len(decoded32)
        for (pose, z_root, z_rel), (pose_x, z_root_x, z_rel_x) in zip(decoded32, decoded64):
            assert np.array_equal(pose.joints, pose_x.joints)
            assert np.array_equal(pose.conf, pose_x.conf)
            assert z_root == z_root_x and np.array_equal(z_rel, z_rel_x)
        for pose, pose_x in zip(decode_poses(stack32, cam, skel), decode_poses(stack64, cam, skel)):
            assert np.array_equal(pose.joints, pose_x.joints)
    assert persons >= 10


def test_float32_planes_meet_the_peak_threshold_as_float64():
    # 0.5 lies below the threshold, but not below its float32 rounding (0.5)
    joint_maps = np.zeros((1, 5, 5), dtype=np.float32)
    joint_maps[0, 2, 2] = 0.5
    zeros = np.zeros_like(joint_maps)
    stack = HeatmapStack(5, 5, joint_maps, zeros, zeros, zeros[0])
    assert stack.joint_maps.dtype == np.float32
    assert extract_peaks(stack, 0.5 + 1e-12) == [[]]
    assert extract_peaks(stack, 0.5) == [[(2.0, 2.0, 0.5)]]


_PLANE_NAMES = ("joint_maps", "tag_maps", "rel_depth_maps", "root_depth_map")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("plane", range(4))
def test_stack_rejects_a_non_finite_value_anywhere_in_each_plane(dtype, bad, plane):
    k, h, w = 2, 3, 4
    message = ("joint_maps values must lie within [0, 1]" if plane == 0
               else f"{_PLANE_NAMES[plane]} values must be finite")
    for cell in (0, 5, -1):
        planes = [np.full((k, h, w), 0.5, dtype) for _ in range(3)] + [np.full((h, w), 0.5, dtype)]
        planes[plane].reshape(-1)[cell] = bad
        with pytest.raises(ValueError) as info:
            HeatmapStack(w, h, *planes)
        assert str(info.value) == message


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stack_bounds_its_joint_maps_to_the_unit_interval(dtype):
    k, h, w = 2, 3, 4
    zeros = np.zeros((k, h, w), dtype)
    for value, accepted in ((-0.0, True), (1.0, True), (-1e-30, False),
                            (float(np.nextafter(dtype(1.0), dtype(2.0))), False)):
        joint = np.full((k, h, w), 0.5, dtype)
        joint[1, 2, 3] = value
        if accepted:
            assert HeatmapStack(w, h, joint, zeros, zeros, zeros[0]).joint_maps.dtype == dtype
        else:
            with pytest.raises(ValueError, match=r"joint_maps values must lie within \[0, 1\]"):
                HeatmapStack(w, h, joint, zeros, zeros, zeros[0])


def test_stack_with_no_joints_is_valid_and_decodes_to_nothing():
    empty = np.zeros((0, 3, 4))
    stack = HeatmapStack(4, 3, empty, empty, empty, np.full((3, 4), 3000.0))
    assert stack.num_joints == 0
    assert extract_peaks(stack, 0.3) == []
    assert group_by_tags([], stack.tag_maps) == []


def test_stack_planes_of_other_types_become_float64():
    ones = np.ones((1, 2, 3), dtype=np.int64)
    stack = HeatmapStack(3, 2, ones, ones, ones.astype(np.float16), ones[0].tolist())
    assert all(plane.dtype == np.float64 for plane in _stack_planes(stack))
