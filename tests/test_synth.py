import math

import numpy as np
import pytest

from dualpose.camera import project
from dualpose.skeleton import bone_lengths_of
from dualpose.synth import (
    MotionSpec,
    SceneSpec,
    SceneSpecError,
    benchmark_camera,
    generate,
    make_benchmark_spec,
)
from dualpose.tto import TtoConfig, trajectory_loss, trajectory_loss_grad


def simple_spec(**overrides):
    defaults = dict(
        num_persons=2,
        num_frames=8,
        motions=(
            MotionSpec(kind="linear", root_coeffs=((-800.0, 0.0, 4000.0), (5.0, 1.0, 10.0))),
            MotionSpec(kind="constant", root_coeffs=((900.0, 0.0, 5000.0),)),
        ),
        seed=123,
    )
    defaults.update(overrides)
    return SceneSpec(**defaults)


def test_zero_noise_sources_equal_gt(skel):
    data = generate(simple_spec(), benchmark_camera(), skel)
    gt_frames = data.gt_frames()
    for t in range(data.num_frames):
        for p in range(2):
            assert np.array_equal(data.noisy_td[t][p].joints, gt_frames[t][p].joints)
            assert np.array_equal(data.noisy_bu[t][p].joints, gt_frames[t][p].joints)
            assert np.all(data.noisy_td[t][p].conf == 1.0)


def test_fixed_seed_bit_identical(skel):
    cam = benchmark_camera()
    spec = simple_spec(sigma_3d_mm=25.0, sigma_2d_px=1.5, drop_prob=0.2,
                       conf_jitter=0.3)
    a = generate(spec, cam, skel)
    b = generate(spec, cam, skel)
    for t in range(a.num_frames):
        for p in range(2):
            assert np.array_equal(a.noisy_td[t][p].joints, b.noisy_td[t][p].joints)
            assert np.array_equal(a.noisy_bu[t][p].conf, b.noisy_bu[t][p].conf)
            assert np.array_equal(a.obs_2d[t][p].joints, b.obs_2d[t][p].joints)


def test_obs_are_exact_projections_without_noise(skel):
    cam = benchmark_camera()
    data = generate(simple_spec(), cam, skel)
    gt_frames = data.gt_frames()
    for t in range(data.num_frames):
        for p in range(2):
            expected = project(gt_frames[t][p].joints, cam)
            assert np.array_equal(data.obs_2d[t][p].joints, expected)


def test_cubic_motion_order3_reproduction(skel):
    spec = SceneSpec(
        num_persons=1,
        num_frames=20,
        motions=(MotionSpec(kind="polynomial", root_coeffs=(
            (0.0, 0.0, 4000.0), (3.0, -1.0, 5.0), (0.05, 0.02, -0.04),
            (0.001, -0.0005, 0.0008),
        )),),
        seed=7,
    )
    data = generate(spec, benchmark_camera(), skel)
    _, joints, _ = data.gt_tracks[0].as_arrays()
    loss3, _ = trajectory_loss_grad(joints, {3: 5})
    assert loss3 < 1e-12


def test_linear_motion_all_orders_reproduce(skel):
    data = generate(simple_spec(), benchmark_camera(), skel)
    for track in data.gt_tracks:
        assert trajectory_loss(track, TtoConfig()) < 1e-12


def test_rigid_motion_constant_bone_lengths(skel):
    spec = simple_spec(motions=(
        MotionSpec(kind="linear", root_coeffs=((-800.0, 0.0, 4000.0), (5.0, 1.0, 10.0)),
                   yaw_rate=0.1),
        MotionSpec(kind="constant", root_coeffs=((900.0, 0.0, 5000.0),),
                   body_scale=1.1),
    ))
    data = generate(spec, benchmark_camera(), skel)
    for track in data.gt_tracks:
        _, joints, _ = track.as_arrays()
        lengths = bone_lengths_of(joints, skel)
        assert float(np.max(lengths.var(axis=0))) < 1e-12


def test_sinusoidal_motion_supported(skel):
    spec = simple_spec(motions=(
        MotionSpec(kind="sinusoidal", root_coeffs=((0.0, 0.0, 4000.0), (2.0, 0.0, 0.0)),
                   swing_amplitude_mm=40.0, swing_period_frames=30.0),
        MotionSpec(kind="constant", root_coeffs=((900.0, 0.0, 5000.0),)),
    ))
    data = generate(spec, benchmark_camera(), skel)
    _, joints, _ = data.gt_tracks[0].as_arrays()
    assert np.std(joints[:, 2, 0]) > 0  # articulation actually moves joints


def test_dropped_joints_get_zero_conf(skel):
    spec = simple_spec(drop_prob=1.0)
    data = generate(spec, benchmark_camera(), skel)
    assert np.all(data.noisy_td[0][0].conf == 0.0)
    assert np.all(data.obs_2d[0][0].conf == 0.0)


def test_behind_camera_rejected(skel):
    spec = simple_spec(motions=(
        MotionSpec(kind="constant", root_coeffs=((0.0, 0.0, -100.0),)),
        MotionSpec(kind="constant", root_coeffs=((900.0, 0.0, 5000.0),)),
    ))
    with pytest.raises(SceneSpecError):
        generate(spec, benchmark_camera(), skel)


def test_spec_validation():
    with pytest.raises(SceneSpecError):
        simple_spec(num_frames=0)
    with pytest.raises(SceneSpecError):
        simple_spec(drop_prob=1.5)
    with pytest.raises(SceneSpecError):
        MotionSpec(kind="constant", root_coeffs=((0, 0, 100), (1, 1, 1)))
    with pytest.raises(SceneSpecError):
        MotionSpec(kind="warp")
    for sigmas in ({"sigma_3d_mm": math.nan}, {"sigma_2d_px": math.inf}):
        with pytest.raises(SceneSpecError, match="noise sigmas"):
            simple_spec(**sigmas)
    for bad, message in [
        ({"root_coeffs": ((0.0, math.nan, 3000.0),)}, "root coefficients"),
        ({"body_scale": math.nan}, "body scale"),
        ({"body_scale": 0.0}, "body scale"),
        ({"body_scale": -1.0}, "body scale"),
        ({"yaw_rate": math.inf}, "yaw rate"),
        ({"swing_period_frames": math.nan}, "swing period"),
        ({"swing_amplitude_mm": math.inf}, "swing amplitude"),
        ({"swing_amplitude_mm": math.nan}, "swing amplitude"),
        ({"swing_amplitude_mm": -40.0}, "swing amplitude"),
    ]:
        with pytest.raises(SceneSpecError, match=message):
            MotionSpec(kind="sinusoidal", **bad)


@pytest.mark.parametrize("persons, frames", [(0, 4), (2, 1)])
def test_generate_gives_one_list_of_persons_per_frame(skel, persons, frames):
    spec = simple_spec(num_persons=persons, num_frames=frames,
                       motions=simple_spec().motions[:persons], sigma_3d_mm=5.0)
    data = generate(spec, benchmark_camera(), skel)
    for per_frame in (data.noisy_td, data.noisy_bu, data.obs_2d, data.gt_frames()):
        assert [len(poses) for poses in per_frame] == [persons] * frames
    assert [track.frame_indices for track in data.gt_tracks] == [list(range(frames))] * persons


def test_benchmark_spec_properties(skel):
    spec = make_benchmark_spec(seed=0)
    assert spec.num_persons == 3 and spec.num_frames == 100
    data = generate(spec, benchmark_camera(), skel)
    # noisy but well-posed: all depths positive, all persons present
    for t in (0, 50, 99):
        assert len(data.noisy_td[t]) == 3
        for p in range(3):
            assert np.all(data.noisy_td[t][p].joints[:, 2] > 0)
