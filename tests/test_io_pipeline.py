import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpose.errors import SchemaError
from dualpose.frames_io import (
    FrameRecord,
    PersonRecord,
    RunConfig,
    load_config,
    poses_to_record,
    read_frames,
    save_config,
    write_frames,
)
from dualpose.metrics import evaluate_frames
from dualpose.pipeline import link_tracks, run_pipeline
from dualpose.skeleton import pose3d_camera, rest_pose
from dualpose.synth import benchmark_camera, generate, make_benchmark_spec

from conftest import random_camera_pose


def write_scene_files(tmp_path, skel, spec=None, with_obs=True):
    spec = spec or make_benchmark_spec(seed=11, num_frames=30)
    cam = benchmark_camera()
    data = generate(spec, cam, skel)
    ids = list(range(spec.num_persons))
    gt_frames = data.gt_frames()
    paths = {}
    for name, frames in (("gt", gt_frames), ("td", data.noisy_td), ("bu", data.noisy_bu)):
        records = [poses_to_record(t, name if name != "td" else "td", frames[t], ids)
                   for t in range(data.num_frames)]
        paths[name] = tmp_path / f"{name}.jsonl"
        write_frames(records, paths[name])
    if with_obs:
        records = [poses_to_record(t, "obs", data.obs_2d[t], ids)
                   for t in range(data.num_frames)]
        paths["obs"] = tmp_path / "obs.jsonl"
        write_frames(records, paths["obs"])
    return paths, data


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_frames(path) == []


def test_write_read_round_trip(tmp_path, skel):
    rng = np.random.default_rng(121)
    records = []
    for t in range(5):
        poses = [random_camera_pose(rng, skel, conf=rng.random(skel.num_joints))
                 for _ in range(3)]
        records.append(poses_to_record(t, "td", poses, ids=[0, 1, None]))
    path = tmp_path / "frames.jsonl"
    write_frames(records, path)
    loaded = read_frames(path, skel.num_joints)
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
        assert a.frame_index == b.frame_index
        assert a.source == b.source
        for pa, pb in zip(a.persons, b.persons):
            assert np.array_equal(pa.joints, pb.joints)  # bit-exact floats
            assert np.array_equal(pa.conf, pb.conf)
            assert pa.person_id == pb.person_id


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
                min_size=6, max_size=6))
def test_float_round_trip_precision(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("floats")
    joints = np.array(values).reshape(2, 3)
    rec = FrameRecord(frame_index=0, source="gt", persons=[
        PersonRecord(joints=joints, conf=np.array([0.5, 1.0]), person_id=None)
    ])
    path = tmp / "one.jsonl"
    write_frames([rec], path)
    loaded = read_frames(path)
    assert np.array_equal(loaded[0].persons[0].joints, joints)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame_index": 0, "source": "td", "persons": []}\n{oops\n')
    with pytest.raises(SchemaError, match="line 2"):
        read_frames(path)


def test_wrong_joint_count_names_field(tmp_path, skel):
    persons = [{"person_id": 0,
                "joints": [[0.0, 0.0, 1000.0]] * (skel.num_joints - 1),
                "conf": [1.0] * (skel.num_joints - 1)}]
    path = tmp_path / "short.jsonl"
    path.write_text(json.dumps(
        {"frame_index": 0, "source": "td", "persons": persons}) + "\n")
    with pytest.raises(SchemaError, match="joints"):
        read_frames(path, skel.num_joints)


def test_bad_source_rejected(tmp_path):
    path = tmp_path / "src.jsonl"
    path.write_text('{"frame_index": 0, "source": "wat", "persons": []}\n')
    with pytest.raises(SchemaError, match="source"):
        read_frames(path)


def test_conf_out_of_range_rejected(tmp_path):
    path = tmp_path / "conf.jsonl"
    persons = [{"person_id": None, "joints": [[0, 0, 10]], "conf": [1.5]}]
    path.write_text(json.dumps(
        {"frame_index": 0, "source": "td", "persons": persons}) + "\n")
    with pytest.raises(SchemaError, match="conf"):
        read_frames(path)


def test_obs_records_are_2d(tmp_path):
    path = tmp_path / "obs.jsonl"
    persons = [{"person_id": 0, "joints": [[1.0, 2.0]], "conf": [1.0]}]
    path.write_text(json.dumps(
        {"frame_index": 0, "source": "obs", "persons": persons}) + "\n")
    rec = read_frames(path)[0]
    assert not rec.persons[0].is_3d
    pose = rec.persons[0].to_pose2d()
    assert pose.joints.shape == (1, 2)


def test_config_round_trip(tmp_path):
    config = RunConfig.default()
    path = tmp_path / "config.json"
    save_config(config, path)
    loaded = load_config(path)
    assert loaded.skeleton.joint_names == config.skeleton.joint_names
    assert loaded.camera == config.camera
    assert loaded.tto == config.tto
    assert loaded.match.tau_match == config.match.tau_match
    assert loaded.metrics == config.metrics
    d1 = loaded.to_dict()
    d2 = config.to_dict()
    assert d1 == d2


def test_config_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(SchemaError):
        load_config(path)


def test_link_tracks_by_person_id(skel):
    rng = np.random.default_rng(122)
    frames = {}
    for t in range(4):
        poses = [random_camera_pose(rng, skel, center=(i * 2000.0, 0, 4000))
                 for i in range(2)]
        frames[t] = (poses, [7, 9])
    tracks = link_tracks(frames, skel.root_index, 500.0)
    assert sorted(t.person_id for t in tracks) == [7, 9]
    assert all(len(t) == 4 for t in tracks)


def test_link_tracks_greedy_gate(skel):
    base = rest_pose() + (0.0, 0.0, 4000.0)
    drift = np.array([40.0, 0.0, 0.0])
    frames = {
        t: ([pose3d_camera(base + t * drift)], [None])
        for t in range(5)
    }
    tracks = link_tracks(frames, skel.root_index, gate_mm=500.0)
    assert len(tracks) == 1 and len(tracks[0]) == 5
    # jump beyond the gate starts a new track
    frames[5] = ([pose3d_camera(base + (9000.0, 0.0, 0.0))], [None])
    tracks = link_tracks(frames, skel.root_index, gate_mm=500.0)
    assert len(tracks) == 2


def test_run_pipeline_zero_noise_recovers_gt(tmp_path, skel):
    # linear motion is a fixed point of every loss term: nothing to fix
    from dualpose.synth import MotionSpec, SceneSpec

    spec = SceneSpec(
        num_persons=2,
        num_frames=12,
        motions=(
            MotionSpec(kind="linear", root_coeffs=((-800.0, 0.0, 4000.0), (5.0, 0.0, 8.0))),
            MotionSpec(kind="linear", root_coeffs=((900.0, 0.0, 5000.0), (-4.0, 1.0, 6.0))),
        ),
        seed=3,
    )
    paths, data = write_scene_files(tmp_path, skel, spec=spec)
    config = RunConfig.default()
    config = RunConfig.from_dict({**config.to_dict(),
                                  "tto": {"iters_per_stage": 5}})
    result = run_pipeline(config, paths["td"], bu_path=paths["bu"],
                          gt_path=paths["gt"], obs_path=paths["obs"])
    assert result.report is not None
    assert result.report.mpjpe_mm == pytest.approx(0.0, abs=1e-9)
    assert result.report.pck == 100.0


def test_run_pipeline_keeps_exact_motion_across_a_gap(tmp_path, skel):
    # One labeled person at exactly 20 mm/frame, absent on frames 10-19.
    # Each contiguous run is a fixed point of every loss term; smoothing
    # across the gap as if the frames were consecutive would move it.
    base = rest_pose() + (0.0, 0.0, 4000.0)
    frames = list(range(10)) + list(range(20, 30))
    poses = {t: pose3d_camera(base + (20.0 * t, 0.0, 0.0)) for t in frames}
    paths = {}
    for name in ("td", "bu"):
        paths[name] = tmp_path / f"{name}.jsonl"
        write_frames([poses_to_record(t, name, [poses[t]], [0]) for t in frames],
                     paths[name])
    result = run_pipeline(RunConfig.default(), paths["td"], bu_path=paths["bu"],
                          trace_path=tmp_path / "trace.csv")
    for rec in result.refined_records:
        assert rec.persons[0].person_id == 0
        np.testing.assert_allclose(rec.persons[0].joints, poses[rec.frame_index].joints,
                                   atol=1e-6)
    assert sorted(result.traces) == ["0@0", "0@20"]
    keys = {line.split(",")[0]
            for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]}
    assert keys == {"0@0", "0@20"}


def test_run_pipeline_reduces_noise(tmp_path, skel):
    spec = make_benchmark_spec(seed=4, num_frames=40)
    paths, data = write_scene_files(tmp_path, skel, spec=spec)
    config = RunConfig.default()
    config = RunConfig.from_dict({**config.to_dict(),
                                  "tto": {"iters_per_stage": 120}})
    result = run_pipeline(config, paths["td"], bu_path=paths["bu"],
                          gt_path=paths["gt"], obs_path=paths["obs"])
    # input error: evaluate the fused (pre-refinement) frames
    gt_frames = data.gt_frames()
    fused_frames = [[p.to_pose3d() for p in rec.persons]
                    for rec in result.fused_records]
    before = evaluate_frames(fused_frames, gt_frames, skel)
    after = result.report
    assert after.mpjpe_mm < before.mpjpe_mm
    # pilot-pinned regression bound for this exact scene and schedule
    assert after.mpjpe_mm < 0.5 * before.mpjpe_mm
    assert after.mpjpe_mm == pytest.approx(9.25408090833984, rel=1e-6)


def test_run_pipeline_td_passthrough_warns(tmp_path, skel):
    paths, _ = write_scene_files(tmp_path, skel,
                                 spec=make_benchmark_spec(seed=5, num_frames=8))
    config = RunConfig.default()
    config = RunConfig.from_dict({**config.to_dict(),
                                  "tto": {"iters_per_stage": 3}})
    with pytest.warns(UserWarning, match="passthrough"):
        result = run_pipeline(config, paths["td"], bu_path=None,
                              gt_path=paths["gt"], obs_path=paths["obs"])
    assert result.report is not None
    assert len(result.refined_records) == 8


def test_pipeline_trace_output(tmp_path, skel):
    paths, _ = write_scene_files(tmp_path, skel,
                                 spec=make_benchmark_spec(seed=6, num_frames=10))
    config = RunConfig.from_dict({"tto": {"iters_per_stage": 4}})
    trace_path = tmp_path / "trace.csv"
    run_pipeline(config, paths["td"], bu_path=paths["bu"],
                 obs_path=paths["obs"], trace_path=trace_path)
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0].startswith("track,iteration,stage")
    assert len(lines) > 1
