import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualpose.camera import CameraIntrinsics
from dualpose.errors import FrameMismatchError, MisalignedFramesError, SchemaError
from dualpose.frames_io import (
    FrameRecord,
    RunConfig,
    load_config,
    poses_to_record,
    read_frames,
    save_config,
    write_frames,
)
from dualpose.fusion import FusionStrategy, fuse_frame
from dualpose.matching import MatchConfig, default_tau_match, pose_similarity
from dualpose.metrics import evaluate_frames
from dualpose.pipeline import (
    aligned_frames,
    fuse_sources,
    link_tracks,
    match_frames,
    run_pipeline,
)
from dualpose.skeleton import Frame, Pose2D, Pose3D, pose3d_camera, pose3d_person, rest_pose
from dualpose.synth import MotionSpec, SceneSpec, benchmark_camera, generate, make_benchmark_spec

from conftest import random_camera_pose
from oracles import link_tracks_loops


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
        assert a.ids == b.ids
        for pa, pb in zip(a.persons, b.persons):
            assert np.array_equal(pa.joints, pb.joints)  # bit-exact floats
            assert np.array_equal(pa.conf, pb.conf)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12),
                min_size=6, max_size=6))
def test_float_round_trip_precision(tmp_path_factory, values):
    tmp = tmp_path_factory.mktemp("floats")
    joints = np.array(values).reshape(2, 3)
    rec = FrameRecord(frame_index=0, source="gt",
                      persons=[pose3d_camera(joints, conf=np.array([0.5, 1.0]))])
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
    (pose,) = rec.persons
    assert isinstance(pose, Pose2D)
    assert pose.joints.shape == (1, 2)
    assert rec.ids == [0]


def _frame_line(source, dim, frame_index=0, num_persons=2, num_joints=4):
    """One valid frame record as a dict: ``dim``-element joints."""
    persons = [{"person_id": i,
                "joints": [[100.0 * i + 10.0 * k + c + 1.0 for c in range(dim)]
                           for k in range(num_joints)],
                "conf": [0.5] * num_joints}
               for i in range(num_persons)]
    return {"frame_index": frame_index, "source": source, "persons": persons}


# json.dumps writes float("nan") and float("inf") as the NaN / Infinity tokens.
BAD_NUMBERS = {
    "bool": (True, "expected a number, got True"),
    "string": ("1.5", "expected a number, got '1.5'"),
    "null": (None, "expected a number, got None"),
    "nan_token": (float("nan"), "value must be finite"),
    "infinity_token": (float("inf"), "value must be finite"),
    "minus_infinity_token": (float("-inf"), "value must be finite"),
    "nested_list": ([0.5], "expected a number, got [0.5]"),
}


@pytest.mark.parametrize("bad", sorted(BAD_NUMBERS))
@pytest.mark.parametrize("field", ["joints", "conf"])
@pytest.mark.parametrize("source, dim", [("td", 3), ("obs", 2)])
def test_bad_number_is_named_by_line_and_field(tmp_path, source, dim, field, bad):
    value, message = BAD_NUMBERS[bad]
    record = _frame_line(source, dim, frame_index=1)
    if field == "joints":
        record["persons"][1]["joints"][2][dim - 1] = value
    else:
        record["persons"][1]["conf"][2] = value
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_frame_line(source, dim)) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(SchemaError) as info:
        read_frames(path)
    assert f"line 2: persons[1].{field}[2]: {message}" in str(info.value)


def test_huge_integer_literal_is_a_schema_error(tmp_path):
    huge = "1" + "0" * 400
    for field, text in (
        ("joints[1]", '"joints": [[0.0, 0.0, 1000.0], [1, 2, %s]], "conf": [1, 1]' % huge),
        ("conf[1]", '"joints": [[0.0, 0.0, 1000.0], [1, 2, 3]], "conf": [1, %s]' % huge),
    ):
        path = tmp_path / "huge.jsonl"
        path.write_text('{"frame_index": 0, "source": "td", "persons": [{%s}]}\n' % text)
        with pytest.raises(SchemaError,
                           match=rf"line 1: persons\[0\]\.{re.escape(field)}: value is out"):
            read_frames(path)
    config = RunConfig.default().to_dict()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"c_bone": 1.0', f'"c_bone": {huge}'))
    with pytest.raises(SchemaError, match=r"config\.tto\.c_bone: value is out"):
        load_config(path)


@pytest.mark.parametrize("key, where", [("frame_index", "frame_index"),
                                        ("person_id", r"persons\[0\]\.person_id")])
def test_bool_frame_index_or_person_id_rejected(tmp_path, key, where):
    record = _frame_line("td", 3, num_persons=1)
    if key == "frame_index":
        record["frame_index"] = True
    else:
        record["persons"][0]["person_id"] = False
    path = tmp_path / "bool.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(SchemaError, match=rf"line 1: {where}: expected an integer"):
        read_frames(path)


def _write_record(tmp_path, record):
    path = tmp_path / "record.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return path


def test_first_bad_entry_of_the_last_person_is_named(tmp_path, skel):
    record = _frame_line("td", 3, num_persons=3, num_joints=skel.num_joints)
    record["persons"][2]["joints"][11][1] = float("nan")
    record["persons"][2]["joints"][13][0] = "1.5"
    with pytest.raises(SchemaError) as info:
        read_frames(_write_record(tmp_path, record), skel.num_joints)
    assert str(info.value).endswith("line 1: persons[2].joints[11]: value must be finite")


def test_ragged_record_fails_with_the_joint_count_message(tmp_path, skel):
    k = skel.num_joints
    record = _frame_line("td", 3, num_persons=3, num_joints=k)
    del record["persons"][1]["joints"][-1]
    del record["persons"][1]["conf"][-1]
    path = _write_record(tmp_path, record)
    with pytest.raises(SchemaError,
                       match=rf"line 1: persons\[1\]\.joints: expected {k} joints, got {k - 1}$"):
        read_frames(path, k)
    # without a skeleton to hold them to, persons of differing joint counts read
    rec = read_frames(path)[0]
    assert [p.num_joints for p in rec.persons] == [k, k - 1, k]


@pytest.mark.parametrize("person", [0, 1, 2])
@pytest.mark.parametrize("bad, message", [
    (True, "expected a number, got True"),
    ("1.5", "expected a number, got '1.5'"),
    (10 ** 400, "value is out of the float64 range"),
], ids=["bool", "string", "huge-int"])
@pytest.mark.parametrize("field", ["joints", "conf"])
def test_bad_entry_in_any_person_keeps_its_message(tmp_path, field, bad, message, person):
    record = _frame_line("td", 3, num_persons=3)
    if field == "joints":
        record["persons"][person]["joints"][3][0] = bad
    else:
        record["persons"][person]["conf"][3] = bad
    with pytest.raises(SchemaError) as info:
        read_frames(_write_record(tmp_path, record))
    assert str(info.value).endswith(f"line 1: persons[{person}].{field}[3]: {message}")


@pytest.mark.parametrize("source, person, error, message", [
    ("gt", Pose2D(joints=np.zeros((15, 2)), conf=np.ones(15)), ValueError,
     "'gt' record holds Pose3D persons"),
    ("obs", pose3d_camera(rest_pose() + (0.0, 0.0, 4000.0)), ValueError,
     "'obs' record holds Pose2D persons"),
    ("td", pose3d_person(rest_pose()), FrameMismatchError, "camera-centric"),
], ids=["pose2d-in-gt", "pose3d-in-obs", "person-centric-in-td"])
def test_record_persons_must_fit_the_source(source, person, error, message):
    with pytest.raises(error, match=message):
        poses_to_record(0, source, [person])


def _first_person_with(**fields):
    def edit(record):
        record["persons"][0].update(fields)
        return record
    return edit


def _repeated_id(source, dim, slot):
    """A ``source`` record whose person 2 takes the id of person ``slot``."""
    def edit(record):
        record = _frame_line(source, dim, 1, num_persons=3)
        record["persons"][2]["person_id"] = slot
        return record
    return edit


def _two_faults(record):
    """A bad number in person 0, and a person 2 that is not an object."""
    record["persons"][0]["joints"][1][0] = "x"
    return {**record, "persons": [*record["persons"], 5]}


def _conf_range_and_nan(record):
    """A confidence above 1 in person 0, and a NaN in person 1's conf."""
    record["persons"][0]["conf"][0] = 1.5
    record["persons"][1]["conf"][3] = float("nan")
    return record


def _ragged_with_nan(record):
    """Person 1 is one joint short, and holds a NaN."""
    del record["persons"][1]["joints"][-1]
    del record["persons"][1]["conf"][-1]
    record["persons"][1]["joints"][2][0] = float("nan")
    return record


# A valid record's edit into a bad JSON value, and the field path and
# message that name it.  A record's structure is checked person by person
# first, then its numbers; the last cases pin that fault order.
READER_ERRORS = {
    "person-not-an-object": (lambda r: {**r, "persons": [*r["persons"], 5]},
                             "persons[2]: expected an object"),
    "joints-not-a-list": (_first_person_with(joints=5),
                          "persons[0].joints: expected a non-empty list"),
    "joints-empty": (_first_person_with(joints=[]),
                     "persons[0].joints: expected a non-empty list"),
    "joints-of-mixed-length": (_first_person_with(joints=[[1.0, 2.0, 3.0], [1.0, 2.0]] * 2),
                               "persons[0].joints: joints must all be [x, y] or [x, y, z]"),
    "2d-joints-in-a-3d-source": (_first_person_with(joints=[[1.0, 2.0]] * 4),
                                 "persons[0].joints: expected 3-element joints, got 2"),
    "conf-of-the-wrong-length": (_first_person_with(conf=[0.5] * 3),
                                 "persons[0].conf: expected 4 confidences"),
    "record-not-an-object": (lambda r: [r], "expected a JSON object"),
    "persons-not-a-list": (lambda r: {**r, "persons": {}}, "persons: expected a list"),
    "repeated-id-in-td": (_repeated_id("td", 3, 0),
                          "persons[0] and persons[2] repeat person_id 0"),
    "repeated-id-in-obs": (_repeated_id("obs", 2, 1),
                           "persons[1] and persons[2] repeat person_id 1"),
    "repeated-id-in-gt": (_repeated_id("gt", 3, 0),
                          "persons[0] and persons[2] repeat person_id 0"),
    "structure-before-numbers": (_two_faults, "persons[2]: expected an object"),
    "numbers-before-conf-range": (_conf_range_and_nan,
                                  "persons[1].conf[3]: value must be finite"),
    "nan-in-the-short-person-of-a-ragged-record": (
        _ragged_with_nan, "persons[1].joints[2]: value must be finite"),
}


@pytest.mark.parametrize("blank_lines", [0, 2])
@pytest.mark.parametrize("case", sorted(READER_ERRORS))
def test_reader_error_names_file_line_and_field(tmp_path, case, blank_lines):
    edit, message = READER_ERRORS[case]
    lines = [_frame_line("td", 3), *[None] * blank_lines, edit(_frame_line("td", 3, 1))]
    path = tmp_path / "bad.jsonl"
    path.write_text("".join("  \n" if obj is None else json.dumps(obj) + "\n"
                            for obj in lines))
    with pytest.raises(SchemaError) as info:
        read_frames(path)
    # blank lines are skipped, but counted
    assert str(info.value) == f"{path}: line {2 + blank_lines}: {message}"


def test_record_without_persons_reads(tmp_path):
    (rec,) = read_frames(_write_record(tmp_path, _frame_line("td", 3, num_persons=0)), 4)
    assert rec.persons == [] and rec.ids == []


@pytest.mark.parametrize("source, dim", [("td", 3), ("obs", 2)])
def test_read_poses_cannot_be_written(tmp_path, source, dim):
    (rec,) = read_frames(_write_record(tmp_path, _frame_line(source, dim, num_persons=3)))
    for pose in rec.persons:
        for arr in (pose.joints, pose.conf, pose.joints.base, pose.conf.base):
            with pytest.raises(ValueError):
                arr[0] = 0.0


def test_read_poses_equal_constructed_poses(tmp_path):
    record = _frame_line("td", 3, num_persons=3)
    record["persons"][1]["joints"][0] = [1, -2, 2 ** 60 + 1]
    record["persons"][2]["conf"] = [0, 1, 0.25, 1]
    record["persons"][2]["person_id"] = None
    (rec,) = read_frames(_write_record(tmp_path, record))
    assert rec.ids == [0, 1, None]
    for pose, person in zip(rec.persons, record["persons"]):
        want = Pose3D(joints=person["joints"], conf=person["conf"], frame=Frame.CAMERA_CENTRIC)
        assert type(pose) is Pose3D and pose.frame is Frame.CAMERA_CENTRIC
        assert pose.joints.dtype == pose.conf.dtype == np.float64
        assert np.array_equal(pose.joints, want.joints) and np.array_equal(pose.conf, want.conf)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310,
               1e308, -1e308, 1.7976931348623157e308, 3.0, -42.0, 2.0 ** 53, 1e16)
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
CONFIDENCE = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 5e-324, 0.5)),
                       st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dim=st.sampled_from([2, 3]), num_joints=st.integers(1, 4),
       num_persons=st.integers(0, 3), data=st.data())
def test_write_read_is_bit_exact(tmp_path_factory, dim, num_joints, num_persons, data):
    persons = []
    for _ in range(num_persons):
        joints = data.draw(st.lists(FINITE, min_size=num_joints * dim,
                                    max_size=num_joints * dim))
        joints = np.array(joints).reshape(num_joints, dim)
        conf = data.draw(st.lists(CONFIDENCE, min_size=num_joints, max_size=num_joints))
        persons.append(Pose2D(joints, conf) if dim == 2
                       else Pose3D(joints, conf, Frame.CAMERA_CENTRIC))
    # a record may not repeat a non-null id
    ids = data.draw(st.lists(st.one_of(st.none(), st.integers(-5, 5)),
                             min_size=num_persons, max_size=num_persons)
                    .filter(lambda ids: len(set(ids) - {None}) == len(ids) - ids.count(None)))
    rec = FrameRecord(frame_index=data.draw(st.integers(0, 10 ** 6)),
                      source="obs" if dim == 2 else "gt", persons=persons, ids=ids)
    path = tmp_path_factory.mktemp("bits") / "one.jsonl"
    write_frames([rec], path)
    (loaded,) = read_frames(path)
    assert (loaded.frame_index, loaded.source) == (rec.frame_index, rec.source)
    assert len(loaded.persons) == num_persons
    assert loaded.ids == rec.ids
    for a, b in zip(rec.persons, loaded.persons):
        assert type(a) is type(b)
        for x, y in ((a.joints, b.joints), (a.conf, b.conf)):
            assert y.dtype == np.float64 and y.shape == x.shape
            assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


# A non-default, valid value for every saved config field; int-valued
# floats come back as floats.
_reals = st.one_of(st.integers(1, 400).map(float),
                   st.floats(1e-3, 400.0, allow_nan=False, allow_infinity=False))
_windows = st.tuples(st.sampled_from([0, 2, 3]), st.sampled_from([0, 3, 5, 7]),
                     st.sampled_from([0, 4, 6]))
_tto = st.fixed_dictionaries({
    "windows": _windows.map(list), "c_rep_stage1": _reals, "c_rep_stage2": _reals,
    "c_bone": _reals, "iters_per_stage": st.integers(1, 1000), "step_size": _reals,
    "two_stage": st.booleans(),
})
_metrics = st.fixed_dictionaries({
    "pck_mm": _reals, "auc_max_mm": _reals, "auc_step_mm": _reals,
    "pck_abs_mm": _reals, "ap_root_radius_mm": _reals,
    "f1_thresholds_m": st.lists(_reals, min_size=1, max_size=4),
}).map(lambda m: {**m, "auc_max_mm": max(m["auc_max_mm"], m["auc_step_mm"])})
_match = st.fixed_dictionaries({
    "fixed_scale_mm": st.one_of(st.none(), _reals),
    "tau_match": _reals, "distance_mode": st.sampled_from(["3d", "2d"]),
})
_fusion = st.fixed_dictionaries({
    "variant": st.sampled_from(["hard", "linear", "weighted"]),
    "alpha": st.floats(0.0, 1.0),
})
_motion = st.builds(
    lambda kind, coeffs, scale, yaw, swing, period: {
        "kind": kind,
        "root_coeffs": coeffs[:{"constant": 1, "linear": 2, "polynomial": 4,
                                "sinusoidal": 2}[kind]],
        "body_scale": scale, "yaw_rate": yaw,
        "swing_amplitude_mm": swing if kind == "sinusoidal" else 0.0,
        "swing_period_frames": period,
    },
    st.sampled_from(["constant", "linear", "polynomial", "sinusoidal"]),
    st.lists(st.lists(_reals, min_size=3, max_size=3), min_size=4, max_size=4),
    _reals, _reals, _reals, _reals,
)
_scene = st.lists(_motion, min_size=1, max_size=3).flatmap(lambda motions: st.fixed_dictionaries({
    "num_persons": st.just(len(motions)), "num_frames": st.integers(1, 500),
    "motions": st.just(motions), "sigma_3d_mm": _reals, "sigma_2d_px": _reals,
    "conf_base": st.floats(0.0, 1.0), "conf_jitter": st.floats(0.0, 1.0),
    "drop_prob": st.floats(0.0, 1.0), "seed": st.integers(0, 2**31),
}))
_heatmap = st.fixed_dictionaries({
    "width": st.integers(2, 512), "height": st.integers(2, 512), "sigma_px": _reals,
    "theta_peak": st.floats(1e-3, 0.999), "theta_tag": _reals,
})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tto=_tto, metrics=_metrics, match=_match, fusion=_fusion, scene=_scene,
       heatmap=_heatmap, seed=st.integers(0, 2**31), gate=_reals)
def test_config_round_trip(tmp_path, tto, metrics, match, fusion, scene, heatmap,
                           seed, gate):
    config = RunConfig.from_dict({
        "tto": tto, "metrics": metrics, "match": match, "fusion": fusion,
        "scene": scene, "heatmap": heatmap, "seed": seed, "linker_gate_mm": gate,
    })
    path = tmp_path / "config.json"
    save_config(config, path)
    loaded = load_config(path)
    assert loaded.camera == config.camera
    assert loaded.tto == config.tto
    assert loaded.metrics == config.metrics
    assert loaded.scene == config.scene
    assert loaded.match == config.match
    d1, d2 = loaded.to_dict(), config.to_dict()
    assert d1 == d2
    # json.dumps tells 3 from 3.0: int-valued floats must stay floats.
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    assert json.dumps(d1, sort_keys=True) == json.dumps(json.loads(path.read_text()),
                                                         sort_keys=True)
    assert isinstance(loaded.tto.c_bone, float) and isinstance(loaded.scene.seed, int)


def _five_joint_skeleton() -> dict:
    return {"joint_names": ["root", "a", "b", "c", "d"],
            "bones": [[0, 1], [1, 2], [0, 3], [3, 4]], "root_index": 0}


@pytest.mark.parametrize("extra", [{}, {"match": {}}, {"match": {"distance_mode": "3d"}}])
def test_absent_tau_match_follows_skeleton_joint_count(extra):
    config = RunConfig.from_dict({"skeleton": _five_joint_skeleton(), **extra})
    assert config.match.tau_match == default_tau_match(5) == 0.5
    explicit = RunConfig.from_dict({"skeleton": _five_joint_skeleton(),
                                    "match": {"tau_match": 2.0}})
    assert explicit.match.tau_match == 2.0


def test_skeleton_oks_sigma_is_the_matching_sigma(skel):
    # One noisy TD/BU pair; every similarity term reads skeleton.oks_sigma.
    rng = np.random.default_rng(7)
    td = random_camera_pose(rng, skel, spread_mm=0.0)
    bu = pose3d_camera(td.joints + 40.0 * rng.standard_normal(td.joints.shape))
    maps = ({0: ([td], [0])}, {0: ([bu], [0])})
    data = RunConfig.default().to_dict()
    base = RunConfig.from_dict(data)
    data["skeleton"]["oks_sigma"] = [10.0 * s for s in data["skeleton"]["oks_sigma"]]
    wide = RunConfig.from_dict(data)
    (_, _, _, m_base), = match_frames(base, *maps)
    (_, _, _, m_wide), = match_frames(wide, *maps)
    sim_base, sim_wide = m_base.pairs[0][2], m_wide.pairs[0][2]
    assert sim_base == pytest.approx(
        pose_similarity(bu, td, base.match, skel.oks_sigma), abs=1e-12)
    assert sim_wide == pytest.approx(
        pose_similarity(bu, td, base.match, 10.0 * skel.oks_sigma), abs=1e-12)
    assert sim_wide > sim_base + 0.5


@pytest.mark.parametrize("built_from", ["dataclasses", "json"])
def test_2d_matching_projects_with_the_run_camera(tmp_path, skel, built_from):
    # The run camera is the one camera: replacing it moves 2D matching,
    # before and after a save / load round trip.
    rng = np.random.default_rng(8)
    td = random_camera_pose(rng, skel, spread_mm=0.0)
    bu = pose3d_camera(td.joints + 40.0 * rng.standard_normal(td.joints.shape))
    maps = ({0: ([td], [0])}, {0: ([bu], [0])})
    cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)
    if built_from == "json":
        config = RunConfig.from_dict({"match": {"distance_mode": "2d", "tau_match": 0.0}})
    else:
        config = RunConfig.default()
        config.match = MatchConfig(distance_mode="2d", tau_match=0.0)
    config.camera = cam
    path = tmp_path / "config.json"
    save_config(config, path)
    expected = pose_similarity(bu, td, config.match, skel.oks_sigma, cam)
    assert expected != pose_similarity(bu, td, config.match, skel.oks_sigma,
                                       RunConfig.default().camera)
    for run_config in (config, load_config(path)):
        (_, _, _, match), = match_frames(run_config, *maps)
        assert match.pairs[0][2] == expected


def test_a_pluggable_fusion_config_is_not_saved(tmp_path):
    # its integrator is code: load_config could not rebuild the strategy
    config = RunConfig.default()
    config.fusion = FusionStrategy.pluggable(lambda td, bu: td)
    path = tmp_path / "config.json"
    with pytest.raises(ValueError, match=r"^config\.fusion\.integrator: "):
        save_config(config, path)
    assert not path.exists()


def test_fused_ids_follow_the_fused_poses(skel):
    # A matched pair (TD unlabeled, BU id 7), an unmatched TD pose (id 3)
    # and an unmatched BU pose (unlabeled), each set listing its unmatched
    # pose first.
    rng = np.random.default_rng(9)
    pair_td = random_camera_pose(rng, skel, center=(0.0, 0.0, 5000.0))
    pair_bu = pose3d_camera(pair_td.joints + 10.0)
    lone_td = random_camera_pose(rng, skel, center=(-4000.0, 0.0, 5000.0))
    lone_bu = random_camera_pose(rng, skel, center=(4000.0, 0.0, 5000.0))
    td_map = {0: ([lone_td, pair_td], [3, None])}
    bu_map = {0: ([lone_bu, pair_bu], [None, 7])}
    config = RunConfig.default()
    (_, _, _, match), = match_frames(config, td_map, bu_map)
    assert [(i, j) for i, j, _ in match.pairs] == [(1, 1)]
    poses, ids = fuse_sources(config, td_map, bu_map)[0]
    assert ids == [7, 3, None]
    expected = fuse_frame(match, td_map[0][0], bu_map[0][0], config.fusion, skel)
    assert np.array_equal(poses[0].joints, expected[0].joints)
    assert poses[1:] == expected[1:] == [lone_td, lone_bu]


def test_fuse_sources_keeps_one_pose_per_id(skel):
    """Poses left with one id after matching keep the one of highest mean
    confidence; a tie goes to the earlier slot: fused pair, TD, BU."""
    rng = np.random.default_rng(4)
    near = random_camera_pose(rng, skel, center=(0.0, 0.0, 5000.0))
    far = random_camera_pose(rng, skel, center=(20000.0, 0.0, 5000.0))
    half = np.full(skel.num_joints, 0.5)
    low_td = Pose3D(joints=near.joints, conf=half, frame=Frame.CAMERA_CENTRIC)
    other = random_camera_pose(rng, skel, center=(-3000.0, 0.0, 5000.0))
    td_map = {0: ([near, other], [0, None]), 1: ([low_td], [0]), 2: ([near], [5])}
    bu_map = {0: ([far, other], [0, None]), 1: ([far], [0]),
              2: ([far, pose3d_camera(near.joints + 10.0, half)], [5, 5])}
    with pytest.warns(UserWarning) as caught:
        fused = fuse_sources(RunConfig.default(), td_map, bu_map)
    assert [str(w.message) for w in caught] == [
        f"frame {t}: dropped 1 pose(s) whose person_id another pose of the frame keeps"
        for t in range(3)]
    assert fused[0][1] == [None, 0] and fused[0][0][1] is near      # tie: TD over BU
    assert fused[1] == ([far], [0])                                  # higher mean conf
    assert fused[2][1] == [5] and np.array_equal(                    # tie: pair over BU
        fused[2][0][0].joints, (1.0 * near.joints + 0.5 * (near.joints + 10.0)) / 1.5)


def test_config_with_removed_keys_at_their_old_defaults_loads(tmp_path):
    # Configs saved before these settings were removed carry them.
    data = RunConfig.default().to_dict()
    data["match"].update({"scale": 1.0, "sigma_override": None})
    data["heatmap"]["sampling"] = "bilinear"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert load_config(path).to_dict() == RunConfig.default().to_dict()


@pytest.mark.parametrize("section, key, value, moved_to", [
    ("match", "scale", 2.0, "match.fixed_scale_mm"),
    ("match", "sigma_override", [0.05] * 15, "skeleton.oks_sigma"),
    ("heatmap", "sampling", "nearest", "bilinear"),
])
def test_config_with_removed_key_set_is_rejected(tmp_path, section, key, value, moved_to):
    data = RunConfig.default().to_dict()
    data[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match=f"{section}.{key} was removed") as info:
        load_config(path)
    assert moved_to in str(info.value)


@pytest.mark.parametrize("section, key, value", [
    ("tto", "iters_per_stage", "300"),
    ("tto", "two_stage", 1),
    ("tto", "windows", [2, 5]),
    ("metrics", "pck_mm", None),
    ("tto", "step_size", -1.0),
])
def test_config_rejects_mistyped_or_invalid_values(section, key, value):
    data = RunConfig.default().to_dict()
    data[section][key] = value
    with pytest.raises(SchemaError, match=f"{section}"):
        RunConfig.from_dict(data)


def test_config_rejects_a_bad_scene_motion():
    data = RunConfig.default().to_dict()
    data["scene"] = {"num_persons": 1, "num_frames": 5,
                     "motions": [{"kind": "constant", "body_scale": 0.0}]}
    with pytest.raises(SchemaError,
                       match=r"^config\.scene\.motions\[0\]: body scale must be finite"):
        RunConfig.from_dict(data)


def test_aligned_frames_requires_a_prediction_for_every_gt_frame(skel):
    rng = np.random.default_rng(8)
    gt = {t: ([random_camera_pose(rng, skel)], [0]) for t in range(3)}
    pred = {t: gt[t] for t in (0, 2)}
    with pytest.raises(MisalignedFramesError, match=r"absent from predictions: \[1\]"):
        aligned_frames(pred, gt)
    pred_frames, gt_frames = aligned_frames({**pred, 1: gt[1], 5: gt[0]}, gt)
    assert gt_frames == [gt[t][0] for t in range(3)] == pred_frames


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


def _same_tracks(tracks, expected):
    assert [t.person_id for t in tracks] == [t.person_id for t in expected]
    for track, track_x in zip(tracks, expected):
        assert list(track.frames) == list(track_x.frames)
        assert all(track.frames[i] is track_x.frames[i] for i in track.frames)


def test_link_tracks_equals_loop_oracle(skel):
    """One gated greedy pairing per frame links as the per-option sort loop
    did, tie for tie."""
    rng = np.random.default_rng(140)
    joined_labeled = 0
    for _ in range(400):
        frames = {}
        for t in range(int(rng.integers(1, 10))):
            if rng.random() < 0.2:  # a frame with no record: a gap
                continue
            poses, ids = [], []
            for _ in range(int(rng.integers(0, 6))):
                # roots on a coarse grid: many exactly tied distances
                root = 100.0 * rng.integers(-3, 4, size=3) + (0.0, 0.0, 5000.0)
                poses.append(pose3d_camera(rest_pose() + root))
                pid = int(rng.integers(0, 3)) if rng.random() < 0.3 else None
                ids.append(None if pid in ids else pid)
            frames[t] = (poses, ids)
        unlabeled = {id(pose) for poses, ids in frames.values()
                     for pose, pid in zip(poses, ids) if pid is None}
        for gate in (50.0, 150.0, 300.0, 1e9):
            tracks = link_tracks(frames, skel.root_index, gate)
            _same_tracks(tracks, link_tracks_loops(frames, skel.root_index, gate))
            joined_labeled += sum(id(pose) in unlabeled for track in tracks
                                  if isinstance(track.person_id, int)
                                  for pose in track.frames.values())
    # the random sets also exercise unlabeled poses joining labeled tracks
    assert joined_labeled > 0


def test_unlabeled_pose_joins_a_labeled_track(skel):
    base = rest_pose() + (0.0, 0.0, 4000.0)
    frames = {0: ([pose3d_camera(base), pose3d_camera(base + (3000.0, 0.0, 0.0))], [7, None]),
              1: ([pose3d_camera(base + (3010.0, 0.0, 0.0)), pose3d_camera(base + (20.0, 0, 0))],
                  [None, None])}
    tracks = link_tracks(frames, skel.root_index, 500.0)
    assert [(t.person_id, t.frame_indices) for t in tracks] == [(7, [0, 1]), ("auto0", [0, 1])]
    assert tracks[0].frames[1] is frames[1][0][1]
    _same_tracks(tracks, link_tracks_loops(frames, skel.root_index, 500.0))


@pytest.mark.parametrize("gate", [0.0, -1.0, -1e-9])
def test_non_positive_linker_gate_is_rejected(tmp_path, gate):
    with pytest.raises(ValueError, match="linker_gate_mm must be positive"):
        RunConfig(**{**vars(RunConfig.default()), "linker_gate_mm": gate})
    data = RunConfig.default().to_dict()
    data["linker_gate_mm"] = gate
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="config: linker_gate_mm must be positive"):
        load_config(path)


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
        assert rec.ids == [0]
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
    fused_frames = [rec.persons for rec in result.fused_records]
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


def test_run_pipeline_on_inputs_without_frames_names_them(tmp_path):
    td, bu = tmp_path / "td.jsonl", tmp_path / "bu.jsonl"
    td.write_text("")
    bu.write_text("")
    config = RunConfig.default()
    with pytest.raises(SchemaError, match=f"^{re.escape(f'{td} and {bu}')}: no frames found$"):
        run_pipeline(config, td, bu)
    with pytest.warns(UserWarning, match="passthrough"), \
            pytest.raises(SchemaError, match=f"^{re.escape(str(td))}: no frames found$"):
        run_pipeline(config, td)


def test_pipeline_trace_output(tmp_path, skel):
    config = RunConfig.from_dict({"tto": {"iters_per_stage": 4}})
    for name, spec, rows in (
        ("refined", make_benchmark_spec(seed=6, num_frames=10), True),
        # one person over 5 frames: no run is longer than the largest default
        # window (5), so nothing is refined and the trace is its header alone
        ("nothing_refined",
         SceneSpec(num_persons=1, num_frames=5, motions=(MotionSpec(),), seed=6), False),
    ):
        (tmp_path / name).mkdir()
        paths, _ = write_scene_files(tmp_path / name, skel, spec=spec)
        trace_path = tmp_path / name / "trace.csv"
        result = run_pipeline(config, paths["td"], bu_path=paths["bu"],
                              obs_path=paths["obs"], trace_path=trace_path)
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "track,iteration,stage,l_traj,l_rep,l_bone,total,step,halvings"
        assert (len(lines) > 1) == rows == bool(result.traces)
