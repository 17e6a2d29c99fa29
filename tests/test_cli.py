import dataclasses
import json
import warnings

import numpy as np
import pytest

from dualpose.cli import main
from dualpose.frames_io import RunConfig, save_config
from dualpose.synth import make_benchmark_spec


def write_config(tmp_path, num_frames=14, iters=10, scene_seed=42):
    base = RunConfig.default().to_dict()
    base["seed"] = scene_seed
    base["tto"]["iters_per_stage"] = iters
    base["scene"] = {
        "num_persons": 2,
        "num_frames": num_frames,
        "motions": [
            {"kind": "linear",
             "root_coeffs": [[-800.0, 250.0, 4000.0], [5.0, 0.0, 8.0]]},
            {"kind": "polynomial",
             "root_coeffs": [[900.0, 250.0, 5000.0], [-4.0, 1.0, 6.0], [0.02, 0.0, -0.03]]},
        ],
        "sigma_3d_mm": 25.0,
        "seed": scene_seed,
    }
    path = tmp_path / "config.json"
    from dualpose.frames_io import load_config

    path.write_text(json.dumps(base, indent=2))
    return path, load_config(path)


def test_synth_then_run_chain(tmp_path):
    config_path, _ = write_config(tmp_path)
    scene_dir = tmp_path / "scene"
    assert main(["synth", "--config", str(config_path), "--out", str(scene_dir)]) == 0
    for name in ("gt", "td", "bu", "obs"):
        assert (scene_dir / f"{name}.jsonl").exists()

    out_dir = tmp_path / "out"
    code = main([
        "run", "--config", str(config_path), "--out", str(out_dir),
        str(scene_dir / "td.jsonl"), str(scene_dir / "bu.jsonl"),
        "--gt", str(scene_dir / "gt.jsonl"), "--obs", str(scene_dir / "obs.jsonl"),
        "--trace", str(out_dir / "trace.csv"),
    ])
    assert code == 0
    assert (out_dir / "refined.jsonl").exists()
    assert (out_dir / "fused.jsonl").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert 0.0 <= report["pck"] <= 100.0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "trace.csv").exists()


def test_run_byte_identical_outputs(tmp_path):
    config_path, _ = write_config(tmp_path, num_frames=10, iters=6)
    scene_dir = tmp_path / "scene"
    main(["synth", "--config", str(config_path), "--out", str(scene_dir)])

    outputs = []
    for label in ("a", "b"):
        out_dir = tmp_path / label
        code = main([
            "run", "--config", str(config_path), "--out", str(out_dir),
            str(scene_dir / "td.jsonl"), str(scene_dir / "bu.jsonl"),
            "--gt", str(scene_dir / "gt.jsonl"), "--obs", str(scene_dir / "obs.jsonl"),
        ])
        assert code == 0
        outputs.append({
            name: (out_dir / name).read_bytes()
            for name in ("refined.jsonl", "fused.jsonl", "report.json", "report.csv")
        })
    assert outputs[0] == outputs[1]


def test_match_fuse_eval_subcommands(tmp_path):
    config_path, _ = write_config(tmp_path, num_frames=6, iters=3)
    scene_dir = tmp_path / "scene"
    main(["synth", "--config", str(config_path), "--out", str(scene_dir)])

    matches = tmp_path / "matches.json"
    assert main(["match", "--config", str(config_path), "--out", str(matches),
                 str(scene_dir / "td.jsonl"), str(scene_dir / "bu.jsonl")]) == 0
    data = json.loads(matches.read_text())
    assert len(data) == 6
    assert all(len(frame["pairs"]) == 2 for frame in data.values())

    fused = tmp_path / "fused.jsonl"
    assert main(["fuse", "--config", str(config_path), "--out", str(fused),
                 str(scene_dir / "td.jsonl"), str(scene_dir / "bu.jsonl")]) == 0

    refined = tmp_path / "refined.jsonl"
    assert main(["tto", "--config", str(config_path), "--out", str(refined),
                 str(fused), "--obs", str(scene_dir / "obs.jsonl")]) == 0

    report = tmp_path / "report.json"
    assert main(["eval", "--config", str(config_path), "--out", str(report),
                 str(refined), str(scene_dir / "gt.jsonl")]) == 0
    assert "mpjpe_mm" in json.loads(report.read_text())

    # tto on run's fused output reproduces run's refinement and trace
    for obs in (["--obs", str(scene_dir / "obs.jsonl")], []):
        run_dir = tmp_path / f"run{len(obs)}"
        assert main(["run", "--config", str(config_path), "--out", str(run_dir),
                     str(scene_dir / "td.jsonl"), str(scene_dir / "bu.jsonl"),
                     "--trace", str(run_dir / "trace.csv"), *obs]) == 0
        tto_out = tmp_path / f"tto{len(obs)}.jsonl"
        tto_trace = tmp_path / f"tto{len(obs)}.csv"
        assert main(["tto", "--config", str(config_path), "--out", str(tto_out),
                     "--trace", str(tto_trace), str(run_dir / "fused.jsonl"), *obs]) == 0
        assert tto_out.read_bytes() == (run_dir / "refined.jsonl").read_bytes()
        assert tto_trace.read_bytes() == (run_dir / "trace.csv").read_bytes()


def test_trace_is_header_only_when_nothing_is_refined(tmp_path):
    # one person over 5 frames: no run is longer than the largest default
    # window (5), so nothing is refined, yet --trace still writes its file
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"scene": {
        "num_persons": 1, "num_frames": 5, "motions": [{"kind": "constant"}]}}))
    scene = tmp_path / "scene"
    assert main(["synth", "--config", str(config_path), "--out", str(scene)]) == 0
    td, bu = str(scene / "td.jsonl"), str(scene / "bu.jsonl")
    run_dir, tto_trace = tmp_path / "run", tmp_path / "tto" / "trace.csv"
    assert main(["run", "--config", str(config_path), "--out", str(run_dir), td, bu,
                 "--trace", str(run_dir / "trace.csv")]) == 0
    assert main(["tto", "--config", str(config_path), "--out", str(tmp_path / "tto.jsonl"),
                 str(run_dir / "fused.jsonl"), "--trace", str(tto_trace)]) == 0
    header = b"track,iteration,stage,l_traj,l_rep,l_bone,total,step,halvings\r\n"
    assert (run_dir / "trace.csv").read_bytes() == tto_trace.read_bytes() == header


def test_default_config_heatmap_chain(tmp_path, skel):
    from dualpose.frames_io import read_frames

    scene = tmp_path / "scene"
    assert main(["synth", "--heatmaps", "--out", str(scene)]) == 0
    stacks = sorted(map(str, scene.glob("frame*.phms")))
    decoded = tmp_path / "decoded.jsonl"
    assert main(["decode", "--out", str(decoded), *stacks]) == 0
    assert main(["eval", "--out", str(tmp_path / "report.json"), str(decoded),
                 str(scene / "gt.jsonl")]) == 0
    gt = read_frames(scene / "gt.jsonl", skel.num_joints)
    found = read_frames(decoded, skel.num_joints)
    assert len(found) == len(gt) == len(stacks) == 100
    recall = sum(len(r.persons) for r in found) / sum(len(r.persons) for r in gt)
    assert 0.9 <= recall <= 1.0


def test_synth_heatmaps_out_of_grid_writes_nothing(tmp_path, capsys):
    config = RunConfig.default().to_dict()
    config["scene"] = {"num_persons": 1, "num_frames": 10, "motions": [
        {"kind": "linear", "root_coeffs": [[0.0, 0.0, 4000.0], [600.0, 0.0, 0.0]]}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "scene"
    assert main(["synth", "--heatmaps", "--config", str(path), "--out", str(out)]) == 1
    assert "error: frame 4: a pose projects outside the 128x96 heatmap grid" \
        in capsys.readouterr().err
    assert list(out.glob("*.jsonl")) == [] and list(out.glob("*.phms")) == []


def test_eval_writes_undefined_metrics_as_null(tmp_path):
    """With no matched person MPJPE is undefined: report.json holds null,
    not the NaN token that is not JSON."""
    from dualpose.frames_io import poses_to_record, write_frames
    from dualpose.skeleton import pose3d_camera, rest_pose

    pred, gt = tmp_path / "pred.jsonl", tmp_path / "gt.jsonl"
    write_frames([poses_to_record(t, "fused", []) for t in range(3)], pred)
    write_frames([poses_to_record(t, "gt", [pose3d_camera(rest_pose() + (0, 0, 4000.0))], [0])
                  for t in range(3)], gt)
    out = tmp_path / "report.json"
    assert main(["eval", "--out", str(out), str(pred), str(gt)]) == 0

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["mpjpe_mm"] is None and report["pa_mpjpe_mm"] is None
    assert report["matched_persons"] == 0 and report["missed_persons"] == 3


@pytest.mark.parametrize("name", ["report.csv", "report.CSV"])
def test_eval_rejects_an_out_path_its_csv_copy_would_overwrite(tmp_path, capsys, name):
    """The CSV copy goes to --out with the suffix .csv: an --out ending in
    .csv would lose the JSON report.  The clash fails before any input is
    read (the inputs here do not exist)."""
    out = tmp_path / "d" / name
    code = main(["eval", "--out", str(out), str(tmp_path / "pred.jsonl"),
                 str(tmp_path / "gt.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: --out {out}: the JSON report and its CSV copy" in err
    assert not out.parent.exists()


@pytest.mark.parametrize("gate", [0.0, -1.0])
def test_run_rejects_non_positive_linker_gate(tmp_path, capsys, gate):
    config = RunConfig.default().to_dict()
    config["linker_gate_mm"] = gate
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                 str(tmp_path / "td.jsonl")])
    assert code == 1
    assert "config: linker_gate_mm must be positive" in capsys.readouterr().err


def test_decode_subcommand(tmp_path, skel):
    from dualpose.camera import CameraIntrinsics
    from dualpose.heatmaps import render_stack, write_stack
    from dualpose.skeleton import pose3d_camera, rest_pose

    cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    pose = pose3d_camera(rest_pose() + (0.0, 0.0, 4001.0))
    stack = render_stack([pose], cam, skel, width=128, height=96)
    stack_path = tmp_path / "frame.phms"
    write_stack(stack, stack_path)

    config = RunConfig.default()
    config.camera = cam
    config_path = tmp_path / "config.json"
    save_config(config, config_path)

    out = tmp_path / "decoded.jsonl"
    assert main(["decode", "--config", str(config_path), "--out", str(out),
                 str(stack_path)]) == 0
    from dualpose.frames_io import read_frames

    records = read_frames(out, skel.num_joints)
    assert len(records) == 1
    assert len(records[0].persons) == 1
    decoded = records[0].persons[0]
    # decode contract: 0.5 px; at fx=40 and z~4000 that is ~50 mm laterally
    assert np.max(np.abs(decoded.joints - pose.joints)) < 50.5


def test_seed_flag_overrides_scene(tmp_path):
    config_path, _ = write_config(tmp_path, num_frames=4, scene_seed=1)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    main(["synth", "--config", str(config_path), "--out", str(out_a)])
    main(["synth", "--config", str(config_path), "--out", str(out_b),
          "--seed", "999"])
    main(["synth", "--config", str(config_path), "--out", str(out_c),
          "--seed", "999"])
    td_a = (out_a / "td.jsonl").read_bytes()
    td_b = (out_b / "td.jsonl").read_bytes()
    td_c = (out_c / "td.jsonl").read_bytes()
    assert td_a != td_b      # seed changes the noise draws
    assert td_b == td_c      # same override reproduces exactly


def test_validation_error_exit_code(tmp_path):
    missing = tmp_path / "missing.jsonl"
    out = tmp_path / "out"
    code = main(["run", "--out", str(out), str(missing)])
    assert code == 1


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    out = tmp_path / "out"
    code = main(["run", "--config", str(bad), "--out", str(out),
                 str(tmp_path / "td.jsonl")])
    assert code == 1


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    from dualpose import cli
    from dualpose.errors import NumericFailureError

    def boom(*args, **kwargs):
        raise NumericFailureError("non-finite gradient at stage 1, iteration 0")

    monkeypatch.setattr(cli, "run_pipeline", boom)
    td = tmp_path / "td.jsonl"
    td.write_text("")
    code = main(["run", "--out", str(tmp_path / "out"), str(td)])
    assert code == 2


def test_numeric_failure_in_refinement_exits_2(tmp_path, capsys):
    # joints scaled to 1e150 mm at a depth of 1e200 mm overflow the bone
    # lengths within the first stage
    from dualpose.frames_io import poses_to_record, write_frames
    from dualpose.skeleton import pose3d_camera, rest_pose

    fused = tmp_path / "fused.jsonl"
    write_frames([poses_to_record(t, "fused", [pose3d_camera(rest_pose() * 1e150
                                                             + (0.0, 0.0, 1e200 + t))], [0])
                  for t in range(12)], fused)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["tto", "--out", str(tmp_path / "refined.jsonl"), str(fused)])
    assert code == 2
    assert capsys.readouterr().err == "numeric failure: non-finite gradient at stage 1, iteration 17\n"


def test_config_with_legacy_corruption_rates_loads(tmp_path):
    # Older configs carried corrupt_pair rates in the fusion section.
    data = RunConfig.default().to_dict()
    data["fusion"].update({"mask_rate": 0.2, "shift_sigma_mm": 15.0, "drop_rate": 0.1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    from dualpose.frames_io import load_config

    loaded = load_config(path)
    assert loaded.fusion == RunConfig.default().fusion
    assert loaded.to_dict() == RunConfig.default().to_dict()


def test_eval_and_run_reject_gt_frames_without_prediction(tmp_path, capsys):
    config_path, _ = write_config(tmp_path, num_frames=6, iters=3)
    scene = tmp_path / "scene"
    main(["synth", "--config", str(config_path), "--out", str(scene)])
    td = tmp_path / "td_short.jsonl"
    td.write_text("".join((scene / "td.jsonl").read_text().splitlines(True)[:4]))
    code = main(["eval", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
                 str(td), str(scene / "gt.jsonl")])
    eval_err = capsys.readouterr().err
    with pytest.warns(UserWarning, match="passthrough"):
        code_run = main(["run", "--config", str(config_path), "--out",
                         str(tmp_path / "out"), str(td), "--gt", str(scene / "gt.jsonl")])
    run_err = capsys.readouterr().err
    assert code == code_run == 1
    for err in (eval_err, run_err):
        assert "ground truth covers frames absent from predictions: [4, 5]" in err


def test_huge_number_in_frames_exits_1_naming_the_field(tmp_path, capsys):
    joints = ", ".join(["[0.0, 0.0, 1000.0]"] * 14 + ["[1, 2, 1%s]" % ("0" * 400)])
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"frame_index": 0, "source": "fused", "persons": [{"person_id": 0, '
                    '"joints": [%s], "conf": [%s]}]}\n' % (joints, ", ".join(["1"] * 15)))
    code = main(["eval", "--out", str(tmp_path / "r.json"), str(pred), str(pred)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "line 1: persons[0].joints[14]: value is out of the float64 range" in err


@pytest.mark.parametrize("command, inputs", [("synth", 0), ("decode", 1), ("match", 2),
                                             ("fuse", 2), ("eval", 2)])
def test_trace_flag_is_only_for_tto_and_run(tmp_path, capsys, command, inputs):
    missing = [str(tmp_path / f"missing{i}") for i in range(inputs)]
    with pytest.raises(SystemExit) as info:
        main([command, "--out", str(tmp_path / "out"), *missing,
              "--trace", str(tmp_path / "trace.csv")])
    assert info.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err


@pytest.mark.parametrize("command, inputs", [("decode", 1), ("match", 2), ("fuse", 2),
                                             ("tto", 1), ("eval", 2), ("run", 1)])
def test_seed_flag_is_only_for_synth(tmp_path, capsys, command, inputs):
    missing = [str(tmp_path / f"missing{i}") for i in range(inputs)]
    with pytest.raises(SystemExit) as info:
        main([command, "--out", str(tmp_path / "out"), *missing, "--seed", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def _bad_obs_number(scene):
    lines = (scene / "obs.jsonl").read_text().splitlines(True)
    record = json.loads(lines[2])
    record["persons"][1]["joints"][3][0] = "x"
    lines[2] = json.dumps(record) + "\n"
    (scene / "obs.jsonl").write_text("".join(lines))
    return (["run", str(scene / "td.jsonl"), str(scene / "bu.jsonl"),
             "--obs", str(scene / "obs.jsonl")],
            f"{scene / 'obs.jsonl'}: line 3: persons[1].joints[3]: "
            "expected a number, got 'x'")


def _repeated_frame(scene):
    td = scene / "td.jsonl"
    td.write_text(td.read_text() + td.read_text().splitlines(True)[0])
    return (["fuse", str(td), str(scene / "bu.jsonl")],
            f"{td}: line 5: duplicate frame_index 0")


def _obs_as_3d(scene):
    return (["fuse", str(scene / "obs.jsonl"), str(scene / "bu.jsonl")],
            f"{scene / 'obs.jsonl'}: line 1: record holds 2D joints, not a 3D pose")


def _3d_as_obs(scene):
    return (["tto", str(scene / "td.jsonl"), "--obs", str(scene / "td.jsonl")],
            f"{scene / 'td.jsonl'}: line 1: record holds 3D joints, not a 2D pose")


def _edit_records(path, edit, lines=None):
    """Apply ``edit`` to the persons of the given lines (every line if None)."""
    text = path.read_text().splitlines(True)
    for n in range(len(text)) if lines is None else lines:
        record = json.loads(text[n])
        edit(record["persons"])
        text[n] = json.dumps(record) + "\n"
    path.write_text("".join(text))


def _edit_first_record(path, edit):
    _edit_records(path, edit, [0])


def _repeated_td_id(scene):
    _edit_first_record(scene / "td.jsonl", lambda persons: persons[1].update(person_id=0))
    return (["run", str(scene / "td.jsonl"), str(scene / "bu.jsonl")],
            f"{scene / 'td.jsonl'}: line 1: persons[0] and persons[1] repeat person_id 0")


def _fused_id_repeated(scene):
    # BU poses 20 m to the side match no TD pose, so the fused frame holds
    # each id twice until one pose per id is kept
    def move(persons):
        for person in persons:
            person["joints"] = [[x + 20000.0, y, z] for x, y, z in person["joints"]]
    _edit_first_record(scene / "bu.jsonl", move)


@pytest.mark.parametrize("case", [_bad_obs_number, _repeated_frame, _obs_as_3d, _3d_as_obs,
                                  _repeated_td_id],
                         ids=lambda case: case.__name__.strip("_"))
def test_frame_file_errors_name_file_and_line(tmp_path, capsys, case):
    config_path, _ = write_config(tmp_path, num_frames=4, iters=3)
    scene = tmp_path / "scene"
    assert main(["synth", "--config", str(config_path), "--out", str(scene)]) == 0
    argv, message = case(scene)
    capsys.readouterr()
    assert main([*argv, "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _person(persons, pid):
    return next(person for person in persons if person["person_id"] == pid)


def _bu_outlier(scene):
    def shift(persons):
        person = _person(persons, 0)
        person["joints"] = [[x + 600.0, y, z] for x, y, z in person["joints"]]
    _edit_records(scene / "bu.jsonl", shift, [20])


def _td_conf_zero(scene):
    def zero(persons):
        for person in persons:
            person["conf"] = [0.0] * len(person["conf"])
    _edit_records(scene / "td.jsonl", zero)


def _td_collapsed(scene):
    def collapse(persons):
        person = _person(persons, 0)
        person["joints"] = [person["joints"][0]] * len(person["joints"])
    _edit_records(scene / "td.jsonl", collapse, [10])


def _bu_behind_camera(scene):
    def mirror(persons):
        person = _person(persons, 0)
        person["joints"] = [[x, y, -z] for x, y, z in person["joints"]]
    _edit_records(scene / "bu.jsonl", mirror, [12])


def _noise_60mm(scene):
    # the default scene's motions with 60 mm of i.i.d. noise per source: the
    # match gate rejects a pair of one person now and then
    config = RunConfig.default()
    config.scene = dataclasses.replace(make_benchmark_spec(0), sigma_3d_mm=60.0)
    save_config(config, scene / "noise.json")
    assert main(["synth", "--config", str(scene / "noise.json"), "--out", str(scene)]) == 0


def _frames_repeating_an_id(path):
    """Frame indices of the records that give one non-null person_id twice."""
    repeats = []
    for record in map(json.loads, path.read_text().splitlines()):
        ids = [p["person_id"] for p in record["persons"] if p["person_id"] is not None]
        if len(set(ids)) < len(ids):
            repeats.append(record["frame_index"])
    return repeats


@pytest.mark.parametrize("case", [_fused_id_repeated, _bu_outlier, _td_conf_zero, _td_collapsed,
                                  _bu_behind_camera, _noise_60mm],
                         ids=lambda case: case.__name__.strip("_"))
def test_fuse_and_run_keep_one_pose_per_id(tmp_path, case):
    """A pair of one person that the match gate rejects leaves its id on two
    poses: the frame keeps one of them, with a warning, and both commands
    exit 0 with no id twice in a frame."""
    scene = tmp_path / "scene"
    assert main(["synth", "--out", str(scene)]) == 0
    case(scene)
    td, bu, out = str(scene / "td.jsonl"), str(scene / "bu.jsonl"), tmp_path / "run"
    with pytest.warns(UserWarning, match=r"^frame \d+: dropped \d+ pose\(s\) whose person_id"):
        assert main(["fuse", td, bu, "--out", str(tmp_path / "fused.jsonl")]) == 0
    with pytest.warns(UserWarning, match=r"^frame \d+: dropped \d+ pose\(s\) whose person_id"):
        assert main(["run", td, bu, "--obs", str(scene / "obs.jsonl"), "--gt",
                     str(scene / "gt.jsonl"), "--out", str(out)]) == 0
    for path in (tmp_path / "fused.jsonl", out / "fused.jsonl", out / "refined.jsonl"):
        assert _frames_repeating_an_id(path) == []


def test_eval_and_run_reject_an_empty_ground_truth(tmp_path, capsys):
    config_path, _ = write_config(tmp_path, num_frames=6, iters=3)
    scene = tmp_path / "scene"
    assert main(["synth", "--config", str(config_path), "--out", str(scene)]) == 0
    empty = tmp_path / "empty_gt.jsonl"
    empty.write_text("")
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path), "--out", str(tmp_path / "r.json"),
                 str(scene / "td.jsonl"), str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: no frames found\n"
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"),
                 str(scene / "td.jsonl"), str(scene / "bu.jsonl"), "--gt", str(empty)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: no frames found\n"
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "out" / "report.json").exists()


def test_outputs_go_into_missing_directories(tmp_path, skel):
    from dualpose.camera import CameraIntrinsics
    from dualpose.heatmaps import render_stack, write_stack
    from dualpose.skeleton import pose3d_camera, rest_pose

    config_path, _ = write_config(tmp_path, num_frames=6, iters=3)
    scene = tmp_path / "scene"
    assert main(["synth", "--config", str(config_path), "--out", str(scene)]) == 0
    common = ["--config", str(config_path)]
    td, bu = str(scene / "td.jsonl"), str(scene / "bu.jsonl")
    fused, refined = tmp_path / "f" / "fused.jsonl", tmp_path / "x" / "tto.jsonl"
    trace, report = tmp_path / "y" / "trace.csv", tmp_path / "e" / "report.json"
    matches = tmp_path / "m" / "matches.json"
    assert main(["match", *common, "--out", str(matches), td, bu]) == 0
    assert main(["fuse", *common, "--out", str(fused), td, bu]) == 0
    assert main(["tto", *common, "--out", str(refined), "--trace", str(trace),
                 str(fused), "--obs", str(scene / "obs.jsonl")]) == 0
    assert main(["eval", *common, "--out", str(report), str(refined),
                 str(scene / "gt.jsonl")]) == 0
    for path in (matches, fused, refined, trace, report, report.with_suffix(".csv")):
        assert path.stat().st_size > 0
    assert trace.read_text().splitlines()[0].endswith(",step,halvings")

    config = RunConfig.default()
    config.camera = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    save_config(config, tmp_path / "decode.json")
    stack = tmp_path / "frame.phms"
    write_stack(render_stack([pose3d_camera(rest_pose() + (0.0, 0.0, 4001.0))],
                             config.camera, skel, width=128, height=96), stack)
    decoded = tmp_path / "d" / "decoded.jsonl"
    assert main(["decode", "--config", str(tmp_path / "decode.json"),
                 "--out", str(decoded), str(stack)]) == 0
    assert decoded.stat().st_size > 0


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_unusable_output_directory_fails_before_refinement(tmp_path, monkeypatch,
                                                          capsys, flag):
    import dualpose.cli

    config_path, _ = write_config(tmp_path, num_frames=6, iters=3)
    scene = tmp_path / "scene"
    assert main(["synth", "--config", str(config_path), "--out", str(scene)]) == 0
    calls = []
    monkeypatch.setattr(dualpose.cli, "refine_tracks",
                        lambda *args: calls.append(args) or ({}, {}))
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    paths = {"--out": tmp_path / "tto.jsonl", "--trace": tmp_path / "trace.csv"}
    paths[flag] = blocker / "file"
    code = main(["tto", "--config", str(config_path), "--out", str(paths["--out"]),
                 "--trace", str(paths["--trace"]), str(scene / "td.jsonl")])
    assert code == 1
    assert "not_a_dir" in capsys.readouterr().err
    assert calls == []


def _stack_with(skel, tmp_path, num_joints=None, nan_at=None):
    """A rendered one-person stack file, optionally with ``num_joints``
    joint planes or with NaN at (plane, joint, dy, dx) next to the joint's
    peak, plane 0 being the joint maps and 3 the root depth map."""
    from dualpose.camera import CameraIntrinsics
    from dualpose.heatmaps import HeatmapStack, render_stack, write_stack
    from dualpose.skeleton import pose3d_camera, rest_pose

    cam = CameraIntrinsics(fx=40.0, fy=40.0, cx=64.0, cy=48.0)
    stack = render_stack([pose3d_camera(rest_pose() + (0.0, 0.0, 4001.0))], cam, skel,
                         width=128, height=96)
    maps = [stack.joint_maps, stack.tag_maps, stack.rel_depth_maps]
    if num_joints is not None:
        maps = [m[:num_joints] for m in maps]
    path = tmp_path / "frame.phms"
    write_stack(HeatmapStack(128, 96, *maps, stack.root_depth_map), path)
    if nan_at is not None:
        plane, joint, dy, dx = nan_at
        y, x = np.unravel_index(np.argmax(stack.joint_maps[joint]), (96, 128))
        k = len(maps[0])
        index = (plane * k + (joint if plane < 3 else 0)) * 96 * 128 + (y + dy) * 128 + x + dx
        blob = bytearray(path.read_bytes())
        blob[18 + 4 * index:22 + 4 * index] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("case, message", [
    (dict(num_joints=5), "expected 15 joints, got 5"),
    (dict(nan_at=(3, 0, 0, 0)), "root_depth_map values must be finite"),
    (dict(nan_at=(0, 4, 0, 1)), "joint_maps values must lie within [0, 1]"),
], ids=["five_joints", "nan_root_depth", "nan_next_to_peak"])
def test_decode_rejects_bad_stack_files(tmp_path, capsys, skel, case, message):
    path = _stack_with(skel, tmp_path, **case)
    out = tmp_path / "decoded.jsonl"
    assert main(["decode", "--out", str(out), str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()
