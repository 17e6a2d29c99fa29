import json

import numpy as np

from dualpose.cli import main
from dualpose.frames_io import RunConfig, save_config


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
    decoded = records[0].persons[0].to_pose3d()
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
