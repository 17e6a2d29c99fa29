"""Command-line entry point.

Subcommands mirror the processing chain so each step can be run and
inspected on its own: synth, decode, match, fuse, tto, eval, run.
Exit codes: 0 success, 1 validation error, 2 numeric failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .camera import project
from .errors import DualPoseError, NumericFailureError, OutOfGridError
from .frames_io import (
    RunConfig,
    load_config,
    poses_to_record,
    read_frames,
    write_frames,
)
from .heatmaps import (
    decode_poses,
    grid_camera,
    in_grid,
    read_stack,
    render_stack,
    write_stack,
)
from .metrics import evaluate_frames
from .pipeline import (
    aligned_frames,
    match_frames,
    pose_map_to_records,
    read_ground_truth,
    records_to_obs_map,
    records_to_pose_map,
    refine_tracks,
    run_pipeline,
    write_traces,
)
from .skeleton import stack_poses
from .synth import generate, make_benchmark_spec


def _add_common(parser: argparse.ArgumentParser, trace: bool = False,
                out_dir: bool = False) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON run configuration (defaults apply if omitted)")
    parser.add_argument("--out", type=Path, required=True,
                        help="output directory" if out_dir else "output file")
    parser.set_defaults(out_dir=out_dir)
    if trace:
        parser.add_argument("--trace", type=Path, default=None,
                            help="CSV loss-trace output path")


def _make_output_dirs(args) -> None:
    """Create the directory of every output (``--out`` itself when it names
    a directory), so a bad output path fails before any work is done."""
    # eval writes its CSV copy next to --out, with the suffix .csv (the same
    # file on a case-insensitive file system if --out ends in .CSV)
    if args.command == "eval" and args.out.suffix.lower() == ".csv":
        raise ValueError(f"--out {args.out}: the JSON report and its CSV copy would "
                         "both be written to this file; give --out another suffix")
    dirs = [args.out if args.out_dir else args.out.parent]
    if getattr(args, "trace", None) is not None:
        dirs.append(args.trace.parent)
    for path in dirs:
        path.mkdir(parents=True, exist_ok=True)


def _cmd_synth(args, config: RunConfig) -> int:
    spec = config.scene or make_benchmark_spec(config.seed)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    data = generate(spec, config.camera, config.skeleton)
    out = args.out
    ids = list(range(spec.num_persons))
    sources = {"gt": data.gt_frames(), "td": data.noisy_td, "bu": data.noisy_bu,
               "obs": data.obs_2d}
    if args.heatmaps:
        heat = config.heatmap
        cam = grid_camera(config.camera, heat.width, heat.height)
        # every frame must fit the grid before any file is written
        joints = stack_poses([pose for poses in sources["gt"] for pose in poses],
                             (config.skeleton.num_joints, 3))[0].reshape(data.num_frames, -1, 3)
        uv = project(joints, cam)
        off = ~in_grid(uv[..., 0], uv[..., 1], heat.width, heat.height).all(axis=1)
        if off.any():
            raise OutOfGridError(f"frame {np.argmax(off)}: a pose projects outside the "
                                 f"{heat.width}x{heat.height} heatmap grid")
    for source, frames in sources.items():
        write_frames([poses_to_record(t, source, poses, ids)
                      for t, poses in enumerate(frames)], out / f"{source}.jsonl")
    if args.heatmaps:
        for t, poses in enumerate(sources["gt"]):
            write_stack(render_stack(poses, cam, config.skeleton, heat.width, heat.height,
                                     heat.sigma_px), out / f"frame{t:05d}.phms")
    print(f"wrote scene with {spec.num_persons} persons x {data.num_frames} frames to {out}")
    return 0


def _cmd_decode(args, config: RunConfig) -> int:
    heat = config.heatmap
    records = []
    for frame_idx, path in enumerate(sorted(args.stacks)):
        stack = read_stack(path, config.skeleton.num_joints)
        poses = decode_poses(stack, grid_camera(config.camera, stack.width, stack.height),
                             config.skeleton,
                             theta_peak=heat.theta_peak, theta_tag=heat.theta_tag)
        records.append(poses_to_record(frame_idx, "bu", poses))
    write_frames(records, args.out)
    print(f"decoded {len(records)} stacks -> {args.out}")
    return 0


def _cmd_match(args, config: RunConfig) -> int:
    k = config.skeleton.num_joints
    td_map = records_to_pose_map(read_frames(args.td, k))
    bu_map = records_to_pose_map(read_frames(args.bu, k))
    result = {
        str(frame_idx): {
            "pairs": [[i, j, sim] for i, j, sim in match.pairs],
            "unmatched_td": list(match.unmatched_td),
            "unmatched_bu": list(match.unmatched_bu),
        }
        for frame_idx, _, _, match in match_frames(config, td_map, bu_map)
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"matched {len(result)} frames -> {args.out}")
    return 0


def _cmd_fuse(args, config: RunConfig) -> int:
    # Imported at call time, so that a wrapper installed on
    # pipeline.fuse_sources (perfbench's tracer installs one) is the one called.
    from .pipeline import fuse_sources

    k = config.skeleton.num_joints
    td_map = records_to_pose_map(read_frames(args.td, k))
    bu_map = records_to_pose_map(read_frames(args.bu, k))
    fused = fuse_sources(config, td_map, bu_map)
    write_frames(pose_map_to_records(fused, "fused"), args.out)
    print(f"fused {len(fused)} frames -> {args.out}")
    return 0


def _cmd_tto(args, config: RunConfig) -> int:
    k = config.skeleton.num_joints
    pose_map = records_to_pose_map(read_frames(args.poses, k))
    obs_map = records_to_obs_map(read_frames(args.obs, k)) if args.obs else {}
    refined, traces = refine_tracks(pose_map, obs_map, config)
    write_frames(pose_map_to_records(refined, "fused"), args.out)
    if args.trace is not None:
        write_traces(traces, args.trace)
    print(f"refined {len(traces)} tracks -> {args.out}")
    return 0


def _cmd_eval(args, config: RunConfig) -> int:
    k = config.skeleton.num_joints
    pred_map = records_to_pose_map(read_frames(args.pred, k))
    gt_map = read_ground_truth(args.gt, k)
    report = evaluate_frames(*aligned_frames(pred_map, gt_map), config.skeleton,
                             config.metrics)
    report.to_json(args.out)
    report.to_csv(args.out.with_suffix(".csv"))
    print(f"mpjpe={report.mpjpe_mm:.3f}mm pck={report.pck:.2f}% "
          f"pck_abs={report.pck_abs:.2f}% -> {args.out}")
    return 0


def _cmd_run(args, config: RunConfig) -> int:
    out = args.out
    result = run_pipeline(config, args.td, bu_path=args.bu, gt_path=args.gt,
                          obs_path=args.obs, trace_path=args.trace)
    write_frames(result.fused_records, out / "fused.jsonl")
    write_frames(result.refined_records, out / "refined.jsonl")
    if result.report is not None:
        result.report.to_json(out / "report.json")
        result.report.to_csv(out / "report.csv")
        print(f"mpjpe={result.report.mpjpe_mm:.3f}mm "
              f"pck={result.report.pck:.2f}% pck_abs={result.report.pck_abs:.2f}%")
    print(f"pipeline outputs in {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualpose",
        description="Dual-source multi-person 3D pose toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene as frame files")
    _add_common(p, out_dir=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the configured seed")
    p.add_argument("--heatmaps", action="store_true",
                   help="also render per-frame heatmap stacks")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decode", help="decode heatmap stacks into 3D poses")
    _add_common(p)
    p.add_argument("stacks", nargs="+", type=Path, help="stack files (.phms)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("match", help="match TD against BU poses per frame")
    _add_common(p)
    p.add_argument("td", type=Path)
    p.add_argument("bu", type=Path)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("fuse", help="match and fuse TD/BU poses per frame")
    _add_common(p)
    p.add_argument("td", type=Path)
    p.add_argument("bu", type=Path)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("tto", help="refine pose sequences by optimization")
    _add_common(p, trace=True)
    p.add_argument("poses", type=Path, help="fused 3D pose frames")
    p.add_argument("--obs", type=Path, default=None, help="2D observations")
    p.set_defaults(func=_cmd_tto)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    _add_common(p)
    p.add_argument("pred", type=Path)
    p.add_argument("gt", type=Path)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full chain: match, fuse, refine, evaluate")
    _add_common(p, trace=True, out_dir=True)
    p.add_argument("td", type=Path)
    p.add_argument("bu", type=Path, nargs="?", default=None)
    p.add_argument("--gt", type=Path, default=None)
    p.add_argument("--obs", type=Path, default=None)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if args.config else RunConfig.default()
        _make_output_dirs(args)
        return args.func(args, config)
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (DualPoseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
