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

from .errors import DualPoseError, NumericFailureError, SchemaError
from .frames_io import (
    RunConfig,
    load_config,
    poses_to_record,
    read_frames,
    write_frames,
)
from .heatmaps import decode_poses, read_stack, write_stack
from .metrics import evaluate_frames
from .pipeline import (
    match_frames,
    pose_map_to_records,
    records_to_obs_map,
    records_to_pose_map,
    refine_tracks,
    run_pipeline,
    write_traces,
)
from .synth import generate, make_benchmark_spec


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON run configuration (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--out", type=Path, required=True,
                        help="output file or directory")
    parser.add_argument("--trace", type=Path, default=None,
                        help="CSV loss-trace output path")


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig.default()
    if args.seed is not None:
        config.seed = args.seed
        if config.scene is not None:
            config.scene = dataclasses.replace(config.scene, seed=args.seed)
    return config


def _cmd_synth(args) -> int:
    config = _load(args)
    spec = config.scene or make_benchmark_spec(config.seed)
    heat = config.heatmap
    data = generate(
        spec, config.camera, config.skeleton,
        render_heatmaps=bool(args.heatmaps),
        heatmap_grid=(int(heat.get("width", 128)), int(heat.get("height", 96))),
        heatmap_sigma_px=float(heat.get("sigma_px", 2.0)),
    )
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    ids = list(range(spec.num_persons))
    gt_frames = data.gt_frames()
    write_frames([poses_to_record(t, "gt", gt_frames[t], ids)
                  for t in range(data.num_frames)], out / "gt.jsonl")
    write_frames([poses_to_record(t, "td", data.noisy_td[t], ids)
                  for t in range(data.num_frames)], out / "td.jsonl")
    write_frames([poses_to_record(t, "bu", data.noisy_bu[t], ids)
                  for t in range(data.num_frames)], out / "bu.jsonl")
    write_frames([poses_to_record(t, "obs", data.obs_2d[t], ids)
                  for t in range(data.num_frames)], out / "obs.jsonl")
    if data.heatmaps is not None:
        for t, stack in enumerate(data.heatmaps):
            write_stack(stack, out / f"frame{t:05d}.phms")
    print(f"wrote scene with {spec.num_persons} persons x {data.num_frames} frames to {out}")
    return 0


def _cmd_decode(args) -> int:
    config = _load(args)
    heat = config.heatmap
    records = []
    for frame_idx, path in enumerate(sorted(args.stacks)):
        stack = read_stack(path)
        poses = decode_poses(
            stack, config.camera, config.skeleton,
            theta_peak=float(heat.get("theta_peak", 0.3)),
            theta_tag=float(heat.get("theta_tag", 1.0)),
            sampling=heat.get("sampling", "bilinear"),
        )
        records.append(poses_to_record(frame_idx, "bu", poses))
    write_frames(records, args.out)
    print(f"decoded {len(records)} stacks -> {args.out}")
    return 0


def _cmd_match(args) -> int:
    config = _load(args)
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


def _cmd_fuse(args) -> int:
    # Imported at call time, so that a wrapper installed on
    # pipeline.fuse_sources (perfbench's tracer installs one) is the one called.
    from .pipeline import fuse_sources

    config = _load(args)
    k = config.skeleton.num_joints
    td_map = records_to_pose_map(read_frames(args.td, k))
    bu_map = records_to_pose_map(read_frames(args.bu, k))
    fused = fuse_sources(config, td_map, bu_map)
    write_frames(pose_map_to_records(fused, "fused"), args.out)
    print(f"fused {len(fused)} frames -> {args.out}")
    return 0


def _cmd_tto(args) -> int:
    config = _load(args)
    k = config.skeleton.num_joints
    pose_map = records_to_pose_map(read_frames(args.poses, k))
    obs_map = records_to_obs_map(read_frames(args.obs, k)) if args.obs else None
    refined, traces = refine_tracks(pose_map, obs_map, config)
    write_frames(pose_map_to_records(refined, "fused"), args.out)
    if args.trace and traces:
        write_traces(traces, args.trace)
    print(f"refined {len(traces)} tracks -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    config = _load(args)
    k = config.skeleton.num_joints
    pred_map = records_to_pose_map(read_frames(args.pred, k))
    gt_map = records_to_pose_map(read_frames(args.gt, k))
    indices = sorted(gt_map)
    missing = [i for i in indices if i not in pred_map]
    if missing:
        raise SchemaError(f"predictions missing for frames {missing[:5]}")
    report = evaluate_frames(
        [pred_map[i][0] for i in indices],
        [gt_map[i][0] for i in indices],
        config.skeleton, config.metrics,
    )
    report.to_json(args.out)
    report.to_csv(Path(args.out).with_suffix(".csv"))
    print(f"mpjpe={report.mpjpe_mm:.3f}mm pck={report.pck:.2f}% "
          f"pck_abs={report.pck_abs:.2f}% -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _load(args)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    if args.trace is not None:
        args.trace.parent.mkdir(parents=True, exist_ok=True)
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
    _add_common(p)
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
    _add_common(p)
    p.add_argument("poses", type=Path, help="fused 3D pose frames")
    p.add_argument("--obs", type=Path, default=None, help="2D observations")
    p.set_defaults(func=_cmd_tto)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    _add_common(p)
    p.add_argument("pred", type=Path)
    p.add_argument("gt", type=Path)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="full chain: match, fuse, refine, evaluate")
    _add_common(p)
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
        return args.func(args)
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except (DualPoseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
