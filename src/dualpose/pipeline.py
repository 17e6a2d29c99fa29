"""End-to-end chain: per-frame matching, fusion, track assembly,
sequence refinement, and evaluation."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import MisalignedFramesError, SchemaError
from .frames_io import (
    FrameRecord,
    RunConfig,
    frames_by_index,
    poses_to_record,
    read_frames,
)
from .fusion import fuse_frame
from .matching import match_sets
from .metrics import MetricReport, evaluate_frames
from .skeleton import Pose2D, Pose3D, TrackSequence
from .tto import TraceRow, optimize

# Per-frame poses and their person ids (None when unlabeled), by frame index.
PoseMap = dict[int, tuple[list[Pose3D], list[int | None]]]
ObsMap = dict[int, tuple[list[Pose2D], list[int | None]]]


@dataclass
class PipelineResult:
    """Everything the chain produced for one input set."""

    refined_records: list[FrameRecord]
    fused_records: list[FrameRecord]
    report: MetricReport | None
    traces: dict[int | str, list[TraceRow]]


def records_to_pose_map(records: list[FrameRecord]) -> PoseMap:
    out = {}
    for idx, rec in frames_by_index(records).items():
        poses = [p.to_pose3d() for p in rec.persons]
        ids = [p.person_id for p in rec.persons]
        out[idx] = (poses, ids)
    return out


def pose_map_to_records(frames: PoseMap, source: str) -> list[FrameRecord]:
    """Inverse of ``records_to_pose_map``: one record per frame, in frame order."""
    return [poses_to_record(idx, source, *frames[idx]) for idx in sorted(frames)]


def records_to_obs_map(records: list[FrameRecord]) -> ObsMap:
    out = {}
    for idx, rec in frames_by_index(records).items():
        out[idx] = ([p.to_pose2d() for p in rec.persons],
                    [p.person_id for p in rec.persons])
    return out


def link_tracks(frames: PoseMap, root_index: int, gate_mm: float) -> list[TrackSequence]:
    """Assemble per-person tracks from per-frame pose lists.

    Poses carrying a person_id join that identity directly.  Unlabeled poses
    are linked greedily to the nearest track root from the previous frame
    within ``gate_mm``; leftovers start new tracks.
    """
    tracks: dict[int | str, TrackSequence] = {}
    last_seen: dict[int | str, tuple[int, np.ndarray]] = {}
    next_auto = 0
    for frame_idx in sorted(frames):
        poses, ids = frames[frame_idx]
        unlabeled: list[tuple[int, Pose3D]] = []
        for pose, pid in zip(poses, ids):
            if pid is not None:
                key = pid
                if key not in tracks:
                    tracks[key] = TrackSequence(person_id=key, frames={})
                tracks[key].add(frame_idx, pose)
                last_seen[key] = (frame_idx, pose.joints[root_index])
            else:
                unlabeled.append((len(unlabeled), pose))
        if unlabeled:
            candidates = [
                (key, root) for key, (seen_at, root) in last_seen.items()
                if seen_at == frame_idx - 1 and frame_idx not in tracks[key].frames
            ]
            assigned: set[int | str] = set()
            # Globally greedy: nearest (pose, track) pairs first.
            options = []
            for slot, pose in unlabeled:
                root = pose.joints[root_index]
                for key, track_root in candidates:
                    d = float(np.linalg.norm(root - track_root))
                    if d <= gate_mm:
                        options.append((d, slot, key))
            options.sort(key=lambda item: (item[0], item[1], str(item[2])))
            placed: set[int] = set()
            for d, slot, key in options:
                if slot in placed or key in assigned:
                    continue
                pose = unlabeled[slot][1]
                tracks[key].add(frame_idx, pose)
                last_seen[key] = (frame_idx, pose.joints[root_index])
                placed.add(slot)
                assigned.add(key)
            for slot, pose in unlabeled:
                if slot in placed:
                    continue
                key = f"auto{next_auto}"
                next_auto += 1
                tracks[key] = TrackSequence(person_id=key, frames={frame_idx: pose})
                last_seen[key] = (frame_idx, pose.joints[root_index])
    return [tracks[k] for k in sorted(tracks, key=str)]


def match_frames(config: RunConfig, td_map: PoseMap, bu_map: PoseMap):
    """Per-frame TD/BU matching over the union of frame indices.

    Yields (frame index, (TD poses, ids), (BU poses, ids), MatchResult) in
    frame order.
    """
    for frame_idx in sorted(set(td_map) | set(bu_map)):
        td = td_map.get(frame_idx, ([], []))
        bu = bu_map.get(frame_idx, ([], []))
        yield frame_idx, td, bu, match_sets(td[0], bu[0], config.match)


def fuse_sources(config: RunConfig, td_map: PoseMap, bu_map: PoseMap) -> PoseMap:
    """Per-frame matching and fusion over the union of frame indices."""
    fused: PoseMap = {}
    for frame_idx, (td_poses, td_ids), (bu_poses, bu_ids), match in \
            match_frames(config, td_map, bu_map):
        poses = fuse_frame(match, td_poses, bu_poses, config.fusion, config.skeleton)
        ids: list[int | None] = []
        for i, j, _ in match.pairs:
            ids.append(td_ids[i] if td_ids[i] is not None else bu_ids[j])
        ids.extend(td_ids[i] for i in match.unmatched_td)
        ids.extend(bu_ids[j] for j in match.unmatched_bu)
        fused[frame_idx] = (poses, ids)
    return fused


def track_observations(track: TrackSequence, obs_map: ObsMap | None
                       ) -> dict[int, Pose2D] | None:
    """Observations aligned to one track, matched by person_id."""
    if obs_map is None:
        return None
    out: dict[int, Pose2D] = {}
    for frame_idx in track.frame_indices:
        if frame_idx not in obs_map:
            continue
        poses, ids = obs_map[frame_idx]
        for pose, pid in zip(poses, ids):
            if pid == track.person_id:
                out[frame_idx] = pose
                break
    return out or None


def contiguous_runs(track: TrackSequence) -> list[TrackSequence]:
    """Split a track at every missing frame into runs of consecutive frames."""
    runs: list[dict[int, Pose3D]] = []
    for idx, pose in track.frames.items():
        if not runs or idx - 1 not in runs[-1]:
            runs.append({})
        runs[-1][idx] = pose
    return [TrackSequence(person_id=track.person_id, frames=run) for run in runs]


def refine_tracks(frames: PoseMap, obs_map: ObsMap | None, config: RunConfig
                  ) -> tuple[PoseMap, dict[int | str, list[TraceRow]]]:
    """Link per-frame poses into tracks and refine each track by TTO.

    Every track is split into runs of consecutive frames, so no trajectory
    window spans a gap.  Runs no longer than the largest trajectory window
    pass through unchanged.  Returns the refined poses per frame (every
    input frame, each keeping its person ids) and the loss trace of every
    optimized run, keyed by the track's person id, or by
    ``"<person id>@<first frame>"`` when the track was split.
    """
    tracks = link_tracks(frames, config.skeleton.root_index, config.linker_gate_mm)
    max_window = max(config.tto.window_map().values(), default=0)
    refined: PoseMap = {idx: ([], []) for idx in frames}
    traces: dict[int | str, list[TraceRow]] = {}
    for track in tracks:
        runs = contiguous_runs(track)
        pid = track.person_id if isinstance(track.person_id, int) else None
        for run in runs:
            if len(run) > max_window:
                obs = track_observations(run, obs_map)
                run, state = optimize(run, obs, config.camera, config.tto,
                                      config.skeleton)
                key = track.person_id if len(runs) == 1 \
                    else f"{track.person_id}@{run.frame_indices[0]}"
                traces[key] = state.trace
            for frame_idx, pose in run.frames.items():
                refined[frame_idx][0].append(pose)
                refined[frame_idx][1].append(pid)
    return refined, traces


def run_pipeline(config: RunConfig, td_path, bu_path=None, gt_path=None,
                 obs_path=None, trace_path=None) -> PipelineResult:
    """Execute match -> fuse -> link -> refine -> evaluate on frame files.

    A missing BU file degrades to TD passthrough with a warning.  Without
    2D observations every observation confidence is 0, so the reprojection
    term vanishes.  Evaluation happens only when a ground-truth file is
    supplied.
    """
    num_joints = config.skeleton.num_joints
    td_records = read_frames(td_path, num_joints)
    if not td_records and bu_path is None:
        raise SchemaError(f"{td_path}: no frames found")
    td_map = records_to_pose_map(td_records)

    if bu_path is not None:
        bu_map = records_to_pose_map(read_frames(bu_path, num_joints))
    else:
        warnings.warn("no bottom-up input: running in TD passthrough mode")
        bu_map = {}

    obs_map = None
    if obs_path is not None:
        obs_map = records_to_obs_map(read_frames(obs_path, num_joints))

    fused = fuse_sources(config, td_map, bu_map)
    if not fused:
        raise SchemaError("inputs contain no frames")

    refined, traces = refine_tracks(fused, obs_map, config)
    if trace_path is not None and traces:
        write_traces(traces, trace_path)

    report = None
    if gt_path is not None:
        gt_map = records_to_pose_map(read_frames(gt_path, num_joints))
        missing = sorted(set(gt_map) - set(refined))
        if missing:
            raise MisalignedFramesError(
                f"ground truth covers frames absent from predictions: {missing[:5]}"
            )
        pred_frames = [refined[idx][0] for idx in sorted(gt_map)]
        gt_frames = [gt_map[idx][0] for idx in sorted(gt_map)]
        report = evaluate_frames(pred_frames, gt_frames, config.skeleton,
                                 config.metrics)

    return PipelineResult(
        refined_records=pose_map_to_records(refined, "fused"),
        fused_records=pose_map_to_records(fused, "fused"),
        report=report,
        traces=traces,
    )


def write_traces(traces: dict[int | str, list[TraceRow]], path) -> None:
    """Write loss traces as CSV: one row per track and optimizer iteration,
    with columns track, iteration, stage, l_traj, l_rep, l_bone, total."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track", "iteration", "stage", "l_traj", "l_rep",
                         "l_bone", "total"])
        for key in sorted(traces, key=str):
            for row in traces[key]:
                writer.writerow([key, row.iteration, row.stage, repr(row.l_traj),
                                 repr(row.l_rep), repr(row.l_bone), repr(row.total)])
