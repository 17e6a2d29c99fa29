"""End-to-end chain: per-frame matching, fusion, track assembly,
sequence refinement, and evaluation."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

from .errors import MisalignedFramesError, SchemaError
from .frames_io import (
    FrameRecord,
    RunConfig,
    poses_to_record,
    read_frames,
)
from .fusion import fuse_frame
from .matching import match_sets
from .metrics import MetricReport, evaluate_frames, greedy_root_match
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


def _record_map(records: list[FrameRecord], obs: bool) -> dict:
    """Each record's (persons, ids) by frame index, in frame order.

    Every record must be a 2D observation record if ``obs``, else a 3D one,
    and each frame index may occur once.
    """
    out = {}
    for rec in records:
        if (rec.source == "obs") != obs:
            raise rec.error("record holds 3D joints, not a 2D pose" if obs
                            else "record holds 2D joints, not a 3D pose")
        if rec.frame_index in out:
            raise rec.error(f"duplicate frame_index {rec.frame_index}")
        out[rec.frame_index] = (rec.persons, rec.ids)
    return dict(sorted(out.items()))


def records_to_pose_map(records: list[FrameRecord]) -> PoseMap:
    return _record_map(records, obs=False)


def pose_map_to_records(frames: PoseMap, source: str) -> list[FrameRecord]:
    """Inverse of ``records_to_pose_map``: one record per frame, in frame order."""
    return [poses_to_record(idx, source, *frames[idx]) for idx in sorted(frames)]


def records_to_obs_map(records: list[FrameRecord]) -> ObsMap:
    return _record_map(records, obs=True)


def link_tracks(frames: PoseMap, root_index: int, gate_mm: float) -> list[TrackSequence]:
    """Assemble per-person tracks from per-frame pose lists.

    Poses carrying a person_id join that identity directly.  Each frame's
    unlabeled poses are paired with the tracks whose last frame is the
    previous one, by one globally greedy nearest-root pairing within
    ``gate_mm`` (ties by pose slot, then by ``str`` of the track id);
    leftovers start new tracks.
    """
    tracks: dict[int | str, TrackSequence] = {}
    next_auto = 0

    def place(key: int | str, frame_idx: int, pose: Pose3D) -> None:
        if key not in tracks:
            tracks[key] = TrackSequence(person_id=key, frames={})
        tracks[key].add(frame_idx, pose)

    for frame_idx in sorted(frames):
        poses, ids = frames[frame_idx]
        for pose, pid in zip(poses, ids):
            if pid is not None:
                place(pid, frame_idx, pose)
        unlabeled = [pose for pose, pid in zip(poses, ids) if pid is None]
        if not unlabeled:
            continue
        # a track's frames are sorted, so its last key is its last frame
        candidates = sorted((key for key, track in tracks.items()
                             if next(reversed(track.frames)) == frame_idx - 1), key=str)
        pairs, unpaired, _ = greedy_root_match(
            [pose.joints[root_index] for pose in unlabeled],
            [tracks[key].frames[frame_idx - 1].joints[root_index] for key in candidates], gate_mm)
        for slot, col in pairs:
            place(candidates[col], frame_idx, unlabeled[slot])
        for slot in unpaired:
            place(f"auto{next_auto}", frame_idx, unlabeled[slot])
            next_auto += 1
    return [tracks[k] for k in sorted(tracks, key=str)]


def match_frames(config: RunConfig, td_map: PoseMap, bu_map: PoseMap):
    """Per-frame TD/BU matching over the union of frame indices.

    Yields (frame index, (TD poses, ids), (BU poses, ids), MatchResult) in
    frame order.  2D matching projects with the run's ``config.camera``.
    """
    for frame_idx in sorted(set(td_map) | set(bu_map)):
        td = td_map.get(frame_idx, ([], []))
        bu = bu_map.get(frame_idx, ([], []))
        yield frame_idx, td, bu, match_sets(td[0], bu[0], config.match,
                                            config.skeleton.oks_sigma, config.camera)


def fuse_sources(config: RunConfig, td_map: PoseMap, bu_map: PoseMap) -> PoseMap:
    """Per-frame matching and fusion over the union of frame indices; a
    fused pair keeps its TD person id, else its BU one."""
    fused: PoseMap = {}
    for frame_idx, (td_poses, td_ids), (bu_poses, bu_ids), match in \
            match_frames(config, td_map, bu_map):
        poses = fuse_frame(match, td_poses, bu_poses, config.fusion, config.skeleton)
        paired_ids = [td_ids[i] if td_ids[i] is not None else bu_ids[j]
                      for i, j, _ in match.pairs]
        fused[frame_idx] = (poses, match.in_fused_order(paired_ids, td_ids, bu_ids))
    return fused


def track_observations(track: TrackSequence, obs_map: ObsMap) -> dict[int, Pose2D]:
    """Observations aligned to one track, matched by person_id."""
    out: dict[int, Pose2D] = {}
    for frame_idx in track.frame_indices:
        if frame_idx not in obs_map:
            continue
        poses, ids = obs_map[frame_idx]
        for pose, pid in zip(poses, ids):
            if pid == track.person_id:
                out[frame_idx] = pose
                break
    return out


def contiguous_runs(track: TrackSequence) -> list[TrackSequence]:
    """Split a track at every missing frame into runs of consecutive frames."""
    runs: list[dict[int, Pose3D]] = []
    for idx, pose in track.frames.items():
        if not runs or idx - 1 not in runs[-1]:
            runs.append({})
        runs[-1][idx] = pose
    return [TrackSequence(person_id=track.person_id, frames=run) for run in runs]


def refine_tracks(frames: PoseMap, obs_map: ObsMap, config: RunConfig
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


def aligned_frames(pred: PoseMap, gt: PoseMap
                   ) -> tuple[list[list[Pose3D]], list[list[Pose3D]]]:
    """Prediction and ground-truth pose lists of every GT frame, in frame order.

    Raises MisalignedFramesError when a GT frame has no prediction record.
    """
    missing = sorted(set(gt) - set(pred))
    if missing:
        raise MisalignedFramesError(
            f"ground truth covers frames absent from predictions: {missing[:5]}"
        )
    indices = sorted(gt)
    return [pred[i][0] for i in indices], [gt[i][0] for i in indices]


def run_pipeline(config: RunConfig, td_path, bu_path=None, gt_path=None,
                 obs_path=None, trace_path=None) -> PipelineResult:
    """Execute match -> fuse -> link -> refine -> evaluate on frame files.

    A missing BU file degrades to TD passthrough with a warning.  Without
    2D observations every observation confidence is 0, so the reprojection
    term vanishes.  Evaluation happens only when a ground-truth file is
    supplied.
    """
    num_joints = config.skeleton.num_joints
    td_map = records_to_pose_map(read_frames(td_path, num_joints))

    if bu_path is not None:
        bu_map = records_to_pose_map(read_frames(bu_path, num_joints))
    else:
        warnings.warn("no bottom-up input: running in TD passthrough mode")
        bu_map = {}

    obs_map = {} if obs_path is None else records_to_obs_map(read_frames(obs_path, num_joints))

    fused = fuse_sources(config, td_map, bu_map)
    if not fused:
        inputs = td_path if bu_path is None else f"{td_path} and {bu_path}"
        raise SchemaError(f"{inputs}: no frames found")

    refined, traces = refine_tracks(fused, obs_map, config)
    if trace_path is not None:
        write_traces(traces, trace_path)

    report = None
    if gt_path is not None:
        gt_map = records_to_pose_map(read_frames(gt_path, num_joints))
        report = evaluate_frames(*aligned_frames(refined, gt_map), config.skeleton,
                                 config.metrics)

    return PipelineResult(
        refined_records=pose_map_to_records(refined, "fused"),
        fused_records=pose_map_to_records(fused, "fused"),
        report=report,
        traces=traces,
    )


def write_traces(traces: dict[int | str, list[TraceRow]], path) -> None:
    """Write loss traces as CSV: one row per track and optimizer iteration,
    with columns track, iteration, stage, l_traj, l_rep, l_bone, total,
    step, halvings."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["track", "iteration", "stage", "l_traj", "l_rep",
                         "l_bone", "total", "step", "halvings"])
        for key in sorted(traces, key=str):
            for row in traces[key]:
                writer.writerow([key, row.iteration, row.stage, repr(row.l_traj),
                                 repr(row.l_rep), repr(row.l_bone), repr(row.total),
                                 repr(row.step), row.halvings])
