"""The benchmark's workloads: scenes built from a seed, and the CLI chain
each pass runs on them.

Every input is generated by ``dualpose.synth`` and written to files; the
program sees only those files.  Persons are laid out so that no operation
fails on any seed: every joint stays in front of the camera, and on the
decode scene every joint projects inside the heatmap grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dualpose.camera import CameraIntrinsics
from dualpose.frames_io import RunConfig, poses_to_record, save_config, write_frames
from dualpose.heatmaps import render_stack, write_stack
from dualpose.synth import MotionSpec, SceneSpec, generate, make_benchmark_spec

# Share of persons each detector misses in each frame, independently per source.
CROWD_MISS_RATE = 0.10
# Lowest accepted share of ground-truth persons the heatmap decoder recovers.
DECODE_RECALL_FLOOR = 0.9
# Heatmap grid of the decode scene and a camera fitted to it.
DECODE_GRID = (128, 96)
DECODE_CAMERA = CameraIntrinsics(fx=110.0, fy=110.0, cx=64.0, cy=48.0)
# The decode sequence joins independent short clips.
DECODE_CLIPS = 10
DECODE_CLIP_FRAMES = 10
# Frames each person of the gapped scene is absent for, per absence.  Fixed
# lengths keep the number and length of the tracks, and so the accuracy,
# alike across seeds.
GAP_LENGTHS = ((8,), (3, 6), (5, 4))


@dataclass
class Scene:
    """One workload's inputs on disk and the chain a pass runs on them.

    ``commands`` are ``dualpose`` argument lists; ``{out}`` stands for the
    pass's output directory.  ``outputs`` are the files a pass writes there.
    """

    frames: int
    gt_persons: int
    commands: list[list[str]]
    outputs: tuple[str, ...]
    check_refinement: bool = False
    decoded: str | None = None


def _write(path: Path, source: str, frames, with_ids: bool) -> None:
    records = []
    for t, poses in enumerate(frames):
        ids = list(range(len(poses))) if with_ids else [None] * len(poses)
        records.append(poses_to_record(t, source, poses, ids))
    write_frames(records, path)


def _detections(frames, rng: np.random.Generator, miss_rate: float):
    """Unlabeled detector output: each person kept with 1 - miss_rate, in
    shuffled order."""
    out = []
    for poses in frames:
        kept = [p for p in poses if rng.random() >= miss_rate]
        out.append([kept[i] for i in rng.permutation(len(kept))])
    return out


def refine(seed: int, inp: Path) -> Scene:
    """The standard refinement scene: three labeled persons, 100 frames,
    2D observations, default TTO schedule."""
    cfg = RunConfig.default()
    spec = make_benchmark_spec(seed)
    data = generate(spec, cfg.camera, cfg.skeleton)
    _write(inp / "gt.jsonl", "gt", data.gt_frames(), True)
    _write(inp / "td.jsonl", "td", data.noisy_td, True)
    _write(inp / "bu.jsonl", "bu", data.noisy_bu, True)
    _write(inp / "obs.jsonl", "obs", data.obs_2d, True)
    return Scene(
        frames=spec.num_frames,
        gt_persons=spec.num_persons * spec.num_frames,
        commands=[["run", str(inp / "td.jsonl"), str(inp / "bu.jsonl"),
                   "--obs", str(inp / "obs.jsonl"), "--gt", str(inp / "gt.jsonl"),
                   "--out", "{out}"]],
        outputs=("fused.jsonl", "refined.jsonl", "report.json", "report.csv"),
        check_refinement=True,
    )


def _crowd_spec(seed: int) -> SceneSpec:
    # Twelve persons on a jittered 4 x 3 floor grid, 1.6 m apart, each
    # drifting at most 1.5 mm/frame so that neighbours never meet.
    rng = np.random.default_rng([seed, 1])
    motions = []
    for z in (4000.0, 5600.0, 7200.0):
        for col in range(4):
            x = -2400.0 + 1600.0 * col
            start = (x + rng.uniform(-200, 200), 200.0 + rng.uniform(-50, 50),
                     z + rng.uniform(-200, 200))
            velocity = (rng.uniform(-1.5, 1.5), 0.0, rng.uniform(-1.5, 1.5))
            motions.append(MotionSpec(
                kind="sinusoidal", root_coeffs=(start, velocity),
                body_scale=float(rng.uniform(0.9, 1.1)),
                swing_amplitude_mm=float(rng.uniform(20, 60)),
                swing_period_frames=float(rng.uniform(30, 60)),
            ))
    return SceneSpec(num_persons=len(motions), num_frames=300, motions=tuple(motions),
                     sigma_3d_mm=30.0, conf_base=1.0, conf_jitter=0.3,
                     drop_prob=0.05, seed=seed)


def crowd(seed: int, inp: Path) -> Scene:
    """Twelve unlabeled persons over 300 frames, fused and evaluated; each
    source misses about a tenth of the persons in every frame."""
    cfg = RunConfig.default()
    spec = _crowd_spec(seed)
    data = generate(spec, cfg.camera, cfg.skeleton)
    rng = np.random.default_rng([seed, 2])
    _write(inp / "gt.jsonl", "gt", data.gt_frames(), True)
    _write(inp / "td.jsonl", "td", _detections(data.noisy_td, rng, CROWD_MISS_RATE), False)
    _write(inp / "bu.jsonl", "bu", _detections(data.noisy_bu, rng, CROWD_MISS_RATE), False)
    return Scene(
        frames=spec.num_frames,
        gt_persons=spec.num_persons * spec.num_frames,
        commands=[
            ["fuse", str(inp / "td.jsonl"), str(inp / "bu.jsonl"),
             "--out", "{out}/fused.jsonl"],
            ["eval", "{out}/fused.jsonl", str(inp / "gt.jsonl"),
             "--out", "{out}/report.json"],
        ],
        outputs=("fused.jsonl", "report.json", "report.csv"),
    )


def _decode_spec(seed: int, clip: int) -> SceneSpec:
    # Six persons 0.9 m apart, about 6 m away, turning and swinging their
    # limbs.  At fx = 110 px every joint stays at least 2 px inside the
    # 128 x 96 grid.
    rng = np.random.default_rng([seed, 3, clip])
    motions = []
    for i in range(6):
        start = (-2250.0 + 900.0 * i + rng.uniform(-100, 100), rng.uniform(-100, 100),
                 6000.0 + rng.uniform(-300, 300))
        velocity = (rng.uniform(-3.0, 3.0), 0.0, rng.uniform(-3.0, 3.0))
        motions.append(MotionSpec(
            kind="sinusoidal", root_coeffs=(start, velocity),
            body_scale=float(rng.uniform(0.9, 1.05)),
            yaw_rate=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.08)),
            swing_amplitude_mm=float(rng.uniform(80, 150)),
            swing_period_frames=float(rng.uniform(10, 20)),
        ))
    return SceneSpec(num_persons=len(motions), num_frames=DECODE_CLIP_FRAMES,
                     motions=tuple(motions), seed=seed * DECODE_CLIPS + clip)


def decode(seed: int, inp: Path) -> Scene:
    """Six persons rendered to heatmap stacks, decoded and evaluated.

    The sequence joins independent short clips, so that the accuracy of
    one run rests on many person placements rather than six.
    """
    cfg = RunConfig.default()
    cfg.camera = DECODE_CAMERA
    cfg.heatmap = {"width": DECODE_GRID[0], "height": DECODE_GRID[1]}
    save_config(cfg, inp / "config.json")
    gt_frames = []
    for clip in range(DECODE_CLIPS):
        data = generate(_decode_spec(seed, clip), cfg.camera, cfg.skeleton)
        gt_frames += data.gt_frames()
    _write(inp / "gt.jsonl", "gt", gt_frames, True)
    # Rendered one frame at a time, as synth.generate would, but written at
    # once so that the stacks are not all held in memory.
    stacks = []
    for t, poses in enumerate(gt_frames):
        stacks.append(inp / f"frame{t:05d}.phms")
        write_stack(render_stack(poses, cfg.camera, cfg.skeleton, *DECODE_GRID), stacks[-1])
    config = str(inp / "config.json")
    return Scene(
        frames=len(gt_frames),
        gt_persons=sum(len(poses) for poses in gt_frames),
        commands=[
            ["decode", "--config", config, "--out", "{out}/decoded.jsonl",
             *map(str, stacks)],
            ["eval", "--config", config, "{out}/decoded.jsonl", str(inp / "gt.jsonl"),
             "--out", "{out}/report.json"],
        ],
        outputs=("decoded.jsonl", "report.json", "report.csv"),
        decoded="decoded.jsonl",
    )


def _gapped_spec(seed: int) -> SceneSpec:
    # Three persons 1.2 m apart walking slowly along fixed paths, so that an
    # unlabeled pose is always nearest to its own track; the seed moves the
    # start points, the noise and the gaps.
    rng = np.random.default_rng([seed, 4])
    paths = (((2.0, 0.0, -1.5), (0.01, 0.0, 0.01)),
             ((-1.5, 0.3, 2.0), (0.0, 0.0, -0.02)),
             ((1.0, -0.3, 1.5), (-0.015, 0.0, 0.0)))
    motions = []
    for i, (z, (velocity, accel)) in enumerate(zip((4000.0, 5000.0, 4500.0), paths)):
        start = (-1200.0 + 1200.0 * i + rng.uniform(-100, 100), 250.0,
                 z + rng.uniform(-100, 100))
        motions.append(MotionSpec(kind="polynomial", root_coeffs=(start, velocity, accel)))
    return SceneSpec(num_persons=len(motions), num_frames=70, motions=tuple(motions),
                     sigma_3d_mm=30.0, seed=seed)


def _gaps(rng: np.random.Generator, num_frames: int, lengths: tuple[int, ...]) -> set[int]:
    """Absences of the given lengths, spread evenly over the sequence with
    a few frames of jitter, so every segment between them is longer than
    the largest trajectory window."""
    missing: set[int] = set()
    for k, length in enumerate(lengths, start=1):
        centre = num_frames * k // (len(lengths) + 1) + int(rng.integers(-3, 4))
        start = centre - length // 2
        missing.update(range(start, start + length))
    return missing


def gapped(seed: int, inp: Path) -> Scene:
    """Three unlabeled persons who each vanish from both sources for 3-8
    frames once or twice, refined without 2D observations."""
    cfg = RunConfig.default()
    spec = _gapped_spec(seed)
    data = generate(spec, cfg.camera, cfg.skeleton)
    rng = np.random.default_rng([seed, 5])
    absent = [_gaps(rng, spec.num_frames, lengths) for lengths in GAP_LENGTHS]

    def visible(frames):
        return [[pose for p, pose in enumerate(poses) if t not in absent[p]]
                for t, poses in enumerate(frames)]

    _write(inp / "gt.jsonl", "gt", data.gt_frames(), True)
    _write(inp / "td.jsonl", "td", visible(data.noisy_td), False)
    _write(inp / "bu.jsonl", "bu", visible(data.noisy_bu), False)
    return Scene(
        frames=spec.num_frames,
        gt_persons=spec.num_persons * spec.num_frames,
        commands=[["run", str(inp / "td.jsonl"), str(inp / "bu.jsonl"),
                   "--gt", str(inp / "gt.jsonl"), "--out", "{out}"]],
        outputs=("fused.jsonl", "refined.jsonl", "report.json", "report.csv"),
    )


WORKLOADS = {"refine": refine, "crowd": crowd, "decode": decode, "gapped": gapped}


def build(name: str, seed: int, inp: Path) -> Scene:
    """Write workload ``name``'s inputs for ``seed`` under ``inp``."""
    inp.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, inp)
