"""Runs one workload: set-up, a discarded warm-up pass, measured passes,
output checks, and (when tracing) the traced passes and TTO kernel timings
that give the per-layer metrics.

A pass is one trip through the workload's ``dualpose`` command chain,
driven in-process through ``dualpose.cli.main``: input files in, output
files and an eval report out.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import dualpose.cli
from dualpose import tto
from dualpose.frames_io import RunConfig, read_frames
from dualpose.metrics import evaluate_frames
from dualpose.pipeline import records_to_pose_map
from dualpose.skeleton import bone_lengths_of
from dualpose.synth import generate, make_benchmark_spec

import workloads
from tracer import Tracer

END_TO_END = {
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mpjpe_mm": "mm",
    "pck_abs_pct": "%",
    "passes_ok_pct": "%",
}

PER_LAYER = {
    "frames_io.read_s": "s",
    "frames_io.write_s": "s",
    "frames_io.records": "count",
    "frames_io.read_bytes": "bytes",
    "frames_io.write_bytes": "bytes",
    "matching.match_s": "s",
    "matching.calls": "count",
    "matching.similarities": "count",
    "matching.pairs": "count",
    "matching.pair_ratio": "ratio",
    "fusion.fuse_s": "s",
    "fusion.pairs_fused": "count",
    "pipeline.link_s": "s",
    "pipeline.tracks": "count",
    "pipeline.tracks_auto": "count",
    "pipeline.tracks_skipped": "count",
    "pipeline.self_s": "s",
    "tto.optimize_s": "s",
    "tto.calls": "count",
    "tto.iterations": "count",
    "tto.us_per_iter": "us",
    "tto.stalled_iters": "count",
    "tto.final_loss": "loss",
    "tto.kernel.traj_us": "us",
    "tto.kernel.bone_us": "us",
    "tto.kernel.rep_us": "us",
    "metrics.eval_s": "s",
    "metrics.person_pairs": "count",
    "heatmaps.read_stack_s": "s",
    "heatmaps.stack_bytes": "bytes",
    "heatmaps.peaks_s": "s",
    "heatmaps.group_s": "s",
    "heatmaps.depth_s": "s",
    "heatmaps.decode_s": "s",
    "heatmaps.persons_decoded": "count",
    "heatmaps.decode_recall": "ratio",
    "synth.generate_s": "s",
    "synth.render_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counters that must repeat exactly across runs of one seed.
DETERMINISTIC = (
    "frames_io.records", "frames_io.read_bytes", "frames_io.write_bytes",
    "matching.calls", "matching.similarities", "matching.pairs", "matching.pair_ratio",
    "fusion.pairs_fused", "pipeline.tracks", "pipeline.tracks_auto",
    "pipeline.tracks_skipped", "tto.calls", "tto.iterations", "tto.stalled_iters",
    "tto.final_loss", "metrics.person_pairs", "heatmaps.stack_bytes",
    "heatmaps.persons_decoded", "heatmaps.decode_recall",
)

# Set-up is repeated and its median reported, so one slow repeat does not
# move setup_s.
SETUP_REPEATS = 3
# Untraced runs time at least this many passes even past --seconds.
MIN_PASSES = 4
# TTO kernels: the median over rounds of the mean call time in a round.
KERNEL_ROUNDS = 9
KERNEL_CALLS = 100


@dataclass
class Pass:
    seconds: float
    failures: list[str]


@dataclass
class Reference:
    """Outputs of the first pass, which every later pass must reproduce."""

    hashes: dict[str, str]
    report: dict
    persons_decoded: int = 0
    failures: list[str] = field(default_factory=list)


class Runner:
    """Builds one workload's inputs and runs passes over them."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.out = workdir / "out"
        self.scene: workloads.Scene | None = None
        self.reference: Reference | None = None

    def setup(self) -> float:
        """Generate the scene and write its input files; returns seconds."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        gc.collect()
        start = time.perf_counter()
        self.scene = workloads.build(self.name, self.seed, self.inputs)
        return time.perf_counter() - start

    def run_pass(self) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        commands = [[arg.replace("{out}", str(self.out)) for arg in cmd]
                    for cmd in self.scene.commands]
        failures = []
        log = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                for argv in commands:
                    code = dualpose.cli.main(argv)
                    if code != 0:
                        failures.append(f"exit_code:{argv[0]}={code}")
                        break
        except Exception:  # a raising pass is counted, not fatal
            failures.append("raised:" + traceback.format_exc().strip().splitlines()[-1])
        seconds = time.perf_counter() - start
        if failures:
            failures.append("log:" + log.getvalue().strip().replace("\n", " | "))
        else:
            failures = self._check_outputs()
        return Pass(seconds, failures)

    def _check_outputs(self) -> list[str]:
        hashes = {}
        for name in self.scene.outputs:
            path = self.out / name
            if not path.is_file():
                return [f"missing_output:{name}"]
            hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if self.reference is None:
            self.reference = self._first_pass(hashes)
            return list(self.reference.failures)
        return [f"output_changed:{name}" for name in hashes
                if hashes[name] != self.reference.hashes[name]]

    def _first_pass(self, hashes: dict[str, str]) -> Reference:
        report = json.loads((self.out / "report.json").read_text())
        ref = Reference(hashes=hashes, report=report)
        if not math.isfinite(report["mpjpe_mm"]):
            ref.failures.append("report_mpjpe_not_finite")
        if self.scene.check_refinement:
            fused = _mpjpe(self.out / "fused.jsonl", self.inputs / "gt.jsonl")
            if not report["mpjpe_mm"] < fused:
                ref.failures.append(
                    f"refined_not_better_than_fused:{report['mpjpe_mm']:.4f}>={fused:.4f}")
        if self.scene.decoded is not None:
            ref.persons_decoded = sum(len(rec.persons)
                                      for rec in read_frames(self.out / self.scene.decoded))
            recall = ref.persons_decoded / self.scene.gt_persons
            if recall < workloads.DECODE_RECALL_FLOOR:
                ref.failures.append(
                    f"decode_recall_below_floor:{recall:.4f}<{workloads.DECODE_RECALL_FLOOR}")
        return ref


def _mpjpe(pred_path: Path, gt_path: Path) -> float:
    skel = RunConfig.default().skeleton
    pred = records_to_pose_map(read_frames(pred_path, skel.num_joints))
    gt = records_to_pose_map(read_frames(gt_path, skel.num_joints))
    report = evaluate_frames([pred[i][0] for i in sorted(gt)],
                             [gt[i][0] for i in sorted(gt)], skel)
    return report.mpjpe_mm


def kernel_timings(seed: int) -> tuple[dict[str, float], tuple[int, ...]]:
    """Per-call time of the public TTO loss kernels, in microseconds, on
    person 0's TD track of the refine scene."""
    cfg = RunConfig.default()
    data = generate(make_benchmark_spec(seed), cfg.camera, cfg.skeleton)
    positions = np.stack([poses[0].joints for poses in data.noisy_td])
    uv = np.stack([obs[0].joints for obs in data.obs_2d])
    conf = np.stack([obs[0].conf for obs in data.obs_2d])
    latents = bone_lengths_of(positions[0], cfg.skeleton)
    windows = cfg.tto.window_map()
    bones = cfg.skeleton.bone_array
    kernels = {
        "traj": lambda: tto.trajectory_loss_grad(positions, windows),
        "bone": lambda: tto.bone_loss_grad(positions, bones, latents),
        "rep": lambda: tto.reprojection_loss_grad(positions, uv, conf, cfg.camera),
    }
    out = {}
    for name, call in kernels.items():
        call()
        rounds = []
        for _ in range(KERNEL_ROUNDS):
            start = time.perf_counter()
            for _ in range(KERNEL_CALLS):
                call()
            rounds.append((time.perf_counter() - start) / KERNEL_CALLS)
        out[f"tto.kernel.{name}_us"] = 1e6 * statistics.median(rounds)
    return out, positions.shape[:2]


def layer_metrics(tracer: Tracer, pass_id: str, runner: Runner) -> dict[str, float]:
    """Per-layer times and counters of one traced pass."""
    total, own = tracer.pass_totals(pass_id)
    total, own = defaultdict(float, total), defaultdict(float, own)
    n = defaultdict(int, tracer.counters[pass_id])
    decoded = runner.reference.persons_decoded
    return {
        "frames_io.read_s": total["frames_io.read_frames"],
        "frames_io.write_s": total["frames_io.write_frames"],
        "frames_io.records": n["frames_io.records"],
        "frames_io.read_bytes": n["frames_io.read_bytes"],
        "frames_io.write_bytes": n["frames_io.write_bytes"],
        "matching.match_s": total["matching.match_sets"],
        "matching.calls": n["matching.calls"],
        "matching.similarities": n["matching.similarities"],
        "matching.pairs": n["matching.pairs"],
        "matching.pair_ratio": (n["matching.pairs"] / n["matching.matchable"]
                                if n["matching.matchable"] else 0.0),
        "fusion.fuse_s": total["fusion.fuse_frame"],
        "fusion.pairs_fused": n["fusion.pairs_fused"],
        "pipeline.link_s": total["pipeline.link_tracks"],
        "pipeline.tracks": n["pipeline.tracks"],
        "pipeline.tracks_auto": n["pipeline.tracks_auto"],
        "pipeline.tracks_skipped": n["pipeline.tracks_skipped"],
        "pipeline.self_s": (own["pipeline.run_pipeline"] + own["pipeline.fuse_sources"]
                            + own["pipeline.link_tracks"]),
        "tto.optimize_s": total["tto.optimize"],
        "tto.calls": n["tto.calls"],
        "tto.iterations": n["tto.iterations"],
        "tto.us_per_iter": (1e6 * total["tto.optimize"] / n["tto.iterations"]
                            if n["tto.iterations"] else 0.0),
        "tto.stalled_iters": n["tto.stalled_iters"],
        "tto.final_loss": n["tto.final_loss"],
        "metrics.eval_s": total["metrics.evaluate_frames"],
        "metrics.person_pairs": n["metrics.person_pairs"],
        "heatmaps.read_stack_s": total["heatmaps.read_stack"],
        "heatmaps.stack_bytes": n["heatmaps.stack_bytes"],
        "heatmaps.peaks_s": total["heatmaps.extract_peaks"],
        "heatmaps.group_s": total["heatmaps.group_by_tags"],
        "heatmaps.depth_s": total["heatmaps.retrieve_depths"],
        "heatmaps.decode_s": total["heatmaps.decode_poses"],
        "heatmaps.persons_decoded": decoded,
        "heatmaps.decode_recall": decoded / runner.scene.gt_persons,
        "cli.self_s": own["cli.main"],
    }


def layer_shares(tracer: Tracer, pass_id: str, pass_seconds: float) -> dict[str, float]:
    """Self time of each module as a share of the traced pass."""
    _, own = tracer.pass_totals(pass_id)
    shares: dict[str, float] = defaultdict(float)
    for name, seconds in own.items():
        shares[name.split(".")[0]] += seconds / pass_seconds
    return dict(shares)


@dataclass
class Result:
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, float]
    notes: list[str]


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        import_s: float) -> Result:
    """Run workload ``name`` for about ``seconds`` and collect its metrics."""
    runner = Runner(name, seed, workdir)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        try:
            setup_times = [runner.setup()]
        finally:
            tracer.uninstall()
    else:
        setup_times = [runner.setup() for _ in range(SETUP_REPEATS)]

    passes = [runner.run_pass()]  # warm-up: checked, not timed
    plain: list[Pass] = []
    traced: list[tuple[str, Pass]] = []
    min_passes = 1 if trace else MIN_PASSES
    start = time.perf_counter()
    while len(plain) < min_passes or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        if tracer is not None:
            tracer.pass_id = f"pass{len(traced)}"
            tracer.install()
            try:
                traced.append((tracer.pass_id, runner.run_pass()))
            finally:
                tracer.uninstall()
    passes += plain + [p for _, p in traced]

    failures = [f"pass{i}:{f}" for i, p in enumerate(passes) for f in p.failures]
    failed = sum(1 for p in passes if p.failures)
    plain_s = statistics.median(p.seconds for p in plain)
    notes = [f"{name}: {runner.scene.frames} frames per pass, {len(plain)} timed passes, "
             f"median {plain_s:.4f} s (" + ", ".join(f"{p.seconds:.3f}" for p in plain) + ")"]
    if tracer is None:
        report = runner.reference.report if runner.reference else {}
        metrics = {
            "frames_per_s": runner.scene.frames / plain_s,
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mpjpe_mm": report.get("mpjpe_mm"),
            "pck_abs_pct": report.get("pck_abs"),
            "passes_ok_pct": 100.0 * (len(passes) - failed) / len(passes),
        }
    else:
        metrics = _per_layer(tracer, traced, runner, seed, plain_s, failures, notes)
        tracer.write(workdir / f"spans-seed{seed}.jsonl")
    return Result(len(passes), failed, failures, metrics, notes)


def _per_layer(tracer: Tracer, traced: list[tuple[str, Pass]], runner: Runner, seed: int,
               plain_s: float, failures: list[str], notes: list[str]) -> dict[str, float]:
    """Medians over the traced passes, plus set-up and kernel timings."""
    per_pass = [layer_metrics(tracer, pid, runner) for pid, _ in traced] \
        if runner.reference else []
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]} \
        if per_pass else {}
    for key in DETERMINISTIC:
        if len({m[key] for m in per_pass}) > 1:
            failures.append(f"counter_not_repeatable:{key}")
    setup_total, _ = tracer.pass_totals("setup")
    metrics["synth.generate_s"] = setup_total.get("synth.generate", 0.0)
    metrics["synth.render_s"] = setup_total.get("synth.render_stack", 0.0)
    kernels, shape = kernel_timings(seed)
    metrics.update(kernels)
    traced_s = statistics.median(p.seconds for _, p in traced)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    shares = layer_shares(tracer, traced[0][0], traced[0][1].seconds)
    notes.append(f"{runner.name}: {len(traced)} traced passes, median {traced_s:.4f} s")
    notes.append(f"{runner.name}: tto kernels timed on a (T={shape[0]}, K={shape[1]}, 3) "
                 f"track, {KERNEL_ROUNDS} rounds of {KERNEL_CALLS} calls")
    notes.append(f"{runner.name}: self-time share of first traced pass: "
                 + ", ".join(f"{k}={v:.3f}" for k, v in sorted(shares.items())))
    return metrics
