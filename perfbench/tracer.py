"""Span tracer that times dualpose's modules from outside.

The tracer replaces public functions with timing wrappers under the names
their callers look them up by, so nothing inside the package changes.
Only functions called once per file, frame, person or track are wrapped;
nothing called per optimizer iteration or per pose pair is.  Spans live in
memory and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from dualpose.frames_io import RunConfig


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counters derived from arguments, return values and files, never from
# timers, so they repeat exactly for a seed.  Each takes the wrapped call's
# (args, kwargs, result) and returns {counter: increment}.

def _count_read(args, kwargs, result):
    return {"frames_io.records": len(result),
            "frames_io.read_bytes": os.path.getsize(args[0])}


def _count_write(args, kwargs, result):
    return {"frames_io.write_bytes": os.path.getsize(args[1])}


def _count_match(args, kwargs, result):
    td, bu = len(args[0]), len(args[1])
    return {"matching.calls": 1, "matching.similarities": td * bu,
            "matching.pairs": len(result.pairs), "matching.matchable": min(td, bu)}


def _count_fuse(args, kwargs, result):
    return {"fusion.pairs_fused": len(args[0].pairs)}


def _count_link(args, kwargs, result):
    max_window = max(RunConfig.default().tto.window_map().values(), default=0)
    return {"pipeline.tracks": len(result),
            "pipeline.tracks_auto": sum(isinstance(t.person_id, str) for t in result),
            "pipeline.tracks_skipped": sum(len(t) <= max_window for t in result)}


def _count_optimize(args, kwargs, result):
    trace = result[1].trace
    stalled = sum(
        1 for prev, row in zip(trace, trace[1:])
        if row.stage == prev.stage and row.total == prev.total
    )
    return {"tto.calls": 1, "tto.iterations": len(trace), "tto.stalled_iters": stalled,
            "tto.final_loss": trace[-1].total if trace else 0.0}


def _count_stack(args, kwargs, result):
    return {"heatmaps.stack_bytes": os.path.getsize(args[0])}


def _count_eval(args, kwargs, result):
    return {"metrics.person_pairs": result.matched_persons}


# (module, attribute, span name, counter).  ``cli.main`` is the root span of
# every command and ``run_pipeline`` gives the pipeline's glue its own
# boundary.  ``cli._cmd_fuse`` imports ``fuse_sources`` at call time, so
# patching the pipeline attribute covers it too.  The benchmark's own scene
# set-up calls ``synth.generate`` and ``heatmaps.render_stack`` through its
# ``workloads`` module.
WRAPPED = (
    ("dualpose.cli", "main", "cli.main", None),
    ("dualpose.cli", "read_frames", "frames_io.read_frames", _count_read),
    ("dualpose.cli", "write_frames", "frames_io.write_frames", _count_write),
    ("dualpose.cli", "read_stack", "heatmaps.read_stack", _count_stack),
    ("dualpose.cli", "decode_poses", "heatmaps.decode_poses", None),
    ("dualpose.cli", "evaluate_frames", "metrics.evaluate_frames", _count_eval),
    ("dualpose.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("dualpose.pipeline", "read_frames", "frames_io.read_frames", _count_read),
    ("dualpose.pipeline", "fuse_sources", "pipeline.fuse_sources", None),
    ("dualpose.pipeline", "match_sets", "matching.match_sets", _count_match),
    ("dualpose.pipeline", "fuse_frame", "fusion.fuse_frame", _count_fuse),
    ("dualpose.pipeline", "link_tracks", "pipeline.link_tracks", _count_link),
    ("dualpose.pipeline", "optimize", "tto.optimize", _count_optimize),
    ("dualpose.pipeline", "evaluate_frames", "metrics.evaluate_frames", _count_eval),
    ("dualpose.heatmaps", "extract_peaks", "heatmaps.extract_peaks", None),
    ("dualpose.heatmaps", "group_by_tags", "heatmaps.group_by_tags", None),
    ("dualpose.heatmaps", "retrieve_depths", "heatmaps.retrieve_depths", None),
    ("workloads", "generate", "synth.generate", None),
    ("workloads", "render_stack", "synth.render_stack", None),
)


class Tracer:
    """Records spans and counters for the calls it wraps, per pass id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        self.pass_id = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.pass_id))

    def _wrap(self, func, name: str, count):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if count is not None:
                bucket = self.counters[self.pass_id]
                for key, value in count(args, kwargs, result).items():
                    bucket[key] += value
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.span_id: s.duration - covered[s.span_id] for s in self.spans}

    def pass_totals(self, pass_id: str) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: summed duration and summed self time in one pass."""
        selfs = self.self_times()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.pass_id == pass_id:
                total[s.name] += s.duration
                own[s.name] += selfs[s.span_id]
        return total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps({"id": s.span_id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "pass": s.pass_id}) + "\n")
