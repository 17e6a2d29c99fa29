"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py -q

Takes a few minutes: every workload is run twice, traced, on one seed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    decode_why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "decode")
    assert f"{workloads.DECODE_RECALL_FLOOR}" in decode_why


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_counters_and_outputs_repeat_for_a_seed(name, tmp_path):
    results, reports = [], []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        result = harness.run(name, 3, 0.0, True, workdir, 0.0)
        assert result.failures == []
        results.append(result.metrics)
        reports.append(json.loads((workdir / "out" / "report.json").read_text()))
    for key in harness.DETERMINISTIC:
        assert results[0][key] == results[1][key], key
    for key in ("mpjpe_mm", "pck_abs"):
        assert reports[0][key] == reports[1][key], key
    expect_tto = name in ("refine", "gapped")
    assert (results[0]["tto.calls"] > 0) == expect_tto
    assert (results[0]["heatmaps.persons_decoded"] > 0) == (name == "decode")
