"""``tools/output_hashes.py``, the check that a change keeps every benchmark
input and output byte-identical, runs a workload end to end."""
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "output_hashes.py"


def test_output_hashes_cover_every_file_of_a_gapped_pass(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(TOOL),
         "--seeds", "7", "--workloads", "gapped"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    hashes = json.loads(proc.stdout)
    assert list(hashes) == ["gapped"] and list(hashes["gapped"]) == ["7"]
    files = hashes["gapped"]["7"]
    assert sorted(files) == [
        "inputs/bu.jsonl", "inputs/gt.jsonl", "inputs/td.jsonl",
        "out/fused.jsonl", "out/refined.jsonl", "out/report.csv", "out/report.json",
        "out/trace.csv",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in files.values())
    assert not list(tmp_path.iterdir()), "the tool left its temporary directory behind"


def _worktrees():
    return subprocess.run(["git", "-C", str(REPO), "worktree", "list", "--porcelain"],
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(not (REPO / ".git").exists(), reason="--base needs a git checkout")
def test_base_comparison_with_head_finds_no_difference_and_removes_its_worktree(tmp_path):
    """Run on a committed tree, whose gapped outputs are HEAD's."""
    before = _worktrees()
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "7", "--workloads", "gapped", "--base", "HEAD"],
        cwd=REPO, env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr == "0 file(s) differ from HEAD\n"
    assert _worktrees() == before
    assert not list(tmp_path.iterdir()), "the tool left its temporary directory behind"


def test_base_comparison_prints_each_differing_file_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    ours = {"out/a.jsonl": "1", "out/b.jsonl": "2", "out/c.jsonl": "3"}
    theirs = {"gapped": {"7": {"out/a.jsonl": "1", "out/b.jsonl": "9", "out/d.jsonl": "4"}}}
    monkeypatch.setattr(tool, "workload_hashes", lambda name, seed: dict(ours))
    monkeypatch.setattr(tool, "base_hashes", lambda rev, seeds, names: theirs)
    argv = ["--seeds", "7", "--workloads", "gapped", "--base", "REV"]
    assert tool.main(argv) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == ["gapped/7/out/b.jsonl", "gapped/7/out/c.jsonl",
                                    "gapped/7/out/d.jsonl"]
    assert out.err == "3 file(s) differ from REV\n"
    theirs["gapped"]["7"] = dict(ours)
    assert tool.main(argv) == 0
    assert capsys.readouterr().out == ""
