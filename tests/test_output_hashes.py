"""``tools/output_hashes.py``, the check that a change keeps every benchmark
input and output byte-identical, runs a workload end to end."""
import json
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def test_output_hashes_cover_every_file_of_a_gapped_pass(tmp_path):
    env = {**os.environ, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "output_hashes.py"),
         "--seeds", "7", "--workloads", "gapped"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    hashes = json.loads(proc.stdout)
    assert list(hashes) == ["gapped"] and list(hashes["gapped"]) == ["7"]
    files = hashes["gapped"]["7"]
    assert sorted(files) == [
        "inputs/bu.jsonl", "inputs/gt.jsonl", "inputs/td.jsonl",
        "out/fused.jsonl", "out/refined.jsonl", "out/report.csv", "out/report.json",
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in files.values())
    assert not list(tmp_path.iterdir()), "the tool left its temporary directory behind"
