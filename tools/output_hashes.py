"""Prints the sha256 of every input and output file of the benchmark's
workloads, so that two checkouts can be compared file by file.

    python3 tools/output_hashes.py --seeds 1001 3105
    python3 tools/output_hashes.py --seeds 1001 --workloads gapped

Run from the root of a checkout; the package is imported from ``src/`` and
the workloads from ``perfbench/workloads.py``.  For each workload and seed,
the inputs are built in a temporary directory and the workload's command
chain runs once through ``dualpose.cli.main``.  The output is one JSON
object, ``{workload: {seed: {"inputs/<file>" | "out/<file>": sha256}}}``:
a change that keeps every output byte-identical prints the same object as
its parent.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import dualpose.cli  # noqa: E402
import workloads  # noqa: E402


def _file_hashes(directory: Path, prefix: str) -> dict[str, str]:
    return {f"{prefix}/{path.relative_to(directory).as_posix()}":
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def workload_hashes(name: str, seed: int) -> dict[str, str]:
    """sha256 of every input and output file of one pass of workload
    ``name`` at ``seed``.  Raises RuntimeError when a command fails."""
    with tempfile.TemporaryDirectory(prefix="dualpose_hashes_") as tmp:
        inp, out = Path(tmp) / "inputs", Path(tmp) / "out"
        scene = workloads.build(name, seed, inp)
        out.mkdir()
        log = io.StringIO()
        for cmd in scene.commands:
            argv = [arg.replace("{out}", str(out)) for arg in cmd]
            with redirect_stdout(log), redirect_stderr(log):
                code = dualpose.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{name} seed {seed}: `{argv[0]}` exited {code}:\n"
                                   f"{log.getvalue()}")
        return {**_file_hashes(inp, "inputs"), **_file_hashes(out, "out")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=tuple(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    hashes = {name: {str(seed): workload_hashes(name, seed) for seed in args.seeds}
              for name in args.workloads}
    print(json.dumps(hashes, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
