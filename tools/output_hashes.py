"""Prints the sha256 of every input and output file of the benchmark's
workloads, so that two checkouts can be compared file by file.

    python3 tools/output_hashes.py --seeds 1001 3105
    python3 tools/output_hashes.py --seeds 1001 --workloads gapped
    python3 tools/output_hashes.py --seeds 1001 3105 --base HEAD~1

Run from the root of a checkout; the package is imported from ``src/`` and
the workloads from ``perfbench/workloads.py``.  For each workload and seed,
the inputs are built in a temporary directory and the workload's command
chain runs once through ``dualpose.cli.main``.  The output is one JSON
object, ``{workload: {seed: {"inputs/<file>" | "out/<file>": sha256}}}``:
a change that keeps every output byte-identical prints the same object as
its parent.

With ``--base REV`` the tool also hashes git revision REV, through that
revision's own copy of this tool in a ``git worktree`` checked out under a
temporary directory and removed afterwards.  It then prints, one per line as
``workload/seed/file``, the files whose sha256 differs or that only one side
has, and exits 1 if there are any, 0 if every file is byte-identical.  A
command that fails, on either side, or a revision that cannot be checked out
exits 2.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
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


def base_hashes(rev: str, seeds: list[int], names: list[str]) -> dict:
    """The JSON object this tool prints at git revision ``rev``, run by that
    revision's own copy of it in a temporary worktree.  Raises RuntimeError
    when the checkout or the run fails."""
    with tempfile.TemporaryDirectory(prefix="dualpose_base_") as tmp:
        tree = Path(tmp) / "base"
        git = ["git", "-C", str(ROOT), "worktree"]
        added = subprocess.run([*git, "add", "--detach", str(tree), rev],
                               capture_output=True, text=True)
        if added.returncode != 0:
            raise RuntimeError(f"cannot check out {rev}:\n{added.stderr}")
        try:
            run = subprocess.run(
                [sys.executable, str(tree / "tools" / "output_hashes.py"),
                 "--seeds", *map(str, seeds), "--workloads", *names],
                cwd=tree, capture_output=True, text=True)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], capture_output=True)
        if run.returncode != 0:
            raise RuntimeError(f"hashing {rev} failed:\n{run.stderr}")
        return json.loads(run.stdout)


def differing_files(hashes: dict, base: dict) -> list[str]:
    """``workload/seed/file`` of every file whose sha256 differs between two
    printed objects, or that only one of them has."""
    def flat(tree):
        return {f"{name}/{seed}/{file}": digest for name, seeds in tree.items()
                for seed, files in seeds.items() for file, digest in files.items()}
    ours, theirs = flat(hashes), flat(base)
    return sorted(path for path in ours.keys() | theirs.keys()
                  if ours.get(path) != theirs.get(path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=tuple(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--base", metavar="REV",
                        help="compare with git revision REV instead of printing the hashes")
    args = parser.parse_args(argv)
    try:
        hashes = {name: {str(seed): workload_hashes(name, seed) for seed in args.seeds}
                  for name in args.workloads}
        if args.base is None:
            print(json.dumps(hashes, indent=1, sort_keys=True))
            return 0
        differ = differing_files(hashes, base_hashes(args.base, args.seeds, args.workloads))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in differ:
        print(path)
    print(f"{len(differ)} file(s) differ from {args.base}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
