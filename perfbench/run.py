"""dualpose benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  Inputs are generated from ``--seed`` and
written under ``.perfbench_work/``; the package is imported from ``src/``.
With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run.  ``--workload all`` runs every workload untraced
and traced, each in its own process, and prints every metric.  The exit
code is 0 when the run completed, whether or not its outputs were correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("refine", "crowd", "decode", "gapped")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(args: argparse.Namespace) -> int:
    # BLAS and OpenMP read these once, when numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
        import dualpose
    except ImportError as exc:
        print(f"error: cannot import dualpose from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - start
    if not Path(dualpose.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: dualpose imported from {dualpose.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 1

    import numpy
    import scipy

    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}, cpu {_cpu_model()}, "
          f"threads pinned to 1")
    workdir = WORKDIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir, import_s)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    for note in result.notes:
        print(note)
    for failure in result.failures:
        print(f"FAILED {failure}")
    metrics = {}
    for name, unit in units.items():
        value = result.metrics.get(name)
        print(f"{args.workload} {name} = {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(f"{args.workload} error_ratio = {result.failed}/{result.attempted} passes")
    print(json.dumps({"correct": not result.failures, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a child process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
