"""Benchmark of lpattr: one command, three workloads.

Run from the root of a source checkout:

    python3 lpbench/run.py --workload surrogate-train --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout. Progress and
provenance lines go to standard output; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 1`` the metrics are the per-layer figures of a traced run, and the
spans are written to ``.lpbench/trace-<workload>-<seed>.jsonl``.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("surrogate-train", "attribution-grid", "lp-geometry")


def _git_commit() -> str:
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _provenance(args) -> list[str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [
        f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}",
        f"nproc {len(os.sched_getaffinity(0))} (cpu_count {os.cpu_count()}), "
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"threads OPENBLAS/OMP/MKL = 1/1/1",
        f"commit {_git_commit()}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lpattr", "__init__.py")):
        print(f"error: no lpattr sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import harness
    from workloads import WORKLOADS

    for line in _provenance(args):
        print(line, flush=True)
    out = os.path.join(ROOT, ".lpbench")
    workdir = os.path.join(out, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    trace_path = os.path.join(out, f"trace-{args.workload}-{args.seed}.jsonl")
    try:
        outcome = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), workdir, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in outcome.lines:
        print(line)
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, correct {outcome.correct}")
    if args.trace:
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
