#!/usr/bin/env python3
"""Repository benchmark: builds perfbench, generates a workload's inputs from
a seed, runs it and prints one JSON result line.

    python3 perfbench/run.py --workload mc_rate --seed 1 --seconds 50 --trace 0

Run from the repository root.  The program is built from source with CMake
(RelWithDebInfo, the same build type as the top-level build) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.  Scratch files
(inputs, checkpoints, the Chrome trace) live in a temporary directory under
the build directory that is removed at exit; --keep-artifacts DIR copies the
trace and the result there first.  README.md defines the workloads and
metrics.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Exit status is 0 when a result was printed, nonzero when the program could
not be built or run.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("mc_rate", "certify_k1", "shrink_k3")
DEFAULT_SEED = 1
# Worker threads of every workload, all in one process.
JOBS = 4
RUN_TIMEOUT_S = 170


def make_inputs(seed):
    """Every workload's inputs, a pure function of the seed.

    The seed picks the experiment seeds (reference-run randomness of each
    gadget cell), the Monte-Carlo streams and the sampled fault sets; the
    cells and sizes are fixed.
    """
    rng = random.Random(seed)

    def cell(gadget, code, k, **extra):
        return dict(gadget=gadget, code=code, k=k,
                    seed=rng.randrange(1, 2**31), **extra)

    return {
        "mc_rate": {
            "jobs": JOBS,
            "check_trials": 256,
            # Trial counts put roughly equal CPU time on each cell.
            "cells": [
                cell("ngate", "steane", 1, p=1e-3, trials=262144),
                cell("ngate", "rm15", 1, p=1e-4, trials=24576),
                cell("recovery", "steane", 1, p=1e-4, trials=6144),
            ],
        },
        "certify_k1": {
            "jobs": JOBS,
            "cells": [
                cell("ngate", "steane", 1),
                cell("ngate", "steane", 2),
                cell("ngate", "rm15", 1),
            ],
        },
        "shrink_k3": {
            "jobs": JOBS,
            "cell": cell("ngate", "steane", 1),
            "k": 3,
            "budget": 20000,
            "sample_seed": rng.randrange(1, 2**31),
            "checkpoint_every": 256,
        },
    }


def build(src, build_dir):
    """Configures (once) and builds the perfbench target; returns its path."""
    log = sys.stderr
    # Configure until a configure step has produced build files (a failed
    # one leaves a cache but none).
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(src), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=log, stderr=log, check=True)
    return build_dir / "perfbench"


def trace_is_valid(path):
    """The Chrome trace loads as JSON and holds only X and M events."""
    try:
        events = json.loads(path.read_text())["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return bool(events) and all(e.get("ph") in ("X", "M") for e in events)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--keep-artifacts", metavar="DIR",
                    help="copy result.json and (traced) trace.json here")
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    try:
        binary = build(here, build_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=build_root))
    try:
        inputs = make_inputs(args.seed)
        inputs.update(workload=args.workload, seconds=args.seconds,
                      trace=bool(args.trace), out_dir=str(tmp))
        input_path = tmp / "input.json"
        input_path.write_text(json.dumps(inputs))
        try:
            proc = subprocess.run([str(binary), str(input_path)],
                                  stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("run.py: perfbench timed out", file=sys.stderr)
            return 3
        result_path = tmp / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            print(f"run.py: perfbench exited with {proc.returncode}",
                  file=sys.stderr)
            return 3
        result = json.loads(result_path.read_text())
        if args.trace:
            ok = trace_is_valid(tmp / "trace.json")
            result["attempted"] += 1
            result["failed"] += 0 if ok else 1
            result["correct"] = result["correct"] and ok
        if args.keep_artifacts:
            keep = Path(args.keep_artifacts)
            keep.mkdir(parents=True, exist_ok=True)
            for name in ("result.json", "trace.json"):
                if (tmp / name).exists():
                    shutil.copy(tmp / name, keep / name)
        print(json.dumps({k: result[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
