"""Run one workload of the bnfit benchmark and print its metrics.

    python3 perfbench/run.py --workload fit-twolayer15 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; bnfit is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics, measured untraced;
with ``--trace 1`` it reports the per-layer metrics of a traced pass,
next to an untraced pass of the same work.  ``--workload all`` runs each
workload in a process of its own, one after another.

Lines starting with ``#`` describe the machine and the run, and give the
workload's phase timings under their own names.  The last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".perfbench-spans"

# BLAS and OpenMP pools are pinned to one thread, so numpy (and the
# eigenvalue solve in spectral) uses no more threads than this process.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# The first set-ups in a process run slower than the rest (first calls,
# allocator growth); they are run untimed.  A set-up takes 10 to 50 ms,
# and on a shared host its time jumps between levels up to twice apart
# for seconds at a time, so the median of single set-ups follows
# whichever level held the run longer.  The set-ups are timed in groups,
# one before the passes and one at each pause of a pass (between its
# timed phases); the k-th set-up of every group forms series k, so each
# series samples the whole run, and setup_s is the median over the
# series of their mean.
SETUP_WARMUP = 10
SETUP_GROUP = 4
WORKLOAD_NAMES = ("fit-twolayer15", "online-twolayer15", "spectral-twolayer15", "fit-dag50")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _median(values) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def _run_pass(workloads, workload, inputs, tracer, pause):
    t0 = time.perf_counter()
    try:
        return workload.run(inputs, tracer, pause)
    except Exception:
        # A pass that raises fails every operation in it.
        traceback.print_exc()
        n = workload.operations(inputs)
        nan = float("nan")
        return workloads.Pass(time.perf_counter() - t0, nan, nan, {}, 0, n, n, ["raised"])


def setup_seconds(groups: list[list[float]]) -> float:
    """Median over series k (the k-th set-up of every group) of the series' mean."""
    return statistics.median(statistics.fmean(series) for series in zip(*groups))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    setup_groups = []

    def time_setups():
        group = []
        for _ in range(SETUP_GROUP):
            t0 = time.perf_counter()
            inputs = workload.setup(seed)
            group.append(time.perf_counter() - t0)
        setup_groups.append(group)
        return inputs

    for _ in range(SETUP_WARMUP):
        workload.setup(seed)
    inputs = time_setups()
    workloads.warm_up(inputs)

    print(
        f"# env python={platform.python_version()} numpy={np.__version__} "
        f"cpu={_cpu_model()!r} nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} workload={name} seed={seed} trace={int(trace)}"
    )
    if trace:
        untraced = _run_pass(workloads, workload, inputs, None, lambda: None)
        tracer = tracing.Tracer(f"{name}-{seed}-{os.getpid()}")
        with tracer.installed("setup"):
            workload.setup(seed)
        traced = _run_pass(workloads, workload, inputs, tracer, lambda: None)
        passes = [untraced, traced]
        metrics = tracing.per_layer_metrics(tracer, traced.fit_iters, traced.seconds, untraced.seconds)
        spans = SPANS_DIR / f"{name}-{seed}.jsonl"
        tracer.write(spans)
        print(f"# spans {len(tracer.spans)} written to {spans.relative_to(HERE.parent)}")
    else:
        passes = []
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(_run_pass(workloads, workload, inputs, None, time_setups))
            now = time.perf_counter()
            # stop unless one more pass fits in the budget
            if now + (now - t_pass) - t0 > seconds:
                break
        metrics = {
            "setup_s": (setup_seconds(setup_groups), "s"),
            "primary_ms": (_median(p.primary_ms for p in passes), "ms"),
            "secondary_ms": (_median(p.secondary_ms for p in passes), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }

    attempted = sum(p.attempted for p in passes)
    failed = min(sum(p.failed for p in passes), attempted)
    names = [k for p in passes for k in p.report]
    for key in dict.fromkeys(names):
        unit = next(p.report[key][1] for p in passes if key in p.report)
        value = _median(p.report[key][0] for p in passes if key in p.report)
        print(f"# {key} {value:.6g} {unit}")
    print(f"# setup_s {setup_seconds(setup_groups):.6g} s over {len(setup_groups)} groups")
    print(f"# passes {len(passes)}")
    print(f"# failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for p in passes:
        for message in p.messages[:20]:
            print(f"# FAILED {message}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bnfit" / "__init__.py").is_file():
        print(f"bnfit sources not found at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        status = 0
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
        return status

    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Imported only now: numpy reads the thread settings when it loads.
    sys.path[:0] = [str(SRC), str(HERE)]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
