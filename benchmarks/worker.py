"""Run one workload in its own process: set-up, warm-up, measured passes.

bench.py starts this script with BLAS pinned to one thread and kdc's
sources on PYTHONPATH. The script prints ``ready`` as soon as the workload
is set up (the parent times set-up up to that line). Without
``--setup-only`` it then runs one untimed warm-up pass and measured rounds
until ``--seconds`` would be exceeded, and prints one JSON line with every
pass. A round is one untraced pass at the workload's pool size; with
``--trace 1`` it adds a traced pass with one worker, preceded, when the
untraced pass used a pool, by an untraced one-worker pass to compare it with.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload, workers: int, tracer=None) -> dict:
    """One full pass, with its wall time and CPU time (pool children included)."""
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(workers)
        else:
            with tracer:
                out = workload.run(workers)
    except Exception:  # the pass's operations are counted as failed
        out = {"ops": [], "crash": traceback.format_exc()}
    out["wall_s"] = time.perf_counter() - t0
    out["cpu_s"] = _cpu_s() - cpu0
    out["workers"] = workers
    return out


def environment(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v, "") for v in THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args()

    nproc = len(os.sched_getaffinity(0))
    workload = workloads.make(args.workload, args.seed, nproc)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    warmup = run_pass(workload, workload.pool_workers)
    rounds = []
    round_s = []
    tracer = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = {"primary": run_pass(workload, workload.pool_workers)}
        if args.trace:
            if workload.pool_workers > 1:
                rnd["serial"] = run_pass(workload, 1)
            tracer = tracing.Tracer()
            rnd["traced"] = run_pass(workload, 1, tracer)
            rnd["trace"] = tracer.metrics()
        rounds.append(rnd)
        round_s.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(round_s) > args.seconds:
            break
    if tracer is not None and args.spans_out:
        tracer.write_spans(args.spans_out)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "warmup": warmup,
        "rounds": rounds,
        "peak_rss_mb": max(own, kids) / 1024.0,
        "environment": environment(nproc),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
