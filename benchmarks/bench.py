"""kdc benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout:

    python3 benchmarks/bench.py --workload rate_sweep --seed 0 --seconds 40 --trace 0

Workloads: rate_sweep and single_machine (see README.md). The
workload runs in a child process (worker.py) with BLAS pinned to one thread;
set-up is timed in further set-up-only children. With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The full result, and with
``--trace 1`` the spans of the last traced pass, go to ``benchmarks/out/``.
The script exits non-zero, printing no result, if the workload cannot run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"

#: Relative tolerance of the reference check (A6's solver-precision gate).
REL_TOL = 1e-8
#: Set-up is timed this many times per run (the workload process included).
SETUP_SAMPLES = 9
#: Everything this script starts must have ended within this many seconds.
BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("success_frac", "fraction"),
)

PER_LAYER_UNITS = {
    "trainers.sgm_us_per_row": "us",
    "evaluation.max_rel_dev": "ratio",
    "harness.pool_busy_frac": "fraction",
    "harness.pool_idle_s": "s",
    "trace.overhead_frac": "fraction",
}


class BenchError(Exception):
    """The workload could not be run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("KDC_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, deadline: float, *extra: str):
    """Start worker.py and wait for its ``ready`` line.

    Returns (process, seconds from start to ready). The process and its
    children are killed if they outlive ``deadline`` (a ``time.monotonic``
    value).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    # A session of its own, so the watchdog can kill the worker's pool too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), kill_group, (proc,))
    watchdog.daemon = True
    watchdog.start()
    proc.watchdog = watchdog
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finish(proc) -> str:
    """Read the rest of a worker's output and wait for it to end."""
    out = proc.stdout.read()
    proc.wait()
    proc.watchdog.cancel()
    return out


def run_workload(args) -> tuple[list[float], dict]:
    deadline = time.monotonic() + BUDGET_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker(args, deadline, "--setup-only")
        finish(proc)
        setups.append(setup)
    extra = ["--spans-out", str(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")] \
        if args.trace else []
    proc, setup = start_worker(args, deadline, *extra)
    setups.append(setup)
    lines = finish(proc).strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setups, json.loads(lines[-1])


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

def load_reference(seed: int, workload: str) -> dict | None:
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return doc["seeds"].get(str(seed), {}).get(workload)


def structural_ok(op: dict, expected: dict) -> bool:
    if op.get("error", "x") != "" or any(op.get(k) != v for k, v in expected.items()):
        return False
    risk = op["values"]["risk_mean"]
    return math.isfinite(risk) and risk > 0.0


def reference_dev(op: dict, ref: dict) -> float:
    """Largest relative deviation of an operation's values from the reference."""
    return max(abs(op["values"][name] - want) / abs(want) for name, want in ref.items())


def check_passes(passes: list[dict], reference: dict | None, workload: str):
    """Count attempted and failed operations over ``passes``.

    Returns (attempted, failed, max relative deviation from the reference).
    An operation fails if its pass crashed, its record carries an error, its
    structure is wrong or it misses the reference by more than REL_TOL.
    """
    expected = spec.expected_ops(workload)
    attempted = failed = 0
    max_dev = 0.0
    for p in passes:
        ops = p["ops"]
        attempted += max(len(ops), len(expected))
        failed += max(0, len(ops) - len(expected))
        for i, exp in enumerate(expected):
            op = ops[i] if i < len(ops) else None
            ok = op is not None and structural_ok(op, exp)
            if ok and reference is not None:
                dev = reference_dev(op, reference[exp["key"]])
                max_dev = max(max_dev, dev)
                ok = dev <= REL_TOL
            failed += not ok
    return attempted, failed, max_dev


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def pool_stats(p: dict) -> tuple[float, float]:
    """(busy fraction, idle seconds) of a sweep pass's workers."""
    pool = p.get("pool")
    if not pool:
        return 0.0, 0.0
    capacity = pool["wall_s"] * pool["workers"]
    return pool["task_s"] / capacity, capacity - pool["task_s"]


def per_layer(rounds: list[dict], max_dev: float) -> tuple[dict, bool]:
    """Per-layer metrics from the traced rounds, and whether every traced
    pass produced identical counts."""
    traces = [r["trace"] for r in rounds]
    counts = [*tracing.count_metrics(), "trace.spans"]
    repeat = all(t[k] == traces[0][k] for t in traces for k in counts)
    out = {k: traces[0][k] if k in counts else statistics.median(t[k] for t in traces)
           for k in traces[0]}
    busy = [pool_stats(r["primary"]) for r in rounds]
    out["harness.pool_busy_frac"] = statistics.median(b for b, _ in busy)
    out["harness.pool_idle_s"] = statistics.median(i for _, i in busy)
    untraced = [r.get("serial", r["primary"])["wall_s"] for r in rounds]
    traced = [r["traced"]["wall_s"] for r in rounds]
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    out["evaluation.max_rel_dev"] = max_dev
    return out, repeat


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one kdc benchmark workload.")
    ap.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kdc" / "__init__.py").is_file():
        print(f"error: kdc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        setups, res = run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    rounds = res["rounds"]
    passes = [r[k] for r in rounds for k in ("primary", "serial", "traced") if k in r]
    reference = load_reference(args.seed, args.workload)
    attempted, failed, max_dev = check_passes(passes, reference, args.workload)
    correct = failed == 0
    env = {"git_sha": git_sha(), **res["environment"]}

    print(f"kdc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(
        f"{k}={v}" for k, v in env.items() if k != "threads")
        + " threads: " + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    if reference is None:
        print(f"outputs: structural checks only (no stored reference values for seed "
              f"{args.seed}; stored seeds: see {REFERENCE.name})")
    else:
        print(f"outputs: checked against stored reference values for seed {args.seed}, "
              f"rel tol {REL_TOL:g}, max rel dev {max_dev:.3g}")
    print(f"rounds: {len(rounds)} measured after 1 untimed warm-up pass; "
          f"operations: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6g})")

    if args.trace:
        metrics, repeat = per_layer(rounds, max_dev)
        if not repeat:
            print("counts differ between traced passes: result marked incorrect")
            correct = False
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        primary = [r["primary"] for r in rounds]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in primary),
            "cpu_s": statistics.median(p["cpu_s"] for p in primary),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)

    for name, value in metrics.items():
        label = " (computed)" if name in tracing.COMPUTED_COUNTS else ""
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:34s} {shown} {units[name]}{label}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_samples_s": setups, "worker": res}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
