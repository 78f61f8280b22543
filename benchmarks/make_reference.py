"""Write reference.json: one pass of every workload at each reference seed.

Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 benchmarks/make_reference.py

The stored values are what bench.py checks every later commit against, so
rerun this only for a change that is meant to change kdc's results, and say
so in that change.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

import spec
import workloads

#: Seed 0 is bench.py's default; seed 1 is held out for checking a change
#: on a seed it was not tuned on.
REFERENCE_SEEDS = (0, 1)


def main() -> None:
    nproc = len(os.sched_getaffinity(0))
    seeds = {}
    for seed in REFERENCE_SEEDS:
        seeds[str(seed)] = per_workload = {}
        for name in spec.WORKLOADS:
            wl = workloads.make(name, seed, nproc)
            ops = wl.run(wl.pool_workers)["ops"]
            bad = [op["key"] for op in ops if op["error"]]
            if bad:
                raise SystemExit(f"{name} seed {seed}: operations failed: {bad}")
            per_workload[name] = {op["key"]: op["values"] for op in ops}
            print(f"seed {seed} {name}: {len(ops)} operations", flush=True)
    doc = {"about": "kdc outputs taken at commit 115af68 with make_reference.py",
           "seeds": seeds}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
