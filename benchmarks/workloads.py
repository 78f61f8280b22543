"""The benchmark's workloads, driven through kdc's public API.

A workload is built once by ``make`` (part of the measured set-up) and then
run pass after pass; each pass returns the operations it attempted as plain
dicts, which the parent process checks. Calls go through the ``kdc``
package namespace (``kdc.run_experiment``, not a name imported into this
module) so that the tracer, which patches kdc's own namespaces, sees them.
"""
from __future__ import annotations

import time

import kdc
from kdc.harness import ExperimentConfig

import spec


class _Sweep:
    """A workload made of harness sweeps; one operation per run record.

    ``pool_workers`` is the pool size of the untimed and timed passes; the
    traced pass runs with one worker so every span is in-process.
    """

    pool_workers = 1
    configs: tuple[tuple[str, ExperimentConfig], ...] = ()

    def run(self, workers: int) -> dict:
        ops = []
        sweep_wall = 0.0
        task_s = 0.0
        for label, cfg in self.configs:
            t0 = time.perf_counter()
            records = kdc.run_experiment(cfg, workers=workers)
            sweep_wall += time.perf_counter() - t0
            for rec in records:
                task_s += rec.wall_ms / 1e3
                ops.append({
                    "key": spec.sweep_key(label, cfg.regime, rec.n_total),
                    "error": rec.error,
                    "n_total": rec.n_total,
                    "m": rec.m,
                    "n_local": rec.n_local,
                    "values": {"risk_mean": rec.risk_mean},
                })
        return {"ops": ops, "pool": {"wall_s": sweep_wall, "task_s": task_s, "workers": workers}}


class RateSweep(_Sweep):
    def __init__(self, seed: int, nproc: int):
        self.pool_workers = nproc
        self.configs = tuple(
            (label, ExperimentConfig(
                regime=regime, algorithm=algorithm, gamma=gamma,
                n_list=tuple(spec.RATE_M), m_rule=spec.RATE_M_RULE,
                replications=spec.RATE_REPLICATIONS, base_seed=seed, **spec.PROBLEM,
            ))
            for label, regime, algorithm, gamma in spec.RATE_EXPERIMENTS
        )
        # run_experiment builds its problem itself; building each one here
        # puts that cost, the first thing a sweep pays, into set-up.
        for gamma in sorted({g for *_, g in spec.RATE_EXPERIMENTS}):
            kdc.build_problem(gamma=gamma, **spec.PROBLEM)


class SingleMachine(_Sweep):
    def __init__(self, seed: int, nproc: int):
        self.configs = tuple(
            (label, ExperimentConfig(
                regime=regime, algorithm=algorithm, gamma=1.0, n_list=(spec.SINGLE_N,),
                m_rule=1, replications=1, base_seed=seed, **spec.PROBLEM,
            ))
            for label, regime, algorithm in spec.SINGLE_POINTS
        )
        kdc.build_problem(gamma=1.0, **spec.PROBLEM)


def make(name: str, seed: int, nproc: int):
    """Build (set up) the named workload for one workload seed."""
    cls = {"rate_sweep": RateSweep, "single_machine": SingleMachine}
    return cls[name](seed, nproc)
