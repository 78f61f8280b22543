"""Experiment harness: sweep configurations, run records, and rate tables.

A sweep takes one experiment configuration, runs the planned algorithm for
every sample size in ``n_list`` with ``replications`` independent datasets
each, and produces one run record per (N, m) point. Records serialize to
CSV text with enough precision to round-trip exactly. The harness returns
records and text and opens no file; the CLI reads and writes them. Failures
inside a point (divergence, constraint violations) are recorded on the row
instead of aborting the sweep.

Each (N, m) point is planned once, in the calling process: its tasks get
the point's TrainPlan (SGM) or FilterSpec (SA), and its record's plan
columns (:data:`PLAN_COLUMNS`) are read by name off the point's TrainPlan,
an SA plan carrying its filter's realized level and step count. A point
that cannot be planned records the error and runs no task. Replications
are independent tasks keyed by (N, rep); with ``workers`` > 1 (0 = one
per CPU that the process may use) they execute in a process pool, whose
workers each parse the problem's JSON once, and serial tasks share the
calling process's problem. Results are aggregated in task order, so
parallel runs produce byte-identical records.
Records depend on the BLAS thread count at rounding level, so every task
runs with numpy's OpenBLAS on one thread: a pool worker sets it when it
starts, and a serial sweep sets it for its tasks and then restores the
count it found. Where numpy ships no such library, no count is set.
Every task partitions its sample with its partition seed; at m = 1 an SA fit
uses the whole sample in place and does not depend on the seed.
"""
from __future__ import annotations

import csv
import ctypes
import functools
import io
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import InvalidParameterError, InvalidRegimeError, KdcError
from .evaluation import MAX_REPLICATIONS, _se, excess_risk_exact, fit_rate, theory_exponent
from .filters import FILTER_TAGS, FilterSpec, filter_from_tag
from .kernels import spectral_kernel
from .seeding import TAG_DATA, TAG_INDEX, TAG_PARTITION, check_integer, derive_seed
from .spectral_model import (
    PROBLEM_PARAMS, SpectralProblem, build_problem, check_json_types, check_positive,
    check_sample_size, problem_from_json, problem_to_json, sample_dataset,
)
from .trainers import (
    SA_REGIMES, SGM_REGIMES, TrainPlan, distributed_sa, distributed_sgm, plan_parameters,
)

#: JSON kind (a key of spectral_model.JSON_KINDS) of each config key that sweeps and
#: the CLI read; other keys are ignored.
CONFIG_TYPES = {
    **dict.fromkeys(("regime", "algorithm", "filter"), "a string"),
    **dict.fromkeys(("n_total", "dim", "m", "replications", "base_seed", "iterations",
                     "batch_size", "n_data", "n_index"), "an integer"),
    **dict.fromkeys(("gamma", "zeta", "source_norm", "noise_sd", "scale", "eta", "lam"),
                    "a number"),
    "n_list": "a list of integers",
    "m_rule": "an integer or a string",
    "out_path": "a string or null",
    "theory_compliant": "a boolean",
}


def check_config_types(raw: dict) -> None:
    """Raise InvalidParameterError unless each CONFIG_TYPES key in ``raw`` is of its JSON kind."""
    check_json_types(raw, CONFIG_TYPES, "config key")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a synthetic problem, an algorithm/regime, and sizes."""

    regime: str
    n_list: tuple[int, ...]
    dim: int = 200
    gamma: float = 1.0
    zeta: float = 0.5
    source_norm: float = 1.0
    noise_sd: float = 0.0
    algorithm: str = "sgm"
    scale: float = 1.0
    filter: str = "tikhonov"
    m_rule: int | str = 1
    replications: int = 1
    base_seed: int = 0
    theory_compliant: bool = False

    def __post_init__(self) -> None:
        check_config_types({f.name: getattr(self, f.name) for f in fields(self)})
        if self.algorithm not in ("sgm", "sa"):
            raise InvalidParameterError("algorithm must be 'sgm' or 'sa'")
        expected = SGM_REGIMES if self.algorithm == "sgm" else SA_REGIMES
        if self.regime not in expected:
            raise InvalidRegimeError(
                f"regime {self.regime!r} is not valid for algorithm {self.algorithm!r}"
            )
        if self.filter not in FILTER_TAGS:
            raise InvalidParameterError(f"filter must be one of {FILTER_TAGS}")
        ns = tuple(self.n_list)
        if len(ns) == 0:
            raise InvalidParameterError("n_list must be nonempty")
        if any(n < 2 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidParameterError("n_list must be strictly increasing, all >= 2")
        object.__setattr__(self, "n_list", ns)
        _parse_m_rule(self.m_rule)  # validates
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise InvalidParameterError(f"replications must lie in [1, {MAX_REPLICATIONS}]")
        check_positive("scale", self.scale)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Build from a parsed config file, checking the kind of every CONFIG_TYPES key;
        keys that are not fields (``out_path`` among them) are otherwise ignored."""
        check_config_types(raw)
        known = {f.name for f in fields(ExperimentConfig)}
        kwargs = {k: v for k, v in raw.items() if k in known}
        missing = {"regime", "n_list"} - kwargs.keys()
        if missing:
            raise InvalidParameterError(f"config is missing keys: {sorted(missing)}")
        return ExperimentConfig(**kwargs)


def _parse_m_rule(rule) -> tuple[str, float | int]:
    if isinstance(rule, str):
        if not rule.startswith("pow:"):
            raise InvalidParameterError("string m rules look like 'pow:0.4'")
        try:
            beta = float(rule[4:])
        except ValueError:
            raise InvalidParameterError(f"m rule exponent {rule[4:]!r} is not a number") from None
        if not 0.0 <= beta < 1.0:
            raise InvalidParameterError("m rule exponent must lie in [0, 1)")
        return ("pow", beta)
    check_integer("m_rule", rule)
    if rule < 1:
        raise InvalidParameterError("fixed m rule must be >= 1")
    return ("fixed", rule)


def resolve_m(n_total: int, m_rule) -> tuple[int, int]:
    """Resolve the partition count for one sample size.

    'pow:beta' asks for floor(N^beta); a fixed integer asks for itself.
    Either way the request is lowered to the largest divisor of N not above
    it (so partitions always split the data evenly), found by trial division
    up to sqrt(N). Returns (requested, resolved); an N that breaks the
    sample-size rule (:func:`~kdc.spectral_model.check_sample_size`) raises
    InvalidParameterError.
    """
    kind, value = _parse_m_rule(m_rule)
    check_sample_size(n_total)
    if kind == "pow":
        requested = max(1, math.floor(n_total ** value))
    else:
        requested = min(value, n_total)
    divisors = (d for i in range(1, math.isqrt(n_total) + 1) if n_total % i == 0
                for d in (i, n_total // i))
    return requested, max(d for d in divisors if d <= requested)


@dataclass(frozen=True)
class RunRecord:
    """One (N, m) sweep point, aggregated over replications."""

    version: str
    algorithm: str
    regime: str
    n_total: int
    m_requested: int | None
    m: int | None
    n_local: int | None
    #: The plan's flag for m past the partition budget, where bias dominates the average.
    partition_warning: bool | None
    batch_size: int | None
    iterations: int | None
    eta: float | None
    #: The planned step before its clamps, so a clamped step reads eta < eta_raw.
    eta_raw: float | None
    lam: float | None
    scale: float
    filter: str
    replications: int
    base_seed: int
    data_seed_first: int
    risk_mean: float
    risk_se: float
    wall_ms: float
    error: str


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))

#: The record columns read by name off a point's TrainPlan; None where the point has no plan.
PLAN_COLUMNS = ("partition_warning", "batch_size", "iterations", "eta", "eta_raw", "lam")

#: Cell type of each column, read from the annotations ("int | None" -> "int").
_CELL_TYPES = {f.name: f.type.split(" | ")[0] for f in fields(RunRecord)}

#: How a cell of each type is read; a bool cell is written by str().
_CELL_READERS = {"int": int, "float": float, "str": str,
                 "bool": {"True": True, "False": False}.__getitem__}


def _format_cell(name: str, value) -> str:
    if value is None:
        return ""
    if _CELL_TYPES[name] == "float":
        return f"{float(value):.17g}"
    return str(value)


def _parse_cell(name: str, text: str, line: int):
    kind = _CELL_TYPES[name]
    if text == "" and kind != "str":
        return None
    try:
        return _CELL_READERS[kind](text)
    except (ValueError, KeyError):
        raise InvalidParameterError(
            f"records CSV line {line}, column {name}: cannot read {text!r} as {kind}"
        ) from None


def records_to_csv(records) -> str:
    """Serialize run records to CSV text with a fixed column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(_format_cell(c, getattr(rec, c)) for c in CSV_COLUMNS)
    return buf.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    """Parse run records written by records_to_csv.

    A malformed row, or a cell that does not parse as its column's type,
    raises InvalidParameterError naming its line.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise InvalidParameterError("unrecognized records CSV header")
    out = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise InvalidParameterError(f"malformed records CSV row at line {reader.line_num}")
        kwargs = {c: _parse_cell(c, cell, reader.line_num) for c, cell in zip(CSV_COLUMNS, row)}
        out.append(RunRecord(**kwargs))
    return out


def _run_point(problem: SpectralProblem, fit: TrainPlan | FilterSpec, n_total: int, m: int,
               rep: int, base_seed: int) -> dict:
    """Sample, fit and score one (N, rep) task; returns its risk or a recorded error.

    ``fit`` is the point's TrainPlan for SGM or its FilterSpec for SA. At
    m = 1 an SA fit runs on the whole sample in place, so it is the same
    whatever the partition seed.
    """
    t0 = time.perf_counter()
    try:
        kernel = spectral_kernel(problem)
        ds = sample_dataset(problem, n_total, derive_seed(base_seed, TAG_DATA, n_total, rep))
        part_seed = derive_seed(base_seed, TAG_PARTITION, n_total, rep)
        if isinstance(fit, TrainPlan):
            config = fit.to_config(derive_seed(base_seed, TAG_INDEX, n_total, rep))
            model = distributed_sgm(ds, config, kernel, part_seed)
        else:
            model = distributed_sa(ds, fit, kernel, m, part_seed)
        risk, error = excess_risk_exact(model, problem), ""
    except (KdcError, np.linalg.LinAlgError, FloatingPointError) as exc:  # recorded per row
        risk, error = math.nan, f"{type(exc).__name__}: {exc}"
    return {"risk": risk, "error": error, "wall_ms": 1e3 * (time.perf_counter() - t0)}


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled scipy-openblas, looked up once per
    process in ``numpy.libs``; None where this numpy ships no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return get, put
    return None


def _set_blas_threads(count: int) -> int | None:
    """Run numpy's OpenBLAS on ``count`` threads and return the count it had; return None,
    setting nothing, where :func:`_openblas_threads` finds no library."""
    controls = _openblas_threads()
    if controls is None:
        return None
    previous = controls[0]()
    controls[1](count)
    return previous


#: The sweep's problem in a pool worker, parsed once by :func:`_init_worker`.
_worker_problem: SpectralProblem | None = None


def _init_worker(problem_json: str) -> None:
    global _worker_problem
    _set_blas_threads(1)
    _worker_problem = problem_from_json(problem_json)


def _run_pooled(*task) -> dict:
    """:func:`_run_point` on the worker's problem."""
    return _run_point(_worker_problem, *task)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[RunRecord]:
    """Run a full sweep and return one record per (N, m) point.

    Each point is planned once. A point whose partition count, plan or
    filter cannot be resolved records that error and runs no task;
    otherwise ``workers`` processes run its replications (0 = one per CPU
    that this process may run on), each with one BLAS thread, as the calling
    process has while it runs them serially; ``workers`` is an integer by the
    rule of :func:`~kdc.seeding.check_integer`. Per-replication failures are folded into
    the row's ``error`` column; the risk statistics then cover the surviving
    replications (NaN if none survive). Rows come back in ``n_list`` order.
    """
    check_integer("workers", workers)
    if workers == 0:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1 (or 0 for auto)")
    problem = build_problem(**{name: getattr(config, name) for name in PROBLEM_PARAMS})
    reps = config.replications

    points = []
    tasks = []
    for n_total in config.n_list:
        m_requested = m = None
        try:
            m_requested, m = resolve_m(n_total, config.m_rule)
            plan = plan_parameters(
                config.regime, n_total, m, problem.zeta, problem.gamma, config.scale,
                kappa_sq=problem.kappa_sq, theory_compliant=config.theory_compliant,
            )
            fit = plan
            if plan.algorithm == "sa":
                # Landweber runs its T steps at their level 1/sum(eta), just below plan.lam.
                fit = filter_from_tag(config.filter, problem.kappa_sq, plan.lam)
                plan = replace(plan, lam=fit.lam, iterations=None if fit.step_sizes is None
                               else fit.step_sizes.size)
        except KdcError as exc:  # recorded once; the point runs no task
            points.append((n_total, m_requested, m, dict.fromkeys(PLAN_COLUMNS),
                           f"{type(exc).__name__}: {exc}"))
        else:
            points.append((n_total, m_requested, m,
                           {name: getattr(plan, name) for name in PLAN_COLUMNS}, None))
            tasks += [(fit, n_total, m, rep, config.base_seed) for rep in range(reps)]

    # One BLAS thread on either path; set here, the library is found before the pool forks.
    previous = _set_blas_threads(1)
    try:
        if workers > 1 and len(tasks) > 1:
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                     initargs=(problem_to_json(problem),)) as pool:
                results = list(pool.map(_run_pooled, *zip(*tasks)))
        else:
            results = [_run_point(problem, *task) for task in tasks]
    finally:
        if previous is not None:
            _set_blas_threads(previous)

    records = []
    remaining = iter(results)
    for n_total, m_requested, m, plan_columns, plan_error in points:
        chunk = [] if plan_error else [next(remaining) for _ in range(reps)]
        risks = np.array([c["risk"] for c in chunk])
        good = risks[np.isfinite(risks)]
        failures = [plan_error] if plan_error else [c["error"] for c in chunk if c["error"]]
        if good.size:
            risk_mean = float(np.mean(good))
            risk_se = _se(good) if good.size > 1 else 0.0
        else:
            risk_mean = math.nan
            risk_se = math.nan
        error = ""
        if failures:
            error = failures[0] if len(failures) == 1 else f"{failures[0]} (+{len(failures) - 1} more)"
        records.append(RunRecord(
            version=f"kdc-{__version__}",
            algorithm=config.algorithm,
            regime=config.regime,
            n_total=n_total,
            m_requested=m_requested,
            m=m,
            n_local=None if m is None else n_total // m,
            **plan_columns,
            scale=config.scale,
            filter=config.filter if config.algorithm == "sa" else "",
            replications=reps,
            base_seed=config.base_seed,
            data_seed_first=derive_seed(config.base_seed, TAG_DATA, n_total, 0),
            risk_mean=risk_mean,
            risk_se=risk_se,
            wall_ms=float(sum(c["wall_ms"] for c in chunk)),
            error=error,
        ))
    return records


def emit_rate_table(records, zeta: float, gamma: float):
    """Fit the empirical rate from sweep records and print a summary line.

    Error rows and non-finite risks are dropped; duplicated sample sizes
    are averaged. Returns (RateFit, table_csv_text).
    """
    by_n: dict[int, list[float]] = {}
    for rec in records:
        if rec.error or not math.isfinite(rec.risk_mean) or rec.risk_mean <= 0:
            continue
        by_n.setdefault(rec.n_total, []).append(rec.risk_mean)
    points = [(n, float(np.mean(vals))) for n, vals in sorted(by_n.items())]
    fit = fit_rate(points)
    theory = theory_exponent(zeta, gamma)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n_total", "risk_mean", "log_n", "log_risk"))
    for n, risk in points:
        writer.writerow((n, f"{risk:.17g}", f"{math.log(n):.17g}", f"{math.log(risk):.17g}"))
    writer.writerow(())
    writer.writerow(("slope", f"{fit.slope:.17g}"))
    writer.writerow(("intercept", f"{fit.intercept:.17g}"))
    writer.writerow(("r_squared", f"{fit.r_squared:.17g}"))
    writer.writerow(("theory_exponent", f"{theory:.17g}"))
    writer.writerow(("gap", f"{fit.slope - theory:.17g}"))
    print(
        f"rate fit: slope={fit.slope:.4f} r2={fit.r_squared:.4f} "
        f"theory={theory:.4f} gap={fit.slope - theory:+.4f}"
    )
    return fit, buf.getvalue()
