"""Experiment harness: sweep configurations, run records, and rate tables.

A sweep takes one experiment configuration, runs the planned algorithm for
every sample size in ``n_list`` with ``replications`` independent datasets
each, and produces one run record per (N, m) point. Records serialize to
CSV with enough precision to round-trip exactly. Failures inside a point
(divergence, constraint violations) are recorded on the row instead of
aborting the sweep.

Replications are independent tasks keyed by (N, rep); with ``workers`` > 1
(0 = one per CPU) they execute in a process pool. Results are aggregated
in task order, so parallel runs produce byte-identical records.
"""
from __future__ import annotations

import csv
import io
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ._version import __version__
from .errors import InvalidParameterError, InvalidRegimeError, KdcError
from .evaluation import excess_risk_exact, fit_rate, theory_exponent
from .filters import filter_from_tag, FILTER_TAGS
from .kernels import spectral_kernel
from .seeding import TAG_DATA, TAG_INDEX, TAG_PARTITION, derive_seed
from .spectral_model import (
    PROBLEM_PARAMS, build_problem, problem_from_json, problem_to_json, sample_dataset,
)
from .trainers import SA_REGIMES, SGM_REGIMES, distributed_sa, distributed_sgm, plan_parameters


#: Types of the config keys that sweeps and the CLI read; other keys are ignored.
CONFIG_TYPES = {
    **dict.fromkeys(("regime", "algorithm", "filter", "filter_tag"), (str,)),
    **dict.fromkeys(("n_total", "dim", "m", "replications", "base_seed", "iterations",
                     "batch_size", "n_data", "n_index"), (int,)),
    **dict.fromkeys(("gamma", "zeta", "source_norm", "noise_sd", "scale", "eta", "lam"),
                    (int, float)),
    "n_list": (list, tuple),
    "m_rule": (int, str),
    "out_path": (str, type(None)),
    "theory_compliant": (bool,),
}


def _has_type(value, types) -> bool:
    # JSON true/false parse as bool, a subclass of int; they count as numbers nowhere.
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def check_config_types(raw: dict) -> None:
    """Raise InvalidParameterError unless each CONFIG_TYPES key in ``raw`` has its type.

    The entries of ``n_list`` must be integers.
    """
    for key, types in CONFIG_TYPES.items():
        if key in raw and not _has_type(raw[key], types):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise InvalidParameterError(f"config key {key!r} must be {names}, got {raw[key]!r}")
    if not all(_has_type(n, (int,)) for n in raw.get("n_list", ())):
        raise InvalidParameterError(f"config key 'n_list' must hold ints, got {raw['n_list']!r}")


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
    filter_tag: str = "tikhonov"
    m_rule: int | str = 1
    replications: int = 1
    base_seed: int = 0
    out_path: str | None = None
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
        if self.filter_tag not in FILTER_TAGS:
            raise InvalidParameterError(f"filter must be one of {FILTER_TAGS}")
        ns = tuple(self.n_list)
        if len(ns) == 0:
            raise InvalidParameterError("n_list must be nonempty")
        if any(n < 2 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise InvalidParameterError("n_list must be strictly increasing, all >= 2")
        object.__setattr__(self, "n_list", ns)
        _parse_m_rule(self.m_rule)  # validates
        if self.replications < 1:
            raise InvalidParameterError("replications must be >= 1")
        if self.scale <= 0:
            raise InvalidParameterError("scale must be positive")

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        """Build from a parsed config file; unrelated keys are ignored."""
        known = {f.name for f in fields(ExperimentConfig)}
        kwargs = {k: v for k, v in raw.items() if k in known}
        if "filter" in raw:
            kwargs["filter_tag"] = raw["filter"]
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
    m = int(rule)
    if m < 1:
        raise InvalidParameterError("fixed m rule must be >= 1")
    return ("fixed", m)


def resolve_m(n_total: int, m_rule) -> tuple[int, int]:
    """Resolve the partition count for one sample size.

    'pow:beta' asks for floor(N^beta); a fixed integer asks for itself.
    Either way the request is decremented to the nearest divisor of N (so
    partitions always split the data evenly). Returns (requested, resolved).
    """
    kind, value = _parse_m_rule(m_rule)
    if kind == "pow":
        requested = max(1, math.floor(n_total ** value))
    else:
        requested = min(int(value), n_total)
    m = requested
    while n_total % m != 0:
        m -= 1
    return requested, m


@dataclass(frozen=True)
class RunRecord:
    """One (N, m) sweep point, aggregated over replications."""

    version: str
    algorithm: str
    regime: str
    n_total: int
    m_requested: int
    m: int
    n_local: int
    batch_size: int | None
    iterations: int | None
    eta: float | None
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

#: Cell type of each column, read from the annotations ("int | None" -> int).
_CELL_TYPES = {
    f.name: {"int": int, "float": float, "str": str}[f.type.split(" | ")[0]]
    for f in fields(RunRecord)
}


def _format_cell(name: str, value) -> str:
    if value is None:
        return ""
    if _CELL_TYPES[name] is float:
        return f"{float(value):.17g}"
    return str(value)


def _parse_cell(name: str, text: str):
    kind = _CELL_TYPES[name]
    if text == "" and kind is not str:
        return None
    return kind(text)


def records_to_csv(records) -> str:
    """Serialize run records to CSV text with a fixed column order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(_format_cell(c, getattr(rec, c)) for c in CSV_COLUMNS)
    return buf.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    """Parse run records written by records_to_csv."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_COLUMNS:
        raise InvalidParameterError("unrecognized records CSV header")
    out = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(CSV_COLUMNS):
            raise InvalidParameterError("malformed records CSV row")
        kwargs = {c: _parse_cell(c, cell) for c, cell in zip(CSV_COLUMNS, row)}
        out.append(RunRecord(**kwargs))
    return out


def write_records_csv(records, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(records_to_csv(records))


def read_records_csv(path: str) -> list[RunRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return records_from_csv(fh.read())


def _run_point(config: ExperimentConfig, problem_json: str, n_total: int, m: int, rep: int) -> dict:
    """Run one (N, rep) task; returns risk or a recorded error."""
    t0 = time.perf_counter()
    try:
        problem = problem_from_json(problem_json)
        kernel = spectral_kernel(problem)
        data_seed = derive_seed(config.base_seed, TAG_DATA, n_total, rep)
        part_seed = derive_seed(config.base_seed, TAG_PARTITION, n_total, rep)
        index_seed = derive_seed(config.base_seed, TAG_INDEX, n_total, rep)
        ds = sample_dataset(problem, n_total, data_seed)
        plan = plan_parameters(
            config.regime, n_total, m, problem.zeta, problem.gamma,
            config.scale, kappa_sq=problem.kappa_sq,
            theory_compliant=config.theory_compliant,
        )
        if plan.algorithm == "sgm":
            model = distributed_sgm(ds, plan.to_config(index_seed), kernel, part_seed)
        else:
            filt = filter_from_tag(config.filter_tag, problem.kappa_sq, plan.lam)
            model = distributed_sa(ds, filt, plan.lam, kernel, m, part_seed)
        risk = excess_risk_exact(model, problem).excess_risk
        return {
            "risk": risk, "error": "",
            "wall_ms": 1e3 * (time.perf_counter() - t0),
            "plan": (plan.batch_size, plan.iterations, plan.eta, plan.lam),
        }
    except (KdcError, np.linalg.LinAlgError, FloatingPointError) as exc:  # recorded per row
        return {
            "risk": math.nan, "error": f"{type(exc).__name__}: {exc}",
            "wall_ms": 1e3 * (time.perf_counter() - t0), "plan": None,
        }


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[RunRecord]:
    """Run a full sweep and return one record per (N, m) point.

    ``workers`` processes run the replications (0 = one per CPU).
    Per-replication failures are folded into the row's ``error`` column;
    the risk statistics then cover the surviving replications (NaN if none
    survive). Rows come back in ``n_list`` order.
    """
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1 (or 0 for auto)")
    problem = build_problem(**{name: getattr(config, name) for name in PROBLEM_PARAMS})
    problem_json = problem_to_json(problem)

    points = []
    tasks = []
    for n_total in config.n_list:
        m_requested, m = resolve_m(n_total, config.m_rule)
        points.append((n_total, m_requested, m))
        tasks += [(config, problem_json, n_total, m, rep) for rep in range(config.replications)]

    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, *zip(*tasks)))
    else:
        results = [_run_point(*task) for task in tasks]

    records = []
    reps = config.replications
    for i, (n_total, m_requested, m) in enumerate(points):
        chunk = results[i * reps:(i + 1) * reps]
        risks = np.array([c["risk"] for c in chunk])
        good = risks[np.isfinite(risks)]
        failures = [c["error"] for c in chunk if c["error"]]
        plan_info = next((c["plan"] for c in chunk if c["plan"] is not None), None)
        batch_size, iterations, eta, lam = plan_info if plan_info else (None, None, None, None)
        if good.size:
            risk_mean = float(np.mean(good))
            risk_se = float(np.std(good, ddof=1) / math.sqrt(good.size)) if good.size > 1 else 0.0
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
            n_local=n_total // m,
            batch_size=batch_size,
            iterations=iterations,
            eta=eta,
            lam=lam,
            scale=config.scale,
            filter=config.filter_tag if config.algorithm == "sa" else "",
            replications=reps,
            base_seed=config.base_seed,
            data_seed_first=derive_seed(config.base_seed, TAG_DATA, n_total, 0),
            risk_mean=risk_mean,
            risk_se=risk_se,
            wall_ms=float(sum(c["wall_ms"] for c in chunk)),
            error=error,
        ))
    return records


def emit_rate_table(records, zeta: float, gamma: float, out_path: str | None = None):
    """Fit the empirical rate from sweep records and print a summary line.

    Error rows and non-finite risks are dropped; duplicated sample sizes
    are averaged. Returns (RateFit, table_csv_text) and, when ``out_path``
    is given, also writes the table there.
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
    table = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(table)
    print(
        f"rate fit: slope={fit.slope:.4f} r2={fit.r_squared:.4f} "
        f"theory={theory:.4f} gap={fit.slope - theory:+.4f}"
    )
    return fit, table
