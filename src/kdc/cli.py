"""Command-line front end.

Subcommands mirror the library surface: generate a problem description,
sample a dataset, train a single configuration, sweep a size grid, split
the error of one configuration, fit a rate from recorded sweeps, and
validate the shipped regularization filters. All subcommands read a JSON
config file; ``--seed`` overrides its base seed and ``--out`` chooses the
output path. This is the one module that opens files: the library returns
records and text, and the commands read and write them here. A file that
cannot be read or written is an error with exit code 2, and an output path
is checked before the work that fills it.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import InvalidParameterError, KdcError
from .evaluation import DECOMPOSE_REPS, decompose_error
from .filters import CLAMP_SAFETY, FILTER_TAGS, filter_from_tag, validate_filter
from .harness import (
    ExperimentConfig,
    check_config_types,
    emit_rate_table,
    records_from_csv,
    records_to_csv,
    resolve_m,
    run_experiment,
)
from .spectral_model import (
    PROBLEM_PARAMS, build_problem, dataset_to_csv, problem_to_json, sample_dataset,
)
from .trainers import SgmConfig, theory_step_cap


def _read_text(path: str, what: str, parse=str):
    """``parse`` the text of the file at ``path``; a file that cannot be read or parsed
    raises InvalidParameterError naming it as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(args) -> dict:
    """Read the ``--config`` JSON object, check its key types, and let ``--seed`` set base_seed."""
    raw = _read_text(args.config, "config", json.loads)
    if not isinstance(raw, dict):
        raise InvalidParameterError("config file must hold a JSON object")
    check_config_types(raw)
    if args.seed is not None:
        raw["base_seed"] = args.seed
    return raw


def _n_total(raw: dict) -> int:
    """The config's sample size: ``n_total``, else the first entry of ``n_list``."""
    n_total = raw.get("n_total", (raw.get("n_list") or [0])[0])
    if n_total < 1:
        raise InvalidParameterError("config needs n_total (or a nonempty n_list)")
    return n_total


def _problem_from_config(raw: dict):
    kwargs = {k: raw[k] for k in PROBLEM_PARAMS if k in raw}
    return build_problem(**kwargs)


def _write_text(text: str, out: str | None, mode: str = "w") -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is empty."""
    if out:
        try:
            with open(out, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameterError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _check_writable(out: str | None) -> None:
    """Raise now the error that writing ``out`` after the work would: appending nothing
    opens the file without truncating it."""
    if out:
        _write_text("", out, mode="a")


def _cmd_gen_problem(args) -> int:
    raw = _load_config(args)
    problem = _problem_from_config(raw)
    _write_text(problem_to_json(problem), args.out)
    print(f"problem {problem.problem_id}: dim={problem.dim} gamma={problem.gamma} "
          f"zeta={problem.zeta} kappa_sq={problem.kappa_sq:.6g}", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    raw = _load_config(args)
    ds = sample_dataset(_problem_from_config(raw), _n_total(raw), raw.get("base_seed", 0))
    _write_text(dataset_to_csv(ds), args.out)
    return 0


def _print_records(records) -> None:
    for rec in records:
        msg = (f"N={rec.n_total} m={rec.m} risk={rec.risk_mean:.6g} "
               f"se={rec.risk_se:.3g} ({rec.wall_ms:.0f} ms)")
        if rec.error:
            msg += f" error={rec.error}"
        print(msg)


def _cmd_train(args) -> int:
    cfg = ExperimentConfig.from_dict(_load_config(args))
    if len(cfg.n_list) != 1:
        raise InvalidParameterError("train expects a single-entry n_list; use sweep for grids")
    _check_writable(args.out)
    records = run_experiment(cfg, workers=args.workers)
    _print_records(records)
    if args.out:
        _write_text(records_to_csv(records), args.out)
    return 0 if all(not r.error for r in records) else 1


def _cmd_sweep(args) -> int:
    raw = _load_config(args)
    cfg = ExperimentConfig.from_dict(raw)
    out = args.out or raw.get("out_path") or "records.csv"
    _check_writable(out)
    records = run_experiment(cfg, workers=args.workers)
    _print_records(records)
    _write_text(records_to_csv(records), out)
    print(f"wrote {len(records)} records to {out}")
    return 0 if all(not r.error for r in records) else 1


def _cmd_decompose(args) -> int:
    raw = _load_config(args)
    problem = _problem_from_config(raw)
    n_total = _n_total(raw)
    m_rule = raw.get("m_rule", raw.get("m", 1))
    _, m = resolve_m(n_total, m_rule)
    iterations = raw.get("iterations", 0)
    if iterations < 1:
        raise InvalidParameterError("decompose config needs iterations >= 1")
    cap = theory_step_cap(CLAMP_SAFETY * problem.kappa_sq, iterations)
    config = SgmConfig(
        partitions=m, batch_size=raw.get("batch_size", 1), iterations=iterations,
        step_schedule=raw.get("eta", cap), base_seed=raw.get("base_seed", 0),
    )
    reps = (raw.get("n_data", DECOMPOSE_REPS[0]), raw.get("n_index", DECOMPOSE_REPS[1]))
    _check_writable(args.out)
    report = decompose_error(problem, n_total, config, replications=reps)
    parts = [(name, getattr(report, name), getattr(report, f"se_{name}"))
             for name in ("total", "bias", "sample_var", "comp_var")]
    for name, val, se in parts:
        print(f"{name:<12}= {val:.6g} (se {se:.2g})")
    print(f"identity gap = {report.identity_gap:.3g} "
          f"(combined se {report.combined_se:.3g}, ok={report.identity_ok()})")
    if args.out:
        rows = [f"{name},{val:.17g},{se:.17g}" for name, val, se in parts]
        _write_text("\n".join(["component,value,std_error"] + rows) + "\n", args.out)
    return 0 if report.identity_ok() else 1


def _cmd_rate_fit(args) -> int:
    raw = _load_config(args)
    records_path = args.records or raw.get("out_path")
    if not records_path:
        raise InvalidParameterError("need --records or out_path in the config")
    records = records_from_csv(_read_text(records_path, "records"))
    problem = _problem_from_config(raw)
    _check_writable(args.out)
    _, table = emit_rate_table(records, problem.zeta, problem.gamma)
    if args.out:
        _write_text(table, args.out)
    return 0


def _cmd_validate_filters(args) -> int:
    raw = _load_config(args) if args.config else {}
    ksq = _problem_from_config(raw).kappa_sq
    lam = raw.get("lam", 0.01)
    tags = FILTER_TAGS if args.filter == "all" else (args.filter,)
    _check_writable(args.out)
    all_ok = True
    results = {}
    for tag in tags:
        report = validate_filter(filter_from_tag(tag, ksq, lam))
        results[tag] = report
        status = "PASS" if report.passed else "FAIL"
        print(f"{tag:12s} value={report.max_value_lhs:.6f}/{report.const_e:g} "
              f"residual={report.max_residual_lhs:.6f}/{report.const_f:g} {status}")
        all_ok = all_ok and report.passed
    if args.out:
        payload = {
            tag: {
                "max_value_lhs": rep.max_value_lhs,
                "max_residual_lhs": rep.max_residual_lhs,
                "const_e": rep.const_e,
                "const_f": rep.const_f,
                "passed": rep.passed,
            }
            for tag, rep in results.items()
        }
        _write_text(json.dumps(payload, indent=2) + "\n", args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdc",
        description="Distributed kernel regression experiments on synthetic spectral problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *, config_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=config_required, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument("--out", default=None, help="output path")
        p.set_defaults(fn=fn)
        return p

    add("gen-problem", _cmd_gen_problem, "write the problem description as JSON")
    add("sample", _cmd_sample, "sample a dataset and write it as CSV")
    p_train = add("train", _cmd_train, "train a single size point and report its risk")
    p_sweep = add("sweep", _cmd_sweep, "run the full size sweep and write run records")
    for p in (p_train, p_sweep):
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (0 = one per CPU this process may use)")
    add("decompose", _cmd_decompose, "split the excess risk into bias/variance pieces")
    p_fit = add("rate-fit", _cmd_rate_fit, "fit a log-log rate from recorded sweeps")
    p_fit.add_argument("--records", default=None, help="records CSV (default: config out_path)")
    p_val = add("validate-filters", _cmd_validate_filters,
                "check filter constants numerically", config_required=False)
    p_val.add_argument("--filter", choices=FILTER_TAGS + ("all",), default="all")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
