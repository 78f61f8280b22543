from __future__ import annotations

import dataclasses
import json

import pytest

from kdc import (
    Constant,
    SgmConfig,
    build_problem,
    decompose_error,
    derive_seed,
    emit_rate_table,
    filter_from_tag,
    problem_from_json,
    problem_to_json,
    records_from_csv,
    run_experiment,
    validate_filter,
)
from kdc.cli import main
from kdc.harness import ExperimentConfig
from kdc.filters import CLAMP_SAFETY, FILTER_TAGS
from kdc.seeding import TAG_DATA
from kdc.trainers import theory_step_cap


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_records(path):
    return records_from_csv(path.read_text(encoding="utf-8"))


def without_wall_ms(records):
    return [dataclasses.replace(rec, wall_ms=0.0) for rec in records]


SWEEP = {
    "regime": "cor1.1",
    "n_list": [16, 32, 64],
    "dim": 20,
    "noise_sd": 0.1,
    "m_rule": 2,
    "replications": 2,
    "base_seed": 3,
}


@pytest.fixture()
def sweep_config(tmp_path):
    return write_config(tmp_path, "sweep.json", SWEEP)


def test_gen_problem_writes_the_json_description(tmp_path):
    cfg = write_config(tmp_path, "p.json", {"regime": "cor1.1", "n_list": [16], "dim": 20})
    out = tmp_path / "problem.json"
    assert main(["gen-problem", "--config", cfg, "--out", str(out)]) == 0
    problem = problem_from_json(out.read_text())
    assert problem.dim == 20
    assert problem.kappa_sq > 0


@pytest.mark.parametrize("params", [
    {}, dict(dim=20, gamma=1, zeta=1, source_norm=2, noise_sd=0),
    dict(dim=200, gamma=0.5, zeta=0.5, source_norm=1, noise_sd=0.3),
    dict(dim=7, gamma=0.3, zeta=0.25, source_norm=1, noise_sd=0), dict(dim=1, gamma=1),
], ids=["defaults", "integers", "gamma-half", "gamma-0.3", "one-mode"])
def test_every_document_gen_problem_writes_loads_back(tmp_path, params):
    out = tmp_path / "problem.json"
    assert main(["gen-problem", "--config", write_config(tmp_path, "p.json", params),
                 "--out", str(out)]) == 0
    problem = problem_from_json(out.read_text())
    assert problem_to_json(problem) == out.read_text()
    assert problem.problem_id == build_problem(**params).problem_id


def test_gen_problem_and_sample_write_to_stdout_without_out(tmp_path, capsys):
    cfg = write_config(tmp_path, "p.json", {"n_total": 5, "dim": 20, "base_seed": 5})
    assert main(["gen-problem", "--config", cfg]) == 0
    problem = problem_from_json(capsys.readouterr().out)
    assert problem.problem_id == build_problem(dim=20).problem_id
    assert main(["sample", "--config", cfg]) == 0
    out = tmp_path / "s.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_sample_writes_a_reproducible_csv(tmp_path):
    cfg = write_config(
        tmp_path,
        "s.json",
        {"regime": "cor1.1", "n_list": [12], "dim": 20, "noise_sd": 0.1, "base_seed": 5},
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sample", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 13
    # A different seed produces different draws.
    out_c = tmp_path / "c.csv"
    assert main(["sample", "--config", cfg, "--seed", "6", "--out", str(out_c)]) == 0
    assert out_c.read_text() != out_a.read_text()


def test_sample_folds_a_negative_seed_into_64_bits(tmp_path, capsys):
    cfg = write_config(tmp_path, "s.json", {"n_total": 6, "dim": 20, "noise_sd": 0.1})
    assert main(["sample", "--config", cfg, "--seed", "-1"]) == 0
    negative = capsys.readouterr().out
    assert main(["sample", "--config", cfg, "--seed", str(2**64 - 1)]) == 0
    assert capsys.readouterr().out == negative


def test_sweep_writes_records_and_exits_clean(tmp_path, sweep_config):
    out = tmp_path / "records.csv"
    assert main(["sweep", "--config", sweep_config, "--out", str(out)]) == 0
    records = read_records(out)
    assert [r.n_total for r in records] == [16, 32, 64]
    assert all(r.error == "" for r in records)


def test_sweep_seed_flag_overrides_the_config_seed(tmp_path, sweep_config):
    out = tmp_path / "records.csv"
    assert main(["sweep", "--config", sweep_config, "--seed", "7", "--out", str(out)]) == 0
    records = read_records(out)
    assert [r.base_seed for r in records] == [7, 7, 7]
    assert [r.data_seed_first for r in records] == [
        derive_seed(7, TAG_DATA, n, 0) for n in (16, 32, 64)]


def test_sweep_reports_failures_through_the_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {"regime": "cor3.1", "n_list": [16], "dim": 20, "m_rule": 2},
    )
    out = tmp_path / "records.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    records = read_records(out)
    assert "ConstraintViolationError" in records[0].error


def test_train_runs_a_single_point(tmp_path, capsys):
    payload = {
        "regime": "cor1.1",
        "n_list": [24],
        "dim": 20,
        "noise_sd": 0.1,
        "m_rule": 2,
        "replications": 2,
    }
    cfg = write_config(tmp_path, "t.json", payload)
    out = tmp_path / "point.csv"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "risk" in printed
    # The written records round-trip to the ones the harness returns, timings aside.
    expected = run_experiment(ExperimentConfig.from_dict(payload))
    assert without_wall_ms(read_records(out)) == without_wall_ms(expected)


def test_train_rejects_multi_point_configs(tmp_path, sweep_config):
    assert main(["train", "--config", sweep_config]) == 2


def test_rate_fit_reads_the_sweep_output(tmp_path, sweep_config, capsys):
    out = tmp_path / "records.csv"
    main(["sweep", "--config", sweep_config, "--out", str(out)])
    capsys.readouterr()
    assert main(["rate-fit", "--config", sweep_config, "--records", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "rate fit:" in printed
    assert "slope=" in printed


def test_rate_fit_writes_the_table_that_emit_rate_table_returns(tmp_path, sweep_config, capsys):
    records = tmp_path / "records.csv"
    main(["sweep", "--config", sweep_config, "--out", str(records)])
    table = tmp_path / "t.csv"
    assert main(["rate-fit", "--config", sweep_config, "--records", str(records),
                 "--out", str(table)]) == 0
    capsys.readouterr()
    _, expected = emit_rate_table(read_records(records), zeta=0.5, gamma=1.0)
    assert table.read_text(encoding="utf-8") == expected


def test_sweep_and_rate_fit_default_to_the_configs_out_path(tmp_path, capsys):
    records = tmp_path / "from-config.csv"
    cfg = write_config(tmp_path, "with-out.json", {**SWEEP, "out_path": str(records)})
    assert main(["sweep", "--config", cfg]) == 0
    assert [r.n_total for r in read_records(records)] == [16, 32, 64]
    capsys.readouterr()
    assert main(["rate-fit", "--config", cfg]) == 0
    assert "rate fit:" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep", "sweep-out-path", "train", "decompose",
                                     "gen-problem", "rate-fit", "validate-filters"])
def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, sweep_config, capsys, command):
    # Exit 1 means a row failed; an output file that cannot be written is an error, exit 2,
    # found before the work: no record, component or fit line is printed.
    records = tmp_path / "records.csv"
    main(["sweep", "--config", sweep_config, "--out", str(records)])
    capsys.readouterr()
    out = tmp_path / "missing" / "x.csv"
    argv = [command, "--config", sweep_config, "--out", str(out)]
    if command == "sweep-out-path":
        argv = ["sweep", "--config",
                write_config(tmp_path, "o.json", {**SWEEP, "out_path": str(out)})]
    elif command in ("train", "decompose"):
        argv[2] = write_config(tmp_path, "d.json", DECOMPOSE)
    elif command == "rate-fit":
        argv += ["--records", str(records)]
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert printed.err.startswith(f"error: cannot write {out}: ")
    assert printed.out == ""


def test_rate_fit_reports_an_unreadable_records_file(tmp_path, sweep_config, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["rate-fit", "--config", sweep_config, "--records", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read records {missing}")
    out = tmp_path / "records.csv"
    main(["sweep", "--config", sweep_config, "--out", str(out)])
    out.write_text(out.read_text().replace(",3,", ",x,", 1))
    capsys.readouterr()
    assert main(["rate-fit", "--config", sweep_config, "--records", str(out)]) == 2
    assert "error: records CSV line 2, column " in capsys.readouterr().err


def test_rate_fit_rejects_a_records_row_at_sample_size_zero(tmp_path, sweep_config, capsys):
    out = tmp_path / "records.csv"
    main(["sweep", "--config", sweep_config, "--out", str(out)])
    header, first, *rest = out.read_text().splitlines()
    zero = first.split(",")
    zero[header.split(",").index("n_total")] = "0"
    out.write_text("\n".join([header, ",".join(zero), *rest]) + "\n")
    capsys.readouterr()
    assert main(["rate-fit", "--config", sweep_config, "--records", str(out)]) == 2
    assert "error: sample sizes must be finite and >= 1" in capsys.readouterr().err


def test_sweep_records_an_oversized_sample_on_its_row(tmp_path, capsys):
    cfg = write_config(tmp_path, "big.json",
                       {"regime": "cor6", "algorithm": "sa", "n_list": [16, 10**30], "dim": 20})
    out = tmp_path / "records.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    small, big = read_records(out)
    assert small.error == "" and big.n_total == 10**30
    assert big.error.startswith("InvalidParameterError: n_total must be <= 16777216")


def test_validate_filters_all_pass(capsys):
    assert main(["validate-filters"]) == 0
    printed = capsys.readouterr().out
    for tag in ("tikhonov", "landweber", "cutoff", "tikhonov_bc"):
        line = next(ln for ln in printed.splitlines() if ln.startswith(tag))
        assert line.rstrip().endswith("PASS")


def test_validate_filters_single_tag(capsys):
    assert main(["validate-filters", "--filter", "cutoff"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("cutoff")
    assert printed.rstrip().endswith("PASS")
    assert "tikhonov_bc" not in printed


def test_validate_filters_writes_each_report_as_json(tmp_path, capsys):
    out = tmp_path / "filters.json"
    assert main(["validate-filters", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == list(FILTER_TAGS)
    ksq = build_problem().kappa_sq
    for tag, entry in payload.items():
        rep = validate_filter(filter_from_tag(tag, ksq, 0.01))
        assert entry == {"max_value_lhs": rep.max_value_lhs,
                         "max_residual_lhs": rep.max_residual_lhs,
                         "const_e": rep.const_e, "const_f": rep.const_f, "passed": True}


def test_validate_filters_rejects_an_unreachable_landweber_level(tmp_path, capsys):
    cfg = write_config(tmp_path, "v.json", {"lam": 1e-300})
    assert main(["validate-filters", "--config", cfg, "--filter", "landweber"]) == 2
    assert "error:" in capsys.readouterr().err


DECOMPOSE = {
    "regime": "cor1.1",
    "n_list": [16],
    "dim": 20,
    "noise_sd": 0.2,
    "n_total": 16,
    "m": 2,
    "batch_size": 1,
    "iterations": 10,
    "eta": 0.1,
    "n_data": 50,
    "n_index": 20,
    "base_seed": 4,
}


def test_decompose_checks_the_identity(tmp_path, capsys):
    cfg = write_config(tmp_path, "d.json", DECOMPOSE)
    assert main(["decompose", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert "total" in printed
    assert "bias" in printed


def test_decompose_without_eta_runs_at_the_theory_step_cap(tmp_path, capsys):
    payload = {k: v for k, v in DECOMPOSE.items() if k != "eta"}
    code = main(["decompose", "--config", write_config(tmp_path, "d.json", payload)])
    default = capsys.readouterr().out
    cap = theory_step_cap(CLAMP_SAFETY * build_problem(dim=20, noise_sd=0.2).kappa_sq, 10)
    for eta, same in ((cap, True), (0.1, False)):
        cfg = write_config(tmp_path, "e.json", {**payload, "eta": eta})
        main(["decompose", "--config", cfg])
        assert (capsys.readouterr().out == default) is same, eta
    assert code == 0


def test_decompose_writes_its_components_as_csv(tmp_path, capsys):
    out = tmp_path / "parts.csv"
    assert main(["decompose", "--config", write_config(tmp_path, "d.json", DECOMPOSE),
                 "--out", str(out)]) == 0
    config = SgmConfig(partitions=2, batch_size=1, iterations=10, step_schedule=Constant(0.1),
                       base_seed=4)
    report = decompose_error(build_problem(dim=20, noise_sd=0.2), 16, config,
                             replications=(50, 20))
    lines = out.read_text().splitlines()
    assert lines[0] == "component,value,std_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [name for name, _, _ in rows] == ["total", "bias", "sample_var", "comp_var"]
    for name, value, se in rows:
        assert float(value) == getattr(report, name)
        assert float(se) == getattr(report, f"se_{name}")


@pytest.mark.parametrize(
    "command, payload",
    [
        ("sweep", {"regime": "corQ", "n_list": [16]}),
        ("sweep", {"regime": "cor1.1", "n_list": [16], "m_rule": "pow:x"}),
        ("sample", {"n_list": []}),
        ("decompose", {"n_list": []}),
        ("decompose", {"n_total": 16}),
        ("decompose", {"n_total": 16, "iterations": 0}),
        ("sweep", None),
        ("sweep", "{not json"),
        ("sample", {"n_total": "abc"}),
        ("gen-problem", {"gamma": "x"}),
        ("decompose", {"n_total": 16, "iterations": 5, "eta": "fast"}),
        ("sweep", {"regime": "cor1.1", "n_list": [16], "replications": "two"}),
        ("sweep", ["regime", "cor1.1"]),
        ("rate-fit", {"zeta": 0.5}),
        ("gen-problem", {"source_norm": 10**400}),
        ("gen-problem", '{"noise_sd": NaN}'),
        ("sweep", '{"regime": "cor1.1", "n_list": [16], "scale": Infinity}'),
        ("gen-problem", {"dim": 10**40}),
        ("sample", {"n_total": 10**30}),
    ],
    ids=["unknown-regime", "bad-m-rule", "sample-empty-n-list", "decompose-empty-n-list",
         "decompose-without-iterations", "decompose-zero-iterations", "missing-file", "bad-json",
         "sample-n-total-not-a-number", "gen-problem-gamma-not-a-number",
         "decompose-eta-not-a-number", "sweep-replications-not-a-number",
         "config-is-a-list", "rate-fit-without-records", "gen-problem-400-digit-source-norm",
         "gen-problem-nan-noise-sd", "sweep-infinite-scale", "gen-problem-oversized-dim",
         "sample-oversized-n-total"],
)
def test_unknown_regime_hits_the_error_path(tmp_path, capsys, command, payload):
    # Malformed configs end in "error:" and exit code 2, never in a traceback.
    cfg = tmp_path / "x.json"
    if payload is not None:
        cfg.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert main([command, "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


def test_workers_flag_matches_serial_output(tmp_path, sweep_config):
    a = tmp_path / "serial.csv"
    b = tmp_path / "parallel.csv"
    assert main(["sweep", "--config", sweep_config, "--out", str(a)]) == 0
    assert main(["sweep", "--config", sweep_config, "--workers", "2", "--out", str(b)]) == 0
    ra = read_records(a)
    rb = read_records(b)
    for x, y in zip(ra, rb):
        assert x.risk_mean == y.risk_mean
        assert x.risk_se == y.risk_se
