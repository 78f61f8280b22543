"""The public names of ``kdc``, its settable knobs and its model and sample fields are
pinned, so an API change, a new setting or a new given field is a deliberate edit here.

Submodules are left out: which of them are attributes of the package
depends on what has been imported before.
"""
from __future__ import annotations

import copy
import inspect
import pickle
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import kdc
from kdc.harness import CONFIG_TYPES
from kdc.spectral_model import PROBLEM_PARAMS

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = (
    "Constant,ConstraintViolationError,Dataset,DecompositionReport,"
    "DegenerateInputError,DivergenceError,DomainError,EigendecompositionError,"
    "ExperimentConfig,FilterSpec,FilterValidationReport,"
    "IndivisibleDataError,InsufficientDataError,InvalidParameterError,InvalidRegimeError,"
    "KdcError,KernelMismatchError,KernelSpec,Model,RateFit,RunRecord,"
    "SgmConfig,SpectralProblem,StepConditionReport,TrainPlan,apply_filter,average_models,"
    "basis_matrix,build_problem,capacity_certificate,check_step_condition,"
    "dataset_to_csv,decompose_error,derive_seed,distributed_sa,distributed_sgm,"
    "effective_dimension,emit_rate_table,excess_risk_exact,filter_from_tag,"
    "filter_value,fit_rate,gm_local,gram,kernel_cross,landweber,"
    "mode_projection,partition_data,partition_stream_seed,plan_parameters,"
    "predict,problem_from_json,problem_to_json,"
    "records_from_csv,records_to_csv,regression_value,"
    "resolve_m,resolve_schedule,run_experiment,sa_local,sample_dataset,"
    "sgm_local,spectral_kernel,splitmix64,sup_norm_bound,"
    "sym_eigendecompose,theory_exponent,"
    "validate_filter"
)

#: Fields of each settable dataclass, in order, and the keys a config file may set.
KNOBS = {
    kdc.ExperimentConfig: "regime,n_list,dim,gamma,zeta,source_norm,noise_sd,algorithm,scale,"
                          "filter,m_rule,replications,base_seed,theory_compliant",
    kdc.SgmConfig: "partitions,batch_size,iterations,step_schedule,base_seed",
    kdc.TrainPlan: "algorithm,partitions,n_local,batch_size,iterations,eta,eta_raw,lam,"
                   "partition_warning",
}
#: Init fields of the model and sample types: a fit, local or averaged, is its modes, and a
#: sample its inputs and labels.
MODEL_FIELDS = {
    kdc.Model: "modes,kernel",
    kdc.Dataset: "inputs,labels",
}
CONFIG_KEYS = (
    "regime,algorithm,filter,n_total,dim,m,replications,base_seed,iterations,batch_size,"
    "n_data,n_index,gamma,zeta,source_norm,noise_sd,scale,eta,lam,n_list,m_rule,out_path,"
    "theory_compliant"
)


def public_names() -> list[str]:
    return sorted(name for name, value in vars(kdc).items()
                  if not name.startswith("_") and not inspect.ismodule(value))


def test_public_names_are_pinned():
    assert ",".join(public_names()) == PUBLIC_NAMES


def test_every_public_name_is_reached_outside_the_tests():
    # A name only the tests use is a test oracle: it belongs in tests/oracles.py.
    sources = [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py")),
               *sorted(p for p in (ROOT / "src" / "kdc").glob("*.py") if p.name != "__init__.py")]
    lines = [line for path in sources for line in path.read_text(encoding="utf-8").splitlines()]
    unreached = [
        name for name in public_names()
        if not any(re.search(rf"\b{name}\b", line)
                   and not re.match(rf"\s*(def|class) {name}\b", line) for line in lines)
    ]
    assert unreached == []


def test_a_filter_spec_carries_its_own_level():
    # Lambda is bound when a filter is built; nothing that applies one takes it again.
    for fn in (kdc.filter_value, kdc.apply_filter, kdc.sa_local, kdc.distributed_sa):
        assert "lam" not in inspect.signature(fn).parameters, fn.__name__


def test_a_filter_spec_takes_only_what_varies_within_its_family():
    # Qualification and constants are the family's; a spec picks the level and the steps.
    assert list(inspect.signature(kdc.FilterSpec).parameters) == [
        "kind", "kappa_sq", "lam", "step_sizes"]
    assert list(inspect.signature(kdc.landweber).parameters) == ["step_sizes", "kappa_sq"]
    assert list(inspect.signature(kdc.filters._filter_values).parameters) == ["spec", "u"]


def test_settable_fields_and_config_keys_are_pinned():
    for cls, names in KNOBS.items():
        assert ",".join(f.name for f in fields(cls)) == names, cls.__name__
    assert ",".join(CONFIG_TYPES) == CONFIG_KEYS


def test_model_fields_are_pinned():
    for cls, names in MODEL_FIELDS.items():
        assert ",".join(f.name for f in fields(cls) if f.init) == names, cls.__name__


def test_a_problem_is_given_its_parameters_and_derives_the_rest():
    assert tuple(f.name for f in fields(kdc.SpectralProblem) if f.init) == PROBLEM_PARAMS


def test_the_config_and_build_problem_default_the_problem_alike():
    # Both modules write the five defaults; a sweep and a bare build_problem must agree.
    config = {f.name: f.default for f in fields(kdc.ExperimentConfig)}
    built = inspect.signature(kdc.build_problem).parameters
    for name in PROBLEM_PARAMS:
        assert repr(config[name]) == repr(built[name].default), name


def test_a_model_checks_and_copies_its_modes():
    kernel = kdc.spectral_kernel(kdc.build_problem(dim=10, noise_sd=0.1))
    given = np.arange(10.0)
    model = kdc.Model(given, kernel)
    given[0] = 5.0
    assert model.modes[0] == 0.0 and model.modes.dtype == np.float64
    with pytest.raises(ValueError):
        model.modes[0] = 1.0
    assert kdc.Model(list(range(10)), kernel).modes.dtype == np.float64
    for shape in ((9,), (11,), (1, 10), ()):
        with pytest.raises(kdc.InvalidParameterError, match="do not match dim 10"):
            kdc.Model(np.zeros(shape), kernel)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(kdc.DivergenceError, match="modes are not finite"):
            kdc.Model(np.full(10, bad), kernel)


def arrays_of(obj) -> list:
    """Every array an object holds, through the dataclasses it holds."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            found.append(value)
        elif is_dataclass(value):
            found += arrays_of(value)
    return found


CHECKED = {
    "problem": lambda p: p,
    "filter": lambda p: kdc.landweber(np.full(5, 0.05), p.kappa_sq),
    "model": lambda p: kdc.Model(np.arange(10.0), kdc.spectral_kernel(p)),
    "sample": lambda p: kdc.sample_dataset(p, 16, seed=3),
}


@pytest.mark.parametrize("copier", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("kind", CHECKED)
def test_a_copy_keeps_every_array_read_only(kind, copier):
    # A copy is rebuilt through __init__, so it is checked and read-only like the original.
    clone = copier(CHECKED[kind](kdc.build_problem(dim=10, noise_sd=0.1)))
    assert arrays_of(clone)
    assert not any(array.flags.writeable for array in arrays_of(clone))
