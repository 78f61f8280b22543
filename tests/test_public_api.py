"""The public names of ``kdc`` and its settable knobs are pinned, so an API change
or a new setting is a deliberate edit here.

Submodules are left out: which of them are attributes of the package
depends on what has been imported before.
"""
from __future__ import annotations

import inspect
from dataclasses import fields

import kdc
from kdc.harness import CONFIG_TYPES

PUBLIC_NAMES = (
    "AveragedModel,Constant,ConstraintViolationError,Dataset,DecompositionReport,"
    "DegenerateInputError,DivergenceError,DomainError,EigendecompositionError,"
    "ExperimentConfig,FilterSpec,FilterValidationReport,"
    "IndivisibleDataError,InsufficientDataError,InvalidParameterError,InvalidRegimeError,"
    "KdcError,KernelMismatchError,KernelSpec,LocalModel,RateFit,RiskReport,RunRecord,"
    "SgmConfig,SpectralProblem,StepConditionReport,TrainPlan,apply_filter,average_models,"
    "basis_matrix,build_problem,capacity_certificate,check_step_condition,dataset_from_csv,"
    "dataset_to_csv,decompose_error,derive_seed,distributed_sa,distributed_sgm,"
    "effective_dimension,emit_rate_table,excess_risk_exact,excess_risk_mc,filter_from_tag,"
    "filter_value,fit_rate,gm_local,gram,kernel_cross,landweber,"
    "mode_projection,partition_data,partition_stream_seed,plan_parameters,population_bias,"
    "predict,problem_from_json,problem_to_json,"
    "read_records_csv,records_from_csv,records_to_csv,regression_value,residual_product,"
    "resolve_m,resolve_schedule,run_experiment,sa_local,sample_dataset,second_moment_bound,"
    "sgm_local,spectral_cutoff,spectral_kernel,splitmix64,sup_norm_bound,"
    "sym_eigendecompose,tail_mass,theory_exponent,tikhonov,tikhonov_bias_corrected,"
    "validate_filter,write_records_csv"
)

#: Fields of each settable dataclass, in order, and the keys a config file may set.
KNOBS = {
    kdc.ExperimentConfig: "regime,n_list,dim,gamma,zeta,source_norm,noise_sd,algorithm,scale,"
                          "filter,m_rule,replications,base_seed,out_path,theory_compliant",
    kdc.SgmConfig: "partitions,batch_size,iterations,step_schedule,base_seed",
    kdc.TrainPlan: "regime,algorithm,n_total,partitions,n_local,batch_size,iterations,eta,"
                   "eta_raw,lam,scale,zeta,gamma,clamped,partition_warning",
}
CONFIG_KEYS = (
    "regime,algorithm,filter,n_total,dim,m,replications,base_seed,iterations,batch_size,"
    "n_data,n_index,gamma,zeta,source_norm,noise_sd,scale,eta,lam,n_list,m_rule,out_path,"
    "theory_compliant"
)


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(kdc).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert ",".join(names) == PUBLIC_NAMES


def test_a_filter_spec_carries_its_own_level():
    # Lambda is bound when a filter is built; nothing that applies one takes it again.
    for fn in (kdc.filter_value, kdc.apply_filter, kdc.sa_local, kdc.distributed_sa):
        assert "lam" not in inspect.signature(fn).parameters, fn.__name__
    for build in (kdc.tikhonov, kdc.spectral_cutoff, kdc.tikhonov_bias_corrected):
        assert list(inspect.signature(build).parameters) == ["kappa_sq", "lam"]


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
