from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import pickle

import numpy as np
import pytest

from kdc import (
    Dataset,
    DomainError,
    FilterSpec,
    InvalidParameterError,
    SpectralProblem,
    basis_matrix,
    build_problem,
    capacity_certificate,
    dataset_to_csv,
    effective_dimension,
    mode_projection,
    plan_parameters,
    problem_from_json,
    problem_to_json,
    regression_value,
    resolve_m,
    sa_local,
    sample_dataset,
    spectral_kernel,
    sup_norm_bound,
)
from kdc.spectral_model import MAX_DIM, MAX_N_TOTAL
from oracles import second_moment_bound, tail_mass, textbook_basis

# Two-mode problem, worked by hand: sigma = [1, 1/2], weights w = [1, 1/2],
# |w| = sqrt(5)/2, so g = [2, 1]/sqrt(5) and
#   a_1 = 1^0.5 * 2/sqrt(5)  = 0.8944271909999159
#   a_2 = (1/2)^0.5 * 1/sqrt(5) = 0.31622776601683794
A1_EXPECTED = 0.8944271909999159
A2_EXPECTED = 0.31622776601683794

# f(1/4) = a_1*sqrt(2)*sin(pi/4) + a_2*sqrt(2)*sin(pi/2) = a_1 + a_2*sqrt(2)
F_QUARTER = 1.3416407864998738

KAPPA_SQ_200_G1 = 6.5736410355431385
KAPPA_SQ_200_G05 = 2.462401141937548


@pytest.fixture(scope="module")
def two_mode():
    return build_problem(dim=2, gamma=1.0, zeta=0.5, source_norm=1.0, noise_sd=0.0)


def test_eigenvalues_follow_the_power_law(two_mode):
    np.testing.assert_allclose(two_mode.eigenvalues, [1.0, 0.5], rtol=1e-15)
    p = build_problem(dim=5, gamma=0.5, zeta=1.0)
    np.testing.assert_allclose(p.eigenvalues, [i ** -2.0 for i in range(1, 6)], rtol=1e-15)


def test_target_coefficients_match_hand_computation(two_mode):
    np.testing.assert_allclose(two_mode.target_coeffs, [A1_EXPECTED, A2_EXPECTED], rtol=1e-14)
    # Squared coefficient mass: 4/5 + 1/10 = 9/10.
    assert math.fsum(two_mode.target_coeffs**2) == pytest.approx(0.9, rel=1e-14)


def test_regression_value_frozen_oracle(two_mode):
    assert regression_value(two_mode, 0.25) == pytest.approx(F_QUARTER, rel=1e-15)
    # Vector input broadcasts.
    vals = regression_value(two_mode, np.array([0.25, 0.25]))
    np.testing.assert_allclose(vals, F_QUARTER, rtol=1e-15)


def test_regression_value_vanishes_at_the_boundary(two_mode):
    assert regression_value(two_mode, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert regression_value(two_mode, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_regression_value_rejects_points_outside_the_domain(two_mode):
    with pytest.raises(DomainError):
        regression_value(two_mode, -0.01)
    with pytest.raises(DomainError):
        regression_value(two_mode, np.array([0.5, 1.2]))


def test_basis_is_orthonormal_under_trapezoid_quadrature():
    # The sine basis is orthonormal in L2[0,1]; check it by quadrature.
    xs = np.linspace(0.0, 1.0, 20001)
    phi = basis_matrix(6, xs)
    gram = np.trapezoid(phi[:, :, None] * phi[:, None, :], xs, axis=0)
    np.testing.assert_allclose(gram, np.eye(6), atol=5e-8)


def test_basis_first_mode_integral():
    # integral of sqrt(2) sin(pi x) over [0,1] is 2*sqrt(2)/pi.
    xs = np.linspace(0.0, 1.0, 200001)
    phi1 = basis_matrix(1, xs)[:, 0]
    assert np.trapezoid(phi1, xs) == pytest.approx(0.9003163161571062, rel=1e-9)


def test_kernel_trace_constant_is_frozen(default_problem):
    assert default_problem.kappa_sq == pytest.approx(KAPPA_SQ_200_G1, rel=1e-15)
    p = build_problem(dim=200, gamma=0.5, zeta=0.5)
    assert p.kappa_sq == pytest.approx(KAPPA_SQ_200_G05, rel=1e-15)


def test_kernel_trace_dominates_pointwise_kernel_values(default_problem):
    xs = np.linspace(0.0, 1.0, 501)
    phi = basis_matrix(default_problem.dim, xs)
    diag = (phi**2) @ default_problem.eigenvalues
    assert np.all(diag <= default_problem.kappa_sq * (1.0 + 1e-12))


def test_build_problem_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        build_problem(dim=0)
    with pytest.raises(InvalidParameterError):
        build_problem(gamma=0.0)
    with pytest.raises(InvalidParameterError):
        build_problem(gamma=1.5)
    with pytest.raises(InvalidParameterError):
        build_problem(zeta=-0.5)
    with pytest.raises(InvalidParameterError):
        build_problem(source_norm=0.0)
    with pytest.raises(InvalidParameterError):
        build_problem(noise_sd=-0.1)


@pytest.mark.parametrize("name, value, message", [
    ("noise_sd", math.nan, "noise_sd must be >= 0 and finite"),
    ("noise_sd", math.inf, "noise_sd must be >= 0 and finite"),
    ("source_norm", math.inf, "source_norm must be positive and finite"),
    ("source_norm", math.nan, "source_norm must be positive and finite"),
    ("source_norm", 10**400, "source_norm must be positive and finite"),
    ("zeta", math.nan, "zeta must be positive and finite"),
    ("zeta", 10**400, "zeta must be positive and finite"),
    ("zeta", True, "zeta must be positive and finite"),
], ids=["noise-nan", "noise-inf", "norm-inf", "norm-nan", "norm-400-digits", "zeta-nan",
        "zeta-400-digits", "zeta-true"])
def test_problem_parameters_must_be_finite(two_mode, name, value, message):
    # NaN fails every comparison, so a check of the form `x <= 0` alone lets it through.
    with pytest.raises(InvalidParameterError, match=message):
        build_problem(**{name: value})
    with pytest.raises(InvalidParameterError, match=message):
        dataclasses.replace(two_mode, **{name: value})


@pytest.mark.parametrize("kappa_sq", [math.nan, math.inf, 10**400])
def test_a_problem_needs_a_finite_kernel_bound(two_mode, kappa_sq):
    # kappa_sq is derived, so replace() refuses it and a document's must be a finite number.
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(two_mode, kappa_sq=kappa_sq)
    with pytest.raises(InvalidParameterError, match="'kappa_sq': must be a number"):
        problem_from_json(_problem_document(two_mode, kappa_sq=kappa_sq))


@pytest.mark.parametrize("name", ["eigenvalues", "target_coeffs", "kappa_sq"])
def test_a_problem_is_given_only_its_parameters(two_mode, name):
    value = getattr(two_mode, name)
    with pytest.raises(TypeError, match=name):
        SpectralProblem(2, 1.0, 0.5, 1.0, 0.0, **{name: value})
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(two_mode, **{name: value})


def test_effective_dimension_hand_sum():
    # sigma = [1, 1/4, 1/9] at lambda=1: 1/2 + 1/5 + 1/10 = 0.8.
    p = build_problem(dim=3, gamma=0.5, zeta=0.5)
    assert effective_dimension(p, 1.0) == pytest.approx(0.8, rel=1e-14)


def test_effective_dimension_is_decreasing_in_lambda(default_problem):
    lams = np.logspace(-4, 0, 9)
    vals = [effective_dimension(default_problem, lam) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < default_problem.dim


def test_capacity_certificate_holds_on_default_grid(default_problem):
    report = capacity_certificate(default_problem)
    assert report["ok"]
    assert report["pointwise_ok"]
    assert 0 < report["c_observed"] <= report["c_bound"] * (1.0 + 1e-12)


def test_tail_mass_dominates_the_true_tail():
    # For gamma < 1 the dropped mass sum_{i > d} i^(-1/gamma) must sit
    # below the reported integral bound; estimate the tail directly.
    for dim, gamma in ((50, 0.5), (30, 0.8)):
        idx = np.arange(dim + 1, dim + 2_000_001, dtype=float)
        partial = float(np.sum(idx ** (-1.0 / gamma)))
        assert partial <= tail_mass(dim, gamma)
    # The harmonic case diverges: truncation is the model, the bound is inf.
    assert tail_mass(200, 1.0) == math.inf


def test_sup_norm_bound_dominates_sampled_values(two_mode):
    xs = np.linspace(0.0, 1.0, 2001)
    bound = sup_norm_bound(two_mode)
    assert np.max(np.abs(regression_value(two_mode, xs))) <= bound + 1e-12


def test_second_moment_bound_dominates_label_variance(default_problem):
    data = sample_dataset(default_problem, 4000, seed=5)
    assert np.mean(data.labels**2) <= second_moment_bound(default_problem)


def test_sample_dataset_is_deterministic_and_in_domain(default_problem):
    a = sample_dataset(default_problem, 64, seed=3)
    b = sample_dataset(default_problem, 64, seed=3)
    c = sample_dataset(default_problem, 64, seed=4)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, c.labels)
    assert np.all((a.inputs >= 0.0) & (a.inputs <= 1.0))
    assert len(a) == 64


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64")
def test_basis_matrix_is_at_least_as_accurate_as_the_textbook_formula():
    # Truth in long double, pi included; the float64 points are exact inputs.
    x = np.concatenate([np.random.default_rng(4).random(3000),
                        [0.0, 0.5, 1.0, 2.0**-30, 5e-324, 1.0 - 2.0**-53]])
    pi = 4 * np.arctan(np.longdouble(1))
    for dim in (1, 20, 200, 400, 4000):
        modes = np.arange(1, dim + 1, dtype=np.longdouble)
        err_new = err_textbook = gap = 0.0
        for chunk in np.array_split(x, 12):
            angles = pi * np.outer(chunk.astype(np.longdouble), modes)
            truth = np.sqrt(np.longdouble(2)) * np.sin(angles)
            new, textbook = basis_matrix(dim, chunk), textbook_basis(dim, chunk)
            err_new = max(err_new, float(np.max(np.abs(new - truth))))
            err_textbook = max(err_textbook, float(np.max(np.abs(textbook - truth))))
            gap = max(gap, float(np.max(np.abs(new - textbook))))
        assert err_new <= err_textbook, (dim, err_new, err_textbook)
        assert gap <= 2e-15 * dim, (dim, gap)


def test_a_points_basis_row_does_not_depend_on_its_batch():
    from kdc import spectral_model

    block = spectral_model._BASIS_BLOCK
    x = np.random.default_rng(9).random(3 * block + 5)
    for dim in (1, 9, 200, 300):
        full = basis_matrix(dim, x)
        for n in (1, block - 1, block, block + 1, 2 * block + 1):
            for offset in (0, 3, block - 1):
                np.testing.assert_array_equal(basis_matrix(dim, x[offset:offset + n]),
                                              full[offset:offset + n])
        for j in range(0, x.size, 29):
            np.testing.assert_array_equal(basis_matrix(dim, x[j]), full[j:j + 1])


def test_sampled_datasets_carry_their_read_only_basis_matrix(default_problem):
    data = sample_dataset(default_problem, 40, seed=6)
    np.testing.assert_array_equal(data.features, basis_matrix(default_problem.dim, data.inputs))
    assert not data.features.flags.writeable


def test_dataset_features_need_one_row_per_input(default_problem):
    # Features are derived, never given: not even a matching Phi can be swapped in.
    data = sample_dataset(default_problem, 10, seed=6)
    for bad in (data.features[:9], data.features[0], data.features):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(data, features=bad)


def test_noiseless_labels_equal_the_regression_function():
    p = build_problem(dim=20, gamma=1.0, zeta=0.5, noise_sd=0.0)
    data = sample_dataset(p, 32, seed=11)
    np.testing.assert_array_equal(data.labels, regression_value(p, data.inputs))


def test_noise_level_matches_declared_sd(default_problem):
    data = sample_dataset(default_problem, 20000, seed=17)
    resid = data.labels - regression_value(default_problem, data.inputs)
    # SE of the sd estimate is about sd/sqrt(2n) ~ 0.0015; allow 5 SEs.
    assert np.std(resid) == pytest.approx(0.3, abs=0.008)


def test_problem_json_round_trip(default_problem):
    text = problem_to_json(default_problem)
    clone = problem_from_json(text)
    assert clone.dim == default_problem.dim
    assert clone.gamma == default_problem.gamma
    assert clone.zeta == default_problem.zeta
    assert clone.source_norm == default_problem.source_norm
    assert clone.noise_sd == default_problem.noise_sd
    assert clone.kappa_sq == default_problem.kappa_sq
    np.testing.assert_array_equal(clone.eigenvalues, default_problem.eigenvalues)
    np.testing.assert_array_equal(clone.target_coeffs, default_problem.target_coeffs)
    assert clone.problem_id == default_problem.problem_id


def test_a_pickled_problem_is_rebuilt_checked_and_read_only(default_problem):
    clone = pickle.loads(pickle.dumps(default_problem))
    assert problem_to_json(clone) == problem_to_json(default_problem)
    assert clone.problem_id == default_problem.problem_id
    assert not clone.eigenvalues.flags.writeable
    assert not clone.target_coeffs.flags.writeable
    # A copy derives kappa_sq afresh from the parameters, which it checks.
    object.__setattr__(clone, "kappa_sq", -1.0)
    assert pickle.loads(pickle.dumps(clone)).kappa_sq == default_problem.kappa_sq
    object.__setattr__(clone, "gamma", -1.0)
    with pytest.raises(InvalidParameterError, match=r"gamma must lie in \(0, 1\]"):
        pickle.loads(pickle.dumps(clone))


def test_problem_id_survives_the_json_round_trip_with_integer_parameters():
    # A JSON config may give "gamma": 1; the problem must hash as its round trip does.
    problem = build_problem(dim=20, gamma=1, zeta=1, source_norm=2, noise_sd=0)
    clone = problem_from_json(problem_to_json(problem))
    assert clone.problem_id == problem.problem_id
    assert problem_to_json(clone) == problem_to_json(problem)
    data = sample_dataset(clone, 16, seed=0)
    model = sa_local(data, FilterSpec("tikhonov", clone.kappa_sq, 0.1), spectral_kernel(clone))
    np.testing.assert_array_equal(mode_projection(problem, model), model.modes)


def test_problem_json_schema_is_exactly_eight_keys(default_problem):
    import json

    payload = json.loads(problem_to_json(default_problem))
    assert set(payload) == {
        "dim",
        "gamma",
        "zeta",
        "source_norm",
        "noise_sd",
        "kappa_sq",
        "eigenvalues",
        "target_coeffs",
    }


def test_problem_id_is_stable(default_problem):
    assert default_problem.problem_id == "e4f80fe81dfc"
    assert build_problem(dim=200, gamma=1.0, zeta=0.5, noise_sd=0.3).problem_id == "e4f80fe81dfc"
    # Any parameter change moves the digest.
    assert build_problem(dim=200, gamma=0.5, zeta=0.5).problem_id != "e4f80fe81dfc"
    assert build_problem(dim=200, gamma=1.0, zeta=0.5, noise_sd=0.0).problem_id != "e4f80fe81dfc"


def test_problem_id_is_hashed_once_per_object(monkeypatch):
    from kdc import spectral_model

    problem = build_problem(dim=200, gamma=1.0, zeta=0.5, noise_sd=0.3)
    real = spectral_model.problem_to_json
    calls = []
    monkeypatch.setattr(
        spectral_model, "problem_to_json", lambda p: calls.append(p) or real(p)
    )
    kernels = (spectral_kernel(problem), spectral_kernel(problem))
    assert {k.key() for k in kernels for _ in range(5)} == {("spectral", "e4f80fe81dfc")}
    assert calls == [problem]
    # replace() builds a new object, which hashes its own fields afresh.
    assert dataclasses.replace(problem, noise_sd=0.0).problem_id != "e4f80fe81dfc"
    assert dataclasses.replace(problem).problem_id == "e4f80fe81dfc"
    assert len(calls) == 3


def test_kappa_sq_is_the_grid_maximum_on_first_and_repeated_builds():
    from kdc import spectral_model

    spectral_model._kappa_sq.cache_clear()
    grid = np.linspace(0.0, 1.0, spectral_model.KAPPA_GRID_POINTS)
    for dim, gamma in ((1, 1.0), (7, 0.3), (50, 0.5), (200, 1), (200, 1.0), (200, 0.5)):
        eigenvalues = np.arange(1, dim + 1, dtype=float) ** (-1.0 / gamma)
        expected = float(((textbook_basis(dim, grid) ** 2) @ eigenvalues).max())
        first = build_problem(dim=dim, gamma=gamma)
        again = build_problem(dim=dim, gamma=gamma, zeta=1.0, noise_sd=0.3)
        assert first.kappa_sq == pytest.approx(expected, rel=1e-15)
        assert again.kappa_sq == first.kappa_sq
        assert first is not again
    # (200, 1) and (200, 1.0) share one memo entry.
    assert spectral_model._kappa_sq.cache_info().misses == 5
    assert build_problem(dim=200, gamma=1.0, zeta=0.5, noise_sd=0.3).problem_id == "e4f80fe81dfc"


def test_problems_and_datasets_compare_by_identity(default_problem):
    twin = problem_from_json(problem_to_json(default_problem))
    data = sample_dataset(default_problem, 8, seed=1)
    again = sample_dataset(default_problem, 8, seed=1)
    assert default_problem == default_problem and default_problem != twin
    assert data == data and data != again
    assert len({default_problem, twin, data, again, data}) == 4


def test_dataset_csv_round_trip_is_exact(default_problem):
    data = sample_dataset(default_problem, 25, seed=9)
    text = dataset_to_csv(data)
    first = text.splitlines()[0]
    assert first == "x,y"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert all(len(row) == 2 for row in rows)
    assert all(value == f"{float(value):.17g}" for row in rows for value in row)
    np.testing.assert_array_equal([float(x) for x, _ in rows], data.inputs)
    np.testing.assert_array_equal([float(y) for _, y in rows], data.labels)


def _problem_document(problem, drop=(), **changes):
    doc = json.loads(problem_to_json(problem))
    doc.update(changes)
    for name in drop:
        del doc[name]
    return json.dumps(doc)


@pytest.mark.parametrize("edit, message", [
    (dict(eigenvalues=[1.0, 0.5, 0.25]), "does not match its parameters: eigenvalues$"),
    (dict(eigenvalues=[0.5, 1.0]), "does not match its parameters: eigenvalues$"),
    (dict(kappa_sq=0.5), "does not match its parameters: kappa_sq$"),
    (dict(source_norm=2.0), "does not match its parameters: target_coeffs$"),
    (dict(drop=("noise_sd",)), "exactly the fields"),
    (dict(dim="5"), "'dim': must be an integer"),
    (dict(dim=2.0), "'dim': must be an integer"),
    (dict(gamma="abc"), "malformed field"),
    (dict(target_coeffs={"a": 1}), "malformed field"),
    (dict(gamma="1.0"), "'gamma': must be a number"),
    (dict(noise_sd=True), "'noise_sd': must be a number"),
    (dict(kappa_sq=None), "'kappa_sq': must be a number"),
    (dict(eigenvalues=["1.0", "0.5"]), "'eigenvalues': must be a list of numbers"),
    (dict(target_coeffs=A1_EXPECTED), "'target_coeffs': must be a list of numbers"),
    (dict(noise_sd=math.nan), "'noise_sd': must be a number, got nan"),
    (dict(kappa_sq=math.inf), "'kappa_sq': must be a number, got inf"),
    (dict(source_norm=10**400), "'source_norm': must be a number, got 1000"),
    (dict(eigenvalues=[1.0, math.nan]), "'eigenvalues': must be a list of numbers"),
    (dict(target_coeffs=[10**400, 0.5]), "'target_coeffs': must be a list of numbers"),
], ids=["lengths", "order", "kappa-sq", "smoothness", "missing-field", "dim-string",
        "dim-float", "gamma-string", "coeffs-object", "gamma-numeric-string", "noise-bool",
        "kappa-sq-null", "eigenvalues-strings", "coeffs-scalar", "noise-nan", "kappa-sq-inf",
        "source-norm-400-digits", "eigenvalues-nan", "coeffs-400-digits"])
def test_problem_documents_are_checked_field_by_field(two_mode, edit, message):
    with pytest.raises(InvalidParameterError, match=message):
        problem_from_json(_problem_document(two_mode, **edit))


def test_a_document_with_a_spectrum_its_gamma_does_not_derive_is_rejected():
    # gamma 1.0 with the i^-2 spectrum of dim 20, its own target, and a kappa_sq of 1.0,
    # below the grid maximum of K(x, x) (about 2.42): a step of 0.5 would pass unclamped.
    doc = _problem_document(build_problem(dim=20, gamma=0.5), gamma=1.0, kappa_sq=1.0)
    assert json.loads(doc)["eigenvalues"][1] == 0.25
    with pytest.raises(InvalidParameterError, match="does not match its parameters: "
                                                   "eigenvalues, target_coeffs, kappa_sq$"):
        problem_from_json(doc)


@pytest.mark.parametrize("text, message", [
    ("not json", "not JSON"),
    (json.dumps(["dim", "gamma", "zeta", "source_norm", "noise_sd", "eigenvalues",
                 "target_coeffs", "kappa_sq"]), "must be a JSON object"),
], ids=["not-json", "list-of-field-names"])
def test_a_problem_document_must_be_a_json_object(text, message):
    with pytest.raises(InvalidParameterError, match=message):
        problem_from_json(text)


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 2**63, 10**400])
def test_an_oversized_dim_is_a_parameter_error(dim):
    with pytest.raises(InvalidParameterError, match=f"dim must be <= {MAX_DIM}"):
        build_problem(dim=dim)


@pytest.mark.parametrize("dim", [2.5, 20.0, math.nan, True, None, "20", np.int64(20)])
def test_a_dim_that_is_not_an_integer_is_a_parameter_error(dim):
    with pytest.raises(InvalidParameterError, match="dim must be an integer"):
        build_problem(dim=dim)
    with pytest.raises(InvalidParameterError, match="dim must be an integer"):
        tail_mass(dim, 0.5)


@pytest.mark.parametrize("dim, gamma, message", [
    (MAX_DIM + 1, 0.5, f"dim must be <= {MAX_DIM}"),
    (10, math.nan, r"gamma must lie in \(0, 1\]"),
    (10, None, r"gamma must lie in \(0, 1\]"),
])
def test_tail_mass_applies_the_family_rules(dim, gamma, message):
    with pytest.raises(InvalidParameterError, match=message):
        tail_mass(dim, gamma)
    with pytest.raises(InvalidParameterError, match=message):
        build_problem(dim=dim, gamma=gamma)


@pytest.mark.parametrize("n_total", [MAX_N_TOTAL + 1, 2**63, 10**30, 10**400])
def test_an_oversized_sample_is_a_parameter_error(two_mode, n_total):
    # One sample-size rule for drawing, resolving m and planning.
    for call in (lambda: sample_dataset(two_mode, n_total, seed=0),
                 lambda: resolve_m(n_total, "pow:0.5"),
                 lambda: plan_parameters("cor5", n_total, 1, 0.5, 1.0)):
        with pytest.raises(InvalidParameterError, match=f"n_total must be <= {MAX_N_TOTAL}"):
            call()


def test_invalid_sampling_and_spectral_parameters_are_rejected(two_mode):
    with pytest.raises(InvalidParameterError, match="inputs and labels must be equal-length"):
        Dataset(inputs=np.array([0.1, 0.2]), labels=np.array([0.3]))
    with pytest.raises(InvalidParameterError, match="n_total must be >= 1"):
        sample_dataset(two_mode, 0, seed=0)
    for lam in (0.0, -1.0, math.nan, math.inf, None):
        with pytest.raises(InvalidParameterError, match="lambda must be positive and finite"):
            effective_dimension(two_mode, lam)
    with pytest.raises(InvalidParameterError, match="dim must be >= 1"):
        tail_mass(0, 0.5)
    for gamma in (0.0, 1.5):
        with pytest.raises(InvalidParameterError, match=r"gamma must lie in \(0, 1\]"):
            tail_mass(10, gamma)
