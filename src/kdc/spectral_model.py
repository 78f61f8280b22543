"""Synthetic kernel-regression problems with a fully known spectrum.

The problems live on X = [0, 1] with the uniform input measure and the
orthonormal sine basis phi_i(x) = sqrt(2) sin(i*pi*x). The integral operator
of the (truncated) kernel then has exactly the prescribed eigenvalues
sigma_i = i^(-1/gamma), and the regression function is an explicit finite
sine series, so excess risk, effective dimension, and smoothness norms are
all computable in closed form. That exactness is what makes convergence-rate
experiments meaningful at small sample sizes.
A sampled :class:`Dataset` keeps the basis matrix Phi of its inputs as the
read-only ``features``, so each sample's basis is evaluated once. Phi comes
from angle doubling, at least as accurate as np.sin, and kappa_sq from one FFT.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError
from .seeding import make_rng

#: Number of equispaced grid points used to maximize K(x, x) over [0, 1].
KAPPA_GRID_POINTS = 10_001

#: Points per block of basis_matrix's complex scratch (dim x 128 values).
_BASIS_BLOCK = 128

#: Default truncation order of the spectrum.
DEFAULT_DIM = 200

#: Largest truncation order: basis_matrix's 128-point complex scratch is then
#: about 200 MB, and it is 25 times the largest dim the tests use (4,000).
MAX_DIM = 100_000

#: Largest sample sample_dataset draws: 2**24 points, 2,048 times the largest
#: sweep size the benchmarks run (8,192), so a size numpy cannot allocate is
#: rejected as a parameter.
MAX_N_TOTAL = 2**24

#: Parameters of the problem family: the arguments of :func:`build_problem`.
PROBLEM_PARAMS = ("dim", "gamma", "zeta", "source_norm", "noise_sd")


def is_finite(value) -> bool:
    """The rule for every real value: it converts to a finite float (NaN, inf, 10**400 do not)."""
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):
        return False


def check_positive(name: str, value) -> None:
    """Raise InvalidParameterError unless ``value`` is positive and finite."""
    if not (is_finite(value) and value > 0):
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")


#: Each JSON kind a field may be declared as, with its test; true/false is never a number.
JSON_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and is_finite(v),
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an integer or a string": lambda v: isinstance(v, (int, str)) and not isinstance(v, bool),
    "a list of integers": lambda v: isinstance(v, (list, tuple)) and set(map(type, v)) <= {int},
    "a list of numbers": lambda v: (isinstance(v, (list, tuple))
                                    and set(map(type, v)) <= {int, float}
                                    and all(map(is_finite, v))),
}


def check_json_types(doc: dict, table: dict, what: str) -> None:
    """Raise InvalidParameterError for the first ``table`` key in ``doc`` not of its JSON kind."""
    for key, kind in table.items():
        if key in doc and not JSON_KINDS[kind](doc[key]):
            raise InvalidParameterError(f"{what} {key!r}: must be {kind}, got {doc[key]!r}")


#: JSON kind of each field of a problem document, in document order.
_JSON_FIELDS = {"dim": "an integer", **dict.fromkeys(PROBLEM_PARAMS[1:], "a number"),
                **dict.fromkeys(("eigenvalues", "target_coeffs"), "a list of numbers"),
                "kappa_sq": "a number"}


def check_exponents(zeta: float, gamma: float) -> None:
    """The family's exponent rule: source exponent zeta > 0, capacity gamma in (0, 1]."""
    if not (0.0 < gamma <= 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1]")
    check_positive("zeta", zeta)


def check_problem_params(dim: int, gamma: float, zeta: float, source_norm: float,
                         noise_sd: float) -> None:
    """Validate the family's parameters (PROBLEM_PARAMS), each real one finite."""
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if dim > MAX_DIM:
        raise InvalidParameterError(f"dim must be <= {MAX_DIM}")
    check_exponents(zeta, gamma)
    check_positive("source_norm", source_norm)
    if not (is_finite(noise_sd) and noise_sd >= 0):
        raise InvalidParameterError(f"noise_sd must be >= 0 and finite, got {noise_sd!r}")


@dataclass(frozen=True, eq=False)
class SpectralProblem:
    """A synthetic learning problem defined by its kernel spectrum.

    Attributes
    ----------
    dim : int
        Number of retained eigenpairs (truncation order).
    eigenvalues : ndarray of shape (dim,)
        Spectrum sigma_1 >= sigma_2 >= ... > 0 of the integral operator.
    target_coeffs : ndarray of shape (dim,)
        Coefficients a_i of the regression function in the sine basis.
    zeta : float
        Source-condition exponent the target is certified for (larger =
        smoother): sum (a_i / sigma_i^zeta)^2 == R^2. It is a lower bound
        on the target's smoothness, not its exact value; targets from
        ``build_problem`` also satisfy the condition, with a norm bounded
        in dim, for every exponent below zeta + gamma/2.
    gamma : float
        Capacity exponent in (0, 1]; eigenvalues decay like i^(-1/gamma).
    source_norm : float
        The smoothness norm R: sum (a_i / sigma_i^zeta)^2 == R^2.
    noise_sd : float
        Standard deviation of the additive Gaussian label noise.
    kappa_sq : float
        Computed bound sup_x K(x, x) over the evaluation grid.
    """

    dim: int
    eigenvalues: np.ndarray
    target_coeffs: np.ndarray
    zeta: float
    gamma: float
    source_norm: float
    noise_sd: float
    kappa_sq: float

    def __post_init__(self) -> None:
        check_problem_params(self.dim, self.gamma, self.zeta, self.source_norm, self.noise_sd)
        check_positive("kappa_sq", self.kappa_sq)
        # Stored as floats, so that a problem and its JSON round trip share one id.
        for name in ("gamma", "zeta", "source_norm", "noise_sd", "kappa_sq"):
            object.__setattr__(self, name, float(getattr(self, name)))
        ev = np.asarray(self.eigenvalues, dtype=float)
        tc = np.asarray(self.target_coeffs, dtype=float)
        if ev.shape != (self.dim,) or tc.shape != (self.dim,):
            raise InvalidParameterError(
                "eigenvalues and target_coeffs must have length dim"
            )
        if not np.all(ev > 0) or np.any(np.diff(ev) > 0):
            raise InvalidParameterError(
                "eigenvalues must be strictly positive and non-increasing"
            )
        if self.kappa_sq < ev[0]:
            raise InvalidParameterError(
                "kappa_sq must dominate the operator norm (largest eigenvalue)"
            )
        smoothness = float(np.sum((tc / ev**self.zeta) ** 2))
        if not math.isclose(smoothness, self.source_norm**2, rel_tol=1e-10):
            raise InvalidParameterError(
                "target_coeffs violate the smoothness certificate: "
                f"sum (a/sigma^zeta)^2 = {smoothness!r}, expected "
                f"{self.source_norm**2!r}"
            )
        ev.setflags(write=False)
        tc.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "target_coeffs", tc)

    @property
    def problem_id(self) -> str:
        """Stable content hash identifying this problem across processes (computed once)."""
        if "_id" not in vars(self):
            digest = hashlib.sha256(problem_to_json(self).encode()).hexdigest()
            object.__setattr__(self, "_id", digest[:12])
        return self._id


@dataclass(frozen=True, eq=False)
class Dataset:
    """An i.i.d. sample (x_j, y_j) drawn from a spectral problem.

    ``problem_id`` ties the sample back to the generating problem;
    ``seed`` is the 64-bit seed that makes the draw reproducible.
    ``features``, when set, is Phi = basis_matrix(dim, inputs) of that
    problem, read-only; :func:`sample_dataset` sets it, and a dataset built
    by hand or read from CSV has None.
    """

    inputs: np.ndarray
    labels: np.ndarray
    problem_id: str
    seed: int
    features: np.ndarray | None = None

    def __post_init__(self) -> None:
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if x.ndim != 1 or y.shape != x.shape:
            raise InvalidParameterError("inputs and labels must be equal-length 1-d")
        arrays = {"inputs": x, "labels": y}
        if self.features is not None:
            arrays["features"] = np.asarray(self.features, dtype=float)
            if arrays["features"].ndim != 2 or arrays["features"].shape[0] != x.size:
                raise InvalidParameterError("features must hold one row per input")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.inputs.shape[0]


def basis_matrix(dim: int, x) -> np.ndarray:
    """Phi[j, i-1] = sqrt(2) sin(i*pi*x_j), shape (x.size, dim); ``x`` flattens as in np.outer.

    Phi = sqrt(2) Im z_i, z_i = exp(1j*i*pi*x), from cos and sin for i <= 8 and doublings
    z_{K+j} = z_K z_j after: O(log dim) roundings an entry, not sin's O(i). numpy's complex product
    rounds by array layout, so whole 128-point blocks (a short one padded) keep rows batch-free.
    """
    x = np.asarray(x, dtype=float).ravel()
    phi = np.empty((x.size, dim))
    block = np.zeros(_BASIS_BLOCK)
    z = np.empty((dim, _BASIS_BLOCK), dtype=complex)
    for start in range(0, x.size, _BASIS_BLOCK):
        rows = phi[start:start + _BASIS_BLOCK]
        block[:len(rows)] = x[start:start + _BASIS_BLOCK]
        angles = np.pi * np.outer(np.arange(1, min(dim, 8) + 1), block)
        np.cos(angles, out=z.real[:len(angles)])
        np.sin(angles, out=z.imag[:len(angles)])
        known = len(angles)
        while known < dim:
            new = z[known:2 * known]
            np.multiply(z[:len(new)], z[known - 1], out=new)
            known *= 2
        np.multiply(z.imag[:, :len(rows)].T, math.sqrt(2.0), out=rows)
    return phi


def _in_domain(x) -> np.ndarray:
    """``x`` as a float array; raises DomainError unless every point, NaN not, lies in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("points must lie in [0, 1], the domain of the sine basis")
    return arr


def _eigenvalues(dim: int, gamma: float) -> np.ndarray:
    return np.arange(1, dim + 1, dtype=float) ** (-1.0 / gamma)


@functools.lru_cache(maxsize=None)
def _kappa_sq(dim: int, gamma: float) -> float:
    """Max of K(x, x) on the grid x_j = j/M, M = KAPPA_GRID_POINTS - 1; memoized per (dim, gamma).

    K(x_j, x_j) = sum_i sigma_i (1 - cos(2 pi i j/M)) is Re rfft of sigma folded by i mod M,
    whose j <= M/2 cover the grid by symmetry: the exact maximum in O(M log M) for any dim.
    """
    eigenvalues = _eigenvalues(dim, gamma)
    period = KAPPA_GRID_POINTS - 1
    folded = np.bincount(np.arange(1, dim + 1) % period, weights=eigenvalues, minlength=period)
    return float(eigenvalues.sum() - np.fft.rfft(folded).real.min())


def build_problem(
    dim: int = DEFAULT_DIM,
    gamma: float = 1.0,
    zeta: float = 0.5,
    source_norm: float = 1.0,
    noise_sd: float = 0.0,
) -> SpectralProblem:
    """Construct a problem with polynomial eigenvalue decay i^(-1/gamma).

    The target coefficients are a_i = sigma_i^zeta * g_i with
    g = source_norm * w / ||w||_2 and mixing weights w_i = 1/i, so the
    smoothness certificate sum (a_i/sigma_i^zeta)^2 = source_norm^2 holds by
    construction. Because w_i = 1/i, sum (a_i/sigma_i^z)^2 also stays bounded
    as dim grows for every z < zeta + gamma/2, so the target is smoother than
    the class it is certified for and its risk may decay faster than the
    guaranteed rate.
    kappa_sq is the maximum of K(x, x) over an equispaced grid of
    KAPPA_GRID_POINTS points. It depends on (dim, gamma) only, so the grid
    is evaluated once per pair and process and then memoized; every call
    still returns a new problem object.
    """
    check_problem_params(dim, gamma, zeta, source_norm, noise_sd)
    eigenvalues = _eigenvalues(dim, gamma)
    weights = 1.0 / np.arange(1, dim + 1, dtype=float)
    mix = source_norm * weights / np.linalg.norm(weights)
    target_coeffs = eigenvalues**zeta * mix

    return SpectralProblem(
        dim=dim,
        eigenvalues=eigenvalues,
        target_coeffs=target_coeffs,
        zeta=zeta,
        gamma=gamma,
        source_norm=source_norm,
        noise_sd=noise_sd,
        kappa_sq=_kappa_sq(dim, gamma),
    )


def regression_value(problem: SpectralProblem, x):
    """Ground-truth regression function: sum_i a_i sqrt(2) sin(i*pi*x).

    Accepts a scalar or an array of points in [0, 1]; raises DomainError
    for points outside the domain, NaN included.
    """
    values = basis_matrix(problem.dim, _in_domain(x)) @ problem.target_coeffs
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(values[0])
    return values


def sample_dataset(problem: SpectralProblem, n_total: int, seed: int) -> Dataset:
    """Draw n_total i.i.d. points: x uniform on [0,1], y = f(x) + noise.

    Deterministic given (problem, n_total, seed).
    """
    if n_total < 1:
        raise InvalidParameterError("n_total must be >= 1")
    if n_total > MAX_N_TOTAL:
        raise InvalidParameterError(f"n_total must be <= {MAX_N_TOTAL}")
    rng = make_rng(seed)
    inputs = rng.random(n_total)
    features = basis_matrix(problem.dim, inputs)
    labels = features @ problem.target_coeffs
    if problem.noise_sd > 0:
        labels = labels + problem.noise_sd * rng.standard_normal(n_total)
    return Dataset(inputs=inputs, labels=labels, problem_id=problem.problem_id, seed=seed,
                   features=features)


def effective_dimension(problem: SpectralProblem, lam: float) -> float:
    """Effective dimension sum_i sigma_i / (sigma_i + lambda)."""
    check_positive("lambda", lam)
    ev = problem.eigenvalues
    return float(np.sum(ev / (ev + lam)))


def capacity_certificate(problem: SpectralProblem) -> dict:
    """Certify the capacity bound N(lambda) <= c * lambda^(-gamma) numerically.

    Checked at 200 geometric lambdas in [1e-6, 1]. For build_problem's
    decreasing summand sigma_i/(sigma_i + lambda) = 1/(1 + lambda i^(1/gamma)),
    the sum is dominated by its first term plus the integral of the summand
    from 1 to dim (an upper Riemann comparison). Both sides are computed, not
    assumed; the report carries the observed constant, the analytic-bound
    constant, and a per-grid-point pass flag.
    """
    lambda_grid = np.logspace(-6.0, 0.0, 200)
    gamma = problem.gamma
    # Dense geometric grid on [1, dim] for the integral upper bound.
    xs = np.geomspace(1.0, max(problem.dim, 2), 2001)
    observed = np.empty(lambda_grid.shape[0])
    bound = np.empty(lambda_grid.shape[0])
    for j, lam in enumerate(lambda_grid):
        observed[j] = effective_dimension(problem, lam) * lam**gamma
        integrand = 1.0 / (1.0 + lam * xs ** (1.0 / gamma))
        integral = float(np.sum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(xs)))
        bound[j] = (1.0 / (1.0 + lam) + integral) * lam**gamma
    c_observed = float(observed.max())
    c_bound = float(bound.max())
    return {
        "c_observed": c_observed,
        "c_bound": c_bound,
        "pointwise_ok": bool(np.all(observed <= bound * (1.0 + 1e-12))),
        "ok": c_observed <= c_bound * (1.0 + 1e-12),
    }


def tail_mass(dim: int, gamma: float) -> float:
    """Upper bound on the spectral mass sum_{i > dim} i^(-1/gamma) dropped
    by truncation.

    Uses the integral comparison (gamma/(1-gamma)) * dim^(1 - 1/gamma) for
    gamma < 1. For gamma = 1 the harmonic tail diverges and +inf is
    returned: the truncated kernel itself is then the modeled object.
    """
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if not (0.0 < gamma <= 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1]")
    if gamma == 1.0:
        return math.inf
    return (gamma / (1.0 - gamma)) * dim ** (1.0 - 1.0 / gamma)


def sup_norm_bound(problem: SpectralProblem) -> float:
    """Grid-free bound |f(x)| <= sqrt(2) * sum |a_i| on the target."""
    return math.sqrt(2.0) * float(np.sum(np.abs(problem.target_coeffs)))


def second_moment_bound(problem: SpectralProblem) -> float:
    """Operative bound on E[y^2 | x]: ||f||_inf^2 + noise variance."""
    return sup_norm_bound(problem) ** 2 + problem.noise_sd**2


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def problem_to_json(problem: SpectralProblem) -> str:
    """Serialize a problem to JSON with the fixed field set; arrays become lists."""
    doc = {name: getattr(problem, name) for name in _JSON_FIELDS}
    return json.dumps(doc, default=lambda array: array.tolist())


def problem_from_json(text: str) -> SpectralProblem:
    """Inverse of :func:`problem_to_json`; validates the field set and their JSON kinds.

    A document that is not JSON, not an object of exactly these fields, or
    holds a value of the wrong kind raises InvalidParameterError: ``dim`` is
    an integer, the arrays are lists of numbers and the other fields numbers,
    each number a finite float.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InvalidParameterError(f"problem document is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidParameterError("problem document must be a JSON object")
    if set(doc) != set(_JSON_FIELDS):
        raise InvalidParameterError(
            f"problem document must have exactly the fields {sorted(_JSON_FIELDS)}, "
            f"got {sorted(doc)}"
        )
    check_json_types(doc, _JSON_FIELDS, "problem document has a malformed field")
    return SpectralProblem(**doc)


def dataset_to_csv(ds: Dataset) -> str:
    """Serialize a dataset to CSV: header ``x,y``, 17 significant digits."""
    buf = io.StringIO()
    buf.write("x,y\n")
    for x, y in zip(ds.inputs, ds.labels):
        buf.write(f"{x:.17g},{y:.17g}\n")
    return buf.getvalue()


def dataset_from_csv(text: str, problem_id: str = "", seed: int = 0) -> Dataset:
    """Parse the ``x,y`` CSV format produced by :func:`dataset_to_csv`.

    A row that is not two numbers raises InvalidParameterError naming its line.
    """
    lines = [(num, ln) for num, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != "x,y":
        raise InvalidParameterError("dataset CSV must start with the header 'x,y'")
    xs, ys = [], []
    for num, ln in lines[1:]:
        try:
            a, b = ln.split(",")
            xs.append(float(a))
            ys.append(float(b))
        except ValueError:
            raise InvalidParameterError(
                f"dataset CSV line {num}: expected two numbers 'x,y', got {ln!r}") from None
    return Dataset(
        inputs=np.asarray(xs), labels=np.asarray(ys), problem_id=problem_id, seed=seed
    )
