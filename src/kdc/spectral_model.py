"""Synthetic kernel-regression problems with a fully known spectrum.

The problems live on X = [0, 1] with the uniform input measure and the
orthonormal sine basis phi_i(x) = sqrt(2) sin(i*pi*x). The integral operator
of the (truncated) kernel then has exactly the prescribed eigenvalues
sigma_i = i^(-1/gamma), and the regression function is an explicit finite
sine series, so excess risk, effective dimension, and smoothness norms are
all computable in closed form. That exactness is what makes convergence-rate
experiments meaningful at small sample sizes. A problem is its five parameters
(PROBLEM_PARAMS): the spectrum, the target and kappa_sq are derived from them,
never given, and a problem document must match them. A sample is its
inputs and labels: :func:`sample_dataset` attaches the basis matrix Phi it
evaluates for the labels as the read-only ``features``, so each sample's basis
is evaluated once, and no other dataset carries one. Phi comes from angle
doubling, at least as accurate as np.sin, and kappa_sq from one FFT.
The covariance Phi^T Phi of sine features is Hankel minus Toeplitz in 2 dim + 1
moments (:func:`basis_covariance`), so it costs O(n dim), not O(n dim^2).
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InvalidParameterError
from .seeding import check_integer, is_integer, make_rng

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
    """Raise InvalidParameterError unless ``value`` is positive and finite (true/false is not)."""
    if isinstance(value, (bool, np.bool_)) or not (is_finite(value) and value > 0):
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")


def check_sample_size(n_total: int) -> None:
    """The sample-size rule: n_total is an integer in [1, MAX_N_TOTAL]."""
    check_integer("n_total", n_total)
    if n_total < 1:
        raise InvalidParameterError("n_total must be >= 1")
    if n_total > MAX_N_TOTAL:
        raise InvalidParameterError(f"n_total must be <= {MAX_N_TOTAL}")


#: Each JSON kind a field may be declared as, with its test; true/false is never a number.
JSON_KINDS = {
    "an integer": is_integer,
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and is_finite(v),
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an integer or a string": lambda v: is_integer(v) or isinstance(v, str),
    "a list of integers": lambda v: isinstance(v, (list, tuple)) and all(map(is_integer, v)),
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


def _check_dim(dim: int) -> None:
    """The truncation rule: dim is an integer in [1, MAX_DIM]."""
    check_integer("dim", dim)
    if dim < 1:
        raise InvalidParameterError("dim must be >= 1")
    if dim > MAX_DIM:
        raise InvalidParameterError(f"dim must be <= {MAX_DIM}")


def _check_gamma(gamma: float) -> None:
    """The capacity rule: gamma lies in (0, 1]."""
    if not (is_finite(gamma) and 0.0 < gamma <= 1.0):
        raise InvalidParameterError("gamma must lie in (0, 1]")


def check_exponents(zeta: float, gamma: float) -> None:
    """The family's exponent rule: source exponent zeta > 0, capacity gamma in (0, 1]."""
    _check_gamma(gamma)
    check_positive("zeta", zeta)


def check_problem_params(dim: int, gamma: float, zeta: float, source_norm: float,
                         noise_sd: float) -> None:
    """Validate the family's parameters (PROBLEM_PARAMS), each real one finite."""
    _check_dim(dim)
    check_exponents(zeta, gamma)
    check_positive("source_norm", source_norm)
    if not (is_finite(noise_sd) and noise_sd >= 0):
        raise InvalidParameterError(f"noise_sd must be >= 0 and finite, got {noise_sd!r}")


def reduce_through_init(obj):
    """Pickle a checked dataclass as a call of its class, so that a copy is checked and
    read-only too: unpickling otherwise skips __post_init__, and numpy's read-only flag."""
    return type(obj), tuple(getattr(obj, f.name) for f in fields(obj) if f.init)


@dataclass(frozen=True, eq=False)
class SpectralProblem:
    """A synthetic learning problem: its five parameters (PROBLEM_PARAMS), and what they fix.

    Only the parameters are given. The spectrum, the target and kappa_sq are
    derived from them, so they cannot disagree, and neither the constructor
    nor ``dataclasses.replace`` takes them.

    Attributes
    ----------
    dim : int
        Number of retained eigenpairs (truncation order).
    gamma : float
        Capacity exponent in (0, 1]; eigenvalues decay like i^(-1/gamma).
    zeta : float
        Source-condition exponent the target is certified for (larger =
        smoother): sum (a_i / sigma_i^zeta)^2 == R^2. It is a lower bound
        on the target's smoothness, not its exact value.
    source_norm : float
        The smoothness norm R: sum (a_i / sigma_i^zeta)^2 == R^2.
    noise_sd : float
        Standard deviation of the additive Gaussian label noise.
    eigenvalues : ndarray of shape (dim,), derived
        Spectrum sigma_i = i^(-1/gamma) of the integral operator.
    target_coeffs : ndarray of shape (dim,), derived
        Coefficients a_i of the regression function in the sine basis
        (:func:`build_problem` says how they are chosen).
    kappa_sq : float, derived
        The bound sup_x K(x, x), maximized over the evaluation grid.
    """

    dim: int
    gamma: float
    zeta: float
    source_norm: float
    noise_sd: float
    eigenvalues: np.ndarray = field(init=False)
    target_coeffs: np.ndarray = field(init=False)
    kappa_sq: float = field(init=False)

    def __post_init__(self) -> None:
        check_problem_params(self.dim, self.gamma, self.zeta, self.source_norm, self.noise_sd)
        sigma = _eigenvalues(self.dim, self.gamma)
        weights = 1.0 / np.arange(1, self.dim + 1, dtype=float)
        target = sigma**self.zeta * (self.source_norm * weights / np.linalg.norm(weights))
        for name, array in (("eigenvalues", sigma), ("target_coeffs", target)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "kappa_sq", _kappa_sq(self.dim, self.gamma))
        # Stored as floats, so that a problem and its JSON round trip share one label.
        for name in PROBLEM_PARAMS[1:]:
            object.__setattr__(self, name, float(getattr(self, name)))

    __reduce__ = reduce_through_init

    @property
    def problem_id(self) -> str:
        """A 12-hex-digit content hash of the problem's JSON, the label ``kdc gen-problem``
        prints; models are matched to problems by their parameters, not by this label."""
        return hashlib.sha256(problem_to_json(self).encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class Dataset:
    """An i.i.d. sample (x_j, y_j): its inputs and labels, copied and read-only.

    ``features`` is derived, never given: :func:`sample_dataset` sets it to
    the Phi = basis_matrix(dim, inputs) it evaluates for the labels, read-only,
    and every other dataset (built by hand, by ``dataclasses.replace``, by a
    copy or by :func:`kdc.trainers.partition_data`) has None. So a fit reads
    the Phi of the rows it fits, whichever way the sample was made; the
    trainers evaluate Phi when ``features`` is None or not dim wide.
    """

    inputs: np.ndarray
    labels: np.ndarray
    features: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        x = np.array(self.inputs, dtype=float)  # a copy: the caller's arrays stay writable
        y = np.array(self.labels, dtype=float)
        if x.ndim != 1 or y.shape != x.shape:
            raise InvalidParameterError("inputs and labels must be equal-length 1-d")
        for name, arr in (("inputs", x), ("labels", y)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    __reduce__ = reduce_through_init

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


def basis_covariance(phi: np.ndarray) -> np.ndarray:
    """Phi^T Phi of a sine basis matrix Phi = basis_matrix(dim, x), shape (dim, dim).

    2 sin(k t) sin(l t) = cos((k - l) t) - cos((k + l) t), so the (k, l) entry is
    Q[k + l] - Q[|k - l|], Hankel minus Toeplitz in 2 dim + 1 moments read off Phi's
    columns: Q_0 = Q_1 = 0, Q_2i = sum_j Phi_ji^2 and Q_2i+1 = sum_j Phi_ji Phi_j,i+1.
    O(n dim) for the moments, with no n x dim temporary, and one dim x dim array for
    the result, exactly symmetric. It holds only for rows of ``basis_matrix``.
    """
    dim = phi.shape[1]
    q = np.zeros(2 * dim + 1)
    q[2::2] = np.einsum("ji,ji->i", phi, phi)
    q[3::2] = np.einsum("ji,ji->i", phi[:, :-1], phi[:, 1:])
    # Q[|m - (dim - 1)|] for m = 0 ... 2 dim - 2, whose windows read backwards are Q[|k - l|].
    toeplitz = np.concatenate((q[dim - 1:0:-1], q[:dim]))
    return np.subtract(sliding_window_view(q[2:], dim), sliding_window_view(toeplitz, dim)[::-1])


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
    """Construct a problem with polynomial eigenvalue decay i^(-1/gamma): the
    :class:`SpectralProblem` of these parameters, which derives the rest.

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
    return SpectralProblem(dim, gamma, zeta, source_norm, noise_sd)


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

    Deterministic given (problem, n_total, seed). The dataset carries the
    Phi = basis_matrix(problem.dim, inputs) of its labels as its read-only
    ``features``; this is the one place a dataset is given them.
    """
    check_sample_size(n_total)
    rng = make_rng(seed)
    inputs = rng.random(n_total)
    features = basis_matrix(problem.dim, inputs)
    labels = features @ problem.target_coeffs
    if problem.noise_sd > 0:
        labels = labels + problem.noise_sd * rng.standard_normal(n_total)
    dataset = Dataset(inputs, labels)
    features.setflags(write=False)
    object.__setattr__(dataset, "features", features)
    return dataset


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


def sup_norm_bound(problem: SpectralProblem) -> float:
    """Grid-free bound |f(x)| <= sqrt(2) * sum |a_i| on the target."""
    return math.sqrt(2.0) * float(np.sum(np.abs(problem.target_coeffs)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def problem_to_json(problem: SpectralProblem) -> str:
    """Serialize a problem to JSON with the fixed field set; arrays become lists."""
    doc = {name: getattr(problem, name) for name in _JSON_FIELDS}
    return json.dumps(doc, default=lambda array: array.tolist())


def problem_from_json(text: str) -> SpectralProblem:
    """Inverse of :func:`problem_to_json`: the problem of the document's parameters.

    A document that is not JSON, not an object of exactly these fields, or
    holds a value of the wrong kind raises InvalidParameterError: ``dim`` is
    an integer, the arrays are lists of numbers and the other fields numbers,
    each number a finite float. So does one whose arrays or kappa_sq are not
    the ones its parameters derive.
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
    problem = SpectralProblem(*(doc[name] for name in PROBLEM_PARAMS))
    derived = json.loads(problem_to_json(problem))
    wrong = [name for name in _JSON_FIELDS if doc[name] != derived[name]]
    if wrong:
        raise InvalidParameterError(
            f"problem document does not match its parameters: {', '.join(wrong)}")
    return problem


def dataset_to_csv(ds: Dataset) -> str:
    """Serialize a dataset to CSV: header ``x,y``, 17 significant digits."""
    buf = io.StringIO()
    buf.write("x,y\n")
    for x, y in zip(ds.inputs, ds.labels):
        buf.write(f"{x:.17g},{y:.17g}\n")
    return buf.getvalue()

