"""Kernel evaluation, plus the Gram-matrix algebra kept as a reference.

The kernel is the spectrally truncated sine kernel tied to a
:class:`~kdc.spectral_model.SpectralProblem`, whose integral operator has a
known spectrum. It has an exact rank-``dim`` feature map,
K(x, u) = sum_i sigma_i phi_i(x) phi_i(u), so the trainers work on the
n x dim feature matrix and, when n > dim, on the dim x dim covariance
built from it: one linear solve for Tikhonov, one ``eigh`` for the other
filters. An n x n array appears only when n <= dim. ``gram``,
``GramMatrix`` and ``sym_eigendecompose`` are the coefficient-space
(dual) route; tests and :func:`kdc.filters.apply_filter` use them as an
independent check of the trainers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionError, InvalidParameterError
from .spectral_model import SpectralProblem, _in_domain, basis_matrix

#: Relative tolerance (times trace/n) below which negative eigenvalues of a
#: Gram matrix are treated as floating-point noise and clamped to zero.
EIG_CLAMP_REL = 1e-8

#: Relative Frobenius tolerance for eigendecomposition reconstruction.
EIG_RECONSTRUCT_REL = 1e-8


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """The truncated spectral kernel of a problem."""

    problem: SpectralProblem

    def key(self):
        """Hashable identity used to check that models share a kernel."""
        return ("spectral", self.problem.problem_id)


def spectral_kernel(problem: SpectralProblem) -> KernelSpec:
    """Truncated kernel K(x,u) = sum_i sigma_i phi_i(x) phi_i(u) on [0,1]."""
    return KernelSpec(problem)


def kernel_features(spec: KernelSpec, xs) -> np.ndarray:
    """Feature matrix Phi = basis_matrix(dim, xs), shape (len(xs), dim).

    K(xs[j], us[k]) = sum_i sigma_i Phi[j, i] Phi_u[k, i]. Raises
    DomainError for points outside [0, 1], NaN included.
    """
    return basis_matrix(spec.problem.dim, _in_domain(xs))


def kernel_eval(spec: KernelSpec, x: float, u: float) -> float:
    """Evaluate K(x, u) for a single pair of points."""
    return float(kernel_cross(spec, x, u)[0, 0])


def kernel_cross(spec: KernelSpec, xs, us) -> np.ndarray:
    """Matrix of kernel values K(xs[j], us[k]), shape (len(xs), len(us))."""
    fx = kernel_features(spec, xs)
    fu = kernel_features(spec, us)
    return (fx * spec.problem.eigenvalues) @ fu.T


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Symmetric n x n matrix of pairwise kernel values."""

    n: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (self.n, self.n):
            raise InvalidParameterError("entries must be an n x n matrix")
        asym = float(np.max(np.abs(e - e.T))) if self.n else 0.0
        if asym > 1e-12 * max(1.0, float(np.max(np.abs(e)))):
            raise InvalidParameterError("Gram matrix must be symmetric")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


def gram(spec: KernelSpec, inputs) -> GramMatrix:
    """Build the Gram matrix of ``inputs``.

    (1/n) times this matrix represents the empirical covariance operator on
    coefficient vectors. Construction is exactly symmetric (the cross matrix
    is symmetrized to remove BLAS rounding asymmetry).
    """
    xs = np.atleast_1d(np.asarray(inputs, dtype=float))
    if xs.size == 0:
        raise InvalidParameterError("inputs must be nonempty")
    m = kernel_cross(spec, xs, xs)
    m = 0.5 * (m + m.T)
    return GramMatrix(n=xs.size, entries=m)


def sym_eigendecompose(g) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix; eigenvalues descending.

    Accepts a GramMatrix or a raw symmetric ndarray. Tiny negative
    eigenvalues (within EIG_CLAMP_REL * trace/n of zero) are clamped to 0;
    anything more negative, or a reconstruction error beyond
    EIG_RECONSTRUCT_REL in relative Frobenius norm, raises
    EigendecompositionError. Returns (eigenvalues, eigenvectors) with
    eigenvectors in columns matching the eigenvalue order.
    """
    mat = g.entries if isinstance(g, GramMatrix) else np.asarray(g, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidParameterError("matrix must be square")
    n = mat.shape[0]
    sym = 0.5 * (mat + mat.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigensolver failed: {exc}") from exc

    norm = float(np.linalg.norm(sym))
    recon = vecs @ (vals[:, None] * vecs.T)
    err = float(np.linalg.norm(sym - recon))
    if err > EIG_RECONSTRUCT_REL * max(norm, np.finfo(float).tiny):
        raise EigendecompositionError(
            f"reconstruction error {err:.3e} exceeds {EIG_RECONSTRUCT_REL:.0e} "
            f"relative"
        )

    tol = EIG_CLAMP_REL * abs(float(np.trace(sym))) / n
    if np.any(vals < -tol):
        raise EigendecompositionError(
            f"matrix is not PSD within tolerance: min eigenvalue {vals.min():.3e}"
        )
    vals = np.where(vals < 0.0, 0.0, vals)

    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]
