"""Kernel evaluation, plus the Gram-matrix algebra kept as a reference.

The kernel is the spectrally truncated sine kernel tied to a
:class:`~kdc.spectral_model.SpectralProblem`, whose integral operator has a
known spectrum. It has an exact rank-``dim`` feature map,
K(x, u) = sum_i sigma_i phi_i(x) phi_i(u), so the trainers work on the
n x dim feature matrix and, when n > dim, on the dim x dim covariance
Phi^T Phi, which for sine features is built from 2 dim + 1 moments of Phi
in O(n dim) (:func:`kdc.spectral_model.basis_covariance`): one linear solve
for Tikhonov, one ``eigh`` for the other filters. An n x n array appears
only when n <= dim. ``gram`` and ``sym_eigendecompose`` are the
coefficient-space (dual) route on plain arrays, and the latter checks every
Gram matrix; tests and :func:`kdc.filters.apply_filter` use them to check
the trainers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionError, InvalidParameterError
from .spectral_model import PROBLEM_PARAMS, SpectralProblem, _in_domain, basis_matrix

#: Relative tolerance (times trace/n) below which negative eigenvalues of a
#: Gram matrix are treated as floating-point noise and clamped to zero.
EIG_CLAMP_REL = 1e-8

#: Relative Frobenius tolerance for eigendecomposition reconstruction.
EIG_RECONSTRUCT_REL = 1e-8

#: Largest |m - m^T| accepted, relative to max(1, max |m|), for a symmetric matrix.
SYMMETRY_REL = 1e-12


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """The truncated spectral kernel of a problem."""

    problem: SpectralProblem

    def key(self):
        """Hashable identity used to check that models share a kernel: the problem's
        parameters (PROBLEM_PARAMS), which fix everything else it holds."""
        return ("spectral", *(getattr(self.problem, name) for name in PROBLEM_PARAMS))


def spectral_kernel(problem: SpectralProblem) -> KernelSpec:
    """Truncated kernel K(x,u) = sum_i sigma_i phi_i(x) phi_i(u) on [0,1]."""
    return KernelSpec(problem)


def kernel_features(spec: KernelSpec, xs) -> np.ndarray:
    """Feature matrix Phi = basis_matrix(dim, xs), shape (len(xs), dim).

    K(xs[j], us[k]) = sum_i sigma_i Phi[j, i] Phi_u[k, i]. Raises
    DomainError for points outside [0, 1], NaN included.
    """
    return basis_matrix(spec.problem.dim, _in_domain(xs))


def kernel_cross(spec: KernelSpec, xs, us) -> np.ndarray:
    """Matrix of kernel values K(xs[j], us[k]), shape (len(xs), len(us))."""
    fx = kernel_features(spec, xs)
    fu = kernel_features(spec, us)
    return (fx * spec.problem.eigenvalues) @ fu.T


def gram(spec: KernelSpec, inputs) -> np.ndarray:
    """The n x n Gram matrix of ``inputs``, read-only.

    (1/n) times this matrix represents the empirical covariance operator on
    coefficient vectors. Construction is exactly symmetric (the cross matrix
    is symmetrized to remove BLAS rounding asymmetry).
    """
    xs = np.atleast_1d(np.asarray(inputs, dtype=float))
    if xs.size == 0:
        raise InvalidParameterError("inputs must be nonempty")
    m = kernel_cross(spec, xs, xs)
    m = 0.5 * (m + m.T)
    m.setflags(write=False)
    return m


def sym_eigendecompose(mat) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix; eigenvalues descending.

    Raises InvalidParameterError unless ``mat`` is a nonempty square array,
    symmetric to SYMMETRY_REL times max(1, max |entry|). Tiny negative
    eigenvalues (within EIG_CLAMP_REL * trace/n of zero) are clamped to 0;
    anything more negative, or a reconstruction error beyond
    EIG_RECONSTRUCT_REL in relative Frobenius norm, raises
    EigendecompositionError. Returns (eigenvalues, eigenvectors) with
    eigenvectors in columns matching the eigenvalue order.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidParameterError("matrix must be square")
    n = mat.shape[0]
    if n == 0:
        raise InvalidParameterError("matrix must be nonempty")
    if np.max(np.abs(mat - mat.T)) > SYMMETRY_REL * max(1.0, float(np.max(np.abs(mat)))):
        raise InvalidParameterError("matrix must be symmetric")
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
