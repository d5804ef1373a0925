"""Dense linear-algebra kernels: symmetric eigenpairs.

Every eigenvalue a certificate reports comes through ``sym_eigen``. The
solver is LAPACK (``numpy.linalg.eigh``) and is not trusted: its answer is
returned only after a residual check that bounds the distance of each
computed eigenvalue from the true one, with the rounding of the check
itself folded in. The check, not the solver, is the trusted part. Its only
callers are the verdict functions, ``io.check`` and
``sparsify.certify_operator_T``, through ``extremes``. The producers
propose with LAPACK alone: the span test that picks where the MVEE ascent
starts (``john._spans``), the John frame and ``sparsify.bss_select``'s
steps and normalization. ``check`` derives every verdict from what they
propose, so no certificate reports their eigenvalues.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidMatrix, SolverStall

TOL_EIGEN = 1e-12
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def _as_sym_array(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return (a + a.T) / 2.0


def sym_eigen(matrix):
    """(ascending eigenvalues, orthonormal eigenvector columns) of the
    symmetrized array from LAPACK, returned only if a residual check holds.

    Let R = AV - V Lambda and E = V^T V - I. V^T A V is congruent to A, so
    its eigenvalues are A's scaled by factors in [1 - ||E||, 1 + ||E||]
    (Ostrowski's theorem). It equals Lambda + E Lambda + V^T R, so they are
    within ||E|| ||Lambda|| + ||V|| ||R|| of the computed ones (Weyl's
    inequality). The check asks ||R||_F + 2 (1 + ||A||_F) ||E||_F, with the
    rounding of forming R and E added, to be at most tol (1 + ||A||_F); tol =
    max(1e-12, 4 (n + 3)^2 u) exceeds that rounding, about 2.5 (n + 3)^2 u at
    most for the unit roundoff u. So ||E|| <= tol / 2, ||V|| <= 1 + ||E|| / 2
    and ||Lambda|| <= ||A|| + 2 ||R||: each sorted computed eigenvalue is
    within the checked bound of the sorted true one. Else raises SolverStall.
    """
    a = _as_sym_array(matrix)
    n = a.shape[0]
    try:
        lam, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise SolverStall(f"eigh failed on a {n}x{n} matrix: {exc}") from exc
    # entrywise rounding bound of the products and subtractions below
    gamma = (n + 3) * _UNIT_ROUNDOFF / (1.0 - (n + 3) * _UNIT_ROUNDOFF)
    abs_v = np.abs(v)
    r_norm = (np.linalg.norm(a @ v - v * lam) + gamma * np.linalg.norm(
        np.abs(a) @ abs_v + abs_v * np.abs(lam)))
    e_norm = (np.linalg.norm(v.T @ v - np.eye(n))
              + gamma * np.linalg.norm(abs_v.T @ abs_v + np.eye(n)))
    scale = 1.0 + float(np.linalg.norm(a))
    bound = float(r_norm + 2.0 * scale * e_norm)
    tol = max(TOL_EIGEN, 4.0 * (n + 3) ** 2 * _UNIT_ROUNDOFF)
    if not bound <= tol * scale:
        raise SolverStall(f"eigh fails its residual check: bound {bound:.3e}"
                          f" > {tol:.3e} * (1 + ||A||_F)")
    return lam, v


def extremes(points: np.ndarray, coeffs: np.ndarray):
    """(lambda_min, lambda_max) of sum_j coeffs[j] p_j p_j^T, rows p_j."""
    lam = sym_eigen((points * coeffs[:, None]).T @ points)[0]
    return float(lam[0]), float(lam[-1])

