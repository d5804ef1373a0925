"""Dense symmetric-matrix kernel.

Everything downstream that certifies an operator inequality funnels through
this module, so the eigen-solver is a plain cyclic Jacobi iteration: slow
compared to LAPACK but simple to audit and accurate to near machine precision
at the matrix sizes used here (a few hundred at most).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix


def _as_sym_array(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    return (a + a.T) / 2.0


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric matrix; the ingested array is symmetrized once."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_sym_array(self.entries))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _coerce(matrix) -> np.ndarray:
    if isinstance(matrix, SymMatrix):
        return matrix.entries
    return _as_sym_array(matrix)


def sym_eigen(matrix, tol: float = 1e-12, max_sweeps: int = 60) -> Spectrum:
    """Full eigen-decomposition by cyclic Jacobi rotations."""
    a = _coerce(matrix)
    n = a.shape[0]
    b = a.copy()
    v = np.eye(n)

    scale = 1.0 + float(np.sqrt(np.sum(a * a)))
    target = tol * scale
    skip = target / max(n * n, 4)

    for _refresh in range(4):
        _jacobi_sweeps(b, v, n, target, skip, max_sweeps)
        # the iterated matrix drifts away from V^T A V by rounding; verify
        # against the original and keep sweeping on the trued-up product if
        # the real off-diagonal mass is still above target
        b = v.T @ a @ v
        b = (b + b.T) / 2.0
        off_true = b - np.diag(np.diag(b))
        if float(np.sqrt(np.sum(off_true * off_true))) <= target:
            break

    lam = np.diag(b).copy()
    order = np.argsort(lam, kind="stable")
    return Spectrum(eigenvalues=lam[order], eigenvectors=v[:, order])


def _jacobi_sweeps(b, v, n, target, skip, max_sweeps):
    for _ in range(max_sweeps):
        od = b - np.diag(np.diag(b))
        off = float(np.sqrt(np.sum(od * od)))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = b[p, q]
                if abs(apq) <= skip:
                    continue
                app = b[p, p]
                aqq = b[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = np.sign(theta) if theta != 0.0 else 1.0
                t = t / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                row_p = b[p, :].copy()
                row_q = b[q, :].copy()
                b[p, :] = c * row_p - s * row_q
                b[q, :] = s * row_p + c * row_q
                col_p = b[:, p].copy()
                col_q = b[:, q].copy()
                b[:, p] = c * col_p - s * col_q
                b[:, q] = s * col_p + c * col_q
                b[p, p] = c * c * app - 2.0 * s * c * apq + s * s * aqq
                b[q, q] = s * s * app + 2.0 * s * c * apq + c * c * aqq
                b[p, q] = 0.0
                b[q, p] = 0.0

                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p - s * col_q
                v[:, q] = s * col_p + c * col_q

