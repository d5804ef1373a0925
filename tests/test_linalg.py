"""Eigen kernel."""

import numpy as np
import pytest

from hellycert.errors import InvalidMatrix
from hellycert.linalg import SymMatrix, sym_eigen


def test_eigen_identity():
    spec = sym_eigen(SymMatrix(np.eye(2)))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0])


def test_eigen_diagonal_sorted():
    spec = sym_eigen(SymMatrix(np.diag([3.0, 2.0])))
    np.testing.assert_allclose(spec.eigenvalues, [2.0, 3.0])


def test_eigen_offdiagonal_pair():
    spec = sym_eigen(SymMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eigen_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(InvalidMatrix):
        sym_eigen(SymMatrix(bad))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34])
def test_eigen_reconstruction_and_orthonormality(rng, n):
    raw = rng.standard_normal((n, n))
    a = SymMatrix(raw + raw.T)
    spec = sym_eigen(a)
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    err = np.linalg.norm(rebuilt - a.entries, "fro")
    assert err <= 1e-9 * (1.0 + np.linalg.norm(a.entries, "fro"))
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert np.linalg.norm(gram - np.eye(n), "fro") <= 1e-9
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_eigen_symmetrizes_input():
    # ingestion symmetrizes, so a slightly lopsided array is accepted
    a = np.array([[1.0, 0.3 + 1e-14], [0.3, 2.0]])
    spec = sym_eigen(SymMatrix(a))
    assert spec.eigenvalues[0] < spec.eigenvalues[1]
