"""Eigen kernels."""

import numpy as np
import pytest

from hellycert.errors import InvalidMatrix, SolverStall
from hellycert.linalg import extremes, sym_eigen


def test_eigen_identity():
    lam, vecs = sym_eigen(np.eye(2))
    np.testing.assert_allclose(lam, [1.0, 1.0])


def test_eigen_diagonal_sorted():
    lam, vecs = sym_eigen(np.diag([3.0, 2.0]))
    np.testing.assert_allclose(lam, [2.0, 3.0])


def test_eigen_offdiagonal_pair():
    lam, vecs = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(lam, [-1.0, 1.0], atol=1e-12)


def test_eigen_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(InvalidMatrix):
        sym_eigen(bad)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34, 89, 144, 300])
def test_eigen_reconstruction_and_orthonormality(rng, n):
    raw = rng.standard_normal((n, n))
    a = raw + raw.T
    lam, vecs = sym_eigen(a)
    rebuilt = vecs @ np.diag(lam) @ vecs.T
    err = np.linalg.norm(rebuilt - a, "fro")
    assert err <= 1e-9 * (1.0 + np.linalg.norm(a, "fro"))
    gram = vecs.T @ vecs
    assert np.linalg.norm(gram - np.eye(n), "fro") <= 1e-9
    assert np.all(np.diff(lam) >= -1e-12)


def test_eigen_symmetrizes_input():
    # ingestion symmetrizes, so a slightly lopsided array is accepted
    a = np.array([[1.0, 0.3 + 1e-14], [0.3, 2.0]])
    lam, vecs = sym_eigen(a)
    assert lam[0] < lam[1]


def _move_one_eigenvalue(lam, v):
    return lam + 1e-9 * (np.arange(lam.size) == 2), v


def _stretch_one_vector(lam, v):
    return lam, v * (1.0 + 1e-9 * (np.arange(lam.size) == 2))


@pytest.mark.parametrize("forge", [_move_one_eigenvalue, _stretch_one_vector])
def test_eigen_rejects_forged_eigh(rng, forge, monkeypatch):
    raw = rng.standard_normal((6, 6))
    a = raw + raw.T
    sym_eigen(a)
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: forge(*real(m)))
    with pytest.raises(SolverStall):
        sym_eigen(a)


def test_eigen_rejects_forgery_at_large_n(rng, monkeypatch):
    # the tolerance grows with n but stays far below 1e-9 (1 + ||A||_F)
    raw = rng.standard_normal((144, 144))
    a = raw + raw.T
    sym_eigen(a)
    move = 1e-9 * (1.0 + np.linalg.norm(a))
    real = np.linalg.eigh

    def forged(m):
        lam, v = real(m)
        return lam + move * (np.arange(lam.size) == 7), v

    monkeypatch.setattr(np.linalg, "eigh", forged)
    with pytest.raises(SolverStall):
        sym_eigen(a)


def test_extremes_of_weighted_outer_products():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    lo, hi = extremes(pts, np.array([2.0, 3.0, 0.0]))
    assert (lo, hi) == pytest.approx((2.0, 3.0), abs=1e-14)
    lam, vecs = sym_eigen(2.0 * np.outer(pts[0], pts[0])
                     + 5.0 * np.outer(pts[2], pts[2]))
    assert extremes(pts, np.array([2.0, 0.0, 5.0])) == pytest.approx(
        (lam[0], lam[-1]), abs=1e-12)

