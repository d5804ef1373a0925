"""Eigen and NNLS kernels."""

import numpy as np
import pytest
import scipy.optimize

from hellycert.errors import InvalidMatrix, SolverStall
from hellycert.linalg import extremes, nnls, sym_eigen


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


def _random_nnls_problems(rng, count, tall=False):
    """Random (A, b); with ``tall``, A has at least as many rows as columns,
    so it has full column rank and the minimiser is unique."""
    for _ in range(count):
        m, k = (int(v) for v in rng.integers(1, 25, size=2))
        if tall:
            m, k = max(m, k), min(m, k)
        yield rng.standard_normal((m, k)), rng.standard_normal(m)


def test_nnls_matches_scipy(rng):
    for A, b in _random_nnls_problems(rng, 300):
        x = nnls(A, b)
        ref, _ = scipy.optimize.nnls(A, b)
        np.testing.assert_allclose(x, ref, rtol=0.0,
                                   atol=1e-10 * max(1.0, np.abs(ref).max()))
        np.testing.assert_array_equal(x > 0.0, ref > 0.0)


def test_nnls_kkt_conditions(rng):
    for A, b in _random_nnls_problems(rng, 300):
        x = nnls(A, b)
        grad = A.T @ (b - A @ x)
        tol = 1e-10 * (1.0 + np.linalg.norm(A) * np.linalg.norm(b))
        assert x.min() >= 0.0
        assert np.all(grad[x == 0.0] <= tol)
        np.testing.assert_allclose(grad[x > 0.0], 0.0, atol=tol)


def test_nnls_warm_start_does_not_change_the_answer(rng):
    for A, b in _random_nnls_problems(rng, 200, tall=True):
        cold = nnls(A, b)
        wrong = np.where(cold > 0.0, 0.0, 1.0)
        for start in (wrong, np.zeros(A.shape[1]), cold, -np.ones(A.shape[1])):
            np.testing.assert_allclose(nnls(A, b, start=start), cold,
                                       rtol=0.0, atol=1e-10)


def test_nnls_leaves_a_positive_but_wrong_start():
    # the start's support {1} has the positive solution 0.5, which is not
    # optimal: column 0 enters, and column 1 leaves at its zero crossing
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    b = np.array([1.0, 0.0])
    np.testing.assert_allclose(nnls(A, b, start=np.array([0.0, 1.0])),
                               [1.0, 0.0], atol=1e-15)
