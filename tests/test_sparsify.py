"""Deterministic reweighting: barrier selection and the shifted variant."""

import math

import numpy as np
import pytest

from hellycert import john, sparsify
from hellycert.errors import ShiftCertificateFailed
from hellycert.geometry import chebyshev_center, normalize_family
from hellycert.john import john_decomposition
from hellycert.linalg import sym_eigen
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.sparsify import (D_ESCALATION, bss_select, certify_operator_T,
                                gamma_ratio, shifted_select)

import reference_kernels
from conftest import unit_rows


def exact_sum(vectors, sigma, b, weights=None):
    a = np.ones(len(vectors)) if weights is None else weights
    acc = np.zeros((vectors.shape[1], vectors.shape[1]))
    for j, t in zip(sigma, b):
        acc += t * a[j] * np.outer(vectors[j], vectors[j])
    return acc


def test_gamma_formula():
    assert gamma_ratio(4.0) == pytest.approx(3.0)
    assert gamma_ratio(9.0) == pytest.approx(2.0)


def test_orthonormal_keeps_every_direction():
    # rank alone forces all n indices into the selection
    for n in (2, 4):
        res = bss_select(np.eye(n), np.ones(n), d=2.0)
        assert sorted(res.sigma.tolist()) == list(range(n))
        lam = sym_eigen(exact_sum(np.eye(n), res.sigma, res.b))[0]
        assert lam[0] == pytest.approx(1.0, abs=1e-9)
        assert res.lambda_max <= gamma_ratio(2.0) ** 2 * (1 + 1e-6)


def test_orthonormal_frozen_weights():
    res = bss_select(np.eye(4), np.ones(4), d=2.0)
    np.testing.assert_allclose(
        res.b,
        [3.6445451865665355, 1.2536084557942417, 1.6256745457331412, 1.0],
        rtol=1e-12)


def test_duplicated_basis_reweighting():
    v = np.vstack([np.eye(4), np.eye(4)])
    w = np.full(8, 0.5)
    res = bss_select(v, w, d=4.0)
    assert len(res.sigma) <= math.ceil(4 * 4)
    assert res.lambda_max <= 9.0 * (1 + 1e-6)
    totals = np.zeros(4)
    for j, t in zip(res.sigma, res.b):
        totals[int(np.argmax(np.abs(v[j])))] += t * 0.5
    assert np.all(totals >= 1.0 - 1e-9)
    assert np.all(totals <= 9.0 + 1e-9)


def test_plane_fan_compression():
    theta = np.linspace(0.0, np.pi, 100, endpoint=False)
    v = np.column_stack([np.cos(theta), np.sin(theta)])
    res = bss_select(v, np.full(100, 0.02), d=4.0)
    assert len(res.sigma) <= 8
    assert res.lambda_max <= 9.0 * (1 + 1e-6)
    assert res.sigma.tolist() == [0, 18, 29, 32, 35]


def test_certificate_is_recomputable(rng):
    half = unit_rows(rng, 30, 3)
    v = np.vstack([half, -half])
    dec = john_decomposition(v, centered=False)
    res = bss_select(dec.vectors, dec.weights, d=4.0)
    acc = exact_sum(dec.vectors, res.sigma, res.b, dec.weights)
    lam = sym_eigen(acc)[0]
    assert lam[0] == pytest.approx(1.0, abs=1e-8)
    assert lam[-1] == pytest.approx(res.lambda_max, abs=1e-8)


def test_budget_and_ratio_across_dimensions(rng):
    for n in (2, 5, 9):
        for d in (2.0, 4.0):
            half = unit_rows(rng, 5 * n, n)
            v = np.vstack([half, -half])
            dec = john_decomposition(v, centered=False)
            res = bss_select(dec.vectors, dec.weights, d=d)
            assert len(res.sigma) <= math.ceil(d * n)
            assert res.lambda_max <= gamma_ratio(d) ** 2 * (1 + 1e-6), (
                n, d, res.lambda_max)


def test_bss_deterministic(rng):
    half = unit_rows(rng, 20, 4)
    v = np.vstack([half, -half])
    dec = john_decomposition(v, centered=False)
    r1 = bss_select(dec.vectors, dec.weights, d=4.0)
    r2 = bss_select(dec.vectors, dec.weights, d=4.0)
    assert r1.sigma.tolist() == r2.sigma.tolist()
    assert r1.b.tolist() == r2.b.tolist()
    assert r1.lambda_max == r2.lambda_max


@pytest.mark.parametrize("n", range(2, 9))
def test_bss_select_matches_the_loop_reference_bit_for_bit(n):
    """On the John decomposition of a symmetric slab family, and on a
    general family's, lifted as ``shifted_select`` lifts it, at every d it
    escalates through, ``bss_select`` returns exactly the sigma, b and
    lambda_max of the loop version in ``reference_kernels``."""
    sym = john_decomposition(gen_slab_family(n, 6 * n, n).G, centered=False)
    raw = gen_halfspace_family(n, 3 * n, n)
    gen = john_decomposition(
        normalize_family(raw, chebyshev_center(raw)[0]).G, centered=True)
    lifted = np.hstack([gen.vectors,
                        np.full((len(gen.vectors), 1), 1.0 / math.sqrt(n))])
    for v, a in ((sym.vectors, sym.weights), (lifted, gen.weights)):
        for d in D_ESCALATION:
            res = bss_select(v, a, d)
            want = reference_kernels.bss_select(v, a, d)
            for got, ref in zip((res.sigma, res.b, res.lambda_max), want):
                assert np.array_equal(got, ref), (n, d)


def shift_check(vectors, out, eps=0.5):
    """certify_operator_T on a shifted selection."""
    return certify_operator_T(vectors[out.sigma], out.b, out.v, eps)


def tripod():
    ang = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    return np.column_stack([np.cos(ang), np.sin(ang)]), np.full(3, 2.0 / 3.0)


def test_tripod_all_kept_and_certified():
    v, a = tripod()
    out = shifted_select(v, a, eps=0.5)
    assert sorted(out.sigma.tolist()) == [0, 1, 2]
    verdicts, diag = shift_check(v, out)
    assert all(verdicts.values())
    assert diag["barycenter_residual"] <= 1e-10
    # the shift comes out exactly opposite the weighted selected barycenter
    recon = -(out.b @ v[out.sigma]) / out.b.sum()
    np.testing.assert_allclose(out.v, recon, atol=1e-15)


def test_tripod_frozen_values():
    v, a = tripod()
    out = shifted_select(v, a, eps=0.5)
    np.testing.assert_allclose(
        out.b,
        [0.8318213795991852, 0.7971628755627498, 0.6666666666666663],
        rtol=1e-12)
    np.testing.assert_allclose(
        out.v, [-0.043519947886892334, -0.049229188517716266], rtol=1e-10)
    assert out.b.sum() == pytest.approx(2.295650921828601, rel=1e-12)
    assert out.d == 9


def test_lifted_vectors_give_identity(rng, monkeypatch):
    """Zero barycenter plus trace n forces the lifted outer-product identity."""
    n = 4
    pts = rng.standard_normal((30, n))
    monkeypatch.setattr(john, "EPS_MVEE_DEFAULT", 1e-9)
    dec = john_decomposition(pts, centered=True)
    lifted = np.column_stack([dec.vectors,
                              np.full(len(dec.vectors), 1.0 / np.sqrt(n))])
    acc = np.zeros((n + 1, n + 1))
    for a_j, y in zip(dec.weights, lifted):
        acc += a_j * np.outer(y, y)
    assert np.linalg.norm(acc - np.eye(n + 1), "fro") <= 5e-5


def test_random_centered_4d(rng, monkeypatch):
    pts = rng.standard_normal((40, 4)) + 0.3
    monkeypatch.setattr(john, "EPS_MVEE_DEFAULT", 1e-9)
    dec = john_decomposition(pts, centered=True)
    out = shifted_select(dec.vectors, dec.weights, eps=0.5)
    verdicts, diag = shift_check(dec.vectors, out)
    assert all(verdicts.values())
    assert 4.0 - 1e-6 <= out.b.sum() <= 20.0 + 1e-6
    assert diag["barycenter_residual"] <= 1e-10


def test_operator_bound_zero_shift():
    verdicts, diag = certify_operator_T(np.eye(2), np.array([1.0, 1.0]),
                                        np.zeros(2), eps=0.5)
    assert diag["shift_norm_bound"] == 0.0
    assert verdicts["shift_norm"]
    assert diag["trace_residual"] <= 1e-12


def test_operator_certificate_tripod():
    v, a = tripod()
    out = shifted_select(v, a, eps=0.5)
    verdicts, diag = certify_operator_T(v[out.sigma], out.b, out.v, eps=0.5)
    assert verdicts["shift_norm"]
    assert diag["shift_norm_bound"] == pytest.approx(
        out.b.sum() * float(out.v @ out.v), rel=1e-12)
    assert 0.5 - 1e-6 <= diag["unshifted_lo"]
    assert diag["unshifted_hi"] <= 5.5 + 1e-6
    assert diag["trace_residual"] <= 1e-8


def test_operator_trace_identity_random(rng, monkeypatch):
    pts = rng.standard_normal((25, 3)) - 0.2
    monkeypatch.setattr(john, "EPS_MVEE_DEFAULT", 1e-9)
    dec = john_decomposition(pts, centered=True)
    out = shifted_select(dec.vectors, dec.weights, eps=0.5)
    _, diag = certify_operator_T(dec.vectors[out.sigma], out.b, out.v,
                                 eps=0.5)
    assert diag["trace_residual"] <= 1e-8
    assert 0.5 - 1e-6 <= diag["unshifted_lo"]
    assert diag["unshifted_hi"] <= 5.5 + 1e-6


def test_shifted_select_escalates_on_a_failed_sandwich(monkeypatch):
    v, a = tripod()
    real = sparsify.certify_operator_T

    def forged(*args):
        verdicts, diagnostics = real(*args)
        return {**verdicts, "sandwich": False}, diagnostics

    monkeypatch.setattr(sparsify, "certify_operator_T", forged)
    with pytest.raises(ShiftCertificateFailed, match="sandwich failed"):
        shifted_select(v, a, eps=0.5)
