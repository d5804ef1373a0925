"""Enclosing-ellipsoid solver and contact decomposition extraction."""

import numpy as np
import pytest

from hellycert import john
from hellycert.errors import DegenerateSpan, JohnExtractionFailed
from hellycert.geometry import BodyFamily, chebyshev_center
from hellycert.john import (_centered_mvee_weights, john_decomposition,
                            mvee_centered, mvee_general)
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.pipeline import _recenter, select_general, select_symmetric

from conftest import unit_rows


def fresh_gap(pts, u):
    """Larger of the two MVEE gaps of the centered problem at weights u,
    recomputed from scratch; u must be a probability vector."""
    assert u.min() >= 0.0
    assert u.sum() == pytest.approx(1.0, abs=1e-12)
    n = pts.shape[1]
    Xinv = np.linalg.inv(pts.T @ (pts * u[:, None]))
    kappa = np.einsum("ij,ij->i", pts @ Xinv, pts)
    return max(kappa.max() / n - 1.0, 1.0 - kappa[u > 0.0].min() / n)


def lifted(points):
    return np.hstack([points, np.ones((len(points), 1))])


def test_mvee_centered_cross_polytope():
    pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    ell, weights = mvee_centered(pts, 1e-10)
    np.testing.assert_allclose(ell.shape, np.eye(2), atol=1e-7)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    # each +- pair carries total dual mass 1/2 however it is split
    assert weights[0] + weights[1] == pytest.approx(0.5, abs=1e-6)
    assert weights[2] + weights[3] == pytest.approx(0.5, abs=1e-6)


def test_mvee_centered_stretched_axes():
    pts = np.array([[2.0, 0], [-2, 0], [0, 1], [0, -1]])
    ell, _ = mvee_centered(pts, 1e-10)
    np.testing.assert_allclose(ell.shape, np.diag([0.25, 1.0]), atol=1e-7)


def test_mvee_centered_duality_certificate(rng):
    half = rng.standard_normal((25, 3))
    cases = [np.vstack([half, -half])]
    for seed, n, m, dups in ((0, 3, 25, 0), (1, 2, 7, 3), (2, 5, 40, 10),
                             (3, 6, 100, 20), (4, 4, 6, 6)):
        half = np.random.default_rng(seed).standard_normal((m, n))
        # +-p pairs, some repeated, make Newton's K o K singular
        cases.append(np.vstack([half, -half, half[:dups], -half[:dups]]))
    eps = 1e-8
    for pts in cases:
        ell, weights = mvee_centered(pts, eps)
        quad = np.einsum("ij,jk,ik->i", pts, ell.shape, pts)
        assert np.max(quad) <= 1.0 + 2 * eps
        # complementary slackness: dual mass only on near-active points
        active = quad >= 1.0 - 1e-4
        assert weights[~active].sum() <= 1e-6
        assert weights.min() >= 0.0
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mvee_centered_degenerate_span():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(DegenerateSpan, match="input points do not span"):
        mvee_centered(pts, 1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_select_symmetric_planar_family_raises():
    # bounded in the plane x3 = 0 only: the polar does not span R^3, and
    # projecting out two of these rows leaves exact zeros
    fam = BodyFamily.from_blocks("symmetric", 3, [
        np.array([row]) for row in ([1.0, 0, 0], [0, 1.0, 0], [1.0, 1, 0])])
    with pytest.raises(DegenerateSpan, match="input points do not span"):
        select_symmetric(fam)


def test_mvee_general_interval():
    ell, _ = mvee_general(np.array([[0.0], [1.0]]), 1e-10)
    assert ell.center[0] == pytest.approx(0.5, abs=1e-8)
    assert ell.shape[0, 0] == pytest.approx(4.0, rel=1e-6)


def test_mvee_general_regular_simplex():
    # vertices of the regular simplex lie on their circumscribed ball
    q = np.eye(4) - 0.25
    _, _, vt = np.linalg.svd(q)
    verts = np.eye(4) @ vt[:3].T
    ell, _ = mvee_general(verts, 1e-10)
    centered = verts - ell.center
    quad = np.einsum("ij,jk,ik->i", centered, ell.shape, centered)
    np.testing.assert_allclose(quad, np.ones(4), atol=1e-6)
    np.testing.assert_allclose(ell.center, verts.mean(axis=0), atol=1e-7)


def test_mvee_general_random_cloud(rng):
    cases = [rng.standard_normal((30, 3))]
    for seed, n, m, dups in ((0, 3, 30, 0), (1, 2, 12, 4), (2, 4, 50, 10),
                             (3, 5, 80, 0), (4, 3, 8, 8)):
        gen = np.random.default_rng(seed)
        cloud = gen.standard_normal((m, n)) + gen.uniform(-1.0, 1.0, n)
        # repeated rows and a symmetric copy of part of the cloud
        cases.append(np.vstack([cloud, cloud[:dups], -cloud[:dups]]))
    eps = 1e-8
    for pts in cases:
        ell, weights = mvee_general(pts, eps)
        centered = pts - ell.center
        quad = np.einsum("ij,jk,ik->i", centered, ell.shape,
                         centered)
        assert np.max(quad) <= 1.0 + 2 * eps
        active = quad >= 1.0 - 1e-4
        assert weights[~active].sum() <= 1e-6
        assert fresh_gap(lifted(pts), weights) <= eps


def test_mvee_signed_step_matches_fresh_state(rng):
    """An ascent, an away and a drop step through the one signed update,
    each checked against X^-1 and kappa recomputed at the new weights."""
    pts = rng.standard_normal((12, 3))
    u = rng.uniform(0.5, 1.5, 12)
    u /= u.sum()
    n = pts.shape[1]
    Xinv, kappa, _ = john._fresh_state(pts, u)
    for kind in ("ascent", "away", "drop"):
        if kind == "ascent":
            j = int(np.argmax(kappa))
            t = (kappa[j] - n) / (n * (kappa[j] - 1.0))
            assert t > 0.0
        else:
            j = int(np.argmin(kappa))
            t = -0.5 * u[j] if kind == "away" else -u[j] / (1.0 - u[j])
        u, Xinv, kappa = john._signed_step(pts, u, Xinv, kappa, j, t,
                                           kind == "drop")
        assert (u[j] == 0.0) == (kind == "drop")
        assert u.min() >= 0.0
        assert u.sum() == pytest.approx(1.0, abs=1e-14)
        want_inv, want_kappa, _ = john._fresh_state(pts, u)
        np.testing.assert_allclose(Xinv, want_inv, rtol=1e-10,
                                   atol=1e-10 * np.abs(want_inv).max())
        np.testing.assert_allclose(kappa, want_kappa, rtol=1e-10)


def test_mvee_newton_finish_ends_a_stalled_ascent():
    # at this translate the plain ascent stalls near a gap of 3e-5, with one
    # point just inside the ellipsoid entering and leaving the support
    fam = gen_halfspace_family(3, 8, 126)
    z0, radius = chebyshev_center(fam)
    norm = _recenter(fam, z0, radius)[3]
    pts = lifted(norm.G)
    eps = 1e-8 * 3 / 4
    u = _centered_mvee_weights(pts, eps, max_iter=1000)
    assert fresh_gap(pts, u) <= eps


@pytest.mark.parametrize("forge", [
    lambda u: -u,
    lambda u: np.full_like(u, np.nan),
    lambda u: np.eye(len(u))[0],
    lambda u: np.full_like(u, 1.0),
    lambda u: np.where(u > 0.0, 0.0, 1.0),
    lambda u: u * (1.0 + 0.3 * np.sin(np.arange(len(u)))),
    lambda u: np.where(u > 0.0, u, -1e-12),
], ids=["negated", "nan", "one-point", "uniform", "off-support", "skewed",
        "negative-entries"])
def test_mvee_forged_newton_weights_cannot_pass(monkeypatch, forge):
    real = john._newton_weights
    calls = []

    def forged(pts, u):
        # forge from Newton's own answer, so a forgery can lower the gap
        good = real(pts, u)
        calls.append(good)
        return forge(u if good is None else good)

    monkeypatch.setattr(john, "_newton_weights", forged)
    rng = np.random.default_rng(5)
    half = rng.standard_normal((15, 3))
    for pts in (np.vstack([half, -half]), lifted(half)):
        calls.clear()
        eps = 1e-8
        u = _centered_mvee_weights(pts, eps)
        assert calls
        assert fresh_gap(pts, u) <= eps


def test_mvee_converged_start_returns_after_one_check(rng, monkeypatch):
    pts = lifted(rng.standard_normal((30, 3)))
    u = _centered_mvee_weights(pts, 1e-10)

    def no_newton(pts, u):
        raise AssertionError("a converged start needs no Newton step")

    monkeypatch.setattr(john, "_newton_weights", no_newton)
    again = _centered_mvee_weights(pts, 1e-8, max_iter=1, start=u)
    np.testing.assert_allclose(again, u, rtol=1e-15, atol=0.0)


def test_newton_retry_guard(monkeypatch):
    """A Newton try also waits for half the gap at the last try. At gen
    n=16/32 seed 0, where the polar MVEE at the Chebyshev center has 851
    rows, Newton runs 9 times in one select; waiting for a new support
    alone, it ran 53 times, with 813 least-squares solves. The selection
    and alpha stay as they were."""
    real = john._newton_weights
    calls = []

    def counted(pts, u):
        calls.append(1)
        return real(pts, u)

    monkeypatch.setattr(john, "_newton_weights", counted)
    cert = select_general(gen_halfspace_family(16, 32, 0))
    assert 0 < len(calls) <= 15
    assert cert.s == 17
    assert cert.alpha_measured == pytest.approx(2.295709974358053, rel=1e-12)


def cold_start_cases():
    """Spanning point sets of the kinds the solver meets, named."""
    cases = {}
    for seed, n, m, dups in ((0, 3, 25, 0), (1, 6, 100, 20), (2, 2, 7, 7)):
        half = np.random.default_rng(seed).standard_normal((m, n))
        cases[f"sym-{n}-{m}-{dups}"] = np.vstack(
            [half, -half, half[:dups], -half[:dups]])
    for seed, n, m in ((3, 3, 8), (4, 5, 60)):
        gen = np.random.default_rng(seed)
        cloud = gen.standard_normal((m, n)) + gen.uniform(-1.0, 1.0, n)
        cases[f"lifted-{n}-{m}"] = lifted(cloud)
    flat = np.random.default_rng(5).standard_normal((40, 4))
    flat[:, 2] *= 1e-5
    cases["flat-axis"] = flat
    return cases


@pytest.mark.parametrize("name", sorted(cold_start_cases()))
def test_mvee_cold_start_is_a_spanning_core_set(monkeypatch, name):
    pts = cold_start_cases()[name]
    n = pts.shape[1]
    real = john._fresh_state

    def first_weights():
        seen = []

        def spy(pts, u):
            seen.append(u.copy())
            return real(pts, u)

        monkeypatch.setattr(john, "_fresh_state", spy)
        _centered_mvee_weights(pts, 1e-8)
        return seen[0]

    first, *reruns = (first_weights() for _ in range(3))
    support = np.nonzero(first)[0]
    assert support.size == n
    assert np.linalg.matrix_rank(pts[support]) == n
    np.testing.assert_array_equal(first[support], np.full(n, 1.0 / n))
    for again in reruns:
        np.testing.assert_array_equal(again, first)


@pytest.mark.parametrize("name", sorted(cold_start_cases()))
def test_mvee_cold_start_matches_uniform_start(name):
    pts = cold_start_cases()[name]
    m, n = pts.shape
    eps = 1e-8
    cold = _centered_mvee_weights(pts, eps)
    uniform = _centered_mvee_weights(pts, eps, start=np.ones(m))
    assert fresh_gap(pts, cold) <= eps
    shape, want = (john._fresh_state(pts, u)[0] / n for u in (cold, uniform))
    assert np.linalg.norm(shape - want) <= 1e-6 * np.linalg.norm(want)


def test_mvee_cold_start_step_guard(monkeypatch):
    # 16 signed steps from the core set; 439 from uniform weights on all rows
    real = john._signed_step
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(john, "_signed_step", counted)
    john_decomposition(gen_slab_family(6, 100, 100).G, centered=False)
    assert 0 < len(calls) <= 100


@pytest.mark.parametrize("support", [(), (0,), (0, 1), (0, 1, 2)])
def test_mvee_start_without_spanning_support(rng, support):
    """A start whose lifted support does not span (four rows are needed in
    R^3 lifted) is ignored: the solve is the cold one, bit for bit."""
    pts = rng.standard_normal((12, 3))
    start = np.zeros(len(pts))
    start[list(support)] = 1.0
    ell, u = mvee_general(pts, 1e-8, start=start)
    cold_ell, cold_u = mvee_general(pts, 1e-8)
    np.testing.assert_array_equal(u, cold_u)
    np.testing.assert_array_equal(ell.center, cold_ell.center)
    np.testing.assert_array_equal(ell.shape, cold_ell.shape)


def test_john_cross_polytope_exact():
    pts = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1.0, 0],
                    [0, -1, 0], [0, 0, 1.0], [0, 0, -1]])
    dec = john_decomposition(pts, centered=False)
    assert dec.residual_identity <= 1e-10
    assert dec.weights.sum() == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(np.abs(dec.vectors).max(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(dec.frame, np.eye(3), atol=1e-6)


def test_john_equally_spaced_plane_vectors():
    ang = np.arange(6) * np.pi / 3
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    dec = john_decomposition(pts, centered=False)
    # rows i and i + 3 are a +- pair: every optimal dual gives each pair
    # 2/3 in total, however it splits it
    w = np.zeros(6)
    w[dec.source_indices] = dec.weights
    np.testing.assert_allclose(w[:3] + w[3:], np.full(3, 2.0 / 3.0),
                               atol=1e-8)
    assert dec.weights.sum() == pytest.approx(2.0, abs=1e-9)
    assert dec.residual_identity <= 1e-8


def test_john_symmetric_random_residuals(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        half = unit_rows(rng, 4 * n, n) * rng.uniform(0.5, 2.0, (4 * n, 1))
        pts = np.vstack([half, -half])
        dec = john_decomposition(pts, centered=False, eps_mvee=1e-8)
        # the weights are the MVEE's own: the identity and sum a = n hold
        # by construction, up to rounding
        assert dec.residual_identity <= 1e-12
        assert abs(dec.weights.sum() - n) <= 1e-12
        # directional identity on random unit vectors
        for z in unit_rows(rng, 20, n):
            val = float(np.sum(dec.weights * (dec.vectors @ z) ** 2))
            assert abs(val - 1.0) <= 1e-5


def test_john_centered_barycenter(rng):
    # the MVEE's own weights: the identity holds by construction, and the
    # barycenter sum a v = n sum u (||y|| - 1) y is bounded by the MVEE gap
    eps = 1e-9
    pts = rng.standard_normal((20, 3)) + np.array([0.4, -0.2, 0.1])
    cold = john_decomposition(pts, centered=True, eps_mvee=eps)
    # a warm solve, started as _recenter hands the weights on
    start = mvee_general(pts, eps_mvee=1e-6)[1]
    warm = john_decomposition(pts, centered=True, eps_mvee=eps, start=start)
    for dec in (cold, warm):
        assert dec.residual_identity <= 1e-12
        assert dec.residual_barycenter <= 3 * eps
        assert abs(dec.weights.sum() - 3.0) <= 1e-12


def test_john_contact_vectors_unit(rng):
    half = unit_rows(rng, 10, 4) * rng.uniform(0.8, 1.6, (10, 1))
    pts = np.vstack([half, -half])
    dec = john_decomposition(pts, centered=False)
    norms = np.linalg.norm(dec.vectors, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_john_hull_contains_scaled_ball(rng):
    """Contact points of a symmetric decomposition reach 1/sqrt(n) in every direction."""
    n = 3
    half = unit_rows(rng, 12, n) * rng.uniform(0.6, 1.8, (12, 1))
    pts = np.vstack([half, -half])
    dec = john_decomposition(pts, centered=False)
    for u in unit_rows(rng, 50, n):
        reach = np.max(np.abs(dec.vectors @ u))
        assert reach >= 1.0 / np.sqrt(n) - 1e-4


def test_john_source_tags_point_back(rng):
    half = unit_rows(rng, 8, 2)
    pts = np.vstack([half, -half])
    dec = john_decomposition(pts, centered=False)
    mapped = pts[dec.source_indices] @ dec.frame.T
    np.testing.assert_allclose(mapped, dec.vectors, atol=1e-6)


def test_john_impossible_tolerance_raises(rng, monkeypatch):
    half = unit_rows(rng, 9, 3) * rng.uniform(0.5, 2.0, (9, 1))
    pts = np.vstack([half, -half])
    monkeypatch.setattr(john, "TOL_JOHN_DEFAULT", 0.0)
    with pytest.raises(JohnExtractionFailed):
        john_decomposition(pts, centered=False, eps_mvee=1e-4)


@pytest.mark.parametrize("seed", range(4))
def test_centered_john_of_a_signed_cloud_folds_onto_one_sign(seed):
    """The centered MVEE of {+-g} is that of {g}: the frames agree, and each
    row's weight is the sum of its pair's weights."""
    gen = np.random.default_rng(seed)
    m, n = 40, 5
    half = unit_rows(gen, m, n) * gen.uniform(0.5, 2.0, (m, 1))
    signs = np.where(gen.random(m) < 0.5, 1.0, -1.0)[:, None]
    both = john_decomposition(np.vstack([signs * half, -signs * half]),
                              centered=False)
    folded = john_decomposition(half, centered=False)
    np.testing.assert_allclose(folded.frame, both.frame, rtol=0, atol=1e-10)
    pair = np.zeros(2 * m)
    pair[both.source_indices] = both.weights
    one = np.zeros(m)
    one[folded.source_indices] = folded.weights
    np.testing.assert_allclose(one, pair[:m] + pair[m:], rtol=0, atol=1e-8)
