"""Small-scale exact oracles and seeded instance generators."""

import hashlib
import math

import numpy as np
import pytest
import scipy.optimize

from hellycert import lp
from hellycert.errors import (OracleTooLarge, SharpnessGenFailed,
                              UnboundedBody)
from hellycert.io import save_instance
from hellycert.lp import support_h_polytope
from hellycert.oracle import (best_subset_bruteforce, circumradius_exact,
                              diameter_exact, enumerate_vertices,
                              gen_halfspace_family, gen_sharpness_instance,
                              gen_slab_family, is_bounded)

from conftest import cube_slab_family, unit_rows, walked_alpha


def square_rows():
    g = np.vstack([np.eye(2), -np.eye(2)])
    return g, np.ones(4)


def test_square_vertices():
    vs = enumerate_vertices(*square_rows())
    assert len(vs) == 4
    got = {tuple(np.round(v, 9)) for v in vs}
    assert got == {(1., 1.), (1., -1.), (-1., 1.), (-1., -1.)}


def test_triangle_vertices():
    g = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    h = np.array([0.0, 0.0, 1.0])
    vs = enumerate_vertices(g, h)
    assert len(vs) == 3


def test_vertex_self_checks_random(rng):
    g = np.vstack([np.eye(3), -np.eye(3), unit_rows(rng, 5, 3)])
    h = np.concatenate([np.ones(6), rng.uniform(0.4, 1.2, 5)])
    vs = enumerate_vertices(g, h)
    assert np.array_equal(vs, vs[np.lexsort(vs.T[::-1])])
    for v in vs:
        assert np.all(g @ v <= h + 1e-8)
        tight = np.abs(g @ v - h) <= 1e-7
        assert np.linalg.matrix_rank(g[tight]) == 3


def test_dimension_cap():
    g = np.vstack([np.eye(7), -np.eye(7)])
    with pytest.raises(OracleTooLarge):
        enumerate_vertices(g, np.ones(14))


def test_constraint_cap():
    g = np.vstack([np.eye(3), -np.eye(3)] * 7)
    with pytest.raises(OracleTooLarge):
        enumerate_vertices(g, np.ones(42))


def test_unbounded_detected():
    g = np.array([[0.0, 1.0], [0.0, -1.0]])
    with pytest.raises(UnboundedBody):
        enumerate_vertices(g, np.ones(2))


def test_vertices_of_polytope_away_from_origin():
    g = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    h = np.array([-1.0, -1.0, 3.0])
    got = {tuple(np.round(v, 9)) for v in enumerate_vertices(g, h)}
    assert got == {(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)}


@pytest.mark.parametrize("extra, bounded", [([-1.0, -1.0, -1.0], True),
                                            ([0.0, 0.0, 1.0], False)])
def test_is_bounded_walks_each_box_direction_once(extra, bounded,
                                                  monkeypatch):
    g = np.vstack([np.eye(3), -np.eye(3)[:2], [extra]])
    real = lp.vertex_walk
    walked = []

    def counted(G, U, start=None):
        walked.append(len(U))
        return real(G, U, start=start)

    monkeypatch.setattr(lp, "vertex_walk", counted)
    assert is_bounded(g) is bounded
    assert walked == [6]


def test_unbounded_detected_away_from_origin():
    g = np.eye(2)
    with pytest.raises(UnboundedBody):
        enumerate_vertices(g, np.array([-1.0, 0.0]))


def test_square_diameter():
    assert diameter_exact(*square_rows()) == pytest.approx(2 * math.sqrt(2))


def test_cross_polytope_diameter():
    g = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert diameter_exact(g, np.ones(4)) == pytest.approx(2.0)


def test_square_circumradius():
    assert circumradius_exact(*square_rows()) == pytest.approx(math.sqrt(2))


def test_tangent_polygon_circumradius():
    # 64 tangent slabs circumscribe the unit disc tightly
    theta = np.linspace(0.0, np.pi, 64, endpoint=False)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    g = np.vstack([dirs, -dirs])
    r = circumradius_exact(g, np.ones(128))
    assert 1.0 <= r <= 1.0 / math.cos(math.pi / 64) + 1e-12


def test_diameter_at_most_twice_circumradius(rng):
    for seed in range(6):
        fam = gen_slab_family(3, count=4, seed=seed)
        g, h, _ = fam.constraint_matrix()
        assert diameter_exact(g, h) <= 2 * circumradius_exact(g, h) + 1e-9


def test_diameter_dominates_sampled_distances(rng):
    fam = gen_slab_family(3, count=5, seed=21)
    g, h, _ = fam.constraint_matrix()
    d = diameter_exact(g, h)
    vs = enumerate_vertices(g, h)
    idx = rng.integers(0, len(vs), size=(40, 2))
    samp = np.linalg.norm(vs[idx[:, 0]] - vs[idx[:, 1]], axis=1)
    assert np.all(samp <= d + 1e-9)


def test_support_matches_vertex_maximum(rng):
    fam = gen_slab_family(2, count=5, seed=3)
    g, h, _ = fam.constraint_matrix()
    vs = enumerate_vertices(g, h)
    for u in unit_rows(rng, 10, 2):
        lp_val = support_h_polytope(g, h, u)
        assert lp_val == pytest.approx(float(np.max(vs @ u)), abs=1e-8)


def test_best_subset_full_family_is_one():
    fam = cube_slab_family(3)
    alpha, subset = best_subset_bruteforce(fam, 3)
    assert alpha == pytest.approx(1.0, abs=1e-9)
    assert subset == (0, 1, 2)


def test_best_subset_monotone_in_size():
    fam = gen_slab_family(2, count=7, seed=5)
    alphas = [best_subset_bruteforce(fam, s)[0] for s in range(2, 8)]
    for small, big in zip(alphas, alphas[1:]):
        assert big <= small + 1e-9


def test_best_subset_cap():
    fam = gen_slab_family(2, count=30, seed=1)
    with pytest.raises(OracleTooLarge):
        best_subset_bruteforce(fam, 15)


def test_sharpness_instance_plane():
    fam = gen_sharpness_instance(2, 64, seed=7)
    g, h, _ = fam.constraint_matrix()
    r = circumradius_exact(g, h)
    assert r == pytest.approx(1.006972781351101, rel=1e-12)
    assert r <= 2.0
    # unit offsets keep the unit ball inside every slab
    norms = np.linalg.norm(fam.G[~fam.negated], axis=1)
    assert max(norms) <= 1.0 + 1e-12
    assert walked_alpha(fam, list(range(len(fam)))) == pytest.approx(1.0, abs=1e-9)


def test_sharpness_instance_3d_certified():
    fam = gen_sharpness_instance(3, 128, seed=1)
    assert fam.dim == 3
    assert len(fam) == 128


def test_sharpness_generation_fails_on_flat_direction_budget():
    # two strips in 3-space always leave an unbounded direction
    with pytest.raises(SharpnessGenFailed):
        gen_sharpness_instance(3, 2, seed=0)


def test_sharpness_reproducible():
    a = gen_sharpness_instance(2, 32, seed=5)
    b = gen_sharpness_instance(2, 32, seed=5)
    np.testing.assert_array_equal(a.G, b.G)
    np.testing.assert_array_equal(a.owner, b.owner)


def test_slab_generator_schema():
    fam = gen_slab_family(4, count=6, seed=8)
    assert fam.mode == "symmetric"
    assert fam.dim == 4
    assert 1 <= np.bincount(fam.owner[~fam.negated]).max() <= 3
    assert np.all(np.isfinite(fam.G))


def test_halfspace_generator_at_high_n():
    """At n=24 the hidden center's norm plus 0.05 passes 1.5 for about half
    the seeds; the offset range then widens instead of being empty."""
    for seed in range(20):
        fam = gen_halfspace_family(24, count=48, seed=seed)
        assert np.all(fam.h > 0), seed
        # bounded: the rows have rank n and a combination with every weight
        # >= 1 sums to 0, so G d <= 0 forces G d = 0 and then d = 0
        assert np.linalg.matrix_rank(fam.G) == 24, seed
        res = scipy.optimize.linprog(
            np.zeros(len(fam.G)), A_eq=fam.G.T, b_eq=np.zeros(24),
            bounds=(1.0, None), method="highs")
        assert res.status == 0, seed


def test_halfspace_generator_bytes_are_pinned(tmp_path):
    """gen-n3 and reduce-n2n3 are built by this generator, so its instance
    files must not change."""
    path = tmp_path / "inst.json"
    save_instance(gen_halfspace_family(3, 8, 100), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "548253c24eaec491037b801f8499f225be6b859869c95c1e932b2efdff5d6cdb")


def test_halfspace_generator_interior_and_bounded():
    fam = gen_halfspace_family(3, count=5, seed=3)
    from hellycert.geometry import chebyshev_center
    z, r = chebyshev_center(fam)
    assert r >= 0.1
    assert np.all(fam.h > 0)
    g, h, _ = fam.constraint_matrix()
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert support_h_polytope(g, h, e) < math.inf
        assert support_h_polytope(g, h, -e) < math.inf
