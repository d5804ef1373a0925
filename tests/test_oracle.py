"""Small-scale exact oracles and seeded instance generators."""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest
import scipy.optimize

from hellycert import lp, oracle, pipeline
from hellycert.errors import (OracleTooLarge, SharpnessGenFailed,
                              UnboundedBody)
from hellycert.geometry import normalize_family
from hellycert.io import save_instance
from hellycert.lp import support_h_polytope
from hellycert.oracle import (_CHUNK, FEAS_TOL, MERGE_TOL,
                              cheapest_drop, circumradius_exact,
                              diameter_exact, enumerate_vertices,
                              gen_halfspace_family, gen_sharpness_instance,
                              gen_slab_family, is_bounded)
from hellycert.pipeline import reduce_to_2n, select_general, select_symmetric

import reference_kernels
from conftest import (best_subset_bruteforce, cube_slab_family,
                      fan_through_corner, record_walks, unit_rows,
                      walked_alpha)


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
def test_is_bounded_walks_the_box_only_without_a_witness(extra, bounded,
                                                         monkeypatch):
    """The bounded system is settled by Stiemke's witness and walks nothing;
    the unbounded one walks the 2n box directions once."""
    g = np.vstack([np.eye(3), -np.eye(3)[:2], [extra]])
    walked = record_walks(monkeypatch)
    assert is_bounded(g) is bounded
    assert walked == ([] if bounded else [6])


def random_systems(count):
    """Seeded row sets G with n from 2 to 6, cycling through five kinds:
    unit rows, rows confined to an open halfspace (a recession direction
    is left), rows orthogonal to one direction (a line is left), unit rows
    with some repeated, and small nonzero integer rows."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 3 * n + 4))
        kind = seed % 5
        g = unit_rows(rng, m, n)
        if kind == 1:
            v = unit_rows(rng, 1, n)[0]
            g *= np.where(g @ v < 0, -1.0, 1.0)[:, None]
        elif kind == 2:
            v = unit_rows(rng, 1, n)[0]
            g -= np.outer(g @ v, v)
        elif kind == 3:
            g = np.vstack([g, g[rng.integers(0, m, size=n)]])
        elif kind == 4:
            g = rng.integers(-2, 3, size=(m, n)).astype(float)
            while not np.abs(g).sum(axis=1).all():
                zero = ~np.abs(g).sum(axis=1).astype(bool)
                g[zero] = rng.integers(-2, 3, size=(int(zero.sum()), n))
        yield g


def test_witness_agrees_with_the_walk_on_random_systems(monkeypatch):
    """The closed-form box never says bounded where the walk says unbounded
    (a checked ray), and ``is_bounded`` equals the walk-only answer, taken
    with ``lp.box_bound`` switched off; both answers, and a walk left to
    decide a bounded system, are seen."""
    seen = set()
    for g in random_systems(600):
        witness = lp.box_bound(g) is not None
        with monkeypatch.context() as patch:
            patch.setattr(lp, "box_bound", lambda G: None)
            walk = is_bounded(g)
        assert walk or not witness, g
        assert is_bounded(g) is walk, g
        seen.add((witness, walk))
    assert seen == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("n, count", [(24, 48), (30, 60)])
def test_large_halfspace_families_need_no_walk(n, count, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("vertex_walk called")

    monkeypatch.setattr(lp, "vertex_walk", refuse)
    for seed in range(3):
        assert gen_halfspace_family(n, count, seed).dim == n


def test_a_bounded_system_without_a_positive_projection_is_walked(
        monkeypatch):
    """The rows positively span the plane, but the all-ones vector
    projected onto their left null space has a negative entry, so the
    witness is undecided and the walk answers."""
    g = np.array([[-1.0, 2.0], [2.0, -1.0], [2.0, 2.0], [-1.0, 0.0]])
    y = 1.0 - g @ np.linalg.solve(g.T @ g, g.sum(axis=0))
    assert y.min() < 0
    walked = record_walks(monkeypatch)
    assert lp.box_bound(g) is None
    assert is_bounded(g) is True
    assert walked == [4]


@pytest.mark.parametrize("g, bounded", [
    (np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]), False),  # the line R e_3
    (-np.eye(2), False),  # a cone of rays without a line
    (np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), True)])
def test_is_bounded_answers_without_raising(g, bounded):
    assert is_bounded(g) is bounded


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


@pytest.mark.parametrize("n, N, seed, digest", [
    (2, 64, 7,
     "8a5ef2fb9bed87fa036871a05789d7fd7887e18989f8b74570bf85e34b29d838"),
    (2, 32, 5,
     "1542e3f69067209563fe74a05fbc7db948804a99afe27a64f09edbbda7b4cbd9"),
    (3, 128, 1,
     "f37d9a063bf59a81d42228ea1081c45678e3650480c5dece463ac1d342560858")])
def test_sharpness_instance_bytes_are_pinned(tmp_path, n, N, seed, digest):
    """The instances the tests and criterion 4 build must not change: these
    are the files that the exact planar circumradius accepted."""
    path = tmp_path / "inst.json"
    save_instance(gen_sharpness_instance(n, N, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("n, N, seed", [(2, 64, 7), (3, 128, 1)])
def test_sharpness_generation_never_reaches_the_vertex_oracle(monkeypatch, n,
                                                              N, seed):
    def no_oracle(*args, **kwargs):
        raise AssertionError("generation reached the vertex oracle")

    for name in ("circumradius_exact", "enumerate_vertices", "_vertex_sets"):
        monkeypatch.setattr(oracle, name, no_oracle)
    assert len(gen_sharpness_instance(n, N, seed)) == N


def test_covering_agrees_with_the_exact_planar_radius():
    """The radius along a unit u is 1 / max_j |<u, w_j>|, so covering at 0.5
    is the inclusion in 2B; the exact circumradius stays the reference, on
    the draws the generator makes."""
    verdicts = []
    for N in (2, 3, 4, 5, 6, 8, 16, 64):
        for seed in range(10):
            for attempt in range(2):
                rng = np.random.default_rng(
                    np.random.SeedSequence([seed, attempt]))
                W = oracle._unit_rows(rng, N, 2)
                exact = circumradius_exact(np.vstack([W, -W]),
                                           np.ones(2 * N)) <= 2.0
                assert oracle._covering_certified(W, 0.5) == exact, (
                    N, seed, attempt)
                verdicts.append(exact)
    assert any(verdicts) and not all(verdicts)


def test_disproved_sharpness_draws_are_refused_at_once():
    """Every draw of (5, 10, 0) has a box centre u with max_j |<u, w_j>|
    below 0.5 |u|. Refused there, the 20 draws take about 0.03 s; spending
    the 2 000 000-box budget on each takes about 30 s in all."""
    start = time.perf_counter()
    with pytest.raises(SharpnessGenFailed,
                       match=r"n=5, N=10.*0\.5.*20 attempts"):
        gen_sharpness_instance(5, 10, seed=0)
    assert time.perf_counter() - start < 3.0


def test_slab_generator_schema():
    fam = gen_slab_family(4, count=6, seed=8)
    assert fam.mode == "symmetric"
    assert fam.dim == 4
    assert 1 <= np.bincount(fam.owner[~fam.negated]).max() <= 3
    assert np.all(np.isfinite(fam.G))


def test_halfspace_generator_at_high_n():
    """At n=24 the hidden center's norm plus 0.05 passes 1.5 for about half
    the seeds; the offset range then widens instead of being empty. n=30
    is the largest general size of the bench ladder."""
    cases = ([(24, 48, seed) for seed in range(20)]
             + [(30, 60, seed) for seed in range(5)])
    for n, count, seed in cases:
        fam = gen_halfspace_family(n, count=count, seed=seed)
        assert np.all(fam.h > 0), (n, seed)
        # bounded: the rows have rank n and a combination with every weight
        # >= 1 sums to 0, so G d <= 0 forces G d = 0 and then d = 0
        assert np.linalg.matrix_rank(fam.G) == n, (n, seed)
        res = scipy.optimize.linprog(
            np.zeros(len(fam.G)), A_eq=fam.G.T, b_eq=np.zeros(n),
            bounds=(1.0, None), method="highs")
        assert res.status == 0, (n, seed)


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


def reference_vertices(G, h):
    """The reference enumeration, one system at a time: each n-subset from
    itertools solved on its own, the Python merge loop (the first copy
    found kept) and ``is_bounded``'s walk up front. None when the system
    has fewer than n rows or is unbounded; the vertices in the order found
    otherwise."""
    m, n = G.shape
    if m < n or not is_bounded(G):
        return None
    feas = FEAS_TOL * np.maximum(1.0, np.abs(h))
    kept = []
    for rows in itertools.combinations(range(m), n):
        B = G[list(rows)]
        if not abs(np.linalg.det(B)) > 1e-12 * (np.linalg.norm(B) + 1.0) ** n:
            continue
        x = np.linalg.solve(B, h[list(rows)])
        if (np.all(G @ x <= h + feas)
                and all(np.linalg.norm(x - k) > MERGE_TOL for k in kept)):
            kept.append(x)
    return np.array(kept).reshape(-1, n)


def reference_drop_radii(G, h, owner):
    """(radius, radii): the circumradius of the whole system and a dict from
    each body to that of the system without its rows, by the reference, one
    system per drop; +inf where a system is unbounded or has no vertex."""
    radii = []
    for rows in [owner >= 0] + [owner != j for j in np.unique(owner)]:
        kept = reference_vertices(G[rows], h[rows])
        radii.append(math.inf if kept is None or not len(kept)
                     else float(np.linalg.norm(kept, axis=1).max()))
    return radii[0], dict(zip(np.unique(owner).tolist(), radii[1:]))


def reference_cheapest_drop(G, h, owner):
    """``cheapest_drop`` by the reference: the least finite radius of
    ``reference_drop_radii``, the lower body on a tie; body None at +inf
    when every drop prices +inf."""
    radius, radii = reference_drop_radii(G, h, owner)
    best = min(radii, key=radii.__getitem__)
    if math.isinf(radii[best]):
        return radius, None, math.inf
    return radius, best, radii[best]


def _triangle_with_a_short_body():
    """A triangle whose body 0 holds two of the three rows: dropping body 0
    leaves one row (fewer than n), dropping body 1 opens a cone."""
    rows = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    return rows, np.ones(3), np.array([0, 0, 1])


def _open_half_plane_fan():
    """The rows of the five selected bodies of
    ``test_reduce_rejects_an_unbounded_selection``: every normal in the
    upper half-plane, so the intersection is open downwards."""
    ang = np.arange(5) * np.pi / 4
    return (np.column_stack([np.cos(ang), np.sin(ang)]), np.ones(5),
            np.arange(5))


@pytest.mark.parametrize("n, count, rows_per_body, seeds", [
    (2, 6, None, range(100, 106)), (3, 6, (4, 4), range(100, 103))])
def test_drop_pricing_matches_the_reference_bit_for_bit(n, count,
                                                        rows_per_body, seeds):
    for seed in seeds:
        fam = gen_halfspace_family(n, count, seed,
                                   rows_per_body=rows_per_body)
        for target in (fam, normalize_family(fam, np.zeros(n))):
            G, h, owner = target.constraint_matrix()
            got = cheapest_drop(G, h, owner)
            assert got == reference_cheapest_drop(G, h, owner), seed
            assert math.isfinite(got[0]) and math.isfinite(got[2])


@pytest.mark.parametrize("system", [_triangle_with_a_short_body,
                                    _open_half_plane_fan])
def test_drop_pricing_matches_the_reference_when_drops_unbind(system):
    G, h, owner = system()
    got = cheapest_drop(G, h, owner)
    assert got == reference_cheapest_drop(G, h, owner)
    assert got[1:] == (None, math.inf)
    assert math.isinf(got[0]) is (system is _open_half_plane_fan)


def test_the_cheapest_drop_skips_an_unbounded_one():
    """Dropping body 0 (x >= -1) leaves the least vertex radius, about
    1.118, but opens the strip to the left; the cheapest bounded drop is
    body 4 (x + y <= 1.5), at sqrt(2)."""
    G = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                  [1.0, 1.0]])
    h = np.array([1.0, 1.0, 1.0, 0.5, 1.5])
    owner = np.arange(5)
    radius, radii = reference_drop_radii(G, h, owner)
    assert math.isinf(radii[0]) and math.isinf(radii[3])
    got = cheapest_drop(G, h, owner)
    assert got == (radius, 4, radii[4])
    assert got == pytest.approx((math.sqrt(2.0), 4, math.sqrt(2.0)))
    X, member = oracle._vertex_sets(G, h, owner)
    norms = np.linalg.norm(X, axis=1)
    assert norms[member[:, 1]].max() < norms[member[:, 5]].max()


def test_bounded_enumeration_never_walks(rng, monkeypatch):
    fam = gen_halfspace_family(3, 6, 101, rows_per_body=(4, 4))
    walks = record_walks(monkeypatch)
    for n in (2, 3):
        g = np.vstack([np.eye(n), -np.eye(n), unit_rows(rng, 6, n)])
        enumerate_vertices(g, np.concatenate([np.ones(2 * n),
                                              rng.uniform(0.4, 1.2, 6)]))
        fan = fan_through_corner(rng, n, 3 * n)
        enumerate_vertices(fan, np.ones(len(fan)))
    cheapest_drop(*fam.constraint_matrix())
    assert walks == []


def test_unbounded_enumeration_is_a_walked_ray(monkeypatch):
    walks = record_walks(monkeypatch)
    with pytest.raises(UnboundedBody, match="recession direction"):
        enumerate_vertices(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
                           np.ones(3))
    assert walks == [4]


@pytest.mark.parametrize("forge", [
    lambda y: -np.abs(y), lambda y: np.abs(y), lambda y: np.ones_like(y),
    lambda y: np.full_like(y, 1e300), lambda y: np.full_like(y, np.nan),
    lambda y: np.zeros_like(y)])
def test_forged_duals_never_bound_an_unbounded_set(forge, monkeypatch):
    # the closed-form duals lp.box_bound hands to lp._box are forged;
    # check_support's replay of a walk gets honest ones
    real_box, real_bound = lp._box, lp.box_bound

    def forged_bound(G):
        monkeypatch.setattr(lp, "_box", lambda G, y: real_box(G, forge(y)))
        try:
            return real_bound(G)
        finally:
            monkeypatch.setattr(lp, "_box", real_box)

    monkeypatch.setattr(lp, "box_bound", forged_bound)
    walks = record_walks(monkeypatch)
    with pytest.raises(UnboundedBody):
        enumerate_vertices(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
                           np.ones(3))
    G, h, owner = _triangle_with_a_short_body()
    radius, body, body_radius = cheapest_drop(G, h, owner)
    assert math.isfinite(radius)
    assert body is None and math.isinf(body_radius)
    assert walks
    # a bounded square stays bounded, and keeps its vertices
    square = np.vstack([np.eye(2), -np.eye(2)])
    assert len(enumerate_vertices(square, np.ones(4))) == 4


def _corner_cuts():
    """The square [-1, 1]^2 with two rows cutting (1, -1) into a chain of
    vertices a, b, c, found in that order, a fan of rows through (1, 1) and
    one row cutting (-1, -1) into two vertices 0.5 MERGE_TOL apart. b is
    0.58 MERGE_TOL from a and from c, which are 1.13 MERGE_TOL apart, so b
    merges into a and c stays."""
    tol = MERGE_TOL
    corner = np.array([1.0, -1.0])
    a, b, c = (corner + tol * np.array(p)
               for p in ([0.0, 0.8], [-0.3, 0.3], [-0.8, 0.0]))
    cuts = []
    for p, q in ((a, b), (b, c)):
        g = np.array([p[1] - q[1], q[0] - p[0]])
        cuts.append(g / np.linalg.norm(g))
    fan = fan_through_corner(np.random.default_rng(5), 2, 8)[4:]
    G = np.vstack([[1.0, 0.0], cuts[0], cuts[1], [0.0, -1.0], [0.0, 1.0],
                   [-1.0, 0.0], fan, [-1.0, -1.0]])
    h = np.concatenate([[1.0, cuts[0] @ a, cuts[1] @ c], np.ones(3 + len(fan)),
                        [2.0 - 0.5 * tol / math.sqrt(2.0)]])
    return G, h, (a, b, c)


def test_merge_keeps_the_first_copy_like_the_reference():
    G, h, chain = _corner_cuts()
    got = enumerate_vertices(G, h)
    ref = reference_vertices(G, h)
    np.testing.assert_array_equal(got, ref[np.lexsort(ref.T[::-1])])

    def near(p, tol=10 * MERGE_TOL):
        return int((np.linalg.norm(got - p, axis=1) < tol).sum())

    # (1, 1) once, one of the pair at (-1, -1), and a and c but not b
    assert (near([1.0, 1.0]), near([-1.0, -1.0]), near([1.0, -1.0])) == (
        1, 1, 2)
    assert [near(p, 0.1 * MERGE_TOL) for p in chain] == [1, 0, 1]
    assert len(got) == 5
    # many bases meet at (1, 1) with solutions apart in their last bits;
    # the one found first is kept
    at_corner = [x for x in (np.linalg.solve(G[list(r)], h[list(r)])
                             for r in itertools.combinations(range(len(G)), 2)
                             if abs(np.linalg.det(G[list(r)])) > 1e-9)
                 if np.linalg.norm(x - 1.0) < MERGE_TOL]
    assert len(at_corner) > 10 and len({tuple(x) for x in at_corner}) > 1
    assert any(np.array_equal(v, at_corner[0]) for v in got)
    for n in (2, 3):
        fan = fan_through_corner(np.random.default_rng(n), n, 3 * n)
        ones = np.ones(len(fan))
        ref = reference_vertices(fan, ones)
        np.testing.assert_array_equal(enumerate_vertices(fan, ones),
                                      ref[np.lexsort(ref.T[::-1])])


def _priced_in_reduce(*chain):
    """The (G, h, owner) of every ``cheapest_drop`` call that reduces the
    selections of these (n, count, rows_per_body, seed) families."""
    systems = []

    def price(G, h, owner):
        systems.append((G, h, owner))
        return cheapest_drop(G, h, owner)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "cheapest_drop", price)
        for n, count, rows, seed in chain:
            fam = gen_halfspace_family(n, count, seed, rows_per_body=rows)
            reduce_to_2n(fam, select_general(fam))
    return systems


def _halfspace_rows(n, count, seed, rows=None):
    return [gen_halfspace_family(n, count, seed,
                                 rows_per_body=rows).constraint_matrix()]


def _slab_selection():
    """A slab selection: the rows g and -g of each slab make exactly
    singular bases."""
    fam = gen_slab_family(3, 12, 1)
    return [fam.constraint_matrix(select_symmetric(fam).selected)]


def _duplicated_and_tilted():
    """A family's rows with three of them repeated, then with three tilted
    by 1e-15 (no exact twin, so near-singular bases reach the solve), and a
    triangle whose row (1, 1e-15) solves with x <= 1 to (1, 0), inside an
    edge, with |det| = 1e-15."""
    G, h, owner = gen_halfspace_family(
        3, 6, 100, rows_per_body=(4, 4)).constraint_matrix()
    tilt = G[:3] + 1e-15 * unit_rows(np.random.default_rng(0), 3, 3)
    triangle = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [1.0, 1e-15]])
    return [(np.vstack([G, G[:3]]), np.concatenate([h, h[:3]]),
             np.concatenate([owner, owner[:3]])),
            (np.vstack([G, tilt]), np.concatenate([h, h[:3]]),
             np.concatenate([owner, owner[:3]])),
            (triangle, np.ones(4), np.arange(4))]


def _degenerate_corners():
    """e_1 .. e_n and 2n rows tight at (1, ..., 1), closed by one row along
    -(1, ..., 1): a vertex with 3n tight rows and no repeated or negated
    row; and in R^3 a family's rows with e_1, e_2 and (e_1 + e_2) / sqrt 2
    added, whose exactly singular basis LAPACK refuses."""
    systems = []
    for n in (2, 3):
        v = np.ones(n)
        w = 0.3 * np.random.default_rng(n).standard_normal((2 * n, n))
        w -= np.outer(w @ v, v) / n
        G = np.vstack([np.eye(n), v / n + w, -v])
        systems.append((G, np.ones(len(G)), np.arange(len(G)) // 2))
    G, h, owner = gen_halfspace_family(
        3, 6, 101, rows_per_body=(4, 4)).constraint_matrix()
    extra = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [math.sqrt(0.5), math.sqrt(0.5), 0.0]])
    systems.append((np.vstack([G, extra]), np.concatenate([h, [2.0] * 3]),
                    np.concatenate([owner, [6, 6, 7]])))
    return systems


def _planar_slabs():
    """The 128 rows of 64 planar unit slabs, without owners."""
    G, h, _ = gen_sharpness_instance(2, 64, 0).constraint_matrix()
    return [(G, h, None)]


_BIT_FOR_BIT = {
    "reduce-seed-100": lambda: _priced_in_reduce(
        (2, 40, None, 102), (2, 40, None, 103), (3, 10, (4, 4), 109)),
    "reduce-seed-7": lambda: _priced_in_reduce(
        (2, 40, None, 9), (2, 40, None, 10), (3, 10, (4, 4), 7)),
    **{f"halfspace-n{n}": lambda n=n: _halfspace_rows(n, 3, n, (n + 1, n + 1))
       for n in range(1, 7)},
    "slabs": _slab_selection, "duplicated-and-tilted": _duplicated_and_tilted,
    "degenerate-corners": _degenerate_corners,
    "m40-n3": lambda: _halfspace_rows(3, 10, 3, (4, 4)),
    "planar-slabs": _planar_slabs,
    "slabs-n4": lambda: [gen_slab_family(4, 8, 3).constraint_matrix()]}


@pytest.mark.parametrize("systems", list(_BIT_FOR_BIT.values()),
                         ids=list(_BIT_FOR_BIT))
def test_vertex_sets_match_the_reference_bit_for_bit(systems):
    for G, h, owner in systems():
        for rows in (owner, None):
            got = oracle._vertex_sets(G, h, rows)
            want = reference_kernels.vertex_sets(G, h, rows)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert len(want[0])


def _merge_cases(rng):
    """Point sets for the near-duplicate merge, rows in a random order, each
    with a merge to make: clusters around four seed points at 0, 0.5, 0.999,
    1.001 and 1.5 MERGE_TOL; chains a-b-c in every order, b 0.6 MERGE_TOL
    from a and from c, which are 1.2 apart; exact copies; and a NaN row."""
    cases = []
    for n in (1, 2, 3, 6):
        seeds = rng.uniform(-2.0, 2.0, (4, n))
        radii = MERGE_TOL * np.array([0.0, 0.5, 0.999, 1.001, 1.5] * 3)
        dirs = unit_rows(rng, 4 * len(radii), n).reshape(4, len(radii), n)
        cluster = (seeds[:, None] + radii[:, None] * dirs).reshape(-1, n)
        cases.append(cluster[rng.permutation(len(cluster))])
        step = 0.6 * MERGE_TOL * dirs[0, 0]
        chain = seeds[0] + np.outer([0.0, 1.0, 2.0], step)
        cases.extend(chain[list(p)] for p in itertools.permutations(range(3)))
        copies = np.repeat(seeds, [1, 2, 3, 1], axis=0)
        cases.append(copies[rng.permutation(len(copies))])
        cases.append(np.insert(cluster, 7, np.nan, axis=0))
    return cases


def test_merge_keeps_the_masks_of_the_blocked_reference(rng):
    cases = _merge_cases(rng)
    for X in cases:
        keep = reference_kernels.first_kept(X)
        assert np.array_equal(oracle._first_kept(X), keep)
        assert keep.any() and not keep.all()
    for systems in _BIT_FOR_BIT.values():
        for G, h, owner in systems():
            for rows in (owner, None):
                X = oracle._vertex_sets(G, h, rows)[0]
                assert np.array_equal(oracle._first_kept(X),
                                      reference_kernels.first_kept(X))


def _recorded(monkeypatch, name):
    """The batch sizes np.linalg.<name> is handed, in call order."""
    real, sizes = getattr(np.linalg, name), []

    def recorded(a, *args):
        sizes.append(len(a))
        return real(a, *args)

    monkeypatch.setattr(np.linalg, name, recorded)
    return sizes


def test_drop_pricing_takes_determinants_of_kept_solutions_only(monkeypatch):
    fam = gen_halfspace_family(3, 10, 109, rows_per_body=(4, 4))
    cert = select_general(fam)
    G, h, owner = normalize_family(fam, cert.z).constraint_matrix(
        cert.selected)
    kept = len(oracle._vertex_sets(G, h, owner)[0])
    dets = _recorded(monkeypatch, "det")
    cheapest_drop(G, h, owner)
    # a determinant-first order takes all C(28, 3) = 3 276
    assert 0 < sum(dets) <= kept < math.comb(len(G), 3) // 10


def test_every_basis_is_solved_once_in_chunks(monkeypatch):
    G, h, owner = gen_halfspace_family(
        3, 10, 3, rows_per_body=(4, 4)).constraint_matrix()
    solves = _recorded(monkeypatch, "solve")
    oracle._vertex_sets(G, h, owner)
    assert solves == [_CHUNK, math.comb(40, 3) - _CHUNK]
    # slabs: the subsets holding a row g and its twin -g are dropped by
    # index, the rest solved once a chunk and only kept solutions face det
    fam = gen_slab_family(3, 12, 1)
    G, h, owner = fam.constraint_matrix()
    chunks = -(-math.comb(len(G), 3) // _CHUNK)
    dets = _recorded(monkeypatch, "det")
    recorded, solved = np.linalg.solve, []

    def solve(a, *args):
        solved.append(a)
        return recorded(a, *args)

    monkeypatch.setattr(np.linalg, "solve", solve)
    del solves[:]
    X = oracle._vertex_sets(G, h, owner)[0]
    assert chunks > 1 and len(solves) == len(dets) == chunks
    assert max(solves) < _CHUNK and sum(dets) <= len(X)
    for bases in solved:
        for i, j in itertools.combinations(range(3), 2):
            a, b = bases[:, i], bases[:, j]
            assert not ((a == b) | (a == -b)).all(axis=1).any()
