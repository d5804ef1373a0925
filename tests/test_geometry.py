"""Body families, normalization, polarity, containment factors."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hellycert import lp
from hellycert.errors import (DegenerateInterior, NotInterior, SolverStall,
                              UnboundedBody)
from hellycert.geometry import (INTERIOR_MARGIN, BodyFamily,
                                chebyshev_center, containment_bases,
                                containment_factor, containment_system,
                                interior_margin, normalize_family,
                                validate_family)
from hellycert.lp import dual_bounds, support_h_polytope
from hellycert.oracle import (enumerate_vertices, gen_halfspace_family,
                              gen_slab_family)

from conftest import (cube_halfspace_family, cube_slab_family,
                      twin_slab_family, walked_alpha)


def triangle_family():
    rows = [np.array([[-1.0, 0.0]]), np.array([[0.0, -1.0]]),
            np.array([[1.0, 1.0]])]
    offs = [np.array([0.0]), np.array([0.0]), np.array([1.0])]
    return BodyFamily.from_blocks("general", 2, list(zip(rows, offs)))


GOOD_SLAB = np.array([[1.0, 0.0], [0.0, 1.0]])
GOOD_HALFSPACE = (GOOD_SLAB, np.ones(2))


@pytest.mark.parametrize("mode, dim, bad, match", [
    ("symmetric", 2, np.array([[np.nan, 1.0]]), "body 1 has non-finite"),
    ("general", 2, (GOOD_SLAB, np.array([1.0, np.inf])),
     "body 1 has non-finite"),
    ("symmetric", 2, np.zeros((1, 2)), "body 1 has a zero constraint row"),
    ("general", 2, (np.zeros((1, 2)), np.ones(1)),
     "body 1 has a zero constraint row"),
    ("symmetric", 2, np.ones((1, 3)), "body 1: constraint rows"),
    ("general", 2, (np.ones(2), np.ones(1)), "body 1: constraint rows"),
    ("general", 2, (GOOD_SLAB, np.ones(1)), "body 1: 2 normals"),
    ("diagonal", 2, GOOD_SLAB, "unknown mode"),
    ("symmetric", 0, np.ones((1, 0)), "dimension must be positive"),
], ids=["nan-slab", "inf-offset", "zero-slab", "zero-normal", "slab-dim",
        "normal-vector-not-matrix", "offset-count", "mode", "dim-0"])
def test_from_blocks_rejects(mode, dim, bad, match):
    good = GOOD_HALFSPACE if mode == "general" else GOOD_SLAB
    with pytest.raises(ValueError, match=match):
        BodyFamily.from_blocks(mode, dim, [good, bad])


def test_family_rows_and_read_only_arrays():
    fam = BodyFamily.from_blocks("symmetric", 2, [GOOD_SLAB, GOOD_SLAB[:1]],
                                 ids=["a", ""])
    np.testing.assert_array_equal(fam.G, [[1, 0], [0, 1], [-1, 0], [0, -1],
                                          [1, 0], [-1, 0]])
    np.testing.assert_array_equal(fam.owner, [0, 0, 0, 0, 1, 1])
    np.testing.assert_array_equal(fam.negated, [0, 0, 1, 1, 0, 1])
    assert len(fam) == 2 and fam.ids == ("a", "")
    np.testing.assert_array_equal(fam.constraint_matrix([1])[0],
                                  [[1, 0], [-1, 0]])
    for outside in ([], [2], [0, -1]):
        with pytest.raises(ValueError, match="not in range"):
            fam.constraint_matrix(outside)
    with pytest.raises(ValueError):
        fam.G[0, 0] = 2.0


def test_normalize_cube_is_identity():
    fam = cube_halfspace_family(3)
    out = normalize_family(fam, np.zeros(3))
    np.testing.assert_allclose(out.G, fam.G)
    np.testing.assert_allclose(out.h, np.ones(len(fam.h)))


def test_normalize_rescales_offset_to_one():
    fam = BodyFamily.from_blocks("general", 2, [
        (np.array([[1.0, 0.0]]), np.array([3.0])),
        (np.array([[-1.0, 0.0]]), np.array([3.0])),
        (np.array([[0.0, 1.0]]), np.array([3.0])),
        (np.array([[0.0, -1.0]]), np.array([3.0])),
    ])
    out = normalize_family(fam, np.array([1.0, 0.0]))
    np.testing.assert_allclose(out.G[out.owner == 0], [[0.5, 0.0]])
    np.testing.assert_allclose(out.h[out.owner == 0], [1.0])


def test_normalize_matches_per_body_reference():
    """The whole-array normalization equals a per-body loop, bit for bit."""
    for seed in range(5):
        fam = gen_halfspace_family(3, count=6, seed=seed)
        z, _ = chebyshev_center(fam)
        out = normalize_family(fam, z)
        for j in range(len(fam)):
            a, c = fam.G[fam.owner == j], fam.h[fam.owner == j]
            np.testing.assert_array_equal(out.G[out.owner == j],
                                          a / (c - a @ z)[:, None])


def test_normalize_rejects_exterior_point():
    fam = cube_halfspace_family(2)
    with pytest.raises(NotInterior):
        normalize_family(fam, np.array([2.0, 0.0]))


def test_chebyshev_cube():
    z, r = chebyshev_center(cube_halfspace_family(2))
    np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-9)
    assert r == pytest.approx(1.0)


def test_chebyshev_right_triangle():
    z, r = chebyshev_center(triangle_family())
    expect = 1.0 / (2.0 + math.sqrt(2.0))
    assert r == pytest.approx(expect, abs=1e-9)
    np.testing.assert_allclose(z, [expect, expect], atol=1e-8)


def test_chebyshev_parallel_slabs_midline():
    fam = BodyFamily.from_blocks("general", 2, [
        (np.array([[0.0, 1.0]]), np.array([2.0])),
        (np.array([[0.0, -1.0]]), np.array([0.0])),
        (np.array([[1.0, 0.0]]), np.array([5.0])),
        (np.array([[-1.0, 0.0]]), np.array([5.0])),
    ])
    z, r = chebyshev_center(fam)
    assert z[1] == pytest.approx(1.0, abs=1e-8)
    assert r == pytest.approx(1.0)


def _lifted_highs(fam):
    """HiGHS on max{r : <a,x> + ||a|| r <= c}, r free: (status, r)."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    n = fam.dim
    norms = np.linalg.norm(fam.G, axis=1)
    ref = scipy_optimize.linprog(
        np.concatenate([np.zeros(n), [-1.0]]),
        A_ub=np.hstack([fam.G, norms[:, None]]), b_ub=fam.h,
        bounds=[(None, None)] * (n + 1), method="highs")
    return ref.status, (-ref.fun if ref.status == 0 else None)


@pytest.mark.parametrize("n", range(2, 9))
def test_chebyshev_of_a_translate_needs_artificials(n):
    """Translated by t, a family leaves the origin outside some bodies, so
    their rows have h < 0 and the lifted walk needs its shift R0 to start
    inside: the center moves by t, the radius stays, and r is HiGHS's
    optimum of the lifted LP."""
    fam = gen_halfspace_family(n, 4 * n, n)
    z, r = chebyshev_center(fam)
    t = np.random.default_rng(n).standard_normal(n)
    t *= 3.0 / np.linalg.norm(t)
    moved = BodyFamily.from_blocks("general", n, [
        (fam.G[fam.owner == j], (fam.h + fam.G @ t)[fam.owner == j])
        for j in range(len(fam))])
    assert (moved.h < 0).any() and (moved.h > 0).any()
    zt, rt = chebyshev_center(moved)
    np.testing.assert_allclose(zt, z + t, rtol=0, atol=1e-9)
    assert rt == pytest.approx(r, rel=1e-9, abs=1e-9)
    status, ref = _lifted_highs(moved)
    assert status == 0
    assert rt == pytest.approx(ref, rel=1e-9, abs=1e-9)


def test_chebyshev_agrees_with_highs_on_random_families():
    """400 seeded general families, the origin often outside and some
    intersections empty or unbounded: the lifted walk's r is HiGHS's to
    1e-9 relative and z is that deep, or both refuse (HiGHS unbounded or
    below INTERIOR_MARGIN)."""
    seen = {"agree": 0, "agree, origin outside": 0, UnboundedBody: 0,
            DegenerateInterior: 0}
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2 * n, 6 * n))
        G = rng.standard_normal((m, n)) * rng.uniform(0.5, 2.0, (m, 1))
        h = rng.uniform(-1.0 if seed % 2 else 0.1, 2.0, m)
        fam = BodyFamily.from_blocks(
            "general", n, [(G[i:i + 1], h[i:i + 1]) for i in range(m)])
        status, ref = _lifted_highs(fam)
        assert status in (0, 3), seed
        try:
            z, r = chebyshev_center(fam)
        except (UnboundedBody, DegenerateInterior) as exc:
            assert status == 3 or ref < INTERIOR_MARGIN, seed
            seen[type(exc)] += 1
            continue
        assert status == 0, seed
        assert r == pytest.approx(ref, rel=1e-9), seed
        assert interior_margin(fam, z) == pytest.approx(r, rel=1e-9), seed
        seen["agree, origin outside" if (h < 0).any() else "agree"] += 1
    assert min(seen.values()) >= 20, seen


def test_degenerate_interior_raises():
    fam = BodyFamily.from_blocks("general", 1, [
        (np.array([[1.0]]), np.array([0.0])),
        (np.array([[-1.0]]), np.array([0.0])),
    ])
    with pytest.raises(DegenerateInterior):
        chebyshev_center(fam)


def test_polar_rows_cube_slabs():
    # a normalized family's rows generate the polar; owner tags each row
    fam = normalize_family(cube_slab_family(3), np.zeros(3))
    got = {tuple(np.round(p, 12)) for p in fam.G}
    want = set()
    for i in range(3):
        e = [0.0] * 3
        e[i] = 1.0
        want.add(tuple(e))
        e[i] = -1.0
        want.add(tuple(e))
    assert got == want
    assert fam.owner.tolist() == [0, 0, 1, 1, 2, 2]


def test_polar_rows_single_halfspace():
    fam = BodyFamily.from_blocks(
        "general", 2, [(np.array([[1.0, 0.0]]), np.array([1.0]))])
    norm = normalize_family(fam, np.zeros(2))
    np.testing.assert_allclose(norm.G, [[1.0, 0.0]])
    assert norm.owner.tolist() == [0]


def test_polar_generator_count_mixed():
    fam = gen_slab_family(3, count=7, seed=11)
    per_body = np.bincount(fam.owner[~fam.negated])
    norm = normalize_family(fam, np.zeros(3))
    assert len(norm.G) == 2 * sum(per_body)


def test_alpha_all_bodies_is_one():
    fam = cube_slab_family(3)
    assert walked_alpha(fam, list(range(3))) == 1.0


def test_alpha_single_slab_unbounded():
    fam = cube_slab_family(2)
    assert walked_alpha(fam, [0]) == math.inf


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alpha_every_cube_subset(n):
    """Only the whole cube is bounded; a proper subset leaves a line."""
    fam = cube_slab_family(n)
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            want = 1.0 if k == n else math.inf
            assert walked_alpha(fam, list(subset)) == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(symmetric=st.booleans(), n=st.integers(2, 4), count=st.integers(2, 6),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_alpha_matches_dense_support_of_every_row(symmetric, n, count, seed,
                                                  data):
    """The batched, checked walk agrees with one dense LP per family row."""
    if symmetric:
        fam = gen_slab_family(n, count=count, seed=seed)
    else:
        raw = gen_halfspace_family(n, count=count, seed=seed)
        fam = normalize_family(raw, chebyshev_center(raw)[0])
    G, _, _ = fam.constraint_matrix()
    assume(np.linalg.matrix_rank(G) == n)  # the full intersection is bounded
    sel = data.draw(st.lists(st.integers(0, count - 1), min_size=1,
                             unique=True))
    Gq, hq, _ = fam.constraint_matrix(sel)
    want = max([1.0] + [support_h_polytope(Gq, hq, u) for u in G])
    got = walked_alpha(fam, sel)
    if math.isinf(want):
        assert got == math.inf
    else:
        assert got == pytest.approx(want, rel=1e-10)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 6), count=st.integers(3, 24),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_dual_bounds_are_sound_and_screening_keeps_alpha(n, count, seed,
                                                         data):
    """On slab families with duplicated and near-parallel slabs, every dual
    bound is at least the HiGHS support, and the screened alpha is the one
    of a walk and replay of every direction, to the bit."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    fam = twin_slab_family(n, count, seed)
    sel = data.draw(st.lists(st.integers(0, len(fam) - 1), min_size=1,
                             max_size=len(fam) - 1, unique=True))
    Gq, U = containment_system(fam, sel)
    assume(np.linalg.cond(Gq) < 1e7)  # Q is bounded, and not nearly a line
    # HiGHS meets its rows only to its feasibility tolerance, so each of its
    # optimal points is scaled into Q before it is compared
    x = np.array([scipy_optimize.linprog(
        -u, A_ub=Gq, b_ub=np.ones(len(Gq)), bounds=(None, None),
        method="highs").x for u in U])
    support = (np.einsum("ij,ij->i", U, x)
               / np.maximum(1.0, (x @ Gq.T).max(axis=1)))
    assert np.all(dual_bounds(Gq, U, lp.box_bound(Gq)) >= support)

    def alpha(walk_and_replay):
        try:
            return walk_and_replay()
        except SolverStall:
            return None

    # A walk can stop at a basis holding two near-parallel rows, where the
    # replay's bracket fails; the screen may leave that direction out.
    want = alpha(lambda: walked_alpha(fam, sel))
    got = alpha(lambda: containment_factor(fam, sel,
                                           containment_bases(fam, sel)))
    assert got == want or want is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_exact_twin_of_a_tight_row_does_not_block_the_crash():
    """A draw of the test above (n=5, count=5, seed=141, bodies 0 to 5): a
    direction next to a selected slab once let that slab's exact twin
    block the crash by rounding, and the twin's zero projection filled the
    crash with NaN. The walk and the screened walk now agree, and match
    HiGHS's 1.0000048233133998."""
    fam, sel = twin_slab_family(5, 5, 141), list(range(6))
    want = walked_alpha(fam, sel)
    assert containment_factor(fam, sel, containment_bases(fam, sel)) == want
    assert want == pytest.approx(1.0000048233133998, rel=1e-12)


def test_alpha_only_replays(monkeypatch):
    """Stored bases give the walked alpha with the walk gone, None gives +inf."""
    fam = gen_slab_family(3, count=12, seed=5)
    sel = list(range(8))
    directions, bases = containment_bases(fam, sel)
    alpha = walked_alpha(fam, sel)
    assert 1.0 < alpha < math.inf

    def no_walk(*args, **kwargs):
        raise AssertionError("containment_factor walked")

    monkeypatch.setattr(lp, "vertex_walk", no_walk)
    monkeypatch.setattr(lp, "_crash", no_walk)
    assert containment_factor(fam, sel, (directions, bases)) == alpha
    assert containment_factor(fam, sel, (directions, None)) == math.inf
    with pytest.raises(AssertionError, match="walked"):
        containment_bases(fam, sel)


def _forge_start_basis(walk, G, U):
    """Every direction reports the vertex the crash along e_1 reaches."""
    walk.basis[:] = lp._crash(G, np.eye(G.shape[1])[:1],
                              np.linalg.norm(G, axis=1))[0][0]


def _forge_negative_dual(walk, G, U):
    """-e_1 reports the optimal basis of +e_1, where all its duals are <= 0."""
    n = G.shape[1]
    walk.basis[-n] = walk.basis[-2 * n]


def _forge_ray(walk, G, U):
    walk.ray[0] = True
    walk.edge[0] = U[0]


@pytest.mark.parametrize("forge", [_forge_start_basis, _forge_negative_dual,
                                   _forge_ray])
def test_alpha_rejects_forged_walk(forge, monkeypatch):
    """With no closed-form box the +-e_i box is walked, and a forged walk
    of it, or of a family direction, fails its check."""
    fam = gen_slab_family(3, count=12, seed=5)
    sel = list(range(8))
    alpha = walked_alpha(fam, sel)
    assert 1.0 < alpha < math.inf
    monkeypatch.setattr(lp, "box_bound", lambda G: None)
    real = lp.vertex_walk

    def forged(G, U):
        walk = real(G, U)
        forge(walk, np.asarray(G), np.asarray(U))
        return walk

    monkeypatch.setattr(lp, "vertex_walk", forged)
    with pytest.raises(SolverStall):
        walked_alpha(fam, sel)


def test_alpha_rejects_a_forged_line(monkeypatch):
    """A claimed line is checked as two rays: G d <= 0 and G (-d) <= 0."""
    fam = gen_slab_family(3, count=12, seed=5)
    sel = list(range(8))
    Gq = fam.G[np.isin(fam.owner, sel)]
    d = Gq[0] / np.linalg.norm(Gq[0])
    assert np.max(Gq @ d / np.linalg.norm(Gq, axis=1)) > lp.PIVOT_TOL
    monkeypatch.setattr(lp, "box_bound", lambda G: None)
    monkeypatch.setattr(lp, "_crash", lambda G, U, norms: (None,) * 3 + (d,))
    with pytest.raises(SolverStall, match="ray"):
        walked_alpha(fam, sel)


def _ray_at_the_optimum(walk, start):
    """Every direction reaches its optimal basis, then claims a ray."""
    return walk.basis


def _ray_at_the_start(walk, start):
    """Every direction claims a ray at once and stays at its start basis."""
    return np.array(start)


def _slab_family():
    return gen_slab_family(3, count=12, seed=5)


def _general_family():
    raw = gen_halfspace_family(3, count=8, seed=100)
    return normalize_family(raw, chebyshev_center(raw)[0])


@pytest.mark.parametrize("forge", [_ray_at_the_optimum, _ray_at_the_start])
@pytest.mark.parametrize("family", [_slab_family, _general_family])
def test_a_ray_on_a_family_direction_never_lowers_alpha(family, forge,
                                                        monkeypatch):
    """On a bounded Q a family-direction walk that claims a ray keeps the
    basis it stopped at: the replay gives the same alpha or SolverStall.
    Q has a closed-form box, so every walk is of family directions, and
    every walk starts at the basis its crash returns."""
    fam = family()
    sel = list(range(4))
    want = containment_factor(fam, sel, containment_bases(fam, sel))
    assert 1.0 < want < math.inf
    real_walk, real_crash = lp.vertex_walk, lp._crash
    starts, forged = [], []

    def crash(G, U, norms):
        found = real_crash(G, U, norms)
        starts.append(found[0].copy())
        return found

    def walk(G, U):
        forged.append(len(U))
        basis = forge(real_walk(G, U), starts[-1])
        return lp.VertexWalk(basis, np.ones(len(U), dtype=bool),
                             np.array(U, dtype=float))

    monkeypatch.setattr(lp, "_crash", crash)
    monkeypatch.setattr(lp, "vertex_walk", walk)
    try:
        got = containment_factor(fam, sel, containment_bases(fam, sel))
    except SolverStall:
        got = None
    assert forged
    assert got is None or got == want


def _start_at_worst_corner(G, U, start):
    """Each direction starts at the offered vertex that minimizes u.x."""
    offered = np.unique(start, axis=0)
    corners = np.linalg.solve(G[offered],
                              np.ones((len(offered), G.shape[1], 1)))[:, :, 0]
    return offered[np.argmin(U @ corners.T, axis=1)]


def _start_outside(G, U, start):
    """Every direction starts at n rows whose common point violates G."""
    n = G.shape[1]
    for rows in itertools.combinations(range(len(G)), n):
        x = np.linalg.solve(G[list(rows)], np.ones(n))
        if np.max(G @ x) > 1.5:
            return np.tile(rows, (len(U), 1))
    raise AssertionError("every basis of Q is feasible")


def _start_singular(G, U, start):
    forged = start.copy()
    forged[:, 1] = forged[:, 0]
    return forged


@pytest.mark.parametrize("forge", [_start_at_worst_corner, _start_outside,
                                   _start_singular])
def test_forged_start_never_moves_alpha(forge, monkeypatch):
    """A start basis is a hint: the walk from a worse vertex, from a point
    outside Q or from a singular basis gives the same alpha or SolverStall.
    A walk's start is the basis its crash returns, forged here."""
    fam = gen_slab_family(3, count=12, seed=5)
    sel = list(range(8))
    alpha = walked_alpha(fam, sel)
    real = lp._crash
    forged_starts = []

    def forged(G, U, norms):
        start, ray, edge, line = real(G, U, norms)
        start = forge(G, U, start)
        forged_starts.append(start)
        return start, ray, edge, line

    monkeypatch.setattr(lp, "_crash", forged)
    try:
        assert walked_alpha(fam, sel) == pytest.approx(alpha, rel=1e-12)
    except SolverStall:
        pass
    assert len(forged_starts) == 1


@pytest.mark.parametrize("forge", [_forge_start_basis, _forge_negative_dual])
def test_selection_stops_on_a_forged_walk(forge, monkeypatch):
    """The producers' walk is checked once, by the replay in io.check."""
    from hellycert.pipeline import select_symmetric
    real = lp.vertex_walk

    def forged(G, U):
        walk = real(G, U)
        forge(walk, np.asarray(G), np.asarray(U))
        return walk

    monkeypatch.setattr(lp, "vertex_walk", forged)
    with pytest.raises(SolverStall, match="support_bases"):
        select_symmetric(gen_slab_family(3, count=12, seed=5))


def test_alpha_antitone_under_growing_selection(rng):
    fam = gen_slab_family(2, count=8, seed=4)
    order = list(rng.permutation(8))
    prev = math.inf
    for k in range(2, 9):
        alpha = walked_alpha(fam, order[:k])
        assert alpha <= prev + 1e-9
        prev = alpha


def test_normalized_chebyshev_keeps_margin():
    from hellycert.oracle import gen_halfspace_family
    fam = gen_halfspace_family(3, count=5, seed=2)
    z, _ = chebyshev_center(fam)
    out = normalize_family(fam, z)
    margin = interior_margin(out, np.zeros(3))
    assert margin > 0
    _, r2 = chebyshev_center(out)
    assert r2 >= margin * (1 - 1e-6)
    np.testing.assert_allclose(out.h, 1.0)


def test_validate_family_accepts_generated():
    fam = gen_slab_family(4, count=5, seed=9)
    validate_family(fam)


def test_polarity_consistency_small():
    """Every polar generator stays <= 1 against its owner body."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    fam = gen_slab_family(3, count=4, seed=13)
    norm = normalize_family(fam, np.zeros(3))
    for v, tag in zip(norm.G, norm.owner):
        g, h, _ = fam.constraint_matrix(selected=[int(tag)])
        # a single slab body holds a line, which the walk reads as unbounded;
        # its support in a direction of its own rows is finite, so HiGHS
        ref = scipy_optimize.linprog(-v, A_ub=g, b_ub=h,
                                     bounds=(None, None), method="highs")
        assert ref.status == 0 and -ref.fun <= 1.0 + 1e-8
    # and against the vertices of the whole intersection
    g, h, _ = fam.constraint_matrix()
    verts = enumerate_vertices(g, h)
    assert np.max(verts @ norm.G.T) <= 1.0 + 1e-7
