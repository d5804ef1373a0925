"""The vertex walk, its LP entry point and the support checks."""

import numpy as np
import pytest
import scipy.optimize

from hellycert import geometry, lp
from hellycert.errors import (DegenerateInterior, SolverStall,
                              UnboundedBody)
from hellycert.geometry import BodyFamily, containment_system
from hellycert.lp import (check_support, solve_lp, support_h_polytope,
                          walk_bases)
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.pipeline import select_symmetric

import reference_kernels
from conftest import (cube_slab_family, fan_through_corner, record_walks,
                      twin_slab_family, unit_rows)


def box_rows(n):
    return np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n)


def _value(G, u):
    """The optimal value of one direction by ``solve_lp``."""
    return float(u @ solve_lp(G, u)[1][0])


def test_maximize_over_unit_square():
    g = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    h = np.array([1.0, 1.0, 0.5, 0.5])
    assert _value(g / h[:, None], np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert _value(g / h[:, None], np.array([-1.0, 0.0])) == pytest.approx(0.5)


def test_unbounded_halfline():
    with pytest.raises(UnboundedBody):
        solve_lp(np.array([[-1.0]]), np.array([1.0]))


def test_simplex_facet_optimum():
    g = np.array([[1.0, 1.0], [-2.0, 0.0], [0.0, -2.0]])
    assert _value(g, np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_optimal_point_is_feasible(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        g_box, h_box = box_rows(n)
        extra = unit_rows(rng, int(rng.integers(1, 5)), n)
        g = np.vstack([g_box, extra])
        h = np.concatenate([h_box, rng.uniform(0.2, 1.5, len(extra))])
        c = rng.standard_normal((3, n))
        basis, x = solve_lp(g / h[:, None], c)
        assert np.all(x @ g.T <= h + 1e-8)
        np.testing.assert_allclose(np.einsum("kij,kj->ki", g[basis], x),
                                   h[basis], rtol=0, atol=1e-12)


def test_infeasible_detected():
    """x <= -2 and x >= 2: no offset is positive, so the support query
    refuses the rows, and the Chebyshev walk, whose lifted offsets are,
    finds the depth negative."""
    g = np.array([[1.0], [-1.0]])
    h = np.array([-2.0, -2.0])
    with pytest.raises(ValueError, match="h > 0"):
        support_h_polytope(g, h, np.array([1.0]))
    fam = BodyFamily.from_blocks("general", 1, [(g[:1], h[:1]),
                                                (g[1:], h[1:])])
    with pytest.raises(DegenerateInterior, match="inradius -2.000e"):
        geometry.chebyshev_center(fam)


def test_support_cube_axis():
    g, h = box_rows(2)
    assert support_h_polytope(g, h, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_support_cube_diagonal():
    g, h = box_rows(2)
    assert support_h_polytope(g, h, np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_support_cross_polytope_diagonal():
    g = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    h = np.ones(4)
    assert support_h_polytope(g, h, np.array([1.0, 1.0])) == pytest.approx(1.0)


def test_support_unbounded_direction():
    # a single slab is unbounded along its axis
    g = np.array([[0.0, 1.0], [0.0, -1.0]])
    h = np.ones(2)
    assert support_h_polytope(g, h, np.array([1.0, 0.0])) == np.inf


def test_walk_reports_a_line_as_rays():
    """Along a line d = e_3 the box walk meets a ray (one per sign), so the
    walk gives None in every direction, also one orthogonal to d, where
    +inf is still an upper bound on the support."""
    G = np.vstack([np.eye(3)[:2], -np.eye(3)[:2]])
    assert walk_bases(G, [[1.0, 0.0, 0.5]]) is None
    assert walk_bases(G, [[0.0, 0.0, -1.0]]) is None
    assert walk_bases(G, [[1.0, 0.0, 0.0]]) is None


def _slab_subset_line():
    """Two of the three cube slabs: Q holds the line along e_3."""
    return containment_system(cube_slab_family(3), [0, 1])


def _plane_line():
    return np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]), np.eye(3)


def _quadrant():
    """x >= -1, y >= -1: a cone of rays, no line."""
    return -np.eye(2), np.array([[1.0, 2.0], [-1.0, 0.5]])


@pytest.mark.parametrize("system", [_slab_subset_line, _plane_line,
                                    _quadrant])
def test_unbounded_walk_is_the_box_walk_alone(system, monkeypatch):
    """On an unbounded Q only the +-e_i walk runs, from its own crash, and
    its checked ray gives None: no row of U is walked."""
    G, U = system()
    calls = record_walks(monkeypatch)
    for symmetric in (False, True):
        calls.clear()
        assert walk_bases(G, U, symmetric=symmetric) is None
        assert calls == [2 * G.shape[1]]


def test_support_empty_body():
    """An empty body's offsets cannot all be positive: refused up front."""
    g = np.array([[1.0], [-1.0]])
    h = np.array([-2.0, -2.0])
    with pytest.raises(ValueError, match="h > 0"):
        support_h_polytope(g, h, np.array([1.0]))


def test_support_sublinearity(rng):
    g, h = box_rows(3)
    extra = unit_rows(rng, 4, 3)
    g = np.vstack([g, extra])
    h = np.concatenate([h, rng.uniform(0.3, 1.2, 4)])
    for _ in range(25):
        u = rng.standard_normal(3)
        w = rng.standard_normal(3)
        hu = support_h_polytope(g, h, u)
        hw = support_h_polytope(g, h, w)
        huw = support_h_polytope(g, h, u + w)
        assert huw <= hu + hw + 1e-9
        t = rng.uniform(0.1, 3.0)
        assert support_h_polytope(g, h, t * u) == pytest.approx(t * hu, abs=1e-8)


def test_agrees_with_scipy_linprog(rng):
    """Cross-check optimal values against an independent solver."""
    for _ in range(20):
        n = int(rng.integers(2, 5))
        g_box, h_box = box_rows(n)
        extra = unit_rows(rng, 3, n)
        g = np.vstack([g_box, extra])
        h = np.concatenate([h_box, rng.uniform(0.2, 1.5, 3)])
        c = rng.standard_normal(n)
        ref = scipy.optimize.linprog(-c, A_ub=g, b_ub=h, bounds=(None, None),
                                     method="highs")
        assert ref.status == 0
        assert support_h_polytope(g, h, c) == pytest.approx(-ref.fun,
                                                            abs=1e-7)


def _random_polytope(rng):
    """(G, h, HiGHS status and values of 8 directions): rows with h > 0,
    bounded or not; status 0 is optimal, 3 unbounded."""
    n = int(rng.integers(2, 6))
    g = rng.standard_normal((int(rng.integers(n, 4 * n + 2)), n))
    h = rng.uniform(0.1, 2.0, len(g))
    U = rng.standard_normal((8, n))
    runs = [scipy.optimize.linprog(-u, A_ub=g, b_ub=h, bounds=(None, None),
                                   method="highs") for u in U]
    return g, h, U, runs


def test_solve_lp_agrees_with_highs():
    """On random polytopes with h > 0, ``solve_lp`` gives HiGHS's optimum
    in every direction when HiGHS finds all of them finite, and
    UnboundedBody when HiGHS finds one unbounded; both kinds occur."""
    seen = set()
    for seed in range(120):
        rng = np.random.default_rng(seed)
        g, h, U, runs = _random_polytope(rng)
        status = {r.status for r in runs}
        assert status <= {0, 3}, seed
        if 3 in status:
            with pytest.raises(UnboundedBody):
                solve_lp(g / h[:, None], U)
        else:
            basis, x = solve_lp(g / h[:, None], U)
            np.testing.assert_allclose(np.einsum("ij,ij->i", U, x),
                                       [-r.fun for r in runs],
                                       rtol=1e-9, atol=1e-9)
        seen.add(3 in status)
    assert seen == {True, False}


@pytest.mark.parametrize("forge", ["ray", "line"])
def test_forged_ray_is_a_stall_not_unbounded(forge, monkeypatch):
    """A ray or line claimed on a bounded polytope fails the rises-and-stays
    check: SolverStall, never UnboundedBody."""
    g, h = box_rows(3)
    real = lp.vertex_walk

    def forged(G, U):
        walk = real(G, U)
        if forge == "ray":
            walk.ray[0], walk.edge[0] = True, U[0]
        else:
            walk.line = np.eye(3)[0]
        return walk

    monkeypatch.setattr(lp, "vertex_walk", forged)
    with pytest.raises(SolverStall, match="not a recession direction"):
        solve_lp(g, np.eye(3))


def test_a_falling_ray_of_the_center_walk_is_a_stall(monkeypatch):
    """The Chebyshev walk's lifted rows [g, |g|] / (c + |g| R0) all recede
    along -e_{n+1}, so a ray claimed that way stays, but it falls against
    the walk's direction e_{n+1}: the claim must fail the ``rises`` test
    (SolverStall), not report a bounded family unbounded."""
    fam = gen_halfspace_family(3, 8, 0)
    real = lp.vertex_walk

    def forged(G, U):
        walk = real(G, U)
        assert np.all(np.asarray(G)[:, -1] > 0.0)
        walk.ray[0], walk.edge[0] = True, -np.eye(len(U[0]))[-1]
        return walk

    monkeypatch.setattr(lp, "vertex_walk", forged)
    with pytest.raises(SolverStall, match="not a recession direction"):
        geometry.chebyshev_center(fam)


def _counted_rounds(monkeypatch):
    """Rounds of every walk and direction-rounds (one per live direction
    per round); a first-vertex shot counts as one of each."""
    real = lp._blocking
    count = {"rounds": 0, "directions": 0}

    def counted(gd, *args):
        count["rounds"] += 1
        count["directions"] += gd.shape[0]
        return real(gd, *args)

    monkeypatch.setattr(lp, "_blocking", counted)
    return count


def _walk_cases(rng, degenerate):
    """(G, U, supports by HiGHS): six random polytopes with the cube's rows,
    or six corners where many rows and duplicates meet."""
    for _ in range(6):
        n = int(rng.integers(2, 6))
        if degenerate:
            G = fan_through_corner(rng, n, 3 * n)
            U = np.vstack([unit_rows(rng, 6, n), G[2 * n:], np.ones(n)])
        else:
            extra = unit_rows(rng, 4 * n, n)
            G = np.vstack([np.eye(n), -np.eye(n),
                           extra / rng.uniform(0.2, 1.5, (4 * n, 1))])
            U = unit_rows(rng, 12, n)
        yield G, U, np.array([-scipy.optimize.linprog(
            -u, A_ub=G, b_ub=np.ones(len(G)), bounds=(None, None),
            method="highs").fun for u in U])


@pytest.mark.parametrize("degenerate", [False, True])
def test_walk_agrees_with_highs(rng, degenerate, monkeypatch):
    """Each proposed basis is optimal for its direction, from ``walk_bases``
    and from a direct walk, each from its own crash, on random polytopes
    and on a corner where many rows and duplicates meet; the walks together
    stay under one walk's 50 (m + n) round cap."""
    for G, U, ref in _walk_cases(rng, degenerate):
        n = G.shape[1]
        rounds = _counted_rounds(monkeypatch)
        directions, proposed = walk_bases(G, U)
        np.testing.assert_array_equal(directions, np.arange(len(U)))
        direct = lp.vertex_walk(G, U)
        assert not direct.ray.any()
        assert rounds["rounds"] < 50 * (len(G) + n)  # every walk
        for bases in (proposed[:len(U)], direct.basis):
            x = np.linalg.solve(G[bases], np.ones((len(U), n, 1)))[:, :, 0]
            np.testing.assert_allclose(np.einsum("ij,ij->i", U, x), ref,
                                       rtol=1e-9, atol=1e-12)
        assert check_support(G, U, proposed, lp.box_bound(G)) == (
            pytest.approx(ref.max(), rel=1e-9))


def test_screened_walk_guard(monkeypatch):
    """At n=20 the dual bounds leave 48 of the 1 111 family directions to
    walk; without them every direction was walked. The closed-form box
    leaves no box walk, so every walk is of family directions."""
    walked = record_walks(monkeypatch)
    cert = select_symmetric(gen_slab_family(20, 600, 0))
    assert 0 < sum(walked) <= 100
    assert cert.diagnostics["walked_directions"] == sum(walked)
    assert sum(walked) + cert.diagnostics["screened_directions"] == 1111


@pytest.mark.parametrize("n, count, most, pins", [
    # 2 066 direction-rounds from the +-e_i vertices with Dantzig pricing;
    # 6 519 with every direction from one vertex by Bland's rule
    pytest.param(8, 200, 3000, None, id="n8"),
    # 4 234 with every walk from its own crash, 6 896 with the screened
    # directions from the best walked vertex; the start must not move
    # (s, walked directions, alpha)
    pytest.param(30, 900, 5000, (75, 110, 5.023363137500274), id="n30")])
def test_walk_round_guard(n, count, most, pins, monkeypatch):
    rounds = _counted_rounds(monkeypatch)
    cert = select_symmetric(gen_slab_family(n, count, 0))
    assert 0 < rounds["directions"] <= most
    if pins:
        s, walked, alpha = pins
        assert cert.s == s
        assert cert.diagnostics["walked_directions"] == walked
        assert cert.alpha_measured == pytest.approx(alpha, rel=1e-12)


@pytest.mark.parametrize("degenerate", [False, True])
def test_crash_starts_at_a_vertex_below_the_highs_optimum(rng, degenerate):
    """Every direction's crash ends at a vertex of its polytope, n distinct
    rows tight and every row kept, where u.x has not fallen below its value
    at the origin nor risen past the optimum; the walk from there reaches
    the HiGHS optimum."""
    for G, U, ref in _walk_cases(rng, degenerate):
        n = G.shape[1]
        basis, ray, _, line = lp._crash(G, U, np.linalg.norm(G, axis=1))
        assert line is None and not ray.any()
        assert np.all(np.diff(np.sort(basis, axis=1), axis=1) > 0)
        x = np.linalg.solve(G[basis], np.ones((len(U), n, 1)))[:, :, 0]
        assert np.all(x @ G.T <= 1.0 + 1e-9)
        value = np.einsum("ij,ij->i", U, x)
        assert np.all(value >= -1e-12) and np.all(value <= ref + 1e-9)
        walk = lp.vertex_walk(G, U)
        x = np.linalg.solve(G[walk.basis], np.ones((len(U), n, 1)))[:, :, 0]
        np.testing.assert_allclose(np.einsum("ij,ij->i", U, x), ref,
                                   rtol=1e-9, atol=1e-12)


def _tilted_line(rng, n):
    """Unit rows orthogonal to one random direction: Q holds that line."""
    v = unit_rows(rng, 1, n)[0]
    g = unit_rows(rng, 3 * n, n)
    return g - np.outer(g @ v, v)


def _open_cone(rng, n):
    """Unit rows confined to an open halfspace: rays but no line."""
    g = unit_rows(rng, 3 * n, n)
    v = unit_rows(rng, 1, n)[0]
    return g * np.where(g @ v < 0, -1.0, 1.0)[:, None]


@pytest.mark.parametrize("system", [_tilted_line, _open_cone])
def test_crash_rays_pass_the_box_check(rng, system):
    """From the crash, the +-e_i walk of an unbounded Q claims rays that
    rise and stay, the check of ``walk_bases``, which then gives None."""
    for n in (2, 3, 4, 5):
        G = system(rng, n)
        assert lp.box_bound(G) is None
        axes = np.vstack([np.eye(n), -np.eye(n)])
        walk = lp.vertex_walk(G, axes)
        assert walk.ray.any()
        e = walk.edge[walk.ray]
        enorm = np.linalg.norm(e, axis=1)
        assert np.all(np.einsum("ij,ij->i", axes[walk.ray], e)
                      > lp.PIVOT_TOL * enorm)
        assert np.all(e @ G.T <= lp.PIVOT_TOL * np.outer(
            enorm, np.linalg.norm(G, axis=1)))
        assert walk_bases(G, unit_rows(rng, 4, n), symmetric=True) is None


def _crash_cases(rng):
    """(label, G, U): the walk cases, random and at a degenerate corner, a
    containment system with exact twins, then unbounded systems, an open
    cone (rays only) and a tilted line, with directions that rise along
    them and directions that do not."""
    for degenerate in (False, True):
        for G, U, _ in _walk_cases(rng, degenerate):
            yield "degenerate" if degenerate else "random", G, U
    # a direction next to a selected slab once let its exact twin block by
    # rounding (test_an_exact_twin_of_a_tight_row_does_not_block_the_crash)
    yield "copies", *containment_system(twin_slab_family(5, 5, 141),
                                        list(range(6)))
    for system in (_open_cone, _tilted_line):
        for n in (2, 3, 4, 5):
            G = system(rng, n)
            U = np.vstack([unit_rows(rng, 8, n), np.eye(n), -np.eye(n)])
            yield system.__name__, G, U
            yield system.__name__, G, np.vstack([U, G[:2]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_crash_and_walk_match_the_loop_reference_bit_for_bit(rng):
    """The packed crash and the walk from it return exactly the bases, rays,
    edges and line of the loop versions in ``reference_kernels``; the cases
    reach a flat projection, rays next to directions that stay, and lines.
    Where G has exact copies, the crash bases name only the first copy."""
    seen = set()
    for label, G, U in _crash_cases(rng):
        norms = np.linalg.norm(G, axis=1)
        got = lp._crash(G, U, norms)
        want = reference_kernels.crash(G, U, norms)
        first = np.unique(G, axis=0, return_index=True)[1]
        assert np.isin(got[0], first).all(), label
        for a, b in zip(got[:3], want[:3]):
            assert np.array_equal(a, b), label
        assert (got[3] is None) == (want[3] is None), label
        assert want[3] is None or np.array_equal(got[3], want[3]), label
        walk = lp.vertex_walk(G, U)
        for a, b in zip((walk.basis, walk.ray, walk.edge),
                        reference_kernels.vertex_walk(G, U)):
            assert np.array_equal(a, b), label
        seen.add("line" if want[3] is not None
                 else "ray" if want[1].all()
                 else "ray and vertex" if want[1].any() else "vertex")
    assert seen == {"vertex", "ray", "ray and vertex", "line"}


def _box_cases(count):
    """Seeded row sets G with n from 2 to 6, cycling through five kinds:
    slab pairs +-g, general unit rows, either with near-duplicates (rows
    repeated with a 1e-7 tilt), rows confined to an open halfspace, and
    rows orthogonal to one direction (a line)."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        g = unit_rows(rng, int(rng.integers(n + 1, 3 * n + 4)), n)
        kind = seed % 5
        if kind in (2, 3):
            near = g[rng.integers(0, len(g), size=n)]
            g = np.vstack([g, near + 1e-7 * rng.standard_normal(near.shape)])
        if kind in (0, 2):
            g = np.vstack([g, -g])
        elif kind == 4:
            v = unit_rows(rng, 1, n)[0]
            g = (g * np.where(g @ v < 0, -1.0, 1.0)[:, None] if seed % 2
                 else g - np.outer(g @ v, v))
        yield kind, g


def test_box_bound_is_sound_on_random_systems():
    """The closed-form box holds every point of Q, each HiGHS maximizer of
    +-e_i scaled into Q, and is None wherever HiGHS finds Q unbounded; it
    decides every bounded slab system."""
    decided = {True: 0, False: 0}
    for kind, g in _box_cases(150):
        n = g.shape[1]
        box = lp.box_bound(g)
        runs = [scipy.optimize.linprog(
            -d, A_ub=g, b_ub=np.ones(len(g)), bounds=(None, None),
            method="highs") for d in np.vstack([np.eye(n), -np.eye(n)])]
        if any(r.status == 3 for r in runs):
            assert box is None, g
            continue
        assert all(r.status == 0 for r in runs)
        assert box is not None or kind not in (0, 2), g
        decided[box is not None] += 1
        if box is not None:
            x = np.array([r.x for r in runs])
            x /= np.maximum(1.0, (x @ g.T).max(axis=1))[:, None]
            assert np.abs(x).max() <= box, g
    assert decided[True] and decided[False]
