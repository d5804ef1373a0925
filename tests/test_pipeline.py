"""End-to-end selection pipelines, both symmetry modes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hellycert import __version__, lp, pipeline
from hellycert.errors import (CaratheodoryFailed, DegenerateInterior,
                              InvalidInstance, SolverStall, UnboundedBody)
from hellycert.geometry import BodyFamily, chebyshev_center, normalize_family
from hellycert.io import certificate_to_json, verify_certificate
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.pipeline import (GROWTH_SLACK, RECENTER_TARGET, _polar_offset,
                                _recenter, _stage, caratheodory_express,
                                diameter_report, reduce_to_2n,
                                select_general, select_symmetric)

from conftest import (best_subset_bruteforce, chain_steps, count_calls,
                      cube_halfspace_family, cube_slab_family,
                      derived_witnesses, plane_fan_family, record_walks,
                      simplex_family, thin_slab_family, unit_rows,
                      walked_alpha)


def test_cube_selects_everything():
    cert = select_symmetric(cube_slab_family(3), d=2.0)
    assert cert.selected == (0, 1, 2)
    assert cert.alpha_measured == pytest.approx(1.0, abs=1e-9)
    assert cert.all_pass
    assert cert.gamma_d == pytest.approx((math.sqrt(2) + 1) / (math.sqrt(2) - 1))


def test_gamma_at_four_is_three():
    cert = select_symmetric(cube_slab_family(2), d=4.0)
    assert cert.gamma_d == pytest.approx(3.0)
    assert cert.bound_claimed == pytest.approx(3.0 * math.sqrt(2))


def test_plane_fan_comes_under_bound():
    cert = select_symmetric(plane_fan_family(100), d=4.0)
    assert cert.s <= 8
    assert cert.alpha_measured <= 3.0 * math.sqrt(2) * (1 + 1e-5)
    assert cert.all_pass
    # exact oracle agrees with the LP certification at this scale
    alpha_oracle = walked_alpha(plane_fan_family(100), list(cert.selected))
    assert cert.alpha_measured == pytest.approx(alpha_oracle, abs=1e-6)


def test_symmetric_selection_beats_nothing_brute_force():
    fam = gen_slab_family(2, count=9, seed=6)
    cert = select_symmetric(fam, d=4.0)
    assert cert.all_pass
    best_alpha, _ = best_subset_bruteforce(fam, min(cert.s, 9))
    assert cert.alpha_measured >= best_alpha - 1e-9


def test_symmetric_verdicts_and_payload(rng):
    fam = gen_slab_family(3, count=10, seed=2)
    cert = select_symmetric(fam, d=4.0)
    assert cert.mode == "symmetric"
    assert set(cert.verdicts) == {"sandwich", "cardinality",
                                  "alpha_within_bound"}
    assert cert.all_pass
    assert cert.s == len(cert.selected)
    assert cert.s <= math.ceil(4.0 * 3)
    assert set(cert.selected) <= set(range(10))
    vecs = derived_witnesses(fam, cert)[0]
    coef = np.asarray(cert.payload["coefficients"])
    acc = (vecs * coef[:, None]).T @ vecs
    eigs = np.linalg.eigvalsh(acc)
    assert eigs[0] >= 1.0 - 1e-6
    assert eigs[-1] <= 9.0 * (1 + 1e-6)


def test_symmetric_john_gets_one_row_per_slab(monkeypatch):
    fam = gen_slab_family(4, count=30, seed=5)
    real, seen = pipeline.john_decomposition, []

    def recorded(pts, *args, **kwargs):
        seen.append(np.array(pts))
        return real(pts, *args, **kwargs)

    monkeypatch.setattr(pipeline, "john_decomposition", recorded)
    assert select_symmetric(fam).all_pass
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], fam.G[~fam.negated])


@pytest.mark.parametrize("n, count, seed", [
    *[(6, 100, seed) for seed in range(100, 108)], (8, 200, 0)])
def test_one_row_per_slab_keeps_the_two_sign_selection(n, count, seed):
    """John and the sparsifier on both signs of every slab pick the same
    rows and bodies as on one row per slab."""
    fam = gen_slab_family(n, count, seed)
    dec = pipeline.john_decomposition(fam.G, centered=False)
    res = pipeline.bss_select(dec.vectors, dec.weights, 4.0)
    rows = dec.source_indices[res.sigma]
    cert = select_symmetric(fam, d=4.0)
    np.testing.assert_array_equal(cert.payload["sigma_rows"], rows)
    assert cert.selected == tuple(np.unique(fam.owner[rows]).tolist())


def test_simplex_keeps_every_facet():
    cert = select_general(simplex_family(3))
    assert cert.selected == (0, 1, 2, 3)
    assert cert.alpha_measured == pytest.approx(1.0, abs=1e-6)
    assert cert.all_pass
    assert cert.diagnostics["residual_identity"] <= 1e-10
    assert cert.diagnostics["residual_barycenter"] <= 1e-10


def test_cube_as_general_small_shift():
    fam = cube_halfspace_family(2)
    cert = select_general(fam)
    assert cert.alpha_measured == pytest.approx(1.0, abs=1e-9)
    assert cert.all_pass
    _, _, shift, w = derived_witnesses(fam, cert)
    sum_b = cert.diagnostics["sum_b"]
    assert sum_b * float(shift @ shift) <= 0.5
    assert np.linalg.norm(w) <= 0.5 + 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_a_thin_slab_family_selects_and_certifies(n):
    """An inradius of at most 5e-7: the recentering's converged weights
    fail the John solve's span test, which the cold solve of the same
    points passes, so that solve starts cold."""
    fam = thin_slab_family(n, seed=1, width=1e-6)
    cert = select_general(fam)
    assert cert.all_pass and len(fam) - 1 in cert.selected
    assert verify_certificate(fam, certificate_to_json(cert, __version__)) == (
        True, [])


def test_general_random_families_all_verdicts():
    for seed, n in ((0, 2), (1, 3), (2, 4)):
        fam = gen_halfspace_family(n, count=4, seed=seed)
        cert = select_general(fam)
        assert cert.all_pass, (seed, n, cert.verdicts)
        assert cert.diagnostics["barycenter_residual"] <= 1e-10
        assert cert.diagnostics["w_norm"] <= 1.0 / n + 1e-9
        assert n - 1e-6 <= cert.diagnostics["sum_b"] <= 5.0 * n + 1e-6
        assert cert.diagnostics["union_size"] <= cert.diagnostics["budget"]
        assert cert.diagnostics["tau_size"] <= n + 1
        assert cert.diagnostics["cara_residual"] <= 1e-9
        assert math.isfinite(cert.alpha_measured)
        assert cert.c_measured == pytest.approx(
            cert.alpha_measured / n ** 1.5, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_recenter_reaches_its_target(seed):
    cert = select_general(gen_halfspace_family(3, 8, seed))
    assert cert.diagnostics["recenter_offset"] <= RECENTER_TARGET
    assert cert.all_pass


def test_recenter_offsets_strictly_decrease(monkeypatch):
    """Each accepted step lowers the offset; every trial solve starts from
    the accepted translate's weights, and what ``_recenter`` returns is
    what ``_polar_offset`` gives again from the start its translate had."""
    fam = gen_halfspace_family(3, 8, seed=2)
    z0, radius = chebyshev_center(fam)
    monkeypatch.setattr(pipeline, "RECENTER_TARGET", 0.0)
    calls = []

    def spy(family, z, start=None):
        out = _polar_offset(family, z, start)
        calls.append((start, out))
        return out

    monkeypatch.setattr(pipeline, "_polar_offset", spy)
    offsets = []
    for k in range(5):
        monkeypatch.setattr(pipeline, "RECENTER_MAX_STEPS", k)
        calls.clear()
        z, offset, steps, norm, u = _recenter(fam, z0, radius)
        assert steps == k
        (start, accepted), *trials = calls
        assert start is None
        for trial_start, trial in trials:
            assert np.array_equal(trial_start, accepted[3])
            if trial[0] < accepted[0]:
                start, accepted = trial_start, trial
        polar = _polar_offset(fam, z, start)
        assert offset == polar[0] == accepted[0]
        # the family and weights handed on are the polar's at z
        assert np.array_equal(norm.G, polar[2].G)
        assert np.array_equal(norm.owner, polar[2].owner)
        assert np.array_equal(norm.h, np.ones(len(norm.h)))
        assert np.array_equal(u, polar[3])
        offsets.append(offset)
    assert all(b < a for a, b in zip(offsets, offsets[1:])), offsets


def test_caratheodory_center_of_cross():
    pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    tau, rho = caratheodory_express(np.zeros(2), pts)
    assert len(tau) <= 3
    assert np.linalg.norm(rho @ pts[tau]) <= 1e-12
    assert rho.sum() == pytest.approx(1.0)


def test_caratheodory_vertex_target():
    pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    tau, rho = caratheodory_express(np.array([1.0, 0.0]), pts)
    assert tau.tolist() == [0]
    assert rho[0] == pytest.approx(1.0)


def test_caratheodory_random_hull(rng):
    pts = rng.standard_normal((20, 5))
    lam = rng.uniform(0, 1, 20)
    lam /= lam.sum()
    target = lam @ pts
    tau, rho = caratheodory_express(target, pts)
    assert len(tau) <= 6
    assert np.linalg.norm(rho @ pts[tau] - target) <= 1e-12
    assert np.all(rho >= -1e-12)


def test_caratheodory_rejects_a_forged_ray(monkeypatch):
    # a walk that claims the target lies outside the hull is not trusted to
    # mean anything else: no witness, CaratheodoryFailed
    pts = np.array([[1.0, 1], [1, -1], [-1, 1], [-1, -1], [0, 0]])

    def ray(G, U):
        raise UnboundedBody("the polyhedron has a recession direction")

    monkeypatch.setattr(pipeline, "solve_lp", ray)
    with pytest.raises(CaratheodoryFailed, match="not interior"):
        caratheodory_express(np.zeros(2), pts)


def test_caratheodory_keeps_the_lp_weights(monkeypatch):
    # a forged, non-optimal basis {1, 2} for v0 = row 0 and w = (0, -1e-8):
    # row 2's weight is negative and dropped, and the weights are otherwise
    # kept as the basis gives them, so the residual check names the miss
    pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
    monkeypatch.setattr(pipeline, "solve_lp",
                        lambda G, U: (np.array([[1, 2]]), None))
    with pytest.raises(CaratheodoryFailed, match="witness residual 1.000e-08"):
        caratheodory_express(np.array([0.0, -1e-8]), pts)


def test_caratheodory_adds_no_body_where_sigma_rows_suffice():
    """At gen n=3 seed 21 the gauge walk's tau rows add no body that
    sigma does not already own, so s = 2n; the dense LP's witness added
    body 7 there (s = 7)."""
    fam = gen_halfspace_family(3, 10, 21)
    cert = select_general(fam)
    norm = normalize_family(fam, cert.z)
    owners = set(norm.owner[cert.payload["sigma_rows"]].tolist())
    assert set(norm.owner[cert.payload["tau_rows"]].tolist()) <= owners
    assert cert.selected == (0, 2, 3, 4, 5, 9) and cert.all_pass


def test_caratheodory_falls_back_to_every_row(monkeypatch):
    """When sigma's rows do not hold w in their hull, the witness comes
    from all rows, from row 0, and the certificate still verifies."""
    real, calls = pipeline.caratheodory_express, []

    def express(w, points):
        calls.append(len(points))
        if len(calls) == 1:
            raise CaratheodoryFailed("forged: not interior")
        return real(w, points)

    monkeypatch.setattr(pipeline, "caratheodory_express", express)
    cert = select_general(gen_halfspace_family(3, 8, 100))
    assert len(calls) == 2 and calls[0] <= calls[1]
    assert cert.all_pass


def find_reducible(seeds, n=2, count=6):
    for seed in seeds:
        fam = gen_halfspace_family(n, count=count, seed=seed,
                                   rows_per_body=(n + 1, n + 1))
        cert = select_general(fam)
        if cert.s > 2 * n and cert.all_pass:
            return fam, cert
    return None, None


def test_reduce_noop_at_two_n(monkeypatch):
    """``check`` derived the selection when it was made; reduce hands it
    back as the same object, unchecked."""
    fam = gen_halfspace_family(2, count=4, seed=2, rows_per_body=(3, 3))
    cert = select_general(fam)
    assert cert.s <= 4
    counts = count_calls(monkeypatch, "io.check")
    assert reduce_to_2n(fam, cert) is cert
    assert counts == {"io.check": 0}


WORK = ("linalg.sym_eigen", "io.check", "lp._blocking", "john._signed_step",
        "john._newton_weights")


@pytest.mark.parametrize("family, select, want", [
    (gen_slab_family(6, 100, 100), select_symmetric, (1, 1, 16, 16, 1)),
    (gen_halfspace_family(3, 8, 100), select_general, (4, 1, 13, 19, 2)),
], ids=["sym-n6", "gen-n3"])
def test_work_per_select_is_pinned(monkeypatch, family, select, want):
    """Residual-checked eigensolves run only in the verdict functions: one
    for the symmetric sandwich, two per ``certify_operator_T`` in general
    mode (the producer's d and ``check``'s). The other counts are the
    checks, crash ratio tests, MVEE ascent steps and Newton tries of one
    select: counts of work, which host noise does not move."""
    counts = count_calls(monkeypatch, *WORK)
    select(family)
    assert tuple(counts[k] for k in WORK) == want, counts


def test_reduce_greedy_chain():
    fam, cert = find_reducible(range(100, 140))
    assert fam is not None, "no instance with s > 2n found in the seed window"
    red = reduce_to_2n(fam, cert)
    assert red.s == 4
    # the growth bound is enforced by reduce itself, not stored as a verdict
    assert "reduction_growth" not in red.verdicts
    steps = chain_steps(red.notes)
    assert len(steps) == cert.s - red.s
    assert all(growth <= limit for growth, limit in steps), steps
    assert set(red.selected) <= set(cert.selected)
    m = cert.s
    assert red.diagnostics["reduction_cumulative_bound"] == pytest.approx(
        math.comb(m, 4))
    assert red.diagnostics["reduction_cumulative_growth"] <= math.comb(m, 4)


def test_reduce_rejects_an_unbounded_selection():
    # five halfspaces whose normals all point into the upper half-plane
    # leave the intersection open downwards; every drop prices +inf
    ang = np.arange(8) * np.pi / 4
    rows = np.column_stack([np.cos(ang), np.sin(ang)])
    fam = BodyFamily.from_blocks(
        "general", 2, [(rows[i:i + 1], np.ones(1)) for i in range(8)])
    cert = replace(select_general(fam), selected=(0, 1, 2, 3, 4))
    with pytest.raises(UnboundedBody, match="5 selected bodies") as info:
        reduce_to_2n(fam, cert)
    assert info.value.stage == "reduce"


def test_reduce_stops_on_a_step_past_its_growth_limit(monkeypatch):
    """A greedy step that grows the radius past m/(m - 2n), or that finds
    no bounded drop, stops reduce: no certificate comes of the chain."""
    fam = gen_halfspace_family(2, 40, 102)
    cert = select_general(fam)
    assert cert.s == 5
    real = pipeline.cheapest_drop

    def grown(*args):
        whole, body, radius = real(*args)
        return whole, body, radius * 100.0

    monkeypatch.setattr(pipeline, "cheapest_drop", grown)
    with pytest.raises(SolverStall) as info:
        reduce_to_2n(fam, cert)
    assert info.value.stage == "reduce"
    msg = str(info.value)
    assert msg.startswith("reduce: dropping body 22 of the 5 selected grows")
    assert "growth 100.0000 above the limit 5.0000" in msg

    monkeypatch.setattr(pipeline, "cheapest_drop",
                        lambda *args: (real(*args)[0], None, math.inf))
    with pytest.raises(SolverStall) as info:
        reduce_to_2n(fam, cert)
    assert info.value.stage == "reduce"
    assert str(info.value) == ("reduce: no drop of the 5 selected bodies "
                               "leaves a bounded intersection")


def test_reduce_allows_growth_up_to_its_slack(monkeypatch):
    """The limit is m/(m - 2n) widened by GROWTH_SLACK, no more."""
    fam = gen_halfspace_family(2, 40, 102)
    cert = select_general(fam)
    real = pipeline.cheapest_drop
    start = real(*normalize_family(fam, cert.z).constraint_matrix(
        cert.selected))[0]
    for factor, stops in ((1.0 + GROWTH_SLACK / 2, False),
                          (1.0 + 2 * GROWTH_SLACK, True)):
        def price(*args, factor=factor):
            return real(*args)[:2] + (start * 5.0 * factor,)

        monkeypatch.setattr(pipeline, "cheapest_drop", price)
        if stops:
            with pytest.raises(SolverStall, match="above the limit 5.0000"):
                reduce_to_2n(fam, cert)
        else:
            red = reduce_to_2n(fam, cert)
            assert red.notes[-1].endswith("(growth 5.0000, limit 5.0000)")


# The benchmark's reduce set at seed 100 (gen_halfspace_family(2, 40, 102)
# is its first instance) and the n=3 instance the CI round trip reduces:
# (n, count, rows per body, seed, selected, dropped in order, reduced).
REDUCE_CHAINS = [
    (2, 40, None, 102, (22, 24, 32, 33, 35), [22], (24, 32, 33, 35)),
    (2, 40, None, 103, (0, 1, 19, 26, 38), [0], (1, 19, 26, 38)),
    (3, 10, (4, 4), 109, (0, 1, 4, 5, 6, 7, 8), [1], (0, 4, 5, 6, 7, 8)),
    (3, 10, None, 26, (1, 2, 3, 4, 5, 7, 8), [1], (2, 3, 4, 5, 7, 8)),
    (4, 12, (3, 3), 45, (1, 2, 3, 4, 5, 6, 7, 8, 10), [1],
     (2, 3, 4, 5, 6, 7, 8, 10)),
]


@pytest.mark.parametrize("n, count, rows, seed, selected, dropped, reduced",
                         REDUCE_CHAINS)
def test_reduce_chain_is_pinned(n, count, rows, seed, selected, dropped,
                                reduced, monkeypatch):
    fam = gen_halfspace_family(n, count, seed, rows_per_body=rows)
    cert = select_general(fam)
    assert cert.selected == selected
    # the pricing walks only where lp.box_bound decides nothing; never here
    real_walk, real_price = lp.vertex_walk, pipeline.cheapest_drop
    pricing, walks = [], []

    def walk(G, U):
        walks.extend(pricing)
        return real_walk(G, U)

    def price(*args):
        pricing.append(True)
        try:
            return real_price(*args)
        finally:
            pricing.pop()

    monkeypatch.setattr(lp, "vertex_walk", walk)
    monkeypatch.setattr(pipeline, "cheapest_drop", price)
    red = reduce_to_2n(fam, cert)
    assert walks == []
    assert [int(note.split()[2].rstrip(":")) for note in red.notes
            if note.startswith("dropped body")] == dropped
    assert red.selected == reduced
    assert red.all_pass


def test_general_thin_slab_fails_at_the_inradius():
    # one threshold: the Chebyshev center already rejects an inradius below
    # the interior margin, before any translate is normalized
    fam = BodyFamily.from_blocks("general", 2, [(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([5e-8, 5e-8, 1.0, 1.0]))])
    with pytest.raises(DegenerateInterior, match="inradius 5.000e-08"):
        select_general(fam)


def test_diameter_report_cube():
    fam = cube_slab_family(2)
    cert = select_symmetric(fam, d=2.0)
    d_sel, d_full, ratio = diameter_report(fam, cert)
    assert ratio == pytest.approx(1.0, abs=1e-9)
    assert d_sel == pytest.approx(d_full)


def test_diameter_report_plane_fan():
    fam = plane_fan_family(60)
    cert = select_symmetric(fam, d=4.0)
    d_sel, d_full, ratio = diameter_report(fam, cert)
    assert ratio <= 3.0 * math.sqrt(2) * (1 + 1e-5)
    assert d_sel >= d_full - 1e-12


def test_certificate_stage_timings_present():
    cert = select_symmetric(cube_slab_family(2), d=4.0)
    assert set(cert.stages) >= {"john", "sparsify", "containment", "total"}
    assert all(t >= 0.0 for t in cert.stages.values())


def test_stage_error_keeps_the_exception_and_names_the_stage():
    stages = {}
    err = UnboundedBody("no vertex")
    err.witness = 7
    with pytest.raises(UnboundedBody) as info:
        with _stage(stages, "containment"):
            raise err
    assert info.value is err
    assert info.value.witness == 7
    assert info.value.stage == "containment"
    assert str(info.value) == "containment: no vertex"
    assert "containment" in stages


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("select, name, value", [
    *[(select_symmetric, "d", v) for v in (INF, 1e308, 1.0, NAN)],
    *[(select_general, "eps", v) for v in (0.0, -1.0, NAN, INF)]])
def test_bad_parameters_fail_before_any_stage(monkeypatch, select, name,
                                              value):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran with a parameter io.check refuses")

    for stage in ("validate_family", "chebyshev_center", "john_decomposition"):
        monkeypatch.setattr(pipeline, stage, no_stage)
    family = (cube_slab_family(2) if select is select_symmetric
              else cube_halfspace_family(2))
    with pytest.raises(InvalidInstance, match=f"^{name}="):
        select(family, **{name: value})


# The walks of the sym-n6 and gen-n3 benchmark instances as the cold +-e_i
# box walk left them: seed -> (selected, walked support_directions, alpha).
# A general selection walks every direction, so only their count is kept.
SYM_N6_WALKS = {
    100: ([28, 38, 40, 44, 58, 67, 77, 79, 84],
          [13, 30, 36, 90, 112, 116, 133, 170, 195],
          2.5374059379381357),
    101: ([3, 11, 16, 26, 40, 43, 49, 53, 56, 59, 69],
          [10, 59, 63, 64, 81, 88, 152, 158],
          2.338796425132287),
    102: ([8, 10, 16, 21, 31, 55, 58, 61],
          [8, 16, 19, 26, 27, 38, 57, 71, 75, 94, 98, 106, 115, 119, 130, 132,
           133, 137, 159, 167],
          2.2809638407001245),
    103: ([1, 20, 34, 35, 48, 50, 52, 54, 57],
          [94, 111, 114, 138, 143, 145, 168, 174, 178],
          2.854512549072458),
    104: ([14, 19, 23, 26, 40, 48, 54, 74, 76, 84, 85],
          [7, 36, 37, 38, 87, 149, 153, 165, 175, 180, 187],
          2.4896831590532464),
    105: ([10, 18, 30, 31, 35, 37, 42, 46, 53],
          [8, 12, 26, 40, 50, 55, 66, 68, 70, 89, 98, 116, 120, 134, 145, 152,
           154, 157, 162, 173],
          2.004071167139277),
    106: ([0, 24, 25, 30, 35, 37, 40, 50, 56, 67],
          [16, 20, 101, 128, 129, 133, 165, 175],
          2.587890372753617),
    107: ([7, 11, 12, 18, 21, 26, 37, 41, 56, 75],
          [32, 38, 116, 140, 143, 146, 169, 170],
          2.7345913247973788),
}
GEN_N3_WALKS = {
    100: ([0, 1, 2, 3, 5], 18, 1.4701656226069717),
    101: ([0, 1, 2, 5, 6], 15, 1.393629112860246),
    102: ([0, 1, 2, 5, 7], 15, 1.5539670853804117),
    103: ([0, 1, 2, 7], 20, 1.8142781314544945),
    104: ([0, 1, 3, 4, 5, 7], 11, 1.022525646180739),
    105: ([0, 2, 5], 27, 1.8591944264006308),
    106: ([0, 1, 3, 5], 25, 1.7611280908885212),
    107: ([2, 3, 4, 5], 23, 1.6911270502774907),
    108: ([0, 2, 4, 5, 7], 16, 1.5551312108183346),
    109: ([2, 3, 5, 6], 20, 1.7184744017433333),
    110: ([3, 4, 5, 6], 22, 2.057585515343195),
    111: ([0, 2, 3, 4, 5, 6], 11, 1.4368585155930669),
    112: ([0, 2, 3, 5, 6], 14, 1.4255163577969863),
    113: ([0, 2, 3, 4, 7], 14, 1.5923130284162774),
    114: ([1, 2, 5, 6], 21, 1.8100563225383475),
    115: ([0, 1, 2, 3, 4, 7], 8, 1.088510674336976),
    116: ([0, 1, 2, 3, 5, 7], 11, 1.497610985781976),
    117: ([0, 1, 3], 29, 2.2890855014754514),
    118: ([1, 2, 3, 4, 5, 6], 14, 1.315609901597764),
    119: ([0, 1, 2, 3, 4], 17, 1.6212632040658606),
    120: ([0, 2, 3, 4], 24, 1.4481493686610585),
    121: ([0, 1, 2, 4, 5, 7], 10, 1.2471292111524663),
    122: ([0, 3, 4, 7], 21, 1.483292848609875),
    123: ([0, 3, 4, 5, 6], 15, 1.246663091034457),
    124: ([0, 1, 3, 4, 6], 14, 1.3900913144297598),
    125: ([0, 1, 2, 3, 6, 7], 11, 1.0437408029607989),
    126: ([0, 3, 4, 6, 7], 16, 1.3819394794766595),
    127: ([0, 1, 2, 4, 5, 7], 12, 1.1005668707794727),
    128: ([0, 1, 5], 27, 1.6751990031640334),
    129: ([0, 2, 4, 6], 20, 1.63601024514553),
    130: ([0, 1, 4, 6, 7], 12, 1.6316317111398495),
    131: ([0, 2, 5, 6], 18, 1.682733906742385),
    132: ([0, 1, 3, 4, 5, 6, 7], 5, 1.0),
    133: ([0, 1, 2, 6, 7], 16, 1.5313737128546165),
    134: ([0, 2, 5, 6, 7], 18, 1.1603597463482265),
    135: ([0, 1, 2, 4, 5], 17, 1.9042251971609676),
    136: ([0, 1, 2, 4, 6, 7], 11, 1.3923202224242734),
    137: ([1, 2, 3, 4], 17, 1.859582842296912),
    138: ([0, 2, 6], 28, 1.7135939047324518),
    139: ([0, 1, 2, 3], 22, 2.7128425605020503),
    140: ([0, 1, 4, 5, 7], 17, 1.2909289824418686),
    141: ([2, 3, 4, 5, 7], 16, 1.2677496469885392),
    142: ([1, 3, 4, 5], 23, 1.5373413349114908),
    143: ([1, 2, 3, 4, 6], 16, 1.8855812446488704),
    144: ([0, 1, 2, 4], 17, 1.4733248147387175),
}


@pytest.mark.parametrize("mode", ["symmetric", "general"])
def test_closed_form_box_keeps_the_walked_directions(mode, monkeypatch):
    """The closed-form box and the crash start leave the selections and the
    walked directions of the benchmark instances as the box walk left them,
    and alpha within 1e-12; no symmetric selection walks the box."""
    calls = record_walks(monkeypatch, key=lambda U: np.array(U, dtype=float))
    pins = SYM_N6_WALKS if mode == "symmetric" else GEN_N3_WALKS
    for seed, (selected, walked, alpha) in pins.items():
        if mode == "symmetric":
            cert = select_symmetric(gen_slab_family(6, 100, seed))
        else:
            cert = select_general(gen_halfspace_family(3, 8, seed))
            assert cert.diagnostics["screened_directions"] == 0
            walked = list(range(walked))
        assert list(cert.selected) == selected
        assert list(cert.payload["support_directions"]) == walked
        assert cert.alpha_measured == pytest.approx(alpha, rel=1e-12)
    if mode == "symmetric":
        box = np.vstack([np.eye(6), -np.eye(6)])
        assert calls and not any(np.array_equal(U, box) for U in calls)


# The benchmark's reduce-n2n3 scan at seed 100: every seed each part scans,
# (n, count, rows per body) -> seed -> (selected, alpha). The scan keeps the
# first seeds whose selection has s > 2n and passes.
REDUCE_SCAN = {
    (2, 40, None): {
        100: ((8, 23, 30, 34), 1.4716567833098078),
        101: ((1, 9, 20, 29), 1.6555831397954317),
        102: ((22, 24, 32, 33, 35), 1.5817379230988498),
        103: ((0, 1, 19, 26, 38), 1.3768750725895151),
    },
    (3, 10, (4, 4)): {
        100: ((1, 3, 4, 5, 7, 8), 1.0),
        101: ((2, 3, 5, 6, 7, 9), 1.6910559730489592),
        102: ((0, 1, 3, 8, 9), 1.3436616912893142),
        103: ((0, 2, 4, 8), 1.646881786603661),
        104: ((0, 3, 5, 7), 1.810993260435705),
        105: ((2, 3, 4, 8, 9), 1.3195240826082364),
        106: ((0, 2, 3, 5, 6, 8), 1.4619499519470451),
        107: ((0, 1, 3, 6), 1.7464655951419115),
        108: ((0, 2, 3, 4, 9), 1.9223005400612299),
        109: ((0, 1, 4, 5, 6, 7, 8), 1.912744483827951),
    },
}


def test_reduce_scan_keeps_its_seeds():
    kept = {}
    for (n, count, rows), pins in REDUCE_SCAN.items():
        for seed, (selected, alpha) in pins.items():
            cert = select_general(gen_halfspace_family(n, count, seed,
                                                       rows_per_body=rows))
            assert cert.selected == selected
            assert cert.alpha_measured == pytest.approx(alpha, rel=1e-12)
            if cert.s > 2 * n and cert.all_pass:
                kept.setdefault(n, []).append(seed)
    assert kept == {2: [102, 103], 3: [109]}


# caratheodory_express on seeded dyadic points and targets, so the inputs
# are exact on every platform: (n, k) -> (tau, rho as float.hex).
CARATHEODORY_PINS = {
    (2, 6): ([0, 4, 5], [
        "0x1.3719e9c9e53b9p-1", "0x1.d301fe4a9b7abp-3",
        "0x1.50965a8dcf975p-3"]),
    (3, 10): ([0, 5, 7, 8], [
        "0x1.62838fb642333p-2", "0x1.edfbcf65d03c9p-6",
        "0x1.132e81e2abc8bp-1", "0x1.60febe3824defp-4"]),
    (4, 12): ([0, 1, 7, 10, 11], [
        "0x1.d3f3a96400aeep-2", "0x1.d36555ec3bb57p-3",
        "0x1.7627b6e18d818p-3", "0x1.c400ca57d25ebp-4",
        "0x1.6459d9f261de5p-6"]),
    (5, 20): ([0, 1, 6, 9, 16, 18], [
        "0x1.28a2c7467b912p-1", "0x1.10d598b6701cdp-6",
        "0x1.0e1d96a994553p-3", "0x1.bee52645ca740p-3",
        "0x1.3500443353187p-5", "0x1.08bb0e988146cp-6"]),
    (6, 30): ([0, 3, 11, 17, 20, 25, 29], [
        "0x1.55e7088abb9c9p-2", "0x1.5379ff51fef72p-4",
        "0x1.eed5a04eec434p-4", "0x1.73f5e4f74299dp-7",
        "0x1.533cc43bb4f02p-4", "0x1.0c5eb9e24ac0ep-2",
        "0x1.b2ddd5d05e0d4p-4"]),
}


def test_caratheodory_weights_are_pinned_bit_for_bit():
    """The gauge walk from row 0 and the one solve that reads its weights
    off the last basis give the same (tau, rho) to the last bit: row 0 and
    n rows of the basis, n + 1 in all."""
    rng = np.random.default_rng(7)
    for (n, k), (tau, rho) in CARATHEODORY_PINS.items():
        pts = rng.integers(-8, 9, (k, n)) / 4.0
        lam = rng.integers(1, 9, k)
        got_tau, got_rho = caratheodory_express((lam @ pts) / lam.sum(), pts)
        assert got_tau.tolist() == tau and len(tau) == n + 1
        assert [x.hex() for x in got_rho] == rho
