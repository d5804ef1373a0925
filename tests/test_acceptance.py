"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Each test records a single summary line (also echoed at the end of the
pytest run by the conftest hook) and then asserts. Seeds are fixed so the
whole suite is reproducible; criterion 8 re-runs the certificate-producing
suites and demands byte-identical output.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from hellycert import __version__
from hellycert import io as hio
from hellycert.errors import SolverStall
from hellycert.john import john_decomposition
from hellycert.lp import support_h_polytope
from hellycert.oracle import (_covering_certified, circumradius_exact,
                              diameter_exact, enumerate_vertices,
                              gen_halfspace_family, gen_sharpness_instance,
                              gen_slab_family)
from hellycert.pipeline import (diameter_report, reduce_to_2n, select_general,
                                select_symmetric)
from hellycert.sparsify import bss_select, gamma_ratio

from conftest import best_subset_bruteforce, chain_steps

RESULTS = {}

JOHN_SEED_BASE = 1000
DIRECTION_SEED_BASE = 2000
BSS_SEED_BASE = 3000
SLAB_SEED_BASE = 4000
HALFSPACE_SEED_BASE = 5000
REDUCE_SEED_START = {2: 6066, 3: 6037}
ORACLE_SEED_BASE = 7000
SHARPNESS_SEED = 7


def record(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS[criterion] = line
    print(line, flush=True)
    assert ok, line


def symmetric_cloud(seed, n, m_half):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m_half, n))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    raw *= rng.uniform(0.5, 2.0, (m_half, 1))
    pts = np.vstack([raw, -raw])
    return pts


def slab_suite_params():
    for k in range(30):
        n = 2 + k % 7
        count = 8 + k % 3 if n == 2 else 10 + k % 12
        yield k, n, count, SLAB_SEED_BASE + k


def halfspace_suite_params():
    for k in range(20):
        yield k, 2 + k % 4, 4 + k % 3, HALFSPACE_SEED_BASE + k


@pytest.fixture(scope="module")
def slab_suite():
    runs = []
    for k, n, count, seed in slab_suite_params():
        fam = gen_slab_family(n, count=count, seed=seed)
        cert = select_symmetric(fam, d=4.0)
        runs.append((k, n, count, seed, fam, cert))
    return runs


@pytest.fixture(scope="module")
def halfspace_suite():
    runs = []
    for k, n, count, seed in halfspace_suite_params():
        fam = gen_halfspace_family(n, count=count, seed=seed)
        cert = select_general(fam)
        runs.append((k, n, seed, fam, cert))
    return runs


@pytest.fixture(scope="module")
def reducible_suite():
    found = {}
    for n, start in REDUCE_SEED_START.items():
        for seed in range(start, start + 40):
            fam = gen_halfspace_family(n, count=7, seed=seed,
                                       rows_per_body=(n + 1, n + 1))
            cert = select_general(fam)
            if cert.s > 2 * n and cert.all_pass:
                # reduce stops on a step past its growth limit; criterion
                # 6 reports that as its failure
                found[n] = (seed, fam, cert, reduce_or_stall(fam, cert))
                break
    return found


def reduce_or_stall(fam, cert):
    """The reduced certificate, or the SolverStall reduce stopped on."""
    try:
        return reduce_to_2n(fam, cert)
    except SolverStall as exc:
        return exc


def reduce_outcome(red, seed):
    """A reduction's canonical certificate bytes, or its stall message."""
    if isinstance(red, SolverStall):
        return str(red)
    return hio.canonical_certificate_bytes(
        hio.certificate_to_json(red, __version__, seed=seed))


def reduce_mismatches(reducible_suite):
    """Criterion 8 on the reductions: each reruns to the same outcome."""
    return [("reduce", n)
            for n, (seed, fam, cert, red) in reducible_suite.items()
            if reduce_outcome(red, seed)
            != reduce_outcome(reduce_or_stall(fam, cert), seed)]


def test_criterion_1_john_residuals():
    t0 = time.perf_counter()
    worst_id = worst_trace = worst_dir = 0.0
    for k in range(50):
        n = 2 + k % 7
        m_half = 10 + (k * 7) % 41
        dec = john_decomposition(symmetric_cloud(JOHN_SEED_BASE + k, n, m_half),
                                 centered=False)
        worst_id = max(worst_id, dec.residual_identity)
        worst_trace = max(worst_trace, abs(float(dec.weights.sum()) - n) / n)
        rng = np.random.default_rng(DIRECTION_SEED_BASE + k)
        z = rng.standard_normal((100, n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        vals = (dec.weights * (z @ dec.vectors.T) ** 2).sum(axis=1)
        worst_dir = max(worst_dir, float(np.abs(vals - 1.0).max()))
    elapsed = time.perf_counter() - t0
    ok = (worst_id <= 1e-5 and worst_trace <= 1e-5 and worst_dir <= 1e-4
          and elapsed < 5.0)
    record(1, ok, f"50 runs, residual {worst_id:.2e}, trace {worst_trace:.2e}, "
                  f"directional {worst_dir:.2e}, {elapsed:.2f}s")


def test_criterion_2_sparsifier_budget_and_ratio():
    t0 = time.perf_counter()
    worst_slack = 0.0
    over_budget = 0
    for k in range(50):
        n = 2 + k % 19
        d = (2.0, 4.0, 9.0)[k % 3]
        dec = john_decomposition(symmetric_cloud(BSS_SEED_BASE + k, n, 2 * n + 5),
                                 centered=False)
        res = bss_select(dec.vectors, dec.weights, d=d)
        if len(res.sigma) > math.ceil(d * n):
            over_budget += 1
        worst_slack = max(worst_slack, res.lambda_max / gamma_ratio(d) ** 2)
    elapsed = time.perf_counter() - t0
    ok = over_budget == 0 and worst_slack <= 1.0 + 1e-6 and elapsed < 30.0
    record(2, ok, f"50 runs, worst ratio at {worst_slack:.3f} of limit, "
                  f"{over_budget} over budget, {elapsed:.2f}s")


def test_criterion_3_symmetric_end_to_end(slab_suite):
    worst_alpha_frac = 0.0
    bad = []
    for k, n, count, seed, fam, cert in slab_suite:
        if cert.s > 4 * n or not cert.all_pass:
            bad.append(k)
            continue
        worst_alpha_frac = max(worst_alpha_frac,
                               cert.alpha_measured / (3.0 * math.sqrt(n) * (1 + 1e-5)))
        if n == 2:
            gsel, hsel, _ = fam.constraint_matrix(selected=list(cert.selected))
            verts = enumerate_vertices(gsel, hsel)
            gfull, hfull, _ = fam.constraint_matrix()
            alpha_oracle = max(1.0, float(np.max((verts @ gfull.T) / hfull)))
            if abs(alpha_oracle - cert.alpha_measured) > 1e-6:
                bad.append(k)
            if math.comb(count, cert.s) <= 200000:
                best, _ = best_subset_bruteforce(fam, cert.s)
                if cert.alpha_measured < best - 1e-9:
                    bad.append(k)
    ok = not bad and worst_alpha_frac <= 1.0
    record(3, ok, f"30 families, worst alpha at {worst_alpha_frac:.3f} of "
                  f"3*sqrt(n), failures {bad}")


def test_criterion_4_sharpness_trend():
    trend = []
    gating_ok = True
    for n in range(2, 7):
        big_n = 64 * 2 ** (n - 2)
        fam = gen_sharpness_instance(n, big_n, seed=SHARPNESS_SEED)
        w = fam.G[~fam.negated]
        inner_ok = float(np.max(np.linalg.norm(w, axis=1))) <= 1.0 + 1e-12
        if n == 2:
            g, h, _ = fam.constraint_matrix()
            outer_ok = circumradius_exact(g, h) <= 2.0 + 1e-12
        else:
            outer_ok = _covering_certified(w / np.linalg.norm(w, axis=1, keepdims=True), 0.5)
        gating_ok = gating_ok and inner_ok and outer_ok
        cert = select_symmetric(fam, d=4.0)
        gating_ok = gating_ok and cert.all_pass
        trend.append((n, cert.alpha_measured / math.sqrt(n)))
    trend_str = ", ".join(f"n={n}: {v:.3f}" for n, v in trend)
    in_window = all(0.2 <= v <= 3.0 for _, v in trend)
    # the trend window is reported, not gated
    record(4, gating_ok, f"inclusions verified; alpha/sqrt(n) trend [{trend_str}]"
                         f"{' within [0.2, 3.0]' if in_window else ' OUTSIDE [0.2, 3.0] (non-gating)'}")


def test_criterion_5_general_end_to_end(halfspace_suite):
    bad = []
    for k, n, seed, fam, cert in halfspace_suite:
        d = cert.diagnostics
        checks = [
            cert.all_pass,
            d["barycenter_residual"] <= 1e-10,
            d["shift_norm_bound"] <= 0.5 + 1e-12,
            n - 1e-9 <= d["sum_b"] <= 5.0 * n + 1e-9,
            0.5 - 1e-5 <= d["unshifted_lo"],
            d["unshifted_hi"] <= 5.5 + 1e-5,
            d["w_norm"] <= 1.0 / n + 1e-9,
            d["tau_size"] <= n + 1,
            d["cara_residual"] <= 1e-9,
            math.isfinite(cert.alpha_measured),
            cert.c_measured is not None,
        ]
        if not all(checks):
            bad.append((k, n, [i for i, c in enumerate(checks) if not c]))
    cs = [cert.c_measured for _, _, _, _, cert in halfspace_suite]
    record(5, not bad, f"20 families, c in [{min(cs):.3f}, {max(cs):.3f}], "
                       f"failures {bad}")


def test_criterion_6_reduction(reducible_suite):
    bad = []
    detail = []
    for n in (2, 3):
        if n not in reducible_suite:
            bad.append((n, "no s > 2n instance in seed window"))
            continue
        seed, fam, cert, red = reducible_suite[n]
        if isinstance(red, SolverStall):
            bad.append((n, f"reduce stopped: {red}"))
            continue
        _, _, ratio_start = diameter_report(fam, cert)
        _, _, ratio_final = diameter_report(fam, red)
        limit = ratio_start * math.comb(cert.s, 2 * n)
        if not all(growth <= step_limit
                   for growth, step_limit in chain_steps(red.notes)):
            bad.append((n, "per-step growth bound violated"))
        if ratio_final > limit + 1e-9:
            bad.append((n, f"final ratio {ratio_final:.4f} above {limit:.4f}"))
        detail.append(f"n={n}: seed {seed}, s {cert.s}->{red.s}, "
                      f"ratio {ratio_start:.3f}->{ratio_final:.3f} (limit {limit:.1f})")
    record(6, not bad, "; ".join(detail) + (f"; failures {bad}" if bad else ""))


def test_criterion_7_oracle_equivalence():
    worst_gap = 0.0
    diam_ok = True
    for k in range(100):
        rng = np.random.default_rng(ORACLE_SEED_BASE + k)
        n = 2 + k % 3
        extra = rng.standard_normal((12 - 2 * n, n))
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        g = np.vstack([np.eye(n), -np.eye(n), extra])
        h = np.concatenate([rng.uniform(0.5, 1.5, 2 * n),
                            rng.uniform(0.4, 1.4, len(extra))])
        verts = enumerate_vertices(g, h)
        dirs = rng.standard_normal((6, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        for u in dirs:
            gap = abs(support_h_polytope(g, h, u) - float(np.max(verts @ u)))
            worst_gap = max(worst_gap, gap)
        if diameter_exact(g, h) > 2 * circumradius_exact(g, h) + 1e-12:
            diam_ok = False
    ok = worst_gap <= 1e-8 and diam_ok
    record(7, ok, f"100 instances, worst LP/vertex gap {worst_gap:.2e}, "
                  f"diameter bound {'held' if diam_ok else 'VIOLATED'}")


def test_criterion_8_determinism(slab_suite, halfspace_suite, reducible_suite):
    mismatches = []
    for k, n, count, seed, fam, cert in slab_suite:
        doc1 = hio.certificate_to_json(cert, __version__, seed=seed)
        rerun = select_symmetric(gen_slab_family(n, count=count, seed=seed), d=4.0)
        doc2 = hio.certificate_to_json(rerun, __version__, seed=seed)
        if hio.canonical_certificate_bytes(doc1) != hio.canonical_certificate_bytes(doc2):
            mismatches.append(("slab", k))
    for k, n, seed, fam, cert in halfspace_suite:
        doc1 = hio.certificate_to_json(cert, __version__, seed=seed)
        rerun = select_general(gen_halfspace_family(n, count=4 + k % 3, seed=seed))
        doc2 = hio.certificate_to_json(rerun, __version__, seed=seed)
        if hio.canonical_certificate_bytes(doc1) != hio.canonical_certificate_bytes(doc2):
            mismatches.append(("halfspace", k))
    mismatches += reduce_mismatches(reducible_suite)
    fam1 = gen_sharpness_instance(2, 64, seed=SHARPNESS_SEED)
    fam2 = gen_sharpness_instance(2, 64, seed=SHARPNESS_SEED)
    if json.dumps(hio.family_to_json(fam1), sort_keys=True) != \
            json.dumps(hio.family_to_json(fam2), sort_keys=True):
        mismatches.append(("sharpness-instance", 2))
    record(8, not mismatches,
           f"{len(slab_suite) + len(halfspace_suite) + len(reducible_suite) + 1} "
           f"re-runs byte-identical, mismatches {mismatches}")


def test_criterion_8_compares_reduce_stalls(monkeypatch, reducible_suite):
    """A reduction that stopped on a SolverStall is rerun like any other:
    the same stall message matches, and a different message, or a
    certificate in place of the stall, is a mismatch."""
    n, (seed, fam, cert, red) = next(iter(reducible_suite.items()))
    message = ["dropping body 3 grows the radius"]

    def stall(fam, cert):
        raise SolverStall(message[0])

    stalled = {n: (seed, fam, cert, SolverStall(message[0]))}
    monkeypatch.setattr(sys.modules[__name__], "reduce_to_2n", stall)
    assert reduce_mismatches(stalled) == []
    message[0] = "no drop leaves a bounded intersection"
    assert reduce_mismatches(stalled) == [("reduce", n)]
    monkeypatch.undo()
    assert reduce_mismatches(stalled) == [("reduce", n)]
    assert reduce_mismatches({n: (seed, fam, cert, red)}) == []
