"""End-to-end certified subfamily selection.

Both selectors follow the same shape: dualize the family to a point set,
extract a John decomposition, sparsify it, map the survivors back to the
bodies that contributed them, and then certify by LP what the construction
promises. The certificate never takes the theory's word for anything a
linear program or an eigenvalue check can confirm directly.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import CaratheodoryFailed, HellycertError, UnboundedBody
from .geometry import (BodyFamily, chebyshev_center, containment_factor,
                       interior_margin, normalize_family, polar_generators,
                       validate_family)
from .john import john_decomposition, mvee_general
from .lp import OPTIMAL, LinearProgram, solve_lp
from .oracle import circumradius_exact, diameter_exact
from .sparsify import (EPS_SHIFT_DEFAULT, bss_select, certify_operator_T,
                       gamma_ratio, shifted_select)

ALPHA_SLACK = 1e-5
BARVINOK_SAMPLES = 200
BARVINOK_SEED = 0
RECENTER_TARGET = 0.05
GROWTH_SLACK = 1e-6


@dataclass(frozen=True)
class SelectionCertificate:
    mode: str
    selected: tuple
    s: int
    z: np.ndarray
    d: float | None
    eps: float | None
    gamma_d: float | None
    bound_claimed: float
    alpha_measured: float
    c_measured: float | None
    verdicts: dict
    diagnostics: dict
    stages: dict
    payload: dict
    notes: tuple = ()

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


@dataclass(frozen=True)
class CaratheodoryWitness:
    tau: np.ndarray
    rho: np.ndarray
    target: np.ndarray
    residual: float


@contextmanager
def _stage(stages: dict, name: str):
    t0 = time.perf_counter()
    try:
        yield
    except HellycertError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    finally:
        stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0


def _owners(tags: np.ndarray, rows) -> tuple:
    return tuple(int(t) for t in np.unique(tags[np.asarray(rows, dtype=int)]))


def _barvinok_sample(points: np.ndarray, rows, bound: float,
                     samples: int = BARVINOK_SAMPLES):
    """Sampled two-sided support comparison between kept rows and all rows."""
    rng = np.random.default_rng(BARVINOK_SEED)
    n = points.shape[1]
    Z = rng.standard_normal((samples, n))
    Z /= np.linalg.norm(Z, axis=1)[:, None]
    all_max = np.abs(Z @ points.T).max(axis=1)
    kept_max = np.abs(Z @ points[np.asarray(rows, dtype=int)].T).max(axis=1)
    left_ok = bool(np.all(kept_max <= all_max * (1.0 + 1e-12) + 1e-15))
    worst = float(np.max(all_max / np.maximum(kept_max * bound, 1e-300)))
    return left_ok and worst <= 1.0 + ALPHA_SLACK, worst


def select_symmetric(family: BodyFamily, d: float = 4.0,
                     tol: float = 1e-5) -> SelectionCertificate:
    """Pick at most ceil(d*n) bodies whose intersection stays within
    gamma_d*sqrt(n) times the full intersection, and certify it by LP."""
    stages: dict = {}
    t_start = time.perf_counter()
    n = family.dim
    gamma = gamma_ratio(d)
    bound = gamma * math.sqrt(n)

    with _stage(stages, "validate"):
        validate_family(family)
        gens = polar_generators(family)
    with _stage(stages, "john"):
        decomp, lmap = john_decomposition(gens, centered=False, tol_john=tol)
    with _stage(stages, "sparsify"):
        res = bss_select(decomp.vectors, decomp.weights, d)
    rows = decomp.source_indices[res.sigma]
    selected = _owners(gens.tags, rows)
    with _stage(stages, "containment"):
        alpha = containment_factor(family, list(selected))
    with _stage(stages, "barvinok"):
        barvinok_ok, barvinok_worst = _barvinok_sample(
            gens.points, rows, bound)

    budget = math.ceil(d * n)
    sandwich_hi = gamma ** 2 * (1.0 + 1e-6) + decomp.residual_identity
    verdicts = {
        "john_identity": decomp.residual_identity <= tol,
        "sandwich": (res.lambda_max / res.lambda_min) <= sandwich_hi,
        "cardinality": len(res.sigma) <= budget and len(selected) <= budget,
        "barvinok": barvinok_ok,
        "alpha_within_bound": alpha <= bound * (1.0 + ALPHA_SLACK),
    }
    diagnostics = {
        "residual_identity": decomp.residual_identity,
        "lambda_min": res.lambda_min,
        "lambda_max": res.lambda_max,
        "sigma_size": int(len(res.sigma)),
        "budget": budget,
        "barvinok_worst": barvinok_worst,
        "alpha": alpha,
    }
    payload = {
        "contact_vectors": decomp.vectors[res.sigma],
        "coefficients": res.b * decomp.weights[res.sigma],
        "frame": lmap.forward,
        "frame_center": lmap.center,
        "generator_rows": rows,
    }
    stages["total"] = time.perf_counter() - t_start
    return SelectionCertificate(
        mode="symmetric", selected=selected, s=len(selected),
        z=np.zeros(n), d=d, eps=None, gamma_d=gamma,
        bound_claimed=bound, alpha_measured=alpha, c_measured=None,
        verdicts=verdicts, diagnostics=diagnostics, stages=stages,
        payload=payload)


def caratheodory_express(w, points) -> CaratheodoryWitness:
    """Express w as a convex combination of at most n+1 of the points.

    Feasibility LP first (a basic solution already has small support),
    then null-space pivoting until the support is within n+1, then a
    least-squares polish on the final support.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(w, dtype=float)
    k, n = pts.shape
    lp = LinearProgram(
        objective=np.zeros(k),
        A_eq=np.vstack([pts.T, np.ones((1, k))]),
        b_eq=np.concatenate([w, [1.0]]),
        nonneg=True)
    res = solve_lp(lp)
    if res.status != OPTIMAL:
        raise CaratheodoryFailed(
            f"target at distance > tol from the hull of {k} points")
    rho = np.maximum(res.x, 0.0)
    tau = np.nonzero(rho > 1e-12)[0]
    if tau.size == 0:
        tau = np.array([int(np.argmax(res.x))])
        rho[tau[0]] = 1.0

    while tau.size > n + 1:
        B = np.vstack([pts[tau].T, np.ones((1, tau.size))])
        _, svals, Vt = np.linalg.svd(B)
        eta = Vt[-1]
        if svals[-1] > 1e-10 * max(svals[0], 1.0):
            break
        if not (eta > 1e-14).any():
            eta = -eta
        pos = eta > 1e-14
        ratios = rho[tau][pos] / eta[pos]
        step = float(ratios.min())
        sub = rho[tau] - step * eta
        sub[sub < 1e-13] = 0.0
        rho[tau] = sub
        tau = tau[rho[tau] > 0.0]

    B = np.vstack([pts[tau].T, np.ones((1, tau.size))])
    target = np.concatenate([w, [1.0]])
    fit = np.linalg.lstsq(B, target, rcond=None)[0]
    if fit.min() >= -1e-10:
        rho_final = np.maximum(fit, 0.0)
    else:
        rho_final = rho[tau]
    total = rho_final.sum()
    if total <= 0.0:
        raise CaratheodoryFailed("empty convex combination after reduction")
    rho_final = rho_final / total
    residual = float(np.linalg.norm(pts[tau].T @ rho_final - w))
    if residual > 1e-9 or tau.size > n + 1:
        raise CaratheodoryFailed(
            f"witness residual {residual:.3e} with support {tau.size} "
            f"(allowed n+1 = {n + 1})")
    return CaratheodoryWitness(tau=tau, rho=rho_final, target=w,
                               residual=residual)


def _polar_offset(family: BodyFamily, z: np.ndarray):
    """(offset, MVEE) of the polar of the family translated to z.

    The offset is the MVEE center's norm in the ellipsoid's own metric,
    so it is a fraction of the polar's size.
    """
    gens = polar_generators(normalize_family(family, z))
    ell, _ = mvee_general(gens.points, eps_mvee=1e-6)
    c = ell.center
    return math.sqrt(max(float(c @ ell.shape.entries @ c), 0.0)), ell


def _recenter(family: BodyFamily, z0: np.ndarray, radius: float,
              target: float = RECENTER_TARGET, max_iter: int = 60):
    """Move the translate until the polar's enclosing ellipsoid is centered.

    Each Newton step is E c, with c the center and E = (n cov)^-1 the shape
    of the polar's MVEE. A trial z - lam E c is accepted only if it keeps an
    interior margin of 0.1 * radius and strictly lowers the offset;
    otherwise lam halves, down to 1e-3. The loop stops at ``target``, when
    no lam helps, or after ``max_iter`` steps, and returns (z, offset,
    steps), where steps counts the Newton steps taken.
    """
    z = np.asarray(z0, dtype=float)
    offset, ell = _polar_offset(family, z)
    steps = 0
    while offset > target and steps < max_iter:
        step = ell.shape.entries @ ell.center
        lam = 1.0
        while lam > 1e-3:
            z_try = z - lam * step
            if interior_margin(family, z_try) >= 0.1 * radius:
                offset_try, ell_try = _polar_offset(family, z_try)
                if offset_try < offset:
                    break
            lam /= 2.0
        else:
            break
        z, offset, ell = z_try, offset_try, ell_try
        steps += 1
    return z, offset, steps


def select_general(family: BodyFamily, eps: float = EPS_SHIFT_DEFAULT,
                   tol: float = 1e-5) -> SelectionCertificate:
    """Translated selection for non-symmetric families.

    Finds a translate z (interior point moved until the polar is centered),
    builds the centered John decomposition of the polar generators, applies
    the shifted sparsifier, and completes the index set with a Caratheodory
    witness so the selected bodies keep the translate well inside. Every
    stage's claim lands in the certificate.
    """
    stages: dict = {}
    t_start = time.perf_counter()
    n = family.dim

    with _stage(stages, "center"):
        z0, radius = chebyshev_center(family)
        z, offset, recenter_iters = _recenter(family, z0, radius)
    with _stage(stages, "normalize"):
        norm = normalize_family(family, z)
        gens = polar_generators(norm)
    with _stage(stages, "john"):
        decomp, lmap = john_decomposition(gens, centered=True, tol_john=tol)
    with _stage(stages, "sparsify"):
        shifted = shifted_select(decomp.vectors, decomp.weights, eps)
        opT = certify_operator_T(decomp.vectors, shifted.sigma, shifted.b,
                                 shifted.v, eps)
    with _stage(stages, "caratheodory"):
        w = shifted.v / math.sqrt(eps * n)
        witness = caratheodory_express(w, decomp.vectors)

    certs = shifted.certificates
    union = np.unique(np.concatenate([shifted.sigma, witness.tau]))
    rows = decomp.source_indices[union]
    selected = _owners(gens.tags, rows)
    budget = math.ceil(certs.d * (n + 1)) + n + 1
    with _stage(stages, "containment"):
        alpha = containment_factor(norm, list(selected))
    c_measured = alpha / n ** 1.5
    w_norm = float(np.linalg.norm(w))

    verdicts = {
        "john_identity": decomp.residual_identity <= tol,
        "john_barycenter": decomp.residual_barycenter <= tol,
        "shift_barycenter": certs.barycenter_residual <= 1e-10,
        "shift_norm": certs.shift_norm_ok,
        "sum_b": certs.sum_ok,
        "sandwich": certs.shifted_ok or certs.unshifted_ok,
        "operator_T": opT.verdict,
        "w_norm": w_norm <= 1.0 / n + 1e-9,
        "caratheodory": witness.residual <= 1e-9
        and witness.tau.size <= n + 1,
        "cardinality": int(union.size) <= budget,
        "alpha_finite": math.isfinite(alpha),
    }
    diagnostics = {
        "residual_identity": decomp.residual_identity,
        "residual_barycenter": decomp.residual_barycenter,
        "barycenter_residual": certs.barycenter_residual,
        "shift_norm_bound": certs.shift_norm_bound,
        "sum_b": shifted.sum_b,
        "shifted_lo": certs.shifted_lo,
        "shifted_hi": certs.shifted_hi,
        "unshifted_lo": certs.unshifted_lo,
        "unshifted_hi": certs.unshifted_hi,
        "operator_T_bound": opT.norm_bound,
        "trace_residual": opT.trace_residual,
        "w_norm": w_norm,
        "cara_residual": witness.residual,
        "sigma_size": int(shifted.sigma.size),
        "tau_size": int(witness.tau.size),
        "union_size": int(union.size),
        "budget": budget,
        "d_used": certs.d,
        "chebyshev_radius": radius,
        "recenter_offset": offset,
        "recenter_iters": recenter_iters,
        "alpha": alpha,
    }
    payload = {
        "contact_vectors": decomp.vectors[shifted.sigma],
        "coefficients": shifted.b,
        "shift": shifted.v,
        "w": w,
        "tau_vectors": decomp.vectors[witness.tau],
        "rho": witness.rho,
        "frame": lmap.forward,
        "frame_center": lmap.center,
        "generator_rows": rows,
    }
    notes = (f"recentered translate after {recenter_iters} Newton steps "
             f"(offset {offset:.2e})",)
    stages["total"] = time.perf_counter() - t_start
    return SelectionCertificate(
        mode="general", selected=selected, s=len(selected), z=z,
        d=float(certs.d), eps=eps, gamma_d=gamma_ratio(certs.d),
        bound_claimed=alpha, alpha_measured=alpha, c_measured=c_measured,
        verdicts=verdicts, diagnostics=diagnostics, stages=stages,
        payload=payload, notes=notes)


def _subfamily_radius(norm: BodyFamily, subset) -> float:
    G, h, _ = norm.constraint_matrix(list(subset))
    try:
        return circumradius_exact(G, h)
    except UnboundedBody:
        return math.inf


def reduce_to_2n(family: BodyFamily,
                 selection: SelectionCertificate) -> SelectionCertificate:
    """Greedy one-at-a-time drops from s bodies down to 2n.

    Every candidate drop is priced by the exact circumradius oracle and the
    cheapest is taken; each step's growth is checked against the
    m/(m - 2n) factor and the chain is recorded in the certificate.
    """
    n = family.dim
    sel = list(selection.selected)
    if len(sel) <= 2 * n:
        return selection
    stages = dict(selection.stages)
    t0 = time.perf_counter()
    if selection.mode == "general":
        norm = normalize_family(family, selection.z)
    else:
        validate_family(family)
        norm = family

    radius = _subfamily_radius(norm, sel)
    start_radius = radius
    chain = []
    growth_ok = True
    while len(sel) > 2 * n:
        m = len(sel)
        best_r = math.inf
        best_j = None
        for j in sel:
            r = _subfamily_radius(norm, [i for i in sel if i != j])
            if r < best_r:
                best_r, best_j = r, j
        growth = best_r / radius
        limit = m / (m - 2 * n) * (1.0 + GROWTH_SLACK)
        growth_ok = growth_ok and growth <= limit
        chain.append((best_j, radius, best_r, growth, m / (m - 2 * n)))
        sel.remove(best_j)
        radius = best_r

    alpha = containment_factor(norm, sel)
    stages["reduce"] = time.perf_counter() - t0
    stages["total"] = selection.stages.get("total", 0.0) + stages["reduce"]
    verdicts = dict(selection.verdicts)
    verdicts["reduction_growth"] = growth_ok
    diagnostics = dict(selection.diagnostics)
    diagnostics["alpha"] = alpha
    diagnostics["reduction_start_radius"] = start_radius
    diagnostics["reduction_final_radius"] = radius
    diagnostics["reduction_cumulative_growth"] = radius / start_radius
    diagnostics["reduction_cumulative_bound"] = float(
        math.comb(len(selection.selected), 2 * n))
    notes = selection.notes + tuple(
        f"dropped body {j}: radius {r0:.6g} -> {r1:.6g} "
        f"(growth {g:.4f}, limit {lim:.4f})"
        for j, r0, r1, g, lim in chain)
    c_measured = (alpha / n ** 1.5 if selection.mode == "general" else None)
    return replace(
        selection, selected=tuple(sorted(sel)), s=len(sel),
        alpha_measured=alpha, c_measured=c_measured,
        bound_claimed=(alpha if selection.mode == "general"
                       else selection.bound_claimed),
        verdicts=verdicts, diagnostics=diagnostics, stages=stages,
        notes=notes)


def diameter_report(family: BodyFamily, selection: SelectionCertificate,
                    exact: bool = True):
    """(diam of the selected intersection, diam of the full one, ratio).

    Exact mode prices both diameters with the vertex oracle; bound mode
    reports only the containment-implied ratio and leaves the diameters
    unset (containment Q - z within alpha*(P - z) caps the ratio by alpha).
    """
    if not exact:
        return math.nan, math.nan, selection.alpha_measured
    if selection.mode == "general":
        norm = normalize_family(family, selection.z)
    else:
        norm = family
    G_s, h_s, _ = norm.constraint_matrix(list(selection.selected))
    G_f, h_f, _ = norm.constraint_matrix()
    diam_sel = diameter_exact(G_s, h_s)
    diam_full = diameter_exact(G_f, h_f)
    return diam_sel, diam_full, diam_sel / diam_full
