"""End-to-end certified subfamily selection.

Both selectors follow the same shape: take the rows of the family normalized
at the translate as the polar's generators, extract their John decomposition
(in symmetric mode of one row per slab), sparsify it, map the survivors back
to the bodies that own them, and hand the claims to ``io.check``, which
derives every verdict and number in the certificate.
The certificate never takes the theory's word for anything a linear program
or an eigenvalue check can confirm directly.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .errors import (CaratheodoryFailed, HellycertError, InvalidInstance,
                     SolverStall, UnboundedBody)
from .geometry import (BodyFamily, chebyshev_center, containment_bases,
                       interior_margin, normalize_family, validate_family)
from .io import (SelectionCertificate, caratheodory_holds, check,
                 require_parameters)
from .john import john_decomposition, mvee_general
from .lp import solve_lp
from .oracle import cheapest_drop, diameter_exact
from .sparsify import EPS_SHIFT, bss_select, shifted_select

RECENTER_TARGET = 0.05
RECENTER_MAX_STEPS = 60
GROWTH_SLACK = 1e-6


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


def _owners(owner: np.ndarray, rows) -> tuple:
    return tuple(int(t) for t in np.unique(owner[np.asarray(rows, dtype=int)]))


def _require_mode(family: BodyFamily, mode: str) -> None:
    if family.mode != mode:
        raise InvalidInstance(f"{mode} selection needs a {mode} family; this "
                              f"instance is {family.mode}")


def select_symmetric(family: BodyFamily,
                     d: float = 4.0) -> SelectionCertificate:
    """Pick at most ceil(d*n) bodies whose intersection stays within
    gamma_d*sqrt(n) times the full intersection; ``check`` certifies it.
    John sees one row per slab: the centered MVEE of {+-g} is that of {g}.
    A d that ``check`` would refuse is refused before any stage."""
    _require_mode(family, "symmetric")
    require_parameters(family.dim, d=d, error=InvalidInstance)
    stages: dict = {}
    t_start = time.perf_counter()
    n = family.dim

    with _stage(stages, "validate"):
        validate_family(family)
    slabs = np.flatnonzero(~family.negated)
    with _stage(stages, "john"):
        decomp = john_decomposition(family.G[slabs], centered=False)
    with _stage(stages, "sparsify"):
        res = bss_select(decomp.vectors, decomp.weights, d)
    rows = slabs[decomp.source_indices[res.sigma]]
    selected = _owners(family.owner, rows)
    with _stage(stages, "containment"):
        directions, bases = containment_bases(family, selected)
        cert = check(family, {
            "mode": "symmetric", "z": np.zeros(n), "selected": selected,
            "d": d, "payload": {
                "coefficients": res.b * decomp.weights[res.sigma],
                "frame": decomp.frame,
                "frame_center": decomp.frame_center,
                "sigma_rows": rows,
                "support_directions": directions,
                "support_bases": bases,
            }})
    stages["total"] = time.perf_counter() - t_start
    return replace(cert, stages=stages, diagnostics={
        "residual_identity": decomp.residual_identity, **cert.diagnostics})


def caratheodory_express(w, points):
    """(tau, rho): w as the convex combination rho of at most n+1 of the
    points, the rows tau, from one gauge walk.

    With v0 the first point, ``solve_lp`` maximizes d = w - v0 over
    {x : (V - w) x <= 1}, the polar of the hull moved to w, bounded when w
    is interior to the hull. At the final basis B, (V_B - w)^T y = d and
    gamma = sum y give w = (sum_B y_i v_i + v0) / (1 + gamma): weights
    y / (1 + gamma) on B and 1 / (1 + gamma) on v0. The weights above
    1e-12 are kept, up to normalization, and accepted only if they pass
    ``io.caratheodory_holds``, the rule ``check`` judges them by. A failure,
    or a ray or a line of the walk (w not interior), raises
    CaratheodoryFailed.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(w, dtype=float)
    k, n = pts.shape
    d = w - pts[0]
    try:
        basis = solve_lp(pts - w, d)[0][0]
    except UnboundedBody as exc:
        raise CaratheodoryFailed(
            f"target is not interior to the hull of {k} points") from exc
    y = np.linalg.solve((pts[basis] - w).T, d)
    x = np.zeros(k)
    x[basis] = y
    x[0] += 1.0
    x /= 1.0 + y.sum()
    tau = np.nonzero(x > 1e-12)[0]
    rho = x[tau] / x[tau].sum()
    ok, residual = caratheodory_holds(pts[tau], rho, w)
    if not ok:
        raise CaratheodoryFailed(f"witness residual {residual:.3e} with "
                                 f"support {tau.size} (allowed n+1 = {n+1})")
    return tau, rho


def _polar_offset(family: BodyFamily, z: np.ndarray, start=None):
    """(offset, MVEE, normalized family, weights) of the polar of the
    family translated to z.

    The polar is the hull of the rows of the family normalized at z. The
    offset is its MVEE center's norm in the ellipsoid's own metric, so it
    is a fraction of the polar's size. The weights are the lifted MVEE
    weights, a warm start for a later solve on the same rows; ``start``
    hands such weights to this one's solve (``mvee_general``).
    """
    norm = normalize_family(family, z)
    ell, u = mvee_general(norm.G, eps_mvee=1e-6, start=start)
    c = ell.center
    return math.sqrt(max(float(c @ ell.shape @ c), 0.0)), ell, norm, u


def _recenter(family: BodyFamily, z0: np.ndarray, radius: float):
    """Move the translate until the polar's enclosing ellipsoid is centered.

    Each Newton step is E c, with c the center and E = (n cov)^-1 the shape
    of the polar's MVEE. A trial z - lam E c is accepted only if it keeps an
    interior margin of 0.1 * radius and strictly lowers the offset;
    otherwise lam halves, down to 1e-3. The loop stops at RECENTER_TARGET,
    when no lam helps, or after RECENTER_MAX_STEPS steps, and returns (z,
    offset, steps, normalized family, weights), where steps counts the
    Newton steps taken, the family is normalized at the returned z and the
    MVEE weights are its polar's. Every trial's solve starts from the
    accepted translate's weights: a translate only rescales the rows, so
    the nearby optimum is a few ascent steps away.
    """
    z = np.asarray(z0, dtype=float)
    offset, ell, norm, u = _polar_offset(family, z)
    steps = 0
    while offset > RECENTER_TARGET and steps < RECENTER_MAX_STEPS:
        step = ell.shape @ ell.center
        lam = 1.0
        while lam > 1e-3:
            z_try = z - lam * step
            if interior_margin(family, z_try) >= 0.1 * radius:
                trial = _polar_offset(family, z_try, u)
                if trial[0] < offset:
                    break
            lam /= 2.0
        else:
            break
        z, (offset, ell, norm, u) = z_try, trial
        steps += 1
    return z, offset, steps, norm, u


def select_general(family: BodyFamily) -> SelectionCertificate:
    """Translated selection for non-symmetric families.

    Finds a translate z (the Chebyshev center moved until the polar is
    centered), builds the centered John decomposition of the polar
    generators (accepted at ``john.TOL_JOHN_DEFAULT``), applies the shifted
    sparsifier at the fixed slack ``sparsify.EPS_SHIFT``, and completes the
    index set with a Caratheodory witness of at most n+1 rows so the
    selected bodies keep the translate well inside. The witness is sought
    first among the rows of the bodies sigma already selects, from the
    first of them, so it adds no body where it can; only when that fails
    (CaratheodoryFailed) among all rows, from row 0. Every stage's claim
    lands in the certificate.
    """
    _require_mode(family, "general")
    stages: dict = {}
    t_start = time.perf_counter()
    n = family.dim

    with _stage(stages, "center"):
        z0, radius = chebyshev_center(family)
        z, offset, recenter_iters, norm, u = _recenter(family, z0, radius)
    with _stage(stages, "john"):
        decomp = john_decomposition(norm.G, centered=True, start=u)
    with _stage(stages, "sparsify"):
        shifted = shifted_select(decomp.vectors, decomp.weights)
    sigma_rows = decomp.source_indices[shifted.sigma]
    with _stage(stages, "caratheodory"):
        w = shifted.v / math.sqrt(EPS_SHIFT * n)
        own = np.flatnonzero(np.isin(norm.owner[decomp.source_indices],
                                     norm.owner[sigma_rows]))
        try:
            tau, rho = caratheodory_express(w, decomp.vectors[own])
            tau = own[tau]
        except CaratheodoryFailed:
            tau, rho = caratheodory_express(w, decomp.vectors)

    tau_rows = decomp.source_indices[tau]
    selected = _owners(norm.owner, np.concatenate([sigma_rows, tau_rows]))
    with _stage(stages, "containment"):
        directions, bases = containment_bases(norm, selected)
        cert = check(family, {
            "mode": "general", "z": z, "selected": selected,
            "d": float(shifted.d), "payload": {
                "coefficients": shifted.b,
                "rho": rho,
                "frame": decomp.frame,
                "frame_center": decomp.frame_center,
                "sigma_rows": sigma_rows,
                "tau_rows": tau_rows,
                "support_directions": directions,
                "support_bases": bases,
            }})
    stages["total"] = time.perf_counter() - t_start
    return replace(
        cert, stages=stages, diagnostics={
            "residual_identity": decomp.residual_identity,
            "residual_barycenter": decomp.residual_barycenter,
            "chebyshev_radius": radius,
            "recenter_offset": offset,
            "recenter_iters": recenter_iters,
            **cert.diagnostics},
        notes=(f"recentered translate after {recenter_iters} Newton steps "
               f"(offset {offset:.2e})",))


def reduce_to_2n(family: BodyFamily,
                 selection: SelectionCertificate) -> SelectionCertificate:
    """Greedy one-at-a-time drops from s bodies down to 2n.

    Each step takes the drop that leaves the least exact circumradius among
    those that leave a bounded intersection (``oracle.cheapest_drop``, one
    vertex enumeration per step), the first in selection order on a tie.
    A step of m bodies may grow the radius by at most m/(m - 2n) (Barany,
    Katchalski and Pach), up to GROWTH_SLACK, and the chain is recorded in
    the notes and the ``reduction_*`` diagnostics. By Steinitz's theorem
    some drop is always bounded. A step past its limit, or one where
    rounding leaves no drop bounded, raises SolverStall, so no certificate
    comes of a broken chain. The drops run in stage ``reduce``, which then
    names the stage of what they raise: also UnboundedBody when more than
    2n selected bodies have an unbounded intersection, and OracleTooLarge
    when they are past the vertex oracle's caps. A selection of at most 2n
    bodies is returned as given: ``check`` derived it when it was selected
    or read (``io.certificate_from_json``). A reduced selection is walked
    again, since the input's directions and bases belong to the selection
    it came with, and checked.
    """
    n, sel = family.dim, list(selection.selected)
    if len(sel) <= 2 * n:
        return selection
    stages, notes = dict(selection.stages), selection.notes
    with _stage(stages, "reduce"):
        norm = normalize_family(family, selection.z)
        start_radius = None
        while len(sel) > 2 * n:
            m = len(sel)
            whole, best_j, best_r = cheapest_drop(
                *norm.constraint_matrix(sel))
            if start_radius is None:
                # by Steinitz's theorem 2n of the m > 2n bodies already
                # bound a bounded intersection, so only the start can
                # price +inf
                if math.isinf(whole):
                    raise UnboundedBody(f"the {m} selected bodies have an "
                                        "unbounded intersection; nothing "
                                        "to reduce")
                radius = start_radius = whole
            if best_j is None:
                raise SolverStall(f"no drop of the {m} selected bodies "
                                  "leaves a bounded intersection")
            growth, limit = best_r / radius, m / (m - 2 * n)
            step = (f"radius {radius:.6g} -> {best_r:.6g} (growth "
                    f"{growth:.4f}")
            if not growth <= limit * (1.0 + GROWTH_SLACK):
                raise SolverStall(f"dropping body {best_j} of the {m} "
                                  f"selected grows the {step} above the "
                                  f"limit {limit:.4f})")
            notes += (f"dropped body {best_j}: {step}, limit {limit:.4f})",)
            sel.remove(best_j)
            radius = best_r
        directions, bases = containment_bases(norm, sorted(sel))
    stages["total"] = selection.stages.get("total", 0.0) + stages["reduce"]

    cert = check(family, {
        "mode": selection.mode, "z": selection.z, "selected": sorted(sel),
        "d": selection.d, "payload": {
            **selection.payload, "support_directions": directions,
            "support_bases": bases}})
    return replace(cert, stages=stages, notes=notes, diagnostics={
        **selection.diagnostics,
        "reduction_start_radius": start_radius,
        "reduction_final_radius": radius,
        "reduction_cumulative_growth": radius / start_radius,
        "reduction_cumulative_bound": float(
            math.comb(len(selection.selected), 2 * n)),
        **cert.diagnostics})


def diameter_report(family: BodyFamily, selection: SelectionCertificate):
    """(diam of the selected intersection, diam of the full one, ratio),
    both diameters priced with the vertex oracle."""
    norm = normalize_family(family, selection.z)
    G_s, h_s, _ = norm.constraint_matrix(selection.selected)
    diam_sel = diameter_exact(G_s, h_s)
    diam_full = diameter_exact(norm.G, norm.h)
    return diam_sel, diam_full, diam_sel / diam_full
