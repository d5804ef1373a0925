"""Earlier versions of five library kernels, kept as bit-for-bit references.

``bss_select`` is the barrier selection of ``hellycert.sparsify`` with a
fresh ``np.outer`` per step, ``A`` re-symmetrized before each eigensolve
and each step's potentials and bound coefficients filled in index loops
over the eigenvalues. ``crash`` and ``vertex_walk`` are the start vertex
and the batched walk of ``hellycert.lp`` with every step indexing the full
state by the live directions. ``vertex_sets`` is the enumeration of
``hellycert.oracle`` with the n-subsets drawn from ``itertools`` and every
basis put to the determinant test before it is solved. ``first_kept`` is
the oracle's near-duplicate merge as one blocked pairwise-distance pass
with its chains of near rows settled afterwards. The library packs, reuses
or skips that work; it must return the same bits as these, which do the
same floating-point operations in the same order.
"""

import itertools
import math

import numpy as np

from hellycert.errors import BarrierStuck, SolverStall
from hellycert.lp import DUAL_TOL, PIVOT_TOL, TIE_TOL, _solve
from hellycert.oracle import _CHUNK, FEAS_TOL, MERGE_TOL
from hellycert.sparsify import _ADMIT_ATOL, _ADMIT_RTOL


def bss_select(vectors, weights, d):
    """(sigma, b, lambda_max) of ``sparsify.bss_select``."""
    if d <= 1.0:
        raise ValueError("sparsifier parameter d must exceed 1")
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(weights, dtype=float)
    k, n = v.shape
    w = v * np.sqrt(a)[:, None]

    root = math.sqrt(d)
    delta_u = (root + 1.0) / (root - 1.0)
    delta_l = 1.0
    u_bar = n * (d + root) / (root - 1.0)
    l_bar = -n * root
    steps = math.ceil(d * n)

    A = np.zeros((n, n))
    coeff = np.zeros(k)
    lam = np.zeros(n)
    V = np.eye(n)

    for step in range(steps):
        u_next = u_bar + delta_u
        l_next = l_bar + delta_l
        if lam[-1] >= u_next or lam[0] <= l_next:
            raise BarrierStuck(
                f"step {step}: spectrum [{lam[0]:.6g}, {lam[-1]:.6g}] "
                f"escaped barriers ({l_next:.6g}, {u_next:.6g})")
        P2 = (w @ V) ** 2
        inv_u, inv_l = np.zeros(n), np.zeros(n)
        phi = [0.0, 0.0, 0.0, 0.0]  # at u_bar, u_next, l_next, l_bar
        for i in range(n):
            x = float(lam[i])
            inv_u[i] = 1.0 / (u_next - x)
            inv_l[i] = 1.0 / (x - l_next)
            phi[0] = phi[0] + 1.0 / (u_bar - x)
            phi[1] = phi[1] + float(inv_u[i])
            phi[2] = phi[2] + float(inv_l[i])
            phi[3] = phi[3] + 1.0 / (x - l_bar)
        dphi_u = phi[0] - phi[1]
        dphi_l = phi[2] - phi[3]
        coeffs = np.zeros((n, 2))
        for i in range(n):
            coeffs[i, 0] = inv_u[i] * inv_u[i] / dphi_u + inv_u[i]
            coeffs[i, 1] = inv_l[i] * inv_l[i] / dphi_l - inv_l[i]
        upper, lower = (P2 @ coeffs).T
        admissible = (lower > 0.0) & (
            upper <= lower * (1.0 + _ADMIT_RTOL) + _ADMIT_ATOL)
        if not admissible.any():
            raise BarrierStuck(
                f"step {step}: no admissible index; barriers "
                f"({l_next:.6g}, {u_next:.6g}), spectrum "
                f"[{lam[0]:.6g}, {lam[-1]:.6g}], best margin "
                f"{float(np.min(upper - lower)):.3e}")
        j = int(np.argmax(admissible))
        t = 2.0 / (upper[j] + lower[j])
        A += t * np.outer(w[j], w[j])
        coeff[j] += t
        u_bar, l_bar = u_next, l_next
        lam, V = np.linalg.eigh((A + A.T) / 2.0)

    sigma = np.nonzero(coeff > 0.0)[0]
    return sigma, coeff[sigma] / lam[0], lam[-1] / lam[0]


def _blocking(gd, slack, norms, dnorm, exclude):
    """``lp._blocking``, with the row norms in place of ``tol``."""
    hits = gd > PIVOT_TOL * norms[None, :] * dnorm[:, None]
    hits[np.arange(gd.shape[0])[:, None], exclude] = False
    t = np.where(hits, slack / np.where(hits, gd, 1.0), np.inf)
    tmin = t.min(axis=1)
    tied = t <= tmin[:, None] + TIE_TOL * (1.0 + tmin[:, None])
    row = np.where(np.isfinite(tmin), np.argmax(tied, axis=1), -1)
    return tmin, row


def _off(Q, v):
    return v - np.einsum("lij,li->lj", Q, np.einsum("lij,lj->li", Q, v))


def crash(G, U, norms):
    """``lp._crash``: (basis, ray, edge, line), on the first of each set of
    equal rows of G."""
    first = np.sort(np.unique(G, axis=0, return_index=True)[1])
    G, norms = G[first], norms[first]
    k, n = U.shape
    x, edge, Q = np.zeros((k, n)), np.zeros((k, n)), np.zeros((k, n, n))
    basis, ray = np.zeros((k, n), dtype=int), np.zeros(k, dtype=bool)
    live = np.arange(k)
    for j in range(n):  # Q[:, :j] spans the j rows tight so far
        d = _off(Q[live, :j], U[live])
        flat = (np.linalg.norm(d, axis=1)
                <= PIVOT_TOL * np.linalg.norm(U[live], axis=1))
        if flat.any():  # the coordinate axis furthest off the tight rows
            null = np.eye(n) - np.einsum("lij,lik->ljk", Q[live[flat], :j],
                                         Q[live[flat], :j])
            pick = np.argmax(np.linalg.norm(null, axis=1), axis=1)
            d[flat] = null[np.arange(len(pick)), pick]
        slack = np.maximum(1.0 - x[live] @ G.T, 0.0)
        t, row = _blocking(d @ G.T, slack, norms, np.linalg.norm(d, axis=1),
                           basis[live, :j])
        back = flat & (row < 0)
        if back.any():
            d[back] *= -1.0
            t[back], row[back] = _blocking(
                d[back] @ G.T, slack[back], norms,
                np.linalg.norm(d[back], axis=1), basis[live[back], :j])
            if (back & (row < 0)).any():
                return first[basis], ray, edge, d[np.argmax(back & (row < 0))]
        keep = row >= 0
        ray[live[~keep]] = True
        edge[live[~keep]] = d[~keep]
        live, d, t, row = live[keep], d[keep], t[keep], row[keep]
        x[live] += t[:, None] * d
        basis[live, j] = row
        g = _off(Q[live, :j], _off(Q[live, :j], G[row]))  # twice, for rounding
        Q[live, j] = g / np.linalg.norm(g, axis=1)[:, None]
    return first[basis], ray, edge, None


def vertex_walk(G, U):
    """(basis, ray, edge) of ``lp.vertex_walk``."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    (m, n), k = G.shape, U.shape[0]
    norms = np.linalg.norm(G, axis=1)
    basis, ray, edge, line = crash(G, U, norms)
    if line is not None:
        ud = U @ line
        ray = np.abs(ud) > (PIVOT_TOL * np.linalg.norm(U, axis=1)
                            * np.linalg.norm(line))
        edge = np.where(ray[:, None], np.sign(ud)[:, None] * line, 0.0)
        return np.zeros((k, n), dtype=int), ray, edge
    max_rounds = 50 * (m + n)
    bland = np.zeros(k, dtype=bool)
    live = np.flatnonzero(~ray)
    for rnd in range(max_rounds + 1):
        B = G[basis[live]]
        yl = _solve(np.swapaxes(B, 1, 2), U[live, :, None])[:, :, 0]
        scale = DUAL_TOL * (1.0 + np.abs(yl).max(axis=1))
        improving = yl < -scale[:, None]
        go = improving.any(axis=1)
        live, B, improving, yl = live[go], B[go], improving[go], yl[go]
        if live.size == 0:
            return basis, ray, edge
        if rnd == max_rounds:
            break
        steepest = yl == np.where(improving, yl, 0.0).min(axis=1)[:, None]
        leaving = improving & (bland[live, None] | steepest)
        pos = np.argmin(np.where(leaving, basis[live], m), axis=1)
        rhs = np.zeros((live.size, n, 2))
        rhs[:, :, 0] = 1.0
        rhs[np.arange(live.size), pos, 1] = -1.0
        sol = _solve(B, rhs)
        xl, d = sol[:, :, 0], sol[:, :, 1]
        t, row = _blocking(d @ G.T, np.maximum(1.0 - xl @ G.T, 0.0), norms,
                           np.linalg.norm(d, axis=1), basis[live])
        out = row < 0
        ray[live[out]] = True
        edge[live[out]] = d[out]
        basis[live[~out], pos[~out]] = row[~out]
        bland[live] = t <= TIE_TOL
        live = live[~out]
    raise SolverStall(f"vertex walk: {live.size} of {k} directions still "
                      f"improving after {max_rounds} rounds")


def vertex_sets(G, h, owner=None):
    """(X, member) of ``oracle._vertex_sets``."""
    m, n = G.shape
    drops = owner is not None
    owner = (np.unique(owner, return_inverse=True)[1] if drops
             else np.zeros(m, dtype=np.intp))
    feas = FEAS_TOL * np.maximum(1.0, np.abs(h))
    found_idx, found_x, found_body = [], [], []
    combos = itertools.combinations(range(m), n)
    while True:
        chunk = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(combos, _CHUNK)), dtype=np.intp)
        if chunk.size == 0:
            break
        idx = chunk.reshape(-1, n)
        bases = G[idx]
        dets = np.abs(np.linalg.det(bases))
        scale = np.linalg.norm(bases, axis=(1, 2)) + 1.0
        good = dets > 1e-12 * scale ** n
        if not good.any():
            continue
        idx = idx[good]
        xs = np.linalg.solve(bases[good], h[idx][:, :, None])[:, :, 0]
        out = ~(xs @ G.T <= h + feas)
        body = np.full(len(idx), -1)
        if drops:
            hit = out.any(axis=1)
            body[hit] = owner[np.argmax(out[hit], axis=1)]
            keep = ~(out & (owner != body[:, None])).any(axis=1)
        else:
            keep = ~out.any(axis=1)
        found_idx.append(idx[keep])
        found_x.append(xs[keep])
        found_body.append(body[keep])
    idx = np.concatenate(found_idx or [np.zeros((0, n), dtype=np.intp)])
    X = np.concatenate(found_x or [np.zeros((0, n))])
    body = np.concatenate(found_body or [np.zeros(0, dtype=int)])
    member = (body < 0)[:, None]
    if drops:
        in_basis = np.zeros((len(idx), owner.max() + 1), dtype=bool)
        in_basis[np.arange(len(idx))[:, None], owner[idx]] = True
        member = np.hstack([member, (member | (
            body[:, None] == np.arange(in_basis.shape[1]))) & ~in_basis])
    return X, member


def first_kept(X):
    """The keep mask of ``oracle._first_kept``."""
    step = max(1, (1 << 18) // max(len(X), 1))
    pi, pj = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for a in range(0, len(X), step):
        dist = np.linalg.norm(X[a:a + step, None, :] - X[None, :a + step, :],
                              axis=2)
        i, j = np.nonzero(~(dist > MERGE_TOL))
        below = j < i + a
        pi.append(i[below] + a)
        pj.append(j[below])
    pi, pj = np.concatenate(pi), np.concatenate(pj)
    keep = np.ones(len(X), dtype=bool)
    keep[pi] = False
    merged = np.zeros(len(X), dtype=bool)
    merged[pi[keep[pj]]] = True
    # left: rows whose earlier near rows all have earlier ones too (a chain
    # of near-duplicates); settle them in order
    for i in np.flatnonzero(~keep & ~merged):
        keep[i] = not keep[pj[pi == i]].any()
    return keep
