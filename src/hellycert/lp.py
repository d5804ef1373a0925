"""Linear programming over {x : G x <= 1}: one engine, the vertex walk.

``vertex_walk`` runs one primal simplex per direction, each from its own
crash vertex and from no other start, all advanced together by stacked
n x n solves and priced by the most negative dual. It only proposes a basis
per direction, or a ray, or, from the crash, a line. Every LP of the
package is this walk. ``solve_lp`` is its entry point for any set of
directions: it returns the bases and their vertices, and a ray or a line,
once checked to rise and stay, is its one verdict of an unbounded
polyhedron (UnboundedBody). The Chebyshev center (a lifted walk in one
direction), the Caratheodory witness (a gauge walk) and the +-e_i box walk
of ``walk_bases`` all go through it; ``support_h_polytope`` is its
one-direction form for G x <= h with h > 0.

Trusted is one weak-duality formula, ``_upper_bounds``, with the box
M >= max |x|_inf it needs: ``box_bound`` takes M from closed-form duals of
+-e_i, and only where they decide nothing does ``walk_bases`` walk +-e_i,
whose bases, stored after the others, give M when replayed.
``check_support`` replays bases into a bracket that must close;
``dual_bounds`` bounds every direction by one closed-form dual.
``walk_bases`` proposes, a certificate stores the walked directions and
their bases, and the checks never walk.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverStall, UnboundedBody

EPS = float(np.finfo(float).eps)
# Along an edge d, row i blocks only when G_i d exceeds this share of
# |G_i| |d|; a claimed ray is accepted under the same rule.
PIVOT_TOL = 1e-9
# A dual entry counts as negative below -DUAL_TOL * (1 + max |y|).
DUAL_TOL = 1e-11
# Ratio-test values within TIE_TOL * (1 + t_min) of the minimum are ties.
TIE_TOL = 1e-12
# The primal and dual witnesses must agree to GAP_TOL * (1 + |hi|).
GAP_TOL = 1e-9
# ``walk_bases`` walks the directions with this many largest dual bounds
# first; their supports decide which of the others need a walk.
WALK_FIRST = 8


@dataclass
class VertexWalk:
    """Where a batched vertex walk over {x : G x <= 1} stopped.

    Row j belongs to direction j. ``basis`` holds the n rows of G tight at
    the last vertex. Where ``ray`` is set the walk (or its crash) left along
    ``edge`` and met no row. When the crash found a line d inside the
    polyhedron it is ``line``, and there is no vertex and no basis: every
    direction u that rises along the line is a ray along sign(u.d) d.
    """

    basis: np.ndarray
    ray: np.ndarray
    edge: np.ndarray
    line: np.ndarray | None = None


def _blocking(gd, slack, tol, dnorm, exclude):
    """Bland ratio test: (step, lowest blocking row) per edge; row -1 = none.

    ``gd`` and ``slack`` are (k, m) growth and slack of every row along k
    edges; ``tol`` is PIVOT_TOL times the row norms of G, so row i blocks
    edge l only when its growth exceeds tol_i |d_l|; rows in ``exclude``
    (k, j) never block.
    """
    hits = gd > tol * dnorm[:, None]
    hits[np.arange(gd.shape[0])[:, None], exclude] = False
    t = np.divide(slack, gd, out=np.full(gd.shape, np.inf), where=hits)
    tmin = t.min(axis=1)
    tied = t <= (tmin + TIE_TOL * (1.0 + tmin))[:, None]
    row = np.where(np.isfinite(tmin), tied.argmax(axis=1), -1)
    return tmin, row


def _off(Q, v):
    """Each row of v minus its projection onto the orthonormal rows of Q."""
    return v - np.einsum("lij,li->lj", Q, np.einsum("lij,lj->li", Q, v))


def _crash(G, U, norms):
    """A start vertex of {x : G x <= 1} for every row u of U at once: from
    the origin, each step moves along u projected off the rows tight so far
    until one more is tight, or, where that projection vanishes, along a
    null vector of those rows, forward or back. Returns (basis, ray, edge,
    line): n tight rows per direction, a ray where the projection ``edge``
    met no row, and a null vector blocked neither way (a line), or None.

    The state (point x, orthonormal rows Q spanning the tight rows, tight
    rows B and the directions themselves) is kept packed to the directions
    still live, and is compressed only when a direction leaves on a ray.
    """
    k, n = U.shape
    basis, B = np.zeros((k, n), dtype=int), np.zeros((k, n), dtype=int)
    x, edge, Q = np.zeros((k, n)), np.zeros((k, n)), np.zeros((k, n, n))
    live, ray = np.arange(k), np.zeros(k, dtype=bool)
    unorm, tol = np.linalg.norm(U, axis=1), PIVOT_TOL * norms
    for j in range(n):  # Q[:, :j] spans the j rows tight so far
        d = _off(Q[:, :j], U) if j else U.copy()
        dnorm = np.linalg.norm(d, axis=1)
        flat = dnorm <= PIVOT_TOL * unorm
        if flat.any():  # the coordinate axis furthest off the tight rows
            null = np.eye(n) - np.einsum("lij,lik->ljk", Q[flat, :j],
                                         Q[flat, :j])
            pick = np.argmax(np.linalg.norm(null, axis=1), axis=1)
            d[flat] = null[np.arange(len(pick)), pick]
            dnorm[flat] = np.linalg.norm(d[flat], axis=1)
        slack = np.maximum(1.0 - x @ G.T, 0.0)
        t, row = _blocking(d @ G.T, slack, tol, dnorm, B[:, :j])
        back = flat & (row < 0)
        if back.any():
            d[back] *= -1.0
            t[back], row[back] = _blocking(d[back] @ G.T, slack[back], tol,
                                           dnorm[back], B[back, :j])
            if (back & (row < 0)).any():
                basis[live] = B
                return basis, ray, edge, d[np.argmax(back & (row < 0))]
        out = row < 0
        if out.any():
            gone, keep = live[out], ~out
            ray[gone], edge[gone], basis[gone] = True, d[out], B[out]
            live, x, Q, B, U, unorm, d, t, row = (
                a[keep] for a in (live, x, Q, B, U, unorm, d, t, row))
        x += t[:, None] * d
        B[:, j] = row
        if j < n - 1:  # twice, for rounding; nothing to project at j = 0
            g = _off(Q[:, :j], _off(Q[:, :j], G[row])) if j else G[row]
            Q[:, j] = g / np.linalg.norm(g, axis=1)[:, None]
    basis[live] = B
    return basis, ray, edge, None


def vertex_walk(G, U) -> VertexWalk:
    """Maximize every row u of U over {x : G x <= 1}, all at once.

    A primal vertex walk per direction, from the vertex its own ``_crash``
    reaches. Each round solves the stacked bases for duals and vertices,
    lets the basis row with the most negative dual leave (Dantzig's rule,
    ties to the lowest row), and takes the lowest blocking row along the
    edge that opens. After a step of zero length the leaving row is the
    lowest one with a negative dual instead (Bland's rule), so a degenerate
    vertex cannot make the walk cycle. A direction stops at a nonnegative
    dual or on an edge no row blocks; after 50 (m + n) rounds, or at a
    singular basis, the walk gives up with SolverStall. The result is not
    trusted: ``solve_lp`` checks its rays and line, ``check_support`` its
    bases.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    (m, n), k = G.shape, U.shape[0]
    norms = np.linalg.norm(G, axis=1)
    basis, ray, edge, line = _crash(G, U, norms)
    if line is not None:
        ud = U @ line
        ray = np.abs(ud) > (PIVOT_TOL * np.linalg.norm(U, axis=1)
                            * np.linalg.norm(line))
        edge = np.where(ray[:, None], np.sign(ud)[:, None] * line, 0.0)
        return VertexWalk(np.zeros((k, n), dtype=int), ray, edge, line)
    max_rounds, tol = 50 * (m + n), PIVOT_TOL * norms
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
            return VertexWalk(basis, ray, edge)
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
        t, row = _blocking(d @ G.T, np.maximum(1.0 - xl @ G.T, 0.0), tol,
                           np.linalg.norm(d, axis=1), basis[live])
        bland[live] = t <= TIE_TOL
        out = row < 0
        if out.any():
            ray[live[out]], edge[live[out]] = True, d[out]
            live, pos, row = live[~out], pos[~out], row[~out]
        basis[live, pos] = row
    raise SolverStall(f"vertex walk: {live.size} of {k} directions still "
                      f"improving after {max_rounds} rounds")


def _solve(A, b):
    """np.linalg.solve for the walk, where a singular basis is a stall."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolverStall(f"vertex walk: a basis is singular: {exc}") from exc


def solve_lp(G, U):
    """(bases, vertices): maximize every row u of U over {x : G x <= 1}.

    One ``vertex_walk``; for each direction the n rows of G it ends on and
    the vertex where they are tight. When the walk leaves on a ray, or its
    crash meets a line, the polyhedron is unbounded and UnboundedBody is
    raised, but only after the check: a ray d must rise (u.d > 0) and stay
    (G d <= 0) to PIVOT_TOL relative, and a line must stay both ways
    (G d = 0). A claim that fails it raises SolverStall. The bases are not
    checked here: ``check_support`` replays them where a verdict needs it.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    walk = vertex_walk(G, U)
    if walk.line is None:
        e = walk.edge[walk.ray]
        rises = (np.einsum("ij,ij->i", U[walk.ray], e)
                 > PIVOT_TOL * np.linalg.norm(e, axis=1))
    else:
        e, rises = np.stack([walk.line, -walk.line]), True
    if len(e):
        enorm = np.linalg.norm(e, axis=1)
        stays = np.all(e @ G.T <= PIVOT_TOL * np.outer(
            enorm, np.linalg.norm(G, axis=1)), axis=1)
        if not np.all(rises & stays):
            raise SolverStall("vertex walk: claimed ray is not a recession "
                              "direction")
        raise UnboundedBody("the polyhedron has a recession direction")
    k, n = walk.basis.shape
    return walk.basis, _solve(G[walk.basis], np.ones((k, n, 1)))[:, :, 0]


def support_h_polytope(G, h, direction) -> float:
    """Support function max{<x, u> : G x <= h} for h > 0 (ValueError
    otherwise): ``solve_lp`` in one direction over the rows G / h. Returns
    ``math.inf`` when the polyhedron is unbounded, which includes every
    polyhedron holding a line (the walk has no vertex to start from).
    """
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0):
        raise ValueError("support query needs every offset h > 0")
    u = np.asarray(direction, dtype=float)
    try:
        x = solve_lp(np.asarray(G, dtype=float) / h[:, None], u)[1][0]
    except UnboundedBody:
        return math.inf
    return float(u @ x)


@functools.cache
def _axes(n, sets=1) -> np.ndarray:
    """The box directions +e_i, then -e_i, ``sets`` times (read-only)."""
    axes = np.tile(np.concatenate((np.eye(n), -np.eye(n))), (sets, 1))
    axes.flags.writeable = False
    return axes


def _duality_terms(G, D, y):
    """(sum y+, |d - G^T y+|_1 plus its dot-product rounding bound, allow)
    per row d of D, for duals y on the rows of G: (k, r, n), a row set per
    direction, or (r, n), shared."""
    r = G.shape[-2]
    yp = np.maximum(y, 0.0)
    if G.ndim == 3:
        back = np.einsum("kij,ki->kj", G, yp)
        mass = np.einsum("kij,ki->kj", np.abs(G), yp)
    else:
        back, mass = yp @ G, yp @ np.abs(G)
    rounding = (r + 1) * EPS * (np.abs(D) + mass)
    resid = (np.abs(D - back) + rounding).sum(axis=1)
    return yp.sum(axis=1), resid, 1.0 + 4 * (r + 2) * EPS


def _upper_bounds(G, D, y, box) -> np.ndarray:
    """The one trusted support bound: for each row d of D, an upper bound on
    max{d.x : G x <= 1} from the duals y on rows of G, given a box
    M >= max |x|_inf over the polyhedron. With y+ = max(y, 0),

        hi = (sum y+ + |d - G^T y+|_1 M)(1 + 4(r+2)eps),

    the dot-product rounding bound added to the residual. By weak duality
    hi is an upper bound for any y, so a wrong dual only widens it.
    """
    total, resid, allow = _duality_terms(G, D, y)
    return (total + resid * box) * allow


def _box(G, y):
    """The box M of ``_upper_bounds`` from duals y of +e_i, then -e_i, in
    one or more stacked sets: the same bound with M on both sides, so
    M = max sum y+ / (1 - rho) for the set's largest residual rho. The
    least M of a set with rho < 1, else None (as for NaN duals)."""
    n = G.shape[-1]
    total, resid, allow = _duality_terms(G, _axes(n, len(y) // (2 * n)), y)
    rho = resid.reshape(-1, 2 * n).max(axis=1) * allow
    tops = total.reshape(-1, 2 * n).max(axis=1)
    return min((float(t * allow / (1.0 - r) * allow)
                for t, r in zip(tops, rho) if r < 1.0), default=None)


def box_bound(G):
    """A box M >= max |x|_inf over {x : G x <= 1} from closed-form duals of
    +-e_i, or None when they decide nothing (or A = G^T G is singular).

    With z = G A^-1 e_i (so G^T z = e_i) and Stiemke's y = 1 - G A^-1 G^T 1
    (1 projected onto the left null space of G), each d = +-e_i gets the
    pairing dual +-2z of ``dual_bounds``, tight for rows in pairs +-g, and,
    when y > 0, +-z + c y with the least c >= 0 that makes it nonnegative
    (Stiemke: for G of rank n such a y exists iff the polyhedron is
    bounded). M is the least ``_box`` of the two.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    try:
        z = np.linalg.solve(G.T @ G, G.T)
    except np.linalg.LinAlgError:
        return None
    y = 1.0 - G.sum(axis=0) @ z
    z = np.concatenate((z, -z))
    if not (y > 0).all():
        return _box(G, 2.0 * z)
    lift = np.maximum(0.0, (-z / y).max(axis=1))
    return _box(G, np.concatenate((2.0 * z, z + lift[:, None] * y)))


def dual_bounds(G, U, box) -> np.ndarray:
    """Checked upper bounds on max{u.x : G x <= 1}, one per row u of U,
    each from one closed-form dual and no walk.

    Let y = G A^-1 u with A = G^T G, so that G^T y = u. Where the rows of G
    come in pairs +-g (a centrally symmetric polyhedron), moving every
    negative entry of y to the opposite row gives the dual 2 y+ >= 0 with
    value sum |y|. The bounds are ``_upper_bounds`` of the duals 2y, so
    they hold for any G; without the pairs the residual widens them.
    ``box`` is ``box_bound(G)``; SolverStall when it is None, which for a
    symmetric G means a line in it.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if box is None:
        raise SolverStall("dual bound: G^T G is singular or its closed-form "
                          "duals bound no box")
    w = np.linalg.solve(G.T @ G, U.T)
    return _upper_bounds(G, U, 2.0 * (G @ w).T, box)


def check_support(G, U, bases, box) -> float:
    """Certified upper bound on max over rows u of U of max{u.x : G x <= 1}.

    ``bases`` holds n row indices of G for each row of U, then, only when
    ``box``, which is ``box_bound(G)``, is None, for +e_i and -e_i, whose
    duals give the box. They are not trusted. From
    stacked solves of G_B^T y = u and G_B x = 1, lo = max u.x / max(1,
    max G x) at the vertices x and hi = ``_upper_bounds`` of the duals y.
    Returns max hi over U (-inf for no rows); SolverStall when the bases do
    not name n distinct rows each, one is singular, the box bases bound no
    box, or some hi - lo exceeds GAP_TOL (1 + |hi|).
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    m, n = G.shape
    D = np.atleast_2d(np.asarray(U, dtype=float))
    k = D.shape[0]
    if box is None:
        D = np.vstack([D, _axes(n)])
    bases = np.asarray(bases)
    if bases.shape == D.shape == (0, n):
        return -math.inf
    if (bases.shape != D.shape or bases.dtype.kind not in "iu"
            or not 0 <= bases.min() <= bases.max() < m
            or np.any(np.diff(np.sort(bases, axis=1), axis=1) == 0)):
        raise SolverStall(f"bases of shape {bases.shape} do not name {n} "
                          f"distinct rows of {m} for each of {D.shape[0]} "
                          "directions")
    GB = G[bases]
    try:
        y = np.linalg.solve(np.swapaxes(GB, 1, 2), D[:, :, None])[:, :, 0]
        x = np.linalg.solve(GB, np.ones((D.shape[0], n, 1)))[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise SolverStall(f"a basis is singular: {exc}") from exc
    box = _box(GB[k:], y[k:]) if box is None else box
    if box is None:
        raise SolverStall("support check: the box bases bound no box")
    hi = _upper_bounds(GB, D, y, box)
    scale = np.maximum(1.0, (x @ G.T).max(axis=1))
    lo = (D @ (x / scale[:, None]).T).max(axis=1)
    gap = hi - lo
    worst = int(np.argmax(gap / (1.0 + np.abs(hi))))
    if not gap[worst] <= GAP_TOL * (1.0 + abs(hi[worst])):
        raise SolverStall(f"support check: direction {worst} bracketed in "
                          f"[{lo[worst]:.12g}, {hi[worst]:.12g}]")
    return float(hi[:k].max(initial=-math.inf))


def walk_bases(G, U, symmetric=False):
    """(directions, bases): the strictly increasing indices of the rows of
    U that ``vertex_walk`` walks, and n rows of G for each, then for +e_i
    and -e_i where ``box_bound`` is None; for ``check_support`` to check.

    Only that box walk is asked about rays. It goes through ``solve_lp``,
    whose checked ray or line (UnboundedBody) gives None, and whose false
    one raises SolverStall.
    Each row u gets beta_u, ``dual_bounds`` when ``symmetric``, else +inf.
    The WALK_FIRST largest, ties included, walk first, L being their
    largest support, scaled into the polyhedron. Every other row with
    beta_u > L walks next; the rest have support <= beta_u <= L. Every
    walk, of the box or of rows of U, starts from its own crash vertex.
    A row whose walk claims a ray keeps its basis, for the replay to reject.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    k, n = U.shape[0], G.shape[1]
    tail, box = np.zeros((0, n), dtype=int), box_bound(G)
    if box is None:
        try:
            tail = solve_lp(G, _axes(n))[0]
        except UnboundedBody:
            return None
    if not k:
        return np.zeros(0, dtype=int), tail
    beta = dual_bounds(G, U, box) if symmetric else np.full(k, math.inf)
    walked = beta >= np.sort(beta)[-min(WALK_FIRST, k)]
    bases = np.zeros((k, n), dtype=int)
    bases[walked] = vertex_walk(G, U[walked]).basis
    rest = ~walked
    if rest.any():
        x = _solve(G[bases[walked]], np.ones((walked.sum(), n, 1)))[:, :, 0]
        lo = (np.einsum("ij,ij->i", U[walked], x)
              / np.maximum(1.0, (x @ G.T).max(axis=1)))
        rest &= beta > lo.max()
    if rest.any():
        bases[rest] = vertex_walk(G, U[rest]).basis
        walked |= rest
    return np.flatnonzero(walked), np.vstack([bases[walked], tail])
