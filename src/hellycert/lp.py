"""Linear programming: a dense two-phase simplex and a batched vertex walk.

The dense solver is deliberately boring: full tableau, Bland's anti-cycling
rule, lowest-index tie-breaking everywhere. That makes runs deterministic and
keeps the exact optimal basis available for certificates. Problem sizes in
this package stay in the hundreds of rows, where a dense tableau is fine.

Support values of one polyhedron {x : G x <= 1} in many directions, which is
what the containment factor needs, go through ``vertex_walk`` instead: one
primal simplex per direction, all of them advanced together by stacked n x n
solves and priced by the most negative dual. The walk is not trusted: it
only proposes one basis per direction, or a ray where the support is
unbounded (a line is two rays, one per sign).
``check_support`` turns bases into primal and dual witnesses with two stacked
solves, bounds the rounding in the dual residual, and returns the upper end
of the bracket only when the two ends meet. ``dual_bounds`` bounds the
support in every direction at once from one closed-form dual each, tight
when the polyhedron is centrally symmetric. Both end in ``_upper_bounds``,
the one weak-duality formula that is trusted. ``walk_bases`` walks the
directions +-e_i first, then only the directions whose dual bound could
exceed the support already found, each from the best of the box vertices.
Rays matter only on the box walk: a checked ray there is the one verdict
of an unbounded polyhedron, and then no other direction is walked. Every
support value is a replayed basis or a checked closed-form dual bound:
``walk_bases`` proposes, a certificate stores the walked directions and
their bases, and ``check_support`` and ``dual_bounds`` check them, in the
producer and in checking alike, and never walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBody, SolverStall

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

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
class LinearProgram:
    """maximize objective . x  subject to  G x <= h,  A_eq x = b_eq.

    Variables are free unless ``nonneg`` is set, in which case x >= 0 and the
    usual split into positive and negative parts is skipped.
    """

    objective: np.ndarray
    G: np.ndarray | None = None
    h: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    nonneg: bool = False

    def __post_init__(self):
        self.objective = np.atleast_1d(np.asarray(self.objective, dtype=float))
        n = self.objective.shape[0]
        if self.G is None:
            self.G = np.zeros((0, n))
            self.h = np.zeros(0)
        self.G = np.asarray(self.G, dtype=float).reshape(-1, n)
        self.h = np.atleast_1d(np.asarray(self.h, dtype=float))
        if self.h.shape[0] != self.G.shape[0]:
            raise ValueError("G and h row counts differ")
        if self.A_eq is not None:
            self.A_eq = np.asarray(self.A_eq, dtype=float).reshape(-1, n)
            self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
            if self.b_eq.shape[0] != self.A_eq.shape[0]:
                raise ValueError("A_eq and b_eq row counts differ")
        for arr in (self.objective, self.G, self.h, self.A_eq, self.b_eq):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("linear program has non-finite data")

    @property
    def n(self) -> int:
        return self.objective.shape[0]


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None
    value: float | None


def _pivot_loop(tab, obj, basis, n_enterable, max_iter, tol_cost, tol_piv):
    """Bland pivoting on an augmented tableau.

    ``basis`` entries of -1 mark retired (redundant) rows. Only the first
    ``n_enterable`` columns may enter, which is how artificial variables are
    blocked after phase 1.
    """
    m = tab.shape[0]
    for _ in range(max_iter):
        candidates = np.nonzero(obj[:n_enterable] < -tol_cost)[0]
        if candidates.size == 0:
            return OPTIMAL
        enter = int(candidates[0])

        col = tab[:, enter]
        usable = (col > tol_piv) & (basis >= 0)
        if not usable.any():
            return UNBOUNDED
        rows = np.nonzero(usable)[0]
        ratios = tab[rows, -1] / col[rows]
        rmin = float(ratios.min())
        tied = rows[ratios <= rmin + 1e-9 * (1.0 + abs(rmin))]
        leave = int(tied[np.argmin(basis[tied])])

        piv = tab[leave, enter]
        tab[leave, :] /= piv
        other = col.copy()
        other[leave] = 0.0
        tab -= np.outer(other, tab[leave, :])
        obj -= obj[enter] * tab[leave, :]
        basis[leave] = enter
    raise SolverStall(f"simplex did not terminate in {max_iter} pivots")


def solve_lp(lp: LinearProgram) -> LpResult:
    n = lp.n
    nx = n if lp.nonneg else 2 * n

    def expand(mat):
        return mat if lp.nonneg else np.hstack([mat, -mat])

    mi = lp.G.shape[0]
    me = 0 if lp.A_eq is None else lp.A_eq.shape[0]
    m = mi + me
    ncols = nx + mi + m  # structural + slacks + artificials

    tab = np.zeros((m, ncols + 1))
    if mi:
        tab[:mi, :nx] = expand(lp.G)
        tab[:mi, nx:nx + mi] = np.eye(mi)
        tab[:mi, -1] = lp.h
    if me:
        tab[mi:, :nx] = expand(lp.A_eq)
        tab[mi:, -1] = lp.b_eq
    neg = tab[:, -1] < 0
    tab[neg, :] *= -1.0
    art0 = nx + mi
    if m:
        tab[:, art0:art0 + m] = np.eye(m)
    basis = np.arange(art0, art0 + m)

    scale_b = 1.0 + (float(np.max(np.abs(tab[:, -1]))) if m else 0.0)
    tol_piv = 1e-9
    max_iter = 5000 + 30 * (m + ncols)

    # Phase 1: minimize the sum of artificials starting from that basis.
    obj = np.zeros(ncols + 1)
    obj[art0:art0 + m] = 1.0
    for i in range(m):
        obj -= tab[i, :]
    status = _pivot_loop(tab, obj, basis, art0, max_iter,
                         1e-9 * scale_b, tol_piv)
    phase1_val = -obj[-1]
    if status != OPTIMAL or phase1_val > 1e-7 * scale_b:
        return LpResult(INFEASIBLE, None, None)

    for i in range(m):
        if basis[i] >= art0:
            pivot_col = -1
            row = tab[i, :art0]
            hits = np.nonzero(np.abs(row) > tol_piv)[0]
            if hits.size:
                pivot_col = int(hits[0])
            if pivot_col < 0:
                basis[i] = -1  # redundant row, retire it
                tab[i, :] = 0.0
                continue
            piv = tab[i, pivot_col]
            tab[i, :] /= piv
            other = tab[:, pivot_col].copy()
            other[i] = 0.0
            tab -= np.outer(other, tab[i, :])
            basis[i] = pivot_col

    # Phase 2 on the real objective (converted to minimization).
    cost = np.zeros(ncols + 1)
    cost[:nx] = -lp.objective if lp.nonneg else np.concatenate(
        [-lp.objective, lp.objective])
    obj = cost.copy()
    for i in range(m):
        if basis[i] >= 0:
            obj -= cost[basis[i]] * tab[i, :]

    scale_c = 1.0 + float(np.max(np.abs(cost[:nx]), initial=0.0))
    status = _pivot_loop(tab, obj, basis, art0, max_iter,
                         1e-9 * scale_c, tol_piv)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, None, None)

    full = np.zeros(ncols)
    for i in range(m):
        if basis[i] >= 0:
            full[basis[i]] = tab[i, -1]
    xi = full[:nx]
    x = xi if lp.nonneg else xi[:n] - xi[n:]
    value = float(np.dot(lp.objective, x))
    return LpResult(OPTIMAL, x, value)


def support_h_polytope(G, h, direction) -> float:
    """Support function max{<x, u> : G x <= h}.

    Returns ``math.inf`` when the polyhedron is unbounded in the given
    direction and raises EmptyBody when it is infeasible.
    """
    direction = np.asarray(direction, dtype=float)
    res = solve_lp(LinearProgram(objective=direction, G=G, h=h))
    if res.status == INFEASIBLE:
        raise EmptyBody("support query over an empty polyhedron")
    if res.status == UNBOUNDED:
        return math.inf
    return res.value


@dataclass
class VertexWalk:
    """Where a batched vertex walk over {x : G x <= 1} stopped.

    Row j belongs to direction j. ``basis`` holds the n rows of G tight at
    the last vertex. Where ``ray`` is set the walk left that vertex along
    ``edge`` and met no row. When the first-vertex search found a line d
    inside the polyhedron there is no vertex: every direction u that rises
    along the line is a ray along sign(u.d) d, and no basis is set.
    """

    basis: np.ndarray
    ray: np.ndarray
    edge: np.ndarray


def _blocking(gd, slack, norms, dnorm, exclude):
    """Bland ratio test: (step, lowest blocking row) per edge; row -1 = none.

    ``gd`` and ``slack`` are (k, m) growth and slack of every row along k
    edges; rows in ``exclude`` (k, j) never block.
    """
    hits = gd > PIVOT_TOL * norms[None, :] * dnorm[:, None]
    hits[np.arange(gd.shape[0])[:, None], exclude] = False
    t = np.where(hits, slack / np.where(hits, gd, 1.0), np.inf)
    tmin = t.min(axis=1)
    tied = t <= tmin[:, None] + TIE_TOL * (1.0 + tmin[:, None])
    row = np.where(np.isfinite(tmin), np.argmax(tied, axis=1), -1)
    return tmin, row


def _first_vertex(G, norms):
    """A vertex of {x : G x <= 1} by ray-shooting from the origin.

    Each shot moves inside the face of the rows hit so far until one more
    row is tight. Returns (basis, None), or (None, d) when a null direction
    d of the hit rows is blocked neither way: the polyhedron holds a line.
    """
    n = G.shape[1]
    x = np.zeros(n)
    active = []
    for k in range(n):
        d = np.linalg.svd(G[active])[2][k] if active else np.eye(n)[0]
        slack = np.maximum(1.0 - G @ x, 0.0)[None, :]
        for sign in (1.0, -1.0):
            gd = (sign * (G @ d))[None, :]
            t, row = _blocking(gd, slack, norms, np.ones(1),
                               np.array([active], dtype=int))
            if row[0] >= 0:
                break
        else:
            return None, d
        x = x + t[0] * sign * d
        active.append(int(row[0]))
    return np.array(active), None


def vertex_walk(G, U, start=None) -> VertexWalk:
    """Maximize every row u of U over {x : G x <= 1}, all at once.

    A primal vertex walk per direction. Direction j starts at the basis
    ``start[j]`` when given, else all start at one vertex found by
    ``_first_vertex``. Each round solves the stacked bases for duals and
    vertices, lets the basis row with the most negative dual leave
    (Dantzig's rule, ties to the lowest row), and takes the lowest blocking
    row along the edge that opens. After a step of zero length the leaving
    row is the lowest one with a negative dual instead (Bland's rule), so a
    degenerate vertex cannot make the walk cycle. A direction stops at a
    nonnegative dual or on an edge no row blocks; after 50 (m + n) rounds,
    or at a singular basis, the walk gives up with SolverStall. The result
    is not trusted: ``walk_bases`` and ``check_support`` check it.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m, n = G.shape
    k = U.shape[0]
    norms = np.linalg.norm(G, axis=1)
    edge = np.zeros((k, n))
    ray = np.zeros(k, dtype=bool)
    if start is None:
        first, line = _first_vertex(G, norms)
        if line is not None:
            ud = U @ line
            ray = np.abs(ud) > (PIVOT_TOL * np.linalg.norm(U, axis=1)
                                * np.linalg.norm(line))
            edge[ray] = np.sign(ud[ray])[:, None] * line
            return VertexWalk(np.zeros((k, n), dtype=int), ray, edge)
        start = np.tile(first, (k, 1))
    max_rounds = 50 * (m + n)
    basis = np.array(start, dtype=int)
    bland = np.zeros(k, dtype=bool)
    live = np.arange(k)
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


def _solve(A, b):
    """np.linalg.solve for the walk, where a singular basis is a stall."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolverStall(f"vertex walk: a basis is singular: {exc}") from exc


def _with_box(U, n) -> np.ndarray:
    """The query directions: the rows of U, then +e_i, then -e_i."""
    return np.vstack([U, np.eye(n), -np.eye(n)])


def _upper_bounds(G, D, y) -> np.ndarray:
    """The one trusted support bound: for each row d of D, an upper bound on
    max{d.x : G x <= 1} from the duals y on rows of G.

    G is a stack of k row sets (k, r, n), one per direction, or one set of
    r rows (r, n) that every direction shares; the last 2n rows of D are
    +e_i, then -e_i. With y+ = max(y, 0) each direction gets

        hi = (sum y+ + |d - G^T y+|_1 M)(1 + 4(r+2)eps),

    with the dot-product rounding bound added to the residual, where
    M >= max |x|_inf over the polyhedron comes from the same bound on the
    coordinate directions. By weak duality hi is an upper bound for any y,
    so a wrong dual can only widen it. Raises SolverStall when the
    coordinate residual bounds no box.
    """
    r, n = G.shape[-2:]
    yp = np.maximum(y, 0.0)
    if G.ndim == 3:
        back = np.einsum("kij,ki->kj", G, yp)
        mass = np.einsum("kij,ki->kj", np.abs(G), yp)
    else:
        back, mass = yp @ G, yp @ np.abs(G)
    rounding = (r + 1) * EPS * (np.abs(D) + mass)
    resid = (np.abs(D - back) + rounding).sum(axis=1)
    total = yp.sum(axis=1)
    allow = 1.0 + 4 * (r + 2) * EPS
    rho = resid[-2 * n:].max() * allow
    if not rho < 1.0:
        raise SolverStall(f"support check: coordinate residual {rho:.3e} "
                          "bounds no box")
    box = total[-2 * n:].max() * allow / (1.0 - rho) * allow
    return (total + resid * box) * allow


def dual_bounds(G, U) -> np.ndarray:
    """Checked upper bounds on max{u.x : G x <= 1}, one per row u of U,
    each from one closed-form dual and no walk.

    Let A = G^T G, w = A^-1 u and y = G w, so that G^T y = u. When the rows
    of G come in pairs +-g (the polyhedron is centrally symmetric), moving
    every negative entry of y to the opposite row gives the dual 2 y+ >= 0
    with G^T (2 y+) = u and value sum |y|: Cauchy-Schwarz on a
    decomposition of the identity, one direction at a time. The bounds are
    ``_upper_bounds`` of the duals 2y, with the box from the same duals of
    +-e_i, so they hold for any G; without the pairs the residual widens
    them. One n x n solve and one product serve every direction. Raises
    SolverStall when A is singular, which for a symmetric G means that the
    polyhedron holds a line.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n = G.shape[1]
    D = _with_box(np.atleast_2d(np.asarray(U, dtype=float)), n)
    try:
        w = np.linalg.solve(G.T @ G, D.T)
    except np.linalg.LinAlgError as exc:
        raise SolverStall(f"dual bound: G^T G is singular: {exc}") from exc
    return _upper_bounds(G, D, 2.0 * (G @ w).T)[:-2 * n]


def check_support(G, U, bases) -> float:
    """Certified upper bound on max over rows u of U of max{u.x : G x <= 1}.

    ``bases`` holds n row indices of G for each direction: the rows of U,
    then +e_i, then -e_i. They are not trusted. From one stacked solve of
    G_B^T y = u and one of G_B x = 1, only these checks are:

    * lo = max u.x / max(1, max G x) over the bases' vertices x, each
      scaled into the polyhedron;
    * hi = ``_upper_bounds`` of the duals y on the basis rows G_B, so a
      wrong basis can only widen the bracket.

    Returns max hi over U (-inf when U has no rows). Raises SolverStall when
    the bases do not name n distinct rows of G per direction, a basis is
    singular, or hi and lo of some direction differ by more than GAP_TOL.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    m, n = G.shape
    D = _with_box(np.atleast_2d(np.asarray(U, dtype=float)), n)
    k = D.shape[0] - 2 * n
    bases = np.asarray(bases)
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
    hi = _upper_bounds(GB, D, y)
    scale = np.maximum(1.0, (x @ G.T).max(axis=1))
    lo = (D @ (x / scale[:, None]).T).max(axis=1)
    gap = hi - lo
    worst = int(np.argmax(gap / (1.0 + np.abs(hi))))
    if not gap[worst] <= GAP_TOL * (1.0 + abs(hi[worst])):
        raise SolverStall(f"support check: direction {worst} bracketed in "
                          f"[{lo[worst]:.12g}, {hi[worst]:.12g}]")
    return float(hi[:k].max(initial=-math.inf))


def walk_bases(G, U, symmetric=False):
    """The rows of U that ``vertex_walk`` walks, and the bases it proposes
    for them and for +-e_i, for ``check_support`` to check; None when the
    polyhedron is unbounded.

    The box directions +-e_i are walked first, and only that walk is asked
    about rays. Where it stops on one, only this is checked: every claimed
    ray d rises (e.d > 0) and stays (G d <= 0), each to PIVOT_TOL relative
    (a line is a ray along each sign, so it passes only when G d = 0), and
    then None is returned with no row of U walked. Raises SolverStall when
    that witness fails.

    Otherwise every row u of U gets a bound beta_u: ``dual_bounds`` when
    ``symmetric`` (the rows of G come in pairs +-g), else +inf. The
    WALK_FIRST rows with the largest beta, ties included, are walked, and L
    is the largest of their supports at their own vertices scaled into the
    polyhedron. Then every other row with beta_u > L is walked; the support
    of the rest is at most beta_u <= L. With every beta infinite all rows
    are walked at once. Each walk starts from the box basis whose vertex
    maximizes u.x. A row whose walk claims a ray keeps the basis it
    stopped at, for ``check_support`` to reject on replay.

    Returns (directions, bases): the strictly increasing indices of the
    walked rows of U, and n row indices of G for each of them, then for
    +e_i, then for -e_i.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    k, n = U.shape[0], G.shape[1]
    axes = _with_box(U[:0], n)
    box = vertex_walk(G, axes)
    if box.ray.any():
        e = box.edge[box.ray]
        enorm = np.linalg.norm(e, axis=1)
        rises = np.einsum("ij,ij->i", axes[box.ray], e) > PIVOT_TOL * enorm
        stays = np.max((e @ G.T) / (np.linalg.norm(G, axis=1)[None, :]
                                    * enorm[:, None]), axis=1) <= PIVOT_TOL
        if not np.all(rises & stays):
            raise SolverStall("vertex walk: claimed ray is not a recession "
                              "direction")
        return None
    if not k:
        return np.zeros(0, dtype=int), box.basis
    corners = _solve(G[box.basis], np.ones((2 * n, n, 1)))[:, :, 0]
    start = box.basis[np.argmax(U @ corners.T, axis=1)]
    beta = dual_bounds(G, U) if symmetric else np.full(k, math.inf)
    walked = beta >= np.sort(beta)[-min(WALK_FIRST, k)]
    bases = np.zeros((k, n), dtype=int)
    bases[walked] = vertex_walk(G, U[walked], start=start[walked]).basis
    rest = ~walked
    if rest.any():
        x = _solve(G[bases[walked]], np.ones((walked.sum(), n, 1)))[:, :, 0]
        lo = (np.einsum("ij,ij->i", U[walked], x)
              / np.maximum(1.0, (x @ G.T).max(axis=1)))
        rest &= beta > lo.max()
    if rest.any():
        bases[rest] = vertex_walk(G, U[rest], start=start[rest]).basis
        walked |= rest
    return np.flatnonzero(walked), np.vstack([bases[walked], box.basis])
