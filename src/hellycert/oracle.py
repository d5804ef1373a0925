"""Brute-force ground truth and instance generators, desk scale only.

Vertex enumeration solves every n-subset of constraints as a linear system
and filters by feasibility. That is exponential and proudly so: at the
enforced caps it is trivially correct, which makes it the trust anchor the
LP and selection code is tested against. Each basis is factored once: a
chunk of subsets is solved in one batch, the subsets holding two rows equal
up to sign (singular by construction) dropped by index first, and only the
kept solutions face the determinant test; a chunk LAPACK still refuses is
redone with that test first. One pass serves a system and every system
left when the rows of one body are dropped, which is how ``reduce_to_2n``
prices the drops of a greedy step: a basic solution is a vertex of the
system without body j when no row of its basis is j's and every row it
violates is. The enumeration decides nothing about boundedness.
``is_bounded`` alone does, through ``lp.walk_bases``: the closed-form box
of ``lp.box_bound`` first, the box walk only where that is undecided, so
"unbounded" is always a checked ray. ``enumerate_vertices`` asks it once,
up front; ``cheapest_drop`` asks it of the whole and then of the drops in
increasing radius, up to the first bounded one.
Also hosts the seeded generators for slab families, halfspace families
(checked by ``is_bounded``) and the sharp two-ball instances, whose 2B
inclusion is one covering test, no oracle call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (InvalidInstance, OracleTooLarge, SharpnessGenFailed,
                     UnboundedBody)
# containment_factor has no caller here; perfbench's import-site test
# pins it as an oracle attribute until ROADMAP item 1 unpins it
from .geometry import BodyFamily, containment_factor  # noqa: F401
from .lp import check_support, walk_bases

MAX_DIM = 6
MAX_CONSTRAINTS = 40
MAX_CONSTRAINTS_PLANAR = 8192
FEAS_TOL = 1e-8
MERGE_TOL = 1e-7
_CHUNK = 8192
# caps of the sharpness generator's covering test, not of the vertex oracle
COVER_MAX_DIM = 6
COVER_MAX_SLABS = 4096
# boxes the covering test may open before it gives up (answers False)
COVER_MAX_BOXES = 2_000_000


def check_caps(m: int, n: int) -> None:
    """Raise OracleTooLarge when m constraints in dimension n are over the
    vertex-enumeration caps."""
    if n > MAX_DIM:
        raise OracleTooLarge(f"dimension {n} exceeds oracle cap {MAX_DIM}")
    limit = MAX_CONSTRAINTS_PLANAR if n == 2 else MAX_CONSTRAINTS
    if m > limit:
        raise OracleTooLarge(
            f"{m} constraints exceed oracle cap {limit} in dimension {n}")


def is_bounded(G) -> bool:
    """Whether {x : G x <= h} is bounded for every h where it is nonempty.

    That holds exactly when the recession cone {d : G d <= 0} is {0}, which
    does not depend on h, so ``lp.walk_bases`` asks it of {x : G x <= 1}
    with no direction: "yes" from the closed-form ``lp.box_bound``, else by
    the +-e_i walk, "no" from its checked ray and "yes" once
    ``check_support`` accepts its bases (SolverStall otherwise).
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    walk = walk_bases(G, G[:0])
    if walk is not None and len(walk[1]):
        check_support(G, G[:0], walk[1], None)
    return walk is not None


def _first_kept(X):
    """The rows of X left when each one within MERGE_TOL of an earlier kept
    row is merged into it (NaN counts as near), walking in row order: each
    kept row drops every later row near it."""
    keep = np.ones(len(X), dtype=bool)
    for i, x in enumerate(X):
        if keep[i]:
            keep[i + 1:] &= np.linalg.norm(X[i + 1:] - x, axis=1) > MERGE_TOL
    return keep


def _nonsingular(bases):
    """Whether |det B| > 1e-12 (||B||_F + 1)^n, basis by basis."""
    return np.abs(np.linalg.det(bases)) > 1e-12 * (
        np.linalg.norm(bases, axis=(1, 2)) + 1.0) ** bases.shape[-1]


def _vertex_sets(G, h, owner=None):
    """(X, member): the basic solutions of {x : G x <= h} that violate the
    rows of at most one body, in the order found, and member[t, c], whether
    X[t] is a vertex of system c. Column 0 is the whole system; when
    ``owner`` names the body of every row, column 1 + j is the system without
    the j-th body's rows, bodies in increasing order. One pass over the
    n-subsets of G serves them all.

    A basic solution x of the rows B is a vertex of the system without body
    j when no row of B is j's and every row that x violates (past FEAS_TOL)
    is j's. The n-subsets are unranked in lexicographic order, in chunks of
    at most _CHUNK; each chunk is solved in one batch and ``_nonsingular``
    is asked only of the solutions kept. Rows equal up to sign (twins, as in
    every slab family; only a repeat in |G c| makes them looked for) make
    exactly singular bases, so a subset holding two twins is dropped by
    index first. A chunk LAPACK still refuses asks ``_nonsingular`` first
    and solves what passes. Every test acts row by row, so X is the same
    to the bit either way. The caller checks the caps, asks ``is_bounded``
    and merges near-duplicates where it needs to.
    """
    m, n = G.shape
    drops = owner is not None
    owner = (np.unique(owner, return_inverse=True)[1] if drops
             else np.zeros(m, dtype=np.intp))
    feas = FEAS_TOL * np.maximum(1.0, np.abs(h))
    # twin classes (rows equal up to sign); twins always repeat in |G c|
    twin = None
    if len(np.unique(np.abs(G @ np.sqrt(np.arange(2.0, n + 2))))) < m:
        sign = np.sign(G[np.arange(m), np.argmax(G != 0, axis=1)])
        twin = np.unique(G * sign[:, None], axis=0,
                         return_inverse=True)[1].reshape(-1)
        lo, hi = np.triu_indices(n, 1)  # each pair of positions in a basis
    # the subset of lexicographic rank r has digits d_i = m - 1 - idx_i with
    # sum_i C(d_i, n - i) = C(m, n) - 1 - r, each the largest d that fits
    tables = [np.array([math.comb(d, k) for d in range(m)], dtype=np.int64)
              for k in range(n, 0, -1)]
    total = math.comb(m, n)
    found_idx, found_x, found_body = [], [], []
    for start in range(0, total, _CHUNK):
        rest = total - 1 - np.arange(start, min(start + _CHUNK, total),
                                     dtype=np.int64)
        idx = np.empty((len(rest), n), dtype=np.intp)
        for i, table in enumerate(tables):
            d = np.searchsorted(table, rest, side="right") - 1
            rest -= table[d]
            idx[:, i] = m - 1 - d
        if twin is not None:
            idx = idx[~(twin[idx[:, lo]] == twin[idx[:, hi]]).any(axis=1)]
        bases = G[idx]
        try:
            xs = np.linalg.solve(bases, h[idx][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # exactly singular without twins: solve what a nonzero det passes
            good = _nonsingular(bases)
            idx, bases = idx[good], bases[good]
            xs = np.linalg.solve(bases, h[idx][:, :, None])[:, :, 0]
        out = ~(xs @ G.T <= h + feas)
        body = np.full(len(idx), -1)
        if drops:
            hit = out.any(axis=1)
            body[hit] = owner[np.argmax(out[hit], axis=1)]
            keep = ~(out & (owner != body[:, None])).any(axis=1)
        else:
            keep = ~out.any(axis=1)
        keep[keep] = _nonsingular(bases[keep])
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


def enumerate_vertices(G, h) -> np.ndarray:
    """All vertices of {x : Gx <= h} by n-subset basis solving, as rows in
    lexicographic order.

    Raises OracleTooLarge beyond the caps and UnboundedBody when the
    polyhedron is unbounded (the enumeration itself assumes a polytope),
    which ``is_bounded`` decides before any subset is solved. Vertices
    within MERGE_TOL merge in one forward pass, the first one found kept.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    m, n = G.shape
    check_caps(m, n)
    if m < n:
        raise UnboundedBody(f"{m} constraints cannot bound dimension {n}")
    if not is_bounded(G):
        raise UnboundedBody(f"{m} constraints leave a recession direction "
                            f"in dimension {n}")
    X = _vertex_sets(G, h)[0]
    kept = X[_first_kept(X)]
    if not len(kept):
        raise UnboundedBody("no vertex found; polyhedron empty or degenerate")
    return kept[np.lexsort(kept.T[::-1])]


def diameter_exact(G, h) -> float:
    """Max pairwise vertex distance (attained at vertices for polytopes)."""
    vs = enumerate_vertices(G, h)
    diffs = vs[:, None, :] - vs[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2).max()))


def circumradius_exact(G, h) -> float:
    """Max vertex norm, i.e. the radius seen from the origin.
    ``cheapest_drop`` gives it together with the least radius a one-body
    drop leaves, from the same enumeration."""
    vs = enumerate_vertices(G, h)
    return float(np.linalg.norm(vs, axis=1).max())


def cheapest_drop(G, h, owner):
    """(radius, body, body_radius): ``circumradius_exact`` of
    {x : G x <= h}, and the body of ``owner`` whose rows leave the least
    radius when dropped, with that radius, all from one enumeration.

    Each radius is the largest vertex norm of its system, +inf without a
    vertex, and the whole's is +inf when ``is_bounded`` refuses it. The
    drops are asked ``is_bounded`` in increasing radius, ties to the lower
    body, and the first bounded one is returned. body is None (at +inf)
    when none is, as when the whole is unbounded; for a bounded whole of
    more than 2n bodies that happens only through rounding (Steinitz), and
    ``pipeline.reduce_to_2n`` then stops with SolverStall. Raises
    OracleTooLarge beyond the caps.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    check_caps(*G.shape)
    if not is_bounded(G):
        return math.inf, None, math.inf
    X, member = _vertex_sets(G, h, owner)
    radii = np.where(member, np.linalg.norm(X, axis=1)[:, None],
                     -1.0).max(axis=0, initial=-1.0)
    radii[radii < 0.0] = math.inf
    bodies = np.unique(owner)
    for c in np.argsort(radii[1:], kind="stable"):
        if math.isinf(radii[1 + c]):
            break
        if is_bounded(G[owner != bodies[c]]):
            return float(radii[0]), int(bodies[c]), float(radii[1 + c])
    return float(radii[0]), None, math.inf


def _require_sizes(**sizes) -> None:
    """Raise InvalidInstance for a generator size below 1, before any draw."""
    for name, value in sizes.items():
        if value < 1:
            raise InvalidInstance(f"{name}={value} is below 1")


def _unit_rows(rng, count: int, n: int) -> np.ndarray:
    raw = rng.standard_normal((count, n))
    norms = np.linalg.norm(raw, axis=1)
    while (norms < 1e-9).any():
        bad = norms < 1e-9
        raw[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None]


def _covering_certified(W: np.ndarray, tau: float) -> bool:
    """Sound certificate that min over unit u of max_j |<u, w_j>| >= tau.

    Branch-and-bound over the cube facets {u_i = 1}; on each box the
    per-row inner product range gives a lower bound for max_j |.| and the
    box corner norms an upper bound for ||u||. False means "more than
    COVER_MAX_BOXES boxes, or margin too thin", or disproved by an open
    box's centre u, with max_j |<u, w_j>| < tau ||u||: no split would ever
    close its box.
    """
    n = W.shape[1]
    processed = 0
    for face in range(n):
        others = [k for k in range(n) if k != face]
        Wf = W[:, face]
        Wo = W[:, others]
        lo = np.full((1, n - 1), -1.0)
        hi = np.full((1, n - 1), 1.0)
        while lo.shape[0]:
            processed += lo.shape[0]
            if processed > COVER_MAX_BOXES:
                return False
            lo_e = lo[:, None, :]
            hi_e = hi[:, None, :]
            prod_lo = np.minimum(Wo[None, :, :] * lo_e,
                                 Wo[None, :, :] * hi_e).sum(axis=2) + Wf
            prod_hi = np.maximum(Wo[None, :, :] * lo_e,
                                 Wo[None, :, :] * hi_e).sum(axis=2) + Wf
            lb_abs = np.maximum(0.0, np.maximum(prod_lo, -prod_hi)).max(axis=1)
            ub_norm = np.sqrt(1.0 + np.maximum(lo ** 2, hi ** 2).sum(axis=1))
            open_mask = lb_abs < tau * ub_norm * (1.0 + 1e-9)
            if not open_mask.any():
                break
            lo, hi = lo[open_mask], hi[open_mask]
            mid = (lo + hi) / 2.0
            if (np.abs(mid @ Wo.T + Wf).max(axis=1)
                    < tau * np.sqrt(1.0 + (mid ** 2).sum(axis=1))).any():
                return False
            split = np.argmax(hi - lo, axis=1)
            at = np.arange(lo.shape[0]), split
            lo2 = lo.copy()
            hi2 = hi.copy()
            lo2[at] = hi2[at] = mid[at]
            lo = np.vstack([lo, lo2])
            hi = np.vstack([hi2, hi])
    return True


def gen_sharpness_instance(n: int, N: int, seed: int) -> BodyFamily:
    """N random unit slabs whose intersection provably sits inside 2B.

    The unit ball is inside every slab by construction; the radius along a
    unit u is 1 / max_j |<u, w_j>|, so ``_covering_certified(W, 0.5)`` is
    the outer inclusion in every dimension, resampling up to 20 times.
    Fewer than n slabs always leave a line in the intersection, so that
    fails at once; a draw whose normals span less than R^n is resampled
    without running the certificate. Past COVER_MAX_DIM or COVER_MAX_SLABS
    the covering test's cost raises OracleTooLarge before any draw.
    """
    _require_sizes(n=n, N=N)
    if n > COVER_MAX_DIM:
        raise OracleTooLarge(
            f"covering test: dimension {n} exceeds cap {COVER_MAX_DIM} (its "
            "boxes of directions multiply with every dimension)")
    if N > COVER_MAX_SLABS:
        raise OracleTooLarge(
            f"covering test: {N} slabs exceed cap {COVER_MAX_SLABS} (every "
            "box costs one bound per slab)")
    if N < n:
        raise SharpnessGenFailed(
            f"{N} slabs cannot bound dimension {n}; the intersection "
            "contains a line")
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        W = _unit_rows(rng, N, n)
        if np.linalg.matrix_rank(W) < n:
            continue  # a line survives; resample without certifying
        if _covering_certified(W, 0.5):
            return BodyFamily.from_blocks(
                "symmetric", n, W[:, None, :], [f"slab{j}" for j in range(N)])
    raise SharpnessGenFailed(f"no draw with n={n}, N={N} certified inside 2B "
                             "(covering at 0.5) in 20 attempts")


def gen_slab_family(n: int, count: int, seed: int) -> BodyFamily:
    """Seeded family of symmetric slab bodies, 1 to 3 slabs each."""
    _require_sizes(n=n, count=count)
    rng = np.random.default_rng(seed)
    blocks = []
    for j in range(count):
        k = int(rng.integers(1, 4))
        dirs = _unit_rows(rng, k, n)
        widths = rng.uniform(0.5, 2.0, size=k)
        blocks.append(dirs / widths[:, None])
    return BodyFamily.from_blocks("symmetric", n, blocks,
                                  [f"s{j}" for j in range(count)])


def gen_halfspace_family(n: int, count: int, seed: int,
                         margin: float = 0.1,
                         rows_per_body: tuple | None = None) -> BodyFamily:
    """Seeded family of halfspace bodies with a shared interior ball.

    Every halfspace keeps the ball of the given radius around a common
    (hidden, nonzero) point, and the family intersection is bounded; the
    construction resamples until a boundedness check passes.
    """
    _require_sizes(n=n, count=count)
    if not math.isfinite(margin):
        raise InvalidInstance(f"margin={margin!r} is not finite")
    lo_rows, hi_rows = rows_per_body or (n + 1, 2 * n + 1)
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        center = rng.uniform(-0.5, 0.5, size=n)
        # offsets below this keep every c positive, as the file format wants;
        # the center's norm grows like sqrt(n / 12), so from about n = 24
        # off_lo can pass 1.5, and the draw then takes [off_lo, off_lo + 1]
        off_lo = max(margin, float(np.linalg.norm(center)) + 0.05)
        off_hi = 1.5 if off_lo <= 1.5 else off_lo + 1.0
        blocks = []
        for j in range(count):
            k = int(rng.integers(lo_rows, hi_rows + 1))
            normals = _unit_rows(rng, k, n)
            offsets = normals @ center + rng.uniform(off_lo, off_hi, size=k)
            blocks.append((normals, offsets))
        family = BodyFamily.from_blocks("general", n, blocks,
                                        [f"h{j}" for j in range(count)])
        if is_bounded(family.G):
            return family
    raise InvalidInstance(
        f"could not generate a bounded halfspace family (n={n}, "
        f"count={count}, seed={seed})")
