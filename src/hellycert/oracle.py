"""Brute-force ground truth and instance generators, desk scale only.

Vertex enumeration solves every n-subset of constraints as a linear system
and filters by feasibility. That is exponential and proudly so: at the
enforced caps it is trivially correct, which makes it the trust anchor the
LP and selection code is tested against. Also hosts the seeded generators
for slab families, halfspace families and the sharp two-ball instances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (InvalidInstance, OracleTooLarge, SharpnessGenFailed,
                     UnboundedBody)
from .geometry import BodyFamily, containment_bases, containment_factor
from .lp import check_support, walk_bases

MAX_DIM = 6
MAX_CONSTRAINTS = 40
MAX_CONSTRAINTS_PLANAR = 8192
MAX_SUBSETS = 200_000
FEAS_TOL = 1e-8
MERGE_TOL = 1e-7
_CHUNK = 8192


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

    That holds exactly when the recession cone {d : G d <= 0} is {0}. The
    cone does not depend on h, so one vertex walk over {x : G x <= 1},
    which holds the origin, in the directions +-e_i decides it: a checked
    ray says no, and ``check_support`` replaying the +e_i bases as those
    of U = I says yes.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n = G.shape[1]
    try:
        box = walk_bases(G, np.zeros((0, n)))[1]
    except UnboundedBody:
        return False
    return math.isfinite(check_support(G, np.eye(n),
                                       np.concatenate([box[:n], box])))


def enumerate_vertices(G, h) -> np.ndarray:
    """All vertices of {x : Gx <= h} by n-subset basis solving, as rows in
    lexicographic order.

    Raises OracleTooLarge beyond the caps and UnboundedBody when the
    polyhedron is unbounded (the enumeration itself assumes a polytope).
    Near-duplicate vertices are merged, the first one found kept.
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

    feas = FEAS_TOL * np.maximum(1.0, np.abs(h))
    verts = []
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
        try:
            xs = np.linalg.solve(bases[good], h[idx][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            xs = np.stack([np.linalg.lstsq(bases[good][i], h[idx[i]],
                                           rcond=None)[0]
                           for i in range(idx.shape[0])])
        verts.extend(xs[np.all(xs @ G.T <= h + feas, axis=1)])

    kept = []
    for row in verts:
        if all(np.linalg.norm(row - kv) > MERGE_TOL for kv in kept):
            kept.append(row)
    if not kept:
        raise UnboundedBody("no vertex found; polyhedron empty or degenerate")
    kept = np.array(kept)
    return kept[np.lexsort(kept.T[::-1])]


def diameter_exact(G, h) -> float:
    """Max pairwise vertex distance (attained at vertices for polytopes)."""
    vs = enumerate_vertices(G, h)
    diffs = vs[:, None, :] - vs[None, :, :]
    return float(np.sqrt((diffs ** 2).sum(axis=2).max()))


def circumradius_exact(G, h) -> float:
    """Max vertex norm, i.e. the radius seen from the origin."""
    vs = enumerate_vertices(G, h)
    return float(np.linalg.norm(vs, axis=1).max())


def best_subset_bruteforce(family: BodyFamily, s: int):
    """Exact minimum containment factor over all size-s subfamilies, each
    walked by ``containment_bases`` and replayed by ``containment_factor``
    as a producer's is."""
    k = len(family)
    if s > k:
        raise ValueError(f"subset size {s} exceeds family size {k}")
    total = math.comb(k, s)
    if total > MAX_SUBSETS:
        raise OracleTooLarge(
            f"binom({k},{s}) = {total} subsets exceed cap {MAX_SUBSETS}")
    best_alpha = math.inf
    best = None
    for combo in itertools.combinations(range(k), s):
        alpha = containment_factor(family, combo,
                                   containment_bases(family, combo))
        if alpha < best_alpha - 1e-15:
            best_alpha = alpha
            best = combo
    return best_alpha, best


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


def _covering_certified(W: np.ndarray, tau: float,
                        budget: int = 2_000_000) -> bool:
    """Sound certificate that min over unit u of max_j |<u, w_j>| >= tau.

    Branch-and-bound over the cube facets {u_i = 1}; on each box the
    per-row inner product range gives a lower bound for max_j |.| and the
    box corner norms an upper bound for ||u||. False only means "budget
    exhausted or margin too thin", never that the property is false.
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
            if processed > budget:
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
            widths = hi - lo
            split = np.argmax(widths, axis=1)
            mid = (lo[np.arange(lo.shape[0]), split]
                   + hi[np.arange(lo.shape[0]), split]) / 2.0
            lo2 = lo.copy()
            hi2 = hi.copy()
            lo2[np.arange(lo.shape[0]), split] = mid
            hi2[np.arange(lo.shape[0]), split] = mid
            lo = np.vstack([lo, lo2])
            hi = np.vstack([hi2, hi])
    return True


def gen_sharpness_instance(n: int, N: int, seed: int) -> BodyFamily:
    """N random unit slabs whose intersection provably sits inside 2B.

    The unit ball is inside every slab by construction; the outer inclusion
    is verified (planar instances by exact circumradius, higher dimensions
    by a covering certificate), resampling up to 20 times before giving up.
    Fewer than n slabs always leave a line in the intersection, so that
    fails at once; a draw whose normals span less than R^n is resampled
    without running the certificate.
    """
    _require_sizes(n=n, N=N)
    if n > MAX_DIM:
        raise OracleTooLarge(f"dimension {n} exceeds oracle cap {MAX_DIM}")
    if N > 4096:
        raise OracleTooLarge(f"slab count {N} exceeds cap 4096")
    if N < n:
        raise SharpnessGenFailed(
            f"{N} slabs cannot bound dimension {n}; the intersection "
            "contains a line")
    achieved = math.inf
    for attempt in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        W = _unit_rows(rng, N, n)
        if np.linalg.matrix_rank(W) < n:
            continue  # a line survives; resample without certifying
        family = BodyFamily.from_blocks(
            "symmetric", n, W[:, None, :], [f"slab{j}" for j in range(N)])
        if n == 2:
            try:
                achieved = circumradius_exact(family.G, family.h)
            except UnboundedBody:
                achieved = math.inf
            if achieved <= 2.0:
                return family
        else:
            if _covering_certified(W, 0.5):
                return family
    raise SharpnessGenFailed(
        f"no instance with n={n}, N={N} verified after 20 attempts "
        f"(last achieved circumradius {achieved:.4g})")


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
