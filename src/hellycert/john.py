"""Minimum-volume enclosing ellipsoids and John decompositions.

The MVEE solver maximises log det of the dual moment matrix. It runs the
classic Khachiyan coordinate ascent with Todd-Yildirim away/drop steps, so
that complementary slackness also converges (plain ascent only controls the
containment side); an away step is an ascent step with a negative weight,
so both are one signed rank-one update. A cold solve starts on a core set
of n points (Kumar-Yildirim), so the ascent adds the few points it needs
instead of dropping nearly all of them. The ascent converges linearly and
can stall when a point sits just inside the ellipsoid, so once both gaps
are small it tries Newton's method on the optimality conditions over the
current support. The next try waits for a new support and for the gap to
fall to half the gap at the last try, so an ascent that stalls while its
support keeps changing does not try at every change. Newton's weights are
kept only when they lower the gap,
and the only exit is a two-sided gap check on freshly computed numbers, so
neither the ascent nor the Newton finish, nor the core set, has to be
trusted. A solve can start from the weights of an earlier, nearby solve
(a start whose support does not span the space is ignored); converged
start weights return after that check. ``pipeline._recenter`` starts every
trial translate's solve, and the John solve after it, from the accepted
translate's weights; a cold solve tests the span once, on the uniform
weights. The span test only picks where the ascent starts, and the frame
(the shape's square root) is a claim ``io.check`` derives the witnesses
from, so both read LAPACK's eigenvalues without a residual check. Dual
weights of the solved problem directly supply John decomposition weights
after mapping to Loewner position, which is why no separate extraction
problem is solved: the ellipsoid's center and shape come from the same
weights, so the identity holds by construction, and the barycenter is off
by O(n) times the MVEE gap (``EPS_MVEE_DEFAULT``, or ``mvee_general``'s
``eps_mvee``). The residual checks that follow decide whether the result
is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpan, JohnExtractionFailed

EPS_MVEE_DEFAULT = 1e-8
TOL_JOHN_DEFAULT = 1e-5
# Newton is tried once both ascent gaps are at most NEWTON_GAP; each later
# try waits for a new support and for the gap to fall to half the gap at
# the last try (without the halving, the recentering MVEE of a general
# 16-dimensional family tried 53 times, with it 9 times). One try takes at
# most NEWTON_STEPS steps, each a least-squares solve whose singular
# values below NEWTON_RCOND (relative) are cut. With 5 steps the
# 6-dimensional slab families need 60% more ascent steps; from 30 on, the
# ascent step counts of 20- and 30-dimensional slab families level off.
NEWTON_GAP = 1e-2
NEWTON_STEPS = 30
NEWTON_RCOND = 1e-12
# the ascent raises JohnExtractionFailed after this many steps
MVEE_MAX_STEPS = 500_000


@dataclass(frozen=True)
class Ellipsoid:
    """{x : (x - center)^T shape (x - center) <= 1}"""

    center: np.ndarray
    shape: np.ndarray


@dataclass(frozen=True)
class JohnDecomposition:
    """Unit contact vectors v_j and weights a_j with sum a_j v_j v_j^T = I;
    v_j is row source_indices[j] of (points - frame_center) @ frame, scaled
    to norm 1. The frame map sends the MVEE to the unit ball."""

    vectors: np.ndarray
    weights: np.ndarray
    frame: np.ndarray
    frame_center: np.ndarray
    residual_identity: float
    residual_barycenter: float
    source_indices: np.ndarray


def _newton_weights(pts, u):
    """Newton's method on kappa_i(u) = n over the support S = {u > 0}.

    The Jacobian of kappa_S in u_S is -(K o K) with K = P_S X^-1 P_S^T. The
    step is a least-squares solve, since twin rows p, +-p (in symmetric mode,
    only slabs sharing a vector) make K o K singular, and a ratio test sends
    a weight that would turn negative to 0, which takes it out of S. Returns
    the weights, or None when a step cannot be computed; the caller checks.
    """
    n = pts.shape[1]
    u = u.copy()
    try:
        for _ in range(NEWTON_STEPS):
            S = np.nonzero(u > 0.0)[0]
            P = pts[S]
            X = P.T @ (P * u[S, None])
            K = P @ np.linalg.inv((X + X.T) / 2.0) @ P.T
            r = np.diagonal(K) - n
            if np.max(np.abs(r)) <= 1e-14 * n:
                break
            step = np.linalg.lstsq(K * K, r, rcond=NEWTON_RCOND)[0]
            neg = step < 0.0
            ratios = -u[S][neg] / step[neg]
            t = min(1.0, float(ratios.min())) if ratios.size else 1.0
            new = np.maximum(u[S] + t * step, 0.0)
            if t < 1.0:
                new[np.nonzero(neg)[0][np.argmin(ratios)]] = 0.0
            u[S] = new
            u /= u.sum()
    except np.linalg.LinAlgError:
        return None
    return u


def _fresh_state(pts, u):
    """(X^-1, kappa, larger of the two gaps) computed afresh at weights u."""
    n = pts.shape[1]
    X = pts.T @ (pts * u[:, None])
    Xinv = np.linalg.inv((X + X.T) / 2.0)
    kappa = np.einsum("ij,ij->i", pts @ Xinv, pts)
    return Xinv, kappa, max(kappa.max() / n - 1.0,
                            1.0 - kappa[u > 0.0].min() / n)


def _signed_step(pts, u, Xinv, kappa, j, t, drop):
    """(u, X^-1, kappa) after u <- (1 - t) u + t e_j.

    t > 0 moves weight onto point j (Khachiyan's ascent step), t < 0 takes
    it off (Todd-Yildirim's away step). ``drop`` sets u_j to 0, where the
    largest away step, t = -u_j / (1 - u_j), leaves it up to rounding.
    X^-1 and kappa follow by Sherman-Morrison, so they drift from the
    fresh values.
    """
    y = Xinv @ pts[j]
    z = pts @ y
    beta = t / ((1.0 - t) ** 2 * (1.0 + t * kappa[j] / (1.0 - t)))
    u = u * (1.0 - t)
    u[j] = 0.0 if drop else max(u[j] + t, 0.0)
    return (u, Xinv / (1.0 - t) - beta * (y[:, None] * y),
            kappa / (1.0 - t) - beta * z * z)


def _spans(pts, u) -> bool:
    """Whether the rows of pts weighted by u >= 0 span the space: the
    moment matrix's eigenvalue ratio is above 1e-12.

    The answer only picks the untrusted ascent's first weights, and no
    certificate reports these eigenvalues, so LAPACK's ``eigvalsh`` gives
    them without ``sym_eigen``'s residual check.
    """
    X = pts.T @ (pts * u[:, None])
    lam = np.linalg.eigvalsh((X + X.T) / 2.0)
    return lam[0] > 1e-12 * max(lam[-1], 1e-300)


def _centered_mvee_weights(pts, eps, start=None):
    """Dual weights of the centered MVEE of the rows of pts.

    Runs Khachiyan ascent with away/drop steps, and Newton steps on the
    support once both gaps are at most NEWTON_GAP (again only on a new
    support at half the last try's gap), until the two-sided gap
    max kappa/n - 1 <= eps and 1 - min-support kappa/n <= eps holds, where
    kappa_k = x_k^T X(u)^{-1} x_k. Sign of the points is irrelevant.
    ``start`` gives the first weights when they pass ``_spans``; a start
    that does not (all zero, say) is ignored. Without one the solve starts
    cold, after a single ``_spans`` test: the input points must pass it at
    uniform weights, and the first weights are uniform on a core set of n
    rows: pivoted Gram-Schmidt picks the row of largest residual norm
    (lowest index on ties) and projects it out.
    """
    pts = np.asarray(pts, dtype=float)
    m, n = pts.shape
    if m < n:
        raise DegenerateSpan(f"{m} points cannot span dimension {n}")
    u = None if start is None else np.maximum(start, 0.0)
    if u is not None and _spans(pts, u):
        u /= u.sum()
    elif _spans(pts, np.ones(m) / m):
        R, u = pts.copy(), np.zeros(m)
        for _ in range(n):
            j = int(np.argmax(np.einsum("ij,ij->i", R, R)))
            u[j] = 1.0 / n
            R -= np.outer(R @ R[j], R[j] / (R[j] @ R[j]))
    else:
        raise DegenerateSpan("input points do not span the space")
    Xinv, kappa, _ = _fresh_state(pts, u)

    since_refresh, tried, newton_gap = 0, None, NEWTON_GAP
    for _ in range(MVEE_MAX_STEPS):
        jp = kappa.argmax()
        kp = kappa.item(jp)
        masked = np.where(u > 0.0, kappa, np.inf)
        jm = masked.argmin()
        km = masked.item(jm)
        gap_plus = kp / n - 1.0
        gap_minus = 1.0 - km / n

        if gap_plus <= eps and gap_minus <= eps:
            # recheck on fresh numbers before declaring convergence
            Xinv, kappa, gap = _fresh_state(pts, u)
            if gap <= eps:
                return u
            since_refresh = 0
            continue

        gap = max(gap_plus, gap_minus)
        if gap <= newton_gap and not np.array_equal(u > 0.0, tried):
            tried, newton_gap = u > 0.0, gap / 2.0
            trial = _newton_weights(pts, u)
            # the fresh check relies on u >= 0 and sum u = 1; keep both
            if (trial is not None and trial.min() >= 0.0
                    and 0.0 < trial.sum() < np.inf):
                trial = trial / trial.sum()
                try:
                    trial_inv, trial_kappa, trial_gap = _fresh_state(pts,
                                                                     trial)
                except np.linalg.LinAlgError:
                    trial_gap = np.nan
                if trial_gap < gap:
                    u, Xinv, kappa = trial, trial_inv, trial_kappa
                    tried = u > 0.0
                    since_refresh = 0
                    continue

        if gap_plus >= gap_minus:
            j, t, drop = jp, (kp - n) / (n * (kp - 1.0)), False
        else:
            j, uj = jm, u.item(jm)
            cap = uj / (1.0 - uj) if uj < 1.0 else np.inf
            lam = (min((n - km) / (n * (km - 1.0)), 0.99 / (km - 1.0), cap)
                   if km > 1.0 else cap)
            t, drop = -lam, lam >= cap
        u, Xinv, kappa = _signed_step(pts, u, Xinv, kappa, j, t, drop)

        since_refresh += 1  # the rank-one updates drift; refresh them
        if since_refresh >= 512 or not math.isfinite(kappa[j]):
            u = np.maximum(u, 0.0)
            u /= u.sum()
            Xinv, kappa, _ = _fresh_state(pts, u)
            since_refresh = 0

    raise JohnExtractionFailed(
        f"MVEE ascent did not reach gap {eps:.1e} in {MVEE_MAX_STEPS} steps")


def mvee_centered(points):
    """Centered MVEE of a symmetric point set (signs of points ignored), to
    the gap EPS_MVEE_DEFAULT, read at call time."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[1]
    u = _centered_mvee_weights(pts, EPS_MVEE_DEFAULT)
    M = _fresh_state(pts, u)[0] / n
    return Ellipsoid(center=np.zeros(n), shape=(M + M.T) / 2.0), u


def mvee_general(points, eps_mvee: float = EPS_MVEE_DEFAULT, start=None):
    """MVEE with free center, via the standard lift to dimension n+1.

    Returns the ellipsoid and the lifted problem's weights; ``start`` may
    hand such weights from a nearby solve back as the first weights.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = pts.shape
    lifted = np.hstack([pts, np.ones((m, 1))])
    u = _centered_mvee_weights(lifted, eps_mvee * n / (n + 1.0), start=start)
    c = pts.T @ u
    Sn = pts.T @ (pts * u[:, None])
    cov = Sn - np.outer(c, c)
    M = np.linalg.inv((cov + cov.T) / 2.0) / n
    return Ellipsoid(center=c, shape=(M + M.T) / 2.0), u


def john_decomposition(pts: np.ndarray, centered: bool,
                       start=None) -> JohnDecomposition:
    """John decomposition of the convex hull of the rows of pts.

    Solves the MVEE of the points, maps them to Loewner position and turns
    the positive dual weights u into decomposition weights a = n u ||y||^2,
    one path for both modes. With ``centered`` the MVEE center is free, the
    barycenter identity sum a_j v_j = 0 is part of the contract, and
    ``start`` may give the lifted MVEE solve's first weights (mvee_general).
    The MVEE is solved to the gap EPS_MVEE_DEFAULT, read at call time. A
    residual above TOL_JOHN_DEFAULT, or a failed eigensolve of the shape,
    raises JohnExtractionFailed; a shape that is not positive definite
    raises DegenerateSpan.
    """
    m, n = pts.shape

    if centered:
        ell, u = mvee_general(pts, EPS_MVEE_DEFAULT, start)
    else:
        ell, u = mvee_centered(pts)
    try:
        lam, V = np.linalg.eigh(ell.shape)
    except np.linalg.LinAlgError as exc:
        raise JohnExtractionFailed(f"MVEE shape eigh failed: {exc}") from exc
    if lam[0] <= 0.0:
        raise DegenerateSpan("ellipsoid shape matrix is not positive definite")
    T = (V * np.sqrt(lam)) @ V.T
    Y = (pts - ell.center) @ T

    keep = np.nonzero(u > 1e-9 / m)[0]
    norms = np.linalg.norm(Y[keep], axis=1)
    v = Y[keep] / norms[:, None]
    a = n * u[keep] * norms ** 2

    op = (v * a[:, None]).T @ v
    residual_identity = float(np.linalg.norm(op - np.eye(n)))
    residual_barycenter = float(np.linalg.norm(a @ v))

    tol = TOL_JOHN_DEFAULT
    if residual_identity > tol:
        raise JohnExtractionFailed(
            f"identity residual {residual_identity:.3e} above {tol:.1e}")
    if centered and residual_barycenter > tol:
        raise JohnExtractionFailed(
            f"barycenter residual {residual_barycenter:.3e} above {tol:.1e}")

    return JohnDecomposition(
        vectors=v, weights=a, frame=T, frame_center=ell.center,
        residual_identity=residual_identity,
        residual_barycenter=residual_barycenter,
        source_indices=keep)
