"""Deterministic spectral sparsification of identity decompositions.

Two entry points. ``bss_select`` is the barrier-potential subset selection:
given sum a_j v_j v_j^T = I it keeps at most ceil(d*n) indices whose
reweighted sum is spectrally sandwiched with ratio gamma_d^2,
gamma_d = (sqrt(d)+1)/(sqrt(d)-1). ``shifted_select`` adds the barycenter
condition for decompositions of general (non-symmetric) bodies by lifting
to dimension n+1, selecting there, and shifting back; every claim it makes
is re-certified by an eigenvalue check rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BarrierStuck, ShiftCertificateFailed
from .linalg import sym_eigen

D_ESCALATION = (9, 16, 25, 36)
EPS_SHIFT_DEFAULT = 0.5
_ADMIT_RTOL = 1e-9
_ADMIT_ATOL = 1e-12


def gamma_ratio(d: float) -> float:
    """(sqrt(d)+1)/(sqrt(d)-1), the guaranteed sandwich ratio root."""
    r = math.sqrt(d)
    return (r + 1.0) / (r - 1.0)


@dataclass(frozen=True)
class SparsifierResult:
    sigma: np.ndarray
    b: np.ndarray
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class ShiftCertificates:
    d: float
    barycenter_residual: float
    shift_norm_bound: float
    shift_norm_ok: bool
    sum_ok: bool
    shifted_lo: float
    shifted_hi: float
    shifted_ok: bool
    unshifted_lo: float
    unshifted_hi: float
    unshifted_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.barycenter_residual <= 1e-10 and self.shift_norm_ok
                and self.sum_ok and (self.shifted_ok or self.unshifted_ok))


@dataclass(frozen=True)
class ShiftedDecomposition:
    sigma: np.ndarray
    b: np.ndarray
    v: np.ndarray
    sum_b: float
    certificates: ShiftCertificates


def _input_residual(vectors, weights):
    n = vectors.shape[1]
    op = (vectors * weights[:, None]).T @ vectors
    return float(np.linalg.norm(op - np.eye(n), 2))


def bss_select(vectors, weights, d: float) -> SparsifierResult:
    """Barrier-potential selection of at most ceil(d*n) indices.

    Input rows v_j with weights a_j > 0 must satisfy sum a_j v_j v_j^T = I
    up to a small residual (it is folded into the certified bounds, not
    ignored). Output reweights b_j are normalized so the certified minimum
    eigenvalue of sum_{sigma} b_j a_j v_j v_j^T equals one.
    """
    if d <= 1.0:
        raise ValueError("sparsifier parameter d must exceed 1")
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(weights, dtype=float)
    k, n = v.shape
    w = v * np.sqrt(a)[:, None]
    w2 = w ** 2

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
        inv_u = 1.0 / (u_next - lam)
        inv_l = 1.0 / (lam - l_next)
        dphi_u = float(np.sum(1.0 / (u_bar - lam)) - np.sum(inv_u))
        dphi_l = float(np.sum(inv_l) - np.sum(1.0 / (lam - l_bar)))
        upper = P2 @ (inv_u ** 2) / dphi_u + P2 @ inv_u
        lower = P2 @ (inv_l ** 2) / dphi_l - P2 @ inv_l
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
    sub = v[sigma] * np.sqrt(coeff[sigma] * a[sigma])[:, None]
    spec = sym_eigen(sub.T @ sub)
    lam_min_raw = float(spec.eigenvalues[0])
    b = coeff[sigma] / lam_min_raw
    return SparsifierResult(
        sigma=sigma, b=b,
        lambda_min=1.0,
        lambda_max=float(spec.eigenvalues[-1] / lam_min_raw))


def shifted_select(vectors, weights, eps: float = EPS_SHIFT_DEFAULT,
                   escalation=D_ESCALATION) -> ShiftedDecomposition:
    """Sparse reweighting with an exact barycenter shift.

    Given sum a_j v_j v_j^T = I and sum a_j v_j ~ 0, lifts each v_j to
    (v_j, 1/sqrt(n)), runs bss_select in dimension n+1, and shifts by
    v := -(sum b_j v_j)/(sum b_j) so sum b_j (v_j + v) = 0 holds exactly.
    Retries over the d escalation schedule until the certificates pass.
    """
    v_in = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(weights, dtype=float)
    m, n = v_in.shape
    resid_in = _input_residual(v_in, a)
    window = 1e-6 + resid_in
    lifted = np.hstack([v_in, np.full((m, 1), 1.0 / math.sqrt(n))])

    trail = []
    for d in escalation:
        res = bss_select(lifted, a, d)
        sigma = res.sigma
        b = res.b * a[sigma]
        sub = v_in[sigma]
        s = float(b.sum())
        g = b @ sub
        shift = -g / s

        bary = float(np.linalg.norm(b @ (sub + shift)))
        shift_norm_ok = float(s * (shift @ shift)) <= eps
        sum_ok = (n * (1.0 - 1e-6) <= s <= (4.0 + 2.0 * eps) * n
                  * (1.0 + 1e-6))

        shifted_pts = sub + shift
        spec_s = sym_eigen((shifted_pts * b[:, None]).T @ shifted_pts)
        lo_s, hi_s = float(spec_s.eigenvalues[0]), float(spec_s.eigenvalues[-1])
        shifted_ok = (1.0 - window <= lo_s) and (hi_s <= 4.0 + eps + window)

        spec_u = sym_eigen((sub * b[:, None]).T @ sub)
        lo_u, hi_u = float(spec_u.eigenvalues[0]), float(spec_u.eigenvalues[-1])
        unshifted_ok = (0.5 - window <= lo_u) and (hi_u <= 5.5 + window)

        certs = ShiftCertificates(
            d=d, barycenter_residual=bary,
            shift_norm_bound=float(s * (shift @ shift)),
            shift_norm_ok=shift_norm_ok, sum_ok=sum_ok,
            shifted_lo=lo_s, shifted_hi=hi_s, shifted_ok=shifted_ok,
            unshifted_lo=lo_u, unshifted_hi=hi_u, unshifted_ok=unshifted_ok)
        if certs.all_ok:
            return ShiftedDecomposition(
                sigma=sigma, b=b, v=shift, sum_b=s,
                certificates=certs)
        trail.append(certs)

    lines = ", ".join(
        f"d={c.d}: bary={c.barycenter_residual:.2e} "
        f"Tnorm={c.shift_norm_bound:.3f} sum_ok={c.sum_ok} "
        f"sandwich=({c.shifted_ok}|{c.unshifted_ok})" for c in trail)
    raise ShiftCertificateFailed(f"all retries failed: {lines}")


@dataclass(frozen=True)
class OperatorTCertificate:
    norm_bound: float
    verdict: bool
    unshifted_lo: float
    unshifted_hi: float
    unshifted_ok: bool
    trace_residual: float


def certify_operator_T(vectors, sigma, b, v,
                       eps: float = EPS_SHIFT_DEFAULT) -> OperatorTCertificate:
    """Certify the rank-one defect between shifted and unshifted sums.

    The difference T of the two operators satisfies |<Tx, x>| =
    (sum b_j) <x, v>^2, so its norm is bounded by (sum b_j)*||v||^2. Also
    eigen-checks the unshifted sum against [1/2, 11/2] and the exact trace
    identity tr(shifted) = sum b_j - (sum b_j)*||v||^2.
    """
    pts = np.atleast_2d(np.asarray(vectors, dtype=float))[np.asarray(sigma)]
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    s = float(b.sum())
    bound = float(s * (v @ v))

    spec_u = sym_eigen((pts * b[:, None]).T @ pts)
    lo_u, hi_u = float(spec_u.eigenvalues[0]), float(spec_u.eigenvalues[-1])
    unshifted_ok = (0.5 - 1e-6 <= lo_u) and (hi_u <= 5.5 + 1e-6)

    shifted_pts = pts + v
    tr_shifted = float(np.sum((shifted_pts ** 2) * b[:, None]))
    trace_residual = abs(tr_shifted - (s - bound))

    return OperatorTCertificate(
        norm_bound=bound, verdict=bound <= eps,
        unshifted_lo=lo_u, unshifted_hi=hi_u, unshifted_ok=unshifted_ok,
        trace_residual=trace_residual)
