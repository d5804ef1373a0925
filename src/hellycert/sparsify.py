"""Deterministic spectral sparsification of identity decompositions.

Two entry points. ``bss_select`` is the barrier-potential subset selection:
given sum a_j v_j v_j^T = I it keeps at most ceil(d*n) indices whose
reweighted sum is spectrally sandwiched with ratio gamma_d^2,
gamma_d = (sqrt(d)+1)/(sqrt(d)-1). ``shifted_select`` adds the barycenter
condition for decompositions of general (non-symmetric) bodies by lifting
to dimension n+1, selecting there, and shifting back. Its four claims are
judged by ``certify_operator_T``, the one function that computes them, at
the one sandwich window ``SANDWICH_WINDOW``: it decides when
``shifted_select`` stops escalating d, and ``io.check`` calls it again on a
certificate's stored witnesses. Every eigenvalue behind them comes from the
residual-checked ``linalg.sym_eigen``, reached only from the verdict
functions, ``certify_operator_T`` and ``io.check``; ``bss_select``
proposes from plain LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BarrierStuck, ShiftCertificateFailed
from .john import TOL_JOHN_DEFAULT
from .linalg import extremes

D_ESCALATION = (9, 16, 25, 36)
EPS_SHIFT_DEFAULT = 0.5
# The sandwich verdict's slack: 1e-6 plus the residual at which the producer
# accepts its John decomposition. No claim can widen it.
SANDWICH_WINDOW = 1e-6 + TOL_JOHN_DEFAULT
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
    lambda_max: float


@dataclass(frozen=True)
class ShiftedDecomposition:
    sigma: np.ndarray
    b: np.ndarray
    v: np.ndarray
    d: float


def bss_select(vectors, weights, d: float) -> SparsifierResult:
    """Barrier-potential selection of at most ceil(d*n) indices.

    Input rows v_j with weights a_j > 0 must satisfy sum a_j v_j v_j^T = I
    up to a small residual (the verdicts judge the output, not the input).
    Output reweights b_j are normalized by the smallest eigenvalue of the
    loop's last eigensolve, that of A = sum_{sigma} b_j a_j v_j v_j^T before
    the scaling, and lambda_max is that solve's largest over its smallest:
    a proposal, whose spectrum ``io.check`` bounds afresh.

    Each step adds t w_j w_j^T, w_j = sqrt(a_j) v_j, to A from rank-one
    terms built once. Every term is exactly symmetric, since w_ji w_jk and
    w_jk w_ji are the same product, so A is too and its eigensolve takes it
    as it is, with no (A + A^T) / 2. A step sums the four barrier
    potentials over the n eigenvalues as Python floats, in ascending
    eigenvalue order, and prices every index's upper and lower bound with
    one (k x n) @ (n x 2) product, each column of which folds the squared
    and plain inverse distances to one barrier into one coefficient.
    """
    if d <= 1.0:
        raise ValueError("sparsifier parameter d must exceed 1")
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(weights, dtype=float)
    k, n = v.shape
    w = v * np.sqrt(a)[:, None]
    outer = w[:, :, None] * w[:, None, :]

    root = math.sqrt(d)
    delta_u = (root + 1.0) / (root - 1.0)
    delta_l = 1.0
    u_bar = n * (d + root) / (root - 1.0)
    l_bar = -n * root
    steps = math.ceil(d * n)

    A = np.zeros((n, n))
    coeff = np.zeros(k)
    lam = [0.0] * n
    V = np.eye(n)

    for step in range(steps):
        u_next = u_bar + delta_u
        l_next = l_bar + delta_l
        if lam[-1] >= u_next or lam[0] <= l_next:
            raise BarrierStuck(
                f"step {step}: spectrum [{lam[0]:.6g}, {lam[-1]:.6g}] "
                f"escaped barriers ({l_next:.6g}, {u_next:.6g})")
        P2 = w @ V
        P2 *= P2
        inv_u = [1.0 / (u_next - x) for x in lam]
        inv_l = [1.0 / (x - l_next) for x in lam]
        phi_u = phi_u_next = phi_l = phi_l_next = 0.0
        for x, iu, il in zip(lam, inv_u, inv_l):
            phi_u += 1.0 / (u_bar - x)
            phi_u_next += iu
            phi_l_next += il
            phi_l += 1.0 / (x - l_bar)
        dphi_u = phi_u - phi_u_next
        dphi_l = phi_l_next - phi_l
        bounds = P2 @ np.array([(iu * iu / dphi_u + iu, il * il / dphi_l - il)
                                for iu, il in zip(inv_u, inv_l)])
        upper, lower = bounds[:, 0], bounds[:, 1]
        admissible = (lower > 0.0) & (
            upper <= lower * (1.0 + _ADMIT_RTOL) + _ADMIT_ATOL)
        j = admissible.argmax()
        if not admissible[j]:
            raise BarrierStuck(
                f"step {step}: no admissible index; barriers "
                f"({l_next:.6g}, {u_next:.6g}), spectrum "
                f"[{lam[0]:.6g}, {lam[-1]:.6g}], best margin "
                f"{float(np.min(upper - lower)):.3e}")
        t = 2.0 / (bounds.item(j, 0) + bounds.item(j, 1))
        A += t * outer[j]
        coeff[j] += t
        u_bar, l_bar = u_next, l_next
        lam, V = np.linalg.eigh(A)
        lam = lam.tolist()

    sigma = np.nonzero(coeff > 0.0)[0]
    return SparsifierResult(sigma=sigma, b=coeff[sigma] / lam[0],
                            lambda_max=lam[-1] / lam[0])


def shifted_select(vectors, weights,
                   eps: float = EPS_SHIFT_DEFAULT) -> ShiftedDecomposition:
    """Sparse reweighting with an exact barycenter shift.

    Given sum a_j v_j v_j^T = I and sum a_j v_j ~ 0, lifts each v_j to
    (v_j, 1/sqrt(n)), runs bss_select in dimension n+1, and shifts by
    v := -(sum b_j v_j)/(sum b_j) so sum b_j (v_j + v) = 0 holds exactly.
    Retries over the d escalation schedule until every verdict of
    ``certify_operator_T`` holds: the rule ``io.check`` applies, so d stops
    where the certificate will pass.
    """
    v_in = np.atleast_2d(np.asarray(vectors, dtype=float))
    a = np.asarray(weights, dtype=float)
    m, n = v_in.shape
    lifted = np.hstack([v_in, np.full((m, 1), 1.0 / math.sqrt(n))])

    trail = []
    for d in D_ESCALATION:
        res = bss_select(lifted, a, d)
        b = res.b * a[res.sigma]
        shift = -(b @ v_in[res.sigma]) / b.sum()
        verdicts, diag = certify_operator_T(v_in[res.sigma], b, shift, eps)
        if all(verdicts.values()):
            return ShiftedDecomposition(sigma=res.sigma, b=b, v=shift, d=d)
        failed = ",".join(k for k, ok in verdicts.items() if not ok)
        trail.append(f"d={d}: {failed} failed; " + " ".join(
            f"{k}={x:.3g}" for k, x in diag.items()))
    raise ShiftCertificateFailed(f"all retries failed: {'; '.join(trail)}")


def certify_operator_T(vectors: np.ndarray, b: np.ndarray, v: np.ndarray,
                       eps: float):
    """(verdicts, diagnostics) of kept rows p_j, coefficients b, shift v.

    - shift_barycenter: |sum b_j (p_j + v)| <= 1e-10.
    - shift_norm: the rank-one defect T between the shifted and unshifted
      sums has |<Tx, x>| = (sum b_j) <x, v>^2, so ||T|| <= (sum b_j) |v|^2,
      which must not exceed eps.
    - sum_b: n <= sum b_j <= (4 + 2 eps) n, with relative slack 1e-6.
    - sandwich: the shifted sum's spectrum lies in [1, 4 + eps] or the
      unshifted one's in [1/2, 11/2], both widened by ``SANDWICH_WINDOW``.
    The diagnostics add the residual of the exact trace identity
    tr(shifted) = sum b_j - (sum b_j) |v|^2.
    """
    n, window = vectors.shape[1], SANDWICH_WINDOW
    s = float(b.sum())
    norm_bound = float(s * (v @ v))
    shifted = vectors + v
    bary = float(np.linalg.norm(b @ shifted))
    lo_s, hi_s = extremes(shifted, b)
    lo_u, hi_u = extremes(vectors, b)
    tr_shifted = float(np.sum((shifted ** 2) * b[:, None]))
    verdicts = {
        "shift_barycenter": bary <= 1e-10,
        "shift_norm": norm_bound <= eps,
        "sum_b": n * (1 - 1e-6) <= s <= (4 + 2 * eps) * n * (1 + 1e-6),
        "sandwich": (1 - window <= lo_s and hi_s <= 4 + eps + window
                     or 0.5 - window <= lo_u and hi_u <= 5.5 + window),
    }
    return verdicts, {
        "barycenter_residual": bary, "shift_norm_bound": norm_bound,
        "sum_b": s, "shifted_lo": lo_s, "shifted_hi": hi_s,
        "unshifted_lo": lo_u, "unshifted_hi": hi_u,
        "sandwich_window": window,
        "trace_residual": abs(tr_shifted - (s - norm_bound))}
