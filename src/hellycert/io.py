"""Instance and certificate file formats.

Instances and certificates are plain JSON. Certificates additionally have a
canonical byte form used for determinism checks: the JSON is re-serialized
with sorted keys and no whitespace, with the wall-time section stripped
(times are the one legitimately run-dependent part of a certificate).
Floats go through Python's shortest round-trip repr, so equal values give
equal bytes on any platform.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import InvalidInstance
from .geometry import (GENERAL, SYMMETRIC, BodyFamily, HalfspaceBody,
                       SlabBody, containment_factor, normalize_family)
from .linalg import sym_eigen
from .pipeline import ALPHA_SLACK, SelectionCertificate
from .sparsify import gamma_ratio

FORMAT_NAME = "hellycert-certificate"
REPORT_COLUMNS = ("mode", "n", "m", "d", "eps", "s", "alpha",
                  "alpha_over_sqrt_n", "alpha_over_n32", "verdicts_pass",
                  "diam_selected", "diam_full", "diam_ratio", "runtime_s")


def _pyify(obj):
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _pyify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def family_to_json(family: BodyFamily) -> dict:
    bodies = []
    for body in family.bodies:
        if family.mode == SYMMETRIC:
            cons = [{"a": list(row), "c": 1.0} for row in body.vectors]
        else:
            cons = [{"a": list(a), "c": float(c)}
                    for a, c in zip(body.normals, body.offsets)]
        bodies.append({"id": body.body_id or f"body{body.index}",
                       "constraints": cons})
    return _pyify({"mode": family.mode, "dimension": family.dim,
                   "bodies": bodies})


def family_from_json(obj) -> BodyFamily:
    try:
        mode = obj["mode"]
        dim = int(obj["dimension"])
        raw_bodies = obj["bodies"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"malformed instance object: {exc}") from exc
    if mode not in (SYMMETRIC, GENERAL):
        raise InvalidInstance(f"unknown mode {mode!r}")
    if dim < 1 or not raw_bodies:
        raise InvalidInstance("dimension must be >= 1 and bodies non-empty")
    bodies = []
    for j, raw in enumerate(raw_bodies):
        cons = raw.get("constraints") or []
        if not cons:
            raise InvalidInstance(f"body {j} has no constraints")
        A = np.array([c["a"] for c in cons], dtype=float)
        c = np.array([c["c"] for c in cons], dtype=float)
        if A.ndim != 2 or A.shape[1] != dim:
            raise InvalidInstance(
                f"body {j}: constraint vectors are not {dim}-dimensional")
        if not np.isfinite(A).all() or not np.isfinite(c).all():
            raise InvalidInstance(f"body {j}: non-finite constraint data")
        if (c <= 0).any():
            raise InvalidInstance(f"body {j}: offsets must be positive")
        if mode == SYMMETRIC:
            bodies.append(SlabBody(index=j, vectors=A / c[:, None],
                                   body_id=str(raw.get("id", f"body{j}"))))
        else:
            bodies.append(HalfspaceBody(index=j, normals=A, offsets=c,
                                        body_id=str(raw.get("id",
                                                            f"body{j}"))))
    return BodyFamily(mode=mode, dim=dim, bodies=tuple(bodies))


def load_instance(path) -> BodyFamily:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInstance(f"cannot read instance {path}: {exc}") from exc
    return family_from_json(obj)


def save_instance(family: BodyFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_json(family), fh, indent=2, sort_keys=True)
        fh.write("\n")


def certificate_to_json(cert: SelectionCertificate, version: str,
                        constraint_count: int | None = None,
                        seed=None, parameters: dict | None = None,
                        diameter: dict | None = None) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "version": version,
        "mode": cert.mode,
        "dimension": int(cert.z.shape[0]),
        "m": constraint_count,
        "seed": seed,
        "parameters": parameters or {},
        "selected": list(cert.selected),
        "s": cert.s,
        "z": cert.z,
        "d": cert.d,
        "eps": cert.eps,
        "gamma_d": cert.gamma_d,
        "bound_claimed": cert.bound_claimed,
        "alpha_measured": cert.alpha_measured,
        "c_measured": cert.c_measured,
        "verdicts": cert.verdicts,
        "diagnostics": cert.diagnostics,
        "payload": cert.payload,
        "notes": list(cert.notes),
        "timing": {"stages": cert.stages},
    }
    if diameter is not None:
        doc["diameter"] = diameter
    return _pyify(doc)


def certificate_from_json(doc) -> SelectionCertificate:
    payload = {k: np.asarray(v, dtype=float) if isinstance(v, list) else v
               for k, v in doc.get("payload", {}).items()}
    return SelectionCertificate(
        mode=doc["mode"], selected=tuple(doc["selected"]), s=int(doc["s"]),
        z=np.asarray(doc["z"], dtype=float), d=doc.get("d"),
        eps=doc.get("eps"), gamma_d=doc.get("gamma_d"),
        bound_claimed=float(doc["bound_claimed"]),
        alpha_measured=float(doc["alpha_measured"]),
        c_measured=doc.get("c_measured"),
        verdicts=dict(doc["verdicts"]), diagnostics=dict(doc["diagnostics"]),
        stages=dict(doc.get("timing", {}).get("stages", {})),
        payload=payload, notes=tuple(doc.get("notes", [])))


def load_certificate(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInstance(
            f"cannot read certificate {path}: {exc}") from exc
    if doc.get("format") != FORMAT_NAME:
        raise InvalidInstance(f"{path} is not a certificate file")
    return doc


def save_certificate(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def canonical_certificate_bytes(doc: dict) -> bytes:
    """Byte form used for determinism comparison; wall times excluded."""
    stripped = {k: v for k, v in doc.items() if k != "timing"}
    return json.dumps(_pyify(stripped), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _extremes(points: np.ndarray, coeffs: np.ndarray):
    op = (points * coeffs[:, None]).T @ points
    spec = sym_eigen(op)
    return float(spec.eigenvalues[0]), float(spec.eigenvalues[-1])


def _selection_problem(selected, count: int):
    """Why a stored ``selected`` list names no set of the family's bodies."""
    if not isinstance(selected, list) or not selected:
        return "selected must be a non-empty list of body indices"
    if not all(isinstance(i, int) and not isinstance(i, bool)
               for i in selected):
        return f"selected holds non-integer entries: {selected}"
    if len(set(selected)) != len(selected):
        return f"selected repeats indices: {selected}"
    outside = [i for i in selected if not 0 <= i < count]
    if outside:
        return f"selected indices {outside} out of range for {count} bodies"
    return None


def _symmetric_bound_problems(cert: SelectionCertificate, n: int,
                              alpha: float) -> list:
    """Recompute gamma_d(d)*sqrt(n); hold the stored claim and alpha to it."""
    try:
        bound = gamma_ratio(float(cert.d)) * math.sqrt(n)
        stored = float(cert.gamma_d) * math.sqrt(n)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"cannot recompute the bound from d={cert.d!r}: {exc}"]
    problems = []
    if not (math.isclose(stored, bound, rel_tol=1e-12)
            and math.isclose(cert.bound_claimed, bound, rel_tol=1e-12)):
        problems.append(
            f"bound recomputed from d={cert.d} is {bound:.12g}; stored "
            f"gamma_d*sqrt(n) {stored:.12g}, bound_claimed "
            f"{cert.bound_claimed:.12g}")
    if not alpha <= bound * (1.0 + ALPHA_SLACK):
        problems.append(f"containment factor {alpha:.9g} exceeds the bound "
                        f"{bound:.9g}")
    return problems


def _cardinality_problems(cert: SelectionCertificate, n: int) -> list:
    """Recompute the budget from d and n; hold s, the stored budget and
    the selected list to it."""
    problems = []
    if cert.s != len(cert.selected):
        problems.append(f"s={cert.s} but {len(cert.selected)} bodies are "
                        "selected")
    try:
        d = float(cert.d)
        budget = (math.ceil(d * n) if cert.mode == SYMMETRIC
                  else math.ceil(d * (n + 1)) + n + 1)
    except (TypeError, ValueError, OverflowError) as exc:
        return problems + [f"cannot recompute the budget from "
                           f"d={cert.d!r}: {exc}"]
    stored = cert.diagnostics.get("budget")
    if stored != budget:
        problems.append(f"budget recomputed from d={d} is {budget}; stored "
                        f"{stored!r}")
    if len(cert.selected) > budget:
        problems.append(f"{len(cert.selected)} bodies selected, above the "
                        f"budget {budget}")
    return problems


def verify_certificate(family: BodyFamily, doc: dict):
    """Cheap re-verification of a stored certificate.

    Recomputes the eigenvalue extremes of the stored operators and the
    containment factor, then rebuilds the verdicts those numbers support and
    compares with the stored ones. The alpha verdict is re-derived from the
    instance, ``selected`` and ``d`` alone: symmetric certificates must
    meet gamma_d(d)*sqrt(n), general ones must claim their own finite alpha.
    ``s`` must count ``selected``, and the budget is recomputed from d and
    n: ceil(d n) symmetric, ceil(d (n+1)) + n + 1 general.
    MVEE and sparsifier runs are not repeated. Returns (ok, list of mismatch
    strings).
    """
    bad_selection = _selection_problem(doc.get("selected"), len(family))
    if bad_selection:
        return False, [bad_selection]
    cert = certificate_from_json(doc)
    problems = []

    def close(a, b, tol=1e-7):
        return abs(a - b) <= tol * (1.0 + abs(a) + abs(b))

    vecs = cert.payload["contact_vectors"]
    coef = cert.payload["coefficients"]
    if cert.mode == SYMMETRIC:
        lo, hi = _extremes(vecs, coef)
        if not close(hi / lo, cert.diagnostics["lambda_max"]
                     / cert.diagnostics["lambda_min"]):
            problems.append(
                f"sandwich ratio recomputed {hi / lo:.9g} != stored "
                f"{cert.diagnostics['lambda_max']:.9g}")
        target = family
    else:
        shift = cert.payload["shift"]
        lo_u, hi_u = _extremes(vecs, coef)
        if not (close(lo_u, cert.diagnostics["unshifted_lo"])
                and close(hi_u, cert.diagnostics["unshifted_hi"])):
            problems.append("unshifted extremes do not match certificate")
        lo_s, hi_s = _extremes(vecs + shift, coef)
        if not (close(lo_s, cert.diagnostics["shifted_lo"])
                and close(hi_s, cert.diagnostics["shifted_hi"])):
            problems.append("shifted extremes do not match certificate")
        bary = float(np.linalg.norm(coef @ (vecs + shift)))
        if bary > 1e-10:
            problems.append(f"barycenter residual {bary:.3e} above 1e-10")
        rho = cert.payload["rho"]
        tau_vecs = cert.payload["tau_vectors"]
        cara = float(np.linalg.norm(tau_vecs.T @ rho - cert.payload["w"]))
        if cara > 1e-9:
            problems.append(f"Caratheodory residual {cara:.3e} above 1e-9")
        target = normalize_family(family, cert.z)

    problems.extend(_cardinality_problems(cert, family.dim))
    alpha = containment_factor(target, list(cert.selected))
    if not (math.isinf(alpha) and math.isinf(cert.alpha_measured)) \
            and not close(alpha, cert.alpha_measured):
        problems.append(
            f"containment factor recomputed {alpha:.9g} != stored "
            f"{cert.alpha_measured:.9g}")
    if cert.mode == SYMMETRIC:
        problems.extend(_symmetric_bound_problems(cert, family.dim, alpha))
    else:
        if cert.bound_claimed != cert.alpha_measured:
            problems.append(
                f"bound_claimed {cert.bound_claimed:.9g} is not the "
                f"measured alpha {cert.alpha_measured:.9g}")
        if not math.isfinite(alpha):
            problems.append("containment factor recomputed as infinite")
    if not cert.all_pass:
        problems.append("stored verdicts contain failures")
    return not problems, problems


def write_report(docs, path) -> None:
    """One CSV row per certificate, stable column order."""
    if not docs:
        raise ValueError("no certificates to report on")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for doc in docs:
            n = int(doc["dimension"])
            alpha = float(doc["alpha_measured"])
            diam = doc.get("diameter") or {}
            row = [
                doc["mode"], n, doc.get("m", ""),
                doc.get("d", ""), doc.get("eps", ""), doc["s"],
                repr(alpha), repr(alpha / math.sqrt(n)),
                repr(alpha / n ** 1.5),
                all(doc["verdicts"].values()),
                diam.get("selected", ""), diam.get("full", ""),
                diam.get("ratio", ""),
                doc.get("timing", {}).get("stages", {}).get("total", ""),
            ]
            writer.writerow(row)
