"""Instance and certificate file formats, and the one verdict path.

Instances and certificates are plain JSON, written by the json module
alone: its one hook, ``_plain``, turns numpy arrays and scalars into
Python values, so the document ``certificate_to_json`` holds in memory is
the json encoding read back, which is what a file holds. Certificates
additionally have a canonical byte form used for determinism checks: the
JSON is re-serialized with sorted keys and no whitespace, with the
wall-time section stripped (times are the one legitimately run-dependent
part of a certificate). Floats go through Python's shortest round-trip
repr, so equal values give equal bytes on any platform.

``check`` derives every verdict of a certificate, and every number behind
them, from the instance and the certificate's claims. The selectors fill
their certificates from it, and ``verify_certificate`` compares a stored
certificate with it. A certificate file is read back through it too:
``certificate_from_json`` is ``check`` of the file's claims, plus the
timings, notes and diagnostics the file carries as information. So a
certificate read from a file takes no derived field from it: only
``verify_certificate`` reads them, to compare, and ``write_report``, to
summarize. The payload holds the claims only: the witness vectors, the
general-mode shift and its target w are derived from them each time and
never stored. No claim sets a verdict's threshold: the slacks are the
constants ``john.TOL_JOHN_DEFAULT``, ``sparsify.SANDWICH_WINDOW`` and
``sparsify.EPS_SHIFT``. The producer decides by the same rules: the
Caratheodory witness passes ``caratheodory_holds`` in both.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .errors import (CertificateRejected, InvalidInstance, NotInterior,
                     SolverStall)
from .geometry import (GENERAL, SYMMETRIC, BodyFamily, containment_factor,
                       containment_rows, normalize_family)
from .john import TOL_JOHN_DEFAULT
from .linalg import extremes
from .sparsify import (D_ESCALATION, EPS_SHIFT, certify_operator_T,
                       gamma_ratio)

FORMAT_NAME = "hellycert-certificate"
REPORT_COLUMNS = ("mode", "n", "m", "d", "s", "alpha",
                  "alpha_over_sqrt_n", "alpha_over_n32", "verdicts_pass",
                  "diam_selected", "diam_full", "diam_ratio", "runtime_s")
ALPHA_SLACK = 1e-5
# A stored derived float must lie within this relative distance of the one
# recomputed, so that a certificate written with one numpy/LAPACK build
# checks on another. It sits below the slack of every verdict (1e-9 and
# up), and verdicts are recomputed, never read.
DERIVED_RTOL = 1e-10


@dataclass(frozen=True)
class SelectionCertificate:
    mode: str
    selected: tuple
    s: int
    z: np.ndarray
    d: float | None
    gamma_d: float | None
    bound_claimed: float
    alpha_measured: float
    c_measured: float | None
    verdicts: dict
    diagnostics: dict
    stages: dict
    payload: dict
    notes: tuple = ()

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values())


def _plain(obj):
    """The json encoder's hook: a numpy array or scalar as Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _pyify(obj):
    """``obj`` as the json module reads it back from its own encoding."""
    return json.loads(json.dumps(obj, default=_plain))


def family_to_json(family: BodyFamily) -> dict:
    kept = ~family.negated
    bodies = [{"id": body_id or f"body{j}", "constraints": []}
              for j, body_id in enumerate(family.ids)]
    for j, a, c in zip(family.owner[kept].tolist(), family.G[kept].tolist(),
                       family.h[kept].tolist()):
        bodies[j]["constraints"].append({"a": a, "c": c})
    return {"mode": family.mode, "dimension": family.dim, "bodies": bodies}


def family_from_json(obj) -> BodyFamily:
    try:
        mode, dim, raw_bodies = obj["mode"], obj["dimension"], obj["bodies"]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"malformed instance object: {exc}") from exc
    if isinstance(dim, float) and dim.is_integer():
        dim = int(dim)
    if type(dim) is not int or dim < 1:
        raise InvalidInstance(f"dimension {dim!r} is not an integer >= 1")
    if mode not in (SYMMETRIC, GENERAL):
        raise InvalidInstance(f"unknown mode {mode!r}")
    if not isinstance(raw_bodies, list) or not raw_bodies:
        raise InvalidInstance("bodies must be a non-empty list")
    blocks, ids = [], []
    for j, raw in enumerate(raw_bodies):
        try:
            rows = [(con["a"], con["c"])
                    for con in raw.get("constraints") or []]
            if not rows:
                raise InvalidInstance(f"body {j} has no constraints")
            A, c = (np.array(column, dtype=float) for column in zip(*rows))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidInstance(f"body {j}: constraints are not objects "
                                  f"with numeric a and c: {exc!r}") from exc
        if A.ndim != 2 or c.ndim != 1 or not np.all((c > 0) & (c < np.inf)):
            raise InvalidInstance(f"body {j}: each constraint needs a vector "
                                  "a and a positive, finite offset c")
        blocks.append(A / c[:, None] if mode == SYMMETRIC else (A, c))
        ids.append(raw.get("id", f"body{j}"))
    try:
        return BodyFamily.from_blocks(mode, dim, blocks, ids)
    except ValueError as exc:
        raise InvalidInstance(str(exc)) from exc


def _read_json(path, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInstance(f"cannot read {what} {path}: {exc}") from exc


def load_instance(path) -> BodyFamily:
    return family_from_json(_read_json(path, "instance"))


def save_instance(family: BodyFamily, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(family_to_json(family), fh, indent=2, sort_keys=True)
        fh.write("\n")


def certificate_to_json(cert: SelectionCertificate, version: str,
                        constraint_count: int | None = None,
                        seed=None, diameter: dict | None = None) -> dict:
    """The JSON document of ``cert``. The run's parameter is its ``d``
    claim; no other field repeats it."""
    doc = {f.name: getattr(cert, f.name) for f in fields(cert)}
    doc.update(format=FORMAT_NAME, version=version,
               dimension=int(cert.z.shape[0]), m=constraint_count, seed=seed,
               timing={"stages": doc.pop("stages")})
    if diameter is not None:
        doc["diameter"] = diameter
    return _pyify(doc)


def certificate_from_json(family: BodyFamily, doc) -> SelectionCertificate:
    """The certificate ``check`` derives from the claims of ``doc``, with
    the document's ``timing.stages``, ``notes`` and ``diagnostics`` kept as
    information: ``check``'s own diagnostics replace the stored ones of the
    same name. No other field is read. Raises what ``check`` raises, and
    InvalidInstance when ``timing``, ``timing.stages`` or ``diagnostics``
    is neither an object nor null, or ``notes`` neither a list nor null."""
    cert = check(family, doc)
    notes = doc.get("notes")
    if not isinstance(notes, (list, type(None))):
        raise InvalidInstance("certificate field 'notes' is not a list")
    return replace(
        cert, notes=tuple(notes or ()),
        stages=_optional_object(_optional_object(doc, "timing"), "stages"),
        diagnostics={**_optional_object(doc, "diagnostics"),
                     **cert.diagnostics})


def load_certificate(path, version=None) -> dict:
    """The certificate at ``path``, of format ``version`` when given."""
    doc = _read_json(path, "certificate")
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise InvalidInstance(f"{path} is not a certificate file")
    found = doc.get("version")
    if version is not None and found != version:
        raise InvalidInstance(f"{path} has format version {found!r}; this "
                              f"hellycert checks {version!r} only")
    return doc


def save_certificate(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def canonical_certificate_bytes(doc: dict) -> bytes:
    """Byte form used for determinism comparison; wall times excluded."""
    stripped = {k: v for k, v in doc.items() if k != "timing"}
    return json.dumps(stripped, sort_keys=True, separators=(",", ":"),
                      default=_plain).encode("utf-8")


def _field(obj, key):
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"certificate has no field {key!r}") from exc


def _object(obj, key) -> dict:
    value = _field(obj, key)
    if not isinstance(value, dict):
        raise InvalidInstance(f"certificate field {key!r} is not an object")
    return dict(value)


def _optional_object(obj, key) -> dict:
    """An informational object field; missing or null reads as empty."""
    return {} if obj.get(key) is None else _object(obj, key)


def _array(obj, key, shape) -> np.ndarray:
    """Finite numeric array of ``shape``; a None entry allows any length."""
    try:
        a = np.array(_field(obj, key))
    except ValueError as exc:
        raise InvalidInstance(f"certificate field {key!r}: {exc}") from exc
    if (a.dtype.kind not in "iuf" or a.ndim != len(shape)
            or any(want not in (None, got)
                   for want, got in zip(shape, a.shape))
            or not np.isfinite(a).all()):
        raise InvalidInstance(f"certificate field {key!r} is not a finite "
                              f"numeric array of shape {shape}")
    return a.astype(float)


def _indices(obj, name: str, count: int) -> list:
    """A stored index list, rejected unless it names a set of items of
    range(count) in increasing order, non-empty when range(count) is."""
    values = _field(obj, name)
    if isinstance(values, np.ndarray):  # a producer's claims
        values = values.tolist()
    elif isinstance(values, tuple):
        values = list(values)
    if type(values) is not list or set(map(type, values)) - {int}:
        raise InvalidInstance(f"certificate field {name!r} is not a list "
                              f"of integers: {values!r}")
    if count and not values:
        problem = "is empty"
    elif values != sorted(set(values)):
        problem = "is not strictly increasing"
    elif values and (values[0] < 0 or values[-1] >= count):
        problem = f"is out of range for {count} items"
    else:
        return values
    raise CertificateRejected(f"{name} {problem}: {values}")


def _bases(obj, name: str) -> np.ndarray | None:
    """A stored null, or a list of index lists as an integer array; its
    shape and range are for ``lp.check_support`` to judge."""
    rows = _field(obj, name)
    if rows is None:
        return None
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}):
        raise InvalidInstance(f"certificate field {name!r} is neither null "
                              "nor a list of index lists")
    try:
        return np.array(rows, dtype=int)
    except (OverflowError, ValueError) as exc:
        raise CertificateRejected(f"{name} is not a table of row indices: "
                                  f"{exc}") from exc


def _unit_rows(framed: np.ndarray, rows: list) -> np.ndarray:
    """normalize(framed[rows]): the witness vectors the rows stand for."""
    norms = np.linalg.norm(framed[rows], axis=1)
    if not np.all(norms > 0.0):
        raise CertificateRejected("the frame maps a witness row to 0")
    return framed[rows] / norms[:, None]


def require_parameters(n: int, d, error=CertificateRejected):
    """Raise ``error`` for a d that gives no claim in dimension n: the one
    rule, which ``select_symmetric`` applies before any stage (raising
    InvalidInstance) and ``check`` to its claims."""
    if not (d > 1.0 and math.isfinite(float(d) * (n + 1))):
        raise error(f"d={d!r} gives no bound or budget: it must exceed 1 and "
                    "keep d*(n+1) finite")


def caratheodory_holds(points: np.ndarray, rho: np.ndarray, w: np.ndarray):
    """(verdict, residual) of w as the convex combination rho of the rows
    of ``points``: at most n + 1 rows, rho >= 0 summing to 1 within 1e-12,
    and a residual |points^T rho - w| of at most 1e-9. The one rule: the
    ``caratheodory`` verdict of ``check`` and the acceptance of
    ``pipeline.caratheodory_express``."""
    residual = float(np.linalg.norm(points.T @ rho - w))
    return (len(points) <= points.shape[1] + 1 and bool(np.all(rho >= 0.0))
            and abs(float(rho.sum()) - 1.0) <= 1e-12
            and residual <= 1e-9), residual


def check(family: BodyFamily, claims) -> SelectionCertificate:
    """The certificate the instance and the claims support.

    The claims are ``mode``, ``z``, ``selected``, ``d`` and the payload:
    the ``frame`` and ``frame_center``, the generator rows ``sigma_rows``
    with their ``coefficients``, the walked ``support_directions`` and
    their ``support_bases`` of ``geometry.containment_bases`` and, in
    general mode, the Caratheodory rows ``tau_rows`` and weights ``rho``.
    Each selected body must own one of these rows (a reduced selection
    drops some owners). alpha comes from replaying the support bases and
    checking the dual bound of every other direction against it, never
    from a walk; null bases give alpha = +inf. The witness vectors are
    derived as normalize((generator - frame_center) @ frame) from the polar
    generators, the rows of the instance normalized at ``z``. In general
    mode so are the shift -sum b_j v_j / sum b_j of the coefficients b
    (whose sum must be positive) and contact vectors v, and the
    Caratheodory target w = shift / sqrt(eps n). These stay out of the
    payload, which is returned as claimed. A general d sets only the
    budget, so it must be a step of ``sparsify.D_ESCALATION``. s, gamma_d,
    the bound, alpha, c_measured, the verdicts and the derived diagnostics
    (budget, spectra, residuals, walked and screened direction counts) are
    recomputed, never read. Other keys are ignored, ``eps`` among them:
    eps is ``sparsify.EPS_SHIFT``, and the sandwich slack is set from
    ``john.TOL_JOHN_DEFAULT``, the producer's John acceptance (in general
    mode ``sparsify.SANDWICH_WINDOW``), so no claim can widen a threshold.
    The Caratheodory verdict is ``caratheodory_holds``, the producer's
    rule. Stages, notes and the producer's own diagnostics are left empty.

    Raises InvalidInstance for a missing or mistyped claim,
    CertificateRejected for claims that name no selection of this instance,
    and SolverStall for support bases (or a spectrum) that fail their
    check.
    """
    n, mode = family.dim, _field(claims, "mode")
    if mode != family.mode:
        raise CertificateRejected(f"mode {mode!r} does not match the "
                                  f"instance's {family.mode!r}")
    selected = _indices(claims, "selected", len(family))
    z = _array(claims, "z", (None,))
    if z.shape != (n,):
        raise CertificateRejected(f"z has {z.size} coordinates; the instance "
                                  f"has dimension {n}")
    d = float(_array(claims, "d", ()))
    require_parameters(n, d)
    if mode == SYMMETRIC:
        if np.any(z != 0.0):
            raise CertificateRejected("a symmetric certificate claims z = 0")
        target = family
    else:
        if d not in D_ESCALATION:
            raise CertificateRejected(f"d={d!r} is not a step of "
                                      f"D_ESCALATION {D_ESCALATION}")
        try:
            target = normalize_family(family, z)
        except NotInterior as exc:
            raise CertificateRejected(f"z is not inside the family: "
                                      f"{exc}") from exc

    payload = _object(claims, "payload")
    m = len(target.G)
    framed = ((target.G - _array(payload, "frame_center", (n,)))
              @ _array(payload, "frame", (n, n)))
    sigma_rows = _indices(payload, "sigma_rows", m)
    tau_rows = [] if mode == SYMMETRIC else _indices(payload, "tau_rows", m)
    ownerless = set(selected).difference(
        target.owner[sigma_rows + tau_rows].tolist())
    if ownerless:
        raise CertificateRejected(f"selected bodies {sorted(ownerless)} own "
                                  "no sigma or tau generator row")
    vecs = _unit_rows(framed, sigma_rows)
    coef = _array(payload, "coefficients", (len(sigma_rows),))
    count = int(np.count_nonzero(containment_rows(target, selected)[1]))
    directions = _indices(payload, "support_directions", count)
    bases = _bases(payload, "support_bases")
    try:
        alpha = containment_factor(target, selected, (directions, bases))
    except SolverStall as exc:
        raise SolverStall(f"support_bases fail their check: {exc}") from exc
    s, gamma = len(selected), gamma_ratio(d)
    diagnostics = {
        "frame_radius": float(np.max(np.linalg.norm(framed, axis=1))),
        "generators": m,
        "sigma_size": len(sigma_rows),
        "walked_directions": len(directions),
        "screened_directions": count - len(directions),
    }

    if mode == SYMMETRIC:
        bound, c_measured = gamma * math.sqrt(n), None
        budget = math.ceil(d * n)
        lo, hi = extremes(vecs, coef)
        limit = gamma ** 2 * (1.0 + 1e-6) + TOL_JOHN_DEFAULT
        verdicts = {
            "cardinality": len(sigma_rows) <= budget and s <= budget,
            "sandwich": lo >= 1.0 - 1e-9 and hi <= limit,
            "alpha_within_bound": alpha <= bound * (1.0 + ALPHA_SLACK),
        }
        diagnostics.update(lambda_min=lo, lambda_max=hi,
                           sandwich_limit=limit, budget=budget)
    else:
        bound, c_measured = alpha, alpha / n ** 1.5
        taus = _unit_rows(framed, tau_rows)
        rho = _array(payload, "rho", (len(tau_rows),))
        total = float(coef.sum())
        if not total > 0.0:
            raise CertificateRejected(f"coefficients sum to {total!r}")
        shift = -(coef @ vecs) / total
        w = shift / math.sqrt(EPS_SHIFT * n)
        budget = math.ceil(d * (n + 1)) + n + 1
        union = len(set(sigma_rows) | set(tau_rows))
        shift_verdicts, shift_diagnostics = certify_operator_T(
            vecs, coef, shift)
        w_norm = float(np.linalg.norm(w))
        cara_ok, cara = caratheodory_holds(taus, rho, w)
        verdicts = {
            "cardinality": union <= budget and s <= budget,
            **shift_verdicts,
            "w_norm": w_norm <= 1.0 / n + 1e-9,
            "caratheodory": cara_ok,
            "alpha_finite": math.isfinite(alpha),
        }
        diagnostics.update(
            **shift_diagnostics, w_norm=w_norm, cara_residual=cara,
            tau_size=len(tau_rows), union_size=union, budget=budget)
    return SelectionCertificate(
        mode=mode, selected=tuple(selected), s=s, z=z, d=d,
        gamma_d=gamma, bound_claimed=bound, alpha_measured=alpha,
        c_measured=c_measured, verdicts=verdicts, diagnostics=diagnostics,
        stages={}, payload=payload)


def _same(stored, derived) -> bool:
    """Floats within DERIVED_RTOL of each other, anything else equal; the
    types must match."""
    if type(stored) is not type(derived):
        return False
    if isinstance(derived, float):
        return math.isclose(stored, derived, rel_tol=DERIVED_RTOL)
    return stored == derived


def verify_certificate(family: BodyFamily, doc: dict):
    """Re-derive a stored certificate with ``check`` and compare.

    Every derived field (``s``, ``gamma_d``, ``bound_claimed``,
    ``alpha_measured``, ``c_measured``, each derived diagnostic) must match
    the recomputed value: integers, None and strings exactly, floats to the
    relative DERIVED_RTOL, and the stored verdicts must be the recomputed
    ones, all true. The claims themselves (indices, ``z``, payload floats)
    are used as stored, and payload keys that are not claims are ignored.
    ``format``, ``version`` and ``dimension`` must match, and ``m`` must be
    unset or the instance's row count.
    Informational, not compared: ``timing``, ``notes``, ``seed``,
    ``diameter``, the John residuals, and the ``recenter_*``,
    ``chebyshev_radius`` and ``reduction_*`` diagnostics. No verdict is
    informational: a stored verdict ``check`` does not derive is a
    problem. Claims that ``check`` rejects, and support bases or spectra
    that fail their check, are problems too. Returns (ok, list of
    problems).
    """
    try:
        checked = check(family, doc)
    except (CertificateRejected, SolverStall) as exc:
        return False, [str(exc)]
    rows = checked.diagnostics["generators"]
    derived = (
        ("format", FORMAT_NAME, "file format"),
        ("version", __version__, "this hellycert's"),
        ("dimension", family.dim, "the instance's"),
        ("m", None if _field(doc, "m") is None else rows, "constraint rows"),
        ("s", checked.s, "count of selected"),
        ("gamma_d", checked.gamma_d, "the bound's ratio at d"),
        ("bound_claimed", checked.bound_claimed, "the bound"),
        ("alpha_measured", checked.alpha_measured, "containment factor"),
        ("c_measured", checked.c_measured, "alpha / n^1.5"))
    problems = [f"{key}={_field(doc, key)!r} stored, {value!r} expected "
                f"({meaning})" for key, value, meaning in derived
                if not _same(_field(doc, key), value)]
    diagnostics = _object(doc, "diagnostics")
    problems += [f"diagnostics.{key}={_field(diagnostics, key)!r} stored, "
                 f"{value!r} recomputed"
                 for key, value in checked.diagnostics.items()
                 if not _same(_field(diagnostics, key), value)]

    stored, verdicts = _object(doc, "verdicts"), checked.verdicts
    if stored.keys() != verdicts.keys() or any(
            stored[k] is not v for k, v in verdicts.items()):
        problems.append(f"stored verdicts {stored} differ from the "
                        f"recomputed {verdicts}")
    failed = sorted(k for k, ok in verdicts.items() if ok is not True)
    if failed:
        problems.append(f"verdicts fail: {', '.join(failed)}")
    return not problems, problems


def _report_row(doc) -> list:
    try:
        n = int(_field(doc, "dimension"))
        alpha = float(_field(doc, "alpha_measured"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInstance(f"certificate dimension or alpha_measured: "
                              f"{exc}") from exc
    if n < 1:
        raise InvalidInstance(f"certificate dimension {n} is below 1")
    diam = _optional_object(doc, "diameter")
    stages = _optional_object(_optional_object(doc, "timing"), "stages")
    return [
        _field(doc, "mode"), n, doc.get("m", ""),
        doc.get("d", ""), _field(doc, "s"),
        repr(alpha), repr(alpha / math.sqrt(n)), repr(alpha / n ** 1.5),
        all(_object(doc, "verdicts").values()),
        diam.get("selected", ""), diam.get("full", ""),
        diam.get("ratio", ""), stages.get("total", ""),
    ]


def write_report(docs, path) -> None:
    """One CSV row per certificate, stable column order.

    A row repeats the fields its document stores (``s``,
    ``alpha_measured``, the verdicts, the diameters, the total time),
    unchecked: with no instance there is nothing to derive them from, and
    ``verify_certificate`` (``hellycert certify``) is the check. Every row
    is built before the file is opened, so a malformed certificate leaves
    no partial report behind.
    """
    if not docs:
        raise ValueError("no certificates to report on")
    rows = [_report_row(doc) for doc in docs]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        writer.writerows(rows)
