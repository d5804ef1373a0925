"""JSON formats, certificate re-verification, report writing."""

import copy
import csv
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hellycert import __version__, geometry, lp, pipeline, sparsify
from hellycert import io as hio
from hellycert.errors import (CaratheodoryFailed, CertificateRejected,
                              InvalidInstance)
from hellycert.geometry import normalize_family
from hellycert.john import TOL_JOHN_DEFAULT
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.pipeline import (caratheodory_express, reduce_to_2n,
                                select_general, select_symmetric)

from conftest import cube_slab_family, derived_witnesses, walked_supports


def test_instance_roundtrip_symmetric(tmp_path):
    fam = gen_slab_family(3, count=6, seed=7)
    path = tmp_path / "inst.json"
    hio.save_instance(fam, path)
    back = hio.load_instance(path)
    assert back.mode == "symmetric"
    assert back.dim == 3
    np.testing.assert_array_equal(fam.owner, back.owner)
    np.testing.assert_allclose(fam.G, back.G, rtol=1e-15)


def test_instance_roundtrip_general(tmp_path):
    fam = gen_halfspace_family(2, count=4, seed=1)
    path = tmp_path / "inst.json"
    hio.save_instance(fam, path)
    back = hio.load_instance(path)
    assert back.mode == "general"
    np.testing.assert_array_equal(fam.owner, back.owner)
    np.testing.assert_allclose(fam.G, back.G, rtol=1e-15)
    np.testing.assert_allclose(fam.h, back.h, rtol=1e-15)


def test_instance_schema_rejections(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "symmetric", "dimension": 2,
                                "bodies": [{"id": "b0", "constraints": [
                                    {"a": [1.0, 0.0], "c": -1.0}]}]}))
    with pytest.raises(InvalidInstance):
        hio.load_instance(path)
    path.write_text(json.dumps({"mode": "diagonal", "dimension": 2,
                                "bodies": []}))
    with pytest.raises(InvalidInstance):
        hio.load_instance(path)
    path.write_text("not json at all")
    with pytest.raises(InvalidInstance):
        hio.load_instance(path)
    # non-numeric and ragged constraint data
    for con in ({"a": ["x", 1.0], "c": 1.0}, {"a": [1.0, 0.0], "c": "one"},
                {"a": [[1.0], 0.0], "c": 1.0}):
        path.write_text(json.dumps({"mode": "general", "dimension": 2,
                                    "bodies": [{"constraints": [con]}]}))
        with pytest.raises(InvalidInstance):
            hio.load_instance(path)


def test_integral_float_dimension_loads():
    doc = hio.family_to_json(gen_slab_family(3, count=4, seed=2))
    back = hio.family_from_json({**doc, "dimension": 3.0})
    assert back.dim == 3 and type(back.dim) is int
    assert hio.family_to_json(back) == doc


def test_symmetric_constraint_scaling():
    fam = gen_slab_family(2, count=3, seed=2)
    doc = hio.family_to_json(fam)
    back = hio.family_from_json(doc)
    g1, h1, _ = fam.constraint_matrix()
    g2, h2, _ = back.constraint_matrix()
    np.testing.assert_allclose(g1, g2, rtol=1e-15)
    np.testing.assert_allclose(h1, h2, rtol=1e-15)


def test_certificate_roundtrip_and_verify(tmp_path):
    fam = gen_slab_family(2, count=8, seed=3)
    cert = select_symmetric(fam, d=4.0)
    doc = hio.certificate_to_json(cert, __version__, seed=3)
    path = tmp_path / "cert.json"
    hio.save_certificate(doc, path)
    back = hio.load_certificate(path)
    ok, problems = hio.verify_certificate(fam, back)
    assert ok, problems
    assert back["version"] == __version__
    assert back["format"] == hio.FORMAT_NAME


def test_verify_flags_tampered_alpha(tmp_path):
    fam = gen_slab_family(2, count=8, seed=3)
    cert = select_symmetric(fam, d=4.0)
    doc = hio.certificate_to_json(cert, __version__)
    doc["alpha_measured"] = 0.5 * doc["alpha_measured"]
    ok, problems = hio.verify_certificate(fam, doc)
    assert not ok
    assert problems


def test_verify_flags_failed_verdicts():
    fam = gen_slab_family(2, count=8, seed=3)
    cert = select_symmetric(fam, d=4.0)
    doc = hio.certificate_to_json(cert, __version__)
    doc["verdicts"]["sandwich"] = False
    ok, _ = hio.verify_certificate(fam, doc)
    assert not ok


@pytest.mark.parametrize("edit", [
    lambda sel: sel + [99],
    lambda sel: sel + [-1],
    lambda sel: sel + sel[:1],
    lambda sel: [],
], ids=["out-of-range", "negative", "duplicate", "empty"])
def test_verify_rejects_bad_selected_list(edit):
    fam = gen_slab_family(2, count=8, seed=3)
    doc = hio.certificate_to_json(select_symmetric(fam, d=4.0), __version__)
    doc["selected"] = edit(doc["selected"])
    ok, problems = hio.verify_certificate(fam, doc)
    assert not ok
    assert len(problems) == 1 and "selected" in problems[0]


@pytest.mark.parametrize("field, value", [
    ("bound_claimed", 0.1), ("gamma_d", 1.0001), ("d", 1000.0)])
def test_verify_rederives_symmetric_bound(field, value):
    fam = gen_slab_family(2, count=8, seed=3)
    doc = hio.certificate_to_json(select_symmetric(fam, d=4.0), __version__)
    assert hio.verify_certificate(fam, doc)[0]
    doc[field] = value
    ok, problems = hio.verify_certificate(fam, doc)
    assert not ok
    assert any("bound" in p for p in problems)


def test_verify_rederives_general_bound():
    fam = gen_halfspace_family(3, count=4, seed=0)
    doc = hio.certificate_to_json(select_general(fam), __version__)
    doc["bound_claimed"] = 0.1
    ok, problems = hio.verify_certificate(fam, doc)
    assert not ok
    assert any("bound_claimed" in p for p in problems)


@pytest.mark.parametrize("mode", ["symmetric", "general"])
@pytest.mark.parametrize("field, value, reason", [
    ("s", 99, "s=99"), ("budget", 1, "budget"), ("d", 0.1, "budget")])
def test_verify_rederives_s_and_budget(mode, field, value, reason):
    if mode == "symmetric":
        fam = gen_slab_family(2, count=8, seed=3)
        cert = select_symmetric(fam, d=4.0)
    else:
        fam = gen_halfspace_family(3, count=4, seed=0)
        cert = select_general(fam)
    doc = hio.certificate_to_json(cert, __version__)
    assert hio.verify_certificate(fam, doc)[0]
    if field == "budget":
        doc["diagnostics"]["budget"] = value
    else:
        doc[field] = value
    ok, problems = hio.verify_certificate(fam, doc)
    assert not ok
    assert any(reason in p for p in problems), problems


def test_verify_general_certificate():
    fam = gen_halfspace_family(3, count=4, seed=0)
    cert = select_general(fam)
    doc = hio.certificate_to_json(cert, __version__)
    ok, problems = hio.verify_certificate(fam, doc)
    assert ok, problems


def test_canonical_bytes_ignore_timing():
    fam = cube_slab_family(2)
    doc1 = hio.certificate_to_json(select_symmetric(fam, d=4.0), __version__)
    doc2 = hio.certificate_to_json(select_symmetric(fam, d=4.0), __version__)
    assert doc1["timing"] != doc2["timing"] or True  # wall times differ freely
    assert hio.canonical_certificate_bytes(doc1) == \
        hio.canonical_certificate_bytes(doc2)


def test_floats_survive_json_roundtrip():
    fam = gen_slab_family(3, count=6, seed=11)
    doc = hio.certificate_to_json(select_symmetric(fam, d=4.0), __version__)
    text = json.dumps(doc)
    again = json.loads(text)
    assert hio.canonical_certificate_bytes(again) == \
        hio.canonical_certificate_bytes(doc)
    assert again["alpha_measured"] == doc["alpha_measured"]


def test_report_columns_and_rows(tmp_path):
    fam = cube_slab_family(2)
    doc = hio.certificate_to_json(select_symmetric(fam, d=4.0), __version__)
    out = tmp_path / "report.csv"
    hio.write_report([doc], out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(hio.REPORT_COLUMNS)
    assert len(rows) == 2
    alpha_col = rows[0].index("alpha")
    assert float(rows[1][alpha_col]) == pytest.approx(1.0, abs=1e-9)


def test_report_blank_diameter_in_bound_mode(tmp_path):
    fam = gen_halfspace_family(5, count=4, seed=4)
    doc = hio.certificate_to_json(select_general(fam), __version__)
    out = tmp_path / "report.csv"
    hio.write_report([doc], out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    cols = {name: i for i, name in enumerate(rows[0])}
    assert rows[1][cols["diam_selected"]] == ""
    assert rows[1][cols["d"]] == "9.0"
    assert "eps" not in cols


# The tamper matrix: one edit per case, over every field of a certificate of
# each mode and of a reduced one. Only the informational fields may absorb
# an edit, and so may the stray keys: the tol and parameters of format
# 0.4.0, the derived payload copies of format 0.5.0 and the eps of format
# 0.7.0, which a document may still carry and check ignores, so they cannot
# widen a verdict.
TOP_FIELDS = ("format", "version", "mode", "dimension", "m", "seed",
              "selected", "s", "z", "d", "gamma_d", "bound_claimed",
              "alpha_measured", "c_measured", "notes", "timing")
STRAY = ("tol", "parameters", "eps", "payload.contact_vectors",
         "payload.tau_vectors", "payload.shift", "payload.w")
VERDICTS = {
    "symmetric": ("cardinality", "sandwich", "alpha_within_bound"),
    "general": ("cardinality", "shift_barycenter", "shift_norm", "sum_b",
                "sandwich", "w_norm", "caratheodory", "alpha_finite"),
}
DIAGNOSTICS = {
    "symmetric": ("residual_identity", "frame_radius", "generators",
                  "sigma_size", "walked_directions", "screened_directions",
                  "lambda_min", "lambda_max", "sandwich_limit", "budget"),
    "general": ("residual_identity", "residual_barycenter",
                "chebyshev_radius", "recenter_offset", "recenter_iters",
                "frame_radius", "generators", "sigma_size",
                "walked_directions", "screened_directions",
                "barycenter_residual",
                "shift_norm_bound", "sum_b", "shifted_lo", "shifted_hi",
                "unshifted_lo", "unshifted_hi", "sandwich_window",
                "trace_residual", "w_norm", "cara_residual", "tau_size",
                "union_size", "budget"),
}
REDUCTION = ("reduction_start_radius", "reduction_final_radius",
             "reduction_cumulative_growth", "reduction_cumulative_bound")
VERDICTS["reduced"] = VERDICTS["general"]
DIAGNOSTICS["reduced"] = DIAGNOSTICS["general"] + REDUCTION
# the claims: a payload holds these and nothing else
PAYLOAD = {
    "symmetric": ("coefficients", "frame", "frame_center", "sigma_rows",
                  "support_directions", "support_bases"),
    "general": ("coefficients", "frame", "frame_center", "sigma_rows",
                "rho", "tau_rows", "support_directions", "support_bases"),
}
PAYLOAD["reduced"] = PAYLOAD["general"]
INFORMATIONAL = {"seed", "notes", "timing",
                 "diagnostics.residual_identity",
                 "diagnostics.residual_barycenter",
                 "diagnostics.chebyshev_radius",
                 "diagnostics.recenter_offset",
                 "diagnostics.recenter_iters",
                 *(f"diagnostics.{k}" for k in REDUCTION)}


def _tamper_cases():
    for mode in ("symmetric", "general", "reduced"):
        yield from ((mode, f) for f in TOP_FIELDS + STRAY)
        yield mode, "verdicts={}"
        for k in VERDICTS[mode]:
            yield mode, f"verdicts.{k}:delete"
            yield mode, f"verdicts.{k}:flip"
        yield mode, "verdicts.extra:add"
        # format 0.6.0 stored this verdict without deriving it
        yield mode, "verdicts.reduction_growth:add"
        yield from ((mode, f"diagnostics.{k}") for k in DIAGNOSTICS[mode])
        yield from ((mode, f"payload.{k}") for k in PAYLOAD[mode])


@pytest.fixture(scope="module")
def certificates():
    docs = {}
    for mode, fam, select in (
            ("symmetric", gen_slab_family(2, count=8, seed=3),
             lambda f: select_symmetric(f, d=4.0)),
            ("general", gen_halfspace_family(3, count=4, seed=0),
             select_general)):
        m = fam.constraint_matrix()[0].shape[0]
        doc = hio.certificate_to_json(select(fam), __version__,
                                      constraint_count=m, seed=3)
        docs[mode] = (fam, json.loads(json.dumps(doc)))
    # the benchmark's first reduce instance: 5 selected bodies, 4 kept
    fam = gen_halfspace_family(2, count=40, seed=102)
    m = fam.constraint_matrix()[0].shape[0]
    doc = hio.certificate_to_json(reduce_to_2n(fam, select_general(fam)),
                                  __version__, constraint_count=m, seed=3)
    docs["reduced"] = (fam, json.loads(json.dumps(doc)))
    return docs


def _bump(value):
    """A same-type edit: flip, step, scale by 1.001 (offset if all zero)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if value is None:
        return 1.0
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, dict):
        return {"edited": True}
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value + ["edited"]
    if isinstance(value, list) and all(isinstance(v, int) for v in value):
        # an index list: swap the last index for the smallest unused one
        fresh = min(set(range(max(value) + 2)) - set(value))
        return sorted(value[:-1] + [fresh])
    if isinstance(value, list) and all(
            isinstance(r, list) and all(isinstance(v, int) for v in r)
            for r in value):
        # support bases: the first basis swaps its last row for the
        # smallest row it does not hold
        first = value[0]
        fresh = min(set(range(max(first) + 2)) - set(first))
        return [first[:-1] + [fresh]] + value[1:]
    a = np.asarray(value, dtype=float)
    return (a * 1.001 if np.any(a != 0.0) else a + 1e-3).tolist()


def _tamper(doc, case):
    target, _, how = case.partition(":")
    if target == "verdicts={}":
        doc["verdicts"] = {}
        return doc
    section, _, key = target.rpartition(".")
    where = doc[section] if section else doc
    if how == "delete":
        del where[key]
    elif how == "add":
        where[key] = True
    else:
        where[key] = _bump(where.get(key))
    return doc


def test_tamper_matrix_covers_every_field(certificates):
    for mode, (_, doc) in certificates.items():
        assert set(doc) == set(TOP_FIELDS) | {"verdicts", "diagnostics",
                                               "payload"}
        assert set(doc["verdicts"]) == set(VERDICTS[mode])
        assert set(doc["diagnostics"]) == set(DIAGNOSTICS[mode])
        assert set(doc["payload"]) == set(PAYLOAD[mode])


@pytest.mark.parametrize("make, select", [
    (lambda: gen_slab_family(2, count=8, seed=3), select_symmetric),
    (lambda: gen_halfspace_family(3, count=4, seed=0), select_general),
    (lambda: gen_halfspace_family(2, count=40, seed=102),
     lambda fam: reduce_to_2n(fam, select_general(fam))),
], ids=["symmetric", "general", "reduced"])
def test_the_payload_holds_the_claims_only(make, select, tmp_path):
    """A selected or reduced certificate's payload keys are its mode's
    claims, in memory, in the JSON document and after a file round trip."""
    fam = make()
    cert = select(fam)
    doc = hio.certificate_to_json(cert, __version__)
    path = tmp_path / "cert.json"
    hio.save_certificate(doc, path)
    loaded = hio.load_certificate(path, version=__version__)
    back = hio.certificate_from_json(fam, loaded)
    for payload in (cert.payload, doc["payload"], loaded["payload"],
                    back.payload):
        assert sorted(payload) == sorted(PAYLOAD[cert.mode])
    assert hio.verify_certificate(fam, loaded) == (True, [])


@pytest.mark.parametrize("mode", ["symmetric", "general", "reduced"])
def test_certificate_from_json_reads_claims_and_information_only(
        certificates, mode):
    """A file is read through ``check``: edited derived fields are not
    read, and its stages, notes and informational diagnostics are kept."""
    fam, doc = certificates[mode]
    edited = copy.deepcopy(doc)
    edited.update(s=99, gamma_d=0.0, bound_claimed=0.5, alpha_measured=0.5,
                  c_measured=0.0, verdicts={"cardinality": False})
    edited["diagnostics"].update(frame_radius=-1.0, budget=0)
    cert, checked = (hio.certificate_from_json(fam, edited),
                     hio.check(fam, doc))
    for f in ("selected", "s", "d", "gamma_d", "bound_claimed",
              "alpha_measured", "c_measured", "verdicts", "payload"):
        assert getattr(cert, f) == getattr(checked, f), f
    assert cert.diagnostics == {**doc["diagnostics"], **checked.diagnostics}
    assert cert.stages == doc["timing"]["stages"]
    assert cert.notes == tuple(doc["notes"])


@pytest.mark.parametrize("key, value, read", [
    ("notes", None, ()), ("notes", "delete", ()), ("notes", "a note", None),
    ("notes", {"a": 1}, None), ("diagnostics", None, {}),
    ("diagnostics", [], None), ("timing", {"stages": None}, {}),
    ("timing", {"stages": [1.0]}, None)])
def test_certificate_from_json_information_is_an_object_or_a_list(
        certificates, key, value, read):
    """Missing or null information reads as empty; any other non-object
    (non-list for the notes) is InvalidInstance."""
    fam, doc = certificates["general"]
    doc = {k: v for k, v in doc.items() if k != key}
    if value != "delete":
        doc[key] = value
    if read is None:
        with pytest.raises(InvalidInstance, match="is not an? (object|list)"):
            hio.certificate_from_json(fam, doc)
        return
    cert = hio.certificate_from_json(fam, doc)
    got = {"notes": cert.notes, "timing": cert.stages,
           "diagnostics": {k: v for k, v in cert.diagnostics.items()
                           if k not in hio.check(fam, doc).diagnostics}}
    assert got[key] == read


@pytest.mark.parametrize("mode, case", list(_tamper_cases()))
def test_tamper_matrix(certificates, mode, case):
    fam, doc = certificates[mode]
    assert hio.verify_certificate(fam, doc) == (True, [])
    edited = _tamper(copy.deepcopy(doc), case)
    assert edited != doc
    ok, problems = hio.verify_certificate(fam, edited)
    if case.partition(":")[0] in INFORMATIONAL or case in STRAY:
        assert ok, problems
    else:
        assert not ok and problems


def test_verify_rejects_general_certificate_on_a_failed_sandwich(
        certificates, monkeypatch):
    fam, doc = certificates["general"]
    assert hio.verify_certificate(fam, copy.deepcopy(doc)) == (True, [])
    real = hio.certify_operator_T

    def forged(*args):
        verdicts, diagnostics = real(*args)
        return {**verdicts, "sandwich": False}, diagnostics

    monkeypatch.setattr(hio, "certify_operator_T", forged)
    ok, problems = hio.verify_certificate(fam, copy.deepcopy(doc))
    assert not ok
    assert "verdicts fail: sandwich" in problems


def test_a_claimed_tol_cannot_widen_the_sandwich():
    """A forged symmetric certificate: coefficient 0 scaled by 1e4, a stray
    tol of 1e6, and the diagnostics and verdicts check derives for it. Its
    sandwich fails whatever tol it carries."""
    fam = gen_slab_family(4, count=40, seed=7)
    doc = json.loads(json.dumps(hio.certificate_to_json(
        select_symmetric(fam), __version__)))
    assert hio.verify_certificate(fam, doc) == (True, [])
    doc["payload"]["coefficients"][0] *= 1e4
    doc["tol"] = 1e6
    forged = hio.certificate_to_json(hio.check(fam, copy.deepcopy(doc)),
                                     __version__)
    doc["diagnostics"].update(forged["diagnostics"])
    doc["verdicts"] = forged["verdicts"]
    assert hio.verify_certificate(fam, doc) == (
        False, ["verdicts fail: sandwich"])


def _recomputed(fam, doc):
    """doc with every field ``check`` derives replaced by its value."""
    fresh = hio.certificate_to_json(hio.check(fam, copy.deepcopy(doc)),
                                    __version__)
    doc["diagnostics"].update(fresh["diagnostics"])
    for key in ("s", "gamma_d", "bound_claimed", "alpha_measured",
                "c_measured", "verdicts"):
        doc[key] = fresh[key]
    return doc


def test_a_general_d_off_the_schedule_is_rejected(monkeypatch):
    """A general d sets only the cardinality budget. d = 1e6, with every
    derived field recomputed for it, claims a budget of 4 000 004; d must
    be a step of D_ESCALATION, so the certificate is rejected."""
    fam = gen_halfspace_family(3, count=8, seed=100)
    doc = json.loads(json.dumps(hio.certificate_to_json(
        select_general(fam), __version__)))
    assert doc["d"] == 9.0 and doc["diagnostics"]["budget"] == 40
    assert hio.verify_certificate(fam, doc) == (True, [])
    doc["d"] = 1e6
    with monkeypatch.context() as patched:
        patched.setattr(hio, "D_ESCALATION", (1e6,), raising=False)
        _recomputed(fam, doc)
    assert doc["diagnostics"]["budget"] == 4_000_004
    assert all(doc["verdicts"].values())
    ok, problems = hio.verify_certificate(fam, doc)
    assert not ok and "not a step of D_ESCALATION" in problems[0]


def test_a_claimed_eps_cannot_widen_the_general_verdicts(monkeypatch):
    """The shifted sparsifier's slack is sparsify.EPS_SHIFT, not a claim.
    A forgery of the gen-n3 seed-100 certificate: coefficients scaled by 3,
    a stored eps of 1000, and tau_rows, rho and every derived field
    recomputed as if the slack were 1000, which an eps claim would make
    verify. It is judged at EPS_SHIFT, and rejected."""
    fam = gen_halfspace_family(3, count=8, seed=100)
    doc = json.loads(json.dumps(hio.certificate_to_json(
        select_general(fam), __version__)))
    payload, slack = doc["payload"], 1000.0
    payload["coefficients"] = [3.0 * c for c in payload["coefficients"]]
    doc["eps"] = slack
    # the shift, and so w = shift / sqrt(slack n), is the coefficients'
    # weighted mean: scaling them leaves it as it was
    shift = derived_witnesses(fam, hio.check(fam, doc))[2]
    norm = normalize_family(fam, np.asarray(doc["z"]))
    framed = ((norm.G - np.asarray(payload["frame_center"]))
              @ np.asarray(payload["frame"]))
    own = np.flatnonzero(np.isin(norm.owner, doc["selected"]))
    tau, rho = caratheodory_express(shift / math.sqrt(slack * fam.dim),
                                    hio._unit_rows(framed, own.tolist()))
    payload.update(tau_rows=own[tau].tolist(), rho=rho.tolist())
    with monkeypatch.context() as patched:
        for module in (hio, sparsify):
            patched.setattr(module, "EPS_SHIFT", slack, raising=False)
        _recomputed(fam, doc)
    assert all(doc["verdicts"].values())
    failed = [k for k, ok in hio.check(fam, doc).verdicts.items() if not ok]
    assert failed == ["sandwich", "caratheodory"]
    ok, problems = hio.verify_certificate(fam, doc)
    assert not ok and problems[-1] == (
        f"verdicts fail: {', '.join(sorted(failed))}")


@pytest.mark.parametrize("mode", ["symmetric", "general", "reduced"])
@pytest.mark.parametrize("eps", [None, 0.5, 1e3, -1.0, math.nan, "x", [1]])
def test_an_eps_key_leaves_check_unchanged(certificates, mode, eps):
    """A document's eps, of any value, is an unknown key: check derives
    the same certificate with it as without it, and it verifies."""
    fam, doc = certificates[mode]
    assert "eps" not in doc
    edited = {**copy.deepcopy(doc), "eps": eps}
    checked = [hio.canonical_certificate_bytes(hio.certificate_to_json(
        hio.check(fam, d), __version__)) for d in (doc, edited)]
    assert checked[0] == checked[1]
    assert hio.verify_certificate(fam, edited) == (True, [])


def test_a_larger_symmetric_d_only_tightens_the_claim(certificates):
    """A symmetric d buys budget only by shrinking gamma_d, and with it the
    sandwich limit and the alpha bound."""
    fam, doc = certificates["symmetric"]
    base = hio.check(fam, copy.deepcopy(doc))
    for d in (doc["d"] * 1.5, doc["d"] * 4, 1e6):
        raised = _recomputed(fam, {**copy.deepcopy(doc), "d": d})
        assert raised["diagnostics"]["budget"] > base.diagnostics["budget"]
        assert raised["gamma_d"] < base.gamma_d
        assert (raised["diagnostics"]["sandwich_limit"]
                < base.diagnostics["sandwich_limit"])
        assert raised["bound_claimed"] < base.bound_claimed


@pytest.mark.parametrize("tol", [None, 0.0, 1e6])
def test_general_sandwich_window_ignores_a_tol_key(certificates, tol):
    fam, doc = certificates["general"]
    doc = copy.deepcopy(doc)
    if tol is not None:
        doc["tol"] = tol
    window = hio.check(fam, copy.deepcopy(doc)).diagnostics["sandwich_window"]
    assert window == 1e-6 + TOL_JOHN_DEFAULT
    assert hio.verify_certificate(fam, doc) == (True, [])


def test_a_general_certificate_without_shift_and_w_certifies(certificates,
                                                             tmp_path):
    """check derives the contact and tau vectors from the rows, the shift
    from the coefficients and the contact vectors, and w from the shift:
    a written certificate stores none of them, and certifies."""
    fam, stored = certificates["general"]
    path = tmp_path / "cert.json"
    hio.save_certificate(hio.certificate_to_json(
        select_general(fam), __version__, constraint_count=stored["m"],
        seed=3), path)
    doc = hio.load_certificate(path, version=__version__)
    assert not {"contact_vectors", "tau_vectors", "shift",
                "w"} & set(doc["payload"])
    assert hio.verify_certificate(fam, doc) == (True, [])


@pytest.mark.parametrize("key", ["shift", "w", "contact_vectors"])
def test_verify_ignores_a_stray_copy_but_not_an_edited_claim(certificates,
                                                              key):
    """A derived copy that a document still stores, edited or not, is an
    unknown key; a coefficient scaled by 1.5 is still rejected."""
    fam, doc = certificates["general"]
    vecs, _, shift, w = derived_witnesses(fam, hio.check(fam, doc))
    stray = copy.deepcopy(doc)
    stray["payload"][key] = (1.5 * dict(
        shift=shift, w=w, contact_vectors=vecs)[key]).tolist()
    assert hio.verify_certificate(fam, stray) == (True, [])
    stray["payload"]["coefficients"][0] *= 1.5
    ok, problems = hio.verify_certificate(fam, stray)
    assert not ok and problems


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_check_rejects_coefficients_without_a_positive_sum(certificates,
                                                           scale):
    fam, doc = certificates["general"]
    edited = copy.deepcopy(doc)
    edited["payload"]["coefficients"] = [
        scale * b for b in doc["payload"]["coefficients"]]
    with pytest.raises(CertificateRejected, match="coefficients sum to"):
        hio.check(fam, edited)


def _barycentric_with_a_negative_weight(taus, w):
    """(rows, weights): n + 1 rows holding w with one negative weight."""
    n = len(w)
    for rows in itertools.combinations(range(len(taus)), n + 1):
        lifted = np.vstack([taus[list(rows)].T, np.ones(n + 1)])
        if abs(np.linalg.det(lifted)) > 1e-3:
            rho = np.linalg.solve(lifted, np.append(w, 1.0))
            if rho.min() < -1e-3:
                return list(rows), rho
    raise AssertionError("every simplex of the rows holds w")


@pytest.mark.parametrize("case", ["residual", "rows", "negative", "sum"])
def test_one_caratheodory_rule_for_check_and_the_producer(
        certificates, case, monkeypatch):
    """A residual of 2e-9, n + 2 rows, a negative weight and weights summing
    to 1 + 1e-11 each fail ``io.caratheodory_holds``, and so both the
    ``caratheodory`` verdict and, where the producer can reach the case,
    its acceptance."""
    fam, doc = certificates["general"]
    n, payload = doc["dimension"], doc["payload"]
    _, taus, _, w = derived_witnesses(fam, hio.check(fam, doc))
    rho = np.asarray(payload["rho"])
    assert hio.caratheodory_holds(taus, rho, w)[0]
    rows = payload["tau_rows"]
    if case == "residual":
        t = 2e-9 / np.linalg.norm(taus[0] - taus[1])
        rho = rho + t * (np.eye(len(rho))[0] - np.eye(len(rho))[1])
    elif case == "rows":
        weights = dict(zip(rows, rho))
        spare = [r for r in range(doc["m"]) if r not in weights]
        rows = sorted(rows + spare[:n + 2 - len(rows)])
        rho = np.array([weights.get(r, 0.0) for r in rows])
    elif case == "negative":
        everything = hio.check(fam, {**doc, "payload": {
            **payload, "tau_rows": list(range(doc["m"])),
            "rho": [0.0] * doc["m"]}})
        rows, rho = _barycentric_with_a_negative_weight(
            derived_witnesses(fam, everything)[1], w)
    else:
        rho = rho * (1.0 + 1e-11)
    edited = copy.deepcopy(doc)
    edited["payload"].update(tau_rows=rows, rho=rho.tolist())
    checked = hio.check(fam, edited)
    _, taus, _, w = derived_witnesses(fam, checked)
    assert not hio.caratheodory_holds(taus, rho, w)[0]
    assert {k for k, ok in checked.verdicts.items() if not ok} == {
        "caratheodory"}
    if case == "residual":
        assert checked.diagnostics["cara_residual"] == pytest.approx(
            2e-9, rel=1e-6)
        # a forged basis {1, 2} for v0 = row 0 misses w = (0, -2e-9) by
        # 2e-9; the other cases are out of the producer's reach, since its
        # weights are the positive ones of a basis of n rows and row 0,
        # normalized to sum 1
        pts = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        monkeypatch.setattr(pipeline, "solve_lp",
                            lambda G, U: (np.array([[1, 2]]), None))
        with pytest.raises(CaratheodoryFailed,
                           match="witness residual 2.000e-09"):
            caratheodory_express(np.array([0.0, -2e-9]), pts)


@pytest.mark.parametrize("kind", ["symmetric", "general", "reduced"])
def test_certify_never_walks(certificates, kind, monkeypatch):
    if kind == "reduced":
        fam = gen_halfspace_family(2, count=40, seed=102)
        selection = select_general(fam)
        cert = reduce_to_2n(fam, selection)
        assert selection.s > cert.s == 4
        doc = json.loads(json.dumps(hio.certificate_to_json(cert,
                                                            __version__)))
    else:
        fam, doc = certificates[kind]

    def no_walk(G, U):
        raise AssertionError("certify ran the vertex walk")

    monkeypatch.setattr(lp, "vertex_walk", no_walk)
    assert hio.verify_certificate(fam, copy.deepcopy(doc)) == (True, [])


@pytest.mark.parametrize("kind", ["symmetric", "general"])
def test_certify_builds_the_containment_system_once(certificates, kind,
                                                    monkeypatch):
    fam, doc = certificates[kind]
    real, calls = geometry.containment_system, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "containment_system", counted)
    monkeypatch.setattr(hio, "containment_system", counted, raising=False)
    assert hio.verify_certificate(fam, copy.deepcopy(doc)) == (True, [])
    assert len(calls) == 1


def _attaining_direction(fam, doc):
    """(position in support_bases of the direction whose support is alpha,
    rows of Q)."""
    support = walked_supports(fam, doc)[1]
    j = int(np.argmax(support))
    assert support[j] == pytest.approx(doc["alpha_measured"], rel=1e-12)
    target = (fam if fam.mode == "symmetric"
              else normalize_family(fam, doc["z"]))
    return j, int(np.isin(target.owner, doc["selected"]).sum())


def _edit_row(bases, j, m):
    bases[j][0] = min(set(range(m)) - set(bases[j]))
    return bases


def _swap(bases, j, m):
    i = next(i for i, b in enumerate(bases) if set(b) != set(bases[j]))
    bases[i], bases[j] = bases[j], bases[i]
    return bases


def _set_first(value):
    def edit(bases, j, m):
        bases[j][0] = value(bases[j], m)
        return bases
    return edit


@pytest.mark.parametrize("mode", ["symmetric", "general"])
@pytest.mark.parametrize("forge", [
    _edit_row, _swap, _set_first(lambda b, m: m),
    _set_first(lambda b, m: -1), _set_first(lambda b, m: b[1]),
    lambda bases, j, m: bases[:j] + bases[j + 1:],
    lambda bases, j, m: None,
], ids=["edited-row", "swapped", "out-of-range", "negative", "repeated",
        "missing-direction", "null"])
def test_verify_rejects_forged_support_bases(certificates, mode, forge):
    fam, doc = certificates[mode]
    j, m = _attaining_direction(fam, doc)
    edited = copy.deepcopy(doc)
    payload = edited["payload"]
    payload["support_bases"] = forge(payload["support_bases"], j, m)
    assert edited != doc
    ok, problems = hio.verify_certificate(fam, edited)
    # null bases claim alpha = +inf, which contradicts the stored alpha
    want = ("alpha_measured" if payload["support_bases"] is None
            else "support_bases")
    assert not ok and any(want in p for p in problems), problems


@pytest.fixture(scope="module")
def screened():
    """A symmetric certificate where most family directions are screened."""
    fam = gen_slab_family(6, 100, seed=100)
    doc = hio.certificate_to_json(select_symmetric(fam), __version__)
    doc = json.loads(json.dumps(doc))
    walked = doc["diagnostics"]["walked_directions"]
    assert 0 < walked < doc["diagnostics"]["screened_directions"]
    return fam, doc


def _drop_walked(doc, j):
    del doc["payload"]["support_directions"][j]
    del doc["payload"]["support_bases"][j]
    return doc


def _above_alpha(beta, support, alpha):
    """A walked direction whose dual bound exceeds alpha and whose support
    does not set it."""
    return next(int(j) for j in np.argsort(-beta)
                if beta[j] > alpha and j != np.argmax(support))


@pytest.mark.parametrize("pick", [
    _above_alpha, lambda beta, support, alpha: int(np.argmax(support))],
    ids=["dual-bound-above-alpha", "attaining"])
def test_verify_rejects_a_dropped_walked_direction(screened, pick):
    fam, doc = screened
    assert hio.verify_certificate(fam, doc) == (True, [])
    beta, support = walked_supports(fam, doc)
    j = pick(beta, support, doc["alpha_measured"])
    assert beta[j] > doc["alpha_measured"]
    ok, problems = hio.verify_certificate(
        fam, _drop_walked(copy.deepcopy(doc), j))
    assert not ok and "has no basis" in problems[0], problems


def test_verify_rejects_a_general_certificate_missing_a_direction(
        certificates):
    fam, doc = certificates["general"]
    for j in range(len(doc["payload"]["support_directions"])):
        ok, problems = hio.verify_certificate(
            fam, _drop_walked(copy.deepcopy(doc), j))
        assert not ok and "has no basis" in problems[0], problems


@pytest.mark.parametrize("edit, reason", [
    (lambda d: d[::-1], "not strictly increasing"),
    (lambda d: d[:1] + d[:-1], "not strictly increasing"),
    (lambda d: d[:-1] + [10 ** 6], "out of range"),
    (lambda d: [-1] + d[1:], "out of range"),
    (lambda d: [], "is empty"),
], ids=["reversed", "repeated", "past-the-end", "negative", "empty"])
def test_verify_rejects_bad_support_directions(screened, edit, reason):
    fam, doc = screened
    edited = copy.deepcopy(doc)
    payload = edited["payload"]
    payload["support_directions"] = edit(payload["support_directions"])
    ok, problems = hio.verify_certificate(fam, edited)
    assert not ok and len(problems) == 1, problems
    assert problems[0].startswith("support_directions ") and reason in (
        problems[0])


def test_no_family_direction_takes_no_basis():
    """With every body selected there is no direction: the empty list is
    the only one accepted, and alpha is 1."""
    fam = cube_slab_family(2)
    cert = select_symmetric(fam, d=4.0)
    assert cert.selected == (0, 1) and cert.alpha_measured == 1.0
    doc = json.loads(json.dumps(hio.certificate_to_json(cert, __version__)))
    assert doc["payload"]["support_directions"] == []
    assert hio.verify_certificate(fam, doc) == (True, [])
    doc["payload"]["support_directions"] = [0]
    assert not hio.verify_certificate(fam, doc)[0]


def _nudged(fn, ulps=3):
    """fn with every array it returns scaled by 1 + ulps eps: a stand-in for
    another LAPACK build."""
    factor = 1.0 + ulps * np.finfo(float).eps

    def nudged(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return type(out)(*(part * factor for part in out))
        return out * factor
    return nudged


@pytest.mark.parametrize("mode", ["symmetric", "general", "screened"])
def test_certificate_verifies_after_a_few_ulps_of_drift(
        certificates, screened, mode, monkeypatch):
    fam, doc = screened if mode == "screened" else certificates[mode]
    monkeypatch.setattr(np.linalg, "eigh", _nudged(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "solve", _nudged(np.linalg.solve))
    drifted = hio.check(fam, copy.deepcopy(doc))
    assert drifted.alpha_measured != doc["alpha_measured"]
    assert drifted.diagnostics["lambda_max" if mode != "general"
                               else "shifted_hi"] != doc["diagnostics"][
        "lambda_max" if mode != "general" else "shifted_hi"]
    assert hio.verify_certificate(fam, copy.deepcopy(doc)) == (True, [])


DERIVED_FLOATS = ("gamma_d", "bound_claimed", "alpha_measured", "c_measured")


@pytest.mark.parametrize("mode", ["symmetric", "general"])
def test_verify_rejects_a_small_edit_of_each_derived_float(certificates,
                                                           mode):
    """1e-6 relative is far above another build's rounding, and far below
    any edit that could change a verdict. An exact zero, which a relative
    edit leaves as it is, gets 1e-6 added."""
    fam, doc = certificates[mode]
    fields = [(None, k) for k in DERIVED_FLOATS
              if isinstance(doc[k], float)]
    fields += [("diagnostics", k) for k, v in doc["diagnostics"].items()
               if isinstance(v, float)
               and f"diagnostics.{k}" not in INFORMATIONAL]
    assert len(fields) >= (7 if mode == "symmetric" else 16)
    for section, key in fields:
        edited = copy.deepcopy(doc)
        where = edited[section] if section else edited
        where[key] = where[key] * (1.0 + 1e-6) if where[key] else 1e-6
        ok, problems = hio.verify_certificate(fam, edited)
        assert not ok and any(f"{key}=" in p for p in problems), (key,
                                                                 problems)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["symmetric", "general"]), data=st.data(),
       scale=st.floats(-12.0, 3.0), sign=st.sampled_from([-1.0, 1.0]))
def test_derived_float_edits_are_judged_by_their_size(certificates, mode,
                                                      data, scale, sign):
    """A relative edit of a derived float is accepted when it is at most
    DERIVED_RTOL and rejected from 10 times that on. An exact zero is
    edited by adding the size, and rejected at any size."""
    size = 10.0 ** scale
    fam, doc = certificates[mode]
    keys = [k for k, v in doc["diagnostics"].items() if isinstance(v, float)
            and f"diagnostics.{k}" not in INFORMATIONAL]
    key = data.draw(st.sampled_from(["alpha_measured", *keys]))
    edited = copy.deepcopy(doc)
    where = edited if key == "alpha_measured" else edited["diagnostics"]
    value = where[key]
    where[key] = value * (1.0 + sign * size) if value else sign * size
    ok = hio.verify_certificate(fam, edited)[0]
    if not value:
        assert not ok
    elif size <= hio.DERIVED_RTOL / 2:
        assert ok
    elif size >= 10 * hio.DERIVED_RTOL:
        assert not ok


def _pyify_recursive(obj):
    """``io._pyify`` as it was before its ndarray fast path: every element
    of every array goes back through it."""
    if isinstance(obj, dict):
        return {str(k): _pyify_recursive(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify_recursive(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _pyify_recursive(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.uint8,
                                   np.uint64, np.float16, np.float32, float])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3), (0,), (0, 3)])
def test_pyify_of_an_array_is_the_recursive_form(dtype, shape):
    a = (np.arange(int(np.prod(shape))) % 3).reshape(shape).astype(dtype)
    # repr tells 1, 1.0 and True apart, and numpy scalars from Python's
    assert repr(hio._pyify({"a": a})) == repr(_pyify_recursive({"a": a}))


def test_pyify_of_an_object_array_is_the_recursive_form():
    a = np.array([np.float32(0.5), np.int16(3), np.bool_(True), "x",
                  np.arange(2)], dtype=object)
    got = hio._pyify(a)
    assert repr(got) == repr(_pyify_recursive(a))
    assert got == [0.5, 3, True, "x", [0, 1]]
