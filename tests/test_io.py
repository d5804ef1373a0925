"""JSON formats, certificate re-verification, report writing."""

import copy
import csv
import json
import math

import numpy as np
import pytest

from hellycert import __version__, lp
from hellycert import io as hio
from hellycert.errors import InvalidInstance
from hellycert.geometry import normalize_family
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.pipeline import reduce_to_2n, select_general, select_symmetric

from conftest import cube_slab_family


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
    doc = hio.certificate_to_json(cert, __version__, seed=3,
                                  parameters={"d": 4.0})
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
    assert rows[1][cols["eps"]] != ""


# The tamper matrix: one edit per case, over every field of a certificate of
# each mode. Only the informational fields may absorb an edit.
TOP_FIELDS = ("format", "version", "mode", "dimension", "m", "seed",
              "parameters", "selected", "s", "z", "d", "eps", "tol",
              "gamma_d", "bound_claimed", "alpha_measured", "c_measured",
              "notes", "timing")
VERDICTS = {
    "symmetric": ("cardinality", "sandwich", "alpha_within_bound"),
    "general": ("cardinality", "shift_barycenter", "shift_norm", "sum_b",
                "sandwich", "w_norm", "caratheodory", "alpha_finite"),
}
DIAGNOSTICS = {
    "symmetric": ("residual_identity", "frame_radius", "generators",
                  "sigma_size", "lambda_min", "lambda_max", "sandwich_limit",
                  "budget"),
    "general": ("residual_identity", "residual_barycenter",
                "chebyshev_radius", "recenter_offset", "recenter_iters",
                "frame_radius", "generators", "sigma_size",
                "barycenter_residual",
                "shift_norm_bound", "sum_b", "shifted_lo", "shifted_hi",
                "unshifted_lo", "unshifted_hi", "sandwich_window",
                "trace_residual", "w_norm", "cara_residual", "tau_size",
                "union_size", "budget"),
}
PAYLOAD = {
    "symmetric": ("coefficients", "frame", "frame_center", "sigma_rows",
                  "contact_vectors", "support_bases"),
    "general": ("coefficients", "frame", "frame_center", "sigma_rows",
                "contact_vectors", "shift", "w", "rho", "tau_rows",
                "tau_vectors", "support_bases"),
}
WITNESS_VECTORS = ("contact_vectors", "tau_vectors")
INFORMATIONAL = {"seed", "parameters", "notes", "timing",
                 "diagnostics.residual_identity",
                 "diagnostics.residual_barycenter",
                 "diagnostics.chebyshev_radius",
                 "diagnostics.recenter_offset",
                 "diagnostics.recenter_iters"}


def _tamper_cases():
    for mode in ("symmetric", "general"):
        yield from ((mode, f) for f in TOP_FIELDS)
        yield mode, "verdicts={}"
        for k in VERDICTS[mode]:
            yield mode, f"verdicts.{k}:delete"
            yield mode, f"verdicts.{k}:flip"
        yield mode, "verdicts.extra:add"
        yield from ((mode, f"diagnostics.{k}") for k in DIAGNOSTICS[mode])
        for k in PAYLOAD[mode]:
            yield mode, f"payload.{k}"
            if k in WITNESS_VECTORS:
                yield mode, f"payload.{k}:rotate"


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
                                      constraint_count=m, seed=3,
                                      parameters={"tol": 1e-5})
        docs[mode] = (fam, json.loads(json.dumps(doc)))
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
    elif how == "rotate":
        c, s = math.cos(0.01), math.sin(0.01)
        a = np.asarray(where[key])
        a[:, :2] = a[:, :2] @ np.array([[c, -s], [s, c]])
        where[key] = a.tolist()
    else:
        where[key] = _bump(where[key])
    return doc


def test_tamper_matrix_covers_every_field(certificates):
    for mode, (_, doc) in certificates.items():
        assert set(doc) == set(TOP_FIELDS) | {"verdicts", "diagnostics",
                                               "payload"}
        assert set(doc["verdicts"]) == set(VERDICTS[mode])
        assert set(doc["diagnostics"]) == set(DIAGNOSTICS[mode])
        assert set(doc["payload"]) == set(PAYLOAD[mode])


@pytest.mark.parametrize("mode, case", list(_tamper_cases()))
def test_tamper_matrix(certificates, mode, case):
    fam, doc = certificates[mode]
    assert hio.verify_certificate(fam, doc) == (True, [])
    edited = _tamper(copy.deepcopy(doc), case)
    assert edited != doc
    ok, problems = hio.verify_certificate(fam, edited)
    if case.partition(":")[0] in INFORMATIONAL:
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

    def no_walk(G, U, start=None):
        raise AssertionError("certify ran the vertex walk")

    monkeypatch.setattr(lp, "vertex_walk", no_walk)
    assert hio.verify_certificate(fam, copy.deepcopy(doc)) == (True, [])


def _attaining_direction(fam, doc):
    """(index of the direction whose support is alpha, rows of Q)."""
    target = (fam if fam.mode == "symmetric"
              else normalize_family(fam, doc["z"]))
    inside = np.isin(target.owner, doc["selected"])
    Gq, U = target.G[inside], target.G[~inside & ~target.negated]
    bases = np.array(doc["payload"]["support_bases"])
    values = [U[j] @ np.linalg.solve(Gq[bases[j]], np.ones(fam.dim))
              for j in range(len(U))]
    j = int(np.argmax(values))
    assert values[j] == pytest.approx(doc["alpha_measured"], rel=1e-12)
    return j, len(Gq)


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
