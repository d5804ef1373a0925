"""JSON formats, certificate re-verification, report writing."""

import csv
import json

import numpy as np
import pytest

from hellycert import __version__
from hellycert import io as hio
from hellycert.errors import InvalidInstance
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.pipeline import select_general, select_symmetric

from conftest import cube_slab_family


def test_instance_roundtrip_symmetric(tmp_path):
    fam = gen_slab_family(3, count=6, seed=7)
    path = tmp_path / "inst.json"
    hio.save_instance(fam, path)
    back = hio.load_instance(path)
    assert back.mode == "symmetric"
    assert back.dim == 3
    for a, b in zip(fam.bodies, back.bodies):
        np.testing.assert_allclose(a.vectors, b.vectors, rtol=1e-15)


def test_instance_roundtrip_general(tmp_path):
    fam = gen_halfspace_family(2, count=4, seed=1)
    path = tmp_path / "inst.json"
    hio.save_instance(fam, path)
    back = hio.load_instance(path)
    assert back.mode == "general"
    for a, b in zip(fam.bodies, back.bodies):
        np.testing.assert_allclose(a.normals, b.normals, rtol=1e-15)
        np.testing.assert_allclose(a.offsets, b.offsets, rtol=1e-15)


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
