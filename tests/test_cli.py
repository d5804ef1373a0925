"""Command-line surface: subcommands, files, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hellycert
from hellycert import cli, errors, lp, pipeline
from hellycert import io as hio
from hellycert.cli import main
from hellycert.geometry import containment_system, normalize_family
from hellycert.oracle import gen_halfspace_family, gen_slab_family
from hellycert.pipeline import select_symmetric

from conftest import count_calls, walked_supports


def run(args):
    return main([str(a) for a in args])


def test_generate_then_select_then_certify(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run(["gen", "--kind", "sharpness", "--n", 2, "--N", 64, "--seed", 7,
                "--out", inst]) == 0
    assert run(["select-sym", "--in", inst, "--d", 4, "--out", cert]) == 0
    doc = hio.load_certificate(cert)
    assert doc["alpha_measured"] <= 3.0 * math.sqrt(2) * (1 + 1e-5)
    assert run(["certify", "--in", inst, "--cert", cert]) == 0


def test_cube_style_selection(tmp_path):
    inst = tmp_path / "cube2.json"
    inst.write_text(json.dumps({
        "mode": "symmetric", "dimension": 2,
        "bodies": [
            {"id": "b0", "constraints": [{"a": [1.0, 0.0], "c": 1.0}]},
            {"id": "b1", "constraints": [{"a": [0.0, 1.0], "c": 1.0}]},
        ]}))
    cert = tmp_path / "cert.json"
    assert run(["select-sym", "--d", 4, "--in", inst, "--out", cert]) == 0
    doc = hio.load_certificate(cert)
    assert doc["s"] == 2
    assert doc["alpha_measured"] == pytest.approx(1.0, abs=1e-9)
    assert run(["certify", "--in", inst, "--cert", cert]) == 0


def test_general_flow_with_reduce_and_report(tmp_path):
    inst = tmp_path / "hs.json"
    cert = tmp_path / "cert.json"
    red = tmp_path / "reduced.json"
    rep = tmp_path / "report.csv"
    assert run(["gen", "--kind", "halfspace", "--n", 2, "--count", 4,
                "--seed", 3, "--out", inst]) == 0
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    assert run(["reduce", "--in", inst, "--cert", cert, "--out", red]) == 0
    assert run(["report", cert, red, "--out", rep]) == 0
    lines = rep.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("mode,n,m,")


@pytest.mark.parametrize("edit", [
    {"drop": "dimension"}, {"drop": "s"}, {"drop": "verdicts"},
    {"drop": "alpha_measured"}, {"set": ("verdicts", [True])},
    {"set": ("dimension", None)}, {"set": ("timing", [])},
    {"set": ("diameter", 1.0)}, {"set": ("dimension", 0)},
    {"set": ("dimension", float("inf"))}, {"set": ("dimension", "three")}],
    ids=["no-dimension", "no-s", "no-verdicts", "no-alpha", "verdicts-list",
         "dimension-null", "timing-list", "diameter-number", "dimension-0",
         "dimension-inf", "dimension-text"])
def test_report_rejects_malformed_certificate(tmp_path, edit):
    inst = tmp_path / "inst.json"
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    rep = tmp_path / "report.csv"
    hio.save_instance(gen_slab_family(2, 6, seed=1), inst)
    assert run(["select-sym", "--in", inst, "--out", good]) == 0
    doc = hio.load_certificate(good)
    if "drop" in edit:
        del doc[edit["drop"]]
    else:
        key, value = edit["set"]
        doc[key] = value
    hio.save_certificate(doc, bad)
    # the bad certificate comes second, after a row that would be written
    assert run(["report", good, bad, "--out", rep]) == cli.EXIT_INPUT
    assert not rep.exists()


def test_exit_code_verdict_failure(tmp_path):
    # impossible sharpness request: two strips in 3-space stay unbounded
    assert run(["gen", "--kind", "sharpness", "--n", 3, "--N", 2,
                "--seed", 0, "--out", tmp_path / "x.json"]) == 2


def test_exit_code_bad_input(tmp_path):
    assert run(["select-sym", "--in", tmp_path / "missing.json",
                "--out", tmp_path / "c.json"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["select-sym", "--in", bad, "--out", tmp_path / "c.json"]) == 3
    # a constraint without "c", a body that is a list, a constraint that is
    # a list
    for name, body in (
            ("no_c", {"constraints": [{"a": [1.0, 0.0]}]}),
            ("list_body", [{"a": [1.0, 0.0], "c": 1.0}]),
            ("list_constraint", {"constraints": [[1.0, 0.0, 1.0]]})):
        bad.write_text(json.dumps({"mode": "symmetric", "dimension": 2,
                                   "bodies": [body]}))
        assert run(["select-sym", "--in", bad,
                    "--out", tmp_path / "c.json"]) == 3, name
    # a dimension that overflows, has a fraction or is a boolean; the
    # bodies are a valid 3-dimensional family
    text = json.dumps(hio.family_to_json(gen_slab_family(3, 5, seed=1)))
    for value in ("1e400", "3.7", "true"):
        bad.write_text(text.replace('"dimension": 3', f'"dimension": {value}'))
        assert run(["select-sym", "--in", bad,
                    "--out", tmp_path / "c.json"]) == 3, value
    # reduce with a certificate whose timing is not an object
    inst, cert = tmp_path / "hs.json", tmp_path / "hs-cert.json"
    assert run(["gen", "--kind", "halfspace", "--n", 2, "--count", 4,
                "--seed", 3, "--out", inst]) == 0
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    doc = hio.load_certificate(cert)
    doc["timing"] = []
    hio.save_certificate(doc, cert)
    assert run(["reduce", "--in", inst, "--cert", cert,
                "--out", tmp_path / "r.json"]) == 3
    assert not (tmp_path / "r.json").exists()


def test_reduce_rechecks_a_selection_within_2n(tmp_path):
    inst = tmp_path / "hs.json"
    cert = tmp_path / "cert.json"
    red = tmp_path / "reduced.json"
    assert run(["gen", "--kind", "halfspace", "--n", 3, "--count", 8,
                "--seed", 103, "--out", inst]) == 0
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    doc = hio.load_certificate(cert)
    assert doc["s"] <= 6
    alpha = doc["alpha_measured"]
    doc["alpha_measured"] = doc["bound_claimed"] = 0.5
    hio.save_certificate(doc, cert)
    assert run(["certify", "--in", inst, "--cert", cert]) == 2
    # nothing to drop: reduce re-derives the certificate from its claims
    assert run(["reduce", "--in", inst, "--cert", cert, "--out", red]) == 0
    out = hio.load_certificate(red)
    assert out["alpha_measured"] == alpha
    assert out["timing"] == doc["timing"]
    assert out["notes"] == doc["notes"]
    assert (out["diagnostics"]["recenter_iters"]
            == doc["diagnostics"]["recenter_iters"])
    assert run(["certify", "--in", inst, "--cert", red]) == 0


def test_reduce_within_2n_checks_once_and_keeps_the_bytes(tmp_path,
                                                          monkeypatch):
    """Reading the input is the one ``check``; the selection is written
    back as read, so the canonical bytes do not change."""
    inst, cert, red = (tmp_path / f for f in ("hs.json", "cert.json",
                                               "reduced.json"))
    assert run(["gen", "--kind", "halfspace", "--n", 3, "--count", 8,
                "--seed", 103, "--out", inst]) == 0
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    counts = count_calls(monkeypatch, "io.check")
    assert run(["reduce", "--in", inst, "--cert", cert, "--out", red]) == 0
    assert counts == {"io.check": 1}
    assert hio.canonical_certificate_bytes(hio.load_certificate(red)) == (
        hio.canonical_certificate_bytes(hio.load_certificate(cert)))


@pytest.mark.parametrize("command, own, other", [
    ("select-sym", "--d", "--eps"), ("select-gen", "--eps", "--d")])
def test_select_takes_only_its_own_parameter(command, own, other):
    parser = cli.build_parser()
    args = ["--in", "i.json", "--out", "c.json"]
    assert vars(parser.parse_args([command, *args, own, "9"]))[
        own.lstrip("-")] == 9.0
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, *args, other, "9"])
    assert exc.value.code == 2


def test_exit_code_oracle_cap(tmp_path, monkeypatch):
    def no_selection(*args, **kwargs):
        raise AssertionError("selection ran on an instance over the caps")

    # the caps are checked on the full family before any selection runs
    monkeypatch.setattr(cli, "select_symmetric", no_selection)
    monkeypatch.setattr(cli, "select_general", no_selection)
    for command, family in (
            ("select-sym", gen_slab_family(6, count=30, seed=0)),
            ("select-gen", gen_halfspace_family(3, count=12, seed=0))):
        inst = tmp_path / "big.json"
        out = tmp_path / "c.json"
        hio.save_instance(family, inst)
        rc = run([command, "--in", inst, "--out", out, "--exact-oracle"])
        assert rc == 4, command
        assert not out.exists(), command


def test_reduce_exit_code_oracle_cap(tmp_path, capsys):
    # s = 7 bodies of 7 rows: 49 rows, past the oracle's cap of 40 in R^3
    inst = tmp_path / "hs.json"
    cert = tmp_path / "cert.json"
    red = tmp_path / "reduced.json"
    hio.save_instance(gen_halfspace_family(3, 12, 6, rows_per_body=(7, 7)),
                      inst)
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    assert hio.load_certificate(cert)["s"] == 7
    capsys.readouterr()
    assert run(["reduce", "--in", inst, "--cert", cert, "--out", red]) == 4
    assert not red.exists()
    assert capsys.readouterr().err.startswith(
        "OracleTooLarge: reduce: 49 constraints exceed oracle cap 40 in "
        "dimension 3")


def test_reduce_exits_2_on_a_step_past_its_growth_limit(tmp_path, capsys,
                                                        monkeypatch):
    """A greedy step that grows the radius 100-fold, against a limit of
    m/(m - 2n) = 5, stops reduce: exit 2 and no output file."""
    inst = tmp_path / "hs.json"
    cert = tmp_path / "cert.json"
    red = tmp_path / "reduced.json"
    hio.save_instance(gen_halfspace_family(2, 40, seed=102), inst)
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    real = pipeline.cheapest_drop

    def grown(*args):
        whole, body, radius = real(*args)
        return whole, body, radius * 100.0

    monkeypatch.setattr(pipeline, "cheapest_drop", grown)
    capsys.readouterr()
    assert run(["reduce", "--in", inst, "--cert", cert, "--out", red]) == 2
    assert not red.exists()
    err = capsys.readouterr().err
    assert err.startswith("SolverStall: reduce: dropping body 22 of the 5 "
                          "selected"), err


def test_a_strip_is_unbounded_at_the_center(tmp_path, capsys):
    """A general family whose intersection holds a line: the Chebyshev walk
    meets it, so select-gen stops at stage center with UnboundedBody (exit
    3), before any MVEE is asked to span."""
    strip = {"mode": "general", "dimension": 2, "bodies": [
        {"constraints": [{"a": [0.0, 1.0], "c": 1.0}]},
        {"constraints": [{"a": [0.0, -1.0], "c": 1.0}]},
        {"constraints": [{"a": [0.0, 2.0], "c": 1.0}]}]}
    inst, out = tmp_path / "strip.json", tmp_path / "c.json"
    inst.write_text(json.dumps(strip))
    assert run(["select-gen", "--in", inst, "--out", out]) == 3
    assert ("UnboundedBody: center: family does not bound a body"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, kind", [("select-sym", "halfspace"),
                                           ("select-gen", "slab")])
def test_mode_mismatch_fails_before_any_stage(tmp_path, monkeypatch, capsys,
                                              command, kind):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran on an instance of the other mode")

    for name in ("validate_family", "chebyshev_center", "john_decomposition"):
        monkeypatch.setattr(pipeline, name, no_stage)
    inst, out = tmp_path / "inst.json", tmp_path / "c.json"
    assert run(["gen", "--kind", kind, "--n", 2, "--count", 6,
                "--out", inst]) == 0
    assert run([command, "--in", inst, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "InvalidInstance" in err
    assert "symmetric" in err and "general" in err
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("select-sym", "--d", "inf"), ("select-sym", "--d", "1e308"),
    ("select-sym", "--d", "1"), ("select-sym", "--d", "nan"),
    ("select-sym", "--tol", "-1"), ("select-sym", "--tol", "inf"),
    ("select-sym", "--tol", "nan"),
    ("select-gen", "--eps", "0"), ("select-gen", "--eps", "-1"),
    ("select-gen", "--eps", "nan"), ("select-gen", "--eps", "inf"),
    ("select-gen", "--tol", "-1"), ("select-gen", "--tol", "inf"),
    ("select-gen", "--tol", "nan"),
    ("gen", "--margin", "nan"), ("gen", "--margin", "inf")])
def test_exit_code_bad_parameter(tmp_path, capsys, command, option, value):
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    if command == "gen":
        args = ["gen", "--kind", "halfspace", "--n", 2, "--count", 4]
    else:
        hio.save_instance(gen_slab_family(2, 6, seed=1)
                          if command == "select-sym"
                          else gen_halfspace_family(2, 4, seed=3), inst)
        args = [command, "--in", inst]
    assert run([*args, option, value, "--out", out]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    if option == "--tol":
        # not an option: a usage error, which exits 3 like bad input
        assert "unrecognized arguments: --tol" in err
    else:
        assert f"InvalidInstance: {option.lstrip('-')}=" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["select-gen", "--in", "i.json", "--out", "c.json", "--d", "4"],
    ["select-sym", "--in", "i.json", "--out", "c.json", "--d", "four"],
    ["certify", "--in", "i.json"],
    ["no-such-command"]])
def test_usage_errors_exit_3(capsys, args):
    assert run(args) == cli.EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        run([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


def _python(code, cwd, timeout=300):
    src = str(Path(hellycert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("kind, size", [
    ("slab", "n"), ("halfspace", "n"), ("sharpness", "n"),
    ("slab", "count"), ("halfspace", "count"), ("sharpness", "N")])
def test_gen_rejects_sizes_below_one_at_once(tmp_path, kind, size):
    # in a subprocess, so that a generator that keeps drawing fails the
    # test instead of hanging it
    args = ["gen", "--kind", kind, "--n", "2", f"--{size}", "0",
            "--out", "inst.json"]
    out = _python("import sys\nfrom hellycert.cli import main\n"
                  f"sys.exit(main({args!r}))\n", tmp_path, timeout=60)
    assert out.returncode == 3, out.stderr
    assert f"InvalidInstance: {size}=0 is below 1" in out.stderr
    assert not (tmp_path / "inst.json").exists()


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only reference; every subcommand runs on numpy alone
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from hellycert.cli import main\n"
        "for args in (\n"
        "        ['gen', '--kind', 'halfspace', '--n', '2', '--count', '40',\n"
        "         '--seed', '102', '--out', 'hs.json'],\n"
        "        ['select-gen', '--in', 'hs.json', '--out', 'cert.json'],\n"
        "        ['reduce', '--in', 'hs.json', '--cert', 'cert.json',\n"
        "         '--out', 'reduced.json'],\n"
        "        ['certify', '--in', 'hs.json', '--cert', 'reduced.json']):\n"
        "    assert main(args) == 0, args\n")
    out = _python(code, tmp_path)
    assert out.returncode == 0, out.stderr
    assert hio.load_certificate(tmp_path / "reduced.json")["s"] == 4


def test_import_loads_no_scipy(tmp_path):
    out = _python("import sys\n"
                  "import hellycert.cli, hellycert.pipeline\n"
                  "assert 'scipy' not in sys.modules\n", tmp_path)
    assert out.returncode == 0, out.stderr


def test_tampered_certificate_fails_certify(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run(["gen", "--kind", "slab", "--n", 2, "--count", 6, "--seed", 9,
                "--out", inst]) == 0
    assert run(["select-sym", "--in", inst, "--out", cert]) == 0
    doc = json.loads(cert.read_text())
    doc["alpha_measured"] *= 0.25
    cert.write_text(json.dumps(doc))
    assert run(["certify", "--in", inst, "--cert", cert]) == 2


def test_canonical_output_is_stable(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    c1 = tmp_path / "c1.json"
    c2 = tmp_path / "c2.json"
    assert run(["gen", "--kind", "slab", "--n", 2, "--count", 5, "--seed", 4,
                "--out", inst]) == 0
    assert run(["select-sym", "--in", inst, "--out", c1]) == 0
    assert run(["select-sym", "--in", inst, "--out", c2]) == 0
    assert run(["canonical", "--cert", c1]) == 0
    first = capsys.readouterr().out.strip().splitlines()[-1]
    assert run(["canonical", "--cert", c2]) == 0
    second = capsys.readouterr().out.strip().splitlines()[-1]
    assert first == second


def test_seed_recorded_in_certificate(tmp_path):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    assert run(["gen", "--kind", "slab", "--n", 3, "--count", 5, "--seed", 12,
                "--out", inst]) == 0
    assert run(["select-sym", "--in", inst, "--seed", 12, "--out", cert]) == 0
    doc = hio.load_certificate(cert)
    assert doc["seed"] == 12
    assert doc["d"] == 4.0
    assert "parameters" not in doc and "tol" not in doc


def _set_payload(key, value):
    return lambda doc: doc["payload"].update({key: value})


@pytest.mark.parametrize("edit, code", [
    (lambda doc: doc.update(mode="symmetric"), 2),
    (lambda doc: doc.update(dimension=doc["dimension"] + 1), 2),
    (lambda doc: doc.pop("payload"), 3),
    (lambda doc: doc["payload"].update(rho="heavy"), 3),
    # a mistyped index list is bad input; one out of order or range is not
    (lambda doc: doc.update(selected="12"), 3),
    (lambda doc: doc.update(selected=[0.5, 1]), 3),
    (lambda doc: doc.update(selected=[True, 2]), 3),
    (_set_payload("sigma_rows", "3"), 3),
    (_set_payload("tau_rows", [[0], [1]]), 3),
    (_set_payload("support_bases", "0 1 2"), 3),
    (_set_payload("support_bases", [0, 1, 2]), 3),
    (_set_payload("support_bases", [[0, 1, 2.0]]), 3),
    (lambda doc: doc.update(selected=doc["selected"][::-1]), 2),
    (lambda doc: doc["payload"]["support_bases"][0].__setitem__(0, 999), 2),
    (lambda doc: doc["payload"]["support_bases"][0].pop(), 2),
    (lambda doc: doc.update(d=1e6), 2),
], ids=["mode-flipped", "dimension", "payload-missing", "rho-string",
        "selected-string", "selected-fractions", "selected-bool",
        "sigma-rows-string", "tau-rows-nested", "bases-string", "bases-flat",
        "bases-float", "selected-reversed", "bases-out-of-range",
        "bases-short-row", "d-off-the-schedule"])
def test_certify_exit_codes_for_malformed_certificates(tmp_path, edit, code):
    inst = tmp_path / "hs.json"
    cert = tmp_path / "cert.json"
    assert run(["gen", "--kind", "halfspace", "--n", 3, "--count", 4,
                "--seed", 0, "--out", inst]) == 0
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    assert run(["certify", "--in", inst, "--cert", cert]) == 0
    doc = json.loads(cert.read_text())
    edit(doc)
    cert.write_text(json.dumps(doc))
    assert run(["certify", "--in", inst, "--cert", cert]) == code


@pytest.mark.parametrize("command, version", [
    ("certify", "0.5.0"), ("reduce", "0.5.0"),
    ("certify", "0.6.0"), ("reduce", "0.6.0"),
], ids=["certify", "reduce", "certify-0.6.0", "reduce-0.6.0"])
def test_a_format_0_5_0_certificate_exits_3(tmp_path, capsys, command,
                                            version):
    """0.5.0 stored derived copies of the witnesses, and 0.6.0 stored a
    reduced selection's growth verdict without deriving it; this format
    refuses both, and the message names the version found."""
    inst, cert = tmp_path / "hs.json", tmp_path / "cert.json"
    hio.save_instance(gen_halfspace_family(2, 40, seed=102), inst)
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    doc = hio.load_certificate(cert)
    doc["version"] = version
    hio.save_certificate(doc, cert)
    capsys.readouterr()
    extra = ["--out", tmp_path / "reduced.json"] if command == "reduce" else []
    assert run([command, "--in", inst, "--cert", cert, *extra]) == 3
    assert f"format version '{version}'" in capsys.readouterr().err
    assert not (tmp_path / "reduced.json").exists()


def test_certify_requires_support_bases(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    hio.save_instance(gen_slab_family(3, 12, seed=1), inst)
    assert run(["select-sym", "--in", inst, "--out", cert]) == 0
    doc = hio.load_certificate(cert)
    assert doc["version"] == "0.7.0"
    del doc["payload"]["support_bases"]
    hio.save_certificate(doc, cert)
    capsys.readouterr()
    assert run(["certify", "--in", inst, "--cert", cert]) == cli.EXIT_INPUT
    assert "support_bases" in capsys.readouterr().err


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    """Instance and certificate files, each certified: a symmetric one where
    most directions are screened, and a general one."""
    out = {}
    for mode, gen, select in (
            ("symmetric", ["--kind", "slab", "--n", 6, "--count", 100,
                           "--seed", 100], "select-sym"),
            ("general", ["--kind", "halfspace", "--n", 3, "--count", 4,
                         "--seed", 0], "select-gen")):
        root = tmp_path_factory.mktemp(mode)
        inst, cert = root / "inst.json", root / "cert.json"
        assert run(["gen", *gen, "--out", inst]) == 0
        assert run([select, "--in", inst, "--out", cert]) == 0
        assert run(["certify", "--in", inst, "--cert", cert]) == 0
        out[mode] = (inst, json.loads(cert.read_text()))
    return out


def _drop_walked(pick):
    """Drop one walked direction with its basis, chosen from the walked
    directions' (dual bounds, supports, alpha)."""
    def edit(doc, fam):
        beta, support = walked_supports(fam, doc)
        j = pick(beta, support, doc["alpha_measured"])
        del doc["payload"]["support_directions"][j]
        del doc["payload"]["support_bases"][j]
    return edit


def _set_directions(value):
    def edit(doc, fam):
        doc["payload"]["support_directions"] = value(
            doc["payload"]["support_directions"])
    return edit


@pytest.mark.parametrize("mode, edit, code, message", [
    ("symmetric", _drop_walked(lambda beta, support, alpha: next(
        int(j) for j in np.argsort(-beta)
        if beta[j] > alpha and j != np.argmax(support))), 2, "has no basis"),
    ("symmetric", _drop_walked(lambda beta, support, alpha: int(
        np.argmax(support))), 2, "has no basis"),
    ("general", _drop_walked(lambda beta, support, alpha: 0), 2,
     "has no basis"),
    ("symmetric", _set_directions(lambda d: d[::-1]), 2,
     "not strictly increasing"),
    ("symmetric", _set_directions(lambda d: d[:1] + d[:-1]), 2,
     "not strictly increasing"),
    ("symmetric", _set_directions(lambda d: d[:-1] + [10 ** 6]), 2,
     "out of range"),
    ("symmetric", _set_directions(lambda d: []), 2, "is empty"),
    ("symmetric", _set_directions(lambda d: " ".join(map(str, d))), 3,
     "support_directions"),
    ("symmetric", _set_directions(lambda d: [float(j) for j in d]), 3,
     "support_directions"),
    ("symmetric", _set_directions(lambda d: None), 3, "support_directions"),
], ids=["dual-bound-above-alpha", "attaining", "general-missing",
        "reversed", "repeated", "past-the-end", "empty", "string", "floats",
        "null"])
def test_certify_exit_codes_for_screened_directions(
        certified, tmp_path, capsys, mode, edit, code, message):
    inst, doc = certified[mode]
    doc = json.loads(json.dumps(doc))
    edit(doc, hio.load_instance(inst))
    cert = tmp_path / "edited.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["certify", "--in", inst, "--cert", cert]) == code
    assert message in capsys.readouterr().err


def _fallback_family():
    """A general family whose selected Q, normalized at the recentered z,
    has a Stiemke projection with an entry below 0: no closed-form box."""
    return gen_halfspace_family(3, 3, 282, rows_per_body=(6, 10))


def _box_rows(fam, doc):
    """The bases of +e_i, then -e_i, that the box walk proposes for the
    selected Q of a certificate document."""
    target = (fam if fam.mode == "symmetric"
              else normalize_family(fam, doc["z"]))
    G = containment_system(target, doc["selected"])[0]
    return lp.vertex_walk(G, np.vstack([np.eye(fam.dim),
                                        -np.eye(fam.dim)])).basis.tolist()


@pytest.fixture(scope="module")
def box_certificates(tmp_path_factory):
    """A symmetric certificate whose Q has a closed-form box, and the
    fallback one, which stores 2n box bases after the walked ones."""
    root = tmp_path_factory.mktemp("box")
    out = {}
    for name, fam, select in (
            ("closed-form", gen_slab_family(3, 12, seed=1),
             pipeline.select_symmetric),
            ("fallback", _fallback_family(), pipeline.select_general)):
        inst, cert = root / f"{name}.json", root / f"{name}-cert.json"
        hio.save_instance(fam, inst)
        doc = json.loads(json.dumps(hio.certificate_to_json(
            select(fam), hellycert.__version__)))
        cert.write_text(json.dumps(doc))
        assert run(["certify", "--in", inst, "--cert", cert]) == 0
        out[name] = (fam, inst, doc)
    return out


def test_a_q_without_a_closed_form_box_stores_and_certifies_box_rows(
        box_certificates):
    fam, _, doc = box_certificates["fallback"]
    target = normalize_family(fam, doc["z"])
    G = containment_system(target, doc["selected"])[0]
    y = 1.0 - G @ np.linalg.solve(G.T @ G, G.sum(axis=0))
    assert y.min() < 0 and lp.box_bound(G) is None
    payload = doc["payload"]
    assert len(payload["support_bases"]) == (
        len(payload["support_directions"]) + 2 * fam.dim)
    assert payload["support_bases"][-2 * fam.dim:] == _box_rows(fam, doc)
    _, inst, closed = box_certificates["closed-form"]
    assert len(closed["payload"]["support_bases"]) == len(
        closed["payload"]["support_directions"])


def test_certify_refuses_a_0_3_0_certificate(box_certificates, tmp_path,
                                             capsys):
    """A 0.3.0 certificate carries the box bases after the walked ones; it
    is input of another format (exit 3), whether or not its rows check."""
    fam, inst, doc = box_certificates["closed-form"]
    old = json.loads(json.dumps(doc))
    old["payload"]["support_bases"] += _box_rows(fam, doc)
    old["version"] = "0.3.0"
    cert = tmp_path / "old.json"
    cert.write_text(json.dumps(old))
    capsys.readouterr()
    assert run(["certify", "--in", inst, "--cert", cert]) == cli.EXIT_INPUT
    assert "'0.3.0'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "reduce"])
def test_certify_and_reduce_refuse_a_0_4_0_certificate(
        box_certificates, tmp_path, capsys, command):
    """A 0.4.0 certificate claims a tol that widened its own verdicts; it is
    input of another format (exit 3)."""
    _, inst, doc = box_certificates["closed-form"]
    old = {**json.loads(json.dumps(doc)), "version": "0.4.0", "tol": 1e-5,
           "parameters": {"d": 4.0, "tol": 1e-5}}
    cert, out = tmp_path / "old.json", tmp_path / "out.json"
    cert.write_text(json.dumps(old))
    capsys.readouterr()
    assert run([command, "--in", inst, "--cert", cert,
                *(["--out", out] if command == "reduce" else [])]) == 3
    assert "'0.4.0'" in capsys.readouterr().err
    assert not out.exists()


def _with_box_rows(fam, doc, n):
    doc["payload"]["support_bases"] += _box_rows(fam, doc)


def _with_repeated_tail(fam, doc, n):
    doc["payload"]["support_bases"] += doc["payload"]["support_bases"][-n:]


def _without_last_rows(fam, doc, n):
    del doc["payload"]["support_bases"][-n:]


def _with_float_rows(fam, doc, n):
    doc["payload"]["support_bases"] += [[0.0, 1.0, 2.0]] * n


@pytest.mark.parametrize("name, edit, code", [
    ("closed-form", _with_box_rows, 2),
    ("closed-form", _without_last_rows, 2),
    ("closed-form", _with_float_rows, 3),
    ("fallback", _with_repeated_tail, 2),
    ("fallback", _without_last_rows, 2),
    ("fallback", _with_float_rows, 3),
], ids=["extra-box-rows", "missing-rows", "malformed-extra", "fallback-extra",
        "fallback-missing-box", "fallback-malformed-extra"])
def test_certify_rejects_2n_rows_too_many_or_too_few(
        box_certificates, tmp_path, name, edit, code):
    """``certify`` takes exactly one basis per walked direction where Q has
    a closed-form box, and 2n more, the box bases, where it has none."""
    fam, inst, doc = box_certificates[name]
    doc = json.loads(json.dumps(doc))
    edit(fam, doc, 2 * fam.dim)
    cert = tmp_path / "edited.json"
    cert.write_text(json.dumps(doc))
    assert run(["certify", "--in", inst, "--cert", cert]) == code


def _stray_shift_and_w(doc):
    doc["payload"].update(shift=[1.0, 1.0], w=[1.0, 1.0])


def _scale_coefficients(factor, which=slice(None)):
    def edit(doc):
        b = np.array(doc["payload"]["coefficients"])
        b[which] *= factor
        doc["payload"]["coefficients"] = b.tolist()
    return edit


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("edit, code, message", [
    (_stray_shift_and_w, 0, "certificate verified"),
    (_scale_coefficients(1.5, 0), 2, "certificate REJECTED"),
    (_scale_coefficients(0.0), 2, "coefficients sum to 0.0"),
], ids=["stray-shift-and-w", "coefficient-scaled", "coefficients-sum-to-0"])
def test_certify_derives_the_shift_and_w(tmp_path, capsys, edit, code,
                                         message):
    """A general certificate's shift and w are derived from its
    coefficients and rows, never read: stored ones are stray keys, while
    an edited coefficient is rejected, and a coefficient sum that is not
    positive leaves no shift to derive."""
    inst, cert = tmp_path / "hs.json", tmp_path / "cert.json"
    assert run(["gen", "--kind", "halfspace", "--n", 2, "--count", 40,
                "--seed", 102, "--out", inst]) == 0
    assert run(["select-gen", "--in", inst, "--out", cert]) == 0
    doc = json.loads(cert.read_text())
    edit(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["certify", "--in", inst, "--cert", cert]) == code
    assert message in "".join(capsys.readouterr())


# Every error class with the exit code README's "Exit codes" gives it.
EXIT_CODES = {
    "BarrierStuck": 2, "CaratheodoryFailed": 2, "CertificateRejected": 2,
    "JohnExtractionFailed": 2, "SharpnessGenFailed": 2,
    "ShiftCertificateFailed": 2, "SolverStall": 2,
    "DegenerateInterior": 3, "DegenerateSpan": 3, "InvalidInstance": 3,
    "InvalidMatrix": 3, "NotInterior": 3, "UnboundedBody": 3,
    "OracleTooLarge": 4,
}


def _error_classes(base=errors.HellycertError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


@pytest.mark.parametrize("stage", [None, "reduce"])
def test_every_error_class_exits_with_its_documented_code(monkeypatch,
                                                          capsys, stage):
    """Each error class raised out of a command exits with README's code,
    and standard error reads ``<Class>: [<stage>: ]<message>``; a
    ValueError or OSError exits 3 the same way."""
    classes = list(_error_classes())
    assert sorted(cls.__name__ for cls in classes) == sorted(EXIT_CODES)
    raised = [*classes, ValueError, OSError]
    for cls in raised:
        def fail(args, cls=cls):
            exc = cls("boom")
            if stage is not None and hasattr(exc, "stage"):
                exc.stage = stage
            raise exc

        monkeypatch.setattr(cli, "_cmd_canonical", fail)
        code = run(["canonical", "--cert", "c.json"])
        assert code == EXIT_CODES.get(cls.__name__, 3), cls
        err = capsys.readouterr().err
        prefix = (f"{stage}: " if stage and issubclass(
            cls, errors.HellycertError) else "")
        assert err == f"{cls.__name__}: {prefix}boom\n", err


def test_certify_exits_2_on_a_singular_support_basis(tmp_path, capsys):
    """A stored basis holding a slab row and its negation is singular:
    the replay refuses it (exit 2), and says so."""
    fam = gen_slab_family(3, 12, seed=1)
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    hio.save_instance(fam, inst)
    doc = hio.certificate_to_json(select_symmetric(fam), hellycert.__version__)
    Gq = containment_system(fam, doc["selected"])[0]
    twin = int(np.flatnonzero(np.all(Gq == -Gq[0], axis=1))[0])
    third = next(r for r in range(len(Gq)) if r not in (0, twin))
    doc["payload"]["support_bases"][0] = [0, twin, third]
    hio.save_certificate(doc, cert)
    capsys.readouterr()
    assert run(["certify", "--in", inst, "--cert", cert]) == 2
    assert ("support_bases fail their check: a basis is singular"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", [None, [], 3.0],
                         ids=["null", "list", "number"])
def test_certify_names_a_diagnostics_that_is_no_object(certified, tmp_path,
                                                       capsys, value):
    inst, doc = certified["general"]
    cert = tmp_path / "cert.json"
    hio.save_certificate({**doc, "diagnostics": value}, cert)
    capsys.readouterr()
    assert run(["certify", "--in", inst, "--cert", cert]) == 3
    assert capsys.readouterr().err == ("InvalidInstance: certificate field "
                                       "'diagnostics' is not an object\n")


@pytest.fixture(scope="module")
def reducible(tmp_path_factory):
    """gen_halfspace_family(2, 40, 102) and its select-gen certificate, of
    s = 5 > 2n bodies, and a symmetric one of s <= 2n."""
    root = tmp_path_factory.mktemp("reducible")
    out = {}
    for mode, fam, select in (
            ("general", gen_halfspace_family(2, 40, seed=102), "select-gen"),
            ("symmetric", gen_slab_family(3, 12, seed=1), "select-sym")):
        inst, cert = root / f"{mode}.json", root / f"{mode}-cert.json"
        hio.save_instance(fam, inst)
        assert run([select, "--in", inst, "--out", cert]) == 0
        out[mode] = (inst, json.loads(cert.read_text()))
    assert out["general"][1]["s"] == 5
    return out


def _no_drop(monkeypatch):
    def priced(*args):
        raise AssertionError("reduce priced a drop")

    monkeypatch.setattr(pipeline, "cheapest_drop", priced)


def _reduce_and_certify(inst, doc, tmp_path, capsys):
    """(reduce's exit code and stderr, certify's exit code) on ``doc``;
    a refused reduce writes no file."""
    cert, out = tmp_path / "edited.json", tmp_path / "reduced.json"
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["reduce", "--in", inst, "--cert", cert, "--out", out])
    err = capsys.readouterr().err
    assert code == 0 or not out.exists()
    return code, err, run(["certify", "--in", inst, "--cert", cert])


@pytest.mark.parametrize("edit, code", [
    (("diagnostics", "delete"), 0), (("diagnostics", None), 0),
    (("diagnostics", []), 3), (("payload", []), 3), (("payload", None), 3),
], ids=["diagnostics-deleted", "diagnostics-null", "diagnostics-list",
        "payload-list", "payload-null"])
def test_reduce_reads_a_malformed_certificate_without_a_traceback(
        reducible, tmp_path, capsys, edit, code):
    """Diagnostics are information, read as empty when deleted or null;
    anything else that is not an object exits 3 with one line."""
    inst, doc = reducible["general"]
    key, value = edit
    doc = {k: v for k, v in doc.items() if k != key}
    if value != "delete":
        doc[key] = value
    got, err, _ = _reduce_and_certify(inst, doc, tmp_path, capsys)
    assert got == code, err
    if code:
        assert err.startswith("InvalidInstance: certificate field "
                              f"'{key}' is not an object"), err
    else:
        out = tmp_path / "reduced.json"
        assert hio.load_certificate(out)["s"] == 4
        assert run(["certify", "--in", inst, "--cert", out]) == 0


CLAIMS = {
    "general": ["mode", "selected", "z", "d", "eps", "payload",
                "payload.coefficients", "payload.frame",
                "payload.frame_center", "payload.rho", "payload.sigma_rows",
                "payload.support_bases", "payload.support_directions",
                "payload.tau_rows"],
    "symmetric": ["mode", "selected", "z", "d", "eps", "payload",
                  "payload.coefficients", "payload.frame",
                  "payload.frame_center", "payload.sigma_rows",
                  "payload.support_bases", "payload.support_directions"],
}


@pytest.mark.parametrize("mode, claim, edit", [
    (mode, claim, edit) for mode, claims in CLAIMS.items()
    for claim in claims for edit in ("delete", "string")])
def test_reduce_refuses_a_malformed_claim_as_certify_does(
        reducible, tmp_path, capsys, monkeypatch, mode, claim, edit):
    """reduce reads its input through ``check``: a claim deleted or
    replaced by a string exits with certify's code, before any drop is
    priced."""
    inst, doc = reducible[mode]
    doc = json.loads(json.dumps(doc))
    *path, key = claim.split(".")
    where = doc[path[0]] if path else doc
    if edit == "delete":
        del where[key]
    else:
        where[key] = "x"
    _no_drop(monkeypatch)
    code, err, certify_code = _reduce_and_certify(inst, doc, tmp_path,
                                                  capsys)
    assert code in (2, 3) and code == certify_code, err
    assert "Traceback" not in err and err.count("\n") == 1, err


def test_reduce_refuses_support_bases_that_fail_their_replay(
        reducible, tmp_path, capsys, monkeypatch):
    """A selection of more than 2n bodies is not reduced on bases that
    fail their replay: exit 2, as certify, with nothing priced."""
    inst, doc = reducible["general"]
    doc = json.loads(json.dumps(doc))
    basis = doc["payload"]["support_bases"][0]
    basis[0] = basis[1]
    _no_drop(monkeypatch)
    code, err, certify_code = _reduce_and_certify(inst, doc, tmp_path,
                                                  capsys)
    assert code == certify_code == 2
    assert err.startswith("SolverStall: support_bases fail their check"), err
