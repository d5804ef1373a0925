"""Self-tests of the benchmark, on tiny instances and without timing gates.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(workloads.SMOKE)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    seen = set(names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert m["name"] not in seen
        seen.add(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_every_import_site_is_wrapped():
    before = spans.unwrapped_sites()
    assert ("hellycert.geometry", "solve_lp") in before
    assert ("hellycert.pipeline", "solve_lp") in before
    assert ("hellycert.io", "containment_factor") in before
    assert ("hellycert.oracle", "containment_factor") in before
    tracer = spans.Tracer()
    assert tracer.install() == len(before)
    try:
        assert spans.unwrapped_sites() == []
    finally:
        tracer.uninstall()
    assert spans.unwrapped_sites() == before


@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_span_self_times_add_up_to_the_root(workload, tmp_path):
    instances = workloads.build_instances(workload, workloads.SMOKE[workload],
                                          seed=0)
    session = run.Session(str(tmp_path))
    tracer = run.loop(session, instances[:1], seconds=0.0, traced=True)
    assert not session.failures
    got = tracer.spans
    selfs = spans.self_times(got)
    assert all(s.end >= s.start for s in got)
    assert all(v >= 0 for v in selfs)
    roots = [i for i, s in enumerate(got) if s.parent < 0]
    assert [got[i].name for i in roots] == ["op"]
    root = got[roots[0]]
    assert sum(selfs) == root.end - root.start
    wall = [op.wall for op in session.ops if op.traced][0]
    assert root.end - root.start <= wall * 1e9
    names = {s.name for s in got}
    assert {"bench.produce", "bench.roundtrip", "bench.certify",
            "io.verify_certificate"} <= names


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    detail = json.loads(lines[-2])
    prov = detail["provenance"]
    for key in ("git_commit", "src_sha256", "python", "numpy", "scipy",
                "nproc", "blas_threads", "seed"):
        assert key in prov
    assert prov["seed"] == 3
    for row in detail["instances"]:
        assert row["s"] >= 1 and row["alpha"] >= 1.0
        assert re.fullmatch(r"[0-9a-f]{64}", row["digest"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "gen-n3", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
