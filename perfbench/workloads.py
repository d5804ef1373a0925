"""Seeded instances and the timed operation of each benchmark workload.

Every workload is a fixed instance set built from the workload seed: the
generator seeds are ``seed, seed + 1, ...``, so the same seed always gives the
same inputs. One operation produces a certificate, saves and reloads the
instance and certificate files, and checks the reloaded certificate with
``verify_certificate``. Functions are looked up on their modules at call
time, so a traced run sees every call through its wrappers.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass

import hellycert
import hellycert.io as hio
import hellycert.oracle as oracle
import hellycert.pipeline as pipeline

# kind "select": instances of one generator, produced by select_symmetric or
# select_general. kind "reduce": each part scans generator seeds until `keep`
# instances select more than 2n bodies with every verdict passing; the
# operation reduces those selections to 2n bodies.
WORKLOADS = {
    "sym-n6": {"kind": "select", "mode": "symmetric",
               "n": 6, "count": 100, "instances": 8},
    "gen-n3": {"kind": "select", "mode": "general",
               "n": 3, "count": 8, "instances": 45},
    "reduce-n2n3": {"kind": "reduce", "parts": (
        {"n": 2, "count": 40, "rows_per_body": None, "keep": 2},
        {"n": 3, "count": 10, "rows_per_body": (4, 4), "keep": 1})},
}

# Tiny instances for the benchmark's own tests: seconds, not minutes.
SMOKE = {
    "sym-n6": {"kind": "select", "mode": "symmetric",
               "n": 3, "count": 12, "instances": 2},
    "gen-n3": {"kind": "select", "mode": "general",
               "n": 2, "count": 5, "instances": 2},
    "reduce-n2n3": {"kind": "reduce", "parts": (
        {"n": 2, "count": 40, "rows_per_body": None, "keep": 1},)},
}

SCAN_LIMIT = 200


@dataclass
class Instance:
    ident: str
    gen_seed: int
    family: object
    selection: object = None  # reduce workloads: the setup's selection
    select_s: float | None = None


@dataclass
class OpResult:
    produce_s: float
    roundtrip_s: float
    certify_s: float
    s: int
    alpha: float
    alpha_ratio: float
    digest: str
    problems: list
    stages: dict
    recenter_iters: float
    drops: int


def _generate(mode: str, n: int, count: int, seed: int, rows_per_body=None):
    if mode == "symmetric":
        return oracle.gen_slab_family(n, count, seed)
    return oracle.gen_halfspace_family(n, count, seed,
                                       rows_per_body=rows_per_body)


def build_instances(name: str, spec: dict, seed: int) -> list:
    """The workload's instance set for this seed (deterministic)."""
    if spec["kind"] == "select":
        return [Instance(f"{name}:{spec['mode'][:3]}{spec['n']}:{seed + i}",
                         seed + i,
                         _generate(spec["mode"], spec["n"], spec["count"],
                                   seed + i))
                for i in range(spec["instances"])]
    out = []
    for part in spec["parts"]:
        n, kept, gen_seed = part["n"], 0, seed
        while kept < part["keep"]:
            if gen_seed - seed >= SCAN_LIMIT:
                raise RuntimeError(f"{name}: fewer than {part['keep']} "
                                   f"reducible n={n} instances in "
                                   f"{SCAN_LIMIT} seeds from {seed}")
            fam = _generate("general", n, part["count"], gen_seed,
                            part["rows_per_body"])
            t0 = time.perf_counter()
            sel = pipeline.select_general(fam)
            t1 = time.perf_counter()
            if sel.s > 2 * n and sel.all_pass:
                out.append(Instance(f"{name}:gen{n}:{gen_seed}", gen_seed,
                                    fam, sel, t1 - t0))
                kept += 1
            gen_seed += 1
    return out


def alpha_ratio(cert) -> float:
    """alpha against the paper's scale: gamma_d*sqrt(n) or n^1.5."""
    n = cert.z.shape[0]
    if cert.mode == "symmetric":
        return cert.alpha_measured / (cert.gamma_d * math.sqrt(n))
    return cert.alpha_measured / n ** 1.5


def run_op(inst: Instance, workdir: str, tracer=None) -> OpResult:
    """Produce, round-trip and certify one instance; check every output."""
    fam = inst.family
    problems = []
    span = tracer.span if tracer is not None else (lambda _: nullcontext())

    def timed(label, fn):
        t0 = time.perf_counter()
        with span(label):
            out = fn()
        return out, time.perf_counter() - t0

    if inst.selection is None:
        select = (pipeline.select_symmetric if fam.mode == "symmetric"
                  else pipeline.select_general)
        cert, produce_s = timed("bench.produce", lambda: select(fam))
    else:
        cert, produce_s = timed("bench.produce", lambda: pipeline.reduce_to_2n(
            fam, inst.selection))
        if cert.s != 2 * fam.dim:
            problems.append(f"reduced to s={cert.s}, expected {2 * fam.dim}")
    failed = sorted(k for k, ok in cert.verdicts.items() if not ok)
    if failed:
        problems.append(f"verdicts failed: {','.join(failed)}")
    if not math.isfinite(cert.alpha_measured):
        problems.append("alpha is not finite")

    doc = hio.certificate_to_json(
        cert, hellycert.__version__,
        constraint_count=fam.constraint_matrix()[0].shape[0],
        seed=inst.gen_seed)
    fam_path = os.path.join(workdir, "instance.json")
    cert_path = os.path.join(workdir, "certificate.json")

    def roundtrip():
        hio.save_instance(fam, fam_path)
        hio.save_certificate(doc, cert_path)
        return hio.load_instance(fam_path), hio.load_certificate(cert_path)

    (fam2, doc2), roundtrip_s = timed("bench.roundtrip", roundtrip)
    canon = hio.canonical_certificate_bytes(doc2)
    if canon != hio.canonical_certificate_bytes(doc):
        problems.append("certificate changed in the file round-trip")
    (ok, why), certify_s = timed(
        "bench.certify", lambda: hio.verify_certificate(fam2, doc2))
    if not ok:
        problems.append("certify rejected: " + "; ".join(why))

    if inst.selection is None:
        stages = dict(cert.stages)
        recenter_iters = float(cert.diagnostics.get("recenter_iters", 0))
        drops = 0
    else:
        # a reduced certificate carries the setup's selection stages too
        stages = {"reduce": cert.stages.get("reduce", 0.0)}
        recenter_iters = 0.0
        drops = inst.selection.s - cert.s
    return OpResult(
        produce_s=produce_s, roundtrip_s=roundtrip_s, certify_s=certify_s,
        s=cert.s, alpha=cert.alpha_measured, alpha_ratio=alpha_ratio(cert),
        digest=hashlib.sha256(canon).hexdigest(), problems=problems,
        stages=stages, recenter_iters=recenter_iters, drops=drops)
