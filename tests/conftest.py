import itertools
import math
import re
import sys

import numpy as np
import pytest

from hellycert import io as hio
from hellycert import lp
from hellycert.errors import OracleTooLarge
from hellycert.geometry import (BodyFamily, containment_bases,
                                containment_factor, containment_system,
                                normalize_family)
from hellycert.lp import check_support, dual_bounds, walk_bases
from hellycert.oracle import gen_halfspace_family
from hellycert.sparsify import EPS_SHIFT

MAX_SUBSETS = 200_000


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(lines):
        terminalreporter.write_line(lines[key])


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


def unit_rows(generator, m, n):
    """m random unit vectors as rows, rejection-free."""
    raw = generator.standard_normal((m, n))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def fan_through_corner(rng, n, count):
    """The cube plus count rows tight at its corner (1, ..., 1), then every
    third row again: a degenerate vertex with duplicated rows."""
    v = np.ones(n)
    w = 0.3 * rng.standard_normal((count, n))
    w -= np.outer(w @ v, v) / n
    G = np.vstack([np.eye(n), -np.eye(n), v / n + w])
    return np.vstack([G, G[::3]])


def twin_slab_family(n, count, seed):
    """count random slabs in R^n, then exact twins of the first count // 4
    (at least one), then those twins tilted by 1e-6: duplicated and
    near-parallel slabs."""
    rng = np.random.default_rng(seed)
    rows = unit_rows(rng, count, n) / rng.uniform(0.3, 1.5, (count, 1))
    twins = rows[:max(1, count // 4)]
    tilted = twins + 1e-6 * unit_rows(rng, len(twins), n)
    return BodyFamily.from_blocks(
        "symmetric", n, [r[None] for r in np.vstack([rows, twins, tilted])])


def walked_alpha(family, selected):
    """The reference alpha: walk every family direction, with no dual
    bound screening any out, and replay every basis."""
    Gq, U = containment_system(family, selected)
    if not len(U):
        return 1.0
    walk = walk_bases(Gq, U)
    if walk is None:
        return math.inf
    assert len(walk[0]) == len(U)
    return max(1.0, check_support(Gq, U, walk[1], lp.box_bound(Gq)))


def best_subset_bruteforce(family, s: int):
    """Exact minimum containment factor over all size-s subfamilies, each
    walked by ``containment_bases`` and replayed by ``containment_factor``
    as a producer's is."""
    k = len(family)
    if s > k:
        raise ValueError(f"subset size {s} exceeds family size {k}")
    total = math.comb(k, s)
    if total > MAX_SUBSETS:
        raise OracleTooLarge(
            f"binom({k},{s}) = {total} subsets exceed cap {MAX_SUBSETS}")
    best_alpha = math.inf
    best = None
    for combo in itertools.combinations(range(k), s):
        alpha = containment_factor(family, combo,
                                   containment_bases(family, combo))
        if alpha < best_alpha - 1e-15:
            best_alpha = alpha
            best = combo
    return best_alpha, best


def derived_witnesses(family, cert):
    """(contact vectors, tau vectors, shift, w) of a SelectionCertificate,
    derived from its claims as ``io.check`` derives them: the unit framed
    rows, the shift -sum b v / sum b and w = shift / sqrt(EPS_SHIFT n).
    The tau vectors, shift and w are None in symmetric mode."""
    payload = cert.payload
    target = (family if cert.mode == "symmetric"
              else normalize_family(family, cert.z))
    framed = ((target.G - np.asarray(payload["frame_center"]))
              @ np.asarray(payload["frame"]))
    vecs = hio._unit_rows(framed, list(payload["sigma_rows"]))
    if cert.mode == "symmetric":
        return vecs, None, None, None
    coef = np.asarray(payload["coefficients"], dtype=float)
    shift = -(coef @ vecs) / coef.sum()
    return (vecs, hio._unit_rows(framed, list(payload["tau_rows"])), shift,
            shift / math.sqrt(EPS_SHIFT * family.dim))


def chain_steps(notes):
    """(growth, limit) of each ``dropped body`` note of a reduced
    certificate, in drop order."""
    steps = [re.search(r"\(growth ([0-9.]+), limit ([0-9.]+)\)$", note)
             for note in notes if note.startswith("dropped body")]
    return [(float(m[1]), float(m[2])) for m in steps]


def record_walks(monkeypatch, key=len):
    """``key(U)`` of the directions U of every ``lp.vertex_walk`` call, in
    call order, while the walk itself runs as before."""
    real, calls = lp.vertex_walk, []

    def recorded(G, U):
        calls.append(key(U))
        return real(G, U)

    monkeypatch.setattr(lp, "vertex_walk", recorded)
    return calls


def count_calls(monkeypatch, *names):
    """{name: calls so far} of each "module.function" of hellycert, counted
    wherever a hellycert module holds the function, while it runs as
    before."""
    counts = {}
    for qualified in names:
        module, name = qualified.split(".")
        real = getattr(sys.modules[f"hellycert.{module}"], name)

        def counted(*args, real=real, key=qualified, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        counts[qualified] = 0
        for held in [mod for mod_name, mod in sys.modules.items()
                     if mod_name.startswith("hellycert.")]:
            if getattr(held, name, None) is real:
                monkeypatch.setattr(held, name, counted)
    return counts


def walked_supports(family, doc):
    """(dual bounds, supports at the stored bases) of the walked directions
    of a certificate document, in payload order; the dual bounds are +inf
    in a general family."""
    target = (family if family.mode == "symmetric"
              else normalize_family(family, doc["z"]))
    Gq, U = containment_system(target, doc["selected"])
    walked = doc["payload"]["support_directions"]
    bases = np.array(doc["payload"]["support_bases"])[:len(walked)]
    x = np.linalg.solve(Gq[bases], np.ones((len(walked), family.dim, 1)))
    support = np.einsum("ij,ij->i", U[walked], x[:, :, 0])
    beta = (dual_bounds(Gq, U, lp.box_bound(Gq))[walked]
            if family.mode == "symmetric"
            else np.full(len(walked), math.inf))
    return beta, support


def cube_slab_family(n):
    """The cube [-1,1]^n as n coordinate slabs."""
    eye = np.eye(n)
    return BodyFamily.from_blocks(
        "symmetric", n, [eye[i:i + 1] for i in range(n)])


def cube_halfspace_family(n):
    """The cube [-1,1]^n as 2n single-halfspace bodies."""
    rows = np.vstack([np.eye(n), -np.eye(n)])
    return BodyFamily.from_blocks(
        "general", n, [(rows[i:i + 1], np.array([1.0])) for i in range(2 * n)])


def simplex_family(n):
    """Regular simplex in R^n as n+1 unit-normal halfspace bodies at offset 1."""
    centering = np.eye(n + 1) - np.ones((n + 1, n + 1)) / (n + 1)
    _, _, vt = np.linalg.svd(centering)
    basis = vt[:n].T
    normals = basis / np.linalg.norm(basis, axis=1, keepdims=True)
    return BodyFamily.from_blocks(
        "general", n,
        [(normals[i:i + 1], np.array([1.0])) for i in range(n + 1)])


def thin_slab_family(n, seed, width):
    """gen_halfspace_family(n, 5, seed) and one slab body {a.x <= 0.4
    width, -a.x <= 0.6 width}, a the unit normal drawn from seed: an
    inradius of at most width / 2."""
    fam = gen_halfspace_family(n, 5, seed)
    a = np.random.default_rng(seed).standard_normal(n)
    a /= np.linalg.norm(a)
    blocks = [(fam.G[fam.owner == j], fam.h[fam.owner == j])
              for j in range(len(fam))]
    blocks.append((np.array([a, -a]), np.array([0.4, 0.6]) * width))
    return BodyFamily.from_blocks("general", n, blocks)


def plane_fan_family(count=100):
    """count equally spaced unit slabs in the plane."""
    theta = np.linspace(0.0, np.pi, count, endpoint=False)
    return BodyFamily.from_blocks(
        "symmetric", 2, [np.array([[np.cos(t), np.sin(t)]]) for t in theta])
