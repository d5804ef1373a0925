import math
import sys

import numpy as np
import pytest

from hellycert import lp
from hellycert.geometry import (BodyFamily, containment_system,
                                normalize_family)
from hellycert.lp import check_support, dual_bounds, walk_bases


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


def record_walks(monkeypatch, key=len):
    """``key(U)`` of the directions U of every ``lp.vertex_walk`` call, in
    call order, while the walk itself runs as before."""
    real, calls = lp.vertex_walk, []

    def recorded(G, U):
        calls.append(key(U))
        return real(G, U)

    monkeypatch.setattr(lp, "vertex_walk", recorded)
    return calls


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


def plane_fan_family(count=100):
    """count equally spaced unit slabs in the plane."""
    theta = np.linspace(0.0, np.pi, count, endpoint=False)
    return BodyFamily.from_blocks(
        "symmetric", 2, [np.array([[np.cos(t), np.sin(t)]]) for t in theta])
