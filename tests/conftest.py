import sys

import numpy as np
import pytest

from hellycert.geometry import (BodyFamily, containment_bases,
                                containment_factor)


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


def walked_alpha(family, selected):
    """alpha as producers take it: walk for the bases, then replay them."""
    return containment_factor(family, selected,
                              containment_bases(family, selected))


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
