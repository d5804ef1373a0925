"""Body families, normalization, polar generators and containment factors.

A family is a list of convex bodies in one of two modes. ``symmetric`` bodies
are intersections of centered slabs |<x, w>| <= 1, stored by their vectors w.
``general`` bodies are intersections of halfspaces <a, x> <= c. Most of the
pipeline works on normalized general families where every offset is 1, i.e.
the origin is strictly inside every body.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInterior, NotInterior, UnboundedBody
from .lp import LinearProgram, OPTIMAL, UNBOUNDED, max_support, solve_lp

SYMMETRIC = "symmetric"
GENERAL = "general"
INTERIOR_MARGIN = 1e-7


@dataclass(frozen=True)
class SlabBody:
    """Intersection of slabs |<x, w_k>| <= 1 for the rows w_k of vectors."""

    index: int
    vectors: np.ndarray
    body_id: str = ""

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        v = np.atleast_2d(v)
        if not np.all(np.isfinite(v)):
            raise ValueError("slab vectors must be finite")
        if np.any(np.linalg.norm(v, axis=1) == 0.0):
            raise ValueError("slab vector must be nonzero")
        object.__setattr__(self, "vectors", v)

    def constraint_rows(self):
        return np.vstack([self.vectors, -self.vectors]), np.ones(
            2 * self.vectors.shape[0])


@dataclass(frozen=True)
class HalfspaceBody:
    """Intersection of halfspaces <a_k, x> <= c_k."""

    index: int
    normals: np.ndarray
    offsets: np.ndarray
    body_id: str = ""

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        c = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if a.shape[0] != c.shape[0]:
            raise ValueError("normals and offsets disagree in length")
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise ValueError("halfspace data must be finite")
        if not (a * a).sum(axis=1).all():
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", c)

    def constraint_rows(self):
        return self.normals, self.offsets


@dataclass
class BodyFamily:
    mode: str
    dim: int
    bodies: list = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in (SYMMETRIC, GENERAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        for body in self.bodies:
            rows, _ = body.constraint_rows()
            if rows.shape[1] != self.dim:
                raise ValueError("body dimension mismatch")

    def __len__(self):
        return len(self.bodies)

    def constraint_matrix(self, selected=None):
        """Stacked (G, h, owner) rows for the selected bodies (default all)."""
        idx = range(len(self.bodies)) if selected is None else selected
        gs, hs, owners = [], [], []
        for i in idx:
            g, h = self.bodies[i].constraint_rows()
            gs.append(g)
            hs.append(h)
            owners.extend([i] * g.shape[0])
        if not gs:
            raise ValueError("no bodies selected")
        return np.vstack(gs), np.concatenate(hs), np.array(owners)


@dataclass(frozen=True)
class TaggedPointSet:
    """Points with the index of the body each one came from."""

    points: np.ndarray
    tags: np.ndarray

    def __len__(self):
        return self.points.shape[0]


def interior_margin(family: BodyFamily, z) -> float:
    """Smallest Euclidean distance from z to a constraint hyperplane side."""
    z = np.asarray(z, dtype=float)
    G, h, _ = family.constraint_matrix()
    norms = np.linalg.norm(G, axis=1)
    return float(np.min((h - G @ z) / norms))


def chebyshev_center(family: BodyFamily):
    """Deepest point of the intersection: one LP over (x, r)."""
    G, h, _ = family.constraint_matrix()
    n = family.dim
    norms = np.linalg.norm(G, axis=1)
    # variables (x, r), maximize r subject to <a,x> + ||a|| r <= c and r >= 0
    Ga = np.hstack([G, norms[:, None]])
    Ga = np.vstack([Ga, np.concatenate([np.zeros(n), [-1.0]])])
    ha = np.concatenate([h, [0.0]])
    objective = np.concatenate([np.zeros(n), [1.0]])
    res = solve_lp(LinearProgram(objective=objective, G=Ga, h=ha))
    if res.status == UNBOUNDED:
        raise UnboundedBody("interior radius unbounded; family does not "
                            "bound a body")
    if res.status != OPTIMAL:
        raise DegenerateInterior("family intersection is empty")
    r = res.value
    if r <= 1e-9:
        raise DegenerateInterior(f"inradius {r:.3e} below tolerance")
    return res.x[:n], float(r)


def validate_family(family: BodyFamily, margin: float = INTERIOR_MARGIN):
    """Reject families whose intersection has (numerically) no interior."""
    if family.mode == SYMMETRIC:
        m = interior_margin(family, np.zeros(family.dim))
        if m < margin:
            raise DegenerateInterior(
                f"margin {m:.3e} at the origin is below {margin:.1e}")
        return np.zeros(family.dim), m
    z, r = chebyshev_center(family)
    if r < margin:
        raise DegenerateInterior(f"inradius {r:.3e} is below {margin:.1e}")
    return z, r


def normalize_family(family: BodyFamily, z) -> BodyFamily:
    """Translate the origin to z and rescale all offsets to 1.

    Symmetric families are already in normalized form; for them z must be the
    origin and the family is returned unchanged (after validation).
    """
    z = np.asarray(z, dtype=float)
    if family.mode == SYMMETRIC:
        if np.linalg.norm(z) > 1e-12:
            raise ValueError("symmetric families are normalized about 0 only")
        validate_family(family)
        return family
    bodies = []
    for body in family.bodies:
        slack = body.offsets - body.normals @ z
        margins = slack / np.linalg.norm(body.normals, axis=1)
        if margins.min() < INTERIOR_MARGIN:
            raise NotInterior(
                f"translate point has margin {margins.min():.3e} "
                f"inside body {body.index}")
        bodies.append(HalfspaceBody(index=body.index,
                                    normals=body.normals / slack[:, None],
                                    offsets=np.ones(len(slack)),
                                    body_id=body.body_id))
    return BodyFamily(mode=GENERAL, dim=family.dim, bodies=bodies)


def _require_normalized(family: BodyFamily):
    if family.mode == GENERAL:
        offsets = np.concatenate([body.offsets for body in family.bodies])
        if np.max(np.abs(offsets - 1.0)) > 1e-9:
            raise ValueError("family must be normalized (offsets 1); "
                             "call normalize_family first")


def polar_generators(family: BodyFamily) -> TaggedPointSet:
    """Generator points of the polar of the intersection.

    For a normalized family, the polar of the intersection is the convex hull
    of the union of the bodies' polars, and each body's polar is generated by
    its constraint vectors (both signs for slabs).
    """
    _require_normalized(family)
    pts, tags = [], []
    for body in family.bodies:
        rows, _ = body.constraint_rows()
        pts.append(rows)
        tags.extend([body.index] * rows.shape[0])
    return TaggedPointSet(points=np.vstack(pts), tags=np.array(tags))


def containment_factor(family: BodyFamily, selected) -> float:
    """Smallest alpha with (intersection of selected) <= alpha * (full).

    alpha is the largest support value of the selected intersection Q over
    the constraint directions of the family, and at least 1. Directions of
    selected bodies are skipped (Q lies in each of those bodies, so their
    support is at most 1), and so is the negative row of every slab, since
    Q = -Q. The rest go to ``max_support`` in one batch, so the value is a
    checked upper bound; +inf when Q is unbounded in a family direction.
    """
    _require_normalized(family)
    selected = sorted(set(int(i) for i in selected))
    if not selected:
        raise ValueError("selected body list is empty")
    if any(i < 0 or i >= len(family.bodies) for i in selected):
        raise ValueError("selected index out of range")
    rest = sorted(set(range(len(family.bodies))) - set(selected))
    if not rest:
        return 1.0
    Gq, hq, _ = family.constraint_matrix(selected)
    if family.mode == SYMMETRIC:
        dirs = [family.bodies[i].vectors for i in rest]
    else:
        dirs = [family.bodies[i].normals for i in rest]
    return max(1.0, max_support(Gq / hq[:, None], np.vstack(dirs)))

