"""Body families, normalization and containment factors.

A family is one stacked constraint system G x <= h in one of two modes,
with the index of the body that owns each row. ``symmetric`` bodies are
intersections of centered slabs |<x, w>| <= 1: each contributes its vectors
w and then their negatives, all at offset 1. ``general`` bodies are
intersections of halfspaces <a, x> <= c. Most of the pipeline works on
normalized general families where every offset is 1, i.e. the origin is
strictly inside every body. Such a family is its own polar generator set:
the polar of the intersection is the hull of the rows of G, tagged by owner.

The containment scale alpha of a selection is a checked upper bound on a
support value in every family direction, each a replayed basis or a checked
closed-form dual bound: ``containment_bases`` walks the directions that can
set alpha and proposes their bases, and ``containment_factor`` replays
those bases, checks the dual bound of every other direction against alpha,
and never walks. Producers, ``certify`` and the brute-force oracle all take
alpha this way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DegenerateInterior, NotInterior, SolverStall,
                     UnboundedBody)
from .lp import box_bound, check_support, dual_bounds, solve_lp, walk_bases

SYMMETRIC = "symmetric"
GENERAL = "general"
INTERIOR_MARGIN = 1e-7


@dataclass(frozen=True, eq=False)
class BodyFamily:
    """Rows G x <= h, body by body; row r belongs to body owner[r].

    ``ids`` names the bodies ("" when unnamed) and ``negated`` marks the
    negated slab rows (none in general mode). Build a family with
    ``from_blocks``, which validates it; the arrays are read-only.
    """

    mode: str
    dim: int
    G: np.ndarray
    h: np.ndarray
    owner: np.ndarray
    ids: tuple
    negated: np.ndarray

    def __post_init__(self):
        for a in (self.G, self.h, self.owner, self.negated):
            a.flags.writeable = False

    @classmethod
    def from_blocks(cls, mode: str, dim: int, blocks, ids=None):
        """The validated family of one block per body: a k x dim array of
        slab vectors (symmetric) or a pair of a k x dim array of normals and
        k offsets (general). Raises ValueError for an unknown mode, dim < 1,
        a block of the wrong shape, non-finite data or a zero row."""
        if mode not in (SYMMETRIC, GENERAL):
            raise ValueError(f"unknown mode {mode!r}")
        if dim < 1:
            raise ValueError("dimension must be positive")
        if mode == SYMMETRIC:
            blocks = [np.asarray(v, dtype=float) for v in blocks]
            negated = [np.repeat([False, True], len(v)) for v in blocks]
            blocks = [(np.concatenate([v, -v]), np.ones(2 * len(v)))
                      for v in blocks]
        blocks = [(np.asarray(a, dtype=float), np.asarray(c, dtype=float))
                  for a, c in blocks]
        for j, (a, c) in enumerate(blocks):
            if a.ndim != 2 or a.shape[1] != dim or not len(a):
                raise ValueError(f"body {j}: constraint rows of shape "
                                 f"{a.shape} are not k x {dim} with k >= 1")
            if c.shape != (len(a),):
                raise ValueError(f"body {j}: {len(a)} normals but offsets "
                                 f"of shape {c.shape}")
        ids = ("",) * len(blocks) if ids is None else tuple(map(str, ids))
        G = np.vstack([a for a, _ in blocks])
        h = np.concatenate([c for _, c in blocks])
        owner = np.repeat(np.arange(len(blocks)), [len(c) for _, c in blocks])
        for bad, what in (
                (~(np.isfinite(G).all(axis=1) & np.isfinite(h)),
                 "non-finite constraint data"),
                ((G * G).sum(axis=1) == 0.0, "a zero constraint row")):
            if bad.any():
                raise ValueError(f"body {owner[np.argmax(bad)]} has {what}")
        negated = (np.concatenate(negated) if mode == SYMMETRIC
                   else np.zeros(len(h), dtype=bool))
        return cls(mode, dim, G, h, owner, ids, negated)

    def __len__(self):
        return len(self.ids)

    def constraint_matrix(self, selected=None):
        """(G, h, owner) of the selected bodies' rows (default all)."""
        if selected is None:
            return self.G, self.h, self.owner
        rows = np.isin(self.owner, selected)
        if not rows.any() or not set(selected) <= set(range(len(self))):
            raise ValueError(f"bodies {selected} are not in range({len(self)})")
        return self.G[rows], self.h[rows], self.owner[rows]


def interior_margin(family: BodyFamily, z) -> float:
    """Smallest Euclidean distance from z to a constraint hyperplane side."""
    z = np.asarray(z, dtype=float)
    norms = np.linalg.norm(family.G, axis=1)
    return float(np.min((family.h - family.G @ z) / norms))


def chebyshev_center(family: BodyFamily):
    """(z, r): the deepest point of the intersection and its depth, from
    one ``solve_lp`` walk in R^{n+1}.

    The LP max{r : <a,x> + ||a|| r <= c} is shifted to t = r + R0 with
    R0 = max(0, max(-c/||a||)) + 1, so every lifted offset c + ||a|| R0 is
    at least ||a|| and the origin is interior: the walk maximizes e_{n+1}
    over the rows [a, ||a||] / (c + ||a|| R0), and r = t - R0.
    UnboundedBody when the walk meets a ray or a line (the family bounds
    no body), DegenerateInterior when r is below INTERIOR_MARGIN (an empty
    or flat intersection). The center only starts ``_recenter``, so it is
    not checked.
    """
    G, h, n = family.G, family.h, family.dim
    norms = np.linalg.norm(G, axis=1)
    r0 = max(0.0, float(np.max(-h / norms))) + 1.0
    lifted = np.hstack([G, norms[:, None]]) / (h + norms * r0)[:, None]
    try:
        x = solve_lp(lifted, np.eye(n + 1)[n])[1][0]
    except UnboundedBody as exc:
        raise UnboundedBody("family does not bound a body: the center's "
                            "walk met a ray or a line") from exc
    r = float(x[n]) - r0
    if r < INTERIOR_MARGIN:
        raise DegenerateInterior(f"inradius {r:.3e} is below "
                                 f"{INTERIOR_MARGIN:.1e}")
    return x[:n], r


def validate_family(family: BodyFamily):
    """Reject a symmetric family whose intersection has (numerically) no
    interior around the origin."""
    r = interior_margin(family, np.zeros(family.dim))
    if r < INTERIOR_MARGIN:
        raise DegenerateInterior(f"margin at the origin {r:.3e} is below "
                                 f"{INTERIOR_MARGIN:.1e}")


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
    slack = family.h - family.G @ z
    margins = slack / np.linalg.norm(family.G, axis=1)
    bad = margins < INTERIOR_MARGIN
    if bad.any():
        body = family.owner[np.argmax(bad)]
        raise NotInterior(
            f"translate point has margin "
            f"{margins[family.owner == body].min():.3e} inside body {body}")
    return replace(family, G=family.G / slack[:, None], h=np.ones(len(slack)))


def containment_rows(family: BodyFamily, selected):
    """Masks of the family's rows: (the rows of the selected bodies, which
    bound Q, the family directions whose support over Q sets alpha).

    Directions of selected bodies are left out (Q lies in each of those
    bodies, so their support is at most 1), and so is the negative row of
    every slab, since Q = -Q.
    """
    inside = np.zeros(len(family), dtype=bool)
    inside[selected] = True
    inside = inside[family.owner]
    return inside, ~inside & ~family.negated


def containment_system(family: BodyFamily, selected):
    """(G_Q, U): the rows of the selected intersection Q in body order, and
    the family directions of ``containment_rows``.
    """
    if np.max(np.abs(family.h - 1.0)) > 1e-9:
        raise ValueError("family must be normalized (offsets 1); "
                         "call normalize_family first")
    selected = sorted(set(int(i) for i in selected))
    if not selected:
        raise ValueError("selected body list is empty")
    if selected[0] < 0 or selected[-1] >= len(family):
        raise ValueError("selected index out of range")
    inside, directions = containment_rows(family, selected)
    return family.G[inside] / family.h[inside, None], family.G[directions]


def containment_bases(family: BodyFamily, selected):
    """The walk that ``containment_factor`` replays for this selection:
    (directions, bases).

    One vertex walk over Q (``lp.walk_bases``) in the family directions of
    ``containment_system`` that can set alpha. In a symmetric family every
    direction whose closed-form dual bound is at most the support already
    walked is left out; in a general one every direction is walked.
    ``directions`` are the strictly increasing indices of the walked ones,
    and ``bases`` n rows of Q for each, then for +-e_i only where
    ``lp.box_bound`` has no box for Q. ``bases`` is None when that box walk
    met a checked ray (alpha is +inf; a line counts as two rays): then no
    family direction was walked, and ``directions`` still lists them all.
    Both are empty when every body is selected. Nothing but the box walk's
    ray is checked here; the bases are checked when they are replayed.
    """
    Gq, U = containment_system(family, selected)
    if not len(U):
        return np.zeros(0, dtype=int), np.zeros((0, family.dim), dtype=int)
    walk = walk_bases(Gq, U, symmetric=family.mode == SYMMETRIC)
    return (np.arange(len(U)), None) if walk is None else walk


def containment_factor(family: BodyFamily, selected, walk) -> float:
    """Smallest alpha with (intersection of selected) <= alpha * (full).

    alpha is the largest support value of the selected intersection Q over
    the constraint directions of the family, and at least 1. Nothing is
    walked. ``walk`` is the (directions, bases) of ``containment_bases``,
    the directions strictly increasing. ``check_support`` replays the bases
    of those directions with the box of ``lp.box_bound`` (or of the box
    bases), and alpha is the largest of its checked upper bounds. Every
    other direction must have a dual bound of at most alpha:
    ``lp.dual_bounds`` in a symmetric family, +inf in a general one. So the
    value is a checked upper bound on every direction's support. Raises
    SolverStall when a replay or a dual bound fails its check. Bases of
    None (the walk met a checked ray) give +inf.
    """
    Gq, U = containment_system(family, selected)
    directions, bases = walk
    if bases is None:
        return math.inf
    if not len(U):
        if len(bases):
            raise SolverStall(f"{len(bases)} bases for no direction: every "
                              "body is selected")
        return 1.0
    box = box_bound(Gq)
    alpha = max(1.0, check_support(Gq, U[directions], bases, box))
    skipped = np.ones(len(U), dtype=bool)
    skipped[directions] = False
    if skipped.any():
        beta = (dual_bounds(Gq, U, box) if family.mode == SYMMETRIC
                else np.full(len(U), math.inf))
        worst = int(np.argmax(np.where(skipped, beta, -math.inf)))
        if not beta[worst] <= alpha:
            raise SolverStall(f"direction {worst} has no basis, and its dual "
                              f"bound {beta[worst]:.12g} exceeds alpha "
                              f"{alpha:.12g}")
    return alpha
