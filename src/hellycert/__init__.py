"""Certified selection of small subfamilies of convex bodies.

Given a finite family of convex bodies whose intersection has nonempty
interior, the selectors pick a few of them whose intersection is provably
contained in a moderate blow-up of the full intersection, and emit a
certificate in which every claim is backed by an eigenvalue check or a
linear program rather than by the construction that produced it.

The public API lives in the submodules: ``pipeline`` (selection and
reduction), ``io`` (file formats and ``check``), ``oracle`` (generators and
brute-force oracles) and ``cli``.
"""

__version__ = "0.7.0"
