"""Constructive order-completion machinery for nonlinear PDE systems.

Lattice surrogates for semi-continuous envelopes, multi-index jets and
piecewise Taylor candidates, pointwise jet solving, global approximate
lower/upper pairs, a staged refinement scheme with per-stage certificates,
and interval/convergence analysis, plus a batch CLI.
"""
