"""Jets, anchored Taylor polynomials, and piecewise-polynomial assemblies.

A jet of order m for a K-component system in n variables assigns one value
per (component, multi-index) pair with |alpha| <= m. Its Taylor polynomial
stores exactly those values as anchored derivative coefficients,

    P(x) = sum_alpha  c_alpha (x - x0)^alpha / alpha!,

so derivative evaluation at the anchor returns the stored jet entry with no
rounding at all: differentiation is an index shift, never arithmetic.

A PiecewisePoly glues per-cell polynomial tuples over a tiling of the box;
sampling it on a lattice marks every point on a cell boundary as skeleton
and fills those values by the normalize rule from grids.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import GridDomain, GridFunction, skeleton_fill


@dataclass(frozen=True)
class MultiIndexSet:
    """All multi-indices with |alpha| <= m in n variables, graded-lex ordered."""

    n: int
    m: int
    alphas: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, m: int) -> None:
        if n < 1:
            raise ValueError("need at least one space variable")
        if m < 0:
            raise ValueError("order must be non-negative")
        alphas = sorted(
            (a for a in itertools.product(range(m + 1), repeat=n) if sum(a) <= m),
            key=lambda a: (sum(a), a),
        )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "alphas", tuple(alphas))
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(alphas)})

    @property
    def count(self) -> int:
        return len(self.alphas)

    def index(self, alpha: tuple[int, ...]) -> int:
        try:
            return self._index[tuple(alpha)]
        except KeyError:
            raise KeyError(f"multi-index {tuple(alpha)} not in set (n={self.n}, m={self.m})")

    def __contains__(self, alpha) -> bool:
        return tuple(alpha) in self._index

    def __iter__(self):
        return iter(self.alphas)


@functools.cache
def _multi_index_set(n: int, m: int) -> MultiIndexSet:
    """The one MultiIndexSet per (n, m); the sets are immutable."""
    return MultiIndexSet(n, m)


def jet_size(K: int, mis: MultiIndexSet) -> int:
    """Total unknown count M for K components."""
    return K * mis.count


def _factorial_alpha(alpha: tuple[int, ...]) -> float:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return float(out)


@dataclass(eq=False)
class Jet:
    """Derivative data at one base point: values[i-1, a] = entry for (i, alpha_a)."""

    base_point: np.ndarray
    values: np.ndarray  # shape (K, mis.count)
    mis: MultiIndexSet

    def __init__(self, base_point, values, mis: MultiIndexSet) -> None:
        self.base_point = np.asarray(base_point, dtype=float).copy()
        self.values = np.asarray(values, dtype=float).copy()
        self.mis = mis
        if self.base_point.ndim != 1 or self.base_point.size != mis.n:
            raise ValueError("base point dimension must match the multi-index set")
        if self.values.ndim != 2 or self.values.shape[1] != mis.count:
            raise ValueError("values must have shape (K, count)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("jet entries must be finite")
        self.base_point.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def K(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, key: tuple[int, tuple[int, ...]]) -> float:
        i, alpha = key
        if not 1 <= i <= self.K:
            raise KeyError(f"component {i} out of range 1..{self.K}")
        return float(self.values[i - 1, self.mis.index(alpha)])

    def flat(self) -> np.ndarray:
        """Component-major flattening, length K*count."""
        return self.values.reshape(-1).copy()

    @staticmethod
    def from_flat(base_point, K: int, mis: MultiIndexSet, vec) -> "Jet":
        vec = np.asarray(vec, dtype=float)
        if vec.size != K * mis.count:
            raise ValueError("flat vector length must be K*count")
        return Jet(base_point, vec.reshape(K, mis.count), mis)


@dataclass(eq=False)
class TaylorPoly:
    """Polynomial anchored at x0, stored by its own derivative values there."""

    anchor: np.ndarray
    coeffs: np.ndarray  # derivative values at the anchor, aligned with mis
    mis: MultiIndexSet

    def __init__(self, anchor, coeffs, mis: MultiIndexSet) -> None:
        self.anchor = np.asarray(anchor, dtype=float).copy()
        self.coeffs = np.asarray(coeffs, dtype=float).copy()
        self.mis = mis
        if self.anchor.size != mis.n or self.coeffs.size != mis.count:
            raise ValueError("anchor/coefficient sizes must match the multi-index set")
        self.anchor.setflags(write=False)
        self.coeffs.setflags(write=False)

    def value(self, x) -> float:
        return float(self.deriv_many((0,) * self.mis.n, np.asarray(x, dtype=float)[None, :])[0])

    def deriv_many(self, alpha: tuple[int, ...], points: np.ndarray) -> np.ndarray:
        """D^alpha of the polynomial at each row of points, exactly at the anchor."""
        pts = np.asarray(points, dtype=float)
        return _taylor_sum(self.mis, alpha, pts - self.anchor, self.coeffs)


def _taylor_sum(
    mis: MultiIndexSet, alpha: tuple[int, ...], dx: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """D^alpha of anchored Taylor polynomials at offsets dx (npts, n).

    coeffs holds one polynomial's coefficients, shape (count,), or one row
    per point, shape (npts, count). Each term is (c / gamma!) * prod dx^g,
    added in graded-lex gamma order; a zero coefficient adds nothing, as if
    skipped, so gathering rows per point reproduces per-polynomial sums bit
    for bit.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != mis.n or any(a < 0 for a in alpha):
        raise ValueError(f"bad multi-index {alpha}")
    if sum(alpha) > mis.m:
        raise ValueError(f"derivative order {sum(alpha)} exceeds m={mis.m}")
    out = np.zeros(dx.shape[0])
    nonzero = coeffs != 0.0
    live = nonzero if coeffs.ndim == 1 else nonzero.any(axis=0)
    for gamma in _multi_index_set(mis.n, mis.m - sum(alpha)):
        k = mis.index(tuple(g + a for g, a in zip(gamma, alpha)))
        if not live[k]:
            continue
        mono = np.ones(dx.shape[0])
        for d, g in enumerate(gamma):
            if g:
                mono = mono * dx[:, d] ** g
        term = (coeffs[..., k] / _factorial_alpha(gamma)) * mono
        np.add(out, term, out=out, where=nonzero[..., k])
    return out


def taylor_poly(jet: Jet) -> list[TaylorPoly]:
    """One polynomial per component, matching the jet exactly at its base point."""
    return [TaylorPoly(jet.base_point, jet.values[i], jet.mis) for i in range(jet.K)]


def deriv_eval(p: TaylorPoly, alpha: tuple[int, ...], x) -> float:
    """D^alpha p evaluated at x; equals the stored coefficient when x is the anchor."""
    pt = np.asarray(x, dtype=float)
    return float(p.deriv_many(alpha, pt[None, :])[0])


# ---------------------------------------------------------------------------
# tiling cells and piecewise assemblies


@dataclass(frozen=True)
class Cell:
    """Axis-aligned closed box [lo, hi]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __init__(self, lo, hi) -> None:
        lo_t = tuple(float(v) for v in np.asarray(lo, dtype=float))
        hi_t = tuple(float(v) for v in np.asarray(hi, dtype=float))
        if len(lo_t) != len(hi_t):
            raise ValueError("cell lo and hi must have equal length")
        if any(a >= b for a, b in zip(lo_t, hi_t)):
            raise ValueError(f"cell has empty extent: lo={lo_t}, hi={hi_t}")
        object.__setattr__(self, "lo", lo_t)
        object.__setattr__(self, "hi", hi_t)

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))

    @property
    def widths(self) -> np.ndarray:
        return np.asarray(self.hi) - np.asarray(self.lo)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.widths))

    def volume(self) -> float:
        return float(np.prod(self.widths))

    def split(self) -> list["Cell"]:
        """Dyadic split into 2^n congruent children."""
        mids = self.center
        out = []
        for corner in itertools.product((0, 1), repeat=self.ndim):
            lo = [self.lo[d] if c == 0 else mids[d] for d, c in enumerate(corner)]
            hi = [mids[d] if c == 0 else self.hi[d] for d, c in enumerate(corner)]
            out.append(Cell(lo, hi))
        return out


class TilingError(ValueError):
    """Cells fail to tile the box: overlap, gap, or grid misfit."""


@dataclass(eq=False)
class PiecewisePoly:
    """Per-cell polynomial tuples over a tiling of a box."""

    space_dim: int
    components: int
    order: int
    cells: list[Cell]
    polys: list[list[TaylorPoly]]  # polys[c][i-1] for cell c, component i

    def __init__(self, space_dim, components, order, cells, polys) -> None:
        self.space_dim = int(space_dim)
        self.components = int(components)
        self.order = int(order)
        self.cells = list(cells)
        self.polys = [list(ps) for ps in polys]
        if len(self.cells) != len(self.polys):
            raise ValueError("one polynomial tuple required per cell")
        for ps in self.polys:
            if len(ps) != self.components:
                raise ValueError("each cell needs one polynomial per component")


def _cell_bounds(cells: Sequence[Cell], n: int) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi of every cell as (cells, n) arrays."""
    lo = np.array([c.lo for c in cells] or np.empty((0, n)), dtype=float)
    hi = np.array([c.hi for c in cells] or np.empty((0, n)), dtype=float)
    if lo.shape[1] != n:
        raise TilingError(f"cells have dimension {lo.shape[1]}, the box has {n}")
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise TilingError("cell bounds must not be NaN")
    return lo, hi


def _snap_tol(domain: GridDomain) -> np.ndarray:
    """Per-axis snapping tolerance of the ownership classifier."""
    return 1e-9 * (domain.hi - domain.lo)


def _interior_ranges(
    cells: Sequence[Cell], domain: GridDomain
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Index ranges [start, stop) of the strictly interior lattice points,
    and the lattice axes they index.

    Along axis d the interior of a cell is lo + tol < a < hi - tol, with
    a = domain.axis(d), which GridDomain keeps strictly increasing, and
    tol = 1e-9 of the box width; start and stop are (cells, n) int arrays,
    and a cell with stop <= start on some axis holds no point.
    """
    axes = [domain.axis(d) for d in range(domain.ndim)]
    tol = _snap_tol(domain)
    lo, hi = _cell_bounds(cells, domain.ndim)
    start = np.empty(lo.shape, dtype=int)
    stop = np.empty(lo.shape, dtype=int)
    for d, a in enumerate(axes):
        start[:, d] = np.searchsorted(a, lo[:, d] + tol[d], "right")
        stop[:, d] = np.searchsorted(a, hi[:, d] - tol[d], "left")
    return start, stop, axes


def _paint(shape: tuple[int, ...], start: np.ndarray, stop: np.ndarray,
           weights: np.ndarray | None = None) -> np.ndarray:
    """Sum of the weights (default 1) of the index boxes [start, stop) that
    cover each grid point, one box per row.

    An n-D difference array: +-weight at the 2^n corners of every box, then
    a prefix sum along each axis; O(boxes * 2^n + grid points).
    """
    keep = np.all(stop > start, axis=1)
    start, stop = start[keep], stop[keep]
    w = np.ones(len(start), dtype=int) if weights is None else weights[keep]
    diff = np.zeros(tuple(s + 1 for s in shape), dtype=int)
    for corner in itertools.product((0, 1), repeat=len(shape)):
        idx = tuple(stop[:, d] if c else start[:, d] for d, c in enumerate(corner))
        np.add.at(diff, idx, -w if sum(corner) % 2 else w)
    for d in range(len(shape)):
        diff = np.cumsum(diff, axis=d)
    return diff[tuple(slice(0, s) for s in shape)]


def _classify_grid(
    cells: Sequence[Cell], domain: GridDomain
) -> tuple[np.ndarray, np.ndarray]:
    """(owner index per lattice point, boundary mask).

    A point strictly inside exactly one cell is owned by it; a point within
    snapping tolerance of any covering cell's face is boundary. Overlapping
    interiors and uncovered points raise TilingError.

    Along each axis d, with a = domain.axis(d) (strictly increasing) and
    tol = 1e-9 of the box width, a cell's interior is lo + tol < a < hi - tol
    and its closed range lo - tol <= a <= hi + tol, both found by
    searchsorted; its face points are the one or two indices next to lo or
    hi with |a - face| <= tol. Owners, interior coverage counts and face
    slabs are painted for all cells at once (see _paint), so the cost is
    O(cells * 2^n + lattice points), with no per-cell lattice mask.
    """
    n = domain.ndim
    start, stop, axes = _interior_ranges(cells, domain)
    tol = _snap_tol(domain)
    lo, hi = _cell_bounds(cells, n)
    closed_lo = np.empty_like(start)
    closed_hi = np.empty_like(start)
    for d, a in enumerate(axes):
        closed_lo[:, d] = np.searchsorted(a, lo[:, d] - tol[d], "left")
        closed_hi[:, d] = np.searchsorted(a, hi[:, d] + tol[d], "right")
    # face slabs: the near-face index range on one axis, closed on the others
    slab_lo = []
    slab_hi = []
    for d, a in enumerate(axes):
        for face in (lo[:, d], hi[:, d]):
            k = np.searchsorted(a, face)  # a[k - 1] < face <= a[k]
            below = (k >= 1) & (np.abs(a[np.maximum(k - 1, 0)] - face) <= tol[d])
            above = (k < a.size) & (np.abs(a[np.minimum(k, a.size - 1)] - face) <= tol[d])
            s_lo = closed_lo.copy()
            s_hi = closed_hi.copy()
            s_lo[:, d] = np.maximum(k - below, closed_lo[:, d])
            s_hi[:, d] = np.minimum(k + above, closed_hi[:, d])
            slab_lo.append(s_lo)
            slab_hi.append(s_hi)
    inside = _paint(domain.shape, start, stop)
    clash = inside > 1
    if clash.any():
        idx = tuple(int(v) for v in np.argwhere(clash)[0])
        raise TilingError(f"overlapping cell interiors at lattice point {idx}")
    owner = _paint(domain.shape, start, stop, np.arange(1, len(cells) + 1)) - 1
    boundary = _paint(domain.shape, np.concatenate(slab_lo), np.concatenate(slab_hi)) > 0
    uncovered = (owner < 0) & ~boundary
    if uncovered.any():
        idx = tuple(int(v) for v in np.argwhere(uncovered)[0])
        raise TilingError(f"tiling does not cover lattice point {idx}")
    owner[boundary] = -1
    return owner, boundary


def _check_tiling(cells: Sequence[Cell], lo: np.ndarray, hi: np.ndarray) -> None:
    """Volumes sum to the box volume and no two cell interiors overlap.

    Exact for overlaps that hold no lattice point: the interiors are painted
    on the grid of distinct face coordinates per axis, where faces closer
    than 1e-12 of the box width count as one, and any count above 1 is an
    overlap.
    """
    vol = sum(c.volume() for c in cells)
    box_vol = float(np.prod(hi - lo))
    if not math.isclose(vol, box_vol, rel_tol=1e-9):
        raise TilingError(f"cell volumes sum to {vol}, box volume is {box_vol}")
    clo, chi = _cell_bounds(cells, len(lo))
    start = np.empty(clo.shape, dtype=int)
    stop = np.empty(clo.shape, dtype=int)
    shape = []
    for d in range(len(lo)):
        faces = np.unique(np.concatenate([clo[:, d], chi[:, d]]))
        # index of each distinct face, counting faces closer than tol as one
        slot = np.concatenate([[0], np.cumsum(np.diff(faces) > 1e-12 * (hi[d] - lo[d]))])
        start[:, d] = slot[np.searchsorted(faces, clo[:, d])]
        stop[:, d] = slot[np.searchsorted(faces, chi[:, d])]
        shape.append(int(slot[-1]))
    clash = np.argwhere(_paint(tuple(shape), start, stop) > 1)
    if clash.size:
        p = clash[0]
        a, b = np.nonzero(np.all((start <= p) & (p < stop), axis=1))[0][:2]
        raise TilingError(f"cells {cells[a]} and {cells[b]} have overlapping interiors")


def assemble(
    cells: Sequence[Cell],
    polys: Sequence[Sequence[TaylorPoly]],
    domain: GridDomain,
) -> tuple[PiecewisePoly, GridDomain]:
    """Glue per-cell polynomials; returns the assembly and the domain with
    every cell-boundary lattice point marked as skeleton.

    The cells must tile the box (volume sum and no overlapping interiors,
    see _check_tiling); the skeleton is the boundary mask of _classify_grid,
    the lattice points within snapping tolerance of some cell's face.
    """
    if not cells:
        raise TilingError("no cells supplied")
    n = domain.ndim
    K = len(polys[0])
    mis = polys[0][0].mis
    _check_tiling(cells, domain.lo, domain.hi)
    _, boundary = _classify_grid(cells, domain)
    marked = domain.with_skeleton(boundary)
    v = PiecewisePoly(n, K, mis.m, list(cells), [list(ps) for ps in polys])
    return v, marked


def _gathered_jets(
    mis: MultiIndexSet, anchors: np.ndarray, coeffs: np.ndarray,
    own: np.ndarray, pts: np.ndarray,
) -> list[np.ndarray]:
    """Every flat jet variable (i, alpha), in flat order (component-major,
    graded-lex within), at each point, on the polynomials of its own cell:
    anchors (cells, K, n) and coefficients (cells, K, count) per cell and
    component, own the cell of each point. Bit-identical to each
    polynomial's deriv_many."""
    out = []
    for i in range(coeffs.shape[1]):
        dx = pts - anchors[own, i]
        c = coeffs[own, i]
        out.extend(_taylor_sum(mis, a, dx, c) for a in mis.alphas)
    return out


def _lattice_jets(
    v: PiecewisePoly, domain: GridDomain
) -> tuple[tuple[np.ndarray, ...], np.ndarray, list[np.ndarray]]:
    """Lattice indices and coordinates (npts, n), in C order, of the points
    owned by a cell of v (see _classify_grid), and every flat jet variable
    there on the owning cell's polynomials (see _gathered_jets). The domain
    skeleton must mark every cell-boundary point."""
    owner, boundary = _classify_grid(v.cells, domain)
    if (boundary & ~domain.skeleton).any():
        raise ValueError("domain skeleton does not mark all cell-boundary points")
    idx = np.nonzero(owner >= 0)
    pts = np.stack([domain.axis(d)[idx[d]] for d in range(domain.ndim)], axis=1)
    anchors = np.array([[p.anchor for p in ps] for ps in v.polys])
    coeffs = np.array([[p.coeffs for p in ps] for ps in v.polys])
    return idx, pts, _gathered_jets(v.polys[0][0].mis, anchors, coeffs, owner[idx], pts)


def sample_jets(v: PiecewisePoly, domain: GridDomain) -> list[GridFunction]:
    """Sample every flat jet variable of v on the lattice, one GridFunction
    each in flat order (PdeSystem.flat_vars).

    Owned points (see _classify_grid) take their cell's polynomial
    derivatives, gathered by owner in one pass; skeleton points are filled
    by the normalize rule, so the outputs are normalize fixed points.
    """
    idx, _, derivs = _lattice_jets(v, domain)
    out = []
    for d in derivs:
        values = np.zeros(domain.shape)
        values[idx] = d
        out.append(GridFunction(domain, skeleton_fill(domain, values), normalized=True))
    return out


# ---------------------------------------------------------------------------
# JSON serialization


def poly_to_dict(v: PiecewisePoly) -> dict:
    mis = v.polys[0][0].mis if v.polys else MultiIndexSet(v.space_dim, v.order)
    return {
        "space_dim": v.space_dim,
        "components": v.components,
        "order": v.order,
        "alphas": [list(a) for a in mis.alphas],
        "cells": [
            {
                "lo": list(cell.lo),
                "hi": list(cell.hi),
                "polys": [
                    {"anchor": [float(x) for x in p.anchor],
                     "coeffs": [float(c) for c in p.coeffs]}
                    for p in ps
                ],
            }
            for cell, ps in zip(v.cells, v.polys)
        ],
    }


def poly_from_dict(data: dict) -> PiecewisePoly:
    n = int(data["space_dim"])
    K = int(data["components"])
    m = int(data["order"])
    mis = MultiIndexSet(n, m)
    stored = [tuple(a) for a in data["alphas"]]
    if stored != list(mis.alphas):
        raise ValueError("multi-index ordering in file does not match graded-lex")
    cells = []
    polys = []
    for entry in data["cells"]:
        cells.append(Cell(entry["lo"], entry["hi"]))
        ps = entry["polys"]
        if len(ps) != K:
            raise ValueError("cell polynomial count does not match component count")
        polys.append([TaylorPoly(p["anchor"], p["coeffs"], mis) for p in ps])
    return PiecewisePoly(n, K, m, cells, polys)


def write_poly_json(v: PiecewisePoly, path) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(poly_to_dict(v), fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def read_poly_json(path) -> PiecewisePoly:
    with open(path) as fh:
        return poly_from_dict(json.load(fh))
