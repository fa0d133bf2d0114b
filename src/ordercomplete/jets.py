"""Jets, anchored Taylor polynomials, and piecewise-polynomial assemblies.

A jet of order m for a K-component system in n variables assigns one value
per (component, multi-index) pair with |alpha| <= m. Its Taylor polynomial
stores exactly those values as anchored derivative coefficients,

    P(x) = sum_alpha  c_alpha (x - x0)^alpha / alpha!,

so derivative evaluation at the anchor returns the stored jet entry with no
rounding at all: differentiation is an index shift, never arithmetic.

A PiecewisePoly holds one such polynomial per cell and component over a
tiling of the box, as arrays (cells are (C, 2, n): lower corners, then
upper corners). Its cell boundaries are the closed nowhere-dense set off
which the candidate is fixed, so the skeleton belongs to the candidate:
sampling takes any lattice, marks every point on a cell boundary as
skeleton as well (assemble), takes each off-skeleton point's value from the
one cell holding it strictly inside (_interior_gather), and fills the
skeleton by the normalize rule from grids.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .grids import GridDomain, GridFunction, complete


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


def _factorial_alpha(alpha: tuple[int, ...]) -> float:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return float(out)


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


def deriv_eval(p: TaylorPoly, alpha: tuple[int, ...], x) -> float:
    """D^alpha p evaluated at x; equals the stored coefficient when x is the anchor."""
    pt = np.asarray(x, dtype=float)
    return float(p.deriv_many(alpha, pt[None, :])[0])


# ---------------------------------------------------------------------------
# tiling cells and piecewise assemblies


@dataclass(frozen=True)
class Cell:
    """One cell [lo, hi] of a PiecewisePoly as tuples of floats: the element
    type of its read-only `cells` view."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]


class TilingError(ValueError):
    """Cells fail to tile the box: overlap, gap, or grid misfit."""


def _centers(cells: np.ndarray) -> np.ndarray:
    """The center of each cell of a (C, 2, n) cell array, (C, n)."""
    return 0.5 * (cells[:, 0] + cells[:, 1])


@dataclass(eq=False)
class PiecewisePoly:
    """Per-cell Taylor polynomials over a tiling of a box, as arrays: the
    cells (C, 2, n) as bounds, and anchors (C, K, n) and coeffs (C, K,
    count) of component k's polynomial on cell c. __post_init__ checks
    their shapes, that no bound is NaN and that every cell has lo < hi.
    `cells` and `polys` are read-only views for readers outside the
    package, built on first access.
    """

    bounds: np.ndarray
    anchors: np.ndarray
    coeffs: np.ndarray
    mis: MultiIndexSet

    def __post_init__(self) -> None:
        n, count = self.mis.n, self.mis.count
        if self.bounds.ndim != 3 or self.bounds.shape[1:] != (2, n):
            raise ValueError(f"cell bounds must have shape (cells, 2, {n})")
        if np.isnan(self.bounds).any():
            raise ValueError("cell bounds must not be NaN")
        empty = np.any(self.bounds[:, 0] >= self.bounds[:, 1], axis=1)
        if empty.any():
            lo, hi = self.bounds[int(np.argmax(empty))].tolist()
            raise ValueError(f"cell has empty extent: lo={tuple(lo)}, hi={tuple(hi)}")
        shape = self.coeffs.shape
        if (len(shape) != 3 or shape[::2] != (len(self.bounds), count)
                or self.anchors.shape != shape[:2] + (n,)):
            raise ValueError("anchor/coefficient sizes must match the multi-index set")

    @property
    def space_dim(self) -> int:
        return self.mis.n

    @property
    def components(self) -> int:
        return self.coeffs.shape[1]

    @property
    def order(self) -> int:
        return self.mis.m

    @functools.cached_property
    def cells(self) -> list[Cell]:
        return [Cell(tuple(lo), tuple(hi)) for lo, hi in self.bounds.tolist()]

    @functools.cached_property
    def polys(self) -> list[list[TaylorPoly]]:
        """polys[c][i-1]: component i's polynomial on cell c."""
        return [[TaylorPoly(a, c, self.mis) for a, c in zip(anchors, coeffs)]
                for anchors, coeffs in zip(self.anchors, self.coeffs)]


def _snap_tol(domain: GridDomain) -> np.ndarray:
    """Per-axis snapping tolerance of the ownership classifier."""
    return 1e-9 * (domain.hi - domain.lo)


def _interior_ranges(
    cells: np.ndarray, domain: GridDomain
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Index ranges [start, stop) of the strictly interior lattice points of
    cells (C, 2, n), and the lattice axes they index.

    Along axis d the interior of a cell is lo + tol < a < hi - tol, with
    a = domain.axis(d), which GridDomain keeps strictly increasing, and
    tol = 1e-9 of the box width; start and stop are (cells, n) int arrays,
    and a cell with stop <= start on some axis holds no point.
    """
    if np.shape(cells)[1:] != (2, domain.ndim):
        raise TilingError(f"cells must have shape (cells, 2, {domain.ndim}) in this box")
    axes = [domain.axis(d) for d in range(domain.ndim)]
    tol = _snap_tol(domain)
    lo, hi = cells[:, 0], cells[:, 1]
    start = np.empty(lo.shape, dtype=int)
    stop = np.empty(lo.shape, dtype=int)
    for d, a in enumerate(axes):
        start[:, d] = np.searchsorted(a, lo[:, d] + tol[d], "right")
        stop[:, d] = np.searchsorted(a, hi[:, d] - tol[d], "left")
    return start, stop, axes


def _paint(shape: tuple[int, ...], start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The number of index boxes [start, stop), one per row, that cover
    each grid point.

    An n-D difference array: +-1 at the 2^n corners of every box, then a
    prefix sum along each axis; O(boxes * 2^n + grid points).
    """
    keep = np.all(stop > start, axis=1)
    start, stop = start[keep], stop[keep]
    diff = np.zeros(tuple(s + 1 for s in shape), dtype=int)
    for corner in itertools.product((0, 1), repeat=len(shape)):
        idx = tuple(stop[:, d] if c else start[:, d] for d, c in enumerate(corner))
        np.add.at(diff, idx, -1 if sum(corner) % 2 else 1)
    for d in range(len(shape)):
        diff = np.cumsum(diff, axis=d)
    return diff[tuple(slice(0, s) for s in shape)]


def _classify_grid(cells: np.ndarray, domain: GridDomain) -> np.ndarray:
    """The boundary mask of cells (C, 2, n): the lattice points within
    snapping tolerance of any covering cell's face.

    Overlapping interiors and points neither strictly inside a cell nor on
    the boundary raise TilingError.

    Along each axis d, with a = domain.axis(d) (strictly increasing) and
    tol = 1e-9 of the box width, a cell's interior is lo + tol < a < hi - tol
    and its closed range lo - tol <= a <= hi + tol, both found by
    searchsorted; its face points are the one or two indices next to lo or
    hi with |a - face| <= tol. Interior coverage counts and face slabs are
    painted for all cells at once (see _paint), so the cost is
    O(cells * 2^n + lattice points), with no per-cell lattice mask. Which
    cell owns a point is _interior_gather's question.
    """
    start, stop, axes = _interior_ranges(cells, domain)
    tol = _snap_tol(domain)
    lo, hi = cells[:, 0], cells[:, 1]
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
    boundary = _paint(domain.shape, np.concatenate(slab_lo), np.concatenate(slab_hi)) > 0
    uncovered = (inside == 0) & ~boundary
    if uncovered.any():
        idx = tuple(int(v) for v in np.argwhere(uncovered)[0])
        raise TilingError(f"tiling does not cover lattice point {idx}")
    return boundary


def _interior_gather(
    domain: GridDomain, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """The strictly interior lattice points of every cell of cells (C, 2, n),
    cell by cell and in C order within a cell: per-cell point counts, the
    owning cell and lattice index tuple of each point, and its coordinates
    (npts, n). Same index ranges as _classify_grid, so on cells it accepts
    every point off its boundary mask is among these, once."""
    start, stop, axes = _interior_ranges(cells, domain)
    extent = np.maximum(stop - start, 0)
    counts = np.prod(extent, axis=1)
    own = np.repeat(np.arange(len(cells)), counts)
    rank = np.arange(own.size) - (np.cumsum(counts) - counts)[own]
    idx = []
    for d in reversed(range(domain.ndim)):
        idx.append(start[own, d] + rank % extent[own, d])
        rank = rank // extent[own, d]
    idx = tuple(reversed(idx))
    pts = np.stack([axes[d][i] for d, i in enumerate(idx)], axis=1)
    return counts, own, idx, pts


def _check_tiling(cells: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Volumes of cells (C, 2, n) sum to the box volume and no two cell
    interiors overlap.

    Exact for overlaps that hold no lattice point: the interiors are painted
    on the grid of distinct face coordinates per axis, where faces closer
    than 1e-12 of the box width count as one, and any count above 1 is an
    overlap.
    """
    clo, chi = cells[:, 0], cells[:, 1]
    vol = float(np.prod(chi - clo, axis=1).sum())
    box_vol = float(np.prod(hi - lo))
    if not math.isclose(vol, box_vol, rel_tol=1e-9):
        raise TilingError(f"cell volumes sum to {vol}, box volume is {box_vol}")
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
        raise TilingError(f"cells {a} {cells[a].tolist()} and {b} {cells[b].tolist()} "
                          "have overlapping interiors")


def assemble(v: PiecewisePoly, domain: GridDomain) -> GridDomain:
    """The domain with every cell-boundary lattice point of v marked as
    skeleton too, on top of what its skeleton already marks.

    The cells must tile the box (volume sum and no overlapping interiors,
    see _check_tiling); v's cell boundaries are the boundary mask of
    _classify_grid, the lattice points within snapping tolerance of some
    cell's face.
    """
    if not len(v.bounds):
        raise TilingError("no cells supplied")
    if v.space_dim != domain.ndim:
        raise TilingError(f"cells have dimension {v.space_dim}, the box has {domain.ndim}")
    _check_tiling(v.bounds, domain.lo, domain.hi)
    return domain.with_skeleton(domain.skeleton | _classify_grid(v.bounds, domain))


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


def sample_jets(v: PiecewisePoly, domain: GridDomain) -> list[GridFunction]:
    """Sample every flat jet variable of v on the lattice, one GridFunction
    each in flat order (PdeSystem.flat_vars), on the domain with v's cell
    boundaries marked as well (see assemble).

    Each off-skeleton point is strictly inside one cell (see
    _interior_gather) and takes that cell's polynomial derivatives,
    gathered by owner in one pass (see _gathered_jets); skeleton points are
    filled by the normalize rule, all variables at once (see
    grids.complete), so the outputs are normalize fixed points.
    """
    marked = assemble(v, domain)
    _, own, idx, pts = _interior_gather(marked, v.bounds)
    off = ~marked.skeleton[idx]
    return complete(marked, tuple(i[off] for i in idx),
                    _gathered_jets(v.mis, v.anchors, v.coeffs, own[off], pts[off]))


# ---------------------------------------------------------------------------
# JSON serialization


def artifact_json(obj) -> str:
    """obj as one line of compact JSON with sorted keys, the text of every
    artifact file; json.dumps, since json.dump never uses the C encoder."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def poly_to_dict(v: PiecewisePoly) -> dict:
    """The polynomial file of v: its signature, then the cell corners lo and
    hi (C, n), anchors (C, K, n) and coeffs (C, K, count) as nested lists."""
    return {
        "space_dim": v.space_dim,
        "components": v.components,
        "order": v.order,
        "alphas": [list(a) for a in v.mis.alphas],
        "lo": v.bounds[:, 0].tolist(),
        "hi": v.bounds[:, 1].tolist(),
        "anchors": v.anchors.tolist(),
        "coeffs": v.coeffs.tolist(),
    }


def _float_array(data: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """Entry key of a polynomial file as a float array of the given shape."""
    try:
        a = np.asarray(data[key], dtype=float)
    except ValueError as e:  # ragged rows or a non-number
        raise ValueError(f"{key}: {e}") from None
    if a.shape != shape:
        raise ValueError(f"{key}: expected shape {shape}, found {a.shape}")
    return a


def poly_from_dict(data: dict) -> PiecewisePoly:
    n = int(data["space_dim"])
    K = int(data["components"])
    m = int(data["order"])
    mis = MultiIndexSet(n, m)
    stored = [tuple(a) for a in data["alphas"]]
    if stored != list(mis.alphas):
        raise ValueError("multi-index ordering in file does not match graded-lex")
    C = len(data["lo"])
    lo = _float_array(data, "lo", (C, n))
    hi = _float_array(data, "hi", (C, n))
    anchors = _float_array(data, "anchors", (C, K, n))
    coeffs = _float_array(data, "coeffs", (C, K, mis.count))
    return PiecewisePoly(np.stack([lo, hi], axis=1), anchors, coeffs, mis)


def write_poly_json(v: PiecewisePoly, path) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(artifact_json(poly_to_dict(v)))
    os.replace(tmp, path)


def read_poly_json(path) -> PiecewisePoly:
    with open(path) as fh:
        return poly_from_dict(json.load(fh))
