"""Jets, anchored Taylor polynomials, and piecewise-polynomial assemblies.

A jet of order m for a K-component system in n variables assigns one value
per (component, multi-index) pair with |alpha| <= m. Its Taylor polynomial
stores exactly those values as anchored derivative coefficients,

    P(x) = sum_alpha  c_alpha (x - x0)^alpha / alpha!,

so derivative evaluation at the anchor returns the stored jet entry with no
rounding at all: differentiation is an index shift, never arithmetic.

A PiecewisePoly holds one such polynomial per cell and component over a
tiling of the box, as arrays (cells are (C, 2, n): lower corners, then
upper corners), anchored at the cell centers. Its cell boundaries are the
closed nowhere-dense set off which the candidate is fixed, so the skeleton
belongs to the candidate. Whether cells tile the box is answered once per
polynomial, by _check_tiling on the grid of cell faces, where it enters:
as `verify` reads its file, and as `run`'s subdivision ends. The lattice
only marks and owns. Sampling takes any lattice, marks every point that
no cell holds strictly inside as skeleton as well (assemble), takes each
off-skeleton point's value from the one cell holding it strictly inside
(_interior_gather) and returns those values only, where the candidate is
continuous; grids.complete fills the skeleton by the normalize rule. One
rule, _interior_ranges, answers both lattice questions.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import tokenize
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import GridDomain, GridFunction, _format_distinct, write_csv
from .intervals import int_pow


@dataclass(init=False, repr=False, frozen=True)
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
        alphas = sorted(  # each multiset of t <= m variables, as its exponents
            (tuple(map(c.count, range(n))) for t in range(m + 1)
             for c in itertools.combinations_with_replacement(range(n), t)),
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


@dataclass(init=False, repr=False, eq=False)
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
                mono = mono * int_pow(dx[:, d], g)
        term = (coeffs[..., k] / _factorial_alpha(gamma)) * mono
        np.add(out, term, out=out, where=nonzero[..., k])
    return out


def deriv_eval(p: TaylorPoly, alpha: tuple[int, ...], x) -> float:
    """D^alpha p evaluated at x; equals the stored coefficient when x is the anchor."""
    pt = np.asarray(x, dtype=float)
    return float(p.deriv_many(alpha, pt[None, :])[0])


# ---------------------------------------------------------------------------
# tiling cells and piecewise assemblies


@dataclass(repr=False, frozen=True)
class Cell:
    """One cell [lo, hi] of a PiecewisePoly as tuples of floats: the element
    type of its read-only `cells` view."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]


class TilingError(ValueError):
    """Cells fail to tile the box: overlap, a cell outside it, a hole, or grid
    misfit."""


def _centers(cells: np.ndarray) -> np.ndarray:
    """The center of each cell of a (C, 2, n) cell array, (C, n)."""
    return 0.5 * (cells[:, 0] + cells[:, 1])


@dataclass(repr=False, eq=False)
class PiecewisePoly:
    """Per-cell Taylor polynomials over a tiling of a box, as arrays: the
    cells (C, 2, n) as bounds, and coeffs (C, K, count) of component k's
    polynomial on cell c, anchored at the cell's center (_centers).
    __post_init__ checks their shapes, that every bound is finite and that
    every cell has lo < hi. `cells` and `polys` are read-only views for
    readers outside the package, built on first access.
    """

    bounds: np.ndarray
    coeffs: np.ndarray
    mis: MultiIndexSet

    def __post_init__(self) -> None:
        n, count = self.mis.n, self.mis.count
        if self.bounds.ndim != 3 or self.bounds.shape[1:] != (2, n):
            raise ValueError(f"cell bounds must have shape (cells, 2, {n})")
        if not np.isfinite(self.bounds).all():
            raise ValueError("cell bounds must be finite, not NaN or +-inf")
        empty = np.any(self.bounds[:, 0] >= self.bounds[:, 1], axis=1)
        if empty.any():
            lo, hi = self.bounds[int(np.argmax(empty))].tolist()
            raise ValueError(f"cell has empty extent: lo={tuple(lo)}, hi={tuple(hi)}")
        shape = self.coeffs.shape
        if len(shape) != 3 or shape[::2] != (len(self.bounds), count):
            raise ValueError("coefficient sizes must match the cells and the multi-index set")

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
        return [[TaylorPoly(center, c, self.mis) for c in coeffs]
                for center, coeffs in zip(_centers(self.bounds), self.coeffs)]


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
    """The skeleton of cells (C, 2, n): the lattice points that no cell
    holds strictly inside.

    One paint of the interiors of _interior_ranges (see _paint), O(cells *
    2^n + lattice points); a point strictly inside two cells raises
    TilingError (overlap), since _interior_gather gives each point one
    owner. Whether the cells tile the box is _check_tiling's question, and
    which cell owns a point _interior_gather's, on the same index ranges.
    """
    start, stop, _ = _interior_ranges(cells, domain)
    inside = _paint(domain.shape, start, stop)
    clash = inside > 1
    if clash.any():
        idx = tuple(int(v) for v in np.argwhere(clash)[0])
        raise TilingError(f"overlapping cell interiors at lattice point {idx}")
    return inside == 0


def _interior_gather(
    domain: GridDomain, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """The strictly interior lattice points of every cell of cells (C, 2, n),
    cell by cell and in C order within a cell: per-cell point counts, the
    owning cell and lattice index tuple of each point, and its coordinates
    (npts, n). Same index ranges as _classify_grid, so on cells it accepts
    these are exactly the points off its skeleton, each once."""
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
    """The one test that cells (C, 2, n) tile the box [lo, hi]: every point
    of the box lies in exactly one cell, up to faces.

    The cell interiors are painted once on the grid of distinct face
    coordinates per axis, the box's own faces included, where faces closer
    than 1e-12 of the box width count as one. An elementary box painted
    twice is an overlap, a cell with a face beyond the box's reaches
    outside it, and an unpainted elementary box in the box is a hole;
    TilingError names the first failure in that order.
    """
    boxes = np.concatenate([cells, np.stack([lo, hi])[None]])  # the cells, then the box
    ranges = np.empty(boxes.shape, dtype=int)  # face-grid index of each face
    edges = []
    for d in range(len(lo)):
        # sorted, not np.unique, which imports numpy.ma; faces closer than
        # tol count as one (equal ones too): the first of them stands for all
        faces = np.sort(boxes[:, :, d], axis=None)
        keep = np.concatenate([[True], np.diff(faces) > 1e-12 * (hi[d] - lo[d])])
        ranges[:, :, d] = (np.cumsum(keep) - 1)[np.searchsorted(faces, boxes[:, :, d])]
        edges.append(faces[keep])
    start, stop = ranges[:-1, 0], ranges[:-1, 1]
    box_start, box_stop = ranges[-1]
    painted = _paint(tuple(len(e) - 1 for e in edges), start, stop)
    clash = np.argwhere(painted > 1)
    if clash.size:
        p = clash[0]
        a, b = np.nonzero(np.all((start <= p) & (p < stop), axis=1))[0][:2]
        raise TilingError(f"cells {a} {cells[a].tolist()} and {b} {cells[b].tolist()} "
                          "have overlapping interiors")
    outside = np.any((start < box_start) | (stop > box_stop), axis=1)
    if outside.any():
        a = int(np.argmax(outside))
        raise TilingError(f"cell {a} {cells[a].tolist()} reaches outside the box")
    # no cell reaches outside, so the face grid spans the box and no more
    hole = np.argwhere(painted == 0)
    if hole.size:
        corners = np.array([e[i:i + 2] for e, i in zip(edges, hole[0])]).T
        raise TilingError(f"the cells leave a hole {corners.tolist()} in the box")


def assemble(v: PiecewisePoly, domain: GridDomain) -> GridDomain:
    """The domain with every cell-boundary lattice point of v marked as
    skeleton too, on top of what its skeleton already marks.

    v's cells tile the box, checked where v entered (module docstring); the
    lattice only marks v's cell boundaries, the skeleton of _classify_grid:
    the lattice points that no cell holds strictly inside (cells of another
    dimension than the box's are a TilingError there).
    """
    return domain.with_skeleton(domain.skeleton | _classify_grid(v.bounds, domain))


def _gathered_jets(
    mis: MultiIndexSet, centers: np.ndarray, coeffs: np.ndarray,
    own: np.ndarray, pts: np.ndarray,
) -> list[np.ndarray]:
    """Every flat jet variable (i, alpha), in flat order (component-major,
    graded-lex within), at each point, on the polynomials of its own cell,
    anchored at centers (cells, n), with coefficients (cells, K, count) per
    cell and component, own the cell of each point. Bit-identical to each
    polynomial's deriv_many."""
    dx = pts - centers[own]
    out = []
    for i in range(coeffs.shape[1]):
        c = coeffs[own, i]
        out.extend(_taylor_sum(mis, a, dx, c) for a in mis.alphas)
    return out


def sample_jets(v: PiecewisePoly, domain: GridDomain) -> tuple[GridDomain, np.ndarray]:
    """The domain with v's cell boundaries marked as well (see assemble),
    and every flat jet variable of v (PdeSystem.flat_vars) at its
    off-skeleton points, where v is continuous: rows (M, points), the
    points in C order of the lattice, as values[~marked.skeleton].

    Each such point is strictly inside one cell (see _interior_gather) and
    takes that cell's polynomial derivatives, gathered by owner in one
    pass (see _gathered_jets); grids.complete makes lattice functions of
    the rows by the normalize rule."""
    marked = assemble(v, domain)
    _, own, idx, pts = _interior_gather(marked, v.bounds)
    off = np.flatnonzero(~marked.skeleton[idx])
    at = off[np.argsort(np.ravel_multi_index(tuple(i[off] for i in idx), marked.shape))]
    return marked, np.array(_gathered_jets(v.mis, _centers(v.bounds), v.coeffs, own[at], pts[at]))


# ---------------------------------------------------------------------------
# artifacts


@dataclass(repr=False, eq=False)
class CellsLeaf:
    """Cells (C, 2, n) at an artifact leaf, one {"hi", "lo"} object each: all
    in one list, or with counts, one list per group of that many in a row."""

    cells: np.ndarray
    counts: tuple[int, ...] | None = None

    def tolist(self) -> list:
        """The leaf as lists and dicts, the form json.loads returns."""
        cells = [{"lo": lo, "hi": hi} for lo, hi in self.cells.tolist()]
        ends = list(itertools.accumulate(self.counts or ()))
        return cells if self.counts is None else [cells[a:b] for a, b in zip([0, *ends], ends)]

    def _seps(self) -> list[str]:
        """The text around the values of a non-empty leaf, hi then lo by cell."""
        n = self.cells.shape[2]
        cell = [","] * (n - 1) + ['],"lo":['] + [","] * (n - 1)  # inside a cell
        seps, before = [], "["  # before: the text up to the next value
        for i, k in enumerate((len(self.cells),) if self.counts is None else self.counts):
            before += "," * (i > 0) + "[]" * (k == 0)
            if k:
                seps += [before + '[{"hi":[', *cell, *([']},{"hi":['] + cell) * (k - 1)]
                before = "]}]"
        seps.append(before + "]")
        if self.counts is None:  # one list: no group's brackets
            seps[0], seps[-1] = seps[0][1:], seps[-1][:-1]
        return seps


def _array_seps(shape: tuple[int, ...]) -> list[str]:
    """json.dumps's text around the elements of a non-empty array's tolist()."""
    seps = [","] * (shape[-1] - 1)  # inside an innermost list
    for k, size in enumerate(reversed(shape[:-1]), start=1):
        seps += (["]" * k + "," + "[" * k] + seps) * (size - 1)
    return ["[" * len(shape), *seps, "]" * len(shape)]


def artifact_json(obj) -> str:
    """obj as one line of compact JSON with sorted keys, the text of every
    artifact file: json.dumps's (whose C encoder json.dump never uses) with
    each float64 array and CellsLeaf as its tolist(). Their floats are
    formatted together, each distinct value once (grids._format_distinct),
    and spliced in; an int or object array is a TypeError, as in json.dumps."""
    leaves: list[tuple[np.ndarray, list[str]]] = []  # values and their seps

    def leaf(o):
        values = o.cells[:, ::-1] if isinstance(o, CellsLeaf) else o
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        if values.ndim == 0 or values.size == 0:
            return o.tolist()
        leaves.append((values.reshape(-1),
                       o._seps() if isinstance(o, CellsLeaf) else _array_seps(o.shape)))
        return marker

    # A leaf leaves the token json.dumps(marker), "\u0000...", after "[", ","
    # or ":" or at the start, and before ",", "]", "}" or the end. No other
    # occurrence can overlap it (that needs a "0" before its first quote or
    # a "\\" after its last), so one piece more than leaves proves there is none.
    for marker in ("\x00" * 2 ** i for i in itertools.count()):
        leaves.clear()
        pieces = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                            default=leaf).split(json.dumps(marker))
        if len(pieces) == len(leaves) + 1:
            break
    seps = [pieces[0]]
    for (_, around), piece in zip(leaves, pieces[1:]):
        seps[-1:] = [seps[-1] + around[0], *around[1:-1], around[-1] + piece]
    texts = _format_distinct(np.concatenate([v for v, _ in leaves]), {
        "inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}) if leaves else []
    parts: list = [None] * (2 * len(texts) + 1)
    parts[::2], parts[1::2] = seps, texts
    return "".join(parts) + "\n"


def float_array(stored, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A stored array as floats of the given shape, or a ValueError naming it."""
    try:
        a = np.asarray(stored, dtype=float)
    except ValueError as e:  # ragged rows or a non-number
        raise ValueError(f"{name}: {e}") from None
    if a.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, found {a.shape}")
    return a


def write_atomic(path, content: str | dict[str, GridFunction] | np.ndarray) -> None:
    """Write content, text, named GridFunctions as one CSV file (write_csv)
    or an array as .npy, to a file beside path, then move it over path. On
    any failure the file beside path is removed and the error re-raised."""
    tmp = f"{path}.tmp"
    try:
        if isinstance(content, dict):
            write_csv(content, tmp)
        elif isinstance(content, np.ndarray):
            with open(tmp, "wb") as fh:
                np.lib.format.write_array(fh, content, allow_pickle=False)
        else:
            with open(tmp, "w") as fh:
                fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # it may never have been made
            os.remove(tmp)
        raise


def _record_dtype(n: int, K: int, count: int) -> np.dtype:
    """One cell's record in a polynomial file: its corners lo and hi, then
    its coefficients (K, count), graded-lex within a component."""
    return np.dtype([("lo", "<f8", (n,)), ("hi", "<f8", (n,)), ("coeffs", "<f8", (K, count))])


def write_poly_json(v: PiecewisePoly, path) -> None:
    """v's polynomial file: one .npy array of _record_dtype records, one per
    cell, with no anchors (each is its cell's center). The name predates the
    format; ROADMAP item 2 may rename it and read_poly_json."""
    rec = np.empty(len(v.bounds), _record_dtype(v.space_dim, v.components, v.mis.count))
    rec["lo"], rec["hi"], rec["coeffs"] = v.bounds[:, 0], v.bounds[:, 1], v.coeffs
    write_atomic(path, rec)


def read_poly_json(path) -> PiecewisePoly:
    """The polynomial of a file write_poly_json wrote, or a ValueError. The
    file holds one 1-D array of records of exactly _record_dtype(n, K,
    count), count the multi-index count of an order m, and nothing after
    it; PiecewisePoly checks the bounds. A header that numpy's parser
    rejects with another error, or reads only through its filter for
    Python 2 headers, which warns, is malformed too. The name predates the
    format."""
    with open(path, "rb") as fh:  # not np.load: an empty file or a zip is a ValueError too
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                rec = np.lib.format.read_array(fh, allow_pickle=False)
        except (tokenize.TokenError, SyntaxError, UserWarning) as e:
            raise ValueError(f"malformed .npy header: {type(e).__name__}: {e}") from None
        if fh.read(1):
            raise ValueError("trailing bytes after the array")
    try:
        (n,), (K, count) = rec.dtype["lo"].shape, rec.dtype["coeffs"].shape
    except (KeyError, ValueError):  # no such field, or one of another rank
        n = K = count = 0
    m = next(m for m in itertools.count() if math.comb(n + m, n) >= count) if n else 0
    if not (n and math.comb(n + m, n) == count and rec.dtype == _record_dtype(n, K, count)
            and rec.ndim == 1):
        raise ValueError(f"not a 1-D array of polynomial records: shape {rec.shape}, "
                         f"dtype {rec.dtype}")
    return PiecewisePoly(np.stack([rec["lo"], rec["hi"]], axis=1),
                         np.ascontiguousarray(rec["coeffs"]), _multi_index_set(n, m))
