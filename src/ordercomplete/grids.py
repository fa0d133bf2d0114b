"""Grid functions with jump skeletons and their order calculus.

A GridDomain is a rectangular box sampled on a regular lattice together
with a marked point set (the skeleton). A GridFunction on it is read as a
piecewise continuous function: continuous on the complement of the
skeleton, with jumps only across skeleton points. Off-skeleton values are
finite; skeleton points may carry +inf or -inf.

Under that reading, the lower envelope operator evaluated at a skeleton
point is the minimum of the stored value and the limiting values of the
adjacent continuous pieces, which the lattice approximates by the nearest
unmarked neighbours; the upper operator is dual. Their composition
(normalize) replaces every skeleton value by the minimum adjacent limit
and leaves unmarked points untouched, so it is exactly idempotent.

The skeleton must be discretely nowhere dense: every 2 x ... x 2 block of
interior lattice points contains an unmarked point.

All functions here are pure; none mutates its arguments.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

_INF = math.inf


def is_nowhere_dense(mask: np.ndarray) -> bool:
    """True iff every 2 x ... x 2 block of interior points has an unmarked point."""
    mask = np.asarray(mask, dtype=bool)
    full = mask[(slice(1, -1),) * mask.ndim]
    if any(s < 2 for s in full.shape):
        return True
    for d in range(mask.ndim):  # a block is full iff both its halves along d are
        at = (slice(None),) * d
        full = full[at + (slice(0, -1),)] & full[at + (slice(1, None),)]
    return not full.any()


@dataclass(init=False, repr=False, eq=False)
class GridDomain:
    """Box [lo, hi] sampled on a regular lattice with a marked skeleton."""

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]
    skeleton: np.ndarray

    def __init__(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        shape: Sequence[int],
        skeleton: np.ndarray | None = None,
    ) -> None:
        self.lo = np.asarray(lo, dtype=float).copy()
        self.hi = np.asarray(hi, dtype=float).copy()
        self.shape = tuple(int(s) for s in shape)
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if len(self.shape) != self.lo.size:
            raise ValueError("shape length must match box dimension")
        if np.any(self.hi <= self.lo):
            raise ValueError("box must have positive extent on every axis")
        # so a width squared (checker.tile_domain) and a sum of bounds stay finite
        if not np.all(np.abs(np.concatenate([self.lo, self.hi])) <= 1e150):
            raise ValueError("box bounds must lie within +-1e+150")
        if any(s < 3 for s in self.shape):
            raise ValueError("resolution must be at least 3 points per axis")
        if skeleton is None:
            skeleton = np.zeros(self.shape, dtype=bool)
        skeleton = np.asarray(skeleton, dtype=bool).copy()
        if skeleton.shape != self.shape:
            raise ValueError("skeleton shape must match grid shape")
        if not is_nowhere_dense(skeleton):
            raise ValueError("skeleton violates discrete nowhere-density")
        self.skeleton = skeleton
        self.lo.setflags(write=False)
        self.hi.setflags(write=False)
        self.skeleton.setflags(write=False)
        self._axes = tuple(
            np.linspace(self.lo[d], self.hi[d], self.shape[d]) for d in range(self.ndim)
        )
        # the classifiers' searchsorted matches elementwise comparison only
        # on strictly increasing axes
        for a in self._axes:
            if not (a[1:] > a[:-1]).all():
                raise ValueError("lattice axes must increase strictly; the box is "
                                 "too narrow for the resolution")
            a.setflags(write=False)
        # write_csv's coordinate text, built once and shared by with_skeleton
        self._csv_coords = functools.cache(lambda axes=self._axes: tuple(map(
            "".join, itertools.product(*([repr(v) + "," for v in a.tolist()] for a in axes)))))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> np.ndarray:
        return (self.hi - self.lo) / (np.asarray(self.shape, dtype=float) - 1.0)

    def axis(self, d: int) -> np.ndarray:
        """Lattice coordinates along axis d (read-only, built once)."""
        return self._axes[d]

    def meshes(self) -> list[np.ndarray]:
        """Coordinate arrays of the full lattice, one per axis, grid-shaped."""
        return np.meshgrid(*(self.axis(d) for d in range(self.ndim)), indexing="ij")

    @functools.cached_property
    def _csv_rows(self) -> list[str]:
        """write_csv's text of this domain between its rows' values: [row 0's
        coordinates, row 0's flag + row 1's coordinates, ..., the last flag]."""
        coords = self._csv_coords()
        flags = np.where(self.skeleton.reshape(-1), ",1\r\n", ",0\r\n").tolist()
        return [coords[0], *map(str.__add__, flags, coords[1:]), flags[-1]]

    def with_skeleton(self, skeleton: np.ndarray) -> "GridDomain":
        other = GridDomain(self.lo, self.hi, self.shape, skeleton)
        other._csv_coords = self._csv_coords
        return other

    def same_lattice(self, other: "GridDomain") -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridDomain):
            return NotImplemented
        return self.same_lattice(other) and np.array_equal(self.skeleton, other.skeleton)


@dataclass(init=False, repr=False, eq=False)
class GridFunction:
    """Sampled values over a GridDomain; finite off-skeleton, +-inf allowed on it."""

    domain: GridDomain
    values: np.ndarray
    normalized: bool = False

    def __init__(self, domain: GridDomain, values: np.ndarray, normalized: bool = False):
        self.domain = domain
        vals = np.asarray(values, dtype=float).copy()
        if vals.shape != domain.shape:
            raise ValueError("values shape must match grid shape")
        if np.isnan(vals).any():
            raise ValueError("grid function values must not contain NaN")
        off = ~domain.skeleton
        if not np.all(np.isfinite(vals[off])):
            raise ValueError("grid function must be finite off the skeleton")
        self.values = vals
        self.values.setflags(write=False)
        self.normalized = bool(normalized)

    def _off_skeleton(self, op, other) -> "GridFunction":
        """op of self and other (a GridFunction or a number) off the
        skeleton, completed there by the normalize rule: normalized."""
        off = ~self.domain.skeleton
        if isinstance(other, GridFunction):
            _require_same_domain(self, other)
            other = other.values[off]
        return complete(self.domain, off, [op(self.values[off], other)])[0]

    def __add__(self, other: "GridFunction | float") -> "GridFunction":
        """self + other off the skeleton, normalized (see _off_skeleton)."""
        return self._off_skeleton(np.add, other)

    def __sub__(self, other: "GridFunction | float") -> "GridFunction":
        """self - other off the skeleton, normalized (see _off_skeleton)."""
        return self._off_skeleton(np.subtract, other)

    def __mul__(self, c: float) -> "GridFunction":
        """c self off the skeleton, normalized (see _off_skeleton)."""
        return self._off_skeleton(np.multiply, float(c))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(self.values, other.values)


@dataclass(repr=False)
class OrderInterval:
    """Pair of grid functions with lower <= upper off the skeleton."""

    lower: GridFunction
    upper: GridFunction

    def __post_init__(self) -> None:
        _require_same_domain(self.lower, self.upper)
        off = ~self.lower.domain.skeleton
        if not np.all(self.lower.values[off] <= self.upper.values[off]):
            raise ValueError("order interval bounds cross off-skeleton")

    @property
    def domain(self) -> GridDomain:
        return self.lower.domain


def _require_same_domain(u: GridFunction, v: GridFunction) -> None:
    if u.domain != v.domain:
        raise ValueError("grid functions live on different domains")


# ---------------------------------------------------------------------------
# neighbour machinery


def _box_extreme(values: np.ndarray, halves: Sequence[int], minimize: bool) -> np.ndarray:
    """Per point of the trailing len(halves) axes of values: the extreme over
    the box window of index half-widths halves, clipped to the lattice.

    A box window is separable: one pass per axis, from the last axis to the
    first, each reducing the shifted views of one copy padded by the fill
    value (which never wins), from the lowest offset to the highest.
    """
    op = np.minimum if minimize else np.maximum
    fill = _INF if minimize else -_INF
    lead = values.ndim - len(halves)
    for d in reversed(range(len(halves))):
        ax, h = lead + d, halves[d]
        size, at = values.shape[ax], (slice(None),) * ax
        shape = list(values.shape)
        shape[ax] += 2 * h
        padded = np.full(shape, fill)
        padded[at + (slice(h, h + size),)] = values
        # op breaks a tie (only +0.0 and -0.0 tie in different bits) the same
        # way at every call (numpy returns its second argument), so the
        # offsets of each axis taken lowest first, the last axis first, pick
        # the tied offset that op taken over the window in itertools.product
        # order picks: signed zeros come out as from that offset loop
        values = op(padded[at + (slice(0, size),)], padded[at + (slice(1, size + 1),)])
        for o in range(2, 2 * h + 1):
            op(values, padded[at + (slice(o, o + size),)], out=values)
    return values


def _neighbor_extreme(domain: GridDomain, values: np.ndarray, minimize: bool) -> np.ndarray:
    """Per point: extreme of values over the nearest unmarked neighbours.

    values is lattice-shaped or a stack (..., *domain.shape), every leading
    slice handled in the same box pass. Ring-1 (Chebyshev) neighbours are
    one _box_extreme pass over the values with the skeleton masked to the
    fill value; skeleton points whose whole immediate neighbourhood is
    marked fall back to expanding ring search, one slice at a time. Only
    needed at skeleton points, computed everywhere.
    """
    skel = domain.skeleton
    n = domain.ndim
    fill = _INF if minimize else -_INF
    acc = _box_extreme(np.where(skel, fill, values), (1,) * n, minimize)
    unresolved = skel & (acc == fill)
    lead = values.ndim - n
    for idx in zip(*np.nonzero(unresolved)):
        acc[idx] = _ring_extreme(domain, values[idx[:lead]], idx[lead:], minimize)
    return acc


def _ring_extreme(
    domain: GridDomain, values: np.ndarray, idx: tuple[int, ...], minimize: bool
) -> float:
    skel = domain.skeleton
    for r in range(2, max(domain.shape)):
        window = tuple(
            slice(max(0, i - r), min(s, i + r + 1)) for i, s in zip(idx, domain.shape)
        )
        free = ~skel[window]
        if free.any():
            vals = values[window][free]
            return float(vals.min() if minimize else vals.max())
    raise ValueError("grid has no unmarked points to borrow a limit value from")


def skeleton_fill(domain: GridDomain, values: np.ndarray) -> np.ndarray:
    """Replace skeleton values by the minimum nearest unmarked neighbour value.

    This is the normalize rule; the off-skeleton entries pass through
    unchanged and the skeleton entries are never read. values is
    lattice-shaped or a stack (..., *domain.shape) of such arrays, all
    filled in one box pass. Input array is not modified.
    """
    values = np.asarray(values, dtype=float)
    return np.where(domain.skeleton, _neighbor_extreme(domain, values, minimize=True), values)


def complete(domain: GridDomain, where, rows) -> list[GridFunction]:
    """Normalized GridFunctions on domain, one per row: each row scattered
    at where (a tuple of lattice index arrays or a lattice mask), the rest
    of the lattice completed by the normalize rule, all rows in one stacked
    skeleton_fill. Values scattered onto skeleton points are never read."""
    stack = np.zeros((len(rows),) + domain.shape)
    for layer, row in zip(stack, rows):
        layer[where] = row
    return [GridFunction(domain, v, normalized=True) for v in skeleton_fill(domain, stack)]


# ---------------------------------------------------------------------------
# envelope operators


def baire_lower(u: GridFunction) -> GridFunction:
    """Lower envelope: min of own value and adjacent-piece limits at marked points."""
    skel = u.domain.skeleton
    nbr = _neighbor_extreme(u.domain, u.values, minimize=True)
    out = np.array(u.values)
    out[skel] = np.minimum(u.values[skel], nbr[skel])
    return GridFunction(u.domain, out)


def baire_upper(u: GridFunction) -> GridFunction:
    """Upper envelope, dual to baire_lower."""
    skel = u.domain.skeleton
    nbr = _neighbor_extreme(u.domain, u.values, minimize=False)
    out = np.array(u.values)
    out[skel] = np.maximum(u.values[skel], nbr[skel])
    return GridFunction(u.domain, out)


def normalize(u: GridFunction) -> GridFunction:
    """baire_lower(baire_upper(u)), exactly idempotent. At a skeleton point
    that is min(max(u, nbr_max), nbr_min) = nbr_min, both extrema over the
    same unmarked neighbours: the one pass of skeleton_fill."""
    return GridFunction(u.domain, skeleton_fill(u.domain, u.values), normalized=True)


# ---------------------------------------------------------------------------
# convergence certificates

_CHAIN_LEGS = ("lower_monotone", "lower_bracket", "upper_bracket", "upper_monotone")


@dataclass(repr=False)
class OrderConvergenceCertificate:
    """Verdict of order_convergence_check: the monotone chain, its first
    violation (n, leg, value), and the terminal gaps against tol."""

    chain_ok: bool
    first_violation: tuple[int, str, float] | None
    sup_gap: float
    inf_gap: float
    tol: float
    passed: bool


def order_convergence_check(
    seq: Sequence[np.ndarray],
    lambdas: Sequence[np.ndarray],
    mus: Sequence[np.ndarray],
    u: np.ndarray,
    tol: float,
) -> OrderConvergenceCertificate:
    """Certify monotone bracketing and terminal gap of an order-convergent triple.

    Every array holds one function's values at the same points, the
    off-skeleton points of one lattice. Checks, exactly, for every n:
    lambda_n <= lambda_{n+1} <= u_{n+1} <= mu_{n+1} <= mu_n, then measures
    the terminal gaps max(u - lambda_N) and max(mu_N - u). Passes when the
    chain holds and both gaps are below tol.
    """
    if not (len(seq) == len(lambdas) == len(mus)) or not seq:
        raise ValueError("sequences must be non-empty and of equal length")
    if any(np.shape(a) != np.shape(u) for a in itertools.chain(seq, lambdas, mus)):
        raise ValueError("all arrays must hold values at the same points")
    chain_ok = True
    first_violation: tuple[int, str, float] | None = None
    for n in range(len(seq) - 1):
        legs = (
            lambdas[n + 1] - lambdas[n],
            seq[n + 1] - lambdas[n + 1],
            mus[n + 1] - seq[n + 1],
            mus[n] - mus[n + 1],
        )
        for leg_name, diff in zip(_CHAIN_LEGS, legs):
            worst = float(diff.min()) if diff.size else 0.0
            if worst < 0.0:
                chain_ok = False
                if first_violation is None:
                    first_violation = (n, leg_name, worst)
    sup_gap = float(np.max(u - lambdas[-1]))
    inf_gap = float(np.max(mus[-1] - u))
    passed = chain_ok and sup_gap < tol and inf_gap < tol
    return OrderConvergenceCertificate(
        chain_ok=chain_ok,
        first_violation=first_violation,
        sup_gap=sup_gap,
        inf_gap=inf_gap,
        tol=float(tol),
        passed=passed,
    )


@dataclass(repr=False)
class QuasiUniformResult:
    """Exceptional set and per-point entry indices for quasi-uniform decay.

    gamma marks unmarked lattice points where no index N in the provided
    sequence achieves seq[N] - u < eps; n_map holds the minimal such
    1-based N elsewhere (0 on gamma and on the domain skeleton).
    """

    gamma: np.ndarray
    n_map: np.ndarray
    nowhere_dense_ok: bool
    eps: float


def quasi_uniform_check(
    seq: Sequence[GridFunction], u: GridFunction, eps: float
) -> QuasiUniformResult:
    if not seq:
        raise ValueError("sequence must be non-empty")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    for g in seq:
        if g.domain != u.domain:
            raise ValueError("all grid functions must share one domain")
    off = ~u.domain.skeleton
    for k in range(len(seq) - 1):
        if not np.all(seq[k + 1].values[off] <= seq[k].values[off]):
            raise ValueError(f"sequence is not non-increasing at index {k}")
    if not np.all(u.values[off] <= seq[-1].values[off]):
        raise ValueError("u is not a lower bound of the sequence")
    # off the skeleton only, where the values are finite
    below = np.stack([g.values[off] - u.values[off] for g in seq]) < eps
    hit = below.any(axis=0)
    n_map = np.zeros(u.domain.shape, dtype=int)
    n_map[off] = np.where(hit, below.argmax(axis=0) + 1, 0)
    gamma = np.zeros(u.domain.shape, dtype=bool)
    gamma[off] = ~hit
    gamma_ok = is_nowhere_dense(gamma)
    return QuasiUniformResult(
        gamma=gamma, n_map=n_map, nowhere_dense_ok=gamma_ok, eps=float(eps)
    )


# ---------------------------------------------------------------------------
# CSV serialization


def _format_values(vals: np.ndarray) -> np.ndarray:
    """The repr text of each value, in one repr call."""
    return np.array(repr(vals.tolist())[1:-1].split(", "), dtype=object)


def _format_distinct(values: np.ndarray, special: dict[str, str]) -> list[str]:
    """The text of each float64 of values in C order, repr's or special's for
    a non-finite repr. Each distinct value, told apart by its bits so that
    -0.0 and 0.0 keep their own text, is formatted once, in one call."""
    bits, where = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    vals = bits.view(np.float64)
    text = _format_values(vals)
    for at in np.flatnonzero(~np.isfinite(vals)):
        text[at] = special.get(text[at], text[at])
    return text[where].tolist()


# rows per write: a file is never built as one string
_CSV_BLOCK = 512


def write_csv(columns: Mapping[str, GridFunction], path) -> None:
    """One row per lattice point in C order: coordinates, the value of each
    column (a name to GridFunction mapping, all on one domain, else a
    ValueError), skeleton flag; write_csv({"value": gf}, path) writes one.

    The bytes are those csv.writer gives (fields joined by ",", rows ended
    by "\r\n", no field quoted, the names written as they are). The
    coordinate text is built once per lattice and the flags once per
    domain (GridDomain._csv_rows); the values' text (_format_distinct, one
    call per column, so no array of the whole file is made) fills the gaps
    between them, _CSV_BLOCK rows per write. Skeleton points copy a
    neighbour's value, so a column holds few distinct values.
    """
    gfs = list(columns.values())
    for g in gfs[1:]:
        _require_same_domain(gfs[0], g)
    domain, k = gfs[0].domain, len(gfs)
    joins = domain._csv_rows
    texts = [_format_distinct(g.values, {"inf": "+inf"}) for g in gfs]
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"x{d + 1}," for d in range(domain.ndim))
                 + ",".join(columns) + ",skeleton\r\n")
        for start in range(0, len(joins) - 1, _CSV_BLOCK):
            stop = min(start + _CSV_BLOCK, len(joins) - 1)
            # per row: the text before its first value, then value, ",", value, ...
            parts = [","] * (2 * k * (stop - start))
            parts[::2 * k] = joins[start:stop]
            for j, column in enumerate(texts):
                parts[2 * j + 1::2 * k] = column[start:stop]
            fh.write("".join(parts))
        fh.write(joins[-1])


def read_csv(path) -> dict[str, GridFunction]:
    """The columns of a file write_csv wrote, by name, on one domain, or a
    ValueError: the header must be x1,...,xn, distinct names, skeleton,
    every row as wide as it, every flag 0 or 1, and the rows must hold each
    point of the regular lattice their coordinates span exactly once."""
    import csv  # no `run` or `verify` reads a CSV file

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = list(reader)
    n = next(d for d in itertools.count() if d == len(header) or header[d] != f"x{d + 1}")
    names = header[n:-1]
    if not (n and names and header[-1] == "skeleton" and len(set(names)) == len(names)):
        raise ValueError("expected the header x1,...,xn, then distinct column names, "
                         "then skeleton")
    if not rows or any(len(r) != len(header) for r in rows):
        raise ValueError(f"expected rows of {len(header)} fields")
    cols = list(zip(*rows))
    coords = np.array(cols[:n], dtype=float)
    axes = [np.unique(c) for c in coords]
    shape = tuple(map(len, axes))
    if math.prod(shape) != len(rows):
        raise ValueError("rows do not form a full lattice")
    at = np.ravel_multi_index([np.searchsorted(a, c) for a, c in zip(axes, coords)], shape)
    seen = np.zeros(len(rows), dtype=bool)
    seen[at] = True
    if not seen.all():
        raise ValueError("rows must hold each lattice point exactly once")
    if not set(cols[-1]) <= {"0", "1"}:
        raise ValueError("skeleton flags must be 0 or 1")
    skel = np.empty(len(rows), dtype=bool)
    skel[at] = np.array(cols[-1]) == "1"
    domain = GridDomain([a[0] for a in axes], [a[-1] for a in axes], shape, skel.reshape(shape))
    if not all(np.array_equal(a, domain.axis(d)) for d, a in enumerate(axes)):
        raise ValueError("coordinates are not the regular lattice of their box")
    out = {}
    for name, col in zip(names, cols[n:-1]):
        values = np.empty(len(rows))
        values[at] = np.array(col, dtype=float)
        out[name] = GridFunction(domain, values.reshape(shape))
    return out
