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

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(eq=False)
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
    def _csv_rows(self) -> list[str | None]:
        """write_csv's text of this domain, each row's value left None: [header +
        row 0's coordinates, None, row 0's flag + row 1's coordinates, ...]."""
        coords = self._csv_coords()
        flags = np.where(self.skeleton.reshape(-1), ",1\r\n", ",0\r\n").tolist()
        header = "".join(f"x{d + 1}," for d in range(self.ndim)) + "value,skeleton\r\n"
        rows: list[str | None] = [None] * (2 * len(coords) + 1)
        rows[::2] = [header + coords[0], *map(str.__add__, flags, coords[1:]), flags[-1]]
        return rows

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


@dataclass(eq=False)
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


@dataclass(frozen=True)
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


def lattice_sup(u: GridFunction, v: GridFunction) -> GridFunction:
    """Least normalized function dominating u and v off the skeleton."""
    _require_same_domain(u, v)
    return normalize(GridFunction(u.domain, np.maximum(u.values, v.values)))


def lattice_inf(u: GridFunction, v: GridFunction) -> GridFunction:
    _require_same_domain(u, v)
    return normalize(GridFunction(u.domain, np.minimum(u.values, v.values)))


def leq_dense(u: GridFunction, v: GridFunction) -> bool:
    """u <= v at every unmarked point."""
    _require_same_domain(u, v)
    off = ~u.domain.skeleton
    return bool(np.all(u.values[off] <= v.values[off]))


# ---------------------------------------------------------------------------
# convergence certificates

_CHAIN_LEGS = ("lower_monotone", "lower_bracket", "upper_bracket", "upper_monotone")


@dataclass(frozen=True)
class OrderConvergenceCertificate:
    chain_ok: bool
    first_violation: tuple[int, str, float] | None
    sup_gap: float
    inf_gap: float
    tol: float
    passed: bool


def order_convergence_check(
    seq: Sequence[GridFunction],
    lambdas: Sequence[GridFunction],
    mus: Sequence[GridFunction],
    u: GridFunction,
    tol: float,
) -> OrderConvergenceCertificate:
    """Certify monotone bracketing and terminal gap of an order-convergent triple.

    Checks, exactly and off-skeleton, for every n:
    lambda_n <= lambda_{n+1} <= u_{n+1} <= mu_{n+1} <= mu_n, then measures
    the terminal gaps max(u - lambda_N) and max(mu_N - u). Passes when the
    chain holds and both gaps are below tol.
    """
    if not (len(seq) == len(lambdas) == len(mus)) or not seq:
        raise ValueError("sequences must be non-empty and of equal length")
    for g in itertools.chain(seq, lambdas, mus, (u,)):
        if g.domain != u.domain:
            raise ValueError("all grid functions must share one domain")
    off = ~u.domain.skeleton
    chain_ok = True
    first_violation: tuple[int, str, float] | None = None
    for n in range(len(seq) - 1):
        legs = (
            lambdas[n + 1].values[off] - lambdas[n].values[off],
            seq[n + 1].values[off] - lambdas[n + 1].values[off],
            mus[n + 1].values[off] - seq[n + 1].values[off],
            mus[n].values[off] - mus[n + 1].values[off],
        )
        for leg_name, diff in zip(_CHAIN_LEGS, legs):
            worst = float(diff.min()) if diff.size else 0.0
            if worst < 0.0:
                chain_ok = False
                if first_violation is None:
                    first_violation = (n, leg_name, worst)
    sup_gap = float(np.max(u.values[off] - lambdas[-1].values[off]))
    inf_gap = float(np.max(mus[-1].values[off] - u.values[off]))
    passed = chain_ok and sup_gap < tol and inf_gap < tol
    return OrderConvergenceCertificate(
        chain_ok=chain_ok,
        first_violation=first_violation,
        sup_gap=sup_gap,
        inf_gap=inf_gap,
        tol=float(tol),
        passed=passed,
    )


@dataclass(frozen=True)
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


def _parse_value(s: str) -> float:
    if s == "+inf":
        return _INF
    if s == "-inf":
        return -_INF
    return float(s)


def write_csv(gf: GridFunction, path) -> None:
    """One row per lattice point in C order: coordinates, value, skeleton flag.

    The bytes are those csv.writer gives (fields joined by ",", rows ended
    by "\r\n", no field quoted). The coordinate text is built once per
    lattice and the flags once per domain (GridDomain._csv_rows); the values'
    text (_format_distinct) fills a copy of it. Skeleton points copy a
    neighbour's value, so a file holds few distinct values.
    """
    rows = gf.domain._csv_rows.copy()
    rows[1::2] = _format_distinct(gf.values, {"inf": "+inf"})
    with open(path, "w", newline="") as fh:
        fh.write("".join(rows))


def read_csv(path) -> GridFunction:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    if len(header) < 3 or header[-2] != "value" or header[-1] != "skeleton":
        raise ValueError("expected coordinate columns followed by value,skeleton")
    n = len(header) - 2
    coords = [[float(r[d]) for d in range(n)] for r in rows]
    axes = [np.array(sorted({c[d] for c in coords})) for d in range(n)]
    shape = tuple(len(a) for a in axes)
    if int(np.prod(shape)) != len(rows):
        raise ValueError("rows do not form a full lattice")
    index_of = [{v: i for i, v in enumerate(a)} for a in axes]
    values = np.empty(shape)
    skel = np.zeros(shape, dtype=bool)
    for r, c in zip(rows, coords):
        idx = tuple(index_of[d][c[d]] for d in range(n))
        values[idx] = _parse_value(r[n])
        skel[idx] = bool(int(r[n + 1]))
    domain = GridDomain([a[0] for a in axes], [a[-1] for a in axes], shape, skel)
    return GridFunction(domain, values)
