"""Order-interval pushforward through the operator, nested-interval limit
diagnostics, envelope sequences, and comparison against a reference
solution.

The pushforward replaces exact pointwise extrema of F over a jet box with
the rigorous outer enclosure from interval arithmetic: wider, never
narrower, which is all the containment claims need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .grids import GridDomain, GridFunction, OrderInterval, _box_extreme, complete
from .intervals import Interval, IntervalDomainError
from .pde import PdeSystem


def interval_pushforward(
    sys: PdeSystem, intervals: Sequence[OrderInterval], domain: GridDomain
) -> tuple[OrderInterval, ...]:
    """Enclose {F_j(x, xi) : xi_v in intervals_v(x)} pointwise on the lattice.

    intervals holds one order interval per flat jet variable, in component-
    major order. Each F_j is evaluated once, in interval arithmetic over the
    off-skeleton points, as apply_operator evaluates F; the skeleton is
    completed by the normalize rule, so its input values are never read.
    Output bounds are outer enclosures. A jet box on which some operation
    of F_j faults (its operand lies wholly outside the domain) is reported
    with the component, the first lattice point where F_j faults and the
    mask of all such points; an enclosure that is not finite, likewise.
    """
    fv = sys.flat_vars()
    if len(intervals) != len(fv):
        raise ValueError(f"expected {len(fv)} order intervals, got {len(intervals)}")
    for iv in intervals:
        if iv.lower.domain != domain:
            raise ValueError("all intervals must live on the given domain")
    off = ~domain.skeleton
    x_ivs = [Interval.point(m[off]) for m in domain.meshes()]
    jet_ivs = {v: Interval(iv.lower.values[off], iv.upper.values[off])
               for v, iv in zip(fv, intervals)}
    rows = []
    for j, Fj in enumerate(sys.F):
        try:
            out = ex.eval_interval(Fj, x_ivs, jet_ivs)
        except ex.EvalDomainError as err:
            raise _located(j, "undefined", err.faulted, domain, str(err)) from err
        unbounded = ~(np.isfinite(out.lo) & np.isfinite(out.hi))
        if unbounded.any():
            raise _located(j, "unbounded", unbounded, domain, "the enclosure is not finite")
        rows += [out.lo, out.hi]
    bounds = complete(domain, off, rows)
    return tuple(OrderInterval(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]))


def _located(j: int, what: str, faulted: np.ndarray, domain: GridDomain,
             detail: str) -> IntervalDomainError:
    """The error for component j at the first lattice point of faulted, a
    mask over the off-skeleton points in C order."""
    mask = np.zeros(domain.shape, dtype=bool)
    mask[~domain.skeleton] = faulted
    idx = np.unravel_index(int(np.argmax(mask)), domain.shape)
    return IntervalDomainError(
        f"operator component {j + 1} {what} over the jet box at lattice point "
        f"{tuple(int(i) for i in idx)}: {detail}", faulted=mask)


# ---------------------------------------------------------------------------
# nested interval sequences


@dataclass(eq=False)
class IntervalSequence:
    """Per-index tuples of order intervals, nested componentwise off-skeleton."""

    steps: list[tuple[OrderInterval, ...]]

    def __init__(self, steps: Sequence[Sequence[OrderInterval]]):
        self.steps = [tuple(s) for s in steps]
        if not self.steps:
            raise ValueError("sequence must be non-empty")
        width = len(self.steps[0])
        dom = self.steps[0][0].lower.domain
        for s in self.steps:
            if len(s) != width:
                raise ValueError("all steps must have the same number of components")
            for iv in s:
                if iv.lower.domain != dom:
                    raise ValueError("all intervals must share one domain")
        off = ~dom.skeleton
        for n in range(len(self.steps) - 1):
            for c in range(width):
                cur, nxt = self.steps[n][c], self.steps[n + 1][c]
                if np.any(nxt.lower.values[off] < cur.lower.values[off]) or np.any(
                    nxt.upper.values[off] > cur.upper.values[off]
                ):
                    raise ValueError(
                        f"nestedness violated at step {n}, component {c}"
                    )

    @property
    def domain(self) -> GridDomain:
        return self.steps[0][0].lower.domain

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class NestedLimitComponent:
    verdict: str  # "converges" or "empty/slow"
    max_final_width: float
    limit: GridFunction | None
    offending: np.ndarray | None  # lattice mask where final width >= tol


@dataclass(frozen=True)
class NestedLimitReport:
    tol: float
    components: tuple[NestedLimitComponent, ...]

    def all_converge(self) -> bool:
        return all(c.verdict == "converges" for c in self.components)


def nested_limit_check(seq: IntervalSequence, tol: float) -> NestedLimitReport:
    """Per component: do the interval widths shrink below tol off-skeleton?

    Convergent components report the midpoint of the final interval as the
    limit candidate, all completed in one call; the rest report the subgrid
    still above tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    dom = seq.domain
    off = ~dom.skeleton
    finals = seq.steps[-1]
    # off the skeleton only, where the values are finite
    widths = [iv.upper.values[off] - iv.lower.values[off] for iv in finals]
    max_ws = [float(np.max(w)) if w.size else 0.0 for w in widths]
    conv = [c for c, w in enumerate(max_ws) if w < tol]
    limits = dict(zip(conv, complete(dom, off, [
        0.5 * (finals[c].lower.values[off] + finals[c].upper.values[off]) for c in conv])))
    out = []
    for c, w in enumerate(max_ws):
        if c in limits:
            out.append(NestedLimitComponent("converges", w, limits[c], None))
        else:
            offending = np.zeros(dom.shape, dtype=bool)
            offending[off] = widths[c] >= tol
            out.append(NestedLimitComponent("empty/slow", w, None, offending))
    return NestedLimitReport(tol=float(tol), components=tuple(out))


# ---------------------------------------------------------------------------
# envelope sequences


def envelope_sequence(u: GridFunction, count: int) -> IntervalSequence:
    """The normalized sandwich u -/+ 1/n for n = 1..count, as order intervals."""
    if count < 1:
        raise ValueError("count must be at least 1")
    return IntervalSequence([(OrderInterval(u + (-1.0 / n), u + 1.0 / n),)
                             for n in range(1, count + 1)])


def dilation_envelopes(
    u: GridFunction, count: int, r0: float
) -> list[GridFunction]:
    """Upper envelopes by morphological dilation with shrinking radius.

    Step k takes running maxima over the lattice ball of radius max(r0/k, h)
    in the max-norm, h being one grid cell, so the radius never drops below
    a single cell: at an unmarked point over the unmarked values only, so
    skeleton values are never read off the skeleton (as under normalize),
    and at a skeleton point over all values. The result is non-increasing
    in k and bounds u from above everywhere; near a jump the envelope keeps
    the high side's value until the radius floor, which confines the slow
    set to the jump's grid neighborhood. Where +0.0 and -0.0 tie for the
    maximum, the zero is the one np.maximum gives folded over the window in
    itertools.product order of the offsets: with numpy keeping its second
    argument on a tie, that of the last tied offset.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    spacing = u.domain.spacing
    skel = u.domain.skeleton
    # row 0 dilates the unmarked values, row 1 all of them
    vals = np.stack([np.where(skel, -np.inf, u.values), u.values])
    out = []
    for k in range(1, count + 1):
        r = max(r0 / k, float(np.max(spacing)))
        halves = [max(1, int(np.floor(r / h + 1e-12))) for h in spacing]
        dilated = _box_extreme(vals, halves, minimize=False)
        out.append(GridFunction(u.domain, np.where(skel, dilated[1], dilated[0])))
    return out


# ---------------------------------------------------------------------------
# reference comparison


@dataclass(frozen=True)
class ReferenceReport:
    """Per stage, per flat jet variable: max distance of the reference jets
    to the stage band, off-skeleton. Zero distance = containment."""

    distances: tuple[dict, ...]  # one dict per stage: {(i, alpha): float}
    max_distance: float


def _fd_derivative(values: np.ndarray, alpha: tuple[int, ...],
                   spacing: np.ndarray) -> np.ndarray:
    out = values
    for d, k in enumerate(alpha):
        for _ in range(k):
            out = np.gradient(out, spacing[d], axis=d, edge_order=2)
    return out


def compare_reference(
    sys: PdeSystem, u_star: Sequence,
    bands_by_stage: Sequence[Sequence[tuple[GridFunction, GridFunction]]],
) -> ReferenceReport:
    """Distance of a reference solution's lattice jets to every stage band.

    u_star holds one expression per component (string or parsed), in x
    only; derivatives are taken by second-order finite differences on the
    lattice. bands_by_stage holds, per stage, one (lower, upper) pair per
    flat jet variable, all on the final stage's domain (see
    SchemeConvergence.bands_by_stage), where the distances are measured.
    Raises EvalDomainError where u_star faults or its differences overflow.
    """
    dom = bands_by_stage[0][0][0].domain
    exprs = [ex.parse(e, (sys.n, sys.K, 0)) if isinstance(e, str) else e for e in u_star]
    if len(exprs) != sys.K:
        raise ValueError(f"expected {sys.K} reference expressions, got {len(exprs)}")
    for e in exprs:
        if ex.has_jet_vars(e):
            raise ValueError("reference expressions must not use jet variables")
    flat = [m.reshape(-1) for m in dom.meshes()]
    u_vals = [ex.eval_on_arrays(e, flat).reshape(dom.shape) for e in exprs]
    fv = sys.flat_vars()
    with np.errstate(over="ignore", invalid="ignore"):
        ref = {(i, a): _fd_derivative(u_vals[i - 1], a, dom.spacing) for i, a in fv}
    if not all(np.isfinite(d).all() for d in ref.values()):
        raise ex.EvalDomainError("the reference solution's finite differences overflow")
    off = ~dom.skeleton
    per_stage = []
    overall = 0.0
    for bands in bands_by_stage:
        dists = {}
        for k, v in enumerate(fv):
            lo = bands[k][0].values[off]
            hi = bands[k][1].values[off]
            vals = ref[v][off]
            below = np.maximum(lo - vals, 0.0)
            above = np.maximum(vals - hi, 0.0)
            dists[v] = float(np.max(np.maximum(below, above)))
            overall = max(overall, dists[v])
        per_stage.append(dists)
    return ReferenceReport(distances=tuple(per_stage), max_distance=overall)
