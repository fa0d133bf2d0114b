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
import scipy.ndimage

from . import expr as ex
from .grids import GridDomain, GridFunction, OrderInterval, normalize, skeleton_fill
from .intervals import Interval, IntervalDomainError
from .pde import PdeSystem


def interval_pushforward(
    sys: PdeSystem, intervals: Sequence[OrderInterval], domain: GridDomain
) -> tuple[OrderInterval, ...]:
    """Enclose {F_j(x, xi) : xi_v in intervals_v(x)} pointwise on the lattice.

    intervals holds one order interval per flat jet variable, in component-
    major order. Output bounds are outer enclosures (interval arithmetic),
    completed across the skeleton by the normalize rule. A jet box that
    leaves an operand's domain entirely is reported with the point.
    """
    fv = sys.flat_vars()
    if len(intervals) != len(fv):
        raise ValueError(f"expected {len(fv)} order intervals, got {len(intervals)}")
    for iv in intervals:
        if iv.lower.domain != domain:
            raise ValueError("all intervals must live on the given domain")
    meshes = domain.meshes()
    flat = [m.reshape(-1) for m in meshes]
    lo_out = [np.zeros(flat[0].shape) for _ in range(sys.K)]
    hi_out = [np.zeros(flat[0].shape) for _ in range(sys.K)]
    lo_in = [iv.lower.values.reshape(-1) for iv in intervals]
    hi_in = [iv.upper.values.reshape(-1) for iv in intervals]
    for p in range(flat[0].size):
        x_ivs = [Interval.point(float(flat[d][p])) for d in range(sys.n)]
        jet_ivs = {
            v: Interval(float(lo_in[k][p]), float(hi_in[k][p]))
            for k, v in enumerate(fv)
        }
        for j, Fj in enumerate(sys.F):
            try:
                out = ex.eval_interval(Fj, x_ivs, jet_ivs)
            except (IntervalDomainError, ex.EvalDomainError) as err:
                idx = np.unravel_index(p, domain.shape)
                raise IntervalDomainError(
                    f"operator component {j + 1} undefined over the jet box "
                    f"at lattice point {tuple(int(i) for i in idx)}: {err}"
                ) from err
            lo_out[j][p] = out.lo
            hi_out[j][p] = out.hi
    result = []
    for j in range(sys.K):
        lo_gf = normalize(GridFunction(domain, lo_out[j].reshape(domain.shape)))
        hi_gf = normalize(GridFunction(domain, hi_out[j].reshape(domain.shape)))
        result.append(OrderInterval(lo_gf, hi_gf))
    return tuple(result)


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

    def components(self) -> int:
        return len(self.steps[0])


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
    limit candidate; the rest report the subgrid still above tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    dom = seq.domain
    off = ~dom.skeleton
    out = []
    for c in range(seq.components()):
        final = seq.steps[-1][c]
        width = final.upper.values - final.lower.values
        max_w = float(np.max(width[off])) if off.any() else 0.0
        if max_w < tol:
            mid = 0.5 * (final.lower.values + final.upper.values)
            mid = skeleton_fill(dom, mid)
            out.append(
                NestedLimitComponent(
                    verdict="converges",
                    max_final_width=max_w,
                    limit=GridFunction(dom, mid, normalized=True),
                    offending=None,
                )
            )
        else:
            out.append(
                NestedLimitComponent(
                    verdict="empty/slow",
                    max_final_width=max_w,
                    limit=None,
                    offending=off & (width >= tol),
                )
            )
    return NestedLimitReport(tol=float(tol), components=tuple(out))


# ---------------------------------------------------------------------------
# envelope sequences


def envelope_sequence(u: GridFunction, count: int) -> IntervalSequence:
    """The normalized sandwich u -/+ 1/n for n = 1..count, as order intervals."""
    if count < 1:
        raise ValueError("count must be at least 1")
    base = normalize(u)
    steps = []
    for n in range(1, count + 1):
        lo = normalize(base + (-1.0 / n))
        hi = normalize(base + (1.0 / n))
        steps.append((OrderInterval(lo, hi),))
    return IntervalSequence(steps)


def dilation_envelopes(
    u: GridFunction, count: int, r0: float
) -> list[GridFunction]:
    """Upper envelopes by morphological dilation with shrinking radius.

    Step k takes the running max of u over the lattice ball of radius
    max(r0/k, h) in the max-norm, h being one grid cell, so the radius
    never drops below a single cell. The result is non-increasing in k and
    bounds u from above; near a jump the envelope keeps the high side's
    value until the radius floor, which confines the slow set to the jump's
    grid neighborhood.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if r0 <= 0.0:
        raise ValueError("r0 must be positive")
    spacing = u.domain.spacing
    out = []
    for k in range(1, count + 1):
        r = max(r0 / k, float(np.max(spacing)))
        vals = u.values
        for d in range(u.domain.ndim):
            half = max(1, int(np.floor(r / spacing[d] + 1e-12)))
            vals = scipy.ndimage.maximum_filter1d(
                vals, size=2 * half + 1, axis=d, mode="nearest"
            )
        out.append(GridFunction(u.domain, vals))
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


def compare_reference(result, u_star: Sequence) -> ReferenceReport:
    """Distance of a reference solution's lattice jets to every stage band.

    u_star holds one expression per component (string or parsed), in x
    only; derivatives are taken by second-order finite differences on the
    lattice. Distances are measured on the final stage's domain.
    """
    stages = result.stages
    sys_like_n = stages[0].v.space_dim
    K = stages[0].v.components
    mis_alphas = stages[0].v.polys[0][0].mis.alphas
    dom = result.domain
    signature = (sys_like_n, K, 0)
    exprs = [ex.parse(e, signature) if isinstance(e, str) else e for e in u_star]
    if len(exprs) != K:
        raise ValueError(f"expected {K} reference expressions, got {len(exprs)}")
    for e in exprs:
        if ex.has_jet_vars(e):
            raise ValueError("reference expressions must not use jet variables")
    meshes = dom.meshes()
    flat = [m.reshape(-1) for m in meshes]
    u_vals = [ex.eval_on_arrays(e, flat).reshape(dom.shape) for e in exprs]
    spacing = dom.spacing
    ref = {}
    fv = [(i, a) for i in range(1, K + 1) for a in mis_alphas]
    for i, a in fv:
        ref[(i, a)] = _fd_derivative(u_vals[i - 1], a, spacing)
    off = ~dom.skeleton
    per_stage = []
    overall = 0.0
    for bands in result.bands_by_stage:
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
