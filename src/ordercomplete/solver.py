"""Constructive engine: pointwise jet solving, validated local brackets,
hierarchical tilings, global lower/upper pairs, and the staged refinement
scheme with its three certificates.

Stage n produces a piecewise polynomial V_n whose operator image brackets
the data from below within gamma/n (EQ1), whose per-cell jet bands nest
strictly inside the previous stage's bands (EQ2), and whose band widths
stay below 4*eps/n per cell (EQ3). Both the global pair and the stages are
built by one adaptive subdivision loop (`_subdivide`).

The certificates come from pure functions of the sampled jets, bands and
lattice: `apeq_certificate`, `eq1_certificate`, `eq2_certificate`,
`eq3_certificate` and `scheme_convergence`. They re-check every inequality
on the full lattice after assembly, independently of the per-cell
construction. `refine` and `cli.verify` share `stage_certificates`, which
computes EQ1-EQ3 from one sampling of V_n on its own lattice, and
`scheme_convergence` normalizes those samples onto the final skeleton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import expr as ex
from .grids import (
    GridDomain,
    GridFunction,
    OrderConvergenceCertificate,
    normalize,
    order_convergence_check,
    skeleton_fill,
)
from .jets import (
    Cell,
    Jet,
    PiecewisePoly,
    TilingError,
    _classify_grid,
    _gathered_jets,
    _interior_ranges,
    assemble,
    sample_jets,
    taylor_poly,
)
from .pde import PdeSystem, apply_operator, check_assumption_open


class ConstructionError(RuntimeError):
    """A construction step failed; carries stage/cell diagnostics."""

    def __init__(self, message: str, stage: int | None = None, cell=None):
        self.stage = stage
        self.cell = cell
        parts = [message]
        if stage is not None:
            parts.append(f"stage={stage}")
        if cell is not None:
            parts.append(f"cell={cell}")
        super().__init__("; ".join(parts))


class NoSolutionError(ConstructionError):
    """Jet solver exhausted its budget without meeting the residual tolerance."""

    def __init__(self, x0, best_residual: float, stage=None, cell=None):
        self.x0 = np.asarray(x0, dtype=float)
        self.best_residual = float(best_residual)
        super().__init__(
            f"no jet solution at x0={tuple(self.x0)}; "
            f"best residual {self.best_residual:.3e}",
            stage=stage,
            cell=cell,
        )


# ---------------------------------------------------------------------------
# tiling


@dataclass(eq=False)
class Tiling:
    """Level-0 box, its I-cells with anchors, and per-cell openness radii.

    J-cells start equal to the I-cells and are refined per stage; radii are
    data discovered by the openness probe, not part of the geometry.
    """

    lo: np.ndarray
    hi: np.ndarray
    delta: float
    shape: tuple[int, ...]  # I-cells per axis; i_cells is this grid in C order
    i_cells: list[Cell]
    anchors: np.ndarray  # (num_cells, n), cell centers
    radii: np.ndarray | None = None

    def index_of(self, points) -> np.ndarray:
        """Index of the I-cell strictly holding each point (..., n)."""
        width = (self.hi - self.lo) / self.shape
        idx = np.floor((np.asarray(points) - self.lo) / width).astype(int)
        return np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), self.shape)

    def with_radii(self, radii) -> "Tiling":
        r = np.asarray(radii, dtype=float)
        if r.shape != (len(self.i_cells),):
            raise ValueError("one radius per I-cell required")
        if np.any(r <= 0.0):
            raise ValueError("openness radii must be positive")
        return Tiling(self.lo, self.hi, self.delta, self.shape,
                      self.i_cells, self.anchors, r)


def tile_domain(
    box_lo, box_hi, delta: float, arity: int = 2,
    domain: GridDomain | None = None,
) -> Tiling:
    """Cover the box by congruent I-cells of diameter <= delta.

    Axes are split repeatedly (largest current width first, lowest axis on
    ties) by the given arity until the common cell diameter fits. With a
    lattice supplied, delta below one grid cell is rejected and every I-cell
    must hold at least one strictly interior lattice point.
    """
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("box bounds must be 1-d arrays of equal length")
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if int(arity) < 2:
        raise ValueError("arity must be at least 2")
    arity = int(arity)
    if domain is not None and delta < float(np.max(domain.spacing)):
        raise TilingError(
            f"delta={delta} is below one grid cell "
            f"(spacing {tuple(domain.spacing)})"
        )
    n = lo.size
    counts = np.ones(n, dtype=int)
    for _ in range(10_000):
        widths = (hi - lo) / counts
        if float(np.linalg.norm(widths)) <= delta:
            break
        counts[int(np.argmax(widths))] *= arity
    else:
        raise TilingError("subdivision did not reach the requested delta")
    edges = [np.linspace(lo[d], hi[d], counts[d] + 1) for d in range(n)]
    cells = []
    for idx in itertools.product(*(range(c) for c in counts)):
        cells.append(Cell([edges[d][idx[d]] for d in range(n)],
                          [edges[d][idx[d] + 1] for d in range(n)]))
    anchors = np.stack([c.center for c in cells], axis=0)
    if domain is not None:
        empty = _empty_interiors(domain, cells)
        if empty.any():
            ci = int(np.argmax(empty))
            raise TilingError(
                f"I-cell {ci} at lo={cells[ci].lo} holds no interior lattice point"
            )
    return Tiling(lo, hi, float(delta), tuple(int(c) for c in counts), cells, anchors)


def _empty_interiors(domain: GridDomain, cells: list[Cell]) -> np.ndarray:
    """Per cell, whether it holds no strictly interior lattice point."""
    start, stop, _ = _interior_ranges(cells, domain)
    return np.any(stop <= start, axis=1)


# ---------------------------------------------------------------------------
# jet solving


def _lhs_starts(box: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube start points inside the box, one stratum per start."""
    m = box.shape[0]
    u = rng.random((count, m))
    strata = np.stack([rng.permutation(count) for _ in range(m)], axis=1)
    unit = (strata + u) / count
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


# jet_solve: max-norm residual tolerance, Gauss-Newton steps per start,
# multistart count, and the half-width of the multistart box when no
# constraint box is given
_TOL_RESIDUAL = 1e-9
_MAX_ITER = 80
_MULTISTARTS = 16
_BOX_RADIUS = 10.0


def jet_solve(
    sys: PdeSystem,
    x0,
    target,
    seed=None,
    constraint_box=None,
    *,
    rng: np.random.Generator | None = None,
) -> Jet:
    """Solve F(x0, xi) = target for a jet xi, optionally inside a box.

    Damped Gauss-Newton from the seed (least-squares steps, halving line
    search, projection onto the box), Latin-hypercube multistart when the
    direct run stalls, and a derivative-free polytope fallback when F has
    no jet derivative. Among solutions within tolerance (max-norm residual
    below _TOL_RESIDUAL) the minimal-norm one wins, then lexicographic order.
    """
    x0 = np.asarray(x0, dtype=float)
    target = np.atleast_1d(np.asarray(target, dtype=float))
    if target.shape != (sys.K,):
        raise ValueError(f"target must have {sys.K} components")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    m_flat = sys.unknown_count
    box = None
    if constraint_box is not None:
        box = np.asarray(constraint_box, dtype=float)
        if box.shape != (m_flat, 2):
            raise ValueError("constraint box must have shape (M, 2)")
        if np.any(box[:, 1] < box[:, 0]):
            raise ValueError("constraint box is empty")
    fv = sys.flat_vars()

    def clamp(v: np.ndarray) -> np.ndarray:
        return np.clip(v, box[:, 0], box[:, 1]) if box is not None else v

    def residual(v: np.ndarray) -> np.ndarray | None:
        jets = dict(zip(fv, v))
        try:
            out = np.array([ex.eval_point(Fj, x0, jets) for Fj in sys.F])
        except ex.EvalDomainError:
            return None
        return out - target

    best_seen = float("inf")

    def note(r: np.ndarray | None) -> None:
        nonlocal best_seen
        if r is not None:
            best_seen = min(best_seen, float(np.max(np.abs(r))))

    try:
        jac = sys.jet_jacobian()
        derivative_free = False
    except ex.NondifferentiableError:
        jac = None
        derivative_free = True

    def run_newton(v0: np.ndarray) -> np.ndarray | None:
        v = clamp(np.asarray(v0, dtype=float))
        r = residual(v)
        note(r)
        if r is None:
            return None
        for _ in range(_MAX_ITER):
            if float(np.max(np.abs(r))) < _TOL_RESIDUAL:
                return v
            jets = dict(zip(fv, v))
            try:
                J = np.array(
                    [[ex.eval_point(jac[j][k], x0, jets) for k in range(m_flat)]
                     for j in range(sys.K)]
                )
            except ex.EvalDomainError:
                return None
            if not np.all(np.isfinite(J)):
                return None
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
            if not np.all(np.isfinite(step)):
                return None
            rn = float(np.linalg.norm(r))
            t = 1.0
            moved = False
            while t >= 1e-10:
                vt = clamp(v + t * step)
                rt = residual(vt)
                note(rt)
                if rt is not None and float(np.linalg.norm(rt)) <= (1.0 - 1e-4 * t) * rn:
                    v, r = vt, rt
                    moved = True
                    break
                t *= 0.5
            if not moved:
                return v if float(np.max(np.abs(r))) < _TOL_RESIDUAL else None
        return v if float(np.max(np.abs(r))) < _TOL_RESIDUAL else None

    def run_polytope(v0: np.ndarray) -> np.ndarray | None:
        def cost(v: np.ndarray) -> float:
            r = residual(v)
            note(r)
            return 1e30 if r is None else float(np.dot(r, r))

        bounds = [tuple(b) for b in box] if box is not None else None
        res = scipy.optimize.minimize(
            cost, clamp(np.asarray(v0, dtype=float)), method="Nelder-Mead",
            bounds=bounds,
            options={"maxiter": 400 * m_flat, "xatol": 1e-12, "fatol": 1e-24},
        )
        v = clamp(res.x)
        r = residual(v)
        if r is not None and float(np.max(np.abs(r))) < _TOL_RESIDUAL:
            return v
        return None

    attempt = run_polytope if derivative_free else run_newton
    if seed is None:
        v0 = box.mean(axis=1) if box is not None else np.zeros(m_flat)
    elif isinstance(seed, Jet):
        v0 = seed.flat()
    else:
        v0 = np.asarray(seed, dtype=float)
    candidates = []
    first = attempt(v0)
    if first is not None:
        candidates.append(first)
    if not candidates:
        rng = rng or np.random.default_rng(0)
        search_box = box if box is not None else np.stack(
            [np.full(m_flat, -_BOX_RADIUS), np.full(m_flat, _BOX_RADIUS)], axis=1
        )
        for start in _lhs_starts(search_box, _MULTISTARTS, rng):
            got = attempt(start)
            if got is not None:
                candidates.append(got)
    if not candidates:
        raise NoSolutionError(x0, best_seen if np.isfinite(best_seen) else float("nan"))
    chosen = min(candidates, key=lambda v: (float(np.linalg.norm(v)), tuple(v)))
    return Jet.from_flat(x0, sys.K, sys.mis, chosen)


# ---------------------------------------------------------------------------
# local bracketed solutions (single smooth polynomial around a point)


def _jets_at(sys: PdeSystem, jets: list[Jet], own: np.ndarray,
             pts: np.ndarray) -> dict:
    """Every flat jet variable at each point, on the Taylor polynomials of
    the jet jets[own] of that point."""
    anchors = np.array([[j.base_point] * sys.K for j in jets])
    coeffs = np.array([j.values for j in jets])
    return dict(zip(sys.flat_vars(), _gathered_jets(sys.mis, anchors, coeffs, own, pts)))


def _bracket_margins(
    sys: PdeSystem,
    jets: dict,
    pts: np.ndarray,
    lo_vals: list[np.ndarray],
    hi_vals: list[np.ndarray],
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Min slack of lo < F(x, jets) < hi per segment of the points, segment
    k being the rows from starts[k] (strictly increasing, each segment
    non-empty) to the next start; -inf on a segment where some F_j faults."""
    coords = [pts[:, d] for d in range(pts.shape[1])]
    lo_m = np.full(len(starts), np.inf)
    hi_m = np.full(len(starts), np.inf)
    faulted = np.zeros(len(pts), dtype=bool)
    for j, Fj in enumerate(sys.F):
        try:
            vals = ex.eval_on_arrays(Fj, coords, jets)
        except ex.EvalDomainError as e:  # faulted elements hold no value
            vals = np.where(e.faulted, 0.0, e.values)
            faulted |= e.faulted
        lo_m = np.minimum(lo_m, np.minimum.reduceat(vals - lo_vals[j], starts))
        hi_m = np.minimum(hi_m, np.minimum.reduceat(hi_vals[j] - vals, starts))
    bad = np.logical_or.reduceat(faulted, starts)
    lo_m[bad] = -np.inf
    hi_m[bad] = -np.inf
    return lo_m, hi_m


def _local_one_side(sys, x0, eps, domain, side, rng):
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    x0 = np.asarray(x0, dtype=float)
    f0 = sys.rhs_at(x0)
    target = f0 - 0.5 * eps if side == "lower" else f0 + 0.5 * eps
    jet = jet_solve(sys, x0, target, rng=rng)
    polys = taylor_poly(jet)
    meshes = domain.meshes()
    dist2 = sum((m - x0[d]) ** 2 for d, m in enumerate(meshes))
    f_arrays = sys.rhs_on_lattice(domain)
    h = float(np.max(domain.spacing))
    diam = float(np.linalg.norm(domain.hi - domain.lo))
    k_max = 0
    while h * 2**k_max < diam:
        k_max += 1
    for k in range(k_max, -1, -1):
        radius = h * 2**k
        mask = dist2 <= radius * radius
        if not mask.any():
            continue
        pts = np.stack([m[mask] for m in meshes], axis=1)
        if side == "lower":
            lo_vals = [f[mask] - eps for f in f_arrays]
            hi_vals = [f[mask] for f in f_arrays]
        else:
            lo_vals = [f[mask] for f in f_arrays]
            hi_vals = [f[mask] + eps for f in f_arrays]
        own = np.zeros(len(pts), dtype=int)
        lo_m, hi_m = _bracket_margins(sys, _jets_at(sys, [jet], own, pts), pts,
                                      lo_vals, hi_vals, np.zeros(1, dtype=int))
        if lo_m[0] > 0.0 and hi_m[0] > 0.0:
            return jet, polys, radius
    raise ConstructionError(
        f"{side} bracket fails even at radius one grid cell around x0={tuple(x0)}"
    )


def local_lower(sys: PdeSystem, x0, eps: float, domain: GridDomain,
                rng: np.random.Generator | None = None):
    """Jet at target f(x0) - eps/2, its Taylor polynomials, and the largest
    dyadic lattice radius on which f - eps < T P < f holds strictly."""
    return _local_one_side(sys, x0, eps, domain, "lower", rng)


def local_upper(sys: PdeSystem, x0, eps: float, domain: GridDomain,
                rng: np.random.Generator | None = None):
    """Mirror image of local_lower: target f(x0) + eps/2, bracket (f, f + eps)."""
    return _local_one_side(sys, x0, eps, domain, "upper", rng)


# ---------------------------------------------------------------------------
# adaptive subdivision


def _interior_gather(
    domain: GridDomain, cells: list[Cell]
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """The strictly interior lattice points of every cell, cell by cell and
    in C order within a cell: per-cell point counts, the owning cell and
    lattice index tuple of each point, and its coordinates (npts, n). Same
    index ranges as the ownership classifier."""
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


def _generation_ok(sys: PdeSystem, domain: GridDomain, cells: list[Cell],
                   brackets, band=None) -> np.ndarray:
    """Per cell, whether lower < F(x, P) < upper holds strictly at each of
    its strictly interior lattice points for every (jets, lower, upper) in
    brackets, P the Taylor polynomials of the cell's jet and lower, upper
    lists of lattice arrays; and, with band = (band_lo, band_hi) (cells, M),
    whether every flat jet variable of P stays inside the cell's band row
    there. A fault of F fails the cell; a cell without interior points passes."""
    counts, own, idx, pts = _interior_gather(domain, cells)
    ok = np.ones(len(cells), dtype=bool)
    held = counts > 0
    if not held.any():
        return ok
    starts = (np.cumsum(counts) - counts)[held]
    good = np.ones(len(starts), dtype=bool)
    for jets, lower, upper in brackets:
        jv = _jets_at(sys, jets, own, pts)
        lo_m, hi_m = _bracket_margins(sys, jv, pts, [a[idx] for a in lower],
                                      [a[idx] for a in upper], starts)
        good &= (lo_m > 0.0) & (hi_m > 0.0)
        if band is not None:
            flat = np.stack([jv[v] for v in sys.flat_vars()], axis=1)
            exits = ((flat < band[0][own]) | (flat > band[1][own])).any(axis=1)
            good &= ~np.logical_or.reduceat(exits, starts)
    ok[held] = good
    return ok


def _subdivide(work, solve, check, domain: GridDomain, max_cells: int, *,
               stage: int | None = None) -> list[tuple[Cell, object]]:
    """Accepted (cell, solve(cell)) pairs of an adaptive subdivision.

    A generation (the cells pending at once) is solved one cell at a time,
    in order, then checked in one call, check(cells, payloads) -> bool per
    cell; the failed cells are split and their children, in order, form
    the next generation. That is the first-in, first-out loop that solves,
    checks and splits one cell at a time, with the same solves in the same
    order (so the same random draws) and the same error at the same cell:
    when more than max_cells cells accumulate, when a solve raises, or when
    a child would hold no interior lattice point. Errors name the stage,
    and a stranded child also the split cell's lower corner.
    """
    done: list[tuple[Cell, object]] = []
    gen = list(work)
    while gen:
        payloads = []
        failure = None
        for c in gen:
            try:
                payloads.append(solve(c))
            except Exception as e:  # raised below, once the loop gets there
                failure = e
                break
        ok = check(gen[:len(payloads)], payloads)
        split = [c.split() for c, good in zip(gen, ok) if not good]
        stranded = []
        if split:
            stranded = _empty_interiors(domain, [k for ks in split for k in ks])
            stranded = stranded.reshape(len(split), -1).any(axis=1)
        rejected = zip(split, stranded)
        nxt: list[Cell] = []
        for i, c in enumerate(gen):
            if len(done) + len(gen) - i - 1 + len(nxt) > max_cells:
                raise ConstructionError(
                    "cell budget exhausted while subdividing", stage=stage
                )
            if i == len(payloads):
                raise failure
            if ok[i]:
                done.append((c, payloads[i]))
                continue
            children, empty = next(rejected)
            if empty:
                raise ConstructionError(
                    "bracket unattainable at grid resolution", stage=stage, cell=c.lo
                )
            nxt.extend(children)
        gen = nxt
    return done


# ---------------------------------------------------------------------------
# global approximate pair


@dataclass(frozen=True)
class ApEqCertificate:
    """Strict-inequality margins of the global pair, re-verified on the lattice.

    Margins are minima over all components and off-skeleton points of
    T U - (f - eps), f - T U, T V - f, and (f + eps) - T V.
    """

    eps: float
    passed: bool
    lower_gap: float
    lower_strict: float
    upper_strict: float
    upper_gap: float


def _min_slack(lower, upper, off: np.ndarray) -> float:
    """min of upper - lower over the components and the points in off."""
    return min(float(np.min(hi[off] - lo[off]))
               for lo, hi in zip(lower, upper, strict=True))


def apeq_certificate(
    sys: PdeSystem, u_jets: list[GridFunction], v_jets: list[GridFunction],
    eps: float,
) -> ApEqCertificate:
    """ApEq margins of the pair (u, v) off the skeleton, from their jets
    sampled on one domain (see jets.sample_jets)."""
    domain = u_jets[0].domain
    f = sys.rhs_on_lattice(domain)
    tu = [g.values for g in apply_operator(sys, u_jets)]
    tv = [g.values for g in apply_operator(sys, v_jets)]
    off = ~domain.skeleton
    m1 = _min_slack([fj - eps for fj in f], tu, off)
    m2 = _min_slack(tu, f, off)
    m3 = _min_slack(f, tv, off)
    m4 = _min_slack(tv, [fj + eps for fj in f], off)
    return ApEqCertificate(
        eps=float(eps),
        passed=(m1 > 0.0 and m2 > 0.0 and m3 > 0.0 and m4 > 0.0),
        lower_gap=m1, lower_strict=m2, upper_strict=m3, upper_gap=m4,
    )


@dataclass(eq=False)
class GlobalPairResult:
    lower: PiecewisePoly
    upper: PiecewisePoly
    domain: GridDomain
    certificate: ApEqCertificate
    cells: list[Cell] = field(default_factory=list)


def global_pair(
    sys: PdeSystem,
    domain: GridDomain,
    eps: float,
    *,
    rng: np.random.Generator | None = None,
    max_cells: int = 100_000,
) -> GlobalPairResult:
    """Build U, V with f - eps < T U < f < T V < f + eps off a common skeleton.

    One shared adaptive tiling: start from the whole box, solve both anchor
    jets per cell, and split any cell whose bracket fails at an interior
    lattice point (see _subdivide).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    rng = rng or np.random.default_rng(0)
    f = sys.rhs_on_lattice(domain)
    below = [fj - eps for fj in f]
    above = [fj + eps for fj in f]

    def solve(cell: Cell) -> tuple[Jet, Jet]:
        a = cell.center
        f0 = sys.rhs_at(a)
        try:
            return (jet_solve(sys, a, f0 - 0.5 * eps, rng=rng),
                    jet_solve(sys, a, f0 + 0.5 * eps, rng=rng))
        except NoSolutionError as e:
            raise ConstructionError(
                f"anchor jet unsolvable: {e}", cell=cell.lo
            ) from e

    def check(cells: list[Cell], pairs: list[tuple[Jet, Jet]]) -> np.ndarray:
        return _generation_ok(sys, domain, cells, [
            ([lo for lo, _ in pairs], below, f),
            ([hi for _, hi in pairs], f, above),
        ])

    done = _subdivide([Cell(domain.lo, domain.hi)], solve, check, domain, max_cells)
    cells = [c for c, _ in done]
    u_poly, marked = assemble(cells, [taylor_poly(lo) for _, (lo, _) in done], domain)
    v_poly = PiecewisePoly(u_poly.space_dim, u_poly.components, u_poly.order, cells,
                           [taylor_poly(hi) for _, (_, hi) in done])
    cert = apeq_certificate(sys, sample_jets(u_poly, marked),
                            sample_jets(v_poly, marked), eps)
    return GlobalPairResult(u_poly, v_poly, marked, cert, cells)


# ---------------------------------------------------------------------------
# refinement stages


@dataclass(frozen=True)
class Eq1Certificate:
    """Strict bracket f - gamma/n < T V_n < f, min slack over the lattice."""

    passed: bool
    lower_slack: float
    upper_slack: float


@dataclass(frozen=True)
class Eq2Certificate:
    """Strict band nesting and containment of the sampled jets.

    outer_* are minima of lambda_n - lambda_{n-1} and mu_{n-1} - mu_n per
    cell and variable (strict); inner_* are minima of sampled - lambda_n
    and mu_n - sampled off-skeleton (non-strict). Vacuous at stage 1.
    """

    passed: bool
    vacuous: bool
    outer_lower: float
    outer_upper: float
    inner_lower: float
    inner_upper: float


@dataclass(frozen=True)
class Eq3Certificate:
    """Band width decay: (mu - lambda) * n / (4 eps_cell) < 1 per I-cell."""

    passed: bool
    max_ratio: float
    widths: tuple[tuple[float, ...], ...]  # per I-cell, per flat jet variable


def eq1_certificate(
    sys: PdeSystem, tv: list[GridFunction], gamma: float, n: int
) -> Eq1Certificate:
    """EQ1 slacks of T V_n (see pde.apply_operator), one GridFunction per
    component, against f - gamma/n and f off the skeleton."""
    domain = tv[0].domain
    f = sys.rhs_on_lattice(domain)
    tv = [g.values for g in tv]
    off = ~domain.skeleton
    lower = _min_slack([fj - gamma / n for fj in f], tv, off)
    upper = _min_slack(tv, f, off)
    return Eq1Certificate(passed=(lower > 0.0 and upper > 0.0),
                          lower_slack=lower, upper_slack=upper)


def eq2_certificate(
    jets: list[GridFunction], bands: list[tuple[GridFunction, GridFunction]],
    band_lo: np.ndarray, band_hi: np.ndarray,
    prev_bands: tuple[np.ndarray, np.ndarray] | None,
) -> Eq2Certificate:
    """EQ2: the sampled jets of V_n (see jets.sample_jets) inside bands, the
    step functions of (band_lo, band_hi) (see _band_functions), off the
    skeleton, and the bands strictly inside prev_bands, the previous stage's
    (band_lo, band_hi); None at stage 1 (vacuous)."""
    sampled = [g.values for g in jets]
    off = ~jets[0].domain.skeleton
    inner_lo = _min_slack([lo.values for lo, _ in bands], sampled, off)
    inner_hi = _min_slack(sampled, [hi.values for _, hi in bands], off)
    outer_lo = outer_hi = float("inf")
    if prev_bands is not None:
        outer_lo = float(np.min(band_lo - prev_bands[0]))
        outer_hi = float(np.min(prev_bands[1] - band_hi))
    return Eq2Certificate(
        passed=(outer_lo > 0.0 and outer_hi > 0.0
                and inner_lo >= 0.0 and inner_hi >= 0.0),
        vacuous=prev_bands is None,
        outer_lower=outer_lo, outer_upper=outer_hi,
        inner_lower=inner_lo, inner_upper=inner_hi,
    )


def eq3_certificate(radii, band_lo: np.ndarray, band_hi: np.ndarray,
                    n: int) -> Eq3Certificate:
    """EQ3: every band width below 4 radii/n, one radius per I-cell."""
    widths = band_hi - band_lo
    ratios = widths * n / (4.0 * np.asarray(radii, dtype=float)[:, None])
    return Eq3Certificate(
        passed=bool(np.all(ratios < 1.0)),
        max_ratio=float(np.max(ratios)),
        widths=tuple(tuple(float(w) for w in row) for row in widths),
    )


@dataclass(eq=False)
class RefinementStage:
    n: int
    gamma: float
    v: PiecewisePoly
    domain: GridDomain
    band_lo: np.ndarray  # (num_i_cells, M)
    band_hi: np.ndarray
    i_jets: np.ndarray  # (num_i_cells, M)
    j_cells: list[list[Cell]]  # per I-cell
    eq1: Eq1Certificate
    eq2: Eq2Certificate
    eq3: Eq3Certificate
    samples: tuple  # (jets, T V_n, bands) on domain, see stage_certificates

    def certificates_pass(self) -> bool:
        return self.eq1.passed and self.eq2.passed and self.eq3.passed


def _band_functions(
    band_lo: np.ndarray, band_hi: np.ndarray, domain: GridDomain,
    i_cells: list[Cell],
) -> list[tuple[GridFunction, GridFunction]]:
    """Render a stage's (band_lo, band_hi) as step GridFunctions, one
    (lower, upper) pair per flat jet variable.

    Each owned lattice point takes its I-cell's band constants, gathered by
    owner index. I-cell boundary points are a subset of the domain
    skeleton, so the fill-from-neighbors completion assigns them the min of
    the adjacent cell constants, which is exactly the normalize rule for
    step functions.
    """
    owner, _ = _classify_grid(i_cells, domain)
    if ((owner < 0) & ~domain.skeleton).any():
        raise ValueError("domain skeleton does not cover the I-cell boundaries")
    owned = owner >= 0
    own = owner[owned]

    def step(consts: np.ndarray) -> GridFunction:
        vals = np.zeros(domain.shape)
        vals[owned] = consts[own]
        return GridFunction(domain, skeleton_fill(domain, vals), normalized=True)

    return [(step(band_lo[:, k]), step(band_hi[:, k])) for k in range(band_lo.shape[1])]


def stage_certificates(
    sys: PdeSystem, v: PiecewisePoly, domain: GridDomain, i_cells: list[Cell],
    radii, band_lo: np.ndarray, band_hi: np.ndarray,
    prev_bands: tuple[np.ndarray, np.ndarray] | None, n: int, gamma: float,
) -> tuple[tuple[Eq1Certificate, Eq2Certificate, Eq3Certificate], tuple]:
    """EQ1-EQ3 of stage n and the (jets, tv, bands) of V_n they read, each
    computed once on domain, V_n's own lattice (see scheme_convergence)."""
    jets = sample_jets(v, domain)
    tv = apply_operator(sys, jets)
    bands = _band_functions(band_lo, band_hi, domain, i_cells)
    return (eq1_certificate(sys, tv, gamma, n),
            eq2_certificate(jets, bands, band_lo, band_hi, prev_bands),
            eq3_certificate(radii, band_lo, band_hi, n)), (jets, tv, bands)


def refine(
    sys: PdeSystem,
    domain: GridDomain,
    tiling: Tiling,
    prev: RefinementStage | None,
    n: int,
    gamma: float,
    *,
    rng: np.random.Generator | None = None,
    max_cells: int = 100_000,
) -> RefinementStage:
    """Build stage n: anchor jets at target f - gamma/(2n), bands of
    halfwidth (2 eps/n)(15/16) clipped strictly inside the previous bands,
    and all J-cells of the stage subdivided in one loop (see _subdivide,
    max_cells bounds the stage) until the EQ1 bracket and band containment
    hold at every interior lattice point."""
    if n < 1:
        raise ValueError("stage index must be at least 1")
    if (prev is None) != (n == 1):
        raise ValueError("prev must be given exactly when n > 1")
    if tiling.radii is None:
        raise ValueError("tiling has no openness radii; run the probe first")
    rng = rng or np.random.default_rng(0)
    num_i = len(tiling.i_cells)
    f = sys.rhs_on_lattice(domain)
    below = [fj - gamma / n for fj in f]
    if prev is None:
        seeds = np.zeros((num_i, sys.unknown_count))
        i_boxes = [None] * num_i
    else:
        seeds = prev.i_jets
        margin = (prev.band_hi - prev.band_lo) / 8.0
        i_boxes = np.stack([prev.band_lo + margin, prev.band_hi - margin], axis=2)

    def solve_at(x, ci: int, seed, box, what: str) -> Jet:
        try:
            return jet_solve(sys, x, sys.rhs_at(x) - gamma / (2.0 * n), seed=seed,
                             constraint_box=box, rng=rng)
        except NoSolutionError as e:
            raise ConstructionError(
                f"{what} jet unsolvable (openness radius overestimated?): {e}",
                stage=n, cell=ci,
            ) from e

    i_jets = np.array([solve_at(a, ci, seeds[ci], i_boxes[ci], "anchor").flat()
                       for ci, a in enumerate(tiling.anchors)])
    hw = (2.0 * tiling.radii / n) * (15.0 / 16.0)
    band_lo = i_jets - hw[:, None]
    band_hi = i_jets + hw[:, None]
    if prev is not None:
        band_lo = np.maximum(band_lo, prev.band_lo + 0.5 * margin)
        band_hi = np.minimum(band_hi, prev.band_hi - 0.5 * margin)
    empty = np.any(band_lo >= band_hi, axis=1)
    if empty.any():
        raise ConstructionError("clipped band is empty; previous bands too narrow",
                                stage=n, cell=int(np.argmax(empty)))
    inner = (band_hi - band_lo) / 8.0
    j_boxes = np.stack([band_lo + inner, band_hi - inner], axis=2)
    if prev is not None:
        j_boxes[..., 0] = np.maximum(j_boxes[..., 0], prev.band_lo + margin)
        j_boxes[..., 1] = np.minimum(j_boxes[..., 1], prev.band_hi - margin)
        empty = np.any(j_boxes[..., 1] <= j_boxes[..., 0], axis=1)
        if empty.any():
            raise ConstructionError("J-cell constraint box is empty",
                                    stage=n, cell=int(np.argmax(empty)))

    def solve(jcell: Cell) -> tuple[int, Jet]:
        ci = int(tiling.index_of(jcell.center))
        return ci, solve_at(jcell.center, ci, i_jets[ci], j_boxes[ci], "constrained")

    def check(jcells: list[Cell], solved: list[tuple[int, Jet]]) -> np.ndarray:
        own = [ci for ci, _ in solved]
        return _generation_ok(sys, domain, jcells, [([jj for _, jj in solved], below, f)],
                              band=(band_lo[own], band_hi[own]))

    work = tiling.i_cells if prev is None else [c for cs in prev.j_cells for c in cs]
    done = _subdivide(work, solve, check, domain, max_cells, stage=n)
    done.sort(key=lambda d: d[1][0])  # stable: by I-cell, in order of acceptance
    j_cells = [[c for c, _ in group]
               for _, group in itertools.groupby(done, key=lambda d: d[1][0])]
    v_poly, marked = assemble([c for c, _ in done],
                              [taylor_poly(jj) for _, (_, jj) in done], domain)
    (eq1, eq2, eq3), samples = stage_certificates(
        sys, v_poly, marked, tiling.i_cells, tiling.radii, band_lo, band_hi,
        None if prev is None else (prev.band_lo, prev.band_hi), n, gamma)
    return RefinementStage(
        n=n, gamma=float(gamma), v=v_poly, domain=marked,
        band_lo=band_lo, band_hi=band_hi, i_jets=i_jets, j_cells=j_cells,
        eq1=eq1, eq2=eq2, eq3=eq3, samples=samples,
    )


# ---------------------------------------------------------------------------
# the full scheme


def band_tolerance(radii, N: int) -> float:
    """Terminal-gap tolerance of the band order-convergence certificates.

    EQ3 bounds every stage-N band width by 4 eps_c/N, and the anchor jets
    sit at least an eighth of that width inside the band, so the terminal
    gaps are of the order of the cell radii over N and cannot fall below a
    fixed tolerance in practice. The EQ3 bound at the final stage,
    4 max(radii)/N, goes to 0 as N grows, so a pass is a finite witness of
    band order convergence.
    """
    return 4.0 * float(np.max(radii)) / int(N)


@dataclass(eq=False)
class SchemeConvergence:
    """Order convergence of stages 1..N, measured on the final lattice."""

    gamma: float
    N: int
    f_samples: list[GridFunction]  # f, one GridFunction per component
    oc_operator: list[OrderConvergenceCertificate]  # one per component
    oc_bands: dict[tuple[int, tuple[int, ...]], OrderConvergenceCertificate]
    # per stage, on the final lattice: T V_n, one GridFunction per component;
    # the step bands, one (lower, upper) pair per flat jet variable; and the
    # sampled jets of V_n, one GridFunction per flat jet variable
    tv_by_stage: list[list[GridFunction]]
    bands_by_stage: list[list[tuple[GridFunction, GridFunction]]]
    samples_by_stage: list[list[GridFunction]]
    final_sup_gap: float

    @property
    def passed(self) -> bool:
        """Operator order convergence and a final sup gap below gamma/N; the
        band certificates are recorded but do not gate (see band_tolerance)."""
        return (all(c.passed for c in self.oc_operator)
                and self.final_sup_gap < self.gamma / self.N)


def scheme_convergence(
    sys: PdeSystem,
    samples: list[tuple],
    radii,
    final_domain: GridDomain,
    gamma: float,
) -> SchemeConvergence:
    """Order convergence of T V_n to f (lower bounds f - gamma/n) and of
    the jets of V_n inside their step bands (tolerance band_tolerance), and
    the final sup gap, from each stage's samples (see stage_certificates)
    moved to final_domain, whose skeleton must contain every stage's, by the
    normalize rule: V_n is normal, so that is its sampling there."""
    N = len(samples)
    if any((jets[0].domain.skeleton > final_domain.skeleton).any()
           for jets, _, _ in samples):
        raise ValueError("final skeleton does not contain every stage skeleton")

    def carry(g: GridFunction) -> GridFunction:
        return normalize(GridFunction(final_domain, g.values))

    f_raw = sys.rhs_on_lattice(final_domain)
    f_gfs = [GridFunction(final_domain, arr) for arr in f_raw]
    samples_by_stage = [[carry(g) for g in jets] for jets, _, _ in samples]
    tv_by_stage = [[carry(g) for g in tv] for _, tv, _ in samples]
    bands_by_stage = [[(carry(lo), carry(hi)) for lo, hi in b] for _, _, b in samples]
    tol_tv = gamma / N * (1.0 + 1e-9)
    oc_operator = [
        order_convergence_check(
            [tv[j] for tv in tv_by_stage],
            [GridFunction(final_domain, f_raw[j] - gamma / n) for n in range(1, N + 1)],
            [f_gfs[j]] * N, f_gfs[j], tol=tol_tv,
        )
        for j in range(sys.K)
    ]
    fv = sys.flat_vars()
    band_tol = band_tolerance(radii, N)
    oc_bands = {}
    for k, var in enumerate(fv):
        seq = [jets[k] for jets in samples_by_stage]
        lams = [bg[k][0] for bg in bands_by_stage]
        mus = [bg[k][1] for bg in bands_by_stage]
        oc_bands[var] = order_convergence_check(seq, lams, mus, seq[-1], tol=band_tol)
    off = ~final_domain.skeleton
    final_sup_gap = max(
        float(np.max(np.abs(tv_by_stage[-1][j].values[off] - f_raw[j][off])))
        for j in range(sys.K)
    )
    return SchemeConvergence(
        gamma=float(gamma), N=N, f_samples=f_gfs,
        oc_operator=oc_operator, oc_bands=oc_bands,
        tv_by_stage=tv_by_stage, bands_by_stage=bands_by_stage,
        samples_by_stage=samples_by_stage, final_sup_gap=final_sup_gap,
    )


@dataclass(eq=False)
class SchemeResult(SchemeConvergence):
    stages: list[RefinementStage]
    tiling: Tiling
    domain: GridDomain  # final stage lattice with full skeleton
    verdict: bool
    diagnostics: list[str]


def run_scheme(
    sys: PdeSystem,
    domain: GridDomain,
    gamma: float,
    N: int,
    *,
    eps_max: float = 1.0,
    seed: int = 0,
) -> SchemeResult:
    """Chain refinement stages 1..N and certify the outcome.

    The I-cells have diameter at most a sixteenth of the box diagonal, and
    their openness radii come from the sampling probe at each anchor
    (capped at eps_max). The verdict requires every stage certificate, order
    convergence of the operator images to f, and a final sup gap below
    gamma/N. Band order-convergence certificates are recorded per jet
    variable but do not gate the verdict; their terminal gaps scale with
    the cell radii, not with gamma/N, so they are checked against the EQ3
    width bound of the final stage (see `band_tolerance`).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if N < 1:
        raise ValueError("N must be at least 1")
    if eps_max <= 0.0:
        raise ValueError("eps_max must be positive")
    rng = np.random.default_rng(seed)
    delta = float(np.linalg.norm(domain.hi - domain.lo)) / 16.0
    tiling = tile_domain(domain.lo, domain.hi, delta, 2, domain)
    radii = np.zeros(len(tiling.i_cells))
    for ci, cell in enumerate(tiling.i_cells):
        a = tiling.anchors[ci]
        target = sys.rhs_at(a) - 0.5 * gamma
        try:
            ji = jet_solve(sys, a, target, rng=rng)
        except NoSolutionError as e:
            raise ConstructionError(
                f"stage-1 anchor jet unsolvable (interior assumption violated?): {e}",
                stage=1, cell=ci,
            ) from e
        ev = check_assumption_open(
            sys, a, ji.flat(), delta=cell.diameter() / 2.0, eps_ball=eps_max,
            rng=rng, target=target,
        )
        if not ev.supported:
            raise ConstructionError(
                "openness assumption unsupported at anchor "
                f"{tuple(a)} (margin {ev.margin_min:.3e})",
                stage=1, cell=ci,
            )
        radii[ci] = min(ev.witnessed_radius, eps_max)
    tiling = tiling.with_radii(radii)
    stages: list[RefinementStage] = []
    prev = None
    for n in range(1, N + 1):
        st = refine(sys, domain, tiling, prev, n, gamma, rng=rng)
        stages.append(st)
        prev = st
    final_dom = stages[-1].domain
    conv = scheme_convergence(sys, [st.samples for st in stages], tiling.radii,
                              final_dom, gamma)
    diagnostics = [
        f"operator image of component {j + 1} fails order convergence "
        f"(first violation {cert.first_violation}, "
        f"gaps {cert.sup_gap:.3e}/{cert.inf_gap:.3e})"
        for j, cert in enumerate(conv.oc_operator) if not cert.passed
    ]
    for st in stages:
        if not st.certificates_pass():
            diagnostics.append(
                f"stage {st.n} certificates: eq1={st.eq1.passed} "
                f"eq2={st.eq2.passed} eq3={st.eq3.passed}"
            )
    if not conv.final_sup_gap < gamma / N:
        diagnostics.append(
            f"final sup gap {conv.final_sup_gap:.3e} not below gamma/N={gamma / N:.3e}"
        )
    verdict = all(st.certificates_pass() for st in stages) and conv.passed
    return SchemeResult(
        **vars(conv), stages=stages, tiling=tiling, domain=final_dom,
        verdict=verdict, diagnostics=diagnostics,
    )
