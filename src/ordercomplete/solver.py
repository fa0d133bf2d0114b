"""Constructive engine: pointwise jet solving, validated local brackets,
hierarchical tilings, global lower/upper pairs, and the staged refinement
scheme with its three certificates.

Stage n produces a piecewise polynomial V_n whose operator image brackets
the data from below within gamma/n (EQ1), whose per-cell jet bands nest
strictly inside the previous stage's bands (EQ2), and whose band widths
stay below 4*eps/n per cell (EQ3). All certificates are re-verified on the
full lattice after assembly, independently of the per-cell construction.
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
    order_convergence_check,
    skeleton_fill,
)
from .jets import (
    Cell,
    Jet,
    PiecewisePoly,
    TaylorPoly,
    TilingError,
    _classify_grid,
    _interior_ranges,
    assemble,
    taylor_poly,
)
from .pde import PdeSystem, apply_operator


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
    level0: Cell
    i_cells: list[Cell]
    anchors: np.ndarray  # (num_cells, n), cell centers
    radii: np.ndarray | None = None

    def initial_j_cells(self) -> list[list[Cell]]:
        return [[c] for c in self.i_cells]

    def with_radii(self, radii) -> "Tiling":
        r = np.asarray(radii, dtype=float)
        if r.shape != (len(self.i_cells),):
            raise ValueError("one radius per I-cell required")
        if np.any(r <= 0.0):
            raise ValueError("openness radii must be positive")
        return Tiling(self.lo, self.hi, self.delta, self.level0,
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
    return Tiling(lo, hi, float(delta), Cell(lo, hi), cells, anchors)


def _empty_interiors(domain: GridDomain, cells: list[Cell]) -> np.ndarray:
    """Per cell, whether it holds no strictly interior lattice point."""
    start, stop, _ = _interior_ranges(cells, domain)
    return np.any(stop <= start, axis=1)


def _interior_points(
    domain: GridDomain, cell: Cell
) -> tuple[tuple[slice, ...], np.ndarray] | None:
    """The cell's strictly interior lattice points as a box of index slices
    and their coordinates (npts, n) in C order, or None when it holds none.
    Same index ranges as the ownership classifier."""
    start, stop, axes = _interior_ranges([cell], domain)
    if (stop <= start).any():
        return None
    box = tuple(slice(int(a), int(b)) for a, b in zip(start[0], stop[0]))
    grids = np.meshgrid(*(a[s] for a, s in zip(axes, box)), indexing="ij")
    return box, np.stack([g.reshape(-1) for g in grids], axis=1)


# ---------------------------------------------------------------------------
# jet solving


def _lhs_starts(box: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube start points inside the box, one stratum per start."""
    m = box.shape[0]
    u = rng.random((count, m))
    strata = np.stack([rng.permutation(count) for _ in range(m)], axis=1)
    unit = (strata + u) / count
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


def jet_solve(
    sys: PdeSystem,
    x0,
    target,
    seed=None,
    constraint_box=None,
    *,
    tol_residual: float = 1e-9,
    max_iter: int = 80,
    multistarts: int = 16,
    box_radius: float = 10.0,
    rng: np.random.Generator | None = None,
) -> Jet:
    """Solve F(x0, xi) = target for a jet xi, optionally inside a box.

    Damped Gauss-Newton from the seed (least-squares steps, halving line
    search, projection onto the box), Latin-hypercube multistart when the
    direct run stalls, and a derivative-free polytope fallback when F has
    no jet derivative. Among solutions within tolerance the minimal-norm
    one wins, then lexicographic order.
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
        for _ in range(max_iter):
            if float(np.max(np.abs(r))) < tol_residual:
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
                return v if float(np.max(np.abs(r))) < tol_residual else None
        return v if float(np.max(np.abs(r))) < tol_residual else None

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
        if r is not None and float(np.max(np.abs(r))) < tol_residual:
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
            [np.full(m_flat, -box_radius), np.full(m_flat, box_radius)], axis=1
        )
        for start in _lhs_starts(search_box, multistarts, rng):
            got = attempt(start)
            if got is not None:
                candidates.append(got)
    if not candidates:
        raise NoSolutionError(x0, best_seen if np.isfinite(best_seen) else float("nan"))
    chosen = min(candidates, key=lambda v: (float(np.linalg.norm(v)), tuple(v)))
    return Jet.from_flat(x0, sys.K, sys.mis, chosen)


# ---------------------------------------------------------------------------
# local bracketed solutions (single smooth polynomial around a point)


def _bracket_margins(
    sys: PdeSystem,
    polys: list[TaylorPoly],
    pts: np.ndarray,
    lo_vals: list[np.ndarray],
    hi_vals: list[np.ndarray],
) -> tuple[float, float]:
    """Min slack of lo < T P < hi over the points; -inf on a domain error."""
    coords = [pts[:, d] for d in range(pts.shape[1])]
    jets = {
        (i, a): polys[i - 1].deriv_many(a, pts)
        for i in range(1, sys.K + 1)
        for a in sys.mis.alphas
    }
    lo_m = float("inf")
    hi_m = float("inf")
    for j, Fj in enumerate(sys.F):
        try:
            vals = ex.eval_on_arrays(Fj, coords, jets)
        except ex.EvalDomainError:
            return float("-inf"), float("-inf")
        lo_m = min(lo_m, float(np.min(vals - lo_vals[j])))
        hi_m = min(hi_m, float(np.min(hi_vals[j] - vals)))
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
    f_arrays = sys.rhs_on_arrays([m.reshape(-1) for m in meshes])
    f_arrays = [a.reshape(domain.shape) for a in f_arrays]
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
        lo_m, hi_m = _bracket_margins(sys, polys, pts, lo_vals, hi_vals)
        if lo_m > 0.0 and hi_m > 0.0:
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
    lattice point. A split that would strand a child without interior
    lattice points is an error: the bracket is unattainable at this grid.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    rng = rng or np.random.default_rng(0)
    meshes = domain.meshes()
    f_arrays = [a.reshape(domain.shape)
                for a in sys.rhs_on_arrays([m.reshape(-1) for m in meshes])]
    work = [Cell(domain.lo, domain.hi)]
    done_cells: list[Cell] = []
    done_lower: list[list[TaylorPoly]] = []
    done_upper: list[list[TaylorPoly]] = []
    while work:
        cell = work.pop(0)
        if len(done_cells) + len(work) > max_cells:
            raise ConstructionError("cell budget exhausted while subdividing")
        a = cell.center
        f0 = sys.rhs_at(a)
        try:
            jet_lo = jet_solve(sys, a, f0 - 0.5 * eps, rng=rng)
            jet_hi = jet_solve(sys, a, f0 + 0.5 * eps, rng=rng)
        except NoSolutionError as e:
            raise ConstructionError(
                f"anchor jet unsolvable: {e}", cell=cell.lo
            ) from e
        p_lo = taylor_poly(jet_lo)
        p_hi = taylor_poly(jet_hi)
        interior = _interior_points(domain, cell)
        ok = True
        if interior is not None:
            box, pts = interior
            f_here = [f[box].reshape(-1) for f in f_arrays]
            lo_m, hi_m = _bracket_margins(
                sys, p_lo, pts, [f - eps for f in f_here], f_here,
            )
            ok = lo_m > 0.0 and hi_m > 0.0
            if ok:
                lo_m, hi_m = _bracket_margins(
                    sys, p_hi, pts, f_here, [f + eps for f in f_here],
                )
                ok = lo_m > 0.0 and hi_m > 0.0
        if ok:
            done_cells.append(cell)
            done_lower.append(p_lo)
            done_upper.append(p_hi)
            continue
        children = cell.split()
        if _empty_interiors(domain, children).any():
            raise ConstructionError(
                "bracket unattainable at grid resolution", cell=cell.lo
            )
        work.extend(children)
    u_poly, marked = assemble(done_cells, done_lower, domain)
    v_poly, _ = assemble(done_cells, done_upper, domain)
    tu = apply_operator(sys, u_poly, marked)
    tv = apply_operator(sys, v_poly, marked)
    off = ~marked.skeleton
    m1 = min(float(np.min(tu[j].values[off] - (f_arrays[j][off] - eps)))
             for j in range(sys.K))
    m2 = min(float(np.min(f_arrays[j][off] - tu[j].values[off]))
             for j in range(sys.K))
    m3 = min(float(np.min(tv[j].values[off] - f_arrays[j][off]))
             for j in range(sys.K))
    m4 = min(float(np.min(f_arrays[j][off] + eps - tv[j].values[off]))
             for j in range(sys.K))
    cert = ApEqCertificate(
        eps=float(eps),
        passed=(m1 > 0.0 and m2 > 0.0 and m3 > 0.0 and m4 > 0.0),
        lower_gap=m1, lower_strict=m2, upper_strict=m3, upper_gap=m4,
    )
    return GlobalPairResult(u_poly, v_poly, marked, cert, list(done_cells))


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


@dataclass(eq=False)
class RefinementStage:
    n: int
    gamma: float
    v: PiecewisePoly
    domain: GridDomain
    band_lo: np.ndarray  # (num_i_cells, M)
    band_hi: np.ndarray
    i_jets: np.ndarray  # (num_i_cells, M)
    j_cells: list[list[Cell]]
    j_jets: list[list[np.ndarray]]
    eq1: Eq1Certificate
    eq2: Eq2Certificate
    eq3: Eq3Certificate

    def certificates_pass(self) -> bool:
        return self.eq1.passed and self.eq2.passed and self.eq3.passed


def _band_functions(
    band_lo: np.ndarray, band_hi: np.ndarray, domain: GridDomain,
    i_cells: list[Cell],
) -> list[tuple[GridFunction, GridFunction]]:
    """Render the bands as step GridFunctions, one pair per flat jet variable.

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
    out = []
    for k in range(band_lo.shape[1]):
        lo_vals = np.zeros(domain.shape)
        hi_vals = np.zeros(domain.shape)
        lo_vals[owned] = band_lo[own, k]
        hi_vals[owned] = band_hi[own, k]
        lo_vals = skeleton_fill(domain, lo_vals)
        hi_vals = skeleton_fill(domain, hi_vals)
        out.append((
            GridFunction(domain, lo_vals, normalized=True),
            GridFunction(domain, hi_vals, normalized=True),
        ))
    return out


def _stage_cell_ok(
    sys: PdeSystem,
    polys: list[TaylorPoly],
    cell: Cell,
    domain: GridDomain,
    f_arrays: list[np.ndarray],
    gamma_n: float,
    band_lo: np.ndarray,
    band_hi: np.ndarray,
) -> bool:
    """EQ1 bracket and band containment at the cell's interior lattice points."""
    interior = _interior_points(domain, cell)
    if interior is None:
        return True
    box, pts = interior
    coords = [pts[:, d] for d in range(pts.shape[1])]
    fv = sys.flat_vars()
    jets = {v: polys[v[0] - 1].deriv_many(v[1], pts) for v in fv}
    for j, Fj in enumerate(sys.F):
        try:
            vals = ex.eval_on_arrays(Fj, coords, jets)
        except ex.EvalDomainError:
            return False
        f_here = f_arrays[j][box].reshape(-1)
        if not (np.all(vals > f_here - gamma_n) and np.all(vals < f_here)):
            return False
    for k, v in enumerate(fv):
        if np.any(jets[v] < band_lo[k]) or np.any(jets[v] > band_hi[k]):
            return False
    return True


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
    and J-cells subdivided until the EQ1 bracket and band containment hold
    at every interior lattice point."""
    if n < 1:
        raise ValueError("stage index must be at least 1")
    if (prev is None) != (n == 1):
        raise ValueError("prev must be given exactly when n > 1")
    if tiling.radii is None:
        raise ValueError("tiling has no openness radii; run the probe first")
    rng = rng or np.random.default_rng(0)
    m_flat = sys.unknown_count
    num_i = len(tiling.i_cells)
    meshes = domain.meshes()
    f_arrays = [a.reshape(domain.shape)
                for a in sys.rhs_on_arrays([m.reshape(-1) for m in meshes])]
    band_lo = np.zeros((num_i, m_flat))
    band_hi = np.zeros((num_i, m_flat))
    i_jets = np.zeros((num_i, m_flat))
    all_j_cells: list[list[Cell]] = []
    all_j_jets: list[list[np.ndarray]] = []
    gamma_n = gamma / n
    for ci, icell in enumerate(tiling.i_cells):
        eps_c = float(tiling.radii[ci])
        a = tiling.anchors[ci]
        target = sys.rhs_at(a) - gamma / (2.0 * n)
        if prev is not None:
            margin = (prev.band_hi[ci] - prev.band_lo[ci]) / 8.0
            i_box = np.stack(
                [prev.band_lo[ci] + margin, prev.band_hi[ci] - margin], axis=1
            )
            seed = prev.i_jets[ci]
        else:
            margin = None
            i_box = None
            seed = np.zeros(m_flat)
        try:
            ji = jet_solve(sys, a, target, seed=seed, constraint_box=i_box, rng=rng)
        except NoSolutionError as e:
            raise ConstructionError(
                f"anchor jet unsolvable (openness radius overestimated?): {e}",
                stage=n, cell=ci,
            ) from e
        center = ji.flat()
        hw = (2.0 * eps_c / n) * (15.0 / 16.0)
        lo_b = center - hw
        hi_b = center + hw
        if prev is not None:
            lo_b = np.maximum(lo_b, prev.band_lo[ci] + 0.5 * margin)
            hi_b = np.minimum(hi_b, prev.band_hi[ci] - 0.5 * margin)
        if np.any(lo_b >= hi_b):
            raise ConstructionError(
                "clipped band is empty; previous bands too narrow",
                stage=n, cell=ci,
            )
        band_lo[ci] = lo_b
        band_hi[ci] = hi_b
        i_jets[ci] = center
        inner = (hi_b - lo_b) / 8.0
        j_box = np.stack([lo_b + inner, hi_b - inner], axis=1)
        if prev is not None:
            j_box[:, 0] = np.maximum(j_box[:, 0], prev.band_lo[ci] + margin)
            j_box[:, 1] = np.minimum(j_box[:, 1], prev.band_hi[ci] - margin)
            if np.any(j_box[:, 1] <= j_box[:, 0]):
                raise ConstructionError(
                    "J-cell constraint box is empty", stage=n, cell=ci
                )
        work = list(prev.j_cells[ci]) if prev is not None else [icell]
        cells_here: list[Cell] = []
        jets_here: list[np.ndarray] = []
        while work:
            jcell = work.pop(0)
            if len(cells_here) + len(work) > max_cells:
                raise ConstructionError(
                    "cell budget exhausted while subdividing", stage=n, cell=ci
                )
            aj = jcell.center
            tj = sys.rhs_at(aj) - gamma / (2.0 * n)
            try:
                jj = jet_solve(
                    sys, aj, tj, seed=center, constraint_box=j_box, rng=rng
                )
            except NoSolutionError as e:
                raise ConstructionError(
                    f"constrained jet unsolvable "
                    f"(openness radius overestimated?): {e}",
                    stage=n, cell=ci,
                ) from e
            polys = taylor_poly(jj)
            if _stage_cell_ok(sys, polys, jcell, domain, f_arrays,
                              gamma_n, lo_b, hi_b):
                cells_here.append(jcell)
                jets_here.append(jj.flat())
                continue
            children = jcell.split()
            if _empty_interiors(domain, children).any():
                raise ConstructionError(
                    "bracket unattainable at grid resolution",
                    stage=n, cell=ci,
                )
            work.extend(children)
        all_j_cells.append(cells_here)
        all_j_jets.append(jets_here)
    flat_cells = [c for cs in all_j_cells for c in cs]
    flat_polys = [
        taylor_poly(Jet.from_flat(np.asarray(c.center), sys.K, sys.mis, w))
        for cs, ws in zip(all_j_cells, all_j_jets)
        for c, w in zip(cs, ws)
    ]
    v_poly, marked = assemble(flat_cells, flat_polys, domain)
    stage = RefinementStage(
        n=n, gamma=float(gamma), v=v_poly, domain=marked,
        band_lo=band_lo, band_hi=band_hi, i_jets=i_jets,
        j_cells=all_j_cells, j_jets=all_j_jets,
        eq1=_check_eq1(sys, v_poly, marked, f_arrays, gamma, n),
        eq2=_check_eq2(sys, v_poly, marked, tiling, band_lo, band_hi, prev),
        eq3=_check_eq3(tiling, band_lo, band_hi, n),
    )
    return stage


def _check_eq1(sys, v_poly, marked, f_arrays, gamma, n) -> Eq1Certificate:
    tv = apply_operator(sys, v_poly, marked)
    off = ~marked.skeleton
    lower = min(
        float(np.min(tv[j].values[off] - (f_arrays[j][off] - gamma / n)))
        for j in range(sys.K)
    )
    upper = min(
        float(np.min(f_arrays[j][off] - tv[j].values[off])) for j in range(sys.K)
    )
    return Eq1Certificate(passed=(lower > 0.0 and upper > 0.0),
                          lower_slack=lower, upper_slack=upper)


def _check_eq2(sys, v_poly, marked, tiling, band_lo, band_hi, prev) -> Eq2Certificate:
    from .jets import sample_component

    owner, _ = _classify_grid(tiling.i_cells, marked)
    sel = (owner >= 0) & ~marked.skeleton
    own = owner[sel]
    inner_lo = float("inf")
    inner_hi = float("inf")
    for k, (i, a) in enumerate(sys.flat_vars()):
        sampled = sample_component(v_poly, i, a, marked).values[sel]
        inner_lo = min(inner_lo, float(np.min(sampled - band_lo[own, k], initial=np.inf)))
        inner_hi = min(inner_hi, float(np.min(band_hi[own, k] - sampled, initial=np.inf)))
    if prev is None:
        return Eq2Certificate(
            passed=(inner_lo >= 0.0 and inner_hi >= 0.0), vacuous=True,
            outer_lower=float("inf"), outer_upper=float("inf"),
            inner_lower=inner_lo, inner_upper=inner_hi,
        )
    outer_lo = float(np.min(band_lo - prev.band_lo))
    outer_hi = float(np.min(prev.band_hi - band_hi))
    return Eq2Certificate(
        passed=(outer_lo > 0.0 and outer_hi > 0.0
                and inner_lo >= 0.0 and inner_hi >= 0.0),
        vacuous=False,
        outer_lower=outer_lo, outer_upper=outer_hi,
        inner_lower=inner_lo, inner_upper=inner_hi,
    )


def _check_eq3(tiling, band_lo, band_hi, n) -> Eq3Certificate:
    widths = band_hi - band_lo
    ratios = widths * n / (4.0 * tiling.radii[:, None])
    return Eq3Certificate(
        passed=bool(np.all(ratios < 1.0)),
        max_ratio=float(np.max(ratios)),
        widths=tuple(tuple(float(w) for w in row) for row in widths),
    )


# ---------------------------------------------------------------------------
# the full scheme


@dataclass(eq=False)
class SchemeResult:
    stages: list[RefinementStage]
    tiling: Tiling
    domain: GridDomain  # final stage lattice with full skeleton
    f_samples: list[GridFunction]
    oc_operator: list[OrderConvergenceCertificate]  # one per component
    oc_bands: dict[tuple[int, tuple[int, ...]], OrderConvergenceCertificate]
    # per stage, on the final lattice: T V_n, one GridFunction per component,
    # and the step bands, one (lower, upper) pair per flat jet variable
    tv_by_stage: list[list[GridFunction]]
    bands_by_stage: list[list[tuple[GridFunction, GridFunction]]]
    final_sup_gap: float
    verdict: bool
    diagnostics: list[str]
    gamma: float
    N: int


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


def run_scheme(
    sys: PdeSystem,
    domain: GridDomain,
    gamma: float,
    N: int,
    *,
    eps_max: float = 1.0,
    seed: int = 0,
    delta: float | None = None,
    probe_samples: int = 400,
) -> SchemeResult:
    """Chain refinement stages 1..N and certify the outcome.

    Openness radii come from the sampling probe at each anchor (capped at
    eps_max). The verdict requires every stage certificate, order
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
    diam = float(np.linalg.norm(domain.hi - domain.lo))
    if delta is None:
        delta = diam / 16.0
    tiling = tile_domain(domain.lo, domain.hi, delta, 2, domain)
    from .pde import check_assumption_open

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
            samples=probe_samples, rng=rng, target=target,
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
    meshes = final_dom.meshes()
    f_raw = [a.reshape(final_dom.shape)
             for a in sys.rhs_on_arrays([m.reshape(-1) for m in meshes])]
    f_gfs = [GridFunction(final_dom, arr) for arr in f_raw]
    diagnostics: list[str] = []
    oc_operator = []
    tv_by_stage = [apply_operator(sys, st.v, final_dom) for st in stages]
    tol_tv = gamma / N * (1.0 + 1e-9)
    for j in range(sys.K):
        seq = [tv[j] for tv in tv_by_stage]
        lams = [GridFunction(final_dom, f_raw[j] - gamma / n_)
                for n_ in range(1, N + 1)]
        mus = [f_gfs[j]] * N
        cert = order_convergence_check(seq, lams, mus, f_gfs[j], tol=tol_tv)
        oc_operator.append(cert)
        if not cert.passed:
            diagnostics.append(
                f"operator image of component {j + 1} fails order convergence "
                f"(first violation {cert.first_violation}, "
                f"gaps {cert.sup_gap:.3e}/{cert.inf_gap:.3e})"
            )
    from .jets import sample_component

    oc_bands: dict[tuple[int, tuple[int, ...]], OrderConvergenceCertificate] = {}
    band_tol = band_tolerance(tiling.radii, N)
    bands_by_stage = [
        _band_functions(st.band_lo, st.band_hi, final_dom, tiling.i_cells)
        for st in stages
    ]
    for k, (i, a) in enumerate(sys.flat_vars()):
        seq = [sample_component(st.v, i, a, final_dom) for st in stages]
        lams = [bg[k][0] for bg in bands_by_stage]
        mus = [bg[k][1] for bg in bands_by_stage]
        oc_bands[(i, a)] = order_convergence_check(
            seq, lams, mus, seq[-1], tol=band_tol
        )
    off = ~final_dom.skeleton
    final_sup_gap = max(
        float(np.max(np.abs(tv_by_stage[-1][j].values[off] - f_raw[j][off])))
        for j in range(sys.K)
    )
    for st in stages:
        if not st.certificates_pass():
            diagnostics.append(
                f"stage {st.n} certificates: eq1={st.eq1.passed} "
                f"eq2={st.eq2.passed} eq3={st.eq3.passed}"
            )
    if not final_sup_gap < gamma / N:
        diagnostics.append(
            f"final sup gap {final_sup_gap:.3e} not below gamma/N={gamma / N:.3e}"
        )
    verdict = (
        all(st.certificates_pass() for st in stages)
        and all(c.passed for c in oc_operator)
        and final_sup_gap < gamma / N
    )
    return SchemeResult(
        stages=stages, tiling=tiling, domain=final_dom, f_samples=f_gfs,
        oc_operator=oc_operator, oc_bands=oc_bands,
        tv_by_stage=tv_by_stage, bands_by_stage=bands_by_stage,
        final_sup_gap=final_sup_gap, verdict=verdict,
        diagnostics=diagnostics, gamma=float(gamma), N=int(N),
    )
