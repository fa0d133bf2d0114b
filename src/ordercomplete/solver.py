"""Constructive engine: row-batched jet solving, the global lower/upper
pair and the staged refinement scheme, certified by `checker`.

Stage n produces a piecewise polynomial V_n whose operator image brackets
the data from below within gamma/n (EQ1), whose per-cell jet bands nest
strictly inside the previous stage's bands (EQ2), and whose band widths
stay below 4*eps/n per cell (EQ3). Both the global pair and the stages are
built by one adaptive subdivision loop (`_subdivide`).

Every random draw comes from a stream of its own (`_stream`), keyed by the
run seed and by what it is drawn for: the openness probe at an I-cell, or
the multistart fallback of one anchor, J-cell or global-pair solve. So a
cell's result depends on its own inputs alone, not on which cells were
solved before it, and the order in which cells are solved is free: each
subdivision generation is solved as the rows of one `jet_solve` call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .checker import (_TOL_RESIDUAL, ApEqCertificate, ConstructionError, RefinementStage,
                      SchemeConvergence, Tiling, _columns, _empty_interiors, _inner_boxes,
                      _rhs_rows, _row_residuals, apeq_certificate, certified_stage,
                      jcell_boxes, scheme_convergence, stage_bands, tile_domain)
from .grids import GridDomain
from .jets import PiecewisePoly, _centers, _gathered_jets, _interior_gather
from .pde import PdeSystem, check_assumption_open, eval_rows


class NoSolutionError(ConstructionError):
    """The jet solver exhausted its budget on some rows without meeting the
    residual tolerance. `row` is the first such row, which the message
    names with its point, and `best_residual` that row's best max-norm
    residual (nan where none was finite)."""

    def __init__(self, x0, row: int, best_residual: float):
        self.row = row
        self.best_residual = best_residual
        super().__init__(f"no jet solution at x0={tuple(float(a) for a in x0)}; "
                         f"best residual {best_residual:.3e}")


# ---------------------------------------------------------------------------
# random streams

# the first key entry of a stream: what its draws are for (see _stream)
PROBE, ANCHOR, JCELL, GLOBAL = range(4)


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The random stream of one draw site, a function of the run seed and
    the key alone: (PROBE, ci) for the openness probe at I-cell ci,
    (ANCHOR, n, ci) for the stage-n anchor solve there, (JCELL, n, ci,
    *key) for a J-cell solve of stage n, and (GLOBAL, side, *key) for the
    lower (side 0) or upper (1) jet of a global-pair cell, key being the
    cell's row of _cell_key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _cell_key(cells: np.ndarray) -> list[list[int]]:
    """Per cell of cells (C, 2, n), the bit patterns of its lo and then hi
    bounds, as stream key entries."""
    return np.ascontiguousarray(cells).reshape(len(cells), -1).view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# jet solving


def _lhs_starts(box: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube start points inside the box, one stratum per start."""
    m = box.shape[0]
    u = rng.random((count, m))
    strata = np.stack([rng.permutation(count) for _ in range(m)], axis=1)
    unit = (strata + u) / count
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


# jet_solve: Gauss-Newton steps per start, multistart count, and the
# half-width of the multistart box when no constraint box is given
_MAX_ITER = 80
_MULTISTARTS = 16
_BOX_RADIUS = 10.0


def _stage_targets(sys: PdeSystem, points: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """f(x) - gamma/(2n) at each point: the target of a stage-n solve."""
    return _rhs_rows(sys, points) - gamma / (2.0 * n)


# an overflowing step fails its row; an overflowing residual norm takes any step
@np.errstate(over="ignore")
def _newton(sys: PdeSystem, coords: list[np.ndarray], target: np.ndarray,
            v0: np.ndarray, box: np.ndarray | None):
    """Damped Gauss-Newton on every row at once: the final jets (rows, M),
    which rows converged, and each row's best max-norm residual seen.

    Per row: project the start onto its box, then take minimum-norm steps
    -pinv(J) r (singular values up to eps max(K, M) of the largest count as
    zero, the cutoff of lstsq) with a halving line search from t = 1 that
    accepts |r_t| <= (1 - 1e-4 t)|r|. A row leaves the loop when its
    residual is below _TOL_RESIDUAL (converged), when F or its Jacobian
    faults, or when the line search stalls (failed). The rows halve in
    lockstep, so the line search is one vector loop.
    """
    rows_total, m = v0.shape
    jac = [d for row in sys.jet_jacobian() for d in row]
    rcond = np.finfo(float).eps * max(sys.K, m)
    best = np.full(rows_total, np.inf)

    def clamp(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return v if box is None else np.clip(v, box[rows, :, 0], box[rows, :, 1])

    def residual(v: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r, bad = _row_residuals(sys, [c[rows] for c in coords], v, target[rows])
        best[rows] = np.minimum(best[rows], np.where(bad, np.inf, np.max(np.abs(r), axis=1)))
        return r, bad

    every = np.arange(rows_total)
    v = clamp(np.array(v0, dtype=float), every)
    r, bad = residual(v, every)
    live = ~bad
    ok = np.zeros(rows_total, dtype=bool)
    for _ in range(_MAX_ITER):
        met = live & (np.max(np.abs(r), axis=1) < _TOL_RESIDUAL)
        ok |= met
        live &= ~met
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        J, bad = eval_rows(sys, jac, [c[rows] for c in coords], v[rows])
        J = J.reshape(-1, sys.K, m)
        step = np.zeros((rows.size, m))
        if not bad.all():
            step[~bad] = -(np.linalg.pinv(J[~bad], rcond=rcond)
                           @ r[rows[~bad], :, None])[..., 0]
        bad |= ~np.all(np.isfinite(step), axis=1)
        live[rows[bad]] = False
        rows, step = rows[~bad], step[~bad]
        rn = np.linalg.norm(r[rows], axis=1)
        t = 1.0
        while t >= 1e-10 and rows.size:
            vt = clamp(v[rows] + t * step, rows)
            rt, bad = residual(vt, rows)
            moved = ~bad & (np.linalg.norm(rt, axis=1) <= (1.0 - 1e-4 * t) * rn)
            v[rows[moved]] = vt[moved]
            r[rows[moved]] = rt[moved]
            rows, step, rn = rows[~moved], step[~moved], rn[~moved]
            t *= 0.5
        live[rows] = False  # stalled above the tolerance
    ok |= live & (np.max(np.abs(r), axis=1) < _TOL_RESIDUAL)
    return v, ok, best


def jet_solve(
    sys: PdeSystem,
    x0,
    target,
    seed=None,
    constraint_box=None,
    *,
    stream: Callable[[int], np.random.Generator],
) -> np.ndarray:
    """Solve F(x0[c], xi) = target[c] for a flat jet xi on every row c at
    once, each optionally inside its box; returns the jets (rows, M).

    x0 is (rows, n), target (rows, K), seed (rows, M) start jets (default:
    the box centres, or zero) and constraint_box (rows, M, 2). Damped
    Gauss-Newton runs on all rows together (see _newton). Where F has abs of
    a jet expression, the Jacobian holds its generalized derivative, which
    makes this semismooth Newton. A row whose direct run fails falls back
    to _MULTISTARTS Latin-hypercube starts in its box (or a cube of
    half-width _BOX_RADIUS), run as rows of the same Newton loop; among its
    solutions within tolerance (max-norm residual below _TOL_RESIDUAL) the
    minimal-norm one wins, then lexicographic order. The starts of row c
    draw from stream(c), called only for a row that reaches the multistart.
    Every row depends on its own inputs alone, so it gives the same jet in
    any batch, alone included.
    Raises NoSolutionError when some row finds no solution.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or x0.shape[1] != sys.n:
        raise ValueError(f"x0 must have shape (rows, {sys.n})")
    rows_total, m = x0.shape[0], sys.unknown_count
    target = np.asarray(target, dtype=float)
    if target.shape != (rows_total, sys.K):
        raise ValueError(f"target must have {sys.K} components per row")
    if not np.all(np.isfinite(target)):
        raise ValueError("target must be finite")
    box = None
    if constraint_box is not None:
        box = np.asarray(constraint_box, dtype=float)
        if box.shape != (rows_total, m, 2):
            raise ValueError("constraint box must have shape (rows, M, 2)")
        if np.any(box[..., 1] < box[..., 0]):
            raise ValueError("constraint box is empty")
    if seed is None:
        v0 = box.mean(axis=2) if box is not None else np.zeros((rows_total, m))
    else:
        v0 = np.asarray(seed, dtype=float)
        if v0.shape != (rows_total, m):
            raise ValueError("seed must have shape (rows, M)")
    coords = _columns(x0)
    v, ok, best = _newton(sys, coords, target, v0, box)
    failed = np.flatnonzero(~ok)
    if failed.size:
        starts = []
        for c in failed:
            search = box[c] if box is not None else np.stack(
                [np.full(m, -_BOX_RADIUS), np.full(m, _BOX_RADIUS)], axis=1)
            starts.append(_lhs_starts(search, _MULTISTARTS, stream(int(c))))
        owner = np.repeat(failed, _MULTISTARTS)
        sv, sok, sbest = _newton(sys, [c[owner] for c in coords], target[owner],
                                 np.concatenate(starts),
                                 None if box is None else box[owner])
        best[failed] = np.minimum(best[failed], sbest.reshape(-1, _MULTISTARTS).min(axis=1))
        norms = np.linalg.norm(sv, axis=1)
        for k, c in enumerate(failed):
            got = [i for i in range(k * _MULTISTARTS, (k + 1) * _MULTISTARTS) if sok[i]]
            if got:
                v[c] = sv[min(got, key=lambda i: (norms[i], tuple(sv[i])))]
                ok[c] = True
    if not ok.all():
        row = int(np.argmin(ok))
        raise NoSolutionError(x0[row], row,
                              float(best[row]) if np.isfinite(best[row]) else np.nan)
    return v


# ---------------------------------------------------------------------------
# adaptive subdivision


def _cell_polys(sys: PdeSystem, cells: np.ndarray, jets: np.ndarray) -> PiecewisePoly:
    """The Taylor polynomials of flat jets (C, M), one row per cell of
    cells (C, 2, n), anchored at the cell centers."""
    return PiecewisePoly(cells, jets.reshape(len(cells), sys.K, -1), sys.mis)


def _generation_ok(sys: PdeSystem, domain: GridDomain, cells: np.ndarray,
                   brackets, band=None) -> np.ndarray:
    """Per cell of cells (C, 2, n), whether lower < F(x, P) < upper holds
    strictly at each of its strictly interior lattice points for every
    (jets, lower, upper) in brackets, jets (C, M) the flat jet of each cell,
    P its Taylor polynomials anchored at the cell center, and lower, upper
    lists of lattice arrays; and, with band = (band_lo, band_hi) (C, M),
    whether every flat jet variable of P stays inside the cell's band row
    there. A fault of F fails the cell; a cell without interior points passes."""
    counts, own, idx, pts = _interior_gather(domain, cells)
    ok = np.ones(len(cells), dtype=bool)
    held = counts > 0
    if not held.any():
        return ok
    starts = (np.cumsum(counts) - counts)[held]
    centers = _centers(cells)
    coords = _columns(pts)
    good = np.ones(len(starts), dtype=bool)
    for jets, lower, upper in brackets:
        flat = np.stack(_gathered_jets(sys.mis, centers, jets.reshape(len(cells), sys.K, -1),
                                       own, pts), axis=1)
        vals, faulted = eval_rows(sys, sys.F, coords, flat)
        # the least slack of lower < F < upper per row, -inf where F faults
        slack = np.minimum(vals - np.stack([a[idx] for a in lower], axis=1),
                           np.stack([a[idx] for a in upper], axis=1) - vals).min(axis=1)
        slack[faulted] = -np.inf
        good &= np.minimum.reduceat(slack, starts) > 0.0
        if band is not None:
            exits = ((flat < band[0][own]) | (flat > band[1][own])).any(axis=1)
            good &= ~np.logical_or.reduceat(exits, starts)
    ok[held] = good
    return ok


_MAX_CELLS = 100_000  # cells a subdivision may hold: the global pair's, a stage's


def _children(cells: np.ndarray) -> np.ndarray:
    """The 2^n congruent children of each cell of cells (C, 2, n), cell by
    cell and in itertools.product((0, 1), repeat=n) corner order, as
    (C * 2^n, 2, n): along axis d, corner 0 takes [lo, mid] and corner 1
    [mid, hi], with mid = 0.5 (lo + hi)."""
    n = cells.shape[2]
    upper = np.array(list(itertools.product((False, True), repeat=n)))[None]
    lo, hi = cells[:, None, 0], cells[:, None, 1]
    mid = _centers(cells)[:, None]
    return np.stack([np.where(upper, mid, lo), np.where(upper, hi, mid)],
                    axis=2).reshape(-1, 2, n)


def _subdivide(work: np.ndarray, solve, check, domain: GridDomain, *,
               stage: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The accepted cells (C, 2, n) of an adaptive subdivision of the cells
    work, in order of acceptance, and their payload rows.

    A generation (the cells pending at once) is solved in one call,
    solve(cells) -> one payload row per cell, and checked in one call,
    check(cells, payloads) -> bool per cell; the failed cells are split
    (see _children) and their children, in order, form the next
    generation. The generation is the unit of failure: before it is
    solved, the subdivision fails when the accepted cells and the
    generation together exceed _MAX_CELLS; solve raises its own
    ConstructionError when some cell cannot be solved; and after the check,
    the first split cell with a child that holds no interior lattice point
    fails it, named by its lower corner. Errors name the stage. A solve
    draws from its cell's own stream (see _stream), so solving a whole
    generation at once fixes no random draw.
    """
    cells, payloads = [], []
    accepted = 0
    gen = work
    while len(gen):
        if accepted + len(gen) > _MAX_CELLS:
            raise ConstructionError("cell budget exhausted while subdividing", stage=stage)
        load = solve(gen)
        ok = check(gen, load)
        split = np.flatnonzero(~ok)
        children = _children(gen[split])
        stranded = split[_empty_interiors(domain, children)
                         .reshape(len(split), 2 ** gen.shape[2]).any(axis=1)]
        if stranded.size:
            raise ConstructionError("bracket unattainable at grid resolution", stage=stage,
                                    cell=tuple(gen[stranded[0], 0].tolist()))
        cells.append(gen[ok])
        payloads.append(load[ok])
        accepted += len(cells[-1])
        gen = children
    return np.concatenate(cells), np.concatenate(payloads)


# ---------------------------------------------------------------------------
# global approximate pair


@dataclass(eq=False)
class GlobalPairResult:
    lower: PiecewisePoly
    upper: PiecewisePoly
    certificate: ApEqCertificate
    cells: np.ndarray  # (C, 2, n), the cells of lower and upper


def global_pair(
    sys: PdeSystem,
    domain: GridDomain,
    eps: float,
    *,
    seed: int = 0,
) -> GlobalPairResult:
    """Build U, V with f - eps < T U < f < T V < f + eps off a common skeleton.

    One shared adaptive tiling: start from the whole box, solve both anchor
    jets per cell, and split any cell whose bracket fails at an interior
    lattice point (see _subdivide, at most _MAX_CELLS cells). A solve's
    multistart fallback draws from the stream (GLOBAL, side, *cell) of the
    run seed (see _stream).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    f = sys.rhs_on_lattice(domain)
    below = [fj - eps for fj in f]
    above = [fj + eps for fj in f]

    m = sys.unknown_count

    def solve(cells: np.ndarray) -> np.ndarray:
        # rows: the lower jets of the cells, then their upper jets; a payload
        # row is a cell's lower jet, then its upper jet
        a = _centers(cells)
        f0 = _rhs_rows(sys, a)
        keys = _cell_key(cells)
        try:
            flat = jet_solve(sys, np.concatenate([a, a]),
                             np.concatenate([f0 - 0.5 * eps, f0 + 0.5 * eps]),
                             stream=lambda row: _stream(seed, GLOBAL, row // len(cells),
                                                        *keys[row % len(cells)]))
        except NoSolutionError as e:
            raise ConstructionError(f"anchor jet unsolvable: {e}",
                                    cell=tuple(cells[e.row % len(cells), 0].tolist())) from e
        return np.concatenate([flat[:len(cells)], flat[len(cells):]], axis=1)

    def check(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        return _generation_ok(sys, domain, cells, [
            (pairs[:, :m], below, f), (pairs[:, m:], f, above)])

    box = np.stack([domain.lo, domain.hi])[None]
    cells, pairs = _subdivide(box, solve, check, domain)
    u_poly = _cell_polys(sys, cells, pairs[:, :m])
    v_poly = _cell_polys(sys, cells, pairs[:, m:])
    cert = apeq_certificate(sys, u_poly, v_poly, domain, eps)
    return GlobalPairResult(u_poly, v_poly, cert, cells)


# ---------------------------------------------------------------------------
# the refinement scheme


def refine(
    sys: PdeSystem,
    domain: GridDomain,
    tiling: Tiling,
    prev: RefinementStage | None,
    n: int,
    gamma: float,
    *,
    seed: int = 0,
) -> RefinementStage:
    """Build stage n: anchor jets at target f - gamma/(2n), bands of
    halfwidth (2 eps/n)(15/16) clipped strictly inside the previous bands
    (see stage_bands), and all J-cells of the stage subdivided in one loop
    (see _subdivide, _MAX_CELLS bounds the stage) until the EQ1 bracket and
    band containment hold at every interior lattice point.

    Stage 1 takes its anchor jets from the tiling, where the openness probe
    left them (see run_scheme); a later stage solves them inside the
    previous bands (see _inner_boxes), all I-cells in one jet_solve call.
    Each generation of J-cells is one more call, after one index_of call
    finds their I-cells. A multistart fallback of the anchor solve at
    I-cell ci draws from the stream (ANCHOR, n, ci) of the run seed, and
    that of a J-cell solve from (JCELL, n, ci, *cell) (see _stream)."""
    if n < 1:
        raise ValueError("stage index must be at least 1")
    if (prev is None) != (n == 1):
        raise ValueError("prev must be given exactly when n > 1")
    if tiling.radii is None or tiling.jets is None:
        raise ValueError("tiling has no openness radii or anchor jets; "
                         "run the probe first")
    f = sys.rhs_on_lattice(domain)
    below = [fj - gamma / n for fj in f]

    def unsolvable(what: str, e: NoSolutionError, ci: int) -> ConstructionError:
        return ConstructionError(
            f"{what} jet unsolvable (openness radius overestimated?): {e}",
            stage=n, cell=ci)

    prev_bands = None if prev is None else (prev.band_lo, prev.band_hi)
    if prev is None:
        i_jets = tiling.jets
    else:
        try:
            i_jets = jet_solve(sys, tiling.anchors,
                               _stage_targets(sys, tiling.anchors, gamma, n),
                               prev.i_jets, _inner_boxes(*prev_bands),
                               stream=functools.partial(_stream, seed, ANCHOR, n))
        except NoSolutionError as e:
            raise unsolvable("anchor", e, e.row) from e
    band_lo, band_hi = stage_bands(i_jets, tiling.radii, prev_bands, n)
    j_boxes = jcell_boxes(band_lo, band_hi, prev_bands, n)

    def solve(jcells: np.ndarray) -> np.ndarray:
        centers = _centers(jcells)
        own = tiling.index_of(centers)
        keys = _cell_key(jcells)
        try:
            return jet_solve(sys, centers, _stage_targets(sys, centers, gamma, n),
                             i_jets[own], j_boxes[own],
                             stream=lambda row: _stream(seed, JCELL, n, int(own[row]),
                                                        *keys[row]))
        except NoSolutionError as e:
            raise unsolvable("constrained", e, int(own[e.row])) from e

    def check(jcells: np.ndarray, jets: np.ndarray) -> np.ndarray:
        own = tiling.index_of(_centers(jcells))
        return _generation_ok(sys, domain, jcells, [(jets, below, f)],
                              band=(band_lo[own], band_hi[own]))

    work = tiling.i_cells if prev is None else np.concatenate(prev.j_cells)
    cells, jets = _subdivide(work, solve, check, domain, stage=n)
    # by I-cell, in order of acceptance
    order = np.argsort(tiling.index_of(_centers(cells)), kind="stable")
    return certified_stage(sys, domain, tiling, _cell_polys(sys, cells[order], jets[order]),
                           i_jets, band_lo, band_hi, prev_bands, n, gamma)


@dataclass(eq=False)
class SchemeResult(SchemeConvergence):
    stages: list[RefinementStage]
    tiling: Tiling


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

    The I-cells come from tile_domain. The stage-1 anchor jets are
    solved in one jet_solve call (target f - gamma/2, zero seed, no box);
    an unsolvable anchor fails the run before any probe. Then one call of
    the sampling probe, check_assumption_open with one row per anchor,
    witnesses each anchor's openness radius (capped at eps_max); an
    unsupported anchor fails the run, the lowest first.
    Stage 1 takes those jets from the tiling instead of solving them
    again. The probe's row for I-cell ci draws from the stream (PROBE, ci)
    of seed, and every solve's fallback from its own stream (see
    _stream), so the result does not depend on the order in which cells
    are handled, nor on how the probe blocks its rows. scheme_verdict
    gives its verdict, together with the global pair certificate.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if N < 1:
        raise ValueError("N must be at least 1")
    if eps_max <= 0.0:
        raise ValueError("eps_max must be positive")
    tiling = tile_domain(domain)
    targets = _stage_targets(sys, tiling.anchors, gamma, 1)
    try:
        jets = jet_solve(sys, tiling.anchors, targets,
                         stream=functools.partial(_stream, seed, ANCHOR, 1))
    except NoSolutionError as e:
        raise ConstructionError(
            f"stage-1 anchor jet unsolvable (interior assumption violated?): {e}",
            stage=1, cell=e.row) from e
    # the half-diagonal of each cell: sqrt(w . w) one row at a time, as
    # np.linalg.norm(w) computes it, bit for bit (a norm along axis 1 rounds
    # differently on some rows)
    w = tiling.i_cells[:, 1] - tiling.i_cells[:, 0]
    probed = check_assumption_open(
        sys, tiling.anchors, jets, np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0]) / 2.0,
        eps_max, stream=functools.partial(_stream, seed, PROBE), target=targets,
    )
    radii = np.zeros(len(tiling.i_cells))
    for ci, ev in enumerate(probed):
        if not ev.supported:
            raise ConstructionError(
                "openness assumption unsupported at anchor "
                f"{tuple(tiling.anchors[ci].tolist())} (margin {ev.margin_min:.3e})",
                stage=1, cell=ci,
            )
        radii[ci] = min(ev.witnessed_radius, eps_max)
    tiling = tiling.with_radii(radii, jets)
    stages: list[RefinementStage] = []
    prev = None
    for n in range(1, N + 1):
        st = refine(sys, domain, tiling, prev, n, gamma, seed=seed)
        stages.append(st)
        prev = st
    conv = scheme_convergence(sys, [st.samples for st in stages], tiling.radii, gamma)
    return SchemeResult(**vars(conv), stages=stages, tiling=tiling)
