"""Constructive engine: row-batched jet solving, hierarchical tilings,
global lower/upper pairs, and the staged refinement scheme with its three
certificates.

Stage n produces a piecewise polynomial V_n whose operator image brackets
the data from below within gamma/n (EQ1), whose per-cell jet bands nest
strictly inside the previous stage's bands (EQ2), and whose band widths
stay below 4*eps/n per cell (EQ3). Both the global pair and the stages are
built by one adaptive subdivision loop (`_subdivide`).

The certificates come from pure functions of the candidates, their
sampled jets, bands and lattice: `apeq_certificate`, `eq1_certificate`,
`eq2_certificate`, `eq3_certificate` and `scheme_convergence`. They
re-check every inequality on the full lattice, off the skeleton each
candidate's sampling marks (jets.sample_jets), independently of the
per-cell construction. Callers pass the bare lattice. `refine` and
`cli.verify` share `stage_certificates`, which computes EQ1-EQ3 from one
sampling of V_n, and `scheme_convergence` normalizes those samples onto
the last stage's skeleton.

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

from . import expr as ex
from .grids import (
    GridDomain,
    GridFunction,
    OrderConvergenceCertificate,
    complete,
    order_convergence_check,
)
from .jets import (
    PiecewisePoly,
    TilingError,
    _centers,
    _gathered_jets,
    _interior_gather,
    _interior_ranges,
    sample_jets,
)
from .pde import PdeSystem, apply_operator, check_assumption_open, eval_rows


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
    """The jet solver exhausted its budget on some rows without meeting the
    residual tolerance. `failed` marks those rows, `best` holds each row's
    best max-norm residual (nan where none was finite) and `jets` each
    row's jet (meaningless on a failed row); `row` is the first failed row,
    which the message names."""

    def __init__(self, x0, best, failed, jets):
        self.x0 = np.asarray(x0, dtype=float)
        self.best = np.asarray(best, dtype=float)
        self.failed = np.asarray(failed, dtype=bool)
        self.jets = jets
        self.row = int(np.argmax(self.failed))
        self.best_residual = float(self.best[self.row])
        super().__init__(self.about(self.row))

    def about(self, row: int) -> str:
        """The point and best residual of one row."""
        return (f"no jet solution at x0={tuple(float(a) for a in self.x0[row])}; "
                f"best residual {self.best[row]:.3e}")


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
# tiling


@dataclass(eq=False)
class Tiling:
    """Level-0 box, its I-cells with anchors, and what the openness probe
    found there: per-cell radii and the stage-1 anchor jets it probed at.

    J-cells start equal to the I-cells and are refined per stage; radii and
    jets are data discovered by the probe, not part of the geometry.
    """

    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]  # I-cells per axis; i_cells is this grid in C order
    i_cells: np.ndarray  # (num_cells, 2, n), see jets.PiecewisePoly
    anchors: np.ndarray  # (num_cells, n), cell centers
    radii: np.ndarray | None = None
    jets: np.ndarray | None = None  # (num_cells, M), stage-1 anchor jets

    def index_of(self, points) -> np.ndarray:
        """Index of the I-cell strictly holding each point (..., n)."""
        width = (self.hi - self.lo) / self.shape
        idx = np.floor((np.asarray(points) - self.lo) / width).astype(int)
        return np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), self.shape)

    def with_radii(self, radii, jets) -> "Tiling":
        """This tiling with the probe's radii and stage-1 anchor jets, one
        radius and one flat jet row per I-cell."""
        r = np.asarray(radii, dtype=float)
        if r.shape != (len(self.i_cells),):
            raise ValueError("one radius per I-cell required")
        if np.any(r <= 0.0):
            raise ValueError("openness radii must be positive")
        j = np.array(jets, dtype=float)
        if j.ndim != 2 or j.shape[0] != len(self.i_cells):
            raise ValueError("one anchor jet per I-cell required")
        return Tiling(self.lo, self.hi, self.shape, self.i_cells, self.anchors, r, j)


def tile_domain(
    box_lo, box_hi, delta: float, domain: GridDomain | None = None,
) -> Tiling:
    """Cover the box by congruent I-cells of diameter <= delta.

    Axes are halved repeatedly (largest current width first, lowest axis on
    ties) until the common cell diameter fits. With a lattice supplied,
    delta below one grid cell is rejected and every I-cell must hold at
    least one strictly interior lattice point.
    """
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("box bounds must be 1-d arrays of equal length")
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
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
        counts[int(np.argmax(widths))] *= 2
    else:
        raise TilingError("subdivision did not reach the requested delta")
    edges = [np.linspace(lo[d], hi[d], counts[d] + 1) for d in range(n)]
    idx = np.indices(counts).reshape(n, -1)  # C order, the last axis fastest
    cells = np.stack([np.stack([edges[d][idx[d] + k] for d in range(n)], axis=1)
                      for k in (0, 1)], axis=1)
    anchors = _centers(cells)
    if domain is not None:
        empty = _empty_interiors(domain, cells)
        if empty.any():
            ci = int(np.argmax(empty))
            raise TilingError(f"I-cell {ci} at lo={tuple(cells[ci, 0].tolist())} "
                              "holds no interior lattice point")
    return Tiling(lo, hi, tuple(int(c) for c in counts), cells, anchors)


def scheme_tiling(domain: GridDomain) -> Tiling:
    """The I-cells of the refinement scheme on a lattice: dyadic cells of
    diameter at most a sixteenth of the box diagonal (see tile_domain)."""
    delta = float(np.linalg.norm(domain.hi - domain.lo)) / 16.0
    return tile_domain(domain.lo, domain.hi, delta, domain)


def _empty_interiors(domain: GridDomain, cells: np.ndarray) -> np.ndarray:
    """Per cell of cells (C, 2, n), whether it holds no strictly interior
    lattice point."""
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


def _columns(a: np.ndarray) -> list[np.ndarray]:
    """The columns of a (rows, k) array, each contiguous."""
    return list(np.ascontiguousarray(a.T))


def _rhs_rows(sys: PdeSystem, points: np.ndarray) -> np.ndarray:
    """f at each point (rows, n), one row (K,) per point."""
    return np.stack(sys.rhs_on_arrays(_columns(points)), axis=1)


def _stage_targets(sys: PdeSystem, points: np.ndarray, gamma: float, n: int) -> np.ndarray:
    """f(x) - gamma/(2n) at each point: the target of a stage-n solve."""
    return _rhs_rows(sys, points) - gamma / (2.0 * n)


def _row_residuals(sys: PdeSystem, coords: list[np.ndarray], v: np.ndarray,
                   target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(x, v) - target per row (rows, K) and the rows on which F faults;
    coords holds one column per space axis. Each row's values depend on
    that row alone, so a row solved in any batch is solved alike."""
    images, faulted = eval_rows(sys, sys.F, coords, v)
    return images - target, faulted


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
    stream: Callable[[int], np.random.Generator] | None = None,
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
    draw from stream(c), called only for a row that reaches the multistart
    (default: a stream seeded with 0). Every row depends on its own inputs
    alone, so it gives the same jet in any batch, alone included.
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
            # the default is built here: naming np.random in the signature
            # would load numpy.random on `import ordercomplete`
            rng = stream(int(c)) if stream is not None else np.random.default_rng(0)
            search = box[c] if box is not None else np.stack(
                [np.full(m, -_BOX_RADIUS), np.full(m, _BOX_RADIUS)], axis=1)
            starts.append(_lhs_starts(search, _MULTISTARTS, rng))
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
        raise NoSolutionError(x0, np.where(np.isfinite(best), best, np.nan), ~ok, v)
    return v


# ---------------------------------------------------------------------------
# adaptive subdivision


def _cell_polys(sys: PdeSystem, cells: np.ndarray, jets: np.ndarray) -> PiecewisePoly:
    """The Taylor polynomials of flat jets (C, M), one row per cell of
    cells (C, 2, n), anchored at the cell centers."""
    anchors = np.repeat(_centers(cells)[:, None], sys.K, axis=1)
    return PiecewisePoly(cells, anchors, jets.reshape(len(cells), sys.K, -1), sys.mis)


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
    good = np.ones(len(starts), dtype=bool)
    for jets, lower, upper in brackets:
        v = _cell_polys(sys, cells, jets)
        jv = dict(zip(sys.flat_vars(), _gathered_jets(sys.mis, v.anchors, v.coeffs, own, pts)))
        lo_m, hi_m = _bracket_margins(sys, jv, pts, [a[idx] for a in lower],
                                      [a[idx] for a in upper], starts)
        good &= (lo_m > 0.0) & (hi_m > 0.0)
        if band is not None:
            flat = np.stack([jv[v] for v in sys.flat_vars()], axis=1)
            exits = ((flat < band[0][own]) | (flat > band[1][own])).any(axis=1)
            good &= ~np.logical_or.reduceat(exits, starts)
    ok[held] = good
    return ok


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


def _subdivide(work: np.ndarray, solve, check, domain: GridDomain, max_cells: int, *,
               stage: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The accepted cells (C, 2, n) of an adaptive subdivision of the cells
    work, in order of acceptance, and their payload rows.

    A generation (the cells pending at once) is solved in one call,
    solve(cells) -> (payloads, failure): one payload row for each cell
    before the first one that could not be solved, in order, and the error
    to raise at that cell (None when every cell was solved). The solved
    cells are checked in one call, check(cells, payloads) -> bool per cell;
    the failed cells are split (see _children) and their children, in
    order, form the next generation. That accepts the cells of the
    first-in, first-out loop that solves, checks and splits one cell at a
    time, and raises the same error at the same cell: when more than
    max_cells cells accumulate, when a cell cannot be solved, or when a
    child would hold no interior lattice point. Errors name the stage, and
    a stranded child also the split cell's lower corner. A solve draws from
    its cell's own stream (see _stream), so solving a whole generation at
    once fixes no random draw.
    """
    cells, payloads = [], []
    accepted = 0
    gen = work
    while len(gen):
        load, failure = solve(gen)
        solved = len(load)
        ok = check(gen[:solved], load)
        split = np.flatnonzero(~ok)
        children = _children(gen[split])
        width = 2 ** gen.shape[2]  # children per split cell
        stranded = split[_empty_interiors(domain, children).reshape(len(split), width)
                         .any(axis=1)]
        # the one-cell loop reaches cell i with the cells before it accepted
        # or split; there it checks the budget, then whether i was solved,
        # then whether a child of i is stranded
        reach = np.arange(min(len(gen), solved + 1))
        took = np.zeros(len(reach), dtype=int)
        took[:solved] = ok
        took = np.cumsum(took) - took
        held = accepted + took + len(gen) - reach - 1 + width * (reach - took)
        over = np.flatnonzero(held > max_cells)
        first_over = over[0] if over.size else len(gen)
        first_stranded = stranded[0] if stranded.size else len(gen)
        if min(first_over, solved, first_stranded) < len(gen):
            if first_over <= min(solved, first_stranded):
                raise ConstructionError("cell budget exhausted while subdividing", stage=stage)
            if solved < first_stranded:
                raise failure
            raise ConstructionError("bracket unattainable at grid resolution", stage=stage,
                                    cell=tuple(gen[first_stranded, 0].tolist()))
        cells.append(gen[ok])
        payloads.append(load[ok])
        accepted += len(cells[-1])
        gen = children
    return np.concatenate(cells), np.concatenate(payloads)


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
    sys: PdeSystem, lower: PiecewisePoly, upper: PiecewisePoly, domain: GridDomain,
    eps: float,
) -> ApEqCertificate:
    """ApEq margins of the pair (lower, upper) off their skeleton, from
    their jets sampled on the lattice of domain (see jets.sample_jets).
    Raises ValueError when the two mark different skeletons."""
    u_jets = sample_jets(lower, domain)
    v_jets = sample_jets(upper, domain)
    marked = u_jets[0].domain
    if v_jets[0].domain != marked:
        raise ValueError("the lower and upper polynomials mark different skeletons")
    f = sys.rhs_on_lattice(domain)
    tu = [g.values for g in apply_operator(sys, u_jets)]
    tv = [g.values for g in apply_operator(sys, v_jets)]
    off = ~marked.skeleton
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
    certificate: ApEqCertificate
    cells: np.ndarray  # (C, 2, n), the cells of lower and upper


def global_pair(
    sys: PdeSystem,
    domain: GridDomain,
    eps: float,
    *,
    seed: int = 0,
    max_cells: int = 100_000,
) -> GlobalPairResult:
    """Build U, V with f - eps < T U < f < T V < f + eps off a common skeleton.

    One shared adaptive tiling: start from the whole box, solve both anchor
    jets per cell, and split any cell whose bracket fails at an interior
    lattice point (see _subdivide). A solve's multistart fallback draws
    from the stream (GLOBAL, side, *cell) of the run seed (see _stream).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    f = sys.rhs_on_lattice(domain)
    below = [fj - eps for fj in f]
    above = [fj + eps for fj in f]

    m = sys.unknown_count

    def solve(cells: np.ndarray):
        # rows: the lower jets of the cells, then their upper jets; a payload
        # row is a cell's lower jet, then its upper jet
        a = _centers(cells)
        f0 = _rhs_rows(sys, a)
        keys = _cell_key(cells)
        count = len(cells)
        failure = None
        try:
            flat = jet_solve(sys, np.concatenate([a, a]),
                             np.concatenate([f0 - 0.5 * eps, f0 + 0.5 * eps]),
                             stream=lambda row: _stream(seed, GLOBAL, row // len(cells),
                                                        *keys[row % len(cells)]))
        except NoSolutionError as e:
            flat = e.jets
            sides = e.failed.reshape(2, -1)
            count = int(np.argmax(sides.any(axis=0)))
            row = count if sides[0, count] else len(cells) + count
            failure = ConstructionError(f"anchor jet unsolvable: {e.about(row)}",
                                        cell=tuple(cells[count, 0].tolist()))
        return np.concatenate([flat[:count], flat[len(cells):len(cells) + count]],
                              axis=1), failure

    def check(cells: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        return _generation_ok(sys, domain, cells, [
            (pairs[:, :m], below, f), (pairs[:, m:], f, above)])

    box = np.stack([domain.lo, domain.hi])[None]
    cells, pairs = _subdivide(box, solve, check, domain, max_cells)
    u_poly = _cell_polys(sys, cells, pairs[:, :m])
    v_poly = _cell_polys(sys, cells, pairs[:, m:])
    cert = apeq_certificate(sys, u_poly, v_poly, domain, eps)
    return GlobalPairResult(u_poly, v_poly, cert, cells)


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
    j_cells: list[np.ndarray]  # per I-cell, its J-cells (k, 2, n)
    eq1: Eq1Certificate
    eq2: Eq2Certificate
    eq3: Eq3Certificate
    samples: tuple  # (jets, T V_n, bands) on domain, see stage_certificates

    def certificates_pass(self) -> bool:
        return self.eq1.passed and self.eq2.passed and self.eq3.passed


def _band_functions(
    band_lo: np.ndarray, band_hi: np.ndarray, domain: GridDomain,
    i_cells: np.ndarray,
) -> list[tuple[GridFunction, GridFunction]]:
    """Render a stage's (band_lo, band_hi) as step GridFunctions, one
    (lower, upper) pair per flat jet variable.

    Each lattice point strictly inside an I-cell takes its band constants,
    gathered by owner (see jets._interior_gather). I-cell boundary points
    are a subset of the domain skeleton, so the fill-from-neighbors
    completion assigns them the min of the adjacent cell constants, which
    is exactly the normalize rule for step functions; all bands are
    completed in one stacked call (see grids.complete).
    """
    _, own, idx, _ = _interior_gather(domain, i_cells)
    unowned = np.ones(domain.shape, dtype=bool)
    unowned[idx] = False
    if (unowned & ~domain.skeleton).any():
        raise ValueError("domain skeleton does not cover the I-cell boundaries")
    M = band_lo.shape[1]
    steps = complete(domain, idx, np.concatenate([band_lo[own], band_hi[own]], axis=1).T)
    return list(zip(steps[:M], steps[M:]))


def stage_certificates(
    sys: PdeSystem, v: PiecewisePoly, domain: GridDomain, i_cells: np.ndarray,
    radii, band_lo: np.ndarray, band_hi: np.ndarray,
    prev_bands: tuple[np.ndarray, np.ndarray] | None, n: int, gamma: float,
) -> tuple[tuple[Eq1Certificate, Eq2Certificate, Eq3Certificate], tuple]:
    """EQ1-EQ3 of stage n and the (jets, tv, bands) of V_n they read, each
    computed once on the lattice of domain with V_n's cell boundaries
    marked (see jets.sample_jets and scheme_convergence)."""
    jets = sample_jets(v, domain)
    tv = apply_operator(sys, jets)
    bands = _band_functions(band_lo, band_hi, jets[0].domain, i_cells)
    return (eq1_certificate(sys, tv, gamma, n),
            eq2_certificate(jets, bands, band_lo, band_hi, prev_bands),
            eq3_certificate(radii, band_lo, band_hi, n)), (jets, tv, bands)


def _inner_boxes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The boxes [lo + w/8, hi - w/8], w = hi - lo, of bands (lo, hi)
    (rows, M), as (rows, M, 2): a stage solves its anchor jets in the
    previous stage's inner boxes and its J-cell jets in its own."""
    margin = (hi - lo) / 8.0
    return np.stack([lo + margin, hi - margin], axis=2)


def check_anchor_jets(
    sys: PdeSystem, anchors: np.ndarray, i_jets: np.ndarray,
    prev_bands: tuple[np.ndarray, np.ndarray] | None, n: int, gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per anchor, whether its stage-n jet (a row of i_jets) solves
    F(a, xi) = f(a) - gamma/(2n) to a max-norm residual below _TOL_RESIDUAL,
    in the arithmetic jet_solve accepted it by, and whether it lies in the
    box its solve was confined to: the inner box of prev_bands, the previous
    stage's (band_lo, band_hi) (see _inner_boxes); None at stage 1 (no box)."""
    r, faulted = _row_residuals(sys, _columns(anchors), i_jets,
                                _stage_targets(sys, anchors, gamma, n))
    solves = ~faulted & (np.max(np.abs(r), axis=1) < _TOL_RESIDUAL)
    inside = np.ones(len(anchors), dtype=bool)
    if prev_bands is not None:
        box = _inner_boxes(*prev_bands)
        inside = np.all((box[..., 0] <= i_jets) & (i_jets <= box[..., 1]), axis=1)
    return solves, inside


def stage_bands(
    i_jets: np.ndarray, radii, prev_bands: tuple[np.ndarray, np.ndarray] | None, n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The stage-n bands (band_lo, band_hi) (num_i_cells, M) around the
    anchor jets i_jets: half-width (2 r/n)(15/16) for the I-cell's radius r,
    clipped inside prev_bands, the previous stage's (band_lo, band_hi)
    (None at stage 1), by half their inner-box margin w/8 (see
    _inner_boxes). `refine` builds its bands here and `cli.verify`
    recomputes the stored ones. Raises ConstructionError at the first
    I-cell whose clipped band is empty."""
    hw = (2.0 * np.asarray(radii, dtype=float) / n) * (15.0 / 16.0)
    band_lo = i_jets - hw[:, None]
    band_hi = i_jets + hw[:, None]
    if prev_bands is not None:
        prev_lo, prev_hi = prev_bands
        margin = (prev_hi - prev_lo) / 8.0
        band_lo = np.maximum(band_lo, prev_lo + 0.5 * margin)
        band_hi = np.minimum(band_hi, prev_hi - 0.5 * margin)
    empty = np.any(band_lo >= band_hi, axis=1)
    if empty.any():
        raise ConstructionError("clipped band is empty; previous bands too narrow",
                                stage=n, cell=int(np.argmax(empty)))
    return band_lo, band_hi


def refine(
    sys: PdeSystem,
    domain: GridDomain,
    tiling: Tiling,
    prev: RefinementStage | None,
    n: int,
    gamma: float,
    *,
    seed: int = 0,
    max_cells: int = 100_000,
) -> RefinementStage:
    """Build stage n: anchor jets at target f - gamma/(2n), bands of
    halfwidth (2 eps/n)(15/16) clipped strictly inside the previous bands
    (see stage_bands), and all J-cells of the stage subdivided in one loop
    (see _subdivide, max_cells bounds the stage) until the EQ1 bracket and
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
        i_boxes = _inner_boxes(*prev_bands)
        try:
            i_jets = jet_solve(sys, tiling.anchors,
                               _stage_targets(sys, tiling.anchors, gamma, n),
                               prev.i_jets, i_boxes,
                               stream=functools.partial(_stream, seed, ANCHOR, n))
        except NoSolutionError as e:
            raise unsolvable("anchor", e, e.row) from e
    band_lo, band_hi = stage_bands(i_jets, tiling.radii, prev_bands, n)
    j_boxes = _inner_boxes(band_lo, band_hi)
    if prev is not None:
        j_boxes[..., 0] = np.maximum(j_boxes[..., 0], i_boxes[..., 0])
        j_boxes[..., 1] = np.minimum(j_boxes[..., 1], i_boxes[..., 1])
        empty = np.any(j_boxes[..., 1] <= j_boxes[..., 0], axis=1)
        if empty.any():
            raise ConstructionError("J-cell constraint box is empty",
                                    stage=n, cell=int(np.argmax(empty)))

    def solve(jcells: np.ndarray):
        centers = _centers(jcells)
        own = tiling.index_of(centers)
        keys = _cell_key(jcells)
        count = len(jcells)
        failure = None
        try:
            flat = jet_solve(sys, centers, _stage_targets(sys, centers, gamma, n),
                             i_jets[own], j_boxes[own],
                             stream=lambda row: _stream(seed, JCELL, n, int(own[row]),
                                                        *keys[row]))
        except NoSolutionError as e:
            flat, count = e.jets, e.row
            failure = unsolvable("constrained", e, int(own[e.row]))
        return flat[:count], failure

    def check(jcells: np.ndarray, jets: np.ndarray) -> np.ndarray:
        own = tiling.index_of(_centers(jcells))
        return _generation_ok(sys, domain, jcells, [(jets, below, f)],
                              band=(band_lo[own], band_hi[own]))

    work = tiling.i_cells if prev is None else np.concatenate(prev.j_cells)
    cells, jets = _subdivide(work, solve, check, domain, max_cells, stage=n)
    own = tiling.index_of(_centers(cells))
    order = np.argsort(own, kind="stable")  # by I-cell, in order of acceptance
    cells, jets, own = cells[order], jets[order], own[order]
    j_cells = np.split(cells, np.flatnonzero(np.diff(own)) + 1)
    v_poly = _cell_polys(sys, cells, jets)
    (eq1, eq2, eq3), samples = stage_certificates(
        sys, v_poly, domain, tiling.i_cells, tiling.radii, band_lo, band_hi,
        prev_bands, n, gamma)
    return RefinementStage(
        n=n, gamma=float(gamma), v=v_poly, domain=samples[0][0].domain,
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
    gamma: float,
) -> SchemeConvergence:
    """Order convergence of T V_n to f (lower bounds f - gamma/n) and of
    the jets of V_n inside their step bands (tolerance band_tolerance), and
    the final sup gap, from each stage's samples (see stage_certificates)
    moved to the final domain, the last stage's, whose skeleton must contain
    every stage's, by the normalize rule: V_n is normal, so that is its
    sampling there. Each earlier stage moves in one stacked completion."""
    N = len(samples)
    final_domain = samples[-1][0][0].domain
    if any((jets[0].domain.skeleton > final_domain.skeleton).any()
           for jets, _, _ in samples):
        raise ValueError("final skeleton does not contain every stage skeleton")
    off = ~final_domain.skeleton

    def carry(jets, tv, bands):
        gs = [*jets, *tv, *itertools.chain.from_iterable(bands)]
        if all(g.normalized and g.domain == final_domain for g in gs):  # stage N
            return list(jets), list(tv), list(bands)
        out = complete(final_domain, off, [g.values[off] for g in gs])
        m, k = len(jets), len(jets) + len(tv)
        return out[:m], out[m:k], list(zip(out[k::2], out[k + 1::2]))

    f_raw = sys.rhs_on_lattice(final_domain)
    f_gfs = [GridFunction(final_domain, arr) for arr in f_raw]
    samples_by_stage, tv_by_stage, bands_by_stage = map(
        list, zip(*(carry(*s) for s in samples)))
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

    The I-cells come from scheme_tiling. The stage-1 anchor jets are
    solved in one jet_solve call (target f - gamma/2, zero seed, no box),
    then one call of the sampling probe, check_assumption_open with one
    row per anchor, witnesses each anchor's openness radius (capped at
    eps_max); an unsupported anchor fails the run, the lowest first.
    Stage 1 takes those jets from the tiling instead of solving them
    again. The probe's row for I-cell ci draws from the stream (PROBE, ci)
    of seed, and every solve's fallback from its own stream (see
    _stream), so the result does not depend on the order in which cells
    are handled, nor on how the probe blocks its rows. The verdict
    requires every stage certificate, order convergence of the operator
    images to f, and a final sup gap below gamma/N. Band order-convergence
    certificates are recorded per jet variable but do not gate the
    verdict; their terminal gaps scale with the cell radii, not with
    gamma/N, so they are checked against the EQ3 width bound of the final
    stage (see `band_tolerance`).
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if N < 1:
        raise ValueError("N must be at least 1")
    if eps_max <= 0.0:
        raise ValueError("eps_max must be positive")
    tiling = scheme_tiling(domain)
    targets = _stage_targets(sys, tiling.anchors, gamma, 1)
    count = len(tiling.i_cells)
    failure = None
    try:
        jets = jet_solve(sys, tiling.anchors, targets,
                         stream=functools.partial(_stream, seed, ANCHOR, 1))
    except NoSolutionError as e:
        jets, count = e.jets, e.row
        failure = ConstructionError(
            f"stage-1 anchor jet unsolvable (interior assumption violated?): {e}",
            stage=1, cell=e.row)
    # the anchors before an unsolvable one are probed first
    # the half-diagonal of each cell: sqrt(w . w) one row at a time, as
    # np.linalg.norm(w) computes it, bit for bit (a norm along axis 1 rounds
    # differently on some rows)
    w = tiling.i_cells[:count, 1] - tiling.i_cells[:count, 0]
    probed = check_assumption_open(
        sys, tiling.anchors[:count], jets[:count],
        np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0]) / 2.0, eps_max,
        stream=functools.partial(_stream, seed, PROBE), target=targets[:count],
    )
    radii = np.zeros(len(tiling.i_cells))
    for ci, ev in enumerate(probed):
        if not ev.supported:
            raise ConstructionError(
                "openness assumption unsupported at anchor "
                f"{tuple(tiling.anchors[ci])} (margin {ev.margin_min:.3e})",
                stage=1, cell=ci,
            )
        radii[ci] = min(ev.witnessed_radius, eps_max)
    if failure is not None:
        raise failure
    tiling = tiling.with_radii(radii, jets)
    stages: list[RefinementStage] = []
    prev = None
    for n in range(1, N + 1):
        st = refine(sys, domain, tiling, prev, n, gamma, seed=seed)
        stages.append(st)
        prev = st
    conv = scheme_convergence(sys, [st.samples for st in stages], tiling.radii, gamma)
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
        **vars(conv), stages=stages, tiling=tiling, domain=stages[-1].domain,
        verdict=verdict, diagnostics=diagnostics,
    )
