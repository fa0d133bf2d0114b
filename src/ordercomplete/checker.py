"""The trusted checker: the tiling, the residual check of stored jets, the
bands and every certificate. `verify` runs no other code of the scheme;
`run` certifies what `solver` builds with the same functions. Nothing here
solves, subdivides or draws at random.

The certificates are pure functions of the candidates, their sampled jets,
bands and lattice: `apeq_certificate`, `eq1_certificate`, `eq2_certificate`,
`eq3_certificate` and `scheme_convergence`. They re-check every inequality
on the full lattice, off the skeleton each candidate's sampling marks
(jets.sample_jets), independently of the per-cell construction. Callers
pass the bare lattice. `solver.refine` and `cli.verify` build each stage
through `certified_stage`, which computes EQ1-EQ3 from one sampling of V_n
(`stage_certificates`) and groups its J-cells by I-cell;
`scheme_convergence` normalizes those samples onto the last stage's
skeleton, and `scheme_verdict` gives the verdict and its diagnostics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grids import (GridDomain, GridFunction, OrderConvergenceCertificate, complete,
                    order_convergence_check)
from .jets import (PiecewisePoly, TilingError, _centers, _interior_gather, _interior_ranges,
                   sample_jets)
from .pde import PdeSystem, apply_operator, eval_rows


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


def tile_domain(domain: GridDomain) -> Tiling:
    """The I-cells of the refinement scheme on a lattice: the box of domain
    cut into congruent dyadic cells of diameter at most a sixteenth of its
    diagonal, each holding at least one strictly interior lattice point.

    Axes are halved repeatedly (largest current width first, lowest axis on
    ties) until the common cell diameter fits. A diameter below one grid
    cell is rejected, so is a cell without an interior lattice point.
    """
    lo, hi = domain.lo, domain.hi
    delta = float(np.linalg.norm(hi - lo)) / 16.0
    if delta < float(np.max(domain.spacing)):
        raise TilingError(f"delta={delta} is below one grid cell "
                          f"(spacing {tuple(domain.spacing.tolist())})")
    n = lo.size
    counts = np.ones(n, dtype=int)
    while float(np.linalg.norm((hi - lo) / counts)) > delta:  # delta > 0: it ends
        counts[int(np.argmax((hi - lo) / counts))] *= 2
    edges = [np.linspace(lo[d], hi[d], counts[d] + 1) for d in range(n)]
    idx = np.indices(counts).reshape(n, -1)  # C order, the last axis fastest
    cells = np.stack([np.stack([edges[d][idx[d] + k] for d in range(n)], axis=1)
                      for k in (0, 1)], axis=1)
    empty = _empty_interiors(domain, cells)
    if empty.any():
        ci = int(np.argmax(empty))
        raise TilingError(f"I-cell {ci} at lo={tuple(cells[ci, 0].tolist())} "
                          "holds no interior lattice point")
    return Tiling(lo, hi, tuple(int(c) for c in counts), cells, _centers(cells))


def _empty_interiors(domain: GridDomain, cells: np.ndarray) -> np.ndarray:
    """Per cell of cells (C, 2, n), whether it holds no strictly interior
    lattice point."""
    start, stop, _ = _interior_ranges(cells, domain)
    return np.any(stop <= start, axis=1)


# ---------------------------------------------------------------------------
# anchor jets


# the max-norm residual that jet_solve reaches and check_jets accepts
_TOL_RESIDUAL = 1e-9


def _columns(a: np.ndarray) -> list[np.ndarray]:
    """The columns of a (rows, k) array, each contiguous."""
    return list(np.ascontiguousarray(a.T))


def _rhs_rows(sys: PdeSystem, points: np.ndarray) -> np.ndarray:
    """f at each point (rows, n), one row (K,) per point."""
    return np.stack(sys.rhs_on_arrays(_columns(points)), axis=1)


def _row_residuals(sys: PdeSystem, coords: list[np.ndarray], v: np.ndarray,
                   target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(x, v) - target per row (rows, K) and the rows on which F faults;
    coords holds one column per space axis. Each row's values depend on
    that row alone, so a row solved in any batch is solved alike."""
    images, faulted = eval_rows(sys, sys.F, coords, v)
    return images - target, faulted


def check_jets(sys: PdeSystem, points: np.ndarray, jets: np.ndarray, shift: float,
               boxes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per row, whether its jet solves F(x, xi) = f(x) + shift at its point
    below _TOL_RESIDUAL as jet_solve accepted it (shift -gamma/(2n) at stage
    n, -+eps/2 in the global pair), and whether it lies in its box (rows, M, 2)."""
    r, faulted = _row_residuals(sys, _columns(points), jets, _rhs_rows(sys, points) + shift)
    inside = np.ones(len(jets), dtype=bool) if boxes is None else np.all(
        (boxes[..., 0] <= jets) & (jets <= boxes[..., 1]), axis=1)
    return ~faulted & (np.max(np.abs(r), axis=1) < _TOL_RESIDUAL), inside


# ---------------------------------------------------------------------------
# certificates


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
    """ApEq margins of the pair (lower, upper) off their shared skeleton,
    from their jets sampled once on the lattice of domain, as one candidate
    carrying both coefficient sets (see jets.sample_jets). Raises
    ValueError when the two have different cells."""
    if not np.array_equal(lower.bounds, upper.bounds):
        raise ValueError("global pair: the lower and upper polynomials have different cells")
    jets = sample_jets(PiecewisePoly(lower.bounds, np.concatenate(
        [lower.coeffs, upper.coeffs], axis=1), lower.mis), domain)
    split = lower.components * lower.mis.count
    f = sys.rhs_on_lattice(domain)
    tu = [g.values for g in apply_operator(sys, jets[:split])]
    tv = [g.values for g in apply_operator(sys, jets[split:])]
    off = ~jets[0].domain.skeleton
    m1 = _min_slack([fj - eps for fj in f], tu, off)
    m2 = _min_slack(tu, f, off)
    m3 = _min_slack(f, tv, off)
    m4 = _min_slack(tv, [fj + eps for fj in f], off)
    return ApEqCertificate(
        eps=float(eps),
        passed=(m1 > 0.0 and m2 > 0.0 and m3 > 0.0 and m4 > 0.0),
        lower_gap=m1, lower_strict=m2, upper_strict=m3, upper_gap=m4,
    )


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


def jcell_boxes(band_lo: np.ndarray, band_hi: np.ndarray,
                prev_bands: tuple[np.ndarray, np.ndarray] | None, n: int) -> np.ndarray:
    """The boxes (num_i_cells, M, 2) of the J-cell solves of stage n: the
    inner boxes of its bands, after stage 1 inside those of prev_bands (see
    _inner_boxes). Raises ConstructionError at the first empty one."""
    j_boxes = _inner_boxes(band_lo, band_hi)
    if prev_bands is not None:
        i_boxes = _inner_boxes(*prev_bands)
        j_boxes[..., 0] = np.maximum(j_boxes[..., 0], i_boxes[..., 0])
        j_boxes[..., 1] = np.minimum(j_boxes[..., 1], i_boxes[..., 1])
        empty = np.any(j_boxes[..., 1] <= j_boxes[..., 0], axis=1)
        if empty.any():
            raise ConstructionError("J-cell constraint box is empty",
                                    stage=n, cell=int(np.argmax(empty)))
    return j_boxes


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


def certified_stage(
    sys: PdeSystem, domain: GridDomain, tiling: Tiling, v: PiecewisePoly,
    i_jets: np.ndarray, band_lo: np.ndarray, band_hi: np.ndarray,
    prev_bands: tuple[np.ndarray, np.ndarray] | None, n: int, gamma: float,
) -> RefinementStage:
    """Stage n from V_n, its cells listed I-cell by I-cell, its anchor jets
    and bands, on a tiling with radii: EQ1-EQ3 (stage_certificates) and the
    J-cells split where their I-cell changes. `refine` ends with it, and
    `cli.verify` rebuilds each stored stage with it."""
    (eq1, eq2, eq3), samples = stage_certificates(
        sys, v, domain, tiling.i_cells, tiling.radii, band_lo, band_hi, prev_bands, n, gamma)
    cuts = (np.flatnonzero(np.diff(tiling.index_of(_centers(v.bounds)))) + 1).tolist()
    return RefinementStage(
        n=n, v=v, domain=samples[0][0].domain, band_lo=band_lo, band_hi=band_hi,
        i_jets=i_jets, j_cells=[v.bounds[a:b] for a, b in zip([0, *cuts], [*cuts, None])],
        eq1=eq1, eq2=eq2, eq3=eq3, samples=samples,
    )


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


def scheme_verdict(
    stages: list[RefinementStage], conv: SchemeConvergence,
    global_pair: ApEqCertificate,
) -> tuple[bool, list[str]]:
    """The verdict of a run and its diagnostics. It passes when every
    stage's EQ1-EQ3, order convergence of the operator images to f, a
    final sup gap below gamma/N and the global pair certificate pass.
    There is one diagnostic for each failing part of the scheme; the global
    pair gates the verdict without one, its margins are in its own block.
    The band order-convergence certificates do not gate it: their terminal
    gaps scale with the radii, not gamma/N (see band_tolerance)."""
    diagnostics = [
        f"operator image of component {j + 1} fails order convergence "
        f"(first violation {cert.first_violation}, "
        f"gaps {cert.sup_gap:.3e}/{cert.inf_gap:.3e})"
        for j, cert in enumerate(conv.oc_operator) if not cert.passed
    ]
    diagnostics += [f"stage {st.n} certificates: eq1={st.eq1.passed} "
                    f"eq2={st.eq2.passed} eq3={st.eq3.passed}"
                    for st in stages if not all((st.eq1.passed, st.eq2.passed, st.eq3.passed))]
    if not conv.final_sup_gap < conv.gamma / conv.N:
        diagnostics.append(f"final sup gap {conv.final_sup_gap:.3e} not below "
                           f"gamma/N={conv.gamma / conv.N:.3e}")
    return bool(global_pair.passed) and not diagnostics, diagnostics
