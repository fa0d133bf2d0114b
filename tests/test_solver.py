"""Jet solving, local brackets, tiling, the global pair, and the staged
refinement scheme."""

import math
from collections import deque

import numpy as np
import pytest

from ordercomplete import expr as ex
from ordercomplete.grids import GridDomain
from ordercomplete.jets import (
    Cell,
    Jet,
    MultiIndexSet,
    TilingError,
    assemble,
    sample_jets,
    taylor_poly,
)
from ordercomplete.pde import PdeSystem, apply_operator
from ordercomplete.solver import (
    ConstructionError,
    NoSolutionError,
    RefinementStage,
    _band_functions,
    _empty_interiors,
    _generation_ok,
    _subdivide,
    global_pair,
    jet_solve,
    local_lower,
    local_upper,
    refine,
    run_scheme,
    scheme_convergence,
    stage_certificates,
    tile_domain,
)


def _affine():
    return PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])


def _cubic():
    return PdeSystem(
        1, 1, 1,
        ["u[1,(1)] + u[1,(0)]^3"],
        ["cos(x1) + sin(x1)^3"],
        [0.0], [3.0],
    )


# ---------------------------------------------------------------------------
# jet_solve


def test_jet_solve_affine_minimal_norm():
    jet = jet_solve(_affine(), [0.5], [3.0])
    assert jet[(1, (1,))] == pytest.approx(3.0, abs=1e-9)
    assert jet[(1, (0,))] == pytest.approx(0.0, abs=1e-9)


def test_jet_solve_cubic_respects_constraint_box():
    sys1 = _cubic()
    cbox = np.array([[0.0, 1.0], [-10.0, 10.0]])
    jet = jet_solve(sys1, [0.5], [2.0], constraint_box=cbox)
    xi0, xi1 = jet[(1, (0,))], jet[(1, (1,))]
    assert 0.0 <= xi0 <= 1.0 and -10.0 <= xi1 <= 10.0
    assert abs(xi1 + xi0**3 - 2.0) < 1e-9
    # brute-force oracle: solutions do exist inside the box
    grid0 = np.linspace(0.0, 1.0, 101)
    grid1 = 2.0 - grid0**3
    assert np.all((grid1 >= -10.0) & (grid1 <= 10.0))


def test_jet_solve_unreachable_target():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]^2"], ["0"], [0.0], [1.0])
    with pytest.raises(NoSolutionError) as exc:
        jet_solve(sys1, [0.5], [-1.0])
    assert exc.value.best_residual >= 1.0 - 1e-12
    assert isinstance(exc.value, ConstructionError)


def test_jet_solve_input_validation():
    sys1 = _affine()
    with pytest.raises(ValueError):
        jet_solve(sys1, [0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        jet_solve(sys1, [0.5], [np.inf])
    with pytest.raises(ValueError):
        jet_solve(sys1, [0.5], [1.0], constraint_box=np.array([[1.0, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# local one-sided brackets


def test_local_lower_affine_closed_form():
    dom = GridDomain([0.0], [1.0], (17,))
    jet, polys, radius = local_lower(_affine(), [0.5], 0.1, dom)
    assert jet[(1, (1,))] == pytest.approx(0.95)
    assert jet[(1, (0,))] == pytest.approx(0.0, abs=1e-9)
    assert radius == 1.0  # bracket holds across the whole box


def test_local_upper_affine_closed_form():
    dom = GridDomain([0.0], [1.0], (17,))
    jet, polys, radius = local_upper(_affine(), [0.5], 0.1, dom)
    assert jet[(1, (1,))] == pytest.approx(1.05)
    assert radius == 1.0


def test_local_lower_manufactured_bracket_holds_pointwise():
    sys1 = _cubic()
    dom = GridDomain([0.0], [3.0], (257,))
    jet, polys, radius = local_lower(sys1, [0.5], 0.1, dom)
    assert radius > 0.0
    # oracle: re-evaluate T P and f on the ball and check strictness directly
    x = dom.axis(0)
    mask = np.abs(x - 0.5) <= radius
    pts = x[mask].reshape(-1, 1)
    mis = MultiIndexSet(1, 1)
    jets = {(1, a): polys[0].deriv_many(a, pts) for a in mis.alphas}
    tp = jets[(1, (1,))] + jets[(1, (0,))] ** 3
    f = np.cos(x[mask]) + np.sin(x[mask]) ** 3
    assert np.all(tp > f - 0.1) and np.all(tp < f)


def test_local_bracket_rejects_nonpositive_eps():
    dom = GridDomain([0.0], [1.0], (17,))
    with pytest.raises(ValueError):
        local_lower(_affine(), [0.5], 0.0, dom)
    with pytest.raises(ValueError):
        local_upper(_affine(), [0.5], -0.1, dom)


# ---------------------------------------------------------------------------
# tiling


def test_tile_1d_dyadic():
    t = tile_domain([0.0], [1.0], 0.3)
    assert len(t.i_cells) == 4
    for c in t.i_cells:
        assert c.widths[0] == pytest.approx(0.25)
    assert np.allclose(t.anchors[:, 0], [0.125, 0.375, 0.625, 0.875])


def test_tile_2d_half_diameter():
    diam = math.sqrt(2.0)
    t = tile_domain([0.0, 0.0], [1.0, 1.0], diam / 2)
    assert len(t.i_cells) == 4
    for c in t.i_cells:
        assert np.allclose(c.widths, [0.5, 0.5])


def test_tile_partition_property_random_delta():
    rng = np.random.default_rng(17)
    for _ in range(20):
        # lower bound keeps the O(cells^2) disjointness oracle tractable
        delta = float(rng.uniform(0.35, 2.0))
        t = tile_domain([0.0, -1.0], [2.0, 1.0], delta, arity=int(rng.integers(2, 4)))
        total = sum(c.volume() for c in t.i_cells)
        assert total == pytest.approx(4.0, rel=1e-12)
        for c in t.i_cells:
            assert c.diameter() <= delta * (1 + 1e-12)
            assert np.all(c.center > np.asarray(c.lo)) and np.all(c.center < np.asarray(c.hi))
        # pairwise disjoint interiors
        for i in range(len(t.i_cells)):
            for j in range(i + 1, len(t.i_cells)):
                a, b = t.i_cells[i], t.i_cells[j]
                overlap = np.minimum(a.hi, b.hi) - np.maximum(a.lo, b.lo)
                assert np.min(overlap) <= 1e-12


def test_tile_rejects_sub_grid_delta():
    dom = GridDomain([0.0], [1.0], (9,))
    with pytest.raises(TilingError):
        tile_domain([0.0], [1.0], 0.01, domain=dom)
    with pytest.raises(ValueError):
        tile_domain([0.0], [1.0], -1.0)
    with pytest.raises(ValueError):
        tile_domain([0.0], [1.0], 0.5, arity=1)


def test_tiling_radii_guarded():
    t = tile_domain([0.0], [1.0], 0.3)
    with pytest.raises(ValueError):
        t.with_radii([1.0])
    with pytest.raises(ValueError):
        t.with_radii([1.0, 1.0, -1.0, 1.0])
    t2 = t.with_radii([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(t2.radii, [1.0, 2.0, 3.0, 4.0])


@pytest.mark.parametrize("lo,hi,delta,arity", [
    ([0.0], [3.0], 0.1, 2), ([-1.0], [2.5], 0.05, 3),
    ([0.0, -1.0], [2.0, 1.0], 0.2, 2), ([0.1, 0.0], [1.0, 7.0], 0.9, 3),
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.5, 2), ([-2.0, 0.0, 1.0], [1.0, 0.5, 4.0], 1.1, 3)])
def test_tiling_index_of_finds_parent_of_descendants(lo, hi, delta, arity):
    rng = np.random.default_rng(int(delta * 100) + arity)
    t = tile_domain(lo, hi, delta, arity=arity)
    assert int(np.prod(t.shape)) == len(t.i_cells) > 1
    assert np.array_equal(t.index_of(t.anchors), np.arange(len(t.i_cells)))
    centers, parents = [], []
    for ci, cell in enumerate(t.i_cells):
        for depth in range(7):  # one random dyadic descendant per depth
            c = cell
            for _ in range(depth):
                c = c.split()[int(rng.integers(2 ** c.ndim))]
            assert t.index_of(c.center) == ci
            centers.append(c.center)
            parents.append(ci)
    assert np.array_equal(t.index_of(np.array(centers)), parents)


# ---------------------------------------------------------------------------
# the generation check and the subdivision loop


def _reference_interior(domain, cell):
    """Index box and coordinates (npts, n), in C order, of the cell's strictly
    interior lattice points, found by elementwise comparison; None if none."""
    tol = 1e-9 * (domain.hi - domain.lo)
    keep = [np.nonzero((domain.axis(d) > cell.lo[d] + tol[d])
                       & (domain.axis(d) < cell.hi[d] - tol[d]))[0]
            for d in range(domain.ndim)]
    if any(k.size == 0 for k in keep):
        return None
    grids = np.meshgrid(*(domain.axis(d)[k] for d, k in enumerate(keep)), indexing="ij")
    return np.ix_(*keep), np.stack([g.reshape(-1) for g in grids], axis=1)


def _reference_cell_ok(sys, domain, cell, brackets, band=None):
    """The per-cell check the generation check replaced: at the cell's
    strictly interior lattice points, the Taylor polynomials of each jet,
    lower < F < upper as positive minimum slacks, and the jets inside the
    band; a fault of F fails the cell."""
    interior = _reference_interior(domain, cell)
    if interior is None:
        return True
    box, pts = interior
    coords = [pts[:, d] for d in range(domain.ndim)]
    for jet, lower, upper in brackets:
        polys = taylor_poly(jet)
        jets = {(i, a): polys[i - 1].deriv_many(a, pts) for i, a in sys.flat_vars()}
        for j, Fj in enumerate(sys.F):
            try:
                vals = ex.eval_on_arrays(Fj, coords, jets)
            except ex.EvalDomainError:
                return False
            if not (float((vals - lower[j][box].reshape(-1)).min()) > 0.0
                    and float((upper[j][box].reshape(-1) - vals).min()) > 0.0):
                return False
        if band is not None:
            flat = np.stack([jets[v] for v in sys.flat_vars()], axis=1)
            if (flat < band[0]).any() or (flat > band[1]).any():
                return False
    return True


def _transport(n, log=False):
    """sum_d u_{x_d} + u^3 (or + log u) = f on [0, 1]^n, u = sum_d sin x_d."""
    F = " + ".join(f"u[1,({','.join('1' if e == d else '0' for e in range(n))})]"
                   for d in range(n))
    u0 = f"u[1,({','.join('0' * n)})]"
    u = " + ".join(f"sin(x{d + 1})" for d in range(n))
    du = " + ".join(f"cos(x{d + 1})" for d in range(n))
    if log:
        return PdeSystem(n, 1, 1, [f"{F} + log({u0})"], ["1"], [0.0] * n, [1.0] * n)
    return PdeSystem(n, 1, 1, [f"{F} + {u0}^3"], [f"{du} + ({u})^3"],
                     [0.0] * n, [1.0] * n)


def _random_cells(rng, domain, count):
    """Dyadic cells of random level and position: the coarse ones hold many
    lattice points, the finest none."""
    n = domain.ndim
    finest = np.log2(np.array(domain.shape) - 1).astype(int) + 1
    cells = []
    for _ in range(count):
        level = rng.integers(0, finest + 1)
        pos = [int(rng.integers(0, 2 ** lv)) for lv in level]
        w = (domain.hi - domain.lo) / 2.0 ** level
        lo = domain.lo + np.array(pos) * w
        cells.append(Cell(lo, lo + w))
    return cells


def _random_jets(rng, sys, cells, shift, noise, value=None):
    """Per cell, the jet of u = sum sin x_d at the center, its derivatives
    shifted by `shift`, plus uniform noise; `value` replaces the value."""
    jets = []
    for c in cells:
        x0 = c.center
        vals = []
        for a in sys.mis.alphas:
            if sum(a) == 0:
                vals.append(np.sin(x0).sum() if value is None else value(rng))
            else:
                vals.append(np.cos(x0[a.index(1)]) + shift)
        vals = np.array(vals) + rng.uniform(-noise, noise, len(vals))
        jets.append(Jet(x0, vals[None, :], sys.mis))
    return jets


@pytest.mark.parametrize("n,size", [(1, 65), (2, 17), (3, 9)])
def test_generation_check_matches_per_cell_reference(n, size):
    rng = np.random.default_rng(40 + n)
    sys = _transport(n)
    dom = GridDomain([0.0] * n, [1.0] * n, (size,) * n)
    f = sys.rhs_on_lattice(dom)
    seen = set()
    for _ in range(12):
        cells = _random_cells(rng, dom, int(rng.integers(1, 40)))
        eps = float(rng.uniform(0.05, 1.0))
        noise = float(rng.uniform(0.0, eps))
        # refine's form: EQ1 bracket (f - eps, f) and band containment
        jets = _random_jets(rng, sys, cells, -eps / (2 * n), noise)
        centre = np.array([np.sin(0.5) * n] + [np.cos(0.5) - eps / (2 * n)] * n)
        half = float(rng.uniform(0.2, 2.0))
        band = (centre - half, centre + half)
        below = [fj - eps for fj in f]
        rows = tuple(np.tile(b, (len(cells), 1)) for b in band)
        got = _generation_ok(sys, dom, cells, [(jets, below, f)], band=rows)
        want = [_reference_cell_ok(sys, dom, c, [(j, below, f)], band)
                for c, j in zip(cells, jets)]
        assert got.tolist() == want
        eq1 = [_reference_cell_ok(sys, dom, c, [(j, below, f)]) for c, j in zip(cells, jets)]
        seen.update("eq1 split" if not e else "band exit" if not w else "accept"
                    for e, w in zip(eq1, want))
        seen.update("empty" for e in _empty_interiors(dom, cells) if e)
        # global_pair's form: both brackets
        lo_jets = _random_jets(rng, sys, cells, -eps / (2 * n), noise)
        hi_jets = _random_jets(rng, sys, cells, eps / (2 * n), noise)
        above = [fj + eps for fj in f]
        got = _generation_ok(sys, dom, cells, [(lo_jets, below, f), (hi_jets, f, above)])
        want = [_reference_cell_ok(sys, dom, c, [(lo, below, f), (hi, f, above)])
                for c, lo, hi in zip(cells, lo_jets, hi_jets)]
        assert got.tolist() == want
        seen.update("pair " + ("accept" if w else "split") for w in want)
    assert seen >= {"accept", "eq1 split", "band exit", "empty",
                    "pair accept", "pair split"}


@pytest.mark.parametrize("n,size", [(1, 65), (2, 17), (3, 9)])
def test_generation_check_fails_cells_where_log_faults(n, size):
    # u crosses zero inside some cells: log(u) faults on part of them only
    rng = np.random.default_rng(70 + n)
    sys = _transport(n, log=True)
    dom = GridDomain([0.0] * n, [1.0] * n, (size,) * n)
    f = sys.rhs_on_lattice(dom)
    wide = ([fj - 1e6 for fj in f], [fj + 1e6 for fj in f])
    partial = accepted = 0
    for _ in range(12):
        cells = _random_cells(rng, dom, 30)
        jets = _random_jets(rng, sys, cells, 0.0, 3.0,
                            value=lambda r: r.uniform(-0.5, 1.0))
        got = _generation_ok(sys, dom, cells, [(jets, *wide)])
        want = [_reference_cell_ok(sys, dom, c, [(j, *wide)]) for c, j in zip(cells, jets)]
        assert got.tolist() == want
        for c, j, ok in zip(cells, jets, want):
            interior = _reference_interior(dom, c)
            if interior is not None:
                u = taylor_poly(j)[0].deriv_many((0,) * n, interior[1])
                partial += bool((u > 0).any() and (u <= 0).any())
                accepted += ok
    assert partial and accepted


def _subdivide_outcome(loop, work, solve, check, domain, max_cells, **kw):
    """Accepted pairs, or (class, message, stage, cell) of the error raised."""
    try:
        return loop(work, solve, check, domain, max_cells, **kw)
    except ConstructionError as e:
        return type(e), str(e), e.stage, e.cell


def _reference_subdivide(work, solve, check, domain, max_cells, *, stage=None):
    """The first-in, first-out loop that solves, checks and splits one cell
    at a time, which the generation loop replaced."""
    work = deque(work)
    done = []
    while work:
        c = work.popleft()
        if len(done) + len(work) > max_cells:
            raise ConstructionError("cell budget exhausted while subdividing",
                                    stage=stage)
        payload = solve(c)
        if check([c], [payload])[0]:
            done.append((c, payload))
            continue
        children = c.split()
        if _empty_interiors(domain, children).any():
            raise ConstructionError("bracket unattainable at grid resolution",
                                    stage=stage, cell=c.lo)
        work.extend(children)
    return done


def _synthetic(accept_width, fail_at=()):
    """A solve that logs each cell and raises at the cells whose lower
    corners are in fail_at, and a check accepting a cell when it is no
    wider than accept_width(center)."""
    log = []

    def solve(c):
        log.append(c)
        if c.lo in fail_at:
            raise ConstructionError("constrained jet unsolvable", stage=4, cell=c.lo)
        return len(log)

    def check(cells, payloads):
        assert len(cells) == len(payloads)
        return np.array([max(c.widths) <= accept_width(c.center) for c in cells],
                        dtype=bool)

    return log, solve, check


@pytest.mark.parametrize("n", [1, 2])
def test_subdivide_accepts_like_reference_loop(n):
    dom = GridDomain([0.0] * n, [1.0] * n, (65,) * n)
    width = lambda x: 1 / 8 if x[0] < 0.5 else 1 / 32  # noqa: E731
    runs = []
    for loop in (_reference_subdivide, _subdivide):
        log, solve, check = _synthetic(width)
        runs.append((_subdivide_outcome(loop, [Cell(dom.lo, dom.hi)], solve, check,
                                        dom, 10_000), log))
    (want, want_log), (got, got_log) = runs
    assert isinstance(want, list) and len(want) > 10
    assert got == want  # same cells, same payloads, same order
    assert got_log == want_log  # the same solves in the same order


def test_subdivide_budget_errors_like_reference_loop():
    # 65 points: every split succeeds, or the solve at [3/4, 1] fails after
    # three splits in its generation; 9 points: [0, 1/4] is stranded in the
    # third generation. A budget met first, even in the middle of a
    # generation, must win over a later stranded cell or solve failure.
    width = lambda x: 1 / 8 if x[0] < 0.5 else 1 / 32  # noqa: E731
    setups = [(65, width, ()), (65, width, ((0.75,),)),
              (9, lambda x: 0.0, ((0.75,),))]
    kinds = set()
    for size, width, fail_at in setups:
        dom = GridDomain([0.0], [1.0], (size,))
        for max_cells in range(0, 24):
            for kw in ({}, {"stage": 2}):
                outs = [_subdivide_outcome(loop, [Cell([0.0], [1.0])],
                                           *_synthetic(width, fail_at)[1:],
                                           dom, max_cells, **kw)
                        for loop in (_reference_subdivide, _subdivide)]
                assert outs[0] == outs[1]
                kinds.add("ok" if isinstance(outs[0], list) else outs[0][1].split(";")[0])
    assert kinds == {"ok", "cell budget exhausted while subdividing",
                     "bracket unattainable at grid resolution",
                     "constrained jet unsolvable"}


def test_subdivide_stranded_child_like_reference_loop():
    # 9 points on [0, 1]: a cell of width 1/8 holds no interior point
    dom = GridDomain([0.0], [1.0], (9,))
    width = lambda x: 1 / 2 if x[0] > 0.25 else 0.0  # noqa: E731
    for kw in ({}, {"stage": 3}):
        outs = [_subdivide_outcome(loop, [Cell([0.0], [1.0])], *_synthetic(width)[1:],
                                   dom, 100, **kw)
                for loop in (_reference_subdivide, _subdivide)]
        assert outs[0] == outs[1]
        assert "bracket unattainable" in outs[0][1]
    assert outs[0][2:] == (3, (0.0,))  # the stage and the split cell's corner


def test_subdivide_solve_failure_after_stranded_cell_like_reference_loop():
    # third generation: [0, 1/4] is stranded before [3/4, 1] fails to solve
    dom = GridDomain([0.0], [1.0], (9,))
    width = lambda x: 0.0  # noqa: E731
    for fail_at, expect in ((((0.75,),), "bracket unattainable"),
                            (((0.5,),), "constrained jet unsolvable")):
        outs = [_subdivide_outcome(loop, [Cell([0.0], [1.0])],
                                   *_synthetic(width, fail_at)[1:], dom, 100)
                for loop in (_reference_subdivide, _subdivide)]
        assert outs[0] == outs[1]
        assert outs[0][0] is ConstructionError and expect in outs[0][1]


# ---------------------------------------------------------------------------
# global approximate pair


def test_global_pair_affine_single_cell():
    dom = GridDomain([0.0], [1.0], (17,))
    sys1 = _affine()
    gp = global_pair(sys1, dom, 0.5)
    assert len(gp.cells) == 1
    (tu,) = apply_operator(sys1, sample_jets(gp.lower, gp.domain))
    (tv,) = apply_operator(sys1, sample_jets(gp.upper, gp.domain))
    assert np.all(tu.values == 0.75)  # 1 - eps/2
    assert np.all(tv.values == 1.25)  # 1 + eps/2
    c = gp.certificate
    assert c.passed
    for m in (c.lower_gap, c.lower_strict, c.upper_strict, c.upper_gap):
        assert m == pytest.approx(0.25)


def test_global_pair_manufactured_certificate():
    sys1 = _cubic()
    dom = GridDomain([0.0], [3.0], (257,))
    gp = global_pair(sys1, dom, 0.1)
    assert gp.certificate.passed
    # oracle: the four strict inequalities re-checked from scratch
    (tu,) = apply_operator(sys1, sample_jets(gp.lower, gp.domain))
    (tv,) = apply_operator(sys1, sample_jets(gp.upper, gp.domain))
    x = gp.domain.axis(0)
    f = np.cos(x) + np.sin(x) ** 3
    off = ~gp.domain.skeleton
    assert np.all(f[off] - 0.1 < tu.values[off])
    assert np.all(tu.values[off] < f[off])
    assert np.all(f[off] < tv.values[off])
    assert np.all(tv.values[off] < f[off] + 0.1)


def test_global_pair_cell_budget():
    # the cubic pair needs about 30 cells on this lattice
    dom = GridDomain([0.0], [3.0], (257,))
    with pytest.raises(ConstructionError, match="cell budget"):
        global_pair(_cubic(), dom, 0.1, max_cells=1)


def test_global_pair_eps_below_float_scale():
    sys1 = _cubic()
    dom = GridDomain([0.0], [3.0], (65,))
    with pytest.raises((ConstructionError, ValueError)):
        global_pair(sys1, dom, 1e-18)
    with pytest.raises(ValueError):
        global_pair(sys1, dom, 0.0)


# ---------------------------------------------------------------------------
# refinement scheme


def test_refine_requires_prev_exactly_when_late():
    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (65,))
    tiling = tile_domain([0.0], [1.0], 0.5, domain=dom).with_radii([1.0, 1.0])
    with pytest.raises(ValueError):
        refine(sys1, dom, tiling, None, 2, 0.4)
    with pytest.raises(ValueError):
        refine(sys1, dom, tiling, None, 0, 0.4)


def test_refine_needs_radii():
    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (65,))
    tiling = tile_domain([0.0], [1.0], 0.5, domain=dom)
    with pytest.raises(ValueError):
        refine(sys1, dom, tiling, None, 1, 0.4)


def test_refine_cell_budget():
    # one I-cell over the whole box: the EQ1 bracket needs about 9 J-cells
    sys1 = _cubic()
    dom = GridDomain([0.0], [3.0], (129,))
    tiling = tile_domain([0.0], [3.0], 3.0, domain=dom).with_radii([1.0])
    with pytest.raises(ConstructionError, match="cell budget"):
        refine(sys1, dom, tiling, None, 1, 0.4, max_cells=1)


def _reference_refine(sys, domain, tiling, prev, n, gamma, *, rng, max_cells=100_000):
    """The per-I-cell loop that refine replaced: each I-cell solves its
    anchor, builds its bands and subdivides its own J-cells in turn."""
    m_flat = sys.unknown_count
    num_i = len(tiling.i_cells)
    f = sys.rhs_on_lattice(domain)
    below = [fj - gamma / n for fj in f]
    band_lo = np.zeros((num_i, m_flat))
    band_hi = np.zeros((num_i, m_flat))
    i_jets = np.zeros((num_i, m_flat))
    accepted = []
    for ci, icell in enumerate(tiling.i_cells):
        eps_c = float(tiling.radii[ci])
        a = tiling.anchors[ci]
        target = sys.rhs_at(a) - gamma / (2.0 * n)
        if prev is not None:
            margin = (prev.band_hi[ci] - prev.band_lo[ci]) / 8.0
            i_box = np.stack([prev.band_lo[ci] + margin, prev.band_hi[ci] - margin], axis=1)
            seed = prev.i_jets[ci]
        else:
            i_box = None
            seed = np.zeros(m_flat)
        center = jet_solve(sys, a, target, seed=seed, constraint_box=i_box, rng=rng).flat()
        hw = (2.0 * eps_c / n) * (15.0 / 16.0)
        lo_b = center - hw
        hi_b = center + hw
        if prev is not None:
            lo_b = np.maximum(lo_b, prev.band_lo[ci] + 0.5 * margin)
            hi_b = np.minimum(hi_b, prev.band_hi[ci] - 0.5 * margin)
        assert np.all(lo_b < hi_b)
        band_lo[ci] = lo_b
        band_hi[ci] = hi_b
        i_jets[ci] = center
        inner = (hi_b - lo_b) / 8.0
        j_box = np.stack([lo_b + inner, hi_b - inner], axis=1)
        if prev is not None:
            j_box[:, 0] = np.maximum(j_box[:, 0], prev.band_lo[ci] + margin)
            j_box[:, 1] = np.minimum(j_box[:, 1], prev.band_hi[ci] - margin)

        def solve(jcell):
            aj = jcell.center
            tj = sys.rhs_at(aj) - gamma / (2.0 * n)
            return jet_solve(sys, aj, tj, seed=center, constraint_box=j_box, rng=rng)

        def check(jcells, jets):
            rows = tuple(np.tile(b, (len(jcells), 1)) for b in (lo_b, hi_b))
            return _generation_ok(sys, domain, jcells, [(jets, below, f)], band=rows)

        work = prev.j_cells[ci] if prev is not None else [icell]
        accepted.append(_subdivide(work, solve, check, domain, max_cells, stage=n))
    flat_cells = [c for done in accepted for c, _ in done]
    flat_polys = [taylor_poly(jj) for done in accepted for _, jj in done]
    v_poly, marked = assemble(flat_cells, flat_polys, domain)
    (eq1, eq2, eq3), samples = stage_certificates(
        sys, v_poly, marked, tiling.i_cells, tiling.radii, band_lo, band_hi,
        None if prev is None else (prev.band_lo, prev.band_hi), n, gamma)
    return RefinementStage(
        n=n, gamma=float(gamma), v=v_poly, domain=marked,
        band_lo=band_lo, band_hi=band_hi, i_jets=i_jets,
        j_cells=[[c for c, _ in done] for done in accepted],
        eq1=eq1, eq2=eq2, eq3=eq3, samples=samples,
    )


@pytest.mark.parametrize("n,size,per_axis,radius,gamma", [
    (1, 129, 4, 0.2, 0.05), (2, 33, 4, 1.0, 0.4), (3, 9, 2, 4.0, 0.4)])
def test_refine_matches_per_i_cell_reference(n, size, per_axis, radius, gamma):
    sys = _transport(n)
    dom = GridDomain([0.0] * n, [1.0] * n, (size,) * n)
    tiling = tile_domain(dom.lo, dom.hi, math.sqrt(n) / per_axis, domain=dom)
    tiling = tiling.with_radii(np.full(len(tiling.i_cells), radius))
    got = want = None
    rng_got, rng_want = np.random.default_rng(5), np.random.default_rng(5)
    for stage in (1, 2, 3):
        got = refine(sys, dom, tiling, got, stage, gamma, rng=rng_got)
        want = _reference_refine(sys, dom, tiling, want, stage, gamma, rng=rng_want)
        assert got.j_cells == want.j_cells
        for key in ("i_jets", "band_lo", "band_hi"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
        assert [c.lo + c.hi for c in got.v.cells] == [c.lo + c.hi for c in want.v.cells]
        for pg, pw in zip(got.v.polys, want.v.polys):
            for tg, tw in zip(pg, pw):
                assert np.array_equal(tg.anchor, tw.anchor)
                assert np.array_equal(tg.coeffs, tw.coeffs)
        assert (got.eq1, got.eq2, got.eq3) == (want.eq1, want.eq2, want.eq3)
    assert sum(map(len, got.j_cells)) > len(tiling.i_cells)  # the stages split


def test_refine_cell_budget_bounds_whole_stage():
    sys = _transport(1)
    dom = GridDomain([0.0], [1.0], (129,))
    tiling = tile_domain(dom.lo, dom.hi, 0.25, domain=dom).with_radii(np.full(4, 0.2))
    st = refine(sys, dom, tiling, None, 1, 0.05)
    total = sum(map(len, st.j_cells))
    assert max(map(len, st.j_cells)) <= total - 2  # each I-cell fits the budget
    assert sum(map(len, refine(sys, dom, tiling, None, 1, 0.05,
                               max_cells=total).j_cells)) == total
    with pytest.raises(ConstructionError, match="cell budget") as exc:
        refine(sys, dom, tiling, None, 1, 0.05, max_cells=total - 2)
    assert (exc.value.stage, exc.value.cell) == (1, None)


def test_each_candidate_classified_once_per_lattice(monkeypatch, tmp_path):
    # the certificates act on the samples of one sample_jets call per
    # polynomial and lattice: global_pair classifies its cells once in
    # assemble and once per polynomial, refine its J-cells twice and the
    # I-cells once and applies the operator once, and scheme_convergence
    # moves the stage samples without sampling, classifying or applying T
    from ordercomplete import cli, jets, pde, solver

    counts = dict.fromkeys(("_classify_grid", "sample_jets", "apply_operator"), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name, home in (("_classify_grid", jets), ("sample_jets", jets),
                       ("apply_operator", pde)):
        wrapped = counted(name, getattr(home, name))
        for module in (jets, pde, solver, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)

    def calls():
        got = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        return got

    sys = _transport(1)
    dom = GridDomain([0.0], [1.0], (129,))
    assert global_pair(sys, dom, 0.4).certificate.passed
    assert calls()["_classify_grid"] <= 3
    tiling = tile_domain(dom.lo, dom.hi, 0.25, domain=dom).with_radii(np.full(4, 0.2))
    stages = []
    for n in (1, 2, 3):
        stages.append(refine(sys, dom, tiling, stages[-1] if stages else None, n, 0.05))
        assert stages[-1].certificates_pass()
        got = calls()
        assert got["_classify_grid"] <= 3 and got["apply_operator"] == 1
    conv = scheme_convergence(sys, [s.samples for s in stages], tiling.radii,
                              stages[-1].domain, 0.05)
    assert conv.passed
    assert calls() == dict.fromkeys(counts, 0)
    # verify: the global pair as in run, then per stage one assemble, one
    # sample_jets and one band rendering, and no sampling after the stages
    spec = tmp_path / "transport.spec"
    spec.write_text("n = 1\nK = 1\nm = 1\nbox.lo = 0\nbox.hi = 1\ngrid = 129\n"
                    "F1 = u[1,(1)] + u[1,(0)]^3\nf1 = cos(x1) + sin(x1)^3\n")
    N = 3
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--gamma", "0.4", "--stages", str(N),
                     "--out", str(out), "--no-samples"]) == 0
    calls()
    assert cli.verify(out) == 0
    got = calls()
    assert got["_classify_grid"] <= 3 + 3 * N and got["apply_operator"] == 2 + N


@pytest.fixture(scope="module")
def res_cubic2():
    return run_scheme(_cubic(), GridDomain([0.0], [3.0], (129,)), 0.4, 2)


def test_scheme_affine_closed_forms():
    sys1 = _affine()
    res = run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 4)
    assert res.verdict
    assert abs(res.final_sup_gap - 0.05) <= 8 * math.ulp(0.05)  # gamma/(2N)
    for s in res.stages:
        assert s.certificates_pass()
        # stage operator image is the constant 1 - gamma/(2n) off skeleton
        (tv,) = apply_operator(sys1, sample_jets(s.v, s.domain))
        want = 1.0 - 0.4 / (2 * s.n)
        off = ~s.domain.skeleton
        assert np.max(np.abs(tv.values[off] - want)) <= 4 * math.ulp(1.0)
        # band width ratio sits at the strict-inequality backoff below 1
        assert s.eq3.max_ratio == pytest.approx(0.9375, rel=1e-12)


def test_scheme_manufactured_small(res_cubic2):
    res = res_cubic2
    assert res.verdict
    assert res.final_sup_gap < 0.4 / 2
    assert len(res.stages) == 2
    for s in res.stages:
        assert s.eq1.passed and s.eq1.lower_slack > 0 and s.eq1.upper_slack > 0
        assert s.eq2.passed and s.eq3.passed
    assert res.stages[0].eq2.vacuous and not res.stages[1].eq2.vacuous


def _oracle_band_margins(stage, i_cells):
    """min of D^alpha V_n - lambda and mu - D^alpha V_n over the strictly
    interior lattice points of every J-cell, each derivative from the
    J-cell's own TaylorPoly.deriv_many and each band row from the I-cell
    holding the J-cell's center; no certificate code involved."""
    dom = stage.domain
    axes = [dom.axis(d) for d in range(dom.ndim)]
    inner_lo = inner_hi = np.inf
    points = 0
    for cell, polys in zip(stage.v.cells, stage.v.polys):
        ranges = [np.arange(np.searchsorted(a, lo, "right"), np.searchsorted(a, hi, "left"))
                  for a, lo, hi in zip(axes, cell.lo, cell.hi)]
        grids = np.meshgrid(*(a[r] for a, r in zip(axes, ranges)), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        (ci,) = [k for k, ic in enumerate(i_cells)
                 if all(lo < x < hi for lo, x, hi in zip(ic.lo, cell.center, ic.hi))]
        k = 0
        for p in polys:
            for alpha in p.mis.alphas:
                vals = p.deriv_many(alpha, pts)
                inner_lo = min(inner_lo, np.min(vals - stage.band_lo[ci, k], initial=np.inf))
                inner_hi = min(inner_hi, np.min(stage.band_hi[ci, k] - vals, initial=np.inf))
                k += 1
        points += len(pts)
    assert points > 0
    return float(inner_lo), float(inner_hi)


def test_scheme_band_containment_oracle(res_cubic2):
    # lambda <= D^alpha V_n <= mu at every strictly interior J-cell point,
    # re-derived from the polynomials rather than trusting the certificates
    res = res_cubic2
    for s in res.stages:
        inner_lo, inner_hi = _oracle_band_margins(s, res.tiling.i_cells)
        assert inner_lo >= 0.0 and inner_hi >= 0.0
        assert (s.eq2.inner_lower, s.eq2.inner_upper) == (inner_lo, inner_hi)


def test_eq2_rejects_skeleton_missing_i_cell_face():
    # v is one cell, so its skeleton is the box boundary alone and misses
    # the face x = 0.5 between the two I-cells
    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (9,))
    v, marked = assemble([Cell([0.0], [1.0])],
                         [taylor_poly(Jet([0.5], [[0.0, 1.0]], sys1.mis))], dom)
    i_cells = [Cell([0.0], [0.5]), Cell([0.5], [1.0])]
    band_lo, band_hi = np.full((2, 2), -5.0), np.full((2, 2), 5.0)
    radii = np.ones(2)
    with pytest.raises(ValueError, match="I-cell boundaries"):
        stage_certificates(sys1, v, marked, i_cells, radii, band_lo, band_hi, None, 1, 0.4)
    full = marked.with_skeleton(marked.skeleton | (marked.axis(0) == 0.5))
    (_, eq2, _), _ = stage_certificates(sys1, v, full, i_cells, radii, band_lo, band_hi,
                                        None, 1, 0.4)
    assert eq2.passed
    sys2 = PdeSystem(1, 2, 1, ["u[1,(1)]", "u[2,(1)]"], ["1", "1"], [0.0], [1.0])
    with pytest.raises(ValueError, match="signature"):
        stage_certificates(sys2, v, full, i_cells, radii, band_lo, band_hi, None, 1, 0.4)


@pytest.mark.parametrize("sys, size, gamma, N", [
    (_cubic(), 129, 0.4, 2),
    (PdeSystem(1, 1, 1, ["u[1,(1)] + sin(u[1,(0)])"], ["cos(x1) + sin(sin(x1))"],
               [0.0], [3.0]), 129, 0.4, 3),
    (PdeSystem(2, 1, 1, ["u[1,(1,0)] + u[1,(0,1)] + exp(u[1,(0,0)])"],
               ["cos(x1) + cos(x2) + exp(sin(x1) + sin(x2))"], [0.0, 0.0], [1.0, 1.0]),
     65, 0.2, 2),
], ids=["cubic_1d", "sin_1d", "exp_2d"])
def test_scheme_moved_samples_match_final_lattice_resampling(sys, size, gamma, N):
    # reference: V_n sampled on the final lattice, T applied there and the
    # bands rendered there; the samples each stage took on its own lattice,
    # moved there, equal them bit for bit, sign bits included
    res = run_scheme(sys, GridDomain(sys.box_lo, sys.box_hi, (size,) * sys.n), gamma, N)
    final = res.domain
    assert any((s.domain.skeleton != final.skeleton).any() for s in res.stages)
    for s, jets, tv, bands in zip(res.stages, res.samples_by_stage, res.tv_by_stage,
                                  res.bands_by_stage, strict=True):
        want_jets = sample_jets(s.v, final)
        want_bands = _band_functions(s.band_lo, s.band_hi, final, res.tiling.i_cells)
        got = jets + tv + [g for pair in bands for g in pair]
        want = (want_jets + apply_operator(sys, want_jets)
                + [g for pair in want_bands for g in pair])
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.domain == final and g.normalized
            assert np.array_equal(g.values.view(np.int64), w.values.view(np.int64))


def test_scheme_convergence_rejects_stage_skeleton_outside_final(res_cubic2):
    # a moved sample keeps its own values off the final skeleton, which are
    # V_n's only where no cell boundary of V_n is left unmarked there
    res = res_cubic2
    first, last = res.stages[0], res.stages[-1]
    assert (last.domain.skeleton & ~first.domain.skeleton).any()
    bare = GridDomain(first.domain.lo, first.domain.hi, first.domain.shape)
    for samples, final in (([first.samples], bare),
                           ([s.samples for s in res.stages], first.domain)):
        with pytest.raises(ValueError, match="does not contain every stage skeleton"):
            scheme_convergence(_cubic(), samples, res.tiling.radii, final, 0.4)


def test_scheme_band_nesting_strict(res_cubic2):
    res = res_cubic2
    for prev, cur in zip(res.stages, res.stages[1:]):
        assert np.all(cur.band_lo > prev.band_lo)
        assert np.all(cur.band_hi < prev.band_hi)
        assert cur.eq2.outer_lower > 0 and cur.eq2.outer_upper > 0


def test_scheme_assumption_violation_fails_fast():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]^2"], ["-1"], [0.0], [1.0])
    with pytest.raises(ConstructionError):
        run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 1)


def test_scheme_rejects_bad_parameters():
    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (65,))
    with pytest.raises(ValueError):
        run_scheme(sys1, dom, 0.0, 2)
    with pytest.raises(ValueError):
        run_scheme(sys1, dom, 0.4, 0)
