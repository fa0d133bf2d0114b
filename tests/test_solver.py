"""Jet solving, tiling, the global pair, and the staged refinement scheme."""

import functools
import itertools
import math
from collections import deque

import numpy as np
import pytest

from ordercomplete import expr as ex
from ordercomplete.grids import GridDomain, complete
from ordercomplete.jets import (
    TaylorPoly,
    TilingError,
    _centers,
    assemble,
    sample_jets,
)
from ordercomplete.checker import (
    _TOL_RESIDUAL,
    ApEqCertificate,
    ConstructionError,
    RefinementStage,
    Tiling,
    _band_functions,
    _empty_interiors,
    apeq_certificate,
    scheme_convergence,
    scheme_verdict,
    stage_certificates,
    tile_domain,
)
from ordercomplete.pde import PdeSystem, apply_operator, check_assumption_open
from ordercomplete.solver import (
    ANCHOR,
    JCELL,
    PROBE,
    NoSolutionError,
    _cell_key,
    _cell_polys,
    _children,
    _generation_ok,
    _stream,
    _subdivide,
    global_pair,
    jet_solve,
    refine,
    run_scheme,
)
from test_jets import completed


# a passing global pair certificate, for verdicts of schemes run without one
_PASSING_PAIR = ApEqCertificate(eps=0.4, passed=True, lower_gap=1.0, lower_strict=1.0,
                                upper_strict=1.0, upper_gap=1.0)


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


def _rng0(_row):
    """A multistart stream for any row: a generator seeded with 0."""
    return np.random.default_rng(0)


def _solve_one(sys, x0, target, seed=None, box=None):
    """jet_solve on one row: the flat jet solving F(x0, xi) = target."""
    return jet_solve(sys, np.atleast_2d(x0), np.atleast_2d(target),
                     None if seed is None else np.atleast_2d(seed),
                     None if box is None else np.asarray(box, dtype=float)[None],
                     stream=_rng0)[0]


def test_jet_solve_affine_minimal_norm():
    xi = _solve_one(_affine(), [0.5], [3.0])
    assert xi[1] == pytest.approx(3.0, abs=1e-9)  # u[1,(1)]
    assert xi[0] == pytest.approx(0.0, abs=1e-9)  # u[1,(0)]


def test_jet_solve_cubic_respects_constraint_box():
    sys1 = _cubic()
    cbox = np.array([[0.0, 1.0], [-10.0, 10.0]])
    xi0, xi1 = _solve_one(sys1, [0.5], [2.0], box=cbox)
    assert 0.0 <= xi0 <= 1.0 and -10.0 <= xi1 <= 10.0
    assert abs(xi1 + xi0**3 - 2.0) < 1e-9
    # brute-force oracle: solutions do exist inside the box
    grid0 = np.linspace(0.0, 1.0, 101)
    grid1 = 2.0 - grid0**3
    assert np.all((grid1 >= -10.0) & (grid1 <= 10.0))


def test_jet_solve_unreachable_target():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]^2"], ["0"], [0.0], [1.0])
    with pytest.raises(NoSolutionError) as exc:
        _solve_one(sys1, [0.5], [-1.0])
    assert exc.value.best_residual >= 1.0 - 1e-12
    assert isinstance(exc.value, ConstructionError)


@pytest.mark.parametrize("body, target, box", [
    # u' is boxed, so the root needs |u| >= 1.5: the zero seed stalls where
    # sign(u) = 0, and the multistart in the box finds a root
    ("u[1,(1)] + abs(u[1,(0)])", 2.0, [[-10.0, 10.0], [-0.5, 0.5]]),
    # every root has |u| = 2; the Jacobian vanishes at the zero seed
    ("abs(u[1,(0)])^3", 8.0, None),
])
def test_jet_solve_abs_operators(body, target, box):
    # abs has the generalized derivative sign(g) g', so Gauss-Newton is
    # semismooth Newton on these operators
    sys1 = PdeSystem(1, 1, 1, [body], ["0"], [0.0], [1.0])
    xi = _solve_one(sys1, [0.5], [target], seed=np.zeros(2), box=box)
    values = dict(zip(sys1.flat_vars(), xi))
    assert abs(values[(1, (0,))]) > 1.0
    assert abs(ex.eval_point(sys1.F[0], [0.5], values) - target) < _TOL_RESIDUAL


def test_jet_solve_input_validation():
    sys1 = _affine()
    with pytest.raises(ValueError):
        _solve_one(sys1, [0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        _solve_one(sys1, [0.5], [np.inf])
    with pytest.raises(ValueError):
        _solve_one(sys1, [0.5], [1.0], box=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        jet_solve(sys1, [0.5], [[1.0]], stream=_rng0)  # x0 is one row per solve
    with pytest.raises(ValueError):
        jet_solve(sys1, [[0.5]], [[1.0]], seed=np.zeros(2), stream=_rng0)


def _coupled():
    """u1 + u2 = t1 and u1 u2 + log(u1 + x1) = t2: the start faults where
    u1 + x1 <= 0, and the Jacobian [[1, 1], [u2 + 1/(u1 + x1), u1]] is
    singular where u2 + 1/(u1 + x1) = u1."""
    return PdeSystem(1, 2, 0, ["u[1,(0)] + u[2,(0)]",
                               "u[1,(0)] * u[2,(0)] + log(u[1,(0)] + x1)"],
                     ["0", "0"], [-1.0], [2.0])


def test_jet_solve_rows_are_independent(monkeypatch):
    # each row of one batch equals that row solved alone, bit for bit; the
    # rows cover a clamp at the box, a faulting start, a rank-deficient
    # Jacobian at the start and a NaN start, the last two on the multistart
    sys2 = _coupled()
    x1 = np.array([1.0, 0.0, 1.0, 0.5, 1.0, 0.25])
    roots = np.array([[1.5, 0.5], [0.7, 1.1], [1.2, 0.8], [0.9, -0.3], [2.0, 0.0],
                      [1.0, 1.0]])
    target = np.stack([roots.sum(axis=1),
                       roots.prod(axis=1) + np.log(roots[:, 0] + x1)], axis=1)
    wide = np.array([[-5.0, 5.0], [-5.0, 5.0]])
    box = np.array([wide, wide, [[1.2, 1.22], [-5.0, 5.0]], wide, wide, wide])
    seed = np.array([[1.0, 0.5],  # singular Jacobian: 0.5 + 1/2 = 1
                     [0.0, 0.0],  # log(0) faults
                     [3.0, 3.0],  # clamped into a box whose root lies on a face
                     [0.8, -0.2],
                     [np.nan, 0.0],
                     [-2.0, 0.0]])  # log(-1.75) faults
    x0 = x1[:, None]
    streams = []

    def stream(key):
        streams.append(key)
        return _stream(11, key)

    def raises(*args, **kwargs):
        raise AssertionError("jet_solve called the point evaluator")

    monkeypatch.setattr(ex, "eval_point", raises)
    batch = jet_solve(sys2, x0, target, seed, box, stream=stream)
    fell_back = sorted(streams)
    for c in range(len(x0)):
        alone = jet_solve(sys2, x0[c:c + 1], target[c:c + 1], seed[c:c + 1], box[c:c + 1],
                          stream=lambda _row, c=c: _stream(11, c))
        assert np.array_equal(alone[0], batch[c]), c
    assert fell_back == [1, 4, 5]  # the faulting and the NaN starts
    assert batch[2, 0] == 1.2  # clamped on its box face, and solved there
    assert np.all((box[..., 0] <= batch) & (batch <= box[..., 1]))
    values = {v: batch[:, k] for k, v in enumerate(sys2.flat_vars())}
    for j, Fj in enumerate(sys2.F):
        assert np.all(np.abs(ex.eval_on_arrays(Fj, [x1], values) - target[:, j])
                      < _TOL_RESIDUAL)


# ---------------------------------------------------------------------------
# tiling


def _tiling(box_lo, box_hi, delta):
    """A tiling of the box by congruent cells of diameter <= delta, by
    tile_domain's halving rule (largest current width first, lowest axis on
    ties), with the cells in C order: the reference tile_domain follows at
    a sixteenth of the diagonal, and the tilings with few I-cells that the
    refinement tests use."""
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    counts = [1] * lo.size
    while np.linalg.norm((hi - lo) / counts) > delta:
        counts[int(np.argmax((hi - lo) / counts))] *= 2
    edges = [np.linspace(a, b, c + 1) for a, b, c in zip(lo, hi, counts)]
    cells = np.array([[[e[i] for e, i in zip(edges, at)], [e[i + 1] for e, i in zip(edges, at)]]
                      for at in itertools.product(*map(range, counts))])
    return Tiling(lo, hi, tuple(counts), cells, _centers(cells))


@pytest.mark.parametrize("lo,hi,shape", [
    ([0.0], [3.0], (512,)), ([-1.0], [2.5], (40,)), ([0.0, -1.0], [2.0, 1.0], (33, 40)),
    ([0.1, 0.0], [1.0, 7.0], (9, 129)), ([-2.0, 0.0, 1.0], [1.0, 0.5, 4.0], (65, 9, 33))])
def test_tile_domain_halves_to_a_sixteenth_of_the_diagonal(lo, hi, shape):
    dom = GridDomain(lo, hi, shape)
    t = tile_domain(dom)
    want = _tiling(lo, hi, float(np.linalg.norm(dom.hi - dom.lo)) / 16.0)
    assert t.shape == want.shape
    for key in ("lo", "hi", "i_cells", "anchors"):
        assert getattr(t, key).tobytes() == getattr(want, key).tobytes(), key


def test_tile_1d_dyadic():
    t = tile_domain(GridDomain([0.0], [1.0], (129,)))
    assert t.i_cells.shape == (16, 2, 1)
    assert np.all(t.i_cells[:, 1] - t.i_cells[:, 0] == 0.0625)
    assert np.array_equal(t.anchors[:, 0], (np.arange(16) + 0.5) / 16)


def test_tile_2d_sixteenth_of_the_diagonal():
    # widths (1, 4) halve to (1/8, 1/8): diameter 0.177 against a delta of
    # sqrt(17)/16 = 0.258, where (1/8, 1/4) still had 0.280
    t = tile_domain(GridDomain([0.0, 0.0], [1.0, 4.0], (17, 65)))
    assert t.shape == (8, 32) and t.i_cells.shape == (256, 2, 2)
    assert np.all(t.i_cells[:, 1] - t.i_cells[:, 0] == 0.125)


def test_tile_partition_property_random_delta():
    # delta is a sixteenth of the diagonal of a random box
    rng = np.random.default_rng(17)
    for _ in range(20):
        lo = rng.uniform(-2.0, 1.0, 2)
        hi = lo + rng.uniform(0.1, 3.0, 2)
        t = tile_domain(GridDomain(lo, hi, (97, 97)))
        delta = float(np.linalg.norm(hi - lo)) / 16.0
        widths = t.i_cells[:, 1] - t.i_cells[:, 0]
        assert np.sum(np.prod(widths, axis=1)) == pytest.approx(np.prod(hi - lo), rel=1e-12)
        assert np.all(np.linalg.norm(widths, axis=1) <= delta * (1 + 1e-12))
        assert np.all((t.anchors > t.i_cells[:, 0]) & (t.anchors < t.i_cells[:, 1]))
        # pairwise disjoint interiors
        overlap = (np.minimum(t.i_cells[:, None, 1], t.i_cells[None, :, 1])
                   - np.maximum(t.i_cells[:, None, 0], t.i_cells[None, :, 0])).min(axis=2)
        np.fill_diagonal(overlap, 0.0)
        assert np.max(overlap) <= 1e-12


def test_tile_rejects_sub_grid_delta():
    # a sixteenth of the box is below one grid cell of 9 points, and of a
    # box whose diagonal underflows to 0
    for dom in (GridDomain([0.0], [1.0], (9,)), GridDomain([0.0], [1e-300], (512,))):
        with pytest.raises(TilingError, match="below one grid cell"):
            tile_domain(dom)
    # 17 points: each I-cell is one grid cell wide, with no interior point
    with pytest.raises(TilingError, match="I-cell 0 at lo=\\(0.0,\\) holds no interior"):
        tile_domain(GridDomain([0.0], [1.0], (17,)))


def test_tiling_radii_guarded():
    t = _tiling([0.0], [1.0], 0.3)
    jets = np.zeros((4, 2))
    with pytest.raises(ValueError):
        t.with_radii([1.0], jets)
    with pytest.raises(ValueError):
        t.with_radii([1.0, 1.0, -1.0, 1.0], jets)
    with pytest.raises(ValueError, match="anchor jet"):
        t.with_radii([1.0, 2.0, 3.0, 4.0], jets[:3])
    t2 = t.with_radii([1.0, 2.0, 3.0, 4.0], jets)
    assert np.array_equal(t2.radii, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(t2.jets, jets) and t2.jets is not jets


@pytest.mark.parametrize("lo,hi,delta,salt", [
    ([0.0], [3.0], 0.1, 2), ([-1.0], [2.5], 0.05, 3),
    ([0.0, -1.0], [2.0, 1.0], 0.2, 2), ([0.1, 0.0], [1.0, 7.0], 0.9, 3),
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.5, 2), ([-2.0, 0.0, 1.0], [1.0, 0.5, 4.0], 1.1, 3)])
def test_tiling_index_of_finds_parent_of_descendants(lo, hi, delta, salt):
    rng = np.random.default_rng(int(delta * 100) + salt)
    t = _tiling(lo, hi, delta)
    assert int(np.prod(t.shape)) == len(t.i_cells) > 1
    assert np.array_equal(t.index_of(t.anchors), np.arange(len(t.i_cells)))
    centers, parents = [], []
    for ci, cell in enumerate(t.i_cells):
        for depth in range(7):  # one random dyadic descendant per depth
            c = cell[None]
            for _ in range(depth):
                k = int(rng.integers(2 ** len(lo)))
                c = _children(c)[k:k + 1]
            (center,) = _centers(c)
            assert t.index_of(center) == ci
            centers.append(center)
            parents.append(ci)
    assert np.array_equal(t.index_of(np.array(centers)), parents)


# ---------------------------------------------------------------------------
# the generation check and the subdivision loop


def _reference_interior(domain, cell):
    """Index box and coordinates (npts, n), in C order, of the cell's strictly
    interior lattice points, found by elementwise comparison; None if none."""
    tol = 1e-9 * (domain.hi - domain.lo)
    lo, hi = cell
    keep = [np.nonzero((domain.axis(d) > lo[d] + tol[d])
                       & (domain.axis(d) < hi[d] - tol[d]))[0]
            for d in range(domain.ndim)]
    if any(k.size == 0 for k in keep):
        return None
    grids = np.meshgrid(*(domain.axis(d)[k] for d, k in enumerate(keep)), indexing="ij")
    return np.ix_(*keep), np.stack([g.reshape(-1) for g in grids], axis=1)


def _reference_cell_ok(sys, domain, cell, brackets, band=None):
    """The per-cell check the generation check replaced: at the cell's
    strictly interior lattice points, the Taylor polynomials of each flat
    jet at the cell's center, lower < F < upper as positive minimum slacks,
    and the jets inside the band; a fault of F fails the cell."""
    interior = _reference_interior(domain, cell)
    if interior is None:
        return True
    box, pts = interior
    coords = [pts[:, d] for d in range(domain.ndim)]
    for jet, lower, upper in brackets:
        polys = _taylor_polys(sys, cell, jet)
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


def _transport(n, fault=None):
    """sum_d u_{x_d} + u^3 = f on [0, 1]^n, u = sum_d sin x_d; with fault
    "log" or "exp", sum_d u_{x_d} + log u = 1 or + exp(u^3) = 1 instead."""
    F = " + ".join(f"u[1,({','.join('1' if e == d else '0' for e in range(n))})]"
                   for d in range(n))
    u0 = f"u[1,({','.join('0' * n)})]"
    u = " + ".join(f"sin(x{d + 1})" for d in range(n))
    du = " + ".join(f"cos(x{d + 1})" for d in range(n))
    if fault is not None:
        term = {"log": f"log({u0})", "exp": f"exp({u0}^3)"}[fault]
        return PdeSystem(n, 1, 1, [f"{F} + {term}"], ["1"], [0.0] * n, [1.0] * n)
    return PdeSystem(n, 1, 1, [f"{F} + {u0}^3"], [f"{du} + ({u})^3"],
                     [0.0] * n, [1.0] * n)


def _coupled_transport():
    """u1' - u2 = 0, u2' + u1^3 = f2 on [0, 1], (u1, u2) = (sin x, cos x): K = 2."""
    return PdeSystem(1, 2, 1, ["u[1,(1)] - u[2,(0)]", "u[2,(1)] + u[1,(0)]^3"],
                     ["0", "-sin(x1) + sin(x1)^3"], [0.0], [1.0])


def _solution_jet(sys, x0, shift):
    """The flat jet at x0 of the solution of _transport (K = 1) or
    _coupled_transport (K = 2), its first derivatives shifted by shift."""
    u = ([(np.sin(x0).sum(), np.cos(x0))] if sys.K == 1
         else [(np.sin(x0[0]), np.cos(x0)), (np.cos(x0[0]), -np.sin(x0))])
    return np.array([v if sum(a) == 0 else dv[a.index(1)] + shift
                     for v, dv in u for a in sys.mis.alphas])


def _taylor_polys(sys, cell, jet):
    """One Taylor polynomial per component of a flat jet at the cell's center."""
    x0 = 0.5 * (cell[0] + cell[1])
    return [TaylorPoly(x0, row, sys.mis) for row in np.reshape(jet, (sys.K, -1))]


def _random_cells(rng, domain, count):
    """Dyadic cells (count, 2, n) of random level and position: the coarse
    ones hold many lattice points, the finest none."""
    n = domain.ndim
    finest = np.log2(np.array(domain.shape) - 1).astype(int) + 1
    cells = []
    for _ in range(count):
        level = rng.integers(0, finest + 1)
        pos = [int(rng.integers(0, 2 ** lv)) for lv in level]
        w = (domain.hi - domain.lo) / 2.0 ** level
        lo = domain.lo + np.array(pos) * w
        cells.append([lo, lo + w])
    return np.array(cells)


def _random_jets(rng, sys, cells, shift, noise, value=None):
    """Per cell, the flat jet of the solution at the center (see
    _solution_jet), its first derivatives shifted by `shift`, plus uniform
    noise; `value` replaces the first component's value."""
    jets = []
    for x0 in _centers(cells):
        jet = _solution_jet(sys, x0, shift)
        if value is not None:
            jet[0] = value(rng)
        jets.append(jet + rng.uniform(-noise, noise, len(jet)))
    return np.array(jets)


@pytest.mark.parametrize("n,size", [(1, 65), (2, 17), (3, 9)])
def test_generation_check_matches_per_cell_reference(n, size):
    # the transport system and, in 1D, the coupled K = 2 one
    dom = GridDomain([0.0] * n, [1.0] * n, (size,) * n)
    for sys in [_transport(n)] + ([_coupled_transport()] if n == 1 else []):
        rng = np.random.default_rng(40 + n)
        f = sys.rhs_on_lattice(dom)
        seen = set()
        for _ in range(12):
            cells = _random_cells(rng, dom, int(rng.integers(1, 40)))
            eps = float(rng.uniform(0.05, 1.0))
            noise = float(rng.uniform(0.0, eps))
            # refine's form: EQ1 bracket (f - eps, f) and band containment
            jets = _random_jets(rng, sys, cells, -eps / (2 * n), noise)
            centre = _solution_jet(sys, np.full(n, 0.5), -eps / (2 * n))
            half = float(rng.uniform(0.2, 2.0))
            band = (centre - half, centre + half)
            below = [fj - eps for fj in f]
            rows = tuple(np.tile(b, (len(cells), 1)) for b in band)
            got = _generation_ok(sys, dom, cells, [(jets, below, f)], band=rows)
            want = [_reference_cell_ok(sys, dom, c, [(j, below, f)], band)
                    for c, j in zip(cells, jets)]
            assert got.tolist() == want
            eq1 = [_reference_cell_ok(sys, dom, c, [(j, below, f)])
                   for c, j in zip(cells, jets)]
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
                        "pair accept", "pair split"}, sys.K


@pytest.mark.parametrize("n,size", [(1, 65), (2, 17), (3, 9)])
def test_generation_check_fails_cells_where_log_faults(n, size):
    # u crosses zero inside some cells: log(u) faults on part of them only,
    # with NaN values; beside it, exp(u^3) overflows to +inf on part of
    # some cells, where u^3 passes the log of the largest double
    dom = GridDomain([0.0] * n, [1.0] * n, (size,) * n)
    for fault, low, high, faults in (
            ("log", -0.5, 1.0, lambda u: u <= 0),
            ("exp", -1.0, 11.0, lambda u: u ** 3 > np.log(np.finfo(float).max))):
        rng = np.random.default_rng(70 + n)
        sys = _transport(n, fault)
        f = sys.rhs_on_lattice(dom)
        wide = ([fj - 1e6 for fj in f], [fj + 1e6 for fj in f])
        partial = accepted = 0
        for _ in range(12):
            cells = _random_cells(rng, dom, 30)
            jets = _random_jets(rng, sys, cells, 0.0, 3.0,
                                value=lambda r: r.uniform(low, high))
            got = _generation_ok(sys, dom, cells, [(jets, *wide)])
            want = [_reference_cell_ok(sys, dom, c, [(j, *wide)])
                    for c, j in zip(cells, jets)]
            assert got.tolist() == want
            for c, j, ok in zip(cells, jets, want):
                interior = _reference_interior(dom, c)
                if interior is not None:
                    u = _taylor_polys(sys, c, j)[0].deriv_many((0,) * n, interior[1])
                    partial += bool(faults(u).any() and not faults(u).all())
                    accepted += ok
        assert partial and accepted, fault


def _per_generation(solve):
    """A generation solve for _subdivide from a per-cell one: the payload
    rows of the cells, solved in order; the first error propagates."""
    return lambda cells: np.array([solve(c) for c in cells],
                                  dtype=float).reshape(len(cells), -1)


def _subdivide_outcome(loop, work, solve, check, domain, **kw):
    """Accepted (cell bounds, payload) pairs, or (class, message, stage,
    cell) of the error raised; _subdivide gets the per-cell solve as a
    generation solve and its cells and payload rows are paired up, and the
    reference loop gets the budget _MAX_CELLS."""
    from ordercomplete import solver

    try:
        if loop is not _subdivide:
            return [(tuple(c.ravel().tolist()), p)
                    for c, p in loop(work, solve, check, domain, solver._MAX_CELLS, **kw)]
        cells, payloads = _subdivide(work, _per_generation(solve), check, domain, **kw)
    except ConstructionError as e:
        return type(e), str(e), e.stage, e.cell
    return [(tuple(c.ravel().tolist()), float(p)) for c, (p,) in zip(cells, payloads)]


def _reference_subdivide(work, solve, check, domain, max_cells, *, stage=None):
    """The first-in, first-out loop that solves, checks and splits one cell
    at a time, which the generation loop replaced; it accepts the same
    cells when no error is raised."""
    work = deque(work)
    done = []
    while work:
        c = work.popleft()
        if len(done) + len(work) > max_cells:
            raise ConstructionError("cell budget exhausted while subdividing",
                                    stage=stage)
        payload = solve(c)
        if check(c[None], np.array([payload]))[0]:
            done.append((c, payload))
            continue
        children = _children(c[None])
        if _empty_interiors(domain, children).any():
            raise ConstructionError("bracket unattainable at grid resolution",
                                    stage=stage, cell=tuple(c[0].tolist()))
        work.extend(children)
    return done


def _synthetic(accept_width, fail_at=()):
    """A solve that logs each cell and raises at the cells whose lower
    corners are in fail_at, and a check accepting a cell when it is no
    wider than accept_width(center)."""
    log = []

    def solve(c):
        log.append(tuple(c.ravel().tolist()))
        if tuple(c[0].tolist()) in fail_at:
            raise ConstructionError("constrained jet unsolvable", stage=4,
                                    cell=tuple(c[0].tolist()))
        return float(len(log))

    def check(cells, payloads):
        assert len(cells) == len(payloads)
        return np.array([max(hi - lo) <= accept_width(0.5 * (lo + hi)) for lo, hi in cells],
                        dtype=bool)

    return log, solve, check


@pytest.mark.parametrize("n", [1, 2])
def test_subdivide_accepts_like_reference_loop(n):
    dom = GridDomain([0.0] * n, [1.0] * n, (65,) * n)
    width = lambda x: 1 / 8 if x[0] < 0.5 else 1 / 32  # noqa: E731
    runs = []
    for loop in (_reference_subdivide, _subdivide):
        log, solve, check = _synthetic(width)
        runs.append((_subdivide_outcome(loop, np.array([[dom.lo, dom.hi]]), solve, check,
                                        dom), log))
    (want, want_log), (got, got_log) = runs
    assert isinstance(want, list) and len(want) > 10
    assert got == want  # same cells, same payloads, same order
    assert got_log == want_log  # the same solves in the same order


def test_subdivide_stranded_child_like_reference_loop():
    # 9 points on [0, 1]: a cell of width 1/8 holds no interior point
    dom = GridDomain([0.0], [1.0], (9,))
    width = lambda x: 1 / 2 if x[0] > 0.25 else 0.0  # noqa: E731
    for kw in ({}, {"stage": 3}):
        outs = [_subdivide_outcome(loop, np.array([[[0.0], [1.0]]]), *_synthetic(width)[1:],
                                   dom, **kw)
                for loop in (_reference_subdivide, _subdivide)]
        assert outs[0] == outs[1]
        assert "bracket unattainable" in outs[0][1]
    assert outs[0][2:] == (3, (0.0,))  # the stage and the split cell's corner


def test_subdivide_budget_is_checked_before_each_generation(monkeypatch):
    # 65 points: every split succeeds, or the solve at [3/4, 1] fails in
    # the third generation. The budget error comes exactly when the
    # accepted cells and the pending generation exceed _MAX_CELLS, before
    # that generation is solved, and so before its solve error
    from ordercomplete import solver

    dom = GridDomain([0.0], [1.0], (65,))
    width = lambda x: 1 / 8 if x[0] < 0.5 else 1 / 32  # noqa: E731
    work = np.array([[[0.0], [1.0]]])

    def run(fail_at):
        """The outcome, and per generation solved the accepted cells
        before it plus its own."""
        _, solve, check = _synthetic(width, fail_at)
        generation = _per_generation(solve)
        held, accepted = [], [0]

        def counted_solve(cells):
            held.append(accepted[0] + len(cells))
            return generation(cells)

        def counted_check(cells, payloads):
            ok = check(cells, payloads)
            accepted[0] += int(ok.sum())
            return ok

        try:
            _subdivide(work, counted_solve, counted_check, dom, stage=2)
        except ConstructionError as e:
            return str(e), held
        return "ok", held

    kinds = set()
    for fail_at in ((), ((0.75,),)):
        monkeypatch.setattr(solver, "_MAX_CELLS", 10_000)
        unbounded, want = run(fail_at)
        assert len(want) >= 3
        for budget in range(0, max(want) + 2):
            monkeypatch.setattr(solver, "_MAX_CELLS", budget)
            got, held = run(fail_at)
            over = [k for k, h in enumerate(want) if h > budget]
            if over:
                assert got == "cell budget exhausted while subdividing; stage=2"
                assert held == want[:over[0]]  # that generation is not solved
            else:
                assert got == unbounded and held == want
            kinds.add(got.split(";")[0])
    assert kinds == {"ok", "cell budget exhausted while subdividing",
                     "constrained jet unsolvable"}


def test_subdivide_names_the_first_stranded_split_cell():
    # 9 points, third generation [0, 1/4], [1/4, 1/2], [1/2, 3/4], [3/4, 1]:
    # the first is accepted and the other three split into children of
    # width 1/8 that hold no interior point; the whole generation is solved
    # and checked, and the error names the first split cell and the stage
    dom = GridDomain([0.0], [1.0], (9,))
    width = lambda x: 1 / 4 if x[0] < 0.25 else 0.0  # noqa: E731
    log, solve, check = _synthetic(width)
    with pytest.raises(ConstructionError) as exc:
        _subdivide(np.array([[[0.0], [1.0]]]), _per_generation(solve), check, dom, stage=3)
    assert str(exc.value) == ("bracket unattainable at grid resolution; stage=3; "
                              "cell=(0.25,)")
    assert (exc.value.stage, exc.value.cell) == (3, (0.25,))
    assert log[-4:] == [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]


def test_subdivide_raises_the_solve_error_over_a_stranded_cell():
    # third generation: [0, 1/4] would strand its children, but the solve
    # at [3/4, 1] fails, and the generation's solve error wins; with no
    # solve failure the stranded cell is named
    dom = GridDomain([0.0], [1.0], (9,))
    width = lambda x: 0.0  # noqa: E731
    for fail_at, expect in ((((0.75,),), ("constrained jet unsolvable; stage=4; "
                                          "cell=(0.75,)", 4, (0.75,))),
                            ((), ("bracket unattainable at grid resolution; "
                                  "stage=1; cell=(0.0,)", 1, (0.0,)))):
        out = _subdivide_outcome(_subdivide, np.array([[[0.0], [1.0]]]),
                                 *_synthetic(width, fail_at)[1:], dom, stage=1)
        assert out == (ConstructionError, *expect)


# ---------------------------------------------------------------------------
# global approximate pair


def test_global_pair_affine_single_cell():
    dom = GridDomain([0.0], [1.0], (17,))
    sys1 = _affine()
    gp = global_pair(sys1, dom, 0.5)
    assert len(gp.cells) == 1
    (tu,), (tv,) = (completed(at, apply_operator(sys1, at, jets))
                    for at, jets in (sample_jets(gp.lower, dom), sample_jets(gp.upper, dom)))
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
    (tu,), (tv,) = (completed(at, apply_operator(sys1, at, jets))
                    for at, jets in (sample_jets(gp.lower, dom), sample_jets(gp.upper, dom)))
    x = dom.axis(0)
    f = np.cos(x) + np.sin(x) ** 3
    off = ~tu.domain.skeleton
    assert np.all(f[off] - 0.1 < tu.values[off])
    assert np.all(tu.values[off] < f[off])
    assert np.all(f[off] < tv.values[off])
    assert np.all(tv.values[off] < f[off] + 0.1)


def test_global_pair_cell_budget(monkeypatch):
    # the cubic pair needs about 30 cells on this lattice
    from ordercomplete import solver

    dom = GridDomain([0.0], [3.0], (257,))
    monkeypatch.setattr(solver, "_MAX_CELLS", 1)
    with pytest.raises(ConstructionError, match="cell budget"):
        global_pair(_cubic(), dom, 0.1)


def test_global_pair_names_the_cell_of_an_unsolvable_upper_jet():
    # -u^2 <= 0 meets the target x - 0.8 -/+ 0.25 at the box center; the
    # second generation's upper target 0.2 at x = 0.75 is not met, and its
    # row, after the lower rows of both cells, names the cell [0.5, 1]
    sys1 = PdeSystem(1, 1, 1, ["-(u[1,(0)]^2)"], ["x1 - 0.8"], [0.0], [1.0])
    with pytest.raises(ConstructionError) as exc:
        global_pair(sys1, GridDomain([0.0], [1.0], (17,)), 0.5)
    assert str(exc.value).startswith("anchor jet unsolvable: no jet solution at x0=(0.75,)")
    assert (exc.value.stage, exc.value.cell) == (None, (0.5,))


def test_global_pair_eps_below_float_scale():
    sys1 = _cubic()
    dom = GridDomain([0.0], [3.0], (65,))
    with pytest.raises((ConstructionError, ValueError)):
        global_pair(sys1, dom, 1e-18)
    with pytest.raises(ValueError):
        global_pair(sys1, dom, 0.0)


def test_apeq_certificate_samples_the_pair_once_as_two_samplings_would(monkeypatch):
    # the pair is sampled as one candidate carrying both coefficient sets:
    # its jets are those of two sample_jets calls, lower then upper, bit for
    # bit, and the margins are those of T on each half
    from ordercomplete import checker

    sys = _coupled_transport()
    dom = GridDomain([0.0], [1.0], (129,))
    gp = global_pair(sys, dom, 0.4)
    assert gp.certificate.passed and len(gp.cells) > 1
    stacked = []

    def recorded(v, domain):
        stacked.append(sample_jets(v, domain))
        return stacked[-1]

    monkeypatch.setattr(checker, "sample_jets", recorded)
    assert apeq_certificate(sys, gp.lower, gp.upper, dom, 0.4) == gp.certificate
    ((marked, jets),) = stacked
    (lower_at, lower), (upper_at, upper) = sample_jets(gp.lower, dom), sample_jets(gp.upper, dom)
    assert lower_at == upper_at == marked
    apart = np.concatenate([lower, upper])
    M = sys.unknown_count
    assert jets.shape == apart.shape == (2 * M, (~marked.skeleton).sum())
    assert jets.tobytes() == apart.tobytes()
    tu, tv = (apply_operator(sys, marked, half) for half in (apart[:M], apart[M:]))
    off = ~marked.skeleton
    f = [fj[off] for fj in sys.rhs_on_lattice(dom)]

    def slack(lower, upper):
        return min(float(np.min(hi - lo)) for lo, hi in zip(lower, upper))

    c = gp.certificate
    assert (c.lower_gap, c.lower_strict, c.upper_strict, c.upper_gap) == (
        slack([fj - 0.4 for fj in f], tu), slack(tu, f), slack(f, tv),
        slack(tv, [fj + 0.4 for fj in f]))


def test_apeq_certificate_rejects_a_pair_with_different_cells():
    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (17,))
    gp = global_pair(sys1, dom, 0.5)
    halves = _children(gp.cells)
    upper = _cell_polys(sys1, halves, np.repeat(gp.upper.coeffs.reshape(1, -1), 2, axis=0))
    with pytest.raises(ValueError, match="the lower and upper polynomials have different cells"):
        apeq_certificate(sys1, gp.lower, upper, dom, 0.5)


# ---------------------------------------------------------------------------
# refinement scheme


def _targets(sys, points, gamma, n):
    """f - gamma/(2n) at each point (rows, n), f as one array evaluation."""
    f = sys.rhs_on_arrays([np.ascontiguousarray(c) for c in np.asarray(points).T])
    return np.stack(f, axis=1) - gamma / (2.0 * n)


def _probed(sys, tiling, gamma, radii, seed=0):
    """The tiling with the given radii and the stage-1 anchor jets that
    run_scheme's probe solves: target f - gamma/2, zero seed, no box, and
    the stream (ANCHOR, 1, ci) for a fallback."""
    jets = jet_solve(sys, tiling.anchors, _targets(sys, tiling.anchors, gamma, 1),
                     stream=functools.partial(_stream, seed, ANCHOR, 1))
    return tiling.with_radii(radii, jets)


def test_refine_requires_prev_exactly_when_late():
    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (65,))
    tiling = _probed(sys1, _tiling([0.0], [1.0], 0.5), 0.4, [1.0, 1.0])
    with pytest.raises(ValueError):
        refine(sys1, dom, tiling, None, 2, 0.4)
    with pytest.raises(ValueError):
        refine(sys1, dom, tiling, None, 0, 0.4)


def test_refine_needs_radii():
    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (65,))
    tiling = _tiling([0.0], [1.0], 0.5)
    with pytest.raises(ValueError):
        refine(sys1, dom, tiling, None, 1, 0.4)


def test_refine_cell_budget(monkeypatch):
    # one I-cell over the whole box: the EQ1 bracket needs about 9 J-cells
    from ordercomplete import solver

    sys1 = _cubic()
    dom = GridDomain([0.0], [3.0], (129,))
    tiling = _probed(sys1, _tiling([0.0], [3.0], 3.0), 0.4, [1.0])
    monkeypatch.setattr(solver, "_MAX_CELLS", 1)
    with pytest.raises(ConstructionError, match="cell budget"):
        refine(sys1, dom, tiling, None, 1, 0.4)


def test_refine_names_an_unsolvable_anchor():
    # stage 2 solves u' = 0.9 at each anchor inside the previous bands'
    # inner box; I-cell 1's is moved to u' in [5.125, 5.875]
    from dataclasses import replace

    sys1 = _affine()
    dom = GridDomain([0.0], [1.0], (65,))
    tiling = _probed(sys1, _tiling([0.0], [1.0], 0.5), 0.4, [1.0, 1.0])
    first = refine(sys1, dom, tiling, None, 1, 0.4)
    lo, hi = first.band_lo.copy(), first.band_hi.copy()
    lo[1, 1], hi[1, 1] = 5.0, 6.0
    with pytest.raises(ConstructionError) as exc:
        refine(sys1, dom, tiling, replace(first, band_lo=lo, band_hi=hi), 2, 0.4)
    assert (exc.value.stage, exc.value.cell) == (2, 1)
    assert str(exc.value).startswith("anchor jet unsolvable (openness radius "
                                     "overestimated?): no jet solution at x0=(0.75,)")


def test_refine_names_an_unsolvable_j_cell():
    # u' = x - 0.2: the anchor of I-cell 0 solves it at x = 0.25, where the
    # bracket fails at the cell's ends, but with radius 0.01 its J-cell box
    # holds u' only within 0.015 of 0.05, and its first child's centre needs
    # -0.075
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["x1"], [0.0], [1.0])
    tiling = _probed(sys1, _tiling([0.0], [1.0], 0.5), 0.4, [0.01, 0.01])
    with pytest.raises(ConstructionError) as exc:
        refine(sys1, GridDomain([0.0], [1.0], (65,)), tiling, None, 1, 0.4)
    assert (exc.value.stage, exc.value.cell) == (1, 0)
    assert str(exc.value).startswith("constrained jet unsolvable (openness radius "
                                     "overestimated?): no jet solution at x0=(0.125,)")


def test_refine_rejects_an_empty_j_cell_box():
    # stage 2 solves u' = 1 inside the inner box [1, 7] of previous u'
    # bands [0, 8], on its lower face. With radius 7.1e-17 the band's
    # half-width is 0.3 ulp(1): it rounds to [1 - ulp/2, 1], its inner box
    # rounds to itself, and that meets [1, 7] in the point 1 alone
    from dataclasses import replace

    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1.1"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (65,))
    tiling = _probed(sys1, _tiling([0.0], [1.0], 0.5), 0.4, [1.0, 1.0])
    first = refine(sys1, dom, tiling, None, 1, 0.4)
    first.band_lo[:, 1], first.band_hi[:, 1] = 0.0, 8.0
    with pytest.raises(ConstructionError) as exc:
        refine(sys1, dom, replace(tiling, radii=np.array([1.0, 7.1e-17])), first, 2, 0.4)
    assert (exc.value.stage, exc.value.cell) == (2, 1)
    assert str(exc.value) == "J-cell constraint box is empty; stage=2; cell=1"


def _reference_refine(sys, domain, tiling, prev, n, gamma, *, seed):
    """The per-I-cell loop that refine replaced: each I-cell solves its
    anchor, builds its bands and subdivides its own J-cells in turn, with
    every cell solved as a one-row jet_solve call. An anchor solve falls
    back on the stream (ANCHOR, n, ci) and a J-cell solve on (JCELL, n, ci,
    lo and hi bit patterns)."""
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
        target = _targets(sys, [a], gamma, n)
        if prev is not None:
            margin = (prev.band_hi[ci] - prev.band_lo[ci]) / 8.0
            i_box = np.stack([prev.band_lo[ci] + margin, prev.band_hi[ci] - margin], axis=1)
            start = prev.i_jets[ci]
        else:
            i_box = None
            start = np.zeros(m_flat)
        center = jet_solve(sys, [a], target, seed=[start],
                           constraint_box=None if i_box is None else i_box[None],
                           stream=lambda _row: _stream(seed, ANCHOR, n, ci))[0]
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
            aj = 0.5 * (jcell[0] + jcell[1])
            bits = np.ascontiguousarray(jcell).reshape(-1).view(np.uint64)
            return jet_solve(sys, [aj], _targets(sys, [aj], gamma, n), seed=[center],
                             constraint_box=j_box[None],
                             stream=lambda _row: _stream(seed, JCELL, n, ci, *map(int, bits)))[0]

        def check(jcells, jets):
            rows = tuple(np.tile(b, (len(jcells), 1)) for b in (lo_b, hi_b))
            return _generation_ok(sys, domain, jcells, [(jets, below, f)], band=rows)

        work = prev.j_cells[ci] if prev is not None else icell[None]
        accepted.append(_subdivide(work, _per_generation(solve), check, domain, stage=n))
    v_poly = _cell_polys(sys, np.concatenate([cells for cells, _ in accepted]),
                         np.concatenate([jets for _, jets in accepted]))
    marked = assemble(v_poly, domain)
    (eq1, eq2, eq3), samples = stage_certificates(
        sys, v_poly, marked, tiling.i_cells, tiling.radii, band_lo, band_hi,
        None if prev is None else (prev.band_lo, prev.band_hi), n, gamma)
    return RefinementStage(
        n=n, v=v_poly, domain=marked,
        band_lo=band_lo, band_hi=band_hi, i_jets=i_jets,
        j_cells=[cells for cells, _ in accepted],
        eq1=eq1, eq2=eq2, eq3=eq3, samples=samples,
    )


@pytest.mark.parametrize("n,size,per_axis,radius,gamma", [
    (1, 129, 4, 0.2, 0.05), (2, 33, 4, 1.0, 0.4), (3, 9, 2, 4.0, 0.4)])
def test_refine_matches_per_i_cell_reference(n, size, per_axis, radius, gamma):
    sys = _transport(n)
    dom = GridDomain([0.0] * n, [1.0] * n, (size,) * n)
    tiling = _tiling(dom.lo, dom.hi, math.sqrt(n) / per_axis)
    tiling = _probed(sys, tiling, gamma, np.full(len(tiling.i_cells), radius), seed=5)
    got = want = None
    for stage in (1, 2, 3):
        got = refine(sys, dom, tiling, got, stage, gamma, seed=5)
        want = _reference_refine(sys, dom, tiling, want, stage, gamma, seed=5)
        assert len(got.j_cells) == len(want.j_cells)
        for g, w in zip(got.j_cells, want.j_cells):
            assert np.array_equal(g, w)
        for key in ("i_jets", "band_lo", "band_hi"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
        for key in ("bounds", "coeffs"):
            assert np.array_equal(getattr(got.v, key), getattr(want.v, key)), key
        assert (got.eq1, got.eq2, got.eq3) == (want.eq1, want.eq2, want.eq3)
    assert sum(map(len, got.j_cells)) > len(tiling.i_cells)  # the stages split


def test_refine_cell_budget_bounds_whole_stage(monkeypatch):
    from ordercomplete import solver

    sys = _transport(1)
    dom = GridDomain([0.0], [1.0], (129,))
    tiling = _probed(sys, _tiling(dom.lo, dom.hi, 0.25), 0.05,
                     np.full(4, 0.2))
    st = refine(sys, dom, tiling, None, 1, 0.05)
    total = sum(map(len, st.j_cells))
    assert max(map(len, st.j_cells)) <= total - 2  # each I-cell fits the budget
    monkeypatch.setattr(solver, "_MAX_CELLS", total)
    assert sum(map(len, refine(sys, dom, tiling, None, 1, 0.05).j_cells)) == total
    monkeypatch.setattr(solver, "_MAX_CELLS", total - 2)
    with pytest.raises(ConstructionError, match="cell budget") as exc:
        refine(sys, dom, tiling, None, 1, 0.05)
    assert (exc.value.stage, exc.value.cell) == (1, None)


def test_each_candidate_classified_once_per_lattice(monkeypatch, tmp_path):
    # sample_jets marks its polynomial's skeleton itself, with the one
    # _classify_grid call of assemble, and no caller marks one first:
    # global_pair samples its two polynomials once, as one candidate, and
    # applies T to each; refine samples its stage polynomial once and takes
    # the I-cell owners by index arithmetic; and scheme_convergence completes
    # the stage samples without sampling, classifying or applying T
    from ordercomplete import checker, cli, jets, pde, solver

    names = ("_classify_grid", "assemble", "sample_jets", "apply_operator")
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        home = pde if name == "apply_operator" else jets
        wrapped = counted(name, getattr(home, name))
        for module in (jets, pde, solver, checker, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)

    def calls():
        got = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        return got

    def per(k, applied=0):
        return {"_classify_grid": k, "assemble": k, "sample_jets": k,
                "apply_operator": k + applied}

    sys = _transport(1)
    dom = GridDomain([0.0], [1.0], (129,))
    gp = global_pair(sys, dom, 0.4).certificate
    assert gp.passed
    assert calls() == per(1, applied=1)
    tiling = _probed(sys, _tiling(dom.lo, dom.hi, 0.25), 0.05,
                     np.full(4, 0.2))
    stages = []
    for n in (1, 2, 3):
        stages.append(refine(sys, dom, tiling, stages[-1] if stages else None, n, 0.05))
        assert stages[-1].eq1.passed and stages[-1].eq2.passed and stages[-1].eq3.passed
        assert calls() == per(1)
    conv = scheme_convergence(sys, [s.samples for s in stages], tiling.radii, 0.05)
    assert scheme_verdict(stages, conv, gp) == (True, [])
    assert calls() == per(0)
    # verify: the global pair as in run, then per stage one sampling on the
    # bare lattice, and no sampling after the stages
    spec = tmp_path / "transport.spec"
    spec.write_text("n = 1\nK = 1\nm = 1\nbox.lo = 0\nbox.hi = 1\ngrid = 129\n"
                    "F1 = u[1,(1)] + u[1,(0)]^3\nf1 = cos(x1) + sin(x1)^3\n")
    N = 3
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--gamma", "0.4", "--stages", str(N),
                     "--out", str(out), "--no-samples"]) == 0
    calls()
    assert cli.verify(out) == 0
    assert calls() == per(1 + N, applied=1)


def test_each_polynomial_tiling_checked_once(monkeypatch, tmp_path):
    # the tiling of a candidate is checked where it enters, once: in run as
    # its subdivision ends (the global pair's cells once for both
    # polynomials), in verify as each file is read; sampling checks none
    from ordercomplete import cli, jets, solver

    checked = []

    def counted(cells, lo, hi):
        checked.append(len(cells))
        return check_tiling(cells, lo, hi)

    check_tiling = jets._check_tiling
    for module in (jets, solver, cli):
        monkeypatch.setattr(module, "_check_tiling", counted)
    spec = tmp_path / "transport.spec"
    spec.write_text("n = 1\nK = 1\nm = 1\nbox.lo = 0\nbox.hi = 1\ngrid = 129\n"
                    "F1 = u[1,(1)] + u[1,(0)]^3\nf1 = cos(x1) + sin(x1)^3\n")
    N = 3
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--gamma", "0.4", "--stages", str(N),
                     "--out", str(out), "--no-samples"]) == 0
    assert len(checked) == 1 + N
    ran, checked[:] = list(checked), []
    assert cli.verify(out) == 0
    assert checked == [ran[0], *ran]  # the global lower and upper files, then the stages


@pytest.mark.parametrize("lost", [0, -1], ids=["first", "last"])
def test_run_rejects_a_candidate_that_does_not_tile(monkeypatch, lost):
    # sampling takes a candidate's tiling as given, so global_pair and
    # refine check the cells their subdivision accepts: one that loses a
    # cell fails them with the hole it leaves
    from ordercomplete import solver

    def losing(*args, **kwargs):
        cells, payloads = subdivide(*args, **kwargs)
        keep = np.arange(len(cells)) != np.arange(len(cells))[lost]
        return cells[keep], payloads[keep]

    subdivide = solver._subdivide
    sys = _transport(1)
    dom = GridDomain([0.0], [1.0], (129,))
    tiling = _probed(sys, _tiling(dom.lo, dom.hi, 0.25), 0.05, np.full(4, 0.2))
    monkeypatch.setattr(solver, "_subdivide", losing)
    with pytest.raises(TilingError, match="leave a hole"):
        global_pair(sys, dom, 0.4)
    with pytest.raises(TilingError, match="leave a hole"):
        refine(sys, dom, tiling, None, 1, 0.05)


def test_one_skeleton_fill_per_sampling(monkeypatch, tmp_path):
    # a fill budget: sampling, the operator image, the step bands, every
    # certificate and scheme_convergence read rows off the skeleton and
    # fill nothing; analysis.nested_limit_check completes its limits in one
    # stacked fill, and a run with samples completes each stage once, all
    # its fields in one stacked fill, for its CSV file
    from ordercomplete import cli, grids

    calls = []
    fill = grids.skeleton_fill

    def counted(domain, values):
        calls.append(values.shape)
        return fill(domain, values)

    monkeypatch.setattr(grids, "skeleton_fill", counted)
    dom = GridDomain([0.0], [1.0], (9,))
    i_cells = np.array([[[0.0], [0.5]], [[0.5], [1.0]]])
    for sys in (_affine(), PdeSystem(1, 2, 2, ["u[1,(2)]", "u[2,(2)]"], ["1", "1"],
                                     [0.0], [1.0])):
        M = sys.unknown_count
        v = _cell_polys(sys, i_cells, np.linspace(0.0, 1.0, 2 * M).reshape(2, M))
        marked, rows = sample_jets(v, dom)
        assert rows.shape == (M, (~marked.skeleton).sum())
        band_lo, band_hi = np.full((2, M), -5.0), np.full((2, M), 5.0)
        _, samples = stage_certificates(sys, v, dom, i_cells, np.ones(2), band_lo, band_hi,
                                        None, 1, 0.4)
        apeq_certificate(sys, v, v, dom, 0.4)
        scheme_convergence(sys, [samples] * 2, np.ones(2), 0.4)
        assert calls == []
    spec = tmp_path / "transport.spec"
    spec.write_text("n = 1\nK = 1\nm = 1\nbox.lo = 0\nbox.hi = 1\ngrid = 129\n"
                    "F1 = u[1,(1)] + u[1,(0)]^3\nf1 = cos(x1) + sin(x1)^3\n")
    N = 3
    args = ["run", str(spec), "--gamma", "0.4", "--stages", str(N), "--out"]
    # no band converges to 1e-3: the nested limit completes no layer
    assert cli.main([*args, str(tmp_path / "bare"), "--no-samples"]) == 0
    assert calls == [(0, 129)]
    calls.clear()
    assert cli.verify(tmp_path / "bare") == 0
    assert calls == [(0, 129)]
    calls.clear()
    assert cli.main([*args, str(tmp_path / "full")]) == 0
    assert sorted(calls) == [(0, 129)] + [(3 * 2 + 1, 129)] * N  # 3 M + K rows, M = 2


@pytest.fixture(scope="module")
def res_cubic2():
    return run_scheme(_cubic(), GridDomain([0.0], [3.0], (129,)), 0.4, 2)


def test_scheme_affine_closed_forms():
    sys1 = _affine()
    res = run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 4)
    assert scheme_verdict(res.stages, res, _PASSING_PAIR) == (True, [])
    assert abs(res.final_sup_gap - 0.05) <= 8 * math.ulp(0.05)  # gamma/(2N)
    for s in res.stages:
        assert s.eq1.passed and s.eq2.passed and s.eq3.passed
        # stage operator image is the constant 1 - gamma/(2n) off skeleton
        at, jets = sample_jets(s.v, s.domain)
        (tv,) = completed(at, apply_operator(sys1, at, jets))
        want = 1.0 - 0.4 / (2 * s.n)
        off = ~s.domain.skeleton
        assert np.max(np.abs(tv.values[off] - want)) <= 4 * math.ulp(1.0)
        # band width ratio sits at the strict-inequality backoff below 1
        assert s.eq3.max_ratio == pytest.approx(0.9375, rel=1e-12)



def test_scheme_verdict_names_each_failure(res_cubic2):
    from dataclasses import replace

    res = res_cubic2
    first = replace(res.stages[0], eq1=replace(res.stages[0].eq1, passed=False))
    failing = replace(_PASSING_PAIR, passed=False, lower_gap=-1.0)
    assert scheme_verdict([first, res.stages[1]], res, _PASSING_PAIR) == (False, [
        "stage 1 certificates: eq1=False eq2=True eq3=True",
    ])
    # the operator images, then the stages, then a final sup gap at gamma/N
    oc = replace(res.oc_operator[0], passed=False, first_violation=(0, "lower_bracket", -0.5),
                 sup_gap=0.25, inf_gap=0.125)
    broken = replace(res, oc_operator=[oc], final_sup_gap=0.2)
    assert scheme_verdict([first, res.stages[1]], broken, _PASSING_PAIR) == (False, [
        "operator image of component 1 fails order convergence "
        "(first violation (0, 'lower_bracket', -0.5), gaps 2.500e-01/1.250e-01)",
        "stage 1 certificates: eq1=False eq2=True eq3=True",
        "final sup gap 2.000e-01 not below gamma/N=2.000e-01",
    ])
    # the global pair gates the verdict; its block, not a diagnostic, says why
    assert scheme_verdict(res.stages, res, failing) == (False, [])
    assert scheme_verdict(res.stages, res, _PASSING_PAIR) == (True, [])


def test_scheme_manufactured_small(res_cubic2):
    res = res_cubic2
    assert scheme_verdict(res.stages, res, _PASSING_PAIR) == (True, [])
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
        center = [0.5 * (lo + hi) for lo, hi in zip(cell.lo, cell.hi)]
        (ci,) = [k for k, (ilo, ihi) in enumerate(i_cells)
                 if all(lo < x < hi for lo, x, hi in zip(ilo, center, ihi))]
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
    v = _cell_polys(sys1, np.array([[[0.0], [1.0]]]), np.array([[0.0, 1.0]]))
    marked = assemble(v, dom)
    i_cells = np.array([[[0.0], [0.5]], [[0.5], [1.0]]])
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
    # bands rendered there, rows at the final off-skeleton points; the rows
    # each stage took on its own lattice, gathered at those points, equal
    # them bit for bit, sign bits included
    res = run_scheme(sys, GridDomain(sys.box_lo, sys.box_hi, (size,) * sys.n), gamma, N)
    final = res.stages[-1].domain
    assert res.domain is final
    assert any((s.domain.skeleton != final.skeleton).any() for s in res.stages)
    for s, jets, tv, bands in zip(res.stages, res.samples_by_stage, res.tv_by_stage,
                                  res.bands_by_stage, strict=True):
        marked, want_jets = sample_jets(s.v, final)
        assert marked == final
        want = (want_jets, apply_operator(sys, final, want_jets),
                *_band_functions(s.band_lo, s.band_hi, final, res.tiling.i_cells))
        for g, w in zip((jets, tv, *bands), want, strict=True):
            assert g.shape == w.shape == (len(w), (~final.skeleton).sum())
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_scheme_convergence_rejects_stage_skeleton_outside_final(res_cubic2):
    # a moved sample keeps its own values off the final skeleton, which are
    # V_n's only where no cell boundary of V_n is left unmarked there; the
    # final domain is the last samples', so stages out of order must raise
    res = res_cubic2
    first, last = res.stages[0], res.stages[-1]
    assert (last.domain.skeleton & ~first.domain.skeleton).any()
    with pytest.raises(ValueError, match="does not contain every stage skeleton"):
        scheme_convergence(_cubic(), [last.samples, first.samples], res.tiling.radii, 0.4)


def test_write_artifacts_completes_each_stage_once(res_cubic2, monkeypatch, tmp_path):
    # the one completion of stage data left: the CSV writer completes every
    # stage, stage N too, once and in the same way, one stacked completion
    # on the final domain of all its rows, scattered at its own off-skeleton
    # points; without samples it completes none
    from ordercomplete import cli

    res = res_cubic2
    seen = []

    def recorded(domain, where, rows):
        seen.append((domain, where, len(rows)))
        return complete(domain, where, rows)

    monkeypatch.setattr(cli, "complete", recorded)
    monkeypatch.setattr(cli, "write_atomic", lambda path, content: None)
    monkeypatch.setattr(cli, "_summary_text", lambda cert, global_cells: "")
    gp = global_pair(_cubic(), GridDomain([0.0], [3.0], (129,)), 0.4)
    cli._write_artifacts(tmp_path / "bare", _cubic(), gp, res, {}, False)
    assert seen == []
    cli._write_artifacts(tmp_path / "full", _cubic(), gp, res, {}, True)
    M, K = _cubic().unknown_count, _cubic().K
    assert len(seen) == len(res.stages)
    for (domain, where, count), s in zip(seen, res.stages):
        assert domain is res.domain and count == 3 * M + K
        assert np.array_equal(where, ~s.domain.skeleton)


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


# ---------------------------------------------------------------------------
# per-cell random streams


@pytest.fixture(scope="module")
def res_streams():
    # F = u' is onto with unit gain, so each witnessed radius lies below the
    # jet ball's radius eps_max = 1 and depends on its probe's draws
    return run_scheme(_affine(), GridDomain([0.0], [1.0], (65,)), 0.4, 2, seed=7)


def _coupled_k2():
    """u1' + u2 = f1, u2' - u1 + u2^3 = f2 with u = (sin x, cos x): K = 2."""
    return PdeSystem(1, 2, 1, ["u[1,(1)] + u[2,(0)]", "u[2,(1)] - u[1,(0)] + u[2,(0)]^3"],
                     ["2*cos(x1)", "-2*sin(x1) + cos(x1)^3"], [0.0], [3.0])


def _probe_rows(sys, tiling, jets, gamma, seed, rows):
    """The openness probe of run_scheme's stage 1 on the given I-cells, one
    check_assumption_open call over them, each on its stream (PROBE, ci)."""
    rows = list(rows)
    return check_assumption_open(
        sys, tiling.anchors[rows], jets[rows],
        [np.linalg.norm(hi - lo) / 2.0 for lo, hi in tiling.i_cells[rows]], 1.0,
        stream=lambda row: _stream(seed, PROBE, rows[row]),
        target=_targets(sys, tiling.anchors[rows], gamma, 1))


_STREAM_RUNS = {
    # F = u' is onto with unit gain, so each witnessed radius lies below the
    # jet ball's radius eps_max = 1 and depends on its probe's draws
    "affine": (_affine, GridDomain([0.0], [1.0], (65,)), 2),
    "transport2d": (lambda: _transport(2), GridDomain([0.0] * 2, [1.0] * 2, (33, 33)), 1),
    "coupled": (_coupled_k2, GridDomain([0.0], [3.0], (129,)), 1),
    # the jet balls of some anchors reach u <= 0, where log faults
    "log": (lambda: _transport(1, "log"), GridDomain([0.0], [1.0], (65,)), 1),
}


def test_scheme_radius_is_a_lone_probe_on_its_own_stream(monkeypatch):
    # each radius of a run, whatever the probe's block of rows, is that of
    # the anchor's probe alone on its stream (PROBE, ci), bit for bit
    from ordercomplete import pde

    for name, (make, dom, N) in _STREAM_RUNS.items():
        sys1 = make()
        res = run_scheme(sys1, dom, 0.4, N, seed=7)
        t = res.tiling
        every = range(len(t.i_cells))
        lone = [_probe_rows(sys1, t, t.jets, 0.4, 7, [ci])[0] for ci in reversed(every)][::-1]
        assert np.array_equal(t.radii, [min(ev.witnessed_radius, 1.0) for ev in lone]), name
        for block in (1, len(t.i_cells)):
            monkeypatch.setattr(pde, "_BLOCK_ROWS", block)
            assert _probe_rows(sys1, t, t.jets, 0.4, 7, every) == lone, (name, block)
        monkeypatch.undo()
        other = [_probe_rows(sys1, t, t.jets, 0.4, 8, [ci])[0] for ci in every]
        assert all(a.margin_min != b.margin_min for a, b in zip(lone, other, strict=True))
        if name == "affine":
            assert np.all(t.radii < 1.0)
        if name == "transport2d":
            assert len(lone) == 256
        if name == "coupled":
            assert sys1.K == 2 and np.any(t.radii < 1.0)
        if name == "log":
            assert any(0 < ev.samples_used < 400 for ev in lone)


def test_run_scheme_fails_at_the_lowest_unsupported_anchor(monkeypatch):
    # with the 2D log system the probe finds anchors 141, 159 and 208
    # unsupported at seed 7; the error names the lowest, as the one-anchor
    # loop of earlier versions did, with the same message
    from ordercomplete import solver

    sys2 = _transport(2, "log")
    probed = []

    def recorded(*args, **kwargs):
        evidence = check_assumption_open(*args, **kwargs)
        probed.extend(evidence)
        return evidence

    monkeypatch.setattr(solver, "check_assumption_open", recorded)
    with pytest.raises(ConstructionError) as err:
        run_scheme(sys2, GridDomain([0.0] * 2, [1.0] * 2, (33, 33)), 0.4, 1, seed=7)
    assert (err.value.stage, err.value.cell) == (1, 141)
    assert str(err.value) == (
        "openness assumption unsupported at anchor (0.53125, 0.84375) "
        "(margin -4.234e-01); stage=1; cell=141")
    assert [ci for ci, ev in enumerate(probed) if not ev.supported] == [141, 159, 208]
    assert sum(0 < ev.samples_used < 400 for ev in probed) > 0


def test_run_scheme_probe_deltas_are_per_row_norms(monkeypatch):
    # each anchor's probe radius bound is half its I-cell's diagonal, as
    # np.linalg.norm of the one row gives it; on this box a norm along
    # axis 1 of all rows rounds differently on some rows
    from ordercomplete import solver

    class Probed(Exception):
        pass

    deltas = []

    def recorded(sys, x, jets, delta, *args, **kwargs):
        deltas.append(np.asarray(delta))
        raise Probed

    monkeypatch.setattr(solver, "check_assumption_open", recorded)
    lo, hi = [0.1, -0.3], [0.7, 2.9]
    dom = GridDomain(lo, hi, (40, 40))
    with pytest.raises(Probed):
        run_scheme(PdeSystem(2, 1, 1, ["u[1,(1,0)] + u[1,(0,1)]"], ["1"], lo, hi),
                   dom, 0.4, 1)
    widths = np.diff(tile_domain(dom).i_cells, axis=1)[:, 0]
    want = [np.linalg.norm(w) / 2.0 for w in widths]
    (got,) = deltas
    assert np.array_equal(got, want)
    assert not np.array_equal(np.linalg.norm(widths, axis=1) / 2.0, want)


def test_run_scheme_fails_at_an_unsolvable_anchor_before_the_probe(monkeypatch):
    # u^2 + u'^2 = 0.5 - x has no solution where x > 0.5: the first such
    # anchor is I-cell 8, and the stage-1 error is raised before any
    # anchor is probed
    from ordercomplete import solver

    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]^2 + u[1,(1)]^2"], ["0.7 - x1"], [0.0], [1.0])
    rows = []

    def recorded(sys, x, *args, **kwargs):
        rows.append(len(x))
        return check_assumption_open(sys, x, *args, **kwargs)

    monkeypatch.setattr(solver, "check_assumption_open", recorded)
    with pytest.raises(ConstructionError, match="stage-1 anchor jet unsolvable") as err:
        run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 1, seed=7)
    assert (err.value.stage, err.value.cell) == (1, 8)
    assert rows == []


def test_probe_memory_is_bounded_by_its_block():
    # all 256 anchors of a 2D problem at once measured 27 MB of temporaries
    # (49 MB with a (256, 400, 36) projection); a block of rows stays
    # under 1 MB
    import tracemalloc

    sys2 = _transport(2)
    tiling = tile_domain(GridDomain([0.0] * 2, [1.0] * 2, (33, 33)))
    jets = jet_solve(sys2, tiling.anchors, _targets(sys2, tiling.anchors, 0.4, 1),
                     stream=_rng0)
    tracemalloc.start()
    try:
        probed = _probe_rows(sys2, tiling, jets, 0.4, 7, range(256))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(probed) == 256
    assert peak < 3_000_000


def test_stage1_takes_the_probe_jets(res_streams):
    res = res_streams
    sys1 = _affine()
    assert np.array_equal(res.stages[0].i_jets, res.tiling.jets)
    for a, jet in zip(res.tiling.anchors, res.tiling.jets, strict=True):
        assert np.array_equal(jet_solve(sys1, [a], _targets(sys1, [a], 0.4, 1),
                                        stream=_rng0)[0], jet)


def test_jcell_multistart_depends_only_on_its_own_cell(monkeypatch):
    # every J-cell solve starts from a NaN seed, so each one falls back to
    # the multistart; re-solved alone, in reverse order, on the stream of
    # its own key, each gives the jet it gave inside refine
    from ordercomplete import solver

    sys1 = _transport(1)
    dom = GridDomain([0.0], [1.0], (129,))
    tiling = _probed(sys1, _tiling(dom.lo, dom.hi, 0.25), 0.05,
                     np.full(4, 0.2), seed=3)
    nan_seed = np.full(sys1.unknown_count, np.nan)
    solved = {}

    def from_nan(sys, x0, target, seed=None, constraint_box=None, **kwargs):
        flat = jet_solve(sys, x0, target, np.full(np.shape(seed), np.nan), constraint_box,
                         **kwargs)
        for x, t, box, jet in zip(x0, target, constraint_box, flat, strict=True):
            solved[tuple(x)] = (t, box, jet)
        return flat

    monkeypatch.setattr(solver, "jet_solve", from_nan)
    st = refine(sys1, dom, tiling, None, 1, 0.05, seed=3)
    monkeypatch.undo()
    assert sum(map(len, st.j_cells)) < len(solved)  # some cells were split
    moved = 0
    for ci, cells in reversed(list(enumerate(st.j_cells))):
        for c in reversed(cells):
            (center,) = _centers(c[None])
            target, box, want = solved[tuple(center)]

            def alone(seed):
                def stream(_row):
                    return _stream(seed, JCELL, 1, ci, *_cell_key(c[None])[0])
                return jet_solve(sys1, [center], [target], [nan_seed], box[None],
                                 stream=stream)[0]

            assert np.array_equal(alone(3), want)
            moved += not np.array_equal(alone(4), want)
    assert moved > 0  # the multistart's draws decide the jet


def test_run_scheme_solves_each_stage1_anchor_once(monkeypatch):
    # per stage, the subdivision solves every cell it ever holds: L accepted
    # cells grown from R roots by binary splits take L + (L - R) solves; a
    # stage n > 1 also solves its I-cell anchors, while stage 1 takes the
    # probe's (which solved each stage-1 anchor a second time before). A
    # solve is one row of a jet_solve call.
    from ordercomplete import solver

    calls = []

    def counted(*args, **kwargs):
        calls.extend(args[1])
        return jet_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "jet_solve", counted)
    res = run_scheme(_cubic(), GridDomain([0.0], [3.0], (129,)), 0.4, 3)
    num_i = len(res.tiling.i_cells)
    want = num_i  # the probe
    roots = num_i
    for st in res.stages:
        leaves = sum(map(len, st.j_cells))
        want += (num_i if st.n > 1 else 0) + leaves + (leaves - roots)
        roots = leaves
    assert len(calls) == want
