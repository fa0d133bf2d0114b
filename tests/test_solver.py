"""Jet solving, local brackets, tiling, the global pair, and the staged
refinement scheme."""

import math

import numpy as np
import pytest

from ordercomplete.grids import GridDomain
from ordercomplete.jets import MultiIndexSet, TilingError, sample_component
from ordercomplete.pde import PdeSystem, apply_operator
from ordercomplete.solver import (
    ConstructionError,
    NoSolutionError,
    _band_functions,
    global_pair,
    jet_solve,
    local_lower,
    local_upper,
    refine,
    run_scheme,
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


# ---------------------------------------------------------------------------
# global approximate pair


def test_global_pair_affine_single_cell():
    dom = GridDomain([0.0], [1.0], (17,))
    sys1 = _affine()
    gp = global_pair(sys1, dom, 0.5)
    assert len(gp.cells) == 1
    (tu,) = apply_operator(sys1, gp.lower, gp.domain)
    (tv,) = apply_operator(sys1, gp.upper, gp.domain)
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
    (tu,) = apply_operator(sys1, gp.lower, gp.domain)
    (tv,) = apply_operator(sys1, gp.upper, gp.domain)
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
        (tv,) = apply_operator(sys1, s.v, s.domain)
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


def test_scheme_band_containment_oracle(res_cubic2):
    # lambda <= sampled D^alpha V_n <= mu off skeleton, re-derived via
    # sample_component rather than trusting the stored certificates
    res = res_cubic2
    mis = MultiIndexSet(1, 1)
    for s in res.stages:
        bands = _band_functions(s.band_lo, s.band_hi, s.domain, res.tiling.i_cells)
        for k, alpha in enumerate(mis.alphas):
            lo_f, hi_f = bands[k]
            samp = sample_component(s.v, 1, alpha, s.domain)
            off = ~s.domain.skeleton
            assert np.all(samp.values[off] >= lo_f.values[off])
            assert np.all(samp.values[off] <= hi_f.values[off])


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
