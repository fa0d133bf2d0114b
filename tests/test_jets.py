"""Multi-index order, Taylor jets, cells, piecewise assembly, serialization."""

import itertools
import math

import numpy as np
import pytest

from ordercomplete.grids import GridDomain, is_nowhere_dense, normalize
from ordercomplete.jets import (
    Cell,
    Jet,
    MultiIndexSet,
    TaylorPoly,
    TilingError,
    _check_tiling,
    _classify_grid,
    assemble,
    deriv_eval,
    jet_size,
    poly_from_dict,
    poly_to_dict,
    read_poly_json,
    sample_component,
    taylor_poly,
    write_poly_json,
)


# ---------------------------------------------------------------------------
# multi-index bookkeeping


def test_graded_lex_order_2d():
    mis = MultiIndexSet(2, 2)
    assert mis.alphas == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert mis.count == 6  # C(2+2, 2)


def test_count_is_binomial():
    for n in (1, 2, 3):
        for m in (0, 1, 2, 3):
            mis = MultiIndexSet(n, m)
            assert mis.count == math.comb(n + m, m)
            assert jet_size(2, mis) == 2 * mis.count


def test_index_lookup_and_membership():
    mis = MultiIndexSet(2, 1)
    assert mis.index((1, 0)) == 2
    assert (0, 1) in mis and (2, 0) not in mis
    with pytest.raises(KeyError):
        mis.index((2, 0))


def test_jet_accessors_and_flat_round_trip():
    mis = MultiIndexSet(1, 1)
    jet = Jet([0.5], [[1.0, 2.0], [3.0, 4.0]], mis)
    assert jet.K == 2
    assert jet[(1, (0,))] == 1.0 and jet[(2, (1,))] == 4.0
    back = Jet.from_flat([0.5], 2, mis, jet.flat())
    assert np.array_equal(back.values, jet.values)
    with pytest.raises(ValueError):
        Jet([0.5], [[np.inf, 0.0]], mis)


# ---------------------------------------------------------------------------
# Taylor polynomials


def test_taylor_1d_quadratic():
    mis = MultiIndexSet(1, 2)
    jet = Jet([0.0], [[1.0, 2.0, 6.0]], mis)
    (p,) = taylor_poly(jet)
    # P(x) = 1 + 2x + 3x^2
    for x in (-1.0, 0.0, 0.5, 2.0):
        assert p.value([x]) == pytest.approx(1.0 + 2.0 * x + 3.0 * x * x, rel=1e-15)
    assert deriv_eval(p, (2,), [123.0]) == 6.0
    assert deriv_eval(p, (0,), [2.0]) == pytest.approx(17.0)


def test_taylor_zero_jet_is_zero():
    mis = MultiIndexSet(2, 2)
    (p,) = taylor_poly(Jet([0.0, 0.0], np.zeros((1, mis.count)), mis))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(20, 2))
    assert np.all(p.deriv_many((0, 0), pts) == 0.0)


def test_taylor_2d_plane_fd_oracle():
    # P(x,y) = 2(x-1) - (y-1); both partials checked by central differences
    mis = MultiIndexSet(2, 1)
    assert mis.alphas == ((0, 0), (0, 1), (1, 0))
    jet = Jet([1.0, 1.0], [[0.0, -1.0, 2.0]], mis)
    (p,) = taylor_poly(jet)
    assert p.value([2.0, 3.0]) == pytest.approx(2.0 - 2.0)
    h = 1e-6
    fd_x = (p.value([1.0 + h, 1.0]) - p.value([1.0 - h, 1.0])) / (2 * h)
    fd_y = (p.value([1.0, 1.0 + h]) - p.value([1.0, 1.0 - h])) / (2 * h)
    assert fd_x == pytest.approx(2.0, rel=1e-9)
    assert fd_y == pytest.approx(-1.0, rel=1e-9)
    assert deriv_eval(p, (1, 0), [1.0, 1.0]) == 2.0
    assert deriv_eval(p, (0, 1), [1.0, 1.0]) == -1.0


def test_deriv_eval_random_cubics_fd_oracle():
    rng = np.random.default_rng(5)
    mis = MultiIndexSet(1, 3)
    for _ in range(100):
        coeffs = rng.uniform(-3, 3, mis.count)
        p = TaylorPoly([0.0], coeffs, mis)
        x = float(rng.uniform(-1.5, 1.5))
        h = 1e-2
        vals = {k: p.value([x + k * h]) for k in (-2, -1, 0, 1, 2)}
        # five-point first derivative: truncation vanishes for degree <= 4
        fd1 = (8 * (vals[1] - vals[-1]) - (vals[2] - vals[-2])) / (12 * h)
        fd2 = (vals[1] - 2 * vals[0] + vals[-1]) / (h * h)
        fd3 = (vals[2] - 2 * vals[1] + 2 * vals[-1] - vals[-2]) / (2 * h**3)
        assert deriv_eval(p, (1,), [x]) == pytest.approx(fd1, rel=1e-6, abs=1e-6)
        assert deriv_eval(p, (2,), [x]) == pytest.approx(fd2, rel=1e-6, abs=1e-6)
        assert deriv_eval(p, (3,), [x]) == pytest.approx(fd3, rel=1e-6, abs=1e-6)


def test_deriv_order_above_m_rejected():
    mis = MultiIndexSet(1, 2)
    p = TaylorPoly([0.0], [1.0, 0.0, 0.0], mis)
    with pytest.raises(ValueError):
        deriv_eval(p, (3,), [0.0])


def test_jet_matching_exact_at_anchor():
    # the stored coefficient IS the derivative at the anchor; 4 ULPs allowed,
    # the construction achieves 0
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        mis = MultiIndexSet(n, m)
        x0 = rng.uniform(-2, 2, n)
        vals = rng.uniform(-10, 10, (1, mis.count))
        (p,) = taylor_poly(Jet(x0, vals, mis))
        for k, alpha in enumerate(mis.alphas):
            got = deriv_eval(p, alpha, x0)
            want = vals[0, k]
            assert abs(got - want) <= 4 * math.ulp(max(abs(want), 1.0))


# ---------------------------------------------------------------------------
# cells


def test_cell_geometry_and_split():
    c = Cell([0.0, 0.0], [1.0, 2.0])
    assert np.array_equal(c.center, [0.5, 1.0])
    assert c.volume() == 2.0
    assert c.diameter() == pytest.approx(math.sqrt(5.0))
    kids = c.split()
    assert len(kids) == 4
    assert sum(k.volume() for k in kids) == pytest.approx(c.volume())
    for k in kids:
        assert np.all(np.asarray(k.lo) >= 0.0) and np.all(np.asarray(k.hi) <= 2.0)
    with pytest.raises(ValueError):
        Cell([0.0], [0.0])


# ---------------------------------------------------------------------------
# assembly and sampling


def _const_poly(mis, c):
    coeffs = np.zeros(mis.count)
    coeffs[0] = c
    return TaylorPoly(np.zeros(mis.n), coeffs, mis)


def test_assemble_single_cell_boundary_skeleton():
    mis = MultiIndexSet(1, 1)
    dom = GridDomain([0.0], [1.0], (9,))
    v, marked = assemble([Cell([0.0], [1.0])], [[_const_poly(mis, 2.0)]], dom)
    expect = np.zeros(9, dtype=bool)
    expect[0] = expect[-1] = True
    assert np.array_equal(marked.skeleton, expect)


def test_assemble_two_cell_step():
    mis = MultiIndexSet(1, 1)
    dom = GridDomain([-1.0], [1.0], (9,))
    cells = [Cell([-1.0], [0.0]), Cell([0.0], [1.0])]
    polys = [[_const_poly(mis, 0.0)], [_const_poly(mis, 1.0)]]
    v, marked = assemble(cells, polys, dom)
    # jump point, plus the outer box boundary
    assert marked.skeleton[4] and marked.skeleton[0] and marked.skeleton[-1]
    assert marked.skeleton.sum() == 3
    s = sample_component(v, 1, (0,), marked)
    assert s.normalized
    x = marked.axis(0)
    off = ~marked.skeleton
    assert np.array_equal(s.values[off], np.where(x[off] < 0.0, 0.0, 1.0))
    assert s.values[4] == 0.0  # normalize rule at the jump: min of sides
    d = sample_component(v, 1, (1,), marked)
    assert np.all(d.values == 0.0)


def test_assemble_dyadic_2x2_cross():
    mis = MultiIndexSet(2, 1)
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (9, 9))
    base = Cell([0.0, 0.0], [1.0, 1.0])
    cells = base.split()
    polys = [[_const_poly(mis, float(k))] for k in range(4)]
    v, marked = assemble(cells, polys, dom)
    skel = marked.skeleton
    # interior cross at index 4, full frame at the box boundary
    assert skel[4, :].all() and skel[:, 4].all()
    assert skel[0, :].all() and skel[-1, :].all()
    assert skel[:, 0].all() and skel[:, -1].all()
    assert is_nowhere_dense(skel)
    s = sample_component(v, 1, (0, 0), marked)
    assert np.array_equal(s.values, normalize(s).values)


def test_assemble_rejects_overlap_and_gap():
    mis = MultiIndexSet(1, 1)
    dom = GridDomain([0.0], [1.0], (9,))
    p = [[_const_poly(mis, 0.0)], [_const_poly(mis, 1.0)]]
    with pytest.raises(TilingError):
        assemble([Cell([0.0], [0.7]), Cell([0.5], [1.0])], p, dom)
    with pytest.raises(TilingError):
        assemble([Cell([0.0], [0.25]), Cell([0.5], [1.0])], p, dom)
    # volumes sum to 1 and the overlap [0.26, 0.3] holds no lattice point
    sliver = [Cell([0.0], [0.5]), Cell([0.26], [0.3]), Cell([0.54], [1.0])]
    with pytest.raises(TilingError, match="overlapping interiors"):
        assemble(sliver, p + [[_const_poly(mis, 2.0)]], dom)


def test_empty_cell_list_is_a_tiling_error():
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (5, 5))
    with pytest.raises(TilingError):
        assemble([], [], dom)
    with pytest.raises(TilingError):
        _classify_grid([], dom)
    with pytest.raises(TilingError):
        _check_tiling([], dom.lo, dom.hi)


# ---------------------------------------------------------------------------
# index-arithmetic ownership against the per-cell mask reference


def _reference_classify(cells, domain):
    """The per-cell full-lattice mask classifier the index arithmetic replaced."""
    n = domain.ndim
    tol = 1e-9 * (domain.hi - domain.lo)
    owner = np.full(domain.shape, -1, dtype=int)
    boundary = np.zeros(domain.shape, dtype=bool)
    axes = [domain.axis(d) for d in range(n)]

    def outer_and(masks):
        out = masks[0]
        for m in masks[1:]:
            out = out[..., None] & m
        return out

    for ci, cell in enumerate(cells):
        inside = outer_and([(axes[d] > cell.lo[d] + tol[d]) & (axes[d] < cell.hi[d] - tol[d])
                            for d in range(n)])
        closed = outer_and([(axes[d] >= cell.lo[d] - tol[d]) & (axes[d] <= cell.hi[d] + tol[d])
                            for d in range(n)])
        near_any = np.zeros(domain.shape, dtype=bool)
        for d in range(n):
            m = (np.abs(axes[d] - cell.lo[d]) <= tol[d]) | (np.abs(axes[d] - cell.hi[d]) <= tol[d])
            near_any |= m[tuple(slice(None) if e == d else None for e in range(n))]
        if (inside & (owner >= 0)).any():
            raise TilingError("overlapping cell interiors")
        owner[inside] = ci
        boundary |= closed & near_any
    uncovered = (owner < 0) & ~boundary
    if uncovered.any():
        idx = tuple(int(v) for v in np.argwhere(uncovered)[0])
        raise TilingError(f"tiling does not cover lattice point {idx}")
    owner[boundary] = -1
    return owner, boundary


def _reference_check_tiling(cells, lo, hi):
    """The pairwise O(cells^2) overlap test the face-grid painting replaced."""
    vol = sum(c.volume() for c in cells)
    box_vol = float(np.prod(hi - lo))
    if not math.isclose(vol, box_vol, rel_tol=1e-9):
        raise TilingError(f"cell volumes sum to {vol}, box volume is {box_vol}")
    for a, b in itertools.combinations(cells, 2):
        if all(max(a.lo[d], b.lo[d]) < min(a.hi[d], b.hi[d]) - 1e-12 * (hi[d] - lo[d])
               for d in range(len(a.lo))):
            raise TilingError(f"cells {a} and {b} have overlapping interiors")


def _outcome(fn, *args):
    """Result arrays, or the kind of TilingError raised (gap messages name
    the first uncovered point in C order, so they compare in full)."""
    try:
        return fn(*args)
    except TilingError as e:
        msg = str(e)
        if "overlapping" in msg:
            return "overlap"
        return "volume" if "volumes" in msg else msg


def _random_tiling(rng, n, mutate=True):
    """Dyadic refinements of a random grid of I-cells over a random box,
    then (with mutate) one mutation: a shifted face, a translated, removed
    or duplicated cell, or none."""
    lo = rng.uniform(-1.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    counts = rng.integers(1, 4, n)
    edges = [np.linspace(lo[d], hi[d], counts[d] + 1) for d in range(n)]
    cells = [Cell([edges[d][i[d]] for d in range(n)], [edges[d][i[d] + 1] for d in range(n)])
             for i in itertools.product(*(range(c) for c in counts))]
    for _ in range(int(rng.integers(0, 12 if n < 3 else 6))):
        k = int(rng.integers(len(cells)))
        cells[k:k + 1] = cells[k].split()
    shape = tuple(int(s) for s in rng.integers(3, 41, n))
    k = int(rng.integers(len(cells)))
    kind = rng.integers(5) if mutate else 0
    c = cells[k]
    if kind == 1 or kind == 2:
        d = int(rng.integers(n))
        step = float(rng.choice([-1, 1]) * rng.choice([0.5, 0.25, 1.0 / shape[d], 1e-3]))
        step *= c.widths[d]
        new_lo, new_hi = list(c.lo), list(c.hi)
        if kind == 1:  # shift the upper face
            new_hi[d] += step
        else:  # translate the cell, keeping the volume sum
            new_lo[d] += step
            new_hi[d] += step
        cells[k] = Cell(new_lo, new_hi)
    elif kind == 3:
        del cells[k]
    elif kind == 4:
        cells.append(c)
    return cells, GridDomain(lo, hi, shape)


@pytest.mark.parametrize("n,cases", [(1, 200), (2, 200), (3, 60)])
def test_classify_grid_matches_mask_reference(n, cases):
    rng = np.random.default_rng(1000 + n)
    seen = set()
    for _ in range(cases):
        cells, dom = _random_tiling(rng, n)
        want = _outcome(_reference_classify, cells, dom)
        got = _outcome(_classify_grid, cells, dom)
        if isinstance(want, tuple):
            assert isinstance(got, tuple), got
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            seen.add("ok")
        else:
            assert got == want
            seen.add("overlap" if want == "overlap" else "gap")
        want = _outcome(_reference_check_tiling, cells, dom.lo, dom.hi)
        got = _outcome(_check_tiling, cells, dom.lo, dom.hi)
        assert got == want
        seen.add(f"tiling {want}")
    # the mutations reach every branch of both checks
    assert seen == {"ok", "overlap", "gap", "tiling None", "tiling overlap", "tiling volume"}


def _reference_deriv_many(p, alpha, pts):
    """Per-polynomial Taylor sum with zero coefficients skipped."""
    dx = pts - p.anchor
    out = np.zeros(pts.shape[0])
    for gamma in MultiIndexSet(p.mis.n, p.mis.m - sum(alpha)):
        c = p.coeffs[p.mis.index(tuple(g + a for g, a in zip(gamma, alpha)))]
        if c == 0.0:
            continue
        mono = np.ones(pts.shape[0])
        for d, g in enumerate(gamma):
            if g:
                mono = mono * dx[:, d] ** g
        out += (c / math.prod(math.factorial(g) for g in gamma)) * mono
    return out


def test_gathered_sampling_is_bit_equal_to_per_cell_evaluation():
    rng = np.random.default_rng(77)
    checked = 0
    for n, m in ((1, 3), (2, 2), (2, 3), (3, 2)):
        mis = MultiIndexSet(n, m)
        for _ in range(3):
            cells, dom = _random_tiling(rng, n, mutate=False)
            polys = []
            for c in cells:
                coeffs = rng.uniform(-5.0, 5.0, (2, mis.count))
                coeffs[rng.random((2, mis.count)) < 0.3] = 0.0
                anchor = c.center + rng.uniform(-0.1, 0.1, n)
                polys.append([TaylorPoly(anchor, coeffs[i], mis) for i in range(2)])
            try:
                v, marked = assemble(cells, polys, dom)
            except ValueError:  # cells finer than the lattice: dense skeleton
                continue
            owner, _ = _reference_classify(cells, dom)
            coords = np.stack([g.reshape(-1) for g in marked.meshes()], axis=1)
            flat_owner = owner.reshape(-1)
            for i, alpha in itertools.product((1, 2), mis.alphas):
                got = sample_component(v, i, alpha, marked).values.reshape(-1)
                for ci in range(len(cells)):
                    sel = flat_owner == ci
                    p = polys[ci][i - 1]
                    want = _reference_deriv_many(p, alpha, coords[sel])
                    assert np.array_equal(got[sel], want)
                    assert np.array_equal(p.deriv_many(alpha, coords[sel]), want)
            checked += 1
    assert checked >= 8


def test_sample_component_single_cell_smooth():
    mis = MultiIndexSet(1, 2)
    dom = GridDomain([-1.0], [1.0], (17,))
    jet = Jet([0.0], [[1.0, 2.0, 6.0]], mis)
    v, marked = assemble([Cell([-1.0], [1.0])], [taylor_poly(jet)], dom)
    s = sample_component(v, 1, (0,), marked)
    interior = ~marked.skeleton
    x = marked.axis(0)
    assert s.values[interior] == pytest.approx(1.0 + 2.0 * x[interior] + 3.0 * x[interior] ** 2)
    assert is_nowhere_dense(marked.skeleton)


# ---------------------------------------------------------------------------
# serialization


def test_poly_json_round_trip(tmp_path):
    mis = MultiIndexSet(2, 1)
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (9, 9))
    cells = Cell([0.0, 0.0], [1.0, 1.0]).split()
    rng = np.random.default_rng(71)
    polys = [
        [TaylorPoly(c.center, rng.normal(size=mis.count), mis) for _ in range(1)]
        for c in cells
    ]
    v, _ = assemble(cells, polys, dom)
    d = poly_to_dict(v)
    v2 = poly_from_dict(d)
    assert v2.space_dim == v.space_dim and v2.order == v.order
    for c1, c2 in zip(v.cells, v2.cells):
        assert c1 == c2
    for ps1, ps2 in zip(v.polys, v2.polys):
        for p1, p2 in zip(ps1, ps2):
            assert np.array_equal(p1.coeffs, p2.coeffs)
            assert np.array_equal(p1.anchor, p2.anchor)
    path = tmp_path / "v.json"
    write_poly_json(v, path)
    v3 = read_poly_json(path)
    assert all(c1 == c3 for c1, c3 in zip(v.cells, v3.cells))
    pts = rng.uniform(0, 1, size=(50, 2))
    for ci in range(len(v.cells)):
        assert np.array_equal(
            v.polys[ci][0].deriv_many((0, 0), pts), v3.polys[ci][0].deriv_many((0, 0), pts)
        )
