"""Multi-index order, Taylor jets, cells, piecewise assembly, serialization."""

import bisect
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordercomplete import grids
from ordercomplete.checker import tile_domain
from ordercomplete.grids import GridDomain, GridFunction, complete, is_nowhere_dense, normalize
from ordercomplete.jets import (
    Cell,
    CellsLeaf,
    MultiIndexSet,
    PiecewisePoly,
    TaylorPoly,
    TilingError,
    _centers,
    _check_tiling,
    _classify_grid,
    _interior_gather,
    _record_dtype,
    artifact_json,
    assemble,
    deriv_eval,
    read_poly_json,
    sample_jets,
    write_poly_json,
)
from ordercomplete.pde import PdeSystem
from ordercomplete.solver import _cell_polys, _children


def completed(marked: GridDomain, rows) -> list[GridFunction]:
    """Rows at the off-skeleton points of marked in C order, as
    jets.sample_jets and pde.apply_operator return them, completed across
    the skeleton by the normalize rule: one GridFunction per row."""
    return complete(marked, ~marked.skeleton, rows)


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


def test_graded_lex_order_matches_the_filtered_product():
    # the set is built from its own multi-indices, not by filtering all
    # (m + 1)^n exponent tuples, so a large n with a small m costs its count
    for n, m in itertools.product(range(1, 6), range(5)):
        want = sorted((a for a in itertools.product(range(m + 1), repeat=n) if sum(a) <= m),
                      key=lambda a: (sum(a), a))
        assert list(MultiIndexSet(n, m).alphas) == want, (n, m)
    assert MultiIndexSet(60, 1).count == 61


def test_index_lookup_and_membership():
    mis = MultiIndexSet(2, 1)
    assert mis.index((1, 0)) == 2
    assert (0, 1) in mis and (2, 0) not in mis
    with pytest.raises(KeyError):
        mis.index((2, 0))


def test_jet_accessors_and_flat_round_trip():
    # a flat jet row (component-major, graded-lex within) is written into the
    # coefficient array as is, anchored at its cell's center
    sys2 = PdeSystem(1, 2, 1, ["u[1,(1)]", "u[2,(1)]"], ["0", "0"], [0.0], [1.0])
    cells = np.array([[[0.0], [0.5]], [[0.5], [1.0]]])
    flat = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    v = _cell_polys(sys2, cells, flat)
    assert (v.space_dim, v.components, v.order) == (1, 2, 1)
    assert np.array_equal(v.coeffs.reshape(2, -1), flat)
    assert [[p.anchor.tolist() for p in ps] for ps in v.polys] == [[[0.25]] * 2, [[0.75]] * 2]
    for c, i, alpha in itertools.product(range(2), (1, 2), sys2.mis.alphas):
        k = sys2.flat_vars().index((i, alpha))
        assert deriv_eval(v.polys[c][i - 1], alpha, _centers(cells)[c]) == flat[c, k]


# ---------------------------------------------------------------------------
# Taylor polynomials


def test_taylor_1d_quadratic():
    mis = MultiIndexSet(1, 2)
    p = TaylorPoly([0.0], [1.0, 2.0, 6.0], mis)
    # P(x) = 1 + 2x + 3x^2
    for x in (-1.0, 0.0, 0.5, 2.0):
        assert deriv_eval(p, (0,), [x]) == pytest.approx(1.0 + 2.0 * x + 3.0 * x * x, rel=1e-15)
    assert deriv_eval(p, (2,), [123.0]) == 6.0
    assert deriv_eval(p, (0,), [2.0]) == pytest.approx(17.0)


def test_taylor_zero_jet_is_zero():
    mis = MultiIndexSet(2, 2)
    p = TaylorPoly([0.0, 0.0], np.zeros(mis.count), mis)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(20, 2))
    assert np.all(p.deriv_many((0, 0), pts) == 0.0)


def test_taylor_2d_plane_fd_oracle():
    # P(x,y) = 2(x-1) - (y-1); both partials checked by central differences
    mis = MultiIndexSet(2, 1)
    assert mis.alphas == ((0, 0), (0, 1), (1, 0))
    p = TaylorPoly([1.0, 1.0], [0.0, -1.0, 2.0], mis)
    assert deriv_eval(p, (0, 0), [2.0, 3.0]) == pytest.approx(2.0 - 2.0)
    h = 1e-6
    fd_x = (deriv_eval(p, (0, 0), [1.0 + h, 1.0])
            - deriv_eval(p, (0, 0), [1.0 - h, 1.0])) / (2 * h)
    fd_y = (deriv_eval(p, (0, 0), [1.0, 1.0 + h])
            - deriv_eval(p, (0, 0), [1.0, 1.0 - h])) / (2 * h)
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
        vals = {k: deriv_eval(p, (0,), [x + k * h]) for k in (-2, -1, 0, 1, 2)}
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
        p = TaylorPoly(x0, vals[0], mis)
        for k, alpha in enumerate(mis.alphas):
            got = deriv_eval(p, alpha, x0)
            want = vals[0, k]
            assert abs(got - want) <= 4 * math.ulp(max(abs(want), 1.0))


# ---------------------------------------------------------------------------
# cells


def _reference_split(cell):
    """The per-cell dyadic split the broadcast children replaced."""
    lo, hi = cell
    mids = 0.5 * (lo + hi)
    return [np.array([[lo[d] if c == 0 else mids[d] for d, c in enumerate(corner)],
                      [mids[d] if c == 0 else hi[d] for d, c in enumerate(corner)]])
            for corner in itertools.product((0, 1), repeat=len(lo))]


def test_cell_geometry_and_split():
    c = np.array([[[0.0, 0.0], [1.0, 2.0]]])
    assert np.array_equal(_centers(c), [[0.5, 1.0]])
    kids = _children(c)
    # corner order of itertools.product((0, 1), repeat=2): the last axis fastest
    assert np.array_equal(kids[:, 0], [[0.0, 0.0], [0.0, 1.0], [0.5, 0.0], [0.5, 1.0]])
    assert np.array_equal(kids[:, 1], [[0.5, 1.0], [0.5, 2.0], [1.0, 1.0], [1.0, 2.0]])
    _check_tiling(kids, c[0, 0], c[0, 1])  # the children tile their parent
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        lo = rng.uniform(-3.0, 3.0, (5, n))
        cells = np.stack([lo, lo + rng.uniform(1e-3, 2.0, (5, n))], axis=1)
        want = [k for cell in cells for k in _reference_split(cell)]
        assert np.array_equal(_children(cells), want)


def _records(n=1, K=1, count=2, **change) -> np.ndarray:
    """One cell's polynomial records, [0, 1]^n by default, with fields changed."""
    rec = np.zeros(1, _record_dtype(n, K, count))
    rec["hi"] = 1.0
    for key, value in change.items():
        rec[key] = value
    return rec


@pytest.mark.parametrize("rec, message", [
    (np.zeros(1, [("lo", "<f8", (1,)), ("hi", "<f8", (2,)), ("coeffs", "<f8", (1, 2))]),
     "not a 1-D array of polynomial records"),
    (_records(hi=0.0), "empty extent"),
    (_records(lo=np.nan), "NaN"),
    (_records(hi=np.inf), "must be finite"),
    (_records(n=2, count=2), "not a 1-D array of polynomial records"),
], ids=["lo_hi_lengths", "empty_extent", "nan", "inf", "coeff_size"])
def test_read_poly_json_rejects_malformed_cells(tmp_path, rec, message):
    # a count of 2 is no multi-index count in two variables (1, 3, 6, ...)
    path = tmp_path / "poly.npy"
    np.save(path, _records())
    assert read_poly_json(path).cells == [Cell((0.0,), (1.0,))]
    np.save(path, rec)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_poly_json(path)


# ---------------------------------------------------------------------------
# assembly and sampling


def _const_polys(mis, cells, consts):
    """One constant polynomial per cell of cells (C, 2, n)."""
    coeffs = np.zeros((len(cells), 1, mis.count))
    coeffs[:, 0, 0] = consts
    return PiecewisePoly(np.asarray(cells, dtype=float), coeffs, mis)


def test_assemble_single_cell_boundary_skeleton():
    mis = MultiIndexSet(1, 1)
    dom = GridDomain([0.0], [1.0], (9,))
    marked = assemble(_const_polys(mis, [[[0.0], [1.0]]], [2.0]), dom)
    expect = np.zeros(9, dtype=bool)
    expect[0] = expect[-1] = True
    assert np.array_equal(marked.skeleton, expect)


def test_assemble_two_cell_step():
    mis = MultiIndexSet(1, 1)
    dom = GridDomain([-1.0], [1.0], (9,))
    v = _const_polys(mis, [[[-1.0], [0.0]], [[0.0], [1.0]]], [0.0, 1.0])
    marked = assemble(v, dom)
    # jump point, plus the outer box boundary
    assert marked.skeleton[4] and marked.skeleton[0] and marked.skeleton[-1]
    assert marked.skeleton.sum() == 3
    s, d = completed(*sample_jets(v, marked))  # (1, (0,)) and (1, (1,))
    assert s.normalized
    x = marked.axis(0)
    off = ~marked.skeleton
    assert np.array_equal(s.values[off], np.where(x[off] < 0.0, 0.0, 1.0))
    assert s.values[4] == 0.0  # normalize rule at the jump: min of sides
    assert np.all(d.values == 0.0)


def test_assemble_dyadic_2x2_cross():
    mis = MultiIndexSet(2, 1)
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (9, 9))
    cells = _children(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    v = _const_polys(mis, cells, np.arange(4.0))
    skel = assemble(v, dom).skeleton
    # interior cross at index 4, full frame at the box boundary
    assert skel[4, :].all() and skel[:, 4].all()
    assert skel[0, :].all() and skel[-1, :].all()
    assert skel[:, 0].all() and skel[:, -1].all()
    assert is_nowhere_dense(skel)
    for s in completed(*sample_jets(v, dom.with_skeleton(skel))):
        assert np.array_equal(s.values, normalize(s).values)


def test_tiling_rejects_overlap_and_gap():
    dom = GridDomain([0.0], [1.0], (9,))
    with pytest.raises(TilingError, match="overlapping interiors"):
        _check_tiling(np.array([[[0.0], [0.7]], [[0.5], [1.0]]]), dom.lo, dom.hi)
    with pytest.raises(TilingError, match="hole"):
        _check_tiling(np.array([[[0.0], [0.25]], [[0.5], [1.0]]]), dom.lo, dom.hi)
    # the overlap [0.26, 0.3] holds no lattice point, nor does the hole
    # [0.5, 0.54]; the overlap is named first
    sliver = np.array([[[0.0], [0.5]], [[0.26], [0.3]], [[0.54], [1.0]]])
    with pytest.raises(TilingError, match="overlapping interiors"):
        _check_tiling(sliver, dom.lo, dom.hi)


@pytest.mark.parametrize("cells, shape, message", [
    ([[[0.0], [0.3]], [[0.31], [1.01]]], (9,), "cell 1 [[0.31], [1.01]]"),
    ([[[0.0, 0.0], [0.5, 1.0]], [[0.51, 0.0], [1.01, 1.0]]], (9, 9),
     "cell 1 [[0.51, 0.0], [1.01, 1.0]]"),
    ([[[-0.01], [0.49]], [[0.5], [1.0]]], (9,), "cell 0 [[-0.01], [0.49]]"),
], ids=["1d_past_hi", "2d_past_hi", "1d_below_lo"])
def test_tiling_rejects_a_cell_outside_the_box(cells, shape, message):
    # a cell reaches outside the box and a hole of the same volume opens
    # inside it, between two lattice points: the volume sum, the face-grid
    # overlap test and the lattice cover test all passed these
    n = len(shape)
    dom = GridDomain([0.0] * n, [1.0] * n, shape)
    with pytest.raises(TilingError, match=re.escape(f"{message} reaches outside the box")):
        _check_tiling(np.array(cells), dom.lo, dom.hi)


def test_sample_jets_marks_its_own_skeleton():
    # on the bare lattice, sampling marks v's cell boundaries as assemble
    # does; marks already on the lattice stay, and where they cover v's
    # boundaries the samples are those of the marked lattice, bit for bit
    mis = MultiIndexSet(2, 1)
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (9, 9))
    cells = _children(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    v = PiecewisePoly(cells, np.random.default_rng(5).normal(size=(4, 1, mis.count)), mis)
    marked = assemble(v, dom)
    got, bare = sample_jets(v, dom)
    assert got == marked and bare.shape == (mis.count, (~marked.skeleton).sum())
    again, rows = sample_jets(v, marked)
    assert again == marked and np.array_equal(bare, rows)
    extra = dom.skeleton.copy()
    extra[2, 2] = True
    got, rows = sample_jets(v, dom.with_skeleton(extra))
    assert np.array_equal(got.skeleton, marked.skeleton | extra)
    assert rows.shape == (mis.count, (~got.skeleton).sum())


def test_empty_cell_list_is_a_tiling_error():
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (5, 5))
    empty = np.empty((0, 2, 2))
    with pytest.raises(TilingError, match="hole"):
        _check_tiling(empty, dom.lo, dom.hi)
    with pytest.raises(TilingError):
        _classify_grid([], dom)
    # no cell holds a point strictly inside: every point is skeleton
    assert np.array_equal(_classify_grid(empty, dom), np.ones(dom.shape, dtype=bool))


# ---------------------------------------------------------------------------
# index-arithmetic ownership against the per-cell mask reference


def _reference_classify(cells, domain):
    """The per-cell full-lattice mask classifier the index arithmetic
    replaced, without its cover test (see _reference_check_tiling); its
    boundary mask is the face rule: the points within snapping tolerance of
    a face of some cell whose closed range holds them."""
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

    for ci, (lo, hi) in enumerate(cells):
        inside = outer_and([(axes[d] > lo[d] + tol[d]) & (axes[d] < hi[d] - tol[d])
                            for d in range(n)])
        closed = outer_and([(axes[d] >= lo[d] - tol[d]) & (axes[d] <= hi[d] + tol[d])
                            for d in range(n)])
        near_any = np.zeros(domain.shape, dtype=bool)
        for d in range(n):
            m = (np.abs(axes[d] - lo[d]) <= tol[d]) | (np.abs(axes[d] - hi[d]) <= tol[d])
            near_any |= m[tuple(slice(None) if e == d else None for e in range(n))]
        if (inside & (owner >= 0)).any():
            raise TilingError("overlapping cell interiors")
        owner[inside] = ci
        boundary |= closed & near_any
    owner[boundary] = -1
    return owner, boundary


def _reference_check_tiling(cells, lo, hi):
    """Exact cover, plainly: per axis the sorted distinct faces of the cells
    and the box, a face within 1e-12 of the box width of the one before it
    merged into that one's group; each face's group is the last group start
    at or below it. Every elementary box of that grid is counted against
    every cell: a count above 1 is an overlap, a cell whose faces fall in
    groups beyond the box's reaches outside it, and a box inside the box
    with count 0 is a hole."""
    n = len(lo)
    starts = []
    for d in range(n):
        faces = sorted({*cells[:, :, d].ravel().tolist(), float(lo[d]), float(hi[d])})
        starts.append([f for f, g in zip(faces, [-math.inf] + faces)
                       if f - g > 1e-12 * (hi[d] - lo[d])])

    def group(d, f):
        return bisect.bisect_right(starts[d], f) - 1

    ranges = [[(group(d, c[0, d]), group(d, c[1, d])) for d in range(n)] for c in cells]
    box = [(group(d, lo[d]), group(d, hi[d])) for d in range(n)]
    count = {}
    for p in itertools.product(*(range(len(s) - 1) for s in starts)):
        count[p] = sum(all(a <= i < b for i, (a, b) in zip(p, r)) for r in ranges)
    if any(k > 1 for k in count.values()):
        raise TilingError("overlapping interiors")
    if any(a < box[d][0] or b > box[d][1] for r in ranges for d, (a, b) in enumerate(r)):
        raise TilingError("reaches outside the box")
    if any(k == 0 and all(a <= i < b for i, (a, b) in zip(p, box)) for p, k in count.items()):
        raise TilingError("hole")


def _outcome(fn, *args):
    """Result arrays, or the kind of TilingError raised."""
    try:
        return fn(*args)
    except TilingError as e:
        return next(kind for key, kind in (("overlapping", "overlap"), ("outside", "outside"),
                                           ("hole", "hole")) if key in str(e))


def _random_tiling(rng, n, mutate=True):
    """Dyadic refinements of a random grid of I-cells over a random box,
    then (with mutate) one mutation: a shifted face, a translated, removed
    or duplicated cell, or none. Returns the cells (C, 2, n) and a lattice."""
    lo = rng.uniform(-1.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 2.0, n)
    counts = rng.integers(1, 4, n)
    edges = [np.linspace(lo[d], hi[d], counts[d] + 1) for d in range(n)]
    cells = [np.array([[edges[d][i[d]] for d in range(n)], [edges[d][i[d] + 1] for d in range(n)]])
             for i in itertools.product(*(range(c) for c in counts))]
    for _ in range(int(rng.integers(0, 12 if n < 3 else 6))):
        k = int(rng.integers(len(cells)))
        cells[k:k + 1] = list(_children(cells[k][None]))
    shape = tuple(int(s) for s in rng.integers(3, 41, n))
    k = int(rng.integers(len(cells)))
    kind = rng.integers(5) if mutate else 0
    c = cells[k]
    if kind == 1 or kind == 2:
        d = int(rng.integers(n))
        step = float(rng.choice([-1, 1]) * rng.choice([0.5, 0.25, 1.0 / shape[d], 1e-3]))
        step *= c[1, d] - c[0, d]
        moved = c.copy()
        if kind == 1:  # shift the upper face
            moved[1, d] += step
        else:  # translate the cell, keeping the volume sum
            moved[:, d] += step
        cells[k] = moved
    elif kind == 3:
        del cells[k]
    elif kind == 4:
        cells.append(c)
    return np.array(cells).reshape(-1, 2, n), GridDomain(lo, hi, shape)


def _gathered_owner(cells, domain):
    """The owner map of _interior_gather: each strictly interior point's
    cell, -1 elsewhere."""
    _, own, idx, pts = _interior_gather(domain, cells)
    owner = np.full(domain.shape, -1, dtype=int)
    owner[idx] = own
    assert np.array_equal(pts, np.stack([domain.axis(d)[i] for d, i in enumerate(idx)],
                                        axis=1))
    return owner


@pytest.mark.parametrize("n,cases", [(1, 200), (2, 200), (3, 60)])
def test_classify_grid_matches_mask_reference(n, cases):
    # _check_tiling raises the exact-cover reference's errors; _classify_grid
    # raises the mask reference's, and its skeleton is the set of points
    # _interior_gather gives no owner; and on a tiling (_check_tiling
    # passes) that skeleton is the reference's boundary mask and
    # _interior_gather's owner map the reference's
    rng = np.random.default_rng(1000 + n)
    seen = set()
    for _ in range(cases):
        cells, dom = _random_tiling(rng, n)
        want = _outcome(_reference_classify, cells, dom)
        got = _outcome(_classify_grid, cells, dom)
        want_tiling = _outcome(_reference_check_tiling, cells, dom.lo, dom.hi)
        if isinstance(want, tuple):
            assert isinstance(got, np.ndarray), got
            owner = _gathered_owner(cells, dom)
            assert np.array_equal(got, owner < 0)
            seen.add("ok")
            if want_tiling is None:
                assert np.array_equal(got, want[1])
                assert np.array_equal(owner, want[0])
                seen.add("owners")
        else:
            assert got == want == "overlap"
            seen.add("overlap")
        assert _outcome(_check_tiling, cells, dom.lo, dom.hi) == want_tiling
        seen.add(f"tiling {want_tiling or 'ok'}")
    # the mutations reach every branch of both checks
    assert seen == {"ok", "owners", "overlap", "tiling ok", "tiling overlap",
                    "tiling outside", "tiling hole"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_cover_accepts_what_run_builds(n):
    # unmutated random tilings, and I-cells on a box with non-dyadic bounds
    # refined by random dyadic splits as refine makes them, all tile the box
    rng = np.random.default_rng(2000 + n)
    for _ in range(40 if n < 3 else 8):
        cells, dom = _random_tiling(rng, n, mutate=False)
        _check_tiling(cells, dom.lo, dom.hi)
        lo = rng.uniform(-3.0, 3.0, n)
        dom = GridDomain(lo, lo + rng.uniform(0.5, 2.0, n), (65,) * n)
        cells = tile_domain(dom).i_cells
        for _ in range(int(rng.integers(1, 4))):
            split = rng.random(len(cells)) < 0.3
            cells = np.concatenate([cells[~split], _children(cells[split])])
            _check_tiling(cells, dom.lo, dom.hi)


def test_skeleton_differs_from_face_rule_only_where_the_tiling_check_fails():
    # the middle cell overlaps the last on (0.75, 0.77), which holds no
    # lattice point, so both classifiers accept: the face rule marks 0.75,
    # the last cell's lower face, although the middle cell holds it
    # strictly inside; the skeleton leaves it unmarked, and the tiling
    # check, which runs before any mark is made, rejects the overlap
    cells = np.array([[[0.0], [0.25]], [[0.27], [0.77]], [[0.75], [1.0]]])
    dom = GridDomain([0.0], [1.0], (9,))
    owner, face_rule = _reference_classify(cells, dom)
    skeleton = _classify_grid(cells, dom)
    gathered = _gathered_owner(cells, dom)
    assert face_rule.tolist() == [True, False, True, False, False, False, True, False, True]
    assert skeleton.tolist() == [True, False, True, False, False, False, False, False, True]
    assert np.array_equal(skeleton, gathered < 0)
    assert owner[6] == -1 and gathered[6] == 1
    with pytest.raises(TilingError, match="overlapping interiors"):
        _check_tiling(cells, dom.lo, dom.hi)


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
            coeffs = rng.uniform(-5.0, 5.0, (len(cells), 2, mis.count))
            coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
            v = PiecewisePoly(cells, coeffs, mis)
            polys = [[TaylorPoly(center, cf, mis) for cf in cc]
                     for center, cc in zip(_centers(cells), coeffs)]
            try:
                marked = assemble(v, dom)
            except ValueError:  # cells finer than the lattice: dense skeleton
                continue
            owner, _ = _reference_classify(cells, dom)
            coords = np.stack([g.reshape(-1) for g in marked.meshes()], axis=1)
            flat_owner = owner.reshape(-1)
            sampled = completed(*sample_jets(v, marked))
            assert len(sampled) == 2 * mis.count
            for k, (i, alpha) in enumerate(itertools.product((1, 2), mis.alphas)):
                got = sampled[k].values.reshape(-1)
                for ci in range(len(cells)):
                    sel = flat_owner == ci
                    p = polys[ci][i - 1]
                    want = _reference_deriv_many(p, alpha, coords[sel])
                    assert np.array_equal(got[sel], want)
                    assert np.array_equal(p.deriv_many(alpha, coords[sel]), want)
            checked += 1
    assert checked >= 8


def test_sample_jets_single_cell_smooth():
    mis = MultiIndexSet(1, 2)
    dom = GridDomain([-1.0], [1.0], (17,))
    v = PiecewisePoly(np.array([[[-1.0], [1.0]]]), np.array([[[1.0, 2.0, 6.0]]]), mis)
    marked = assemble(v, dom)
    s = sample_jets(v, marked)[1][0]
    interior = ~marked.skeleton
    x = marked.axis(0)
    assert s == pytest.approx(1.0 + 2.0 * x[interior] + 3.0 * x[interior] ** 2)
    assert is_nowhere_dense(marked.skeleton)


# ---------------------------------------------------------------------------
# serialization


def test_poly_json_round_trip(tmp_path):
    # a polynomial file is one array of records that numpy.load reads as it
    # is; every bound and coefficient comes back bit for bit
    mis = MultiIndexSet(2, 1)
    cells = _children(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    rng = np.random.default_rng(71)
    v = PiecewisePoly(cells, rng.normal(size=(4, 2, mis.count)), mis)
    v.coeffs[0, 0, 0] = -0.0
    path = tmp_path / "v.npy"
    write_poly_json(v, path)
    rec = np.load(path)
    assert rec.dtype == _record_dtype(2, 2, 3) and rec.shape == (4,)
    assert rec[1]["lo"].tolist() == [0.0, 0.5] and rec[1]["hi"].tolist() == [0.5, 1.0]
    v2 = read_poly_json(path)
    assert (v2.space_dim, v2.components, v2.order) == (2, 2, 1) and v2.mis == mis
    assert v2.cells == v.cells == [Cell(tuple(lo), tuple(hi)) for lo, hi in cells.tolist()]
    for a in ("bounds", "coeffs"):
        got, want = getattr(v2, a), getattr(v, a)
        assert got.flags.c_contiguous and np.array_equal(got.view(np.int64), want.view(np.int64))
    pts = rng.uniform(0, 1, size=(50, 2))
    for ps1, ps2 in zip(v.polys, v2.polys):
        for p1, p2 in zip(ps1, ps2):
            assert np.array_equal(p1.anchor, p2.anchor)
            assert np.array_equal(p1.deriv_many((0, 0), pts), p2.deriv_many((0, 0), pts))
    # the order follows from the multi-index count alone
    for n, m in ((1, 0), (1, 4), (3, 2)):
        w = PiecewisePoly(np.array([[[0.0] * n, [1.0] * n]]),
                          np.ones((1, 1, MultiIndexSet(n, m).count)), MultiIndexSet(n, m))
        write_poly_json(w, path)
        assert read_poly_json(path).order == m


# ---------------------------------------------------------------------------
# the artifact renderer

# the floats whose text json.dumps writes in a way of its own: signed
# zeros, non-finite values, the least subnormal, and long and short reprs
_FLOAT_POOL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1, 1 / 3]


_FLOAT_ARRAYS = st.lists(st.integers(0, 4), min_size=1, max_size=3).flatmap(
    lambda shape: st.lists(st.sampled_from(_FLOAT_POOL), min_size=math.prod(shape),
                           max_size=math.prod(shape)).map(
        lambda vals: np.array(vals, dtype=float).reshape(shape)))


@st.composite
def _cells_leaves(draw):
    n = draw(st.integers(1, 3))
    counts = draw(st.none() | st.lists(st.integers(0, 3), max_size=4).map(tuple))
    C = draw(st.integers(0, 4)) if counts is None else sum(counts)
    vals = draw(st.lists(st.sampled_from(_FLOAT_POOL), min_size=2 * n * C, max_size=2 * n * C))
    return CellsLeaf(np.array(vals, dtype=float).reshape(C, 2, n), counts)


_TEXT = st.text(st.sampled_from(["a", "\x00", '"', "\\", "é", " ", "中"]),
                max_size=4)
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | _TEXT
    | st.sampled_from(_FLOAT_POOL) | _FLOAT_ARRAYS | _cells_leaves(),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_TEXT, children,
                                                                      max_size=3),
    max_leaves=8)


def _listed(doc):
    """doc with every leaf in the list form the renderer must write, built
    here from the leaf's arrays, not by its tolist."""
    if isinstance(doc, CellsLeaf):
        cells = [{"lo": lo, "hi": hi} for lo, hi in doc.cells.tolist()]
        if doc.counts is None:
            return cells
        ends = np.cumsum(doc.counts, dtype=int).tolist()
        return [cells[a:b] for a, b in zip([0, *ends], ends)]
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _listed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_listed(v) for v in doc]
    return doc


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_DOCS)
@example({"\x00": [np.zeros((2, 2)), "\x00", ["\x00\x00"]], "a": '"\x00'})
@example(CellsLeaf(np.ones((2, 2, 1)), (0, 1, 0, 0, 1, 0)))
def test_artifact_json_writes_what_json_dumps_writes_of_the_lists(doc):
    # a document string equal to a placeholder, or around one, changes nothing
    want = json.dumps(_listed(doc), sort_keys=True, separators=(",", ":")) + "\n"
    assert artifact_json(doc) == want


@pytest.mark.parametrize("leaf", [np.arange(3), np.zeros(0, dtype=int), np.ones(2, dtype=bool),
                                  np.array([1.0, "x"], dtype=object),
                                  np.ones(2, dtype=np.float32), np.int64(3),
                                  CellsLeaf(np.zeros((1, 2, 1), dtype=int))],
                         ids=["int", "empty_int", "bool", "object", "float32", "int_scalar",
                              "int_cells"])
def test_artifact_json_rejects_what_json_cannot_hold(leaf):
    # an array of another dtype is never written as floats
    with pytest.raises(TypeError, match="is not JSON serializable"):
        artifact_json({"a": [1, leaf]})


def test_artifact_json_formats_each_distinct_value_once(monkeypatch):
    # a guard without timing: per-element formatting would format 10,000 values
    formatted = []
    format_values = grids._format_values

    def counted(vals):
        formatted.extend(vals.tolist())
        return format_values(vals)

    monkeypatch.setattr(grids, "_format_values", counted)
    pool = np.array([0.5, -2.0, 1e-9])
    cells = CellsLeaf(pool[np.arange(4000) % 3].reshape(1000, 2, 2), (400, 0, 600))
    doc = {"cells": cells, "array": pool[np.arange(6000) % 3].reshape(2000, 3), "n": 3}
    assert artifact_json(doc) == json.dumps(_listed(doc), sort_keys=True,
                                            separators=(",", ":")) + "\n"
    assert 0 < len(formatted) <= 3
