"""System construction, operator application on piecewise candidates,
and the sampling-based solvability checks."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordercomplete import expr as ex
from ordercomplete import pde
from ordercomplete.expr import render
from ordercomplete.grids import GridDomain, GridFunction, normalize
from ordercomplete.jets import MultiIndexSet, assemble, deriv_eval, sample_jets
from ordercomplete.pde import (
    PdeSystem,
    _principal_directions,
    apply_operator,
    check_assumption_interior,
    check_assumption_open,
    eval_rows,
)
from ordercomplete.solver import _cell_polys


def _intervals(edges):
    """The cells [edges[i], edges[i + 1]] of a 1D box, as (C, 2, 1)."""
    return np.stack([edges[:-1], edges[1:]], axis=1)[:, :, None]


def _cubic_system():
    return PdeSystem(
        1, 1, 1,
        ["u[1,(1)] + u[1,(0)]^3"],
        ["cos(x1) + sin(x1)^3"],
        [0.0], [3.0],
    )


# ---------------------------------------------------------------------------
# construction


def test_rhs_must_not_reference_jets():
    with pytest.raises(ValueError, match="f1"):
        PdeSystem(1, 1, 1, ["u[1,(1)]"], ["u[1,(0)]"], [0.0], [1.0])


def test_component_count_checked():
    with pytest.raises(ValueError):
        PdeSystem(1, 2, 1, ["u[1,(1)]"], ["1", "2"], [0.0], [1.0])
    with pytest.raises(ValueError):
        PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1", "2"], [0.0], [1.0])


def test_box_validation():
    with pytest.raises(ValueError):
        PdeSystem(1, 1, 1, ["u[1,(0)]"], ["0"], [1.0], [1.0])
    with pytest.raises(ValueError):
        PdeSystem(2, 1, 1, ["u[1,(0,0)]"], ["0"], [0.0], [1.0, 2.0])


def test_rhs_on_lattice_evaluated_once_per_lattice(monkeypatch):
    sys1 = _cubic_system()
    calls = []
    real = ex.eval_on_arrays
    monkeypatch.setattr(ex, "eval_on_arrays", lambda *a: calls.append(1) or real(*a))
    dom = GridDomain([0.0], [3.0], (33,))
    (f,) = sys1.rhs_on_lattice(dom)
    x = np.linspace(0.0, 3.0, 33)
    assert f.tobytes() == real(sys1.f[0], [x]).tobytes()
    with pytest.raises(ValueError):
        f[0] = 1.0
    skel = np.zeros(33, dtype=bool)
    skel[16] = True
    # the skeleton plays no part; another shape is another lattice
    assert sys1.rhs_on_lattice(dom.with_skeleton(skel))[0] is f
    assert len(calls) == 1
    sys1.rhs_on_lattice(GridDomain([0.0], [3.0], (17,)))
    assert len(calls) == 2


def test_rhs_on_lattice_fault_is_not_remembered():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["log(x1)"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (9,))
    for _ in range(2):
        with pytest.raises(ex.EvalDomainError):
            sys1.rhs_on_lattice(dom)


def test_flat_vars_component_major():
    sys2 = PdeSystem(
        1, 2, 1,
        ["u[1,(1)]", "u[2,(1)]"],
        ["0", "0"],
        [0.0], [1.0],
    )
    assert sys2.flat_vars() == [(1, (0,)), (1, (1,)), (2, (0,)), (2, (1,))]
    assert sys2.unknown_count == 4


def test_jet_jacobian_symbolic():
    sys1 = _cubic_system()
    jac = sys1.jet_jacobian()
    assert [render(e) for e in jac[0]] == ["3 * u[1,(0)]^2", "1"]
    # abs has the generalized derivative sign(g) g'
    kink = PdeSystem(1, 1, 1, ["abs(u[1,(0)])"], ["0"], [0.0], [1.0])
    assert [render(e) for e in kink.jet_jacobian()[0]] == ["sign(u[1,(0)])", "0"]


# ---------------------------------------------------------------------------
# pointwise operator


def _operator_at(sys, x, jet) -> np.ndarray:
    """All K operator values at one point x for one flat jet, one scalar
    eval_point call per component: a reference independent of the array
    evaluator apply_operator uses."""
    values = dict(zip(sys.flat_vars(), np.asarray(jet, dtype=float).tolist()))
    return np.array([ex.eval_point(Fj, x, values) for Fj in sys.F])


def test_point_cubic_at_origin():
    sys1 = _cubic_system()
    assert _operator_at(sys1, [0.0], [0.0, 1.0]) == pytest.approx([1.0])


def test_point_linear_returns_derivative_slot():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    for xi1 in (-2.0, 0.0, 3.5):
        assert _operator_at(sys1, [0.3], [7.0, xi1])[0] == xi1


def test_point_manufactured_identity():
    # jet of u* = sin at x must reproduce f(x) = cos x + sin^3 x
    sys1 = _cubic_system()
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 3.0, 50):
        got = _operator_at(sys1, [x], [math.sin(x), math.cos(x)])[0]
        want = math.cos(x) + math.sin(x) ** 3
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# operator on piecewise candidates


def test_apply_single_cell_identity_derivative():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    # Taylor data of u(x) = x at the cell center 0.5
    v = _cell_polys(sys1, np.array([[[0.0], [1.0]]]), np.array([[0.5, 1.0]]))
    dom = GridDomain([0.0], [1.0], (17,))
    marked = assemble(v, dom)
    (tv,) = apply_operator(sys1, sample_jets(v, marked))
    assert np.all(tv.values == 1.0)
    assert tv.normalized


def test_apply_two_cell_step_uses_normalize_rule():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]"], ["0"], [-1.0], [1.0])
    dom = GridDomain([-1.0], [1.0], (9,))
    v = _cell_polys(sys1, _intervals(np.array([-1.0, 0.0, 1.0])),
                    np.array([[2.0, 0.0], [5.0, 0.0]]))
    marked = assemble(v, dom)
    (tv,) = apply_operator(sys1, sample_jets(v, marked))
    # oracle: raw step completed by normalize
    raw = np.where(marked.axis(0) < 0.0, 2.0, 5.0)
    want = normalize(GridFunction(marked, raw))
    assert np.array_equal(tv.values, want.values)
    assert tv.values[4] == 2.0  # jump point takes the lower side


def test_apply_matches_pointwise_off_skeleton():
    sys1 = _cubic_system()
    mis = MultiIndexSet(1, 1)
    rng = np.random.default_rng(23)
    edges = np.linspace(0.0, 3.0, 4)
    v = _cell_polys(sys1, _intervals(edges), rng.uniform(-1, 1, (3, mis.count)))
    dom = GridDomain([0.0], [3.0], (31,))
    marked = assemble(v, dom)
    (tv,) = apply_operator(sys1, sample_jets(v, marked))
    x = marked.axis(0)
    owner = np.searchsorted(edges, x, side="right") - 1
    for k in np.flatnonzero(~marked.skeleton):
        p = v.polys[min(owner[k], 2)][0]
        jet_here = [p.deriv_many(a, np.array([[x[k]]]))[0] for a in mis.alphas]
        want = _operator_at(sys1, [x[k]], jet_here)[0]
        assert tv.values[k] == want


def test_apply_evaluates_off_skeleton_only():
    # u(x) = x - 0.2 is negative at the owned point x = 0.125, which the
    # skeleton marks: log must not be evaluated there, and the point takes
    # the normalize fill, the value of its one unmarked neighbour x = 0.25
    sys1 = PdeSystem(1, 1, 1, ["log(u[1,(0)])"], ["0"], [0.0], [1.0])
    mis = MultiIndexSet(1, 1)
    dom = GridDomain([0.0], [1.0], (9,))
    v = _cell_polys(sys1, np.array([[[0.0], [1.0]]]), np.array([[0.3, 1.0]]))
    (p,) = v.polys[0]
    marked = assemble(v, dom)
    skeleton = marked.skeleton.copy()
    skeleton[1] = True
    dom = marked.with_skeleton(skeleton)
    assert deriv_eval(p, (0,), [0.125]) < 0.0
    (tv,) = apply_operator(sys1, sample_jets(v, dom))
    assert tv.normalized
    assert tv.values[1] == tv.values[2]
    x = dom.axis(0)
    for k in np.flatnonzero(~dom.skeleton):
        jet_here = [p.deriv_many(a, x[k:k + 1, None])[0] for a in mis.alphas]
        assert tv.values[k] == _operator_at(sys1, [x[k]], jet_here)[0]
    with pytest.raises(ValueError, match="signature"):
        apply_operator(sys1, sample_jets(v, dom)[:1])


def _operator_sup_error(k: int) -> float:
    # cellwise first-order Taylor data of u* = sin at cell centers
    sys1 = _cubic_system()
    edges = np.linspace(0.0, 3.0, k + 1)
    cc = 0.5 * (edges[:-1] + edges[1:])
    v = _cell_polys(sys1, _intervals(edges), np.stack([np.sin(cc), np.cos(cc)], axis=1))
    dom = GridDomain([0.0], [3.0], (8 * k + 1,))
    marked = assemble(v, dom)
    (tv,) = apply_operator(sys1, sample_jets(v, marked))
    f = sys1.rhs_on_arrays([marked.axis(0)])[0]
    off = ~marked.skeleton
    return float(np.max(np.abs(tv.values[off] - f[off])))


def test_operator_error_first_order_in_cell_size():
    e8, e16, e32 = (_operator_sup_error(k) for k in (8, 16, 32))
    assert e8 > e16 > e32
    assert 1.6 < e8 / e16 < 2.6
    assert 1.6 < e16 / e32 < 2.6


# ---------------------------------------------------------------------------
# assumption checks


def test_interior_affine_supported():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    box = np.array([[-10.0, 10.0]] * sys1.unknown_count)
    ev = check_assumption_interior(sys1, [0.5], box, rng=np.random.default_rng(0))
    assert ev.supported and ev.witnessed_radius > 0.1


def test_interior_square_cannot_reach_negative():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]^2"], ["-1"], [0.0], [1.0])
    box = np.array([[-10.0, 10.0]] * sys1.unknown_count)
    ev = check_assumption_interior(sys1, [0.5], box, rng=np.random.default_rng(0))
    assert not ev.supported


def test_interior_cubic_supported_at_random_points():
    sys1 = _cubic_system()
    box = np.array([[-10.0, 10.0]] * sys1.unknown_count)
    rng = np.random.default_rng(31)
    for x in rng.uniform(0.0, 3.0, 100):
        ev = check_assumption_interior(sys1, [x], box, rng=np.random.default_rng(5))
        assert ev.supported


def test_interior_rejects_bad_box_shape():
    sys1 = _cubic_system()
    with pytest.raises(ValueError):
        check_assumption_interior(sys1, [0.5], np.zeros((3, 2)), rng=np.random.default_rng(0))


def _open_one(sys, x, jet, delta, eps_ball, rng, target):
    """The openness probe of one anchor: a one-row check_assumption_open
    call, drawing from rng."""
    return check_assumption_open(sys, [x], [jet], [delta], eps_ball,
                                 stream=lambda _row: rng, target=[target])[0]


def test_open_cubic_radius_tracks_eps():
    sys1 = _cubic_system()
    ev = _open_one(sys1, [0.0], [0.0, 1.0], 0.1, 0.5, np.random.default_rng(2),
                   sys1.rhs_at([0.0]))
    # the xi1 direction is onto, so the ball radius is close to eps
    assert ev.supported
    assert 0.25 < ev.witnessed_radius <= 0.66


def test_open_constant_operator_unsupported():
    sys1 = PdeSystem(1, 1, 1, ["2"], ["2"], [0.0], [1.0])
    ev = _open_one(sys1, [0.5], np.zeros(2), 0.1, 0.5, np.random.default_rng(0), [2.0])
    assert not ev.supported


def test_open_duplicated_component_unsupported():
    # image is the diagonal curve in R^2: no ball fits
    sys2 = PdeSystem(
        1, 2, 1, ["u[1,(0)]", "u[1,(0)]"], ["0", "0"], [0.0], [1.0]
    )
    ev = _open_one(sys2, [0.5], np.zeros(4), 0.1, 0.5, np.random.default_rng(0), [0.0, 0.0])
    assert not ev.supported


def test_open_rejects_bad_seed():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    with pytest.raises(ValueError, match="seed jet"):
        _open_one(sys1, [0.5], [0.0, 5.0], 0.1, 0.5, np.random.default_rng(0), [1.0])


def test_open_shifted_target():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    ev = _open_one(sys1, [0.5], [0.0, 0.5], 0.1, 0.25, np.random.default_rng(0), [0.5])
    assert ev.supported


# ---------------------------------------------------------------------------
# batched probes against the per-sample reference


def _reference_verdict(sys, images, target, extra_directions, rng):
    """(samples_used, directions, margin_min) as the per-sample probes had
    them: the 2K axes, the random directions of norm above 1e-12 and the
    principal axes of the kept images, both signs; the margin is the least
    over the directions of the largest projection of an image past the
    target, one dot product at a time."""
    if not images:
        return 0, 0, float("-inf")
    imgs = np.asarray(images)
    dirs = [*np.eye(sys.K), *-np.eye(sys.K)]
    for raw in rng.normal(size=(extra_directions, sys.K)):
        if np.linalg.norm(raw) > 1e-12:
            dirs.append(raw / np.linalg.norm(raw))
    _, _, vt = np.linalg.svd(imgs - imgs.mean(axis=0), full_matrices=len(imgs) < sys.K)
    dirs += [*vt, *-vt]
    margin = min(max(float(np.dot(img - target, d)) for img in imgs) for d in dirs)
    return imgs.shape[0], len(dirs), margin


def _reference_interior(sys, x, box, rng, samples=400, extra_directions=32):
    """The interior probe as one eval_point call per sample and component."""
    target = sys.rhs_at(x)
    fv = sys.flat_vars()
    images = []
    for _ in range(samples):
        vec = rng.uniform(box[:, 0], box[:, 1])
        jets = {v: vec[k] for k, v in enumerate(fv)}
        try:
            images.append([ex.eval_point(Fj, x, jets) for Fj in sys.F])
        except ex.EvalDomainError:
            continue
    return _reference_verdict(sys, images, target, extra_directions, rng)


def _reference_ball_samples(center, radius, rng, samples):
    """Uniform points of a ball around center: first the (samples, d) block
    of normal directions, then the samples uniform radii; then each point
    from its own row."""
    d = center.size
    normals = rng.normal(size=(samples, d))
    uniforms = rng.uniform(size=samples)
    points = []
    for direction, u in zip(normals, uniforms):
        nrm = np.linalg.norm(direction)
        if nrm < 1e-12:
            points.append(center.copy())
            continue
        points.append(center + radius * u ** (1.0 / d) * (direction / nrm))
    return points


def _reference_open(sys, x, jet_flat, delta, eps_ball, target, rng,
                    samples=400, extra_directions=32):
    """The openness probe as one eval_point call per sample and component,
    drawing the point ball's samples, then the jet ball's."""
    fv = sys.flat_vars()
    xs = _reference_ball_samples(x, delta, rng, samples)
    vecs = _reference_ball_samples(jet_flat, eps_ball, rng, samples)
    images = []
    for xp, vec in zip(xs, vecs):
        xp = np.clip(xp, sys.box_lo, sys.box_hi)
        jets = {v: vec[k] for k, v in enumerate(fv)}
        try:
            images.append([ex.eval_point(Fj, xp, jets) for Fj in sys.F])
        except ex.EvalDomainError:
            continue
    return _reference_verdict(sys, images, target, extra_directions, rng)


_PROBE_SYSTEMS = {
    "cubic": (_cubic_system, [0.3], [0.4, -0.2]),
    "order2": (
        lambda: PdeSystem(1, 1, 2, ["u[1,(2)] + u[1,(1)] + u[1,(0)]^3"],
                          ["sin(x1)"], [0.0], [3.0]),
        [1.1], [0.5, 0.1, -0.3],
    ),
    # the jet ball around u = 0.2 reaches u <= 0, where log faults
    "log": (
        lambda: PdeSystem(1, 1, 1, ["u[1,(1)] + log(u[1,(0)])"],
                          ["1 + x1"], [0.0], [1.0]),
        [0.5], [0.2, 1.0],
    ),
    "coupled2d": (
        lambda: PdeSystem(
            2, 2, 1,
            ["u[1,(1,0)] + u[2,(0,1)] + u[1,(0,0)]^3",
             "u[2,(1,0)] - u[1,(0,1)] + u[2,(0,0)]^3"],
            ["x1", "x2"], [0.0, 0.0], [1.0, 1.0],
        ),
        [0.4, 0.7], [0.3, 0.1, -0.2, -0.5, 0.6, 0.2],
    ),
}


def _assert_same_evidence(ev, ref, rng, ref_rng):
    samples_used, directions, margin_min = ref
    assert ev.samples_used == samples_used
    assert ev.directions == directions
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert ev.margin_min == pytest.approx(margin_min, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(_PROBE_SYSTEMS))
def test_open_batched_matches_per_sample_reference(name, seed):
    make, x, jet = _PROBE_SYSTEMS[name]
    sys1 = make()
    x = np.asarray(x, dtype=float)
    jet = np.asarray(jet, dtype=float)
    target = _operator_at(sys1, x, jet)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ev = _open_one(sys1, x, jet, 0.1, 0.5, rng, target)
    ref = _reference_open(sys1, x, jet, 0.1, 0.5, target, ref_rng)
    _assert_same_evidence(ev, ref, rng, ref_rng)
    if name == "log":
        assert 0 < ev.samples_used < 400  # the faulting samples were dropped


@pytest.mark.parametrize("name", ["coupled2d", "log"])
def test_open_rows_match_per_sample_reference(name, monkeypatch):
    # one call over rows on streams of their own, in blocks that split
    # them: each row's verdict and stream state are its reference's
    from ordercomplete import pde

    monkeypatch.setattr(pde, "_BLOCK_ROWS", 2)
    make, x, jet = _PROBE_SYSTEMS[name]
    sys1 = make()
    x = np.asarray(x, dtype=float)
    jet = np.asarray(jet, dtype=float)
    target = _operator_at(sys1, x, jet)
    seeds = [0, 7, 11]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    evs = check_assumption_open(sys1, [x] * 3, [jet] * 3, [0.1] * 3, 0.5,
                                stream=rngs.__getitem__, target=[target] * 3)
    for ev, rng, seed in zip(evs, rngs, seeds, strict=True):
        ref_rng = np.random.default_rng(seed)
        ref = _reference_open(sys1, x, jet, 0.1, 0.5, target, ref_rng)
        _assert_same_evidence(ev, ref, rng, ref_rng)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(_PROBE_SYSTEMS))
def test_interior_batched_matches_per_sample_reference(name, seed):
    make, x, _ = _PROBE_SYSTEMS[name]
    sys1 = make()
    x = np.asarray(x, dtype=float)
    box = np.array([[-10.0, 10.0]] * sys1.unknown_count)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ev = check_assumption_interior(sys1, x, box, rng=rng)
    ref = _reference_interior(sys1, x, box, ref_rng)
    _assert_same_evidence(ev, ref, rng, ref_rng)
    if name == "log":
        assert 0 < ev.samples_used < 400


def test_principal_directions_keep_all_axes_with_few_samples():
    # one surviving sample in R^2 still yields both axes, both signs
    assert _principal_directions(np.array([[[1.0, 2.0]]])).shape == (1, 4, 2)
    assert _principal_directions(np.ones((3, 400, 2))).shape == (3, 4, 2)


# ---------------------------------------------------------------------------
# the K = 1 margins and the ball sampler, bit for bit against the general
# projection and the row-reduction sampler


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _general_margins(images, targets, rngs):
    """_margins through the general projection whatever K: the random
    directions, the axes and the principal axes, one (S, D) projection per
    probe. The reference of the K = 1 branch."""
    count, _, K = images.shape
    raw = np.concatenate([rng.normal(size=(pde._EXTRA_DIRECTIONS, K)) for rng in rngs])
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        reach = pde._projected_reach(images, targets, raw, norms)
    kept = (norms[:, 0] > 1e-12).reshape(count, pde._EXTRA_DIRECTIONS)
    return np.fmax(reach, -np.inf), 4 * K + kept.sum(axis=1)


def _assert_line_margins(images, targets, seed=0):
    """The K = 1 branch of _margins on images (A, S) and targets (A,)
    against _general_margins on the same streams: margins and direction
    counts bit for bit, and the streams left in the same states."""
    images = np.asarray(images, dtype=float)[:, :, None]
    targets = np.asarray(targets, dtype=float)[:, None]
    rngs = [np.random.default_rng([seed, a]) for a in range(len(images))]
    ref_rngs = [np.random.default_rng([seed, a]) for a in range(len(images))]
    margins, directions = pde._margins(images, targets, rngs)
    ref_margins, ref_directions = _general_margins(images, targets, ref_rngs)
    assert np.array_equal(_bits(margins), _bits(ref_margins))
    assert np.array_equal(directions, ref_directions)
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]
    return margins


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_line_margins_match_the_projection_on_random_images(seed):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(8, 400)) * rng.uniform(0.1, 10.0, (8, 1))
    targets = rng.normal(size=8) + np.array([0.0, 60.0] * 4)  # every other one outside
    margins = _assert_line_margins(images, targets, seed)
    assert np.any(margins > 0.0) and np.any(margins < 0.0)


def test_line_margins_with_the_target_on_a_sample_are_exact_zeros():
    images = np.random.default_rng(3).normal(size=(6, 400))
    targets = np.concatenate([images[:3].max(axis=1), images[3:].min(axis=1)])
    margins = _assert_line_margins(images, targets)
    assert np.array_equal(_bits(margins), _bits(np.zeros(6)))


def test_line_margins_with_signed_zeros():
    # image -0.0 against target 0.0 is a reach of -0.0; the projections
    # give +0.0, and so must the branch
    images = [
        [-0.0, -1.0, -3.0],
        [-0.0, 0.0, -2.0],
        [0.0, -0.0, 2.0],
        [-0.0, -0.0, 1.0],
        [-0.0, -0.0, -0.0],
        [0.0, -0.0, -1.0],
    ]
    targets = [0.0, 0.0, -0.0, 0.0, -0.0, -0.0]
    margins = _assert_line_margins(images, targets)
    assert np.array_equal(_bits(margins), _bits(np.zeros(6)))


def test_line_margins_on_constant_images():
    images = np.full((3, 400), 2.5)
    margins = _assert_line_margins(images, [2.5, 1.0, 4.0])
    assert margins.tolist() == [0.0, -1.5, -1.5]


def test_line_margins_on_overflowed_images():
    # a non-finite sample, or a centring that overflows, supports nothing;
    # a finite centring whose reach overflows keeps its finite side
    images = np.ones((5, 4))
    images[0, 2] = np.inf
    images[1, 0] = -np.inf
    images[2] = 1e308  # the mean's sum overflows
    images[3] = [1.7e308, -1.7e308, -1.7e308, -1e307]  # 1.7e308 - mean overflows
    images[4] = [4e307, 3e307, 4e307, 3e307]  # up past -1.6e308 overflows
    margins = _assert_line_margins(images, [1.0, 1.0, 1e308, 0.0, -1.6e308])
    assert margins[:4].tolist() == [-np.inf] * 4
    assert margins[4] == -1.6e308 - 3e307


def test_line_margins_on_a_probe_reduced_alone(monkeypatch):
    # _evidence reduces the probes that keep every sample together and one
    # that drops some alone on its kept samples: both through the branch
    rng = np.random.default_rng(5)
    images = rng.normal(size=(4, 400, 1))
    kept = np.ones((4, 400), dtype=bool)
    kept[1, ::3] = False
    kept[3] = False
    targets = images[:, 7] + 0.01
    calls = []
    real = pde._margins

    def both(images, targets, rngs):
        ref_rngs = copy.deepcopy(rngs)
        got = real(images, targets, rngs)
        calls.append(images.shape)
        want = _general_margins(images, targets, ref_rngs)
        assert np.array_equal(_bits(got[0]), _bits(want[0]))
        assert np.array_equal(got[1], want[1])
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]
        return got

    monkeypatch.setattr(pde, "_margins", both)
    rngs = [np.random.default_rng([9, a]) for a in range(4)]
    evidence = pde._evidence(images, kept, targets, rngs)
    assert calls == [(2, 400, 1), (1, 266, 1)]
    assert [ev.samples_used for ev in evidence] == [400, 266, 400, 0]
    assert evidence[3].directions == 0 and evidence[3].margin_min == -np.inf


def _row_balls(centers, radii, normals, uniforms):
    """The ball sampler on rows (R, d) by row reductions: np.linalg.norm
    along axis 1, a masked division and a masked root."""
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    kept = norms >= 1e-12
    unit = np.divide(normals, norms, out=np.zeros_like(normals), where=kept)
    root = np.where(kept[:, 0], uniforms ** (1.0 / normals.shape[1]), 0.0)
    return centers + (radii * root)[:, None] * unit


# the scale of a row of normal draws: ordinary, all zero, subnormal or with
# squares below the smallest subnormal, and around 1e200, where the sum of
# squares overflows
_ROW_SCALES = st.sampled_from([1.0, 1.0, 0.0, 5e-324, 1e-310, 1e-170, 1e-12, 1e200, -1e200])


@st.composite
def _ball_draws(draw):
    d = draw(st.integers(1, 9))
    balls, samples = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    finite = st.floats(-4.0, 4.0)
    normals = np.array(draw(st.lists(finite, min_size=balls * samples * d,
                                     max_size=balls * samples * d))).reshape(balls, samples, d)
    scales = np.array(draw(st.lists(_ROW_SCALES, min_size=balls * samples,
                                    max_size=balls * samples))).reshape(balls, samples, 1)
    uniforms = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                      min_size=balls * samples, max_size=balls * samples)))
    centers = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, -3.0, 1e10]),
                                     min_size=balls * d, max_size=balls * d)))
    radii = draw(st.one_of(st.floats(0.0, 2.0),
                           st.lists(st.floats(0.0, 2.0), min_size=balls, max_size=balls)))
    with np.errstate(under="ignore"):
        normals = normals * scales
    return (centers.reshape(balls, d), np.asarray(radii), normals,
            uniforms.reshape(balls, samples))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_ball_draws())
# draws of norm 1e-12 exactly, which are kept
@example((np.zeros((1, 1)), np.asarray(0.5), np.array([[[1e-12], [-1e-12]]]), np.full((1, 2), 0.5)))
@example((np.ones((1, 2)), np.asarray([2.0]), np.array([[[0.0, -1e-12]]]), np.full((1, 1), 0.25)))
def test_ball_sampler_is_the_row_reduction_sampler(case):
    centers, radii, normals, uniforms = case
    balls, samples, d = normals.shape
    rows = np.broadcast_to(np.reshape(radii, (-1, 1)), (balls, samples)).reshape(-1)
    with np.errstate(over="ignore", under="ignore"):
        want = _row_balls(np.repeat(centers, samples, axis=0), rows,
                          normals.reshape(-1, d), uniforms.reshape(-1))
        got = pde._in_balls(centers, radii, normals, uniforms)
    assert got.shape == (d, balls, samples)
    assert np.array_equal(_bits(got.reshape(d, -1).T), _bits(want))


def test_open_probe_takes_scalar_bounds_of_a_1d_system():
    # scalar box ends are one point's coordinates, as in the 1-D bounds
    scalar, listed = (PdeSystem(1, 1, 1, ["u[1,(1)] + u[1,(0)]^3"], ["1"], lo, hi)
                      for lo, hi in ((0.0, 1.0), ([0.0], [1.0])))
    x, jets = np.array([[0.02], [0.5]]), np.array([[0.3, 0.4], [-0.2, 0.1]])
    target, _ = eval_rows(listed, listed.F, list(x.T), jets)
    got, want = (check_assumption_open(s, x, jets, np.full(2, 0.05), 0.5,
                                       stream=np.random.default_rng, target=target)
                 for s in (scalar, listed))
    assert got == want


def _probe_peak(rows):
    """The tracemalloc peak of one openness probe over rows anchors of a
    2D, K = 1 system, its inputs allocated before tracing starts."""
    sys2 = PdeSystem(2, 1, 1, ["u[1,(1,0)] + u[1,(0,1)] + u[1,(0,0)]^3"], ["1"],
                     [0.0, 0.0], [1.0, 1.0])
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, (rows, 2))
    jets = rng.normal(size=(rows, 3))
    target, _ = eval_rows(sys2, sys2.F, list(x.T), jets)
    delta = np.full(rows, 0.05)
    tracemalloc.start()
    try:
        evidence = check_assumption_open(sys2, x, jets, delta, 0.5,
                                         stream=np.random.default_rng, target=target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(evidence) == rows
    return peak


def test_probe_memory_stays_near_a_megabyte_whatever_the_rows():
    # blocks of _BLOCK_ROWS rows bound the temporaries; what grows with the
    # rows is the evidence list (0.52 and 0.76 MB measured at 64 and 1,024)
    small, large = _probe_peak(64), _probe_peak(1024)
    assert large < 1_250_000
    assert large - small <= 300_000


def test_interior_every_sample_faults():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)] + log(u[1,(0)])"], ["1"], [0.0], [1.0])
    box = np.array([[-10.0, -1.0], [-10.0, 10.0]])
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    ev = check_assumption_interior(sys1, [0.5], box, rng=rng)
    assert not ev.supported and ev.margin_min == float("-inf")
    _assert_same_evidence(ev, _reference_interior(sys1, [0.5], box, ref_rng),
                          rng, ref_rng)
