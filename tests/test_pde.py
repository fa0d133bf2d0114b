"""System construction, operator application on piecewise candidates,
and the sampling-based solvability checks."""

import math

import numpy as np
import pytest

from ordercomplete import expr as ex
from ordercomplete.expr import NondifferentiableError, render
from ordercomplete.grids import GridDomain, GridFunction, normalize
from ordercomplete.jets import Cell, Jet, MultiIndexSet, assemble, taylor_poly
from ordercomplete.pde import (
    PdeSystem,
    _directions,
    _image_margins,
    _principal_directions,
    apply_operator,
    apply_operator_point,
    check_assumption_interior,
    check_assumption_open,
)


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
    bad = PdeSystem(1, 1, 1, ["abs(u[1,(0)])"], ["0"], [0.0], [1.0])
    with pytest.raises(NondifferentiableError):
        bad.jet_jacobian()


# ---------------------------------------------------------------------------
# pointwise operator


def test_point_cubic_at_origin():
    sys1 = _cubic_system()
    mis = MultiIndexSet(1, 1)
    jet = Jet([0.0], [[0.0, 1.0]], mis)
    assert apply_operator_point(sys1, [0.0], jet) == pytest.approx([1.0])


def test_point_linear_returns_derivative_slot():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    mis = MultiIndexSet(1, 1)
    for xi1 in (-2.0, 0.0, 3.5):
        jet = Jet([0.3], [[7.0, xi1]], mis)
        assert apply_operator_point(sys1, [0.3], jet)[0] == xi1


def test_point_manufactured_identity():
    # jet of u* = sin at x must reproduce f(x) = cos x + sin^3 x
    sys1 = _cubic_system()
    mis = MultiIndexSet(1, 1)
    rng = np.random.default_rng(11)
    for x in rng.uniform(0.0, 3.0, 50):
        jet = Jet([x], [[math.sin(x), math.cos(x)]], mis)
        got = apply_operator_point(sys1, [x], jet)[0]
        want = math.cos(x) + math.sin(x) ** 3
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# operator on piecewise candidates


def test_apply_single_cell_identity_derivative():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    mis = MultiIndexSet(1, 1)
    jet = Jet([0.5], [[0.5, 1.0]], mis)  # Taylor data of u(x) = x
    dom = GridDomain([0.0], [1.0], (17,))
    v, marked = assemble([Cell([0.0], [1.0])], [taylor_poly(jet)], dom)
    (tv,) = apply_operator(sys1, v, marked)
    assert np.all(tv.values == 1.0)
    assert tv.normalized


def test_apply_two_cell_step_uses_normalize_rule():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]"], ["0"], [-1.0], [1.0])
    mis = MultiIndexSet(1, 1)
    dom = GridDomain([-1.0], [1.0], (9,))
    cells = [Cell([-1.0], [0.0]), Cell([0.0], [1.0])]
    jets = [Jet([-0.5], [[2.0, 0.0]], mis), Jet([0.5], [[5.0, 0.0]], mis)]
    v, marked = assemble(cells, [taylor_poly(j) for j in jets], dom)
    (tv,) = apply_operator(sys1, v, marked)
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
    cells = [Cell([edges[i]], [edges[i + 1]]) for i in range(3)]
    jets = [
        Jet([float(c.center[0])], rng.uniform(-1, 1, (1, mis.count)), mis)
        for c in cells
    ]
    dom = GridDomain([0.0], [3.0], (31,))
    v, marked = assemble(cells, [taylor_poly(j) for j in jets], dom)
    (tv,) = apply_operator(sys1, v, marked)
    x = marked.axis(0)
    owner = np.searchsorted(edges, x, side="right") - 1
    for k in np.flatnonzero(~marked.skeleton):
        p = v.polys[min(owner[k], 2)][0]
        jet_here = Jet(
            [x[k]],
            [[p.deriv_many(a, np.array([[x[k]]]))[0] for a in mis.alphas]],
            mis,
        )
        want = apply_operator_point(sys1, [x[k]], jet_here)[0]
        assert tv.values[k] == want


def _operator_sup_error(k: int) -> float:
    # cellwise first-order Taylor data of u* = sin at cell centers
    sys1 = _cubic_system()
    mis = MultiIndexSet(1, 1)
    edges = np.linspace(0.0, 3.0, k + 1)
    cells = [Cell([edges[i]], [edges[i + 1]]) for i in range(k)]
    polys = []
    for c in cells:
        cc = float(c.center[0])
        polys.append(taylor_poly(Jet([cc], [[math.sin(cc), math.cos(cc)]], mis)))
    dom = GridDomain([0.0], [3.0], (8 * k + 1,))
    v, marked = assemble(cells, polys, dom)
    (tv,) = apply_operator(sys1, v, marked)
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
    ev = check_assumption_interior(sys1, [0.5], box)
    assert ev.supported and ev.witnessed_radius > 0.1
    assert ev.heuristic and ev.kind == "interior"


def test_interior_square_cannot_reach_negative():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]^2"], ["-1"], [0.0], [1.0])
    box = np.array([[-10.0, 10.0]] * sys1.unknown_count)
    ev = check_assumption_interior(sys1, [0.5], box)
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
        check_assumption_interior(sys1, [0.5], np.zeros((3, 2)))


def test_open_cubic_radius_tracks_eps():
    sys1 = _cubic_system()
    ev = check_assumption_open(
        sys1, [0.0], np.array([0.0, 1.0]), 0.1, 0.5,
        rng=np.random.default_rng(2),
    )
    # the xi1 direction is onto, so the ball radius is close to eps
    assert ev.supported
    assert 0.25 < ev.witnessed_radius <= 0.66


def test_open_constant_operator_unsupported():
    sys1 = PdeSystem(1, 1, 1, ["2"], ["2"], [0.0], [1.0])
    ev = check_assumption_open(sys1, [0.5], np.zeros(2), 0.1, 0.5)
    assert not ev.supported


def test_open_duplicated_component_unsupported():
    # image is the diagonal curve in R^2: no ball fits
    sys2 = PdeSystem(
        1, 2, 1, ["u[1,(0)]", "u[1,(0)]"], ["0", "0"], [0.0], [1.0]
    )
    ev = check_assumption_open(sys2, [0.5], np.zeros(4), 0.1, 0.5)
    assert not ev.supported


def test_open_rejects_bad_seed():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    with pytest.raises(ValueError, match="seed jet"):
        check_assumption_open(sys1, [0.5], np.array([0.0, 5.0]), 0.1, 0.5)


def test_open_shifted_target():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    ev = check_assumption_open(
        sys1, [0.5], np.array([0.0, 0.5]), 0.1, 0.25, target=[0.5]
    )
    assert ev.supported and ev.kind == "openness"


# ---------------------------------------------------------------------------
# batched probes against the per-sample reference


def _reference_verdict(sys, images, target, extra_directions, rng):
    """(samples_used, directions, margin_min) as the per-sample probes had them."""
    if not images:
        return 0, 0, float("-inf")
    imgs = np.asarray(images)
    dirs = _directions(sys.K, extra_directions, rng)
    dirs = np.concatenate([dirs, _principal_directions(imgs)], axis=0)
    return imgs.shape[0], dirs.shape[0], _image_margins(imgs, target, dirs)


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


def _reference_ball_sample(center, radius, rng):
    d = center.size
    direction = rng.normal(size=d)
    nrm = np.linalg.norm(direction)
    if nrm < 1e-12:
        return center.copy()
    direction /= nrm
    return center + radius * rng.uniform() ** (1.0 / d) * direction


def _reference_open(sys, x, jet_flat, delta, eps_ball, target, rng,
                    samples=400, extra_directions=32):
    """The openness probe as one eval_point call per sample and component."""
    fv = sys.flat_vars()
    images = []
    for _ in range(samples):
        xp = np.clip(_reference_ball_sample(x, delta, rng), sys.box_lo, sys.box_hi)
        vec = _reference_ball_sample(jet_flat, eps_ball, rng)
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
    target = apply_operator_point(
        sys1, x, Jet(x, jet.reshape(sys1.K, -1), sys1.mis)
    )
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ev = check_assumption_open(sys1, x, jet, 0.1, 0.5, rng=rng, target=target)
    ref = _reference_open(sys1, x, jet, 0.1, 0.5, target, ref_rng)
    _assert_same_evidence(ev, ref, rng, ref_rng)
    if name == "log":
        assert 0 < ev.samples_used < 400  # the faulting samples were dropped


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
    assert _principal_directions(np.array([[1.0, 2.0]])).shape == (4, 2)
    assert _principal_directions(np.ones((400, 2))).shape == (4, 2)


def test_interior_every_sample_faults():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)] + log(u[1,(0)])"], ["1"], [0.0], [1.0])
    box = np.array([[-10.0, -1.0], [-10.0, 10.0]])
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    ev = check_assumption_interior(sys1, [0.5], box, rng=rng)
    assert not ev.supported and ev.margin_min == float("-inf")
    _assert_same_evidence(ev, _reference_interior(sys1, [0.5], box, ref_rng),
                          rng, ref_rng)
