"""Interval pushforward, nested-interval diagnostics, envelopes, and
reference comparison."""

import itertools

import numpy as np
import pytest

from ordercomplete.analysis import (
    IntervalSequence,
    compare_reference,
    dilation_envelopes,
    envelope_sequence,
    interval_pushforward,
    nested_limit_check,
)
from ordercomplete.grids import (
    GridDomain,
    GridFunction,
    OrderInterval,
    normalize,
)
from ordercomplete.intervals import IntervalDomainError
from ordercomplete.pde import PdeSystem
from ordercomplete.checker import _band_functions
from ordercomplete.solver import run_scheme


def _const_interval(dom, lo, hi):
    return OrderInterval(
        normalize(GridFunction(dom, np.full(dom.shape, float(lo)))),
        normalize(GridFunction(dom, np.full(dom.shape, float(hi)))),
    )


def _step_interval(dom, rng, spread):
    # piecewise-constant bounds with a jump at a marked lattice point
    x = dom.axis(0)
    cut = x[len(x) // 2]
    lo_l, lo_r = rng.uniform(-2, 0, 2)
    raw_lo = np.where(x < cut, lo_l, lo_r)
    raw_hi = raw_lo + rng.uniform(0.1, spread)
    lo = normalize(GridFunction(dom, raw_lo))
    hi = normalize(GridFunction(dom, raw_hi))
    return OrderInterval(lo, hi)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_identity():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]"], ["0"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (9,))
    rng = np.random.default_rng(2)
    ivs = [_step_interval(dom, rng, 1.0), _const_interval(dom, 0.0, 0.0)]
    (out,) = interval_pushforward(sys1, ivs, dom)
    assert np.array_equal(out.lower.values, ivs[0].lower.values)
    assert np.array_equal(out.upper.values, ivs[0].upper.values)


def test_pushforward_square_encloses_tightly():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]^2"], ["0"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (9,))
    ivs = [_const_interval(dom, -1.0, 2.0), _const_interval(dom, 0.0, 0.0)]
    (out,) = interval_pushforward(sys1, ivs, dom)
    off = ~dom.skeleton
    assert np.all(out.lower.values[off] == 0.0)
    assert np.all(out.upper.values[off] >= 4.0)
    assert np.all(out.upper.values[off] <= 4.0 + 1e-10)


def test_pushforward_random_selection_containment():
    # any selection inside the input intervals must land inside the output
    sys1 = PdeSystem(
        1, 1, 1, ["u[1,(1)] + u[1,(0)]^3"], ["0"], [0.0], [1.0]
    )
    dom = GridDomain([0.0], [1.0], (17,))
    rng = np.random.default_rng(7)
    for _ in range(3):
        ivs = [_step_interval(dom, rng, 1.5), _step_interval(dom, rng, 1.5)]
        (out,) = interval_pushforward(sys1, ivs, dom)
        off = ~dom.skeleton
        for _ in range(200):
            t0, t1 = rng.uniform(0.0, 1.0, 2)
            sel0 = ivs[0].lower.values + t0 * (ivs[0].upper.values - ivs[0].lower.values)
            sel1 = ivs[1].lower.values + t1 * (ivs[1].upper.values - ivs[1].lower.values)
            img = sel1 + sel0**3
            assert np.all(img[off] >= out.lower.values[off] - 1e-12)
            assert np.all(img[off] <= out.upper.values[off] + 1e-12)


def test_pushforward_monotone_in_inputs():
    sys1 = PdeSystem(
        1, 1, 1, ["u[1,(1)] + u[1,(0)]^3"], ["0"], [0.0], [1.0]
    )
    dom = GridDomain([0.0], [1.0], (17,))
    wide = [_const_interval(dom, -2.0, 2.0), _const_interval(dom, -1.0, 3.0)]
    slim = [_const_interval(dom, -1.0, 1.0), _const_interval(dom, 0.0, 2.0)]
    (out_w,) = interval_pushforward(sys1, wide, dom)
    (out_s,) = interval_pushforward(sys1, slim, dom)
    off = ~dom.skeleton
    assert np.all(out_s.lower.values[off] >= out_w.lower.values[off])
    assert np.all(out_s.upper.values[off] <= out_w.upper.values[off])


def test_pushforward_reports_domain_error_with_point():
    sys1 = PdeSystem(1, 1, 1, ["log(u[1,(0)])"], ["0"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (9,))
    ivs = [_const_interval(dom, -2.0, -1.0), _const_interval(dom, 0.0, 0.0)]
    with pytest.raises(IntervalDomainError, match="lattice point"):
        interval_pushforward(sys1, ivs, dom)


def test_pushforward_names_first_faulted_point():
    sys1 = PdeSystem(1, 1, 1, ["log(u[1,(0)])"], ["0"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (9,))
    lo = normalize(GridFunction(dom, np.where(np.arange(9) < 4, 1.0, -2.0)))
    hi = normalize(GridFunction(dom, np.where(np.arange(9) < 4, 2.0, -1.0)))
    ivs = [OrderInterval(lo, hi), _const_interval(dom, 0.0, 0.0)]
    with pytest.raises(IntervalDomainError,
                       match=r"component 1 undefined over the jet box at lattice point \(4,\)"):
        interval_pushforward(sys1, ivs, dom)


def test_pushforward_names_first_point_where_the_component_faults():
    # the first log faults at points 5..8 and the second at point 2: the
    # error names the first point where F_1 faults, whichever operation it is
    text = "log(u[1,(0)]) + log(u[2,(0)])"
    sys2 = PdeSystem(1, 2, 1, [text, "u[2,(0)]"], ["0", "0"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (9,))
    zero = _const_interval(dom, 0.0, 0.0)
    ivs = [_marked_interval(dom, 1.0, 2.0, [5, 6, 7, 8], -2.0, -1.0), zero,
           _marked_interval(dom, 1.0, 2.0, 2, -2.0, -1.0), zero]
    with pytest.raises(IntervalDomainError,
                       match=r"component 1 undefined over the jet box at lattice point \(2,\)"
                       ) as err:
        interval_pushforward(sys2, ivs, dom)
    assert np.flatnonzero(err.value.faulted).tolist() == [2, 5, 6, 7, 8]


def _marked_interval(dom, lo, hi, at, skel_lo, skel_hi):
    """[lo, hi] everywhere but at the lattice points `at`, which take
    [skel_lo, skel_hi]; not normalized, so those values reach the
    pushforward as given."""
    raw_lo = np.full(dom.shape, float(lo))
    raw_hi = np.full(dom.shape, float(hi))
    raw_lo[at], raw_hi[at] = skel_lo, skel_hi
    return OrderInterval(GridFunction(dom, raw_lo), GridFunction(dom, raw_hi))


@pytest.mark.parametrize("text, skel_lo, skel_hi", [
    ("u[1,(0)]^2", np.inf, -np.inf),   # an empty box on the skeleton
    ("log(u[1,(0)])", -2.0, -1.0),     # a domain fault on the skeleton alone
], ids=["empty_box", "log_fault"])
def test_pushforward_never_reads_skeleton_values(text, skel_lo, skel_hi):
    # normalize overwrites the skeleton, so F is evaluated off it only and
    # the enclosure is the one of the same box with ordinary skeleton values
    sys1 = PdeSystem(1, 1, 1, [text], ["0"], [0.0], [1.0])
    skeleton = np.zeros(9, dtype=bool)
    skeleton[4] = True
    dom = GridDomain([0.0], [1.0], (9,), skeleton)
    zero = _const_interval(dom, 0.0, 0.0)
    (got,) = interval_pushforward(
        sys1, [_marked_interval(dom, 1.0, 2.0, 4, skel_lo, skel_hi), zero], dom)
    (want,) = interval_pushforward(sys1, [_const_interval(dom, 1.0, 2.0), zero], dom)
    for g, w in ((got.lower, want.lower), (got.upper, want.upper)):
        assert g.normalized and np.array_equal(g.values, w.values)
    # a fault off the skeleton is still named by its lattice point
    ivs = [_marked_interval(dom, 1.0, 2.0, [4, 6], -2.0, -1.0), zero]
    log1 = PdeSystem(1, 1, 1, ["log(u[1,(0)])"], ["0"], [0.0], [1.0])
    with pytest.raises(IntervalDomainError,
                       match=r"component 1 undefined over the jet box at lattice point \(6,\)"
                       ) as err:
        interval_pushforward(log1, ivs, dom)
    assert np.array_equal(np.flatnonzero(err.value.faulted), [6])


@pytest.mark.parametrize("text, lo, hi", [
    ("1 / u[2,(0)]", -1.0, 1.0),          # a divisor straddling 0
    ("exp(u[2,(0)])", 800.0, 900.0),      # above exp's overflow threshold
    ("u[2,(0)]^2", 1e200, 1e200),         # a square past the largest double
])
def test_pushforward_reports_unbounded_enclosure_with_point(text, lo, hi):
    # an enclosure may be unbounded only on the skeleton; off it the error
    # names the component and the first point, as a domain fault does
    sys2 = PdeSystem(1, 2, 1, ["u[1,(0)]", text], ["0", "0"], [0.0], [1.0])
    skeleton = np.zeros(9, dtype=bool)
    skeleton[0] = True
    dom = GridDomain([0.0], [1.0], (9,), skeleton)
    zero = _const_interval(dom, 0.0, 0.0)
    ivs = [_const_interval(dom, 0.0, 1.0), zero, _const_interval(dom, lo, hi), zero]
    with pytest.raises(IntervalDomainError,
                       match=r"component 2 unbounded over the jet box at lattice point \(1,\)"):
        interval_pushforward(sys2, ivs, dom)


def test_pushforward_arity_checked():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(0)]"], ["0"], [0.0], [1.0])
    dom = GridDomain([0.0], [1.0], (9,))
    with pytest.raises(ValueError):
        interval_pushforward(sys1, [_const_interval(dom, 0.0, 1.0)], dom)


# ---------------------------------------------------------------------------
# nested sequences


def test_nested_limit_converges_to_midpoint():
    dom = GridDomain([0.0], [1.0], (17,))
    u = normalize(GridFunction(dom, np.sin(dom.axis(0))))
    seq = envelope_sequence(u, 5)  # final width 2/5
    rep = nested_limit_check(seq, tol=0.5)
    assert rep.all_converge()
    (comp,) = rep.components
    assert comp.max_final_width == pytest.approx(0.4)
    assert comp.limit.values == pytest.approx(u.values)


def test_nested_limit_flags_constant_width():
    dom = GridDomain([0.0], [1.0], (17,))
    u = normalize(GridFunction(dom, np.zeros(dom.shape)))
    step = (_const_interval(dom, -0.5, 0.5),)
    rep = nested_limit_check(IntervalSequence([step, step, step]), tol=0.5)
    (comp,) = rep.components
    assert comp.verdict == "empty/slow"
    assert comp.limit is None
    assert np.array_equal(comp.offending, ~dom.skeleton)


def test_nested_limit_never_subtracts_skeleton_values():
    # +inf on the skeleton: a width taken there would be inf - inf
    skeleton = np.zeros(9, dtype=bool)
    skeleton[4] = True
    dom = GridDomain([0.0], [1.0], (9,), skeleton)
    vals = np.arange(9.0)
    vals[4] = np.inf
    u = GridFunction(dom, vals)
    (comp,) = nested_limit_check(IntervalSequence([(OrderInterval(u, u),)]), 1e-3).components
    assert comp.verdict == "converges" and comp.max_final_width == 0.0
    assert comp.limit.values.tolist() == [0.0, 1.0, 2.0, 3.0, 3.0, 5.0, 6.0, 7.0, 8.0]
    (comp,) = nested_limit_check(IntervalSequence([(OrderInterval(u, u + 1.0),)]),
                                 1e-3).components
    assert comp.verdict == "empty/slow" and comp.max_final_width == 1.0
    assert np.array_equal(comp.offending, ~skeleton)


def test_nested_limit_rejects_bad_inputs():
    dom = GridDomain([0.0], [1.0], (17,))
    grow = [
        (_const_interval(dom, -1.0, 1.0),),
        (_const_interval(dom, -2.0, 2.0),),
    ]
    with pytest.raises(ValueError, match="step 0"):
        IntervalSequence(grow)
    ok = IntervalSequence([(_const_interval(dom, 0.0, 1.0),)])
    with pytest.raises(ValueError):
        nested_limit_check(ok, tol=0.0)
    with pytest.raises(ValueError):
        IntervalSequence([])


def test_nested_limit_on_scheme_bands():
    # band sequences from a real run, one order interval per jet variable
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    res = run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 4)
    steps = []
    for s in res.stages:
        bands = _band_functions(s.band_lo, s.band_hi, s.domain, res.tiling.i_cells)
        steps.append(tuple(OrderInterval(lo, hi) for lo, hi in bands))
    seq = IntervalSequence(steps)
    rep = nested_limit_check(seq, tol=1.0)  # final width (15/16) * 4/N
    assert rep.all_converge()
    # the derivative-slot limit candidate tracks the stage-N jet value
    lim = rep.components[1].limit
    off = ~res.stages[-1].domain.skeleton
    assert np.max(np.abs(lim.values[off] - 0.95)) < 0.1


def test_envelope_sequence_sandwich():
    dom = GridDomain([0.0], [1.0], (33,))
    rng = np.random.default_rng(13)
    x = dom.axis(0)
    u = normalize(GridFunction(dom, np.where(x < 0.5, *rng.uniform(-1, 1, 2))))
    seq = envelope_sequence(u, 6)
    off = ~dom.skeleton
    for k in range(len(seq) - 1):
        lo_k, hi_k = seq.steps[k][0].lower, seq.steps[k][0].upper
        lo_n, hi_n = seq.steps[k + 1][0].lower, seq.steps[k + 1][0].upper
        assert np.all(lo_k.values[off] <= lo_n.values[off])
        assert np.all(lo_n.values[off] <= u.values[off])
        assert np.all(u.values[off] <= hi_n.values[off])
        assert np.all(hi_n.values[off] <= hi_k.values[off])
    assert nested_limit_check(seq, tol=0.5).all_converge()


# ---------------------------------------------------------------------------
# dilation envelopes


def test_dilation_envelopes_monotone_and_localized():
    dom = GridDomain([0.0], [1.0], (65,))
    x = dom.axis(0)
    u = GridFunction(dom, np.where(x < 0.5, 0.0, 1.0))
    # count large enough that the radius hits the one-cell floor r0/k <= h
    envs = dilation_envelopes(u, 16, r0=0.25)
    for k, e in enumerate(envs):
        assert np.all(e.values >= u.values)
        if k > 0:
            assert np.all(e.values <= envs[k - 1].values)
    # at the radius floor the envelope only disagrees within one cell of the jump
    gap = envs[-1].values - u.values
    busy = np.flatnonzero(gap > 1e-12)
    jump = int(np.searchsorted(x, 0.5))
    assert np.all(np.abs(busy - jump) <= 1)


@pytest.mark.parametrize("shape, r0", [((40,), 0.04), ((40,), 0.3), ((40,), 5.0),
                                       ((9, 13), 0.1), ((9, 13), 0.35), ((9, 13), 4.0),
                                       ((5, 7, 6), 0.2), ((5, 7, 6), 3.0)])
def test_dilation_envelopes_match_brute_force_window_max(shape, r0):
    # oracle: the max over each index window clipped to the box, of
    # half-width max(1, floor(r / h_d)) along axis d, taken over the
    # unmarked values at an unmarked point and over all values at a marked
    # one; r0 >= 3 is wider than every axis. The skeleton (points whose
    # indices are all multiples of 3, at random) carries -inf and 7 entries.
    # When every window is one cell wide, a +inf sits in the box corner,
    # whose one-cell block is marked
    rng = np.random.default_rng(sum(shape))
    n = len(shape)
    dom = GridDomain([0.0] * n, [1.0] * n, shape)
    h = dom.spacing
    halves = [[max(1, int(np.floor(max(r0 / k, float(np.max(h))) / h[d] + 1e-12)))
               for d in range(n)] for k in (1, 2, 3)]
    skel = rng.random(shape) < 0.5
    for d in range(n):
        skel &= (np.arange(shape[d]) % 3 == 0).reshape([-1 if e == d else 1 for e in range(n)])
    hot_corner = all(w == 1 for ws in halves for w in ws)
    if hot_corner:
        skel[(slice(0, 2),) * n] = True
    dom = dom.with_skeleton(skel)
    vals = rng.integers(-4, 5, shape).astype(float)  # integers: many ties
    vals[skel] = rng.choice([-np.inf, 7.0], int(skel.sum()))
    if hot_corner:
        vals[(0,) * n] = np.inf
    envs = dilation_envelopes(GridFunction(dom, vals), 3, r0)
    for half, env in zip(halves, envs, strict=True):
        want = np.empty(shape)
        for idx in np.ndindex(*shape):
            window = tuple(slice(max(0, i - w), i + w + 1) for i, w in zip(idx, half))
            want[idx] = (vals[window] if skel[idx] else vals[window][~skel[window]]).max()
        assert np.array_equal(env.values, want)


def _dilation_loop(dom, vals, half):
    """One dilation step as an offset loop: np.maximum of the running max
    and each shifted view, the offsets of the window in itertools.product
    order, over the unmarked values at an unmarked point and all values at
    a marked one."""
    skel = dom.skeleton
    rows = np.stack([np.where(skel, -np.inf, vals), vals])
    acc = np.full(rows.shape, -np.inf)
    for offset in itertools.product(*(range(-w, w + 1) for w in half)):
        dst = (Ellipsis,) + tuple(slice(max(0, -o), max(0, s - max(0, o)))
                                  for o, s in zip(offset, dom.shape))
        src = (Ellipsis,) + tuple(slice(max(0, o), max(0, s - max(0, -o)))
                                  for o, s in zip(offset, dom.shape))
        acc[dst] = np.maximum(acc[dst], rows[src])
    return np.where(skel, acc[1], acc[0])


@pytest.mark.parametrize("shape, r0", [((40,), 0.04), ((40,), 5.0), ((9, 13), 0.1),
                                       ((9, 13), 0.35), ((5, 7, 6), 0.2), ((5, 7, 6), 3.0)])
def test_dilation_envelopes_break_signed_zero_ties_as_the_offset_loop(shape, r0):
    # zeros of both signs tie in every window; the skeleton carries them too
    rng = np.random.default_rng(sum(shape) + 1)
    n = len(shape)
    h = GridDomain([0.0] * n, [1.0] * n, shape).spacing
    skel = rng.random(shape) < 0.3
    for d in range(n):
        skel &= (np.arange(shape[d]) % 2 == 1).reshape([-1 if e == d else 1 for e in range(n)])
    dom = GridDomain([0.0] * n, [1.0] * n, shape, skel)
    for trial in range(5):
        vals = rng.choice([-0.0, 0.0, -1.0] if trial % 2 else [-0.0, 0.0], shape)
        envs = dilation_envelopes(GridFunction(dom, vals), 3, r0)
        for k, env in enumerate(envs, start=1):
            r = max(r0 / k, float(np.max(h)))
            half = [max(1, int(np.floor(r / h[d] + 1e-12))) for d in range(n)]
            assert env.values.tobytes() == _dilation_loop(dom, vals, half).tobytes()


def test_dilation_envelopes_never_read_skeleton_values_off_it():
    # a +inf on the skeleton within reach of unmarked points: they take the
    # max of the unmarked values in their window, and the marked point keeps
    # its whole window's max, so the envelope still bounds u everywhere
    skeleton = np.zeros(9, dtype=bool)
    skeleton[4] = True
    dom = GridDomain([0.0], [1.0], (9,), skeleton)
    vals = np.arange(9.0)
    vals[4] = np.inf
    (env,) = dilation_envelopes(GridFunction(dom, vals), 1, r0=0.125)  # one cell
    assert env.values.tolist() == [1.0, 2.0, 3.0, 3.0, np.inf, 6.0, 7.0, 8.0, 8.0]
    assert np.all(env.values >= vals)


def test_dilation_envelopes_validation():
    dom = GridDomain([0.0], [1.0], (9,))
    u = GridFunction(dom, np.zeros(dom.shape))
    with pytest.raises(ValueError):
        dilation_envelopes(u, 0, 0.5)
    with pytest.raises(ValueError):
        dilation_envelopes(u, 3, 0.0)


# ---------------------------------------------------------------------------
# reference comparison


def test_compare_reference_affine_single_stage_exact():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    res = run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 1)
    rep = compare_reference(sys1, ["0.8 * x1"], res.bands_by_stage)  # slope 1 - gamma/2
    assert rep.max_distance == 0.0
    assert all(d == 0.0 for d in rep.distances[0].values())


def test_compare_reference_negative_control():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    res = run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 2)
    rep = compare_reference(sys1, ["cos(x1)"], res.bands_by_stage)
    assert rep.max_distance > 0.1
    assert rep.max_distance == max(max(d.values()) for d in rep.distances)


def test_compare_reference_stage_one_bands_contain_manufactured():
    sys1 = PdeSystem(
        1, 1, 1, ["u[1,(1)] + u[1,(0)]^3"], ["cos(x1) + sin(x1)^3"], [0.0], [3.0]
    )
    res = run_scheme(sys1, GridDomain([0.0], [3.0], (129,)), 0.4, 1)
    rep = compare_reference(sys1, ["sin(x1)"], res.bands_by_stage)
    assert all(d == 0.0 for d in rep.distances[0].values())


def test_compare_reference_validates_inputs():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    res = run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 1)
    with pytest.raises(ValueError):
        compare_reference(sys1, ["x1", "x1"], res.bands_by_stage)
    with pytest.raises(ValueError):
        compare_reference(sys1, ["u[1,(0)]"], res.bands_by_stage)
