"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line (run with -s to see them on success).
The tolerances are pinned to what the construction certifies: the band
order-convergence check (5b) uses the EQ3 width bound of the last stage,
and exact-jet containment (5c) is asked at distance exactly 0 where the
pointwise equation determines the jet.
"""

import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from ordercomplete.analysis import (
    compare_reference,
    dilation_envelopes,
    interval_pushforward,
)
from ordercomplete.cli import main, verify
from ordercomplete.expr import eval_on_arrays
from ordercomplete.grids import (
    GridDomain,
    GridFunction,
    OrderInterval,
    baire_lower,
    baire_upper,
    normalize,
    quasi_uniform_check,
)
from ordercomplete.jets import MultiIndexSet, TaylorPoly, deriv_eval, sample_jets
from ordercomplete.pde import PdeSystem, apply_operator
from ordercomplete.checker import ApEqCertificate, scheme_verdict
from ordercomplete.solver import global_pair, run_scheme

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _report(label: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {label} failed{tail}"


def _cubic():
    return PdeSystem(
        1, 1, 1,
        ["u[1,(1)] + u[1,(0)]^3"],
        ["cos(x1) + sin(x1)^3"],
        [0.0], [3.0],
    )


# ---------------------------------------------------------------------------
# 1: envelope operators on random step functions


def _random_step(rng, shape):
    skel = np.zeros(shape, dtype=bool)
    for d, s in enumerate(shape):
        # even indices only: marked hyperplanes stay two apart, so no
        # fully marked 2-block can form and the skeleton stays nowhere dense
        for idx in rng.choice(np.arange(2, s - 2, 2), size=2, replace=False):
            sl = [slice(None)] * len(shape)
            sl[d] = int(idx)
            skel[tuple(sl)] = True
    dom = GridDomain([0.0] * len(shape), [1.0] * len(shape), shape, skeleton=skel)
    vals = np.zeros(shape)
    for d, s in enumerate(shape):
        cuts = np.sort(rng.choice(np.arange(1, s - 1),
                                  size=int(rng.integers(1, 4)), replace=False))
        levels = rng.uniform(-2.0, 2.0, cuts.size + 1)
        prof = levels[np.searchsorted(cuts, np.arange(s), side="right")]
        vals = vals + prof.reshape([-1 if k == d else 1 for k in range(len(shape))])
    return GridFunction(dom, vals)


def test_criterion_1_envelope_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    count = 0
    for trial in range(120):
        if trial % 2 == 0:
            shape = (int(rng.integers(16, 129)),)
        else:
            shape = (int(rng.integers(16, 129)), int(rng.integers(16, 129)))
        u = _random_step(rng, shape)
        lo, hi = baire_lower(u), baire_upper(u)
        assert np.all(lo.values <= u.values) and np.all(u.values <= hi.values)
        bump = _random_step(rng, shape)
        v = GridFunction(u.domain, u.values + np.abs(bump.values))
        assert np.all(baire_lower(v).values >= lo.values)
        assert np.all(baire_upper(v).values >= hi.values)
        n1 = normalize(u)
        assert np.array_equal(normalize(n1).values, n1.values)
        count += 1
    elapsed = time.perf_counter() - t0
    _report("1", count >= 100 and elapsed < 10.0,
            f"{count} random step functions in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2: pushforward containment under random selections


def _interval_pair(dom, rng):
    x = np.arange(dom.shape[0])
    cut = int(rng.integers(4, dom.shape[0] - 4))
    lo_vals = np.where(x < cut, *rng.uniform(-1.5, 0.5, 2))
    hi_vals = lo_vals + rng.uniform(0.2, 1.5)
    return OrderInterval(
        normalize(GridFunction(dom, lo_vals)),
        normalize(GridFunction(dom, hi_vals)),
    )


def test_criterion_2_pushforward_containment():
    rng = np.random.default_rng(202)
    templates = [
        "{a:.6f} * u[1,(1)] + {b:.6f} * u[1,(0)]^3",
        "sin(u[1,(0)]) + {a:.6f} * u[1,(1)]",
        "u[1,(0)] * u[1,(1)] + {a:.6f} * x1",
        "exp({a:.6f} * u[1,(0)]) - u[1,(1)]^2",
        "cos(x1) * u[1,(1)] + u[1,(0)]^2 - {a:.6f}",
    ]
    skel = np.zeros(17, dtype=bool)
    skel[8] = True
    dom = GridDomain([0.0], [1.0], (17,), skeleton=skel)
    x = dom.axis(0)
    off = ~dom.skeleton
    t0 = time.perf_counter()
    violations = 0
    for case in range(20):
        body = templates[case % len(templates)].format(
            a=rng.uniform(-2, 2), b=rng.uniform(-2, 2)
        )
        sys1 = PdeSystem(1, 1, 1, [body], ["0"], [0.0], [1.0])
        ivs = [_interval_pair(dom, rng), _interval_pair(dom, rng)]
        (out,) = interval_pushforward(sys1, ivs, dom)
        for _ in range(1000):
            sel0 = rng.uniform(ivs[0].lower.values, ivs[0].upper.values)
            sel1 = rng.uniform(ivs[1].lower.values, ivs[1].upper.values)
            img = eval_on_arrays(sys1.F[0], [x], {(1, (0,)): sel0, (1, (1,)): sel1})
            violations += int(np.sum(img[off] < out.lower.values[off]))
            violations += int(np.sum(img[off] > out.upper.values[off]))
    elapsed = time.perf_counter() - t0
    _report("2", violations == 0 and elapsed < 30.0,
            f"20 cases x 1000 selections, {violations} violations, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3: jet reconstruction exactness


def test_criterion_3_jet_exactness():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(0, 4))
        mis = MultiIndexSet(n, m)
        x0 = rng.uniform(-2.0, 2.0, n)
        vals = rng.uniform(-10.0, 10.0, (1, mis.count))
        p = TaylorPoly(x0, vals[0], mis)
        for k, alpha in enumerate(mis.alphas):
            want = vals[0, k]
            got = deriv_eval(p, alpha, x0)
            tol = 4 * math.ulp(max(abs(want), abs(got)))
            diff = abs(got - want)
            worst = max(worst, diff / max(math.ulp(max(abs(want), 1e-300)), 5e-324))
            assert diff <= tol
    _report("3", True, f"1000 jets, worst offset {worst:.2f} ulp")


# ---------------------------------------------------------------------------
# 4: global bracketing pair at 512 points


def test_criterion_4_global_pair():
    sys1 = _cubic()
    dom = GridDomain([0.0], [3.0], (512,))
    t0 = time.perf_counter()
    gp = global_pair(sys1, dom, 0.1)
    elapsed = time.perf_counter() - t0
    (tu,) = apply_operator(sys1, sample_jets(gp.lower, dom))
    (tv,) = apply_operator(sys1, sample_jets(gp.upper, dom))
    xs = dom.axis(0)
    f = np.cos(xs) + np.sin(xs) ** 3
    off = ~tu.domain.skeleton
    ok = (
        gp.certificate.passed
        and np.all(f[off] - 0.1 < tu.values[off])
        and np.all(tu.values[off] < f[off])
        and np.all(f[off] < tv.values[off])
        and np.all(tv.values[off] < f[off] + 0.1)
        and elapsed < 60.0
    )
    _report("4", bool(ok),
            f"{len(gp.cells)} cells, {elapsed:.2f}s, "
            f"min margin {min(gp.certificate.lower_gap, gp.certificate.lower_strict, gp.certificate.upper_strict, gp.certificate.upper_gap):.2e}")


# ---------------------------------------------------------------------------
# 5: staged refinement at 512 points


@pytest.fixture(scope="module")
def scheme512():
    t0 = time.perf_counter()
    res = run_scheme(_cubic(), GridDomain([0.0], [3.0], (512,)), 0.2, 5)
    return res, time.perf_counter() - t0


def test_criterion_5a_stage_certificates(scheme512):
    res, elapsed = scheme512
    # the stage certificates alone: a passing stand-in for the global pair
    passing = ApEqCertificate(eps=0.2, passed=True, lower_gap=1.0, lower_strict=1.0,
                              upper_strict=1.0, upper_gap=1.0)
    ok = scheme_verdict(res.stages, res, passing)[0] and elapsed < 300.0
    for s in res.stages:
        gn = 0.2 / s.n
        ok = ok and s.eq1.passed and s.eq1.lower_slack > 0 and s.eq1.upper_slack > 0
        ok = ok and s.eq1.lower_slack + s.eq1.upper_slack <= gn * (1 + 1e-12)
        ok = ok and s.eq2.passed and s.eq3.passed and s.eq3.max_ratio < 1.0
    ok = ok and res.final_sup_gap < 0.2 / 5
    _report("5a", bool(ok),
            f"5 stages, final gap {res.final_sup_gap:.4f} < 0.04, {elapsed:.1f}s")


def test_criterion_5b_band_order_convergence(scheme512):
    """Every band sequence is a monotone bracket chain whose terminal gaps
    lie below the EQ3 bound of the last stage, 4 max(radii)/N.

    EQ3 certifies band widths below 4 eps_c/n, and refine keeps the J-cell
    anchor jets an eighth of the width inside the band, so the terminal gaps scale
    with the radii over N and a fixed tolerance cannot be met. The bound is
    recomputed here so the certificate's tolerance cannot be widened.
    """
    res, _ = scheme512
    bound = 4.0 * float(np.max(res.tiling.radii)) / res.N
    ok = bool(res.oc_bands) and all(
        c.chain_ok and c.passed and c.tol == bound for c in res.oc_bands.values()
    )
    detail = ", ".join(
        f"{k}: gaps {c.sup_gap:.4f}/{c.inf_gap:.4f} tol {c.tol:.4f}"
        for k, c in res.oc_bands.items()
    )
    _report("5b", ok, f"{detail}; bound 4*max(radii)/N = {bound:.4f}")


def test_criterion_5c_exact_jet_containment(scheme512):
    """The reference solution's jets lie in the stage bands at distance 0.

    The method fixes a generalized solution only up to T-equivalence, so
    containment of one particular classical solution is asked only where
    the pointwise equation F(a, xi) = f(a) - gamma/2n determines the jet:
    the order-0 problem u + u^3 = sin x1 + sin^3 x1, at every stage. The
    cubic demo u' + u^3 = f has no initial condition, its pointwise
    equation has a curve of solutions and jet_solve takes the minimal-norm
    one, so there only stage 1 (whose bands are widest) contains sin.
    Neither the construction nor the paper promises all-stage containment
    even for determined jets: at N=5 it holds because the last band
    half-width (0.375) still exceeds the spread of sin over an I-cell plus
    the gamma/2n offset.
    """
    sys0 = PdeSystem(
        1, 1, 0,
        ["u[1,(0)] + u[1,(0)]^3"],
        ["sin(x1) + sin(x1)^3"],
        [0.0], [3.0],
    )
    res0 = run_scheme(sys0, GridDomain([0.0], [3.0], (512,)), 0.2, 5)
    rep0 = compare_reference(sys0, ["sin(x1)"], res0.bands_by_stage)
    per_stage = [max(d.values()) for d in rep0.distances]
    res, _ = scheme512
    cubic_stage1 = max(
        compare_reference(_cubic(), ["sin(x1)"], res.bands_by_stage).distances[0].values())
    ok = len(per_stage) == 5 and rep0.max_distance == 0.0 and cubic_stage1 == 0.0
    _report("5c", ok,
            "order-0 per-stage distances "
            + ", ".join(f"{d:.4f}" for d in per_stage)
            + f"; cubic stage 1 distance {cubic_stage1:.4f}")


# ---------------------------------------------------------------------------
# 6: affine closed form to 4 ulp


def test_criterion_6_affine_closed_form():
    sys1 = PdeSystem(1, 1, 1, ["u[1,(1)]"], ["1"], [0.0], [1.0])
    res = run_scheme(sys1, GridDomain([0.0], [1.0], (65,)), 0.4, 4)
    worst = 0.0
    for s in res.stages:
        (tv,) = apply_operator(sys1, sample_jets(s.v, s.domain))
        want = 1.0 - 0.4 / (2 * s.n)
        off = ~s.domain.skeleton
        worst = max(worst, float(np.max(np.abs(tv.values[off] - want))))
    ok = worst <= 4 * math.ulp(1.0)
    _report("6", ok, f"max deviation {worst / math.ulp(1.0):.1f} ulp")


# ---------------------------------------------------------------------------
# 7: negative controls through the CLI


def test_criterion_7_negative_controls(tmp_path):
    out_bad = tmp_path / "bad"
    code_bad = main([
        "run", str(DEMOS / "unsolvable_1d.spec"), "--gamma", "0.4",
        "--stages", "1", "--out", str(out_bad),
    ])
    spec = tmp_path / "ok.spec"
    spec.write_text(
        "n = 1\nK = 1\nm = 1\nbox.lo = 0\nbox.hi = 3\ngrid = 64\n"
        "F1 = u[1,(1)] + u[1,(0)]^3\nf1 = cos(x1) + sin(x1)^3\n"
    )
    out_ok = tmp_path / "ok"
    assert main(["run", str(spec), "--gamma", "0.4", "--stages", "1",
                 "--out", str(out_ok)]) == 0
    tampered = tmp_path / "tampered"
    shutil.copytree(out_ok, tampered)
    cert = json.loads((tampered / "certificate.json").read_text())
    cert["global_pair"]["lower_gap"] = -cert["global_pair"]["lower_gap"]
    (tampered / "certificate.json").write_text(json.dumps(cert))
    code_ver = verify(tampered)
    ok = code_bad == 3 and code_ver == 2
    _report("7", ok, f"construction exit {code_bad}, tampered verify exit {code_ver}")


# ---------------------------------------------------------------------------
# 8: quasi-uniform decay of shrinking-window envelopes


def test_criterion_8_quasi_uniform_envelopes():
    dom = GridDomain([0.0], [1.0], (65,))
    x = dom.axis(0)
    u = GridFunction(dom, np.where(x < 0.5, 0.0, 1.0))
    envs = dilation_envelopes(u, 16, r0=0.25)
    q = quasi_uniform_check(envs, u, eps=0.1)
    jump = int(np.searchsorted(x, 0.5))
    gamma_idx = np.flatnonzero(q.gamma)
    off = ~dom.skeleton
    elsewhere = off.copy()
    elsewhere[q.gamma] = False
    ok = (
        gamma_idx.size > 0
        and np.all(np.abs(gamma_idx - jump) <= 1)
        and np.all(q.n_map[elsewhere] >= 1)
        and q.nowhere_dense_ok
    )
    _report("8", bool(ok),
            f"exceptional points {gamma_idx.tolist()} around jump index {jump}, "
            f"max entry index elsewhere {int(q.n_map[elsewhere].max())}")
