"""Parser, renderer, evaluators, and jet differentiation.

Derived expected values are frozen from independent oracles computed in
place: finite differences for derivatives, dense random sampling for
interval containment.
"""

import math

import numpy as np
import pytest

from ordercomplete import expr as ex
from ordercomplete.intervals import Interval


SIG111 = (1, 1, 1)


# ---------------------------------------------------------------------------
# parsing


def test_parse_jet_plus_cube():
    e = ex.parse("u[1,(1)] + u[1,(0)]^3", SIG111)
    assert isinstance(e, ex.Add)
    assert isinstance(e.left, ex.JetVar) and e.left.alpha == (1,)
    assert isinstance(e.right, ex.Pow) and e.right.exponent == 3
    assert isinstance(e.right.base, ex.JetVar) and e.right.base.alpha == (0,)


def test_parse_space_only():
    e = ex.parse("cos(x1) + sin(x1)^3", SIG111)
    assert not ex.has_jet_vars(e)
    assert ex.jet_vars(e) == set()


def test_parse_component_out_of_range():
    with pytest.raises(ex.SignatureError):
        ex.parse("u[2,(0,1)]", (2, 1, 1))


def test_parse_order_and_dimension_violations():
    with pytest.raises(ex.SignatureError):
        ex.parse("u[1,(2)]", (1, 1, 1))  # |alpha| exceeds m
    with pytest.raises(ex.SignatureError):
        ex.parse("u[1,(0,0)]", (1, 1, 1))  # alpha length != n
    with pytest.raises(ex.SignatureError):
        ex.parse("x2", (1, 1, 1))


def test_parse_error_carries_position():
    with pytest.raises(ex.ParseError) as ei:
        ex.parse("1 + + 2", SIG111)
    assert ei.value.line == 1 and ei.value.col >= 4
    with pytest.raises(ex.ParseError):
        ex.parse("sin(x1", SIG111)
    with pytest.raises(ex.ParseError):
        ex.parse("x1 ^ x1", SIG111)  # exponent must be an integer literal


def test_precedence_and_unary_minus():
    e = ex.parse("1 + 2 * 3", SIG111)
    assert ex.eval_point(e, [0.0]) == 7.0
    # '-' binds at atom level: -x1^2 is (-x1)^2
    e = ex.parse("-x1^2", SIG111)
    assert ex.eval_point(e, [3.0]) == 9.0
    e = ex.parse("-(x1^2)", SIG111)
    assert ex.eval_point(e, [3.0]) == -9.0
    e = ex.parse("2^3^2", SIG111) if False else ex.parse("(2^3)^2", SIG111)
    assert ex.eval_point(e, [0.0]) == 64.0


def test_render_round_trip():
    cases = [
        "u[1,(1)] + u[1,(0)]^3",
        "cos(x1) + sin(x1)^3",
        "-(x1 + 1) * (x1 - 2)",
        "1 / (u[1,(0)] + 2)",
        "abs(x1) - sqrt(x1 + 5)",
        "x1 * x1 * x1 - -x1",
    ]
    for text in cases:
        e = ex.parse(text, SIG111)
        again = ex.parse(ex.render(e), SIG111)
        assert again == e, text


def test_render_minimal_parens():
    e = ex.parse("(x1 + 1) * 2", SIG111)
    assert ex.render(e) == "(x1 + 1) * 2"
    e = ex.parse("x1 + 1 * 2", SIG111)
    assert ex.render(e) == "x1 + 1 * 2"


# ---------------------------------------------------------------------------
# point evaluation


def test_eval_point_jet_cube():
    e = ex.parse("u[1,(1)] + u[1,(0)]^3", SIG111)
    assert ex.eval_point(e, [0.0], {(1, (0,)): 2.0, (1, (1,)): 1.0}) == 9.0


def test_eval_point_cos_zero():
    e = ex.parse("cos(x1)", SIG111)
    assert ex.eval_point(e, [0.0]) == 1.0


def test_eval_point_division_by_zero():
    e = ex.parse("1 / u[1,(0)]", SIG111)
    with pytest.raises(ex.EvalDomainError):
        ex.eval_point(e, [0.0], {(1, (0,)): 0.0})


def test_eval_point_domain_errors():
    with pytest.raises(ex.EvalDomainError):
        ex.eval_point(ex.parse("log(x1)", SIG111), [-1.0])
    with pytest.raises(ex.EvalDomainError):
        ex.eval_point(ex.parse("sqrt(x1)", SIG111), [-1.0])
    with pytest.raises(ex.EvalDomainError):
        ex.eval_point(ex.parse("x1^-1", SIG111), [0.0])


def test_eval_point_missing_jet_values():
    e = ex.parse("u[1,(0)]", SIG111)
    with pytest.raises(ex.EvalDomainError):
        ex.eval_point(e, [0.0])


# ---------------------------------------------------------------------------
# array evaluation


def test_eval_on_arrays_matches_pointwise():
    e = ex.parse("sin(x1) * u[1,(0)] + x1^2", SIG111)
    xs = np.linspace(-2.0, 2.0, 17)
    js = np.linspace(0.0, 1.0, 17)
    out = ex.eval_on_arrays(e, [xs], {(1, (0,)): js})
    for k in range(xs.size):
        ref = ex.eval_point(e, [xs[k]], {(1, (0,)): js[k]})
        assert out[k] == pytest.approx(ref, rel=0, abs=0)


def test_eval_on_arrays_constant_broadcasts():
    e = ex.parse("1", SIG111)
    out = ex.eval_on_arrays(e, [np.zeros(9)])
    assert out.shape == (9,) and np.all(out == 1.0)


def test_eval_on_arrays_domain_error():
    e = ex.parse("log(x1)", SIG111)
    with pytest.raises(ex.EvalDomainError):
        ex.eval_on_arrays(e, [np.array([1.0, -1.0])])


def test_eval_on_arrays_fault_carries_mask_and_values():
    e = ex.parse("log(x1)", SIG111)
    xs = np.array([[1.0, -1.0], [0.0, np.e]])
    with pytest.raises(ex.EvalDomainError) as ei:
        ex.eval_on_arrays(e, [xs])
    assert np.array_equal(ei.value.faulted, [[False, True], [True, False]])
    assert ei.value.values.shape == (2, 2)
    assert ei.value.values[0, 0] == 0.0 and ei.value.values[1, 1] == 1.0


# inputs that cross every fault of the expressions below: zero and
# subnormal denominators, the log/sqrt domain edges, exp(u^3) overflowing
# just above u = 709.78^(1/3) = 8.92, and non-finite jet values
_CROSSING = [
    -np.inf, -1e200, -9.0, -2.0, -1e-300, -0.0, 0.0, 5e-324, 1e-310, 1e-5,
    0.5, 1.0, 2.0, 8.9, 9.0, 1e103, 1e200, 1e308, np.inf, np.nan,
]


@pytest.mark.parametrize("text", [
    "1/U", "1/(1/U)", "log(U)", "exp(log(U))", "sqrt(U)", "U^-1",
    "(log(U))^0", "exp(-exp(U^3))", "exp(U^3)",
    "(U^3)^0", "1/U^3", "U^3 - U^3", "sin(U^3)", "abs(-U)^-2", "U * 1e300",
])
def test_point_and_array_evaluators_fault_alike(text):
    e = ex.parse(text.replace("U", "u[1,(0)]"), SIG111)
    us = np.array(_CROSSING)
    with np.errstate(all="ignore"):
        vals, faulted = ex._eval_arrays(e, [np.zeros_like(us)], {(1, (0,)): us})
    point_faults = []
    for k, u in enumerate(us):
        try:
            want = ex.eval_point(e, [0.0], {(1, (0,)): u})
        except ex.EvalDomainError:
            point_faults.append(k)
            continue
        # abs covers results that underflow to subnormals
        assert vals[k] == pytest.approx(want, rel=1e-13, abs=1e-300), u
    assert np.flatnonzero(faulted).tolist() == point_faults
    assert 0 < len(point_faults) < us.size
    with pytest.raises(ex.EvalDomainError) as ei:
        ex.eval_on_arrays(e, [np.zeros_like(us)], {(1, (0,)): us})
    assert np.array_equal(ei.value.faulted, faulted)


# ---------------------------------------------------------------------------
# interval evaluation


def test_interval_square():
    e = ex.parse("u[1,(0)]^2", SIG111)
    out = ex.eval_interval(e, [Interval.point(0.0)], {(1, (0,)): Interval(-1.0, 2.0)})
    assert out.lo <= 0.0 <= out.hi and out.hi >= 4.0
    assert out.lo >= -1e-300  # even power is tight at zero, not [-2, 4]


def test_interval_dependency_loss_contains_zero():
    e = ex.parse("u[1,(0)] - u[1,(0)]", SIG111)
    out = ex.eval_interval(e, [Interval.point(0.0)], {(1, (0,)): Interval(0.0, 1.0)})
    assert out.contains(0.0)


def test_interval_cube_sum_brute_force():
    # oracle: 10^4 random selections inside the operand boxes must land
    # inside the computed enclosure, which must cover [1, 9]
    e = ex.parse("u[1,(1)] + u[1,(0)]^3", SIG111)
    jets = {(1, (0,)): Interval(1.0, 2.0), (1, (1,)): Interval(0.0, 1.0)}
    out = ex.eval_interval(e, [Interval.point(0.0)], jets)
    assert out.lo <= 1.0 and out.hi >= 9.0
    rng = np.random.default_rng(23)
    xi0 = rng.uniform(1.0, 2.0, 10_000)
    xi1 = rng.uniform(0.0, 1.0, 10_000)
    vals = xi1 + xi0**3
    assert np.all(vals >= out.lo) and np.all(vals <= out.hi)


def test_interval_trig_and_domain():
    e = ex.parse("sin(x1)", SIG111)
    out = ex.eval_interval(e, [Interval(0.0, math.pi)])
    assert out.hi >= 1.0
    e = ex.parse("log(x1)", SIG111)
    with pytest.raises(ex.EvalDomainError):
        ex.eval_interval(e, [Interval(-2.0, -1.0)])


# ---------------------------------------------------------------------------
# jet differentiation


def _fd(e, var, x, jets, h=1e-6):
    up = dict(jets)
    dn = dict(jets)
    up[var] = jets[var] + h
    dn[var] = jets[var] - h
    return (ex.eval_point(e, x, up) - ex.eval_point(e, x, dn)) / (2.0 * h)


def test_diff_cube():
    e = ex.parse("u[1,(1)] + u[1,(0)]^3", SIG111)
    d = ex.diff_jet(e, (1, (0,)))
    assert ex.render(d) == "3 * u[1,(0)]^2"
    d1 = ex.diff_jet(e, (1, (1,)))
    assert ex.render(d1) == "1"


def test_diff_no_dependence_is_zero():
    e = ex.parse("cos(x1)", SIG111)
    assert ex.render(ex.diff_jet(e, (1, (0,)))) == "0"


def test_diff_product_fd_oracle():
    # d(xi0 * xi1)/d xi1 = xi0, cross-checked against central differences
    # at 100 random points
    e = ex.parse("u[1,(0)] * u[1,(1)]", SIG111)
    d = ex.diff_jet(e, (1, (1,)))
    assert ex.render(d) == "u[1,(0)]"
    rng = np.random.default_rng(31)
    for _ in range(100):
        jets = {(1, (0,)): rng.uniform(-3, 3), (1, (1,)): rng.uniform(-3, 3)}
        x = [rng.uniform(-1, 1)]
        sym = ex.eval_point(d, x, jets)
        num = _fd(e, (1, (1,)), x, jets)
        assert sym == pytest.approx(num, rel=1e-6, abs=1e-6)


def test_diff_chain_rule_fd_oracle():
    e = ex.parse("sin(u[1,(0)]^2) / (u[1,(1)] + 2)", SIG111)
    rng = np.random.default_rng(37)
    for var in [(1, (0,)), (1, (1,))]:
        d = ex.diff_jet(e, var)
        for _ in range(50):
            jets = {(1, (0,)): rng.uniform(-2, 2), (1, (1,)): rng.uniform(-1, 1)}
            x = [0.0]
            assert ex.eval_point(d, x, jets) == pytest.approx(
                _fd(e, var, x, jets), rel=1e-5, abs=1e-6
            )


def test_diff_abs_raises():
    e = ex.parse("abs(u[1,(0)])", SIG111)
    with pytest.raises(ex.NondifferentiableError):
        ex.diff_jet(e, (1, (0,)))


def test_jet_vars_collection():
    e = ex.parse("u[1,(1)] + u[1,(0)]^3 + x1", SIG111)
    assert ex.jet_vars(e) == {(1, (0,)), (1, (1,))}
