"""Parser, renderer, evaluators, and jet differentiation.

Derived expected values are frozen from independent oracles computed in
place: finite differences for derivatives, dense random sampling for
interval containment, and a 60-digit mpmath walk of the tree for point
values and faults.
"""

import math

import mpmath
import numpy as np
import pytest

from ordercomplete import expr as ex
from ordercomplete.intervals import Interval


SIG111 = (1, 1, 1)


def _contains(iv: Interval, x) -> np.ndarray:
    """Whether each x lies in the closed interval iv, elementwise."""
    return (iv.lo <= x) & (x <= iv.hi)


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
    with pytest.raises(ex.ParseError, match="overflows"):
        ex.parse("x1 + 1e999", SIG111)  # inf has no literal to render back to


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
    # every function of the grammar, the internal sign, a negative power and
    # a division: jet_solve and the probe rely on each element of a batch
    # depending only on its own inputs, so a point (a one-element batch)
    # must give the bits of its element of a long one
    texts = ["sin(x1) * U + x1^2", "cos(U) - exp(x1 / 4)",
             "log(2 + x1^2) / (3 + U)", "sqrt(abs(x1 * U))", "(1 + U^2)^-3 + x1^-2"]
    exprs = [ex.parse(t.replace("U", "u[1,(0)]"), SIG111) for t in texts]
    exprs.append(ex.diff_jet(ex.parse("x1 * abs(u[1,(0)] - x1)", SIG111), (1, (0,))))
    assert "sign(" in ex.render(exprs[-1])
    rng = np.random.default_rng(18)
    xs = rng.uniform(-4.0, 4.0, 1000)
    js = rng.uniform(-2.0, 2.0, 1000)
    for e in exprs:
        out = ex.eval_on_arrays(e, [xs], {(1, (0,)): js})
        points = np.array([ex.eval_point(e, [xs[k]], {(1, (0,)): js[k]})
                           for k in range(xs.size)])
        np.testing.assert_array_equal(points.view(np.int64), out.view(np.int64),
                                      err_msg=ex.render(e))


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


class _Fault(Exception):
    pass


_MP_FUNCS = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp,
             "log": mpmath.log, "sqrt": mpmath.sqrt, "abs": abs, "sign": mpmath.sign}


def _oracle(e, x, jets):
    """e at one point in 60-digit arithmetic with every node rounded to a
    double, or None where the evaluation faults: a non-finite leaf, a
    division by 0, log of a value <= 0, sqrt of a value < 0, 0 to a
    negative power, or a node that rounds to +-inf."""
    with mpmath.workdps(60):
        try:
            return _oracle_node(e, x, jets)
        except _Fault:
            return None


def _oracle_node(e, x, jets):
    if isinstance(e, ex.Num):
        v = e.value
    elif isinstance(e, ex.SpaceVar):
        v = x[e.index - 1]
    elif isinstance(e, ex.JetVar):
        v = jets[(e.component, e.alpha)]
    else:
        v = _oracle_op(e, x, jets)
    v = float(v)
    if not math.isfinite(v):
        raise _Fault
    return v


def _oracle_op(e, x, jets):
    if isinstance(e, ex.Neg):
        return -_oracle_node(e.operand, x, jets)
    if isinstance(e, ex.Call):
        a = mpmath.mpf(_oracle_node(e.arg, x, jets))
        if (e.func == "log" and a <= 0) or (e.func == "sqrt" and a < 0):
            raise _Fault
        return _MP_FUNCS[e.func](a)
    if isinstance(e, ex.Pow):
        base = mpmath.mpf(_oracle_node(e.base, x, jets))
        if base == 0 and e.exponent < 0:
            raise _Fault
        return base**e.exponent
    left = mpmath.mpf(_oracle_node(e.left, x, jets))
    right = mpmath.mpf(_oracle_node(e.right, x, jets))
    if isinstance(e, ex.Div):
        if right == 0:
            raise _Fault
        return left / right
    if isinstance(e, ex.Add):
        return left + right
    if isinstance(e, ex.Sub):
        return left - right
    return left * right


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
    _assert_faults_as_oracle(ex.parse(text.replace("U", "u[1,(0)]"), SIG111))


@pytest.mark.parametrize("text", ["abs(U)", "abs(U + 1e308)"])
def test_sign_faults_on_a_non_finite_operand(text):
    # sign is internal, reached only through the derivative of abs; it maps
    # +-inf to +-1, so it checks its own operand as exp and division do
    d = ex.diff_jet(ex.parse(text.replace("U", "u[1,(0)]"), SIG111), (1, (0,)))
    assert ex.render(d).startswith("sign(")
    _assert_faults_as_oracle(d)


def _assert_faults_as_oracle(e):
    us = np.array(_CROSSING)
    with pytest.raises(ex.EvalDomainError) as ei:
        ex.eval_on_arrays(e, [np.zeros_like(us)], {(1, (0,)): us})
    vals, faulted = ei.value.values, ei.value.faulted
    wants = [_oracle(e, [0.0], {(1, (0,)): u}) for u in us]
    oracle_faults = [k for k, want in enumerate(wants) if want is None]
    assert np.flatnonzero(faulted).tolist() == oracle_faults
    assert 0 < len(oracle_faults) < us.size
    for k, (u, want) in enumerate(zip(us, wants)):
        jets = {(1, (0,)): u}
        if want is None:
            with pytest.raises(ex.EvalDomainError):
                ex.eval_point(e, [0.0], jets)
            continue
        # abs covers results that underflow to subnormals
        assert vals[k] == pytest.approx(want, rel=1e-13, abs=1e-300), u
        assert ex.eval_point(e, [0.0], jets) == vals[k], u


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
    assert _contains(out, 0.0)


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


def test_interval_sign_of_abs_derivative():
    # sign is monotone, so [sign(lo), sign(hi)] encloses it exactly
    e = ex.diff_jet(ex.parse("abs(u[1,(0)])", SIG111), (1, (0,)))
    assert ex.render(e) == "sign(u[1,(0)])"
    us = Interval(np.array([-2.0, -1.0, 0.0, 0.5, -3.0]), np.array([-1.0, 2.0, 0.0, 3.0, 0.0]))
    out = ex.eval_interval(e, [Interval.point(0.0)], {(1, (0,)): us})
    assert out.lo.tolist() == [-1.0, -1.0, 0.0, 1.0, -1.0]
    assert out.hi.tolist() == [-1.0, 1.0, 0.0, 1.0, 0.0]


def test_eval_interval_on_arrays_matches_pointwise():
    # the pushforward evaluates a whole lattice in one call, so each element
    # of an array eval_interval must have the bits of the shape-() evaluation
    # of its own inputs; the expressions of test_eval_on_arrays_matches_pointwise
    texts = ["sin(x1) * U + x1^2", "cos(U) - exp(x1 / 4)",
             "log(2 + x1^2) / (3 + U)", "sqrt(abs(x1 * U))", "(1 + U^2)^-3 + x1^-2",
             "U^3 - U^5 / (1 + abs(U))", "exp(U) / U"]
    exprs = [ex.parse(t.replace("U", "u[1,(0)]"), SIG111) for t in texts]
    exprs.append(ex.diff_jet(ex.parse("x1 * abs(u[1,(0)] - x1)", SIG111), (1, (0,))))
    rng = np.random.default_rng(19)
    xs = rng.uniform(-4.0, 4.0, 300)
    lo = rng.uniform(-2.0, 2.0, 300)
    hi = lo + rng.exponential(0.5, 300) * (rng.random(300) < 0.8)  # a fifth are points
    x_iv, u_iv = Interval.point(xs), Interval(lo, hi)
    for e in exprs:
        out = ex.eval_interval(e, [x_iv], {(1, (0,)): u_iv})
        assert out.lo.shape == (300,)
        ones = [ex.eval_interval(e, [Interval.point(xs[k])], {(1, (0,)): Interval(lo[k], hi[k])})
                for k in range(xs.size)]
        for end in ("lo", "hi"):
            points = np.array([getattr(one, end) for one in ones])
            np.testing.assert_array_equal(points.view(np.int64),
                                          getattr(out, end).view(np.int64),
                                          err_msg=f"{ex.render(e)} {end}")


def test_eval_interval_fault_carries_full_shape_mask():
    e = ex.parse("x1 + log(u[1,(0)])", SIG111)
    us = Interval(np.array([1.0, -2.0, 0.5, -1.0]), np.array([2.0, -1.0, 1.0, 0.0]))
    with pytest.raises(ex.EvalDomainError) as ei:
        ex.eval_interval(e, [Interval.point(np.zeros((3, 1)))], {(1, (0,)): us})
    assert ei.value.faulted.shape == (3, 4)
    assert ei.value.faulted.tolist() == [[False, True, False, True]] * 3
    # the unfaulted elements still carry their enclosures
    assert ei.value.values.lo.shape == (3, 4)
    assert _contains(ei.value.values, np.log([1.5, 1.0, 0.75, 1.0]))[:, ::2].all()


def test_eval_interval_faults_where_a_box_holds_no_real():
    # [inf, inf] and [-inf, -inf] hold no point: x1 - x1 faults there, as
    # the array evaluator does, instead of computing inf - inf
    e = ex.Sub(ex.SpaceVar(1), ex.SpaceVar(1))
    xs = np.array([1.0, np.inf, -np.inf])
    with pytest.raises(ex.EvalDomainError) as arrays:
        ex.eval_on_arrays(e, [xs])
    with pytest.raises(ex.EvalDomainError) as ei:
        ex.eval_interval(e, [Interval.point(xs)])
    assert ei.value.faulted.tolist() == arrays.value.faulted.tolist() == [False, True, True]
    finite = ex.eval_interval(e, [Interval.point(1.0)])
    assert ei.value.values.lo[0] == finite.lo and ei.value.values.hi[0] == finite.hi
    # a box that only ends at an infinity holds reals, and a jet box faults too
    ex.eval_interval(e, [Interval(np.array([0.0]), np.array([np.inf]))])
    with pytest.raises(ex.EvalDomainError) as ei:
        ex.eval_interval(ex.parse("u[1,(0)] + 1", SIG111), [Interval.point(0.0)],
                         {(1, (0,)): Interval.point(np.array([-np.inf, 2.0]))})
    assert ei.value.faulted.tolist() == [True, False]


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
    # abs(g) differentiates to sign(g) g', with sign(0) = 0. sign is internal,
    # so the rendered derivative raises when parsed back
    d = ex.diff_jet(ex.parse("abs(u[1,(0)])", SIG111), (1, (0,)))
    assert ex.render(d) == "sign(u[1,(0)])"
    with pytest.raises(ex.ParseError):
        ex.parse(ex.render(d), SIG111)
    for u0, want in ((-2.5, -1.0), (0.0, 0.0), (1e-300, 1.0)):
        assert ex.eval_point(d, [0.0], {(1, (0,)): u0}) == want
        arr = ex.eval_on_arrays(d, [np.zeros(1)], {(1, (0,)): np.array([u0])})
        assert arr[0] == want
    cube = ex.parse("abs(u[1,(0)])^3", SIG111)
    d3 = ex.diff_jet(cube, (1, (0,)))
    rng = np.random.default_rng(41)
    for u0 in rng.uniform(-3, 3, 50):
        jets = {(1, (0,)): u0}
        assert ex.eval_point(d3, [0.0], jets) == pytest.approx(
            _fd(cube, (1, (0,)), [0.0], jets), rel=1e-5, abs=1e-6
        )


def test_jet_vars_collection():
    e = ex.parse("u[1,(1)] + u[1,(0)]^3 + x1", SIG111)
    assert ex.jet_vars(e) == {(1, (0,)), (1, (1,))}
