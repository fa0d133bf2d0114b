"""Containment properties of the outward-rounded interval arithmetic.

Two oracles: sample points inside the operand intervals, apply the float
operation, and require the result to land inside the computed interval;
and, stricter, require the exact real image at such points, computed by
mpmath at 60 digits, to land inside it. Outward rounding makes this a
hard guarantee, not a statistical one.
"""

import math

import mpmath
import numpy as np
import pytest

from ordercomplete import expr as ex
from ordercomplete.intervals import (
    Interval,
    abs_interval,
    cos_interval,
    div_interval,
    exp_interval,
    int_pow,
    log_interval,
    sin_interval,
    sqrt_interval,
)
from test_expr import _contains, _Fault, _oracle_op


def _unfaulted(result):
    """The interval of a restricted operation's (interval, mask) result,
    which must not have faulted anywhere."""
    out, faulted = result
    assert not np.any(faulted)
    return out


def _samples(iv: Interval, rng, k=50):
    pts = rng.uniform(iv.lo, iv.hi, size=k)
    return np.concatenate([pts, [iv.lo, iv.hi, 0.5 * (iv.lo + iv.hi)]])


def test_constructor_orders_and_rejects_nan():
    iv = Interval(1.0, 2.0)
    assert iv.lo == 1.0 and iv.hi == 2.0
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)


def test_point_and_predicates():
    p = Interval.point(3.5)
    assert p.lo == p.hi and _contains(p, 3.5) and p.width == 0.0
    assert not _contains(p, 3.5000001)


def test_arithmetic_containment_random():
    rng = np.random.default_rng(7)
    for _ in range(150):
        a = Interval(*sorted(rng.uniform(-5, 5, 2)))
        b = Interval(*sorted(rng.uniform(-5, 5, 2)))
        add, sub, mul = a + b, a - b, a * b
        div = None if _contains(b, 0.0) else _unfaulted(div_interval(a, b))
        for xa in _samples(a, rng, 6):
            for xb in _samples(b, rng, 6):
                assert _contains(add, xa + xb)
                assert _contains(sub, xa - xb)
                assert _contains(mul, xa * xb)
                if div is not None:
                    assert _contains(div, xa / xb)


def test_division_semantics():
    # straddling divisor: total but unbounded, never silently wrong
    out = _unfaulted(div_interval(Interval(1.0, 2.0), Interval(-1.0, 1.0)))
    assert out.lo == -math.inf and out.hi == math.inf
    # the degenerate zero divisor has no consistent enclosure: a fault
    _, faulted = div_interval(Interval(1.0, 2.0), Interval.point(0.0))
    assert faulted
    # divisor touching zero at one end: half-line
    out = _unfaulted(div_interval(Interval(1.0, 1.0), Interval(0.0, 2.0)))
    assert out.hi == math.inf and out.lo <= 0.5


def test_pow_int_even_is_tight_at_zero():
    # squaring an interval straddling zero starts at exactly zero, not at a
    # product of endpoints
    sq = _unfaulted(Interval(-1.0, 2.0).pow_int(2))
    assert sq.lo == 0.0
    assert _contains(sq, 4.0) and sq.hi >= 4.0
    rng = np.random.default_rng(11)
    for k in (0, 1, 2, 3, 4, 5):
        for _ in range(40):
            iv = Interval(*sorted(rng.uniform(-3, 3, 2)))
            out = _unfaulted(iv.pow_int(k))
            for x in _samples(iv, rng, 12):
                assert _contains(out, float(x) ** k)


def test_pow_negative_exponent():
    out = _unfaulted(Interval(2.0, 4.0).pow_int(-1))
    assert _contains(out, 0.25) and _contains(out, 0.5)
    # base straddling zero: unbounded, matching division semantics
    out = _unfaulted(Interval(-1.0, 1.0).pow_int(-1))
    assert out.lo == -math.inf and out.hi == math.inf
    with pytest.raises(TypeError):
        Interval(1.0, 2.0).pow_int(1.5)


def test_unary_function_containment():
    rng = np.random.default_rng(13)
    cases = [
        (abs_interval, abs, Interval(-3.0, 2.0)),
        (exp_interval, math.exp, Interval(-2.0, 2.0)),
        (lambda x: _unfaulted(sqrt_interval(x)), math.sqrt, Interval(0.0, 7.0)),
        (lambda x: _unfaulted(log_interval(x)), math.log, Interval(0.5, 9.0)),
    ]
    for fint, fref, iv in cases:
        out = fint(iv)
        for x in _samples(iv, rng, 100):
            assert _contains(out, fref(float(x)))


def test_sqrt_log_domains():
    # wholly outside the domain: a fault
    assert sqrt_interval(Interval(-2.0, -1.0))[1]
    assert log_interval(Interval(-2.0, -1.0))[1]
    # partially inside: restricted enclosure, no silent narrowing of the
    # in-domain part
    s = _unfaulted(sqrt_interval(Interval(-1.0, 4.0)))
    assert s.lo == 0.0 and s.hi >= 2.0
    lg = _unfaulted(log_interval(Interval(0.0, 1.0)))
    assert lg.lo == -math.inf and lg.hi >= 0.0


def test_trig_extremum_detection():
    # [0, pi] crosses the max of sin at pi/2: upper bound reaches 1
    s = sin_interval(Interval(0.0, math.pi))
    assert s.hi >= 1.0 and s.lo <= 0.0
    # a narrow interval away from extrema stays monotone-tight
    t = sin_interval(Interval(0.1, 0.2))
    assert 0.09 < t.lo and t.hi < 0.21
    c = cos_interval(Interval(3.0, 3.3))  # crosses pi: min hits -1
    assert c.lo <= -1.0


def test_trig_containment_random():
    rng = np.random.default_rng(17)
    for _ in range(300):
        iv = Interval(*sorted(rng.uniform(-10, 10, 2)))
        s, c = sin_interval(iv), cos_interval(iv)
        for x in _samples(iv, rng, 20):
            assert _contains(s, math.sin(float(x)))
            assert _contains(c, math.cos(float(x)))


def test_wide_trig_clamps_to_unit():
    s = sin_interval(Interval(-100.0, 100.0))
    assert s.lo <= -1.0 and s.hi >= 1.0
    assert cos_interval(Interval(-math.inf, 0.0)) == Interval(-1.0, 1.0)


# ---------------------------------------------------------------------------
# mpmath oracle: each enclosure contains the exact real image of its operands
# (Moore, Kearfott and Cloud, Introduction to Interval Analysis, SIAM 2009)

_U, _V = ex.JetVar(1, (0,)), ex.JetVar(2, (0,))
_BINARY = [
    (ex.Add(_U, _V), lambda a, b: a + b),
    (ex.Sub(_U, _V), lambda a, b: a - b),
    (ex.Mul(_U, _V), lambda a, b: a * b),
    (ex.Div(_U, _V), lambda a, b: _unfaulted(div_interval(a, b))),
]
_UNARY = {"abs": abs_interval, "sqrt": lambda x: _unfaulted(sqrt_interval(x)),
          "exp": exp_interval, "log": lambda x: _unfaulted(log_interval(x)),
          "sin": sin_interval, "cos": cos_interval}
_TINY = 5e-324  # the smallest positive double


def _exact(node, a, b=0.0):
    """node on the doubles a (as u[1,(0)]) and b (as u[2,(0)]) in 60-digit
    arithmetic, not rounded to a double (test_expr's oracle), or None where
    the operation is undefined."""
    with mpmath.workdps(60):
        try:
            return _oracle_op(node, [], {(1, (0,)): a, (2, (0,)): b})
        except _Fault:
            return None


def _points(iv, rng, k=6):
    """Both endpoints, k random interior points, and the doubles nearest
    zero that lie in iv, where divisions and negative powers blow up."""
    lo, hi = float(iv.lo), float(iv.hi)
    pts = [lo, hi, *rng.uniform(lo, hi, k).tolist()]
    return pts + [p for p in (-_TINY, 0.0, _TINY) if lo <= p <= hi]


def _assert_encloses(out, node, xs, ys=(0.0,)):
    for a in xs:
        for b in ys:
            want = _exact(node, a, b)
            if want is not None:
                assert float(out.lo) <= want <= float(out.hi), (ex.render(node), a, b)


def _random_interval(rng, scale):
    """Endpoints of random sign and magnitude up to scale, down to 1/scale."""
    mags = np.exp(rng.uniform(-np.log(scale), np.log(scale), 2))
    return Interval(*sorted(mags * rng.choice([-1.0, 1.0], 2)))


def test_oracle_arithmetic_random_magnitudes():
    rng = np.random.default_rng(31)
    for trial in range(120):
        scale = 10.0 if trial % 2 else 1e150
        a, b = _random_interval(rng, scale), _random_interval(rng, scale)
        for node, op in _BINARY:
            _assert_encloses(op(a, b), node, _points(a, rng, 3), _points(b, rng, 3))


@pytest.mark.parametrize("num", [(1.0, 2.0), (-2.0, -1.0), (-1.0, 3.0), (0.0, 0.0),
                                 (0.0, 1.0), (-1e150, 1e-150)])
@pytest.mark.parametrize("den", [(0.0, 2.0), (-3.0, 0.0), (-0.0, 1e-300), (-1e-300, 0.0),
                                 (-1.0, 1.0), (-_TINY, _TINY), (1e-150, 1e150)])
def test_oracle_division_by_divisors_touching_zero(num, den):
    rng = np.random.default_rng(37)
    a, b = Interval(*num), Interval(*den)
    _assert_encloses(_unfaulted(div_interval(a, b)), ex.Div(_U, _V), _points(a, rng),
                     _points(b, rng))


@pytest.mark.parametrize("k", [-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 7])
def test_oracle_pow_int_negative_and_straddling(k):
    rng = np.random.default_rng(41 + k)
    cases = [(-3.0, -2.0), (-2.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (-0.5, 0.5),
             (-1.0, -1.0), (1e-30, 1e-20), (-7.0, 5.0)]
    cases += [sorted(rng.uniform(-3.0, 3.0, 2)) for _ in range(20)]
    node = ex.Pow(_U, k)
    for lo, hi in cases:
        iv = Interval(lo, hi)
        _assert_encloses(_unfaulted(iv.pow_int(k)), node, _points(iv, rng))


def _bases_near_the_edges(k, rng, count):
    """Mixed-sign bases, subnormal ones, and bases where |b|^|k| nears the
    double range's ends (overflow, the smallest normal, the smallest
    subnormal), each of random sign."""
    n = max(abs(k), 1)
    edges = 2.0 ** (np.array([1023.9, -1022.0, -1074.0]) / n)
    near = edges[rng.integers(0, 3, count)] * (1.0 + rng.uniform(-0.05, 0.05, count) / n)
    sign = rng.choice([-1.0, 1.0], count)
    return np.concatenate([rng.uniform(-3.0, 3.0, count), rng.uniform(-1e-307, 1e-307, count),
                           _TINY * rng.integers(-9, 10, count), sign * near])


@pytest.mark.parametrize("k", [*range(-12, 13), 31, -31, 64, -64, 1000, 2000, -2001])
def test_pow_int_encloses_the_array_evaluators_chain(k):
    # eval_interval encloses eval_point: every value int_pow (the array
    # evaluator's x**k) takes at a finite b in [lo, hi] where the array
    # evaluator does not fault (b = 0 for k < 0) lies in pow_int(k); numpy's
    # own ** endpoints stepped outward miss it from k = 5 on. Point
    # intervals, and narrow ones of relative width 2^-40 or of a few
    # subnormal steps around the same bases
    rng = np.random.default_rng(2 * abs(k) + (k < 0))
    b = _bases_near_the_edges(k, rng, 5000)
    half = np.maximum(np.abs(b) * 2.0**-41, _TINY * rng.integers(0, 4, b.size))
    for lo, hi in ((b, b), (b - half, b + half)):
        out, faulted = Interval(lo, hi).pow_int(k)
        xs = np.concatenate([lo[:, None], hi[:, None],
                             np.clip(lo[:, None] + rng.uniform(0.0, 1.0, (lo.size, 4))
                                     * (hi - lo)[:, None], lo[:, None], hi[:, None])], axis=1)
        with np.errstate(all="ignore"):
            got = int_pow(xs, k)
        inside = (out.lo[:, None] <= got) & (got <= out.hi[:, None]) | (xs == 0.0) & (k < 0)
        missed = ~inside.all(axis=1) & ~np.asarray(faulted)
        assert not missed.any(), (k, lo[missed][:3], hi[missed][:3])


_UNARY_HARD = {
    "exp": [(709.0, 709.7), (709.7, 709.78), (709.78, 709.79), (709.78, 720.0),
            (800.0, 900.0), (-746.0, -744.0), (-800.0, -745.2), (-1e-300, 1e-300),
            (0.0, 0.0), (1.0, 1.0)],
    "log": [(_TINY, 1e-300), (0.0, 1e-300), (-1.0, _TINY), (1.0 - 2.0**-53, 1.0 + 2.0**-52),
            (0.999, 1.001), (1.0, 1.0), (1e300, 1.7e308), (2.0, 2.0)],
    "sqrt": [(0.0, 1e-300), (_TINY, 7 * _TINY), (2.0, 3.0), (-1.0, 4.0), (1e300, 1.7e308),
             (4.0, 4.0)],
    "abs": [(-3.0, 2.0), (-3.0, -2.0), (2.0, 3.0), (-0.0, 0.0), (-1e300, 1e-300)],
}


@pytest.mark.parametrize("func", sorted(_UNARY_HARD))
def test_oracle_monotone_functions(func):
    rng = np.random.default_rng(43)
    node = ex.Call(func, _U)
    cases = [Interval(*c) for c in _UNARY_HARD[func]]
    for _ in range(60):
        ends = rng.uniform(-20.0, 20.0, 2)
        cases.append(Interval(*sorted(ends if func in ("abs", "exp") else np.abs(ends))))
    for iv in cases:
        _assert_encloses(_UNARY[func](iv), node, _points(iv, rng))


def test_oracle_neg_and_sign():
    rng = np.random.default_rng(53)
    sign = ex.Call("sign", _U)
    cases = [Interval(*sorted(rng.uniform(-5.0, 5.0, 2))) for _ in range(40)]
    cases += [Interval(-1.0, 0.0), Interval(0.0, 0.0), Interval(-0.0, _TINY), Interval(2.0, 2.0)]
    for iv in cases:
        _assert_encloses(-iv, ex.Neg(_U), _points(iv, rng))
        _assert_encloses(ex.eval_interval(sign, [], {(1, (0,)): iv}), sign, _points(iv, rng))


def _extremum_inside(lo, hi, q):
    """True when an exact q pi + 2 pi k lies in [lo, hi] (60 digits)."""
    with mpmath.workdps(60):
        phase = q * mpmath.pi
        k = mpmath.ceil((mpmath.mpf(lo) - phase) / (2 * mpmath.pi))
        return phase + 2 * mpmath.pi * k <= hi


def _trig_cases(rng):
    cases = [sorted(rng.uniform(-10.0, 10.0, 2)) for _ in range(40)]
    for k in [*range(-8, 9), 10**6 + 1, 10**12 + 3, 6 * 10**14 + 1]:
        c = k * (math.pi / 2.0)  # the double nearest a multiple of pi/2
        for r in (0.0, math.ulp(c), 1e-12 * max(1.0, abs(c)), 1e-6, 0.1):
            cases.append((c - r, c + r))
    for m in (1e6, 1e10, 1e15):
        cases += [(x, x) for x in rng.uniform(-m, m, 4)]
        cases += [(x, x + w) for x, w in zip(rng.uniform(-m, m, 4), (1e-3, 0.5, 3.0, 6.0))]
    return cases


@pytest.mark.parametrize("func, top, bottom", [("sin", 0.5, -0.5), ("cos", 0.0, 1.0)])
def test_oracle_trig_near_extrema_and_huge_arguments(func, top, bottom):
    rng = np.random.default_rng(47)
    node = ex.Call(func, _U)
    for lo, hi in _trig_cases(rng):
        out = _UNARY[func](Interval(lo, hi))
        _assert_encloses(out, node, _points(Interval(lo, hi), rng, 4))
        if _extremum_inside(lo, hi, top):
            assert float(out.hi) >= 1.0, (func, lo, hi)
        if _extremum_inside(lo, hi, bottom):
            assert float(out.lo) <= -1.0, (func, lo, hi)


def test_overflowed_endpoints_step_back_to_finite_doubles():
    # an endpoint that overflows to +-inf steps to the largest double, so
    # the enclosure keeps the whole real image; Python's float ** raised
    # OverflowError and unstepped infinities gave [inf, inf] instead
    big = np.finfo(float).max
    cases = [
        (_unfaulted(Interval.point(1e200).pow_int(2)), ex.Pow(_U, 2), [1e200], [0.0]),
        (_unfaulted(Interval(2.0, 3.0).pow_int(-2000)), ex.Pow(_U, -2000), [2.0, 2.5, 3.0],
         [0.0]),
        (_unfaulted(Interval(-3.0, -2.0).pow_int(-2001)), ex.Pow(_U, -2001), [-3.0, -2.0],
         [0.0]),
        (_unfaulted(div_interval(Interval(1.0, 1.0), Interval(1e-320, 1e-310))),
         ex.Div(_U, _V), [1.0], [1e-320, 1e-310]),
        (Interval.point(1e300) * Interval.point(1e300), ex.Mul(_U, _V), [1e300], [1e300]),
        (Interval.point(-1e300) * Interval.point(1e300), ex.Mul(_U, _V), [-1e300], [1e300]),
        (Interval.point(1e308) + Interval.point(1e308), ex.Add(_U, _V), [1e308], [1e308]),
        (exp_interval(Interval(800.0, 900.0)), ex.Call("exp", _U), [800.0, 900.0], [0.0]),
    ]
    for out, node, xs, ys in cases:
        _assert_encloses(out, node, xs, ys)
        assert np.isfinite(out.lo) or np.isfinite(out.hi), ex.render(node)
    assert cases[0][0].lo == big and cases[0][0].hi == np.inf
    assert cases[4][0].lo == big and cases[5][0].hi == -big


def test_domain_faults_carry_the_faulted_mask():
    # a faulted element holds some valid interval (the constructor checks
    # it), and the others are the enclosures of the unfaulted operation
    x = Interval(np.array([-2.0, 1.0, -1.0]), np.array([-1.0, 4.0, 0.0]))
    out, faulted = log_interval(x)
    assert faulted.tolist() == [True, False, True]
    assert out.lo[1] <= 0.0 and out.hi[1] >= math.log(4.0)
    out, faulted = sqrt_interval(x)
    assert faulted.tolist() == [True, False, False]
    assert out.lo[1] <= 1.0 and out.hi[1] >= 2.0
    zero_or_not = Interval(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    _, faulted = div_interval(Interval.point(1.0), zero_or_not)
    assert faulted.tolist() == [True, False]
    _, faulted = zero_or_not.pow_int(-3)
    assert faulted.tolist() == [True, False]
    with pytest.raises(ValueError, match="empty constructor range"):
        Interval(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
