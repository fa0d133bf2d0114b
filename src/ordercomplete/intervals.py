"""Closed interval arithmetic over arrays, with outward rounding.

An Interval holds float64 arrays lo and hi of one shape, and every
operation works elementwise; a single interval is the shape-() case. Each
result contains the exact real image of its operands: float endpoints are
stepped outward with np.nextafter, infinities included (an overflowed lower
endpoint steps down to the largest double). Over-approximation is always
permitted; missing a real image point is a bug.

Steps, checked against a 60-digit mpmath oracle in the tests: one for
+ - * /, x**2 (numpy's x*x) and sqrt, which IEEE 754 rounds correctly; two
for numpy's exp, log, sin and cos and for numpy's x**k with k >= 3, which
are not proven correctly rounded. x**k with k >= 3 is those endpoints
unioned with int_pow's chain at the endpoints, so it also encloses the
array evaluator's value; k <= -1 is the reciprocal of x**|k|. Endpoints
are extended reals.

The operations with a restricted domain (div_interval, pow_int, sqrt_interval
and log_interval) do not raise: each returns its result and a boolean mask
of the elements whose operand lies wholly outside the domain, or False
where none can. A faulted element holds some valid interval, so later
operations see neither NaN nor lo > hi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Conservative bound on 2*pi used when locating sine/cosine extrema.
_TWO_PI_LO = np.nextafter(2.0 * np.pi, 0.0)

# Slop used when testing whether a trig extremum falls inside an interval.
# Erring toward "inside" only widens the result, never narrows it.
_TRIG_SLOP = 1e-9


class IntervalDomainError(ValueError):
    """An interval enclosure over a lattice is undefined or unbounded.

    Raised by analysis.interval_pushforward; `faulted` is the boolean mask
    of the lattice points concerned.
    """

    def __init__(self, message: str, faulted: np.ndarray | None = None) -> None:
        super().__init__(message)
        self.faulted = faulted


def _outward(lo, hi, steps: int = 1):
    """lo and hi stepped outward by `steps` doubles each."""
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return lo, hi


@dataclass(repr=False)
class Interval:
    """Closed intervals [lo, hi] on the extended real line, elementwise over
    two float64 arrays broadcast to one shape."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = np.broadcast_arrays(np.asarray(self.lo, dtype=float),
                                     np.asarray(self.hi, dtype=float))
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("interval endpoints must not be NaN")
        empty = lo > hi
        if empty.any():
            k = np.argmax(empty)
            raise ValueError(f"empty constructor range: lo={float(lo.flat[k])!r} > "
                             f"hi={float(hi.flat[k])!r}")
        self.lo, self.hi = lo, hi

    # ---- queries ----

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @staticmethod
    def point(x) -> "Interval":
        return Interval(x, x)

    # ---- arithmetic ----

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    @np.errstate(all="ignore")
    def __add__(self, other: "Interval") -> "Interval":
        return Interval(*_outward(self.lo + other.lo, self.hi + other.hi))

    @np.errstate(all="ignore")
    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(*_outward(self.lo - other.hi, self.hi - other.lo))

    @np.errstate(all="ignore")
    def __mul__(self, other: "Interval") -> "Interval":
        p = np.stack([self.lo * other.lo, self.lo * other.hi,
                      self.hi * other.lo, self.hi * other.hi])
        # inf * 0 at an endpoint: the finite factor's sign side contributes
        # 0, not NaN.
        p[np.isnan(p)] = 0.0
        return Interval(*_outward(p.min(axis=0), p.max(axis=0)))

    @np.errstate(all="ignore")
    def pow_int(self, k: int) -> "tuple[Interval, np.ndarray | bool]":
        """Integer power and its fault mask, a zero base for k < 0.

        Even k has a dedicated case: [-1,2]**2 must be [0,4], not the naive
        product [-2,4].
        """
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return div_interval(Interval(1.0, 1.0), self.pow_int(-k)[0])
        if k == 0:
            return Interval(np.ones_like(self.lo), np.ones_like(self.hi)), False
        if k == 1:
            return self, False
        base = abs_interval(self) if k % 2 == 0 else self
        lo, hi = _outward(base.lo**k, base.hi**k, 1 if k == 2 else 2)
        # x**k maps an exactly-zero endpoint to exactly zero; no nudge needed
        lo, hi = np.where(base.lo == 0.0, 0.0, lo), np.where(base.hi == 0.0, 0.0, hi)
        if k > 2:
            # int_pow, which the array evaluator computes, rounds monotonically
            # in the base, so its endpoint values bound it inside
            lo, hi = np.minimum(lo, int_pow(base.lo, k)), np.maximum(hi, int_pow(base.hi, k))
        return Interval(lo, hi), False


def int_pow(b, k: int):
    """b**k for an integer k, elementwise, with the same bits on every IEEE
    host: numpy's ** for k in -1..2 (a reciprocal, ones, a copy, square, all
    correctly rounded), else one fixed chain of products, square-and-multiply
    over the bits of |k| from the top, and its reciprocal for k <= -2.
    numpy's power itself takes other code paths on other CPUs.
    """
    if -1 <= k <= 2:
        return b**k
    r = b * b  # the chain's first square, a fresh array the rest works in
    for i, bit in enumerate(bin(abs(k))[3:]):
        if i:
            r *= r
        if bit == "1":
            r *= b
    return 1.0 / r if k < 0 else r


@np.errstate(all="ignore")
def div_interval(x: Interval, y: Interval) -> tuple[Interval, np.ndarray]:
    """x / y and its fault mask, where y is the degenerate zero interval."""
    # 1/y: a half-line where y touches zero at one end, the whole line where
    # it straddles zero or is zero
    straddles = (y.lo < 0.0) & (y.hi > 0.0)
    inv_lo, inv_hi = _outward(1.0 / y.hi, 1.0 / y.lo)
    inv_lo = np.where(straddles | (y.hi == 0.0), -np.inf, inv_lo)
    inv_hi = np.where(straddles | (y.lo == 0.0), np.inf, inv_hi)
    return x * Interval(inv_lo, inv_hi), (y.lo == 0.0) & (y.hi == 0.0)


def abs_interval(x: Interval) -> Interval:
    return Interval(np.maximum(np.maximum(x.lo, -x.hi), 0.0), np.maximum(-x.lo, x.hi))


def sqrt_interval(x: Interval) -> tuple[Interval, np.ndarray]:
    """sqrt over x and its fault mask, where x lies wholly below 0."""
    lo, hi = _outward(np.sqrt(np.maximum(x.lo, 0.0)), np.sqrt(np.maximum(x.hi, 0.0)))
    return Interval(np.maximum(lo, 0.0), hi), x.hi < 0.0


@np.errstate(all="ignore")
def exp_interval(x: Interval) -> Interval:
    lo, hi = _outward(np.exp(x.lo), np.exp(x.hi), 2)
    return Interval(np.maximum(lo, 0.0), hi)


@np.errstate(all="ignore")
def log_interval(x: Interval) -> tuple[Interval, np.ndarray]:
    """log over x and its fault mask, where x lies wholly at or below 0."""
    lo, hi = np.log(np.maximum(x.lo, 0.0)), np.log(np.maximum(x.hi, 0.0))
    return Interval(*_outward(lo, hi, 2)), x.hi <= 0.0


def _trig_has_extremum(x: Interval, phase: float) -> np.ndarray:
    """True where some point phase + 2*pi*k may lie inside [x.lo, x.hi]; for
    x narrower than 2*pi, k = floor((x.lo - phase) / (2*pi)) - 1 .. + 3."""
    steps = np.arange(-1.0, 4.0).reshape((5,) + (1,) * x.lo.ndim)
    t = phase + 2.0 * np.pi * (np.floor((x.lo - phase) / (2.0 * np.pi)) + steps)
    slop = _TRIG_SLOP * (1.0 + np.maximum(np.abs(x.lo), np.abs(x.hi)))
    return np.any((x.lo - slop <= t) & (t <= x.hi + slop), axis=0)


@np.errstate(all="ignore")
def _trig(x: Interval, f, top: float, bottom: float) -> Interval:
    """f (sin or cos) over x: its endpoint values, widened to 1 where a
    maximum top + 2*pi*k may lie inside and to -1 where a minimum
    bottom + 2*pi*k may."""
    a, b = f(x.lo), f(x.hi)
    lo, hi = _outward(np.minimum(a, b), np.maximum(a, b), 2)
    wide = np.isinf(x.lo) | np.isinf(x.hi) | (x.width >= _TWO_PI_LO)
    hi = np.where(wide | _trig_has_extremum(x, top), 1.0, np.minimum(hi, 1.0))
    lo = np.where(wide | _trig_has_extremum(x, bottom), -1.0, np.maximum(lo, -1.0))
    return Interval(lo, hi)


def sin_interval(x: Interval) -> Interval:
    return _trig(x, np.sin, np.pi / 2.0, -np.pi / 2.0)


def cos_interval(x: Interval) -> Interval:
    return _trig(x, np.cos, 0.0, np.pi)
