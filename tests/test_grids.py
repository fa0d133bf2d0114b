"""Lattice envelope operators, order structure, convergence certificates.

The envelope oracle below is a deliberately naive nested-loop evaluation of
the rule "a marked point takes the extreme of its own value and the values
in the smallest Chebyshev window that contains an unmarked point". The
vectorized implementation must agree with it exactly.
"""

import csv
import functools
import itertools
import math

import numpy as np
import pytest

from ordercomplete import grids
from ordercomplete.grids import (
    GridDomain,
    GridFunction,
    baire_lower,
    baire_upper,
    complete,
    is_nowhere_dense,
    lattice_inf,
    lattice_sup,
    leq_dense,
    normalize,
    order_convergence_check,
    quasi_uniform_check,
    read_csv,
    skeleton_fill,
    write_csv,
)


def _oracle_envelope(domain, values, minimize):
    """Nested-loop reference for baire_lower / baire_upper."""
    skel = domain.skeleton
    out = np.array(values, dtype=float)
    pick = min if minimize else max
    for idx in np.ndindex(domain.shape):
        if not skel[idx]:
            continue
        for r in range(1, max(domain.shape)):
            window = [
                range(max(0, i - r), min(s, i + r + 1))
                for i, s in zip(idx, domain.shape)
            ]
            free = [
                values[pt]
                for pt in itertools.product(*window)
                if not skel[pt]
            ]
            if free:
                out[idx] = pick(values[idx], pick(free))
                break
    return out


def _random_domain(rng, ndim):
    shape = tuple(int(rng.integers(5, 13)) for _ in range(ndim))
    skel = rng.random(shape) < 0.25
    # keep the mask nowhere dense by construction: clear one point in every
    # aligned block of 2
    for idx in np.ndindex(tuple(s - 1 for s in shape)):
        block = tuple(slice(i, i + 2) for i in idx)
        if skel[block].all():
            skel[idx] = False
    return GridDomain([0.0] * ndim, [1.0] * ndim, shape, skeleton=skel)


def _step_domain(npts=11):
    # odd point count puts a lattice point exactly at the jump
    skel = np.zeros(npts, dtype=bool)
    skel[npts // 2] = True
    return GridDomain([-1.0], [1.0], (npts,), skeleton=skel), npts // 2


# ---------------------------------------------------------------------------
# envelope operators


def test_baire_constant_identity():
    dom, _ = _step_domain()
    u = GridFunction(dom, np.full(dom.shape, 3.25))
    assert np.array_equal(baire_lower(u).values, u.values)
    assert np.array_equal(baire_upper(u).values, u.values)


def test_baire_step_values_at_jump():
    dom, j = _step_domain()
    vals = np.where(dom.axis(0) < 0.0, 0.0, 1.0)
    u = GridFunction(dom, vals)
    assert baire_lower(u).values[j] == 0.0
    assert baire_upper(u).values[j] == 1.0


def test_baire_spike_at_skeleton():
    dom, j = _step_domain()
    up = np.zeros(dom.shape)
    up[j] = 5.0
    assert baire_lower(GridFunction(dom, up)).values[j] == 0.0
    dn = np.zeros(dom.shape)
    dn[j] = -5.0
    assert baire_upper(GridFunction(dom, dn)).values[j] == 0.0


def test_baire_matches_oracle_randomized():
    rng = np.random.default_rng(41)
    for trial in range(60):
        ndim = 1 if trial % 2 == 0 else 2
        dom = _random_domain(rng, ndim)
        vals = rng.normal(size=dom.shape)
        u = GridFunction(dom, vals)
        lo = baire_lower(u).values
        hi = baire_upper(u).values
        assert np.array_equal(lo, _oracle_envelope(dom, vals, True))
        assert np.array_equal(hi, _oracle_envelope(dom, vals, False))
        # I <= id <= S everywhere
        assert np.all(lo <= vals) and np.all(vals <= hi)


def test_baire_monotone():
    rng = np.random.default_rng(43)
    for _ in range(30):
        dom = _random_domain(rng, 2)
        a = rng.normal(size=dom.shape)
        b = a + rng.uniform(0.0, 1.0, size=dom.shape)
        ua, ub = GridFunction(dom, a), GridFunction(dom, b)
        assert np.all(baire_lower(ua).values <= baire_lower(ub).values)
        assert np.all(baire_upper(ua).values <= baire_upper(ub).values)


def test_normalize_fixes_continuous_samples():
    dom = GridDomain([0.0], [1.0], (17,))
    u = GridFunction(dom, np.sin(dom.axis(0)))
    assert np.array_equal(normalize(u).values, u.values)


def test_normalize_step_with_junk_skeleton_value():
    dom, j = _step_domain()
    vals = np.where(dom.axis(0) < 0.0, 0.0, 1.0)
    vals[j] = 7.0
    out = normalize(GridFunction(dom, vals))
    assert out.values[j] == 0.0
    off = ~dom.skeleton
    assert np.array_equal(out.values[off], vals[off])
    assert out.normalized


def test_normalize_idempotent_randomized():
    rng = np.random.default_rng(47)
    for trial in range(100):
        dom = _random_domain(rng, 1 if trial % 2 else 2)
        # piecewise junk, including infinities at marked points
        vals = rng.normal(size=dom.shape)
        if dom.skeleton.any() and trial % 3 == 0:
            marked = np.argwhere(dom.skeleton)
            pt = tuple(marked[int(rng.integers(len(marked)))])
            vals[pt] = np.inf if trial % 2 else -np.inf
        once = normalize(GridFunction(dom, vals))
        twice = normalize(once)
        assert np.array_equal(once.values, twice.values)
        assert np.all(np.isfinite(once.values))


def _marked_edge_domain(rng, ndim):
    """A random skeleton whose first two slabs along axis 0 are marked too,
    so the points of the outer slab have no unmarked ring-1 neighbour and
    take the ring search."""
    dom = _random_domain(rng, ndim)
    skel = np.array(dom.skeleton)
    skel[:2] = True
    skel[2] = False  # every 2-block across slabs 1 and 2 keeps a free point
    return dom.with_skeleton(skel)


def _offset_loop_extreme(domain, values, minimize):
    """The neighbour pass as an offset loop: for each of the 3^n - 1 ring-1
    offsets in itertools.product order, np.minimum (np.maximum) of the
    running extreme and the shifted unmarked values, then the ring search
    where no ring-1 neighbour is unmarked."""
    skel = domain.skeleton
    n = domain.ndim
    fill = np.inf if minimize else -np.inf
    op = np.minimum if minimize else np.maximum
    acc = np.full(values.shape, fill)
    for offset in itertools.product((-1, 0, 1), repeat=n):
        if any(offset):
            dst = (Ellipsis,) + tuple(slice(max(0, -o), s - max(0, o))
                                      for o, s in zip(offset, domain.shape))
            src = (Ellipsis,) + tuple(slice(max(0, o), s - max(0, -o))
                                      for o, s in zip(offset, domain.shape))
            acc[dst] = op(acc[dst], np.where(skel[src[1:]], fill, values[src]))
    lead = values.ndim - n
    for idx in zip(*np.nonzero(skel & (acc == fill))):
        acc[idx] = grids._ring_extreme(domain, values[idx[:lead]], idx[lead:], minimize)
    return acc


# ties in different bits, infinities, subnormals and the largest doubles
_EDGE_VALUES = [-1.0, -0.0, 0.0, 1.0, 2.5, 5e-324, -5e-324, 1e308, -1e308]


def test_normalize_is_lower_of_upper_bit_for_bit():
    # and a stack of k fields filled in one call is its k per-slice fills;
    # the box pass gives the offset loop's bits at every skeleton point
    rng = np.random.default_rng(59)
    for trial in range(120):
        ndim = 1 + trial % 3
        dom = _random_domain(rng, ndim) if trial % 4 else _marked_edge_domain(rng, ndim)
        size = (int(rng.integers(1, 7)),) + dom.shape
        # signed zeros make equal neighbour extrema of either sign
        stack = rng.choice(_EDGE_VALUES, size=size) if trial % 5 < 2 else rng.normal(size=size)
        marked = np.argwhere(dom.skeleton)
        for vals in stack:
            for pt in marked[rng.random(len(marked)) < 0.3]:
                vals[tuple(pt)] = rng.choice([np.inf, -np.inf])
        for minimize in (True, False):
            box = grids._neighbor_extreme(dom, stack, minimize)[..., dom.skeleton]
            loop = _offset_loop_extreme(dom, stack, minimize)[..., dom.skeleton]
            assert box.tobytes() == loop.tobytes()
        filled = skeleton_fill(dom, stack)
        assert filled.shape == stack.shape
        for vals, one_call in zip(stack, filled):
            u = GridFunction(dom, vals)
            got = normalize(u)
            want = baire_lower(baire_upper(u))
            assert got.values.tobytes() == want.values.tobytes() == one_call.tobytes()
            assert got.normalized
    # no unmarked point to borrow from: all raise the same error
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (3, 3), skeleton=np.ones((3, 3), bool))
    u = GridFunction(dom, np.full((3, 3), np.inf))
    with pytest.raises(ValueError, match="no unmarked points") as got:
        normalize(u)
    with pytest.raises(ValueError, match="no unmarked points") as want:
        baire_lower(baire_upper(u))
    with pytest.raises(ValueError, match="no unmarked points") as stacked:
        skeleton_fill(dom, np.full((2, 3, 3), np.inf))
    assert str(got.value) == str(want.value) == str(stacked.value)


def test_skeleton_fill_is_normalize_rule():
    # per slice of a stack, and through complete, which scatters the
    # off-skeleton values of each row and fills them in one call; the fill
    # is the offset loop's minimum, bit for bit
    rng = np.random.default_rng(53)
    for trial in range(30):
        ndim = 1 + trial % 3
        dom = _random_domain(rng, ndim) if trial % 4 else _marked_edge_domain(rng, ndim)
        off = ~dom.skeleton
        stack = rng.normal(size=(int(rng.integers(1, 7)),) + dom.shape)
        stack[0][off] = rng.choice([-0.0, 0.0], size=int(off.sum()))
        stack[-1][off] = rng.choice(_EDGE_VALUES, size=int(off.sum()))
        on_skeleton = (len(stack), int(dom.skeleton.sum()))
        stack[:, dom.skeleton] = rng.choice([np.inf, -np.inf, 0.0], size=on_skeleton)
        filled = skeleton_fill(dom, stack)
        loop = np.where(dom.skeleton, _offset_loop_extreme(dom, stack, True), stack)
        assert filled.tobytes() == loop.tobytes()
        completed = complete(dom, off, stack[:, off])
        completed_at = complete(dom, np.nonzero(off), list(stack[:, off]))
        for vals, one_call, gf, gf_at in zip(stack, filled, completed, completed_at):
            single = skeleton_fill(dom, vals)
            normed = normalize(GridFunction(dom, vals)).values
            assert one_call.tobytes() == single.tobytes() == normed.tobytes()
            assert one_call[off].tobytes() == vals[off].tobytes()
            assert gf.normalized and gf.domain is dom
            assert gf.values.tobytes() == gf_at.values.tobytes() == single.tobytes()
    assert complete(dom, off, []) == []


def test_infinite_value_off_skeleton_rejected():
    dom = GridDomain([0.0], [1.0], (9,))
    vals = np.zeros(9)
    vals[4] = np.inf
    with pytest.raises(ValueError):
        GridFunction(dom, vals)


def _inf_at_skeleton():
    # a 9-point line marked at point 4, which carries +inf
    dom = GridDomain([0.0], [1.0], (9,), np.arange(9) == 4)
    vals = np.linspace(-1.0, 1.0, 9)
    vals[4] = np.inf
    return GridFunction(dom, vals)


def test_difference_of_self_is_zero():
    u = _inf_at_skeleton()
    d = u - u
    assert d.normalized and np.all(d.values == 0.0)


def test_sum_with_negated_self_is_zero():
    u = _inf_at_skeleton()
    d = u + (-1.0 * u)
    assert d.normalized and np.all(d.values == 0.0)


def test_zero_times_is_zero():
    u = _inf_at_skeleton()
    z = 0.0 * u
    assert z.normalized and np.all(z.values == 0.0)


def test_arithmetic_is_off_skeleton_then_normalized():
    rng = np.random.default_rng(67)
    for _ in range(20):
        dom = _random_domain(rng, 2)
        u = GridFunction(dom, rng.normal(size=dom.shape))
        v = GridFunction(dom, rng.normal(size=dom.shape))
        for got, raw in ((u + v, u.values + v.values), (u - v, u.values - v.values),
                         (u + 0.5, u.values + 0.5), (2.5 * u, 2.5 * u.values)):
            assert got.normalized
            assert got == normalize(GridFunction(dom, raw))


# ---------------------------------------------------------------------------
# lattice operations


def test_lattice_sup_of_self_is_normalize():
    rng = np.random.default_rng(59)
    dom = _random_domain(rng, 1)
    u = GridFunction(dom, rng.normal(size=dom.shape))
    assert np.array_equal(lattice_sup(u, u).values, normalize(u).values)


def test_lattice_sup_of_opposite_steps():
    dom, j = _step_domain()
    a = GridFunction(dom, np.where(dom.axis(0) < 0.0, 0.0, 1.0))
    b = GridFunction(dom, np.where(dom.axis(0) < 0.0, 1.0, 0.0))
    out = lattice_sup(a, b)
    assert np.all(out.values == 1.0)


def test_lattice_inf_below_sup():
    rng = np.random.default_rng(61)
    for _ in range(20):
        dom = _random_domain(rng, 2)
        u = GridFunction(dom, rng.normal(size=dom.shape))
        v = GridFunction(dom, rng.normal(size=dom.shape))
        assert leq_dense(lattice_inf(u, v), lattice_sup(u, v))


def test_leq_dense_ignores_skeleton():
    dom, j = _step_domain()
    a_vals = np.where(dom.axis(0) < 0.0, 0.0, 1.0)
    b_vals = a_vals + 1.0
    a_vals[j] = 100.0  # junk at the marked point must not matter
    b_vals[j] = -100.0
    assert leq_dense(GridFunction(dom, a_vals), GridFunction(dom, b_vals))


def test_leq_dense_interior_violation():
    dom = GridDomain([0.0], [1.0], (9,))
    x = dom.axis(0)
    u = GridFunction(dom, x)
    v = GridFunction(dom, x - 0.01)
    assert not leq_dense(u, v)
    assert leq_dense(u, u)


def test_domain_mismatch_rejected():
    d1 = GridDomain([0.0], [1.0], (9,))
    d2 = GridDomain([0.0], [2.0], (9,))
    with pytest.raises(ValueError):
        leq_dense(GridFunction(d1, np.zeros(9)), GridFunction(d2, np.zeros(9)))


# ---------------------------------------------------------------------------
# nowhere density


def test_is_nowhere_dense_cases():
    m = np.zeros((8, 8), dtype=bool)
    assert is_nowhere_dense(m)
    m[3, :] = True  # a 1-thick line leaves unmarked points in every block
    assert is_nowhere_dense(m)
    m[4, :] = True  # a 2-thick slab fills a 2x2 block
    assert not is_nowhere_dense(m)
    assert not is_nowhere_dense(np.ones((4, 4), dtype=bool))


def _nowhere_dense_loop(mask):
    """is_nowhere_dense as the AND of the 2^n corner-shifted views."""
    interior = mask[(slice(1, -1),) * mask.ndim]
    if any(s < 2 for s in interior.shape):
        return True
    full = np.ones(tuple(s - 1 for s in interior.shape), dtype=bool)
    for corner in itertools.product((0, 1), repeat=mask.ndim):
        full &= interior[tuple(slice(c, s - 1 + c) for c, s in zip(corner, interior.shape))]
    return not full.any()


def test_is_nowhere_dense_is_the_corner_loop():
    rng = np.random.default_rng(71)
    seen = set()
    for trial in range(400):
        ndim = 1 + trial % 4
        shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
        mask = rng.random(shape) < rng.choice([0.5, 0.8, 0.95])
        want = _nowhere_dense_loop(mask)
        assert is_nowhere_dense(mask) == want
        seen.add((ndim, want))
    assert len(seen) == 8  # both answers in every dimension


# ---------------------------------------------------------------------------
# order convergence


def _const(dom, c):
    return GridFunction(dom, np.full(dom.shape, float(c)))


def test_order_convergence_shrinking_brackets():
    dom = GridDomain([0.0], [1.0], (33,))
    u = GridFunction(dom, np.cos(dom.axis(0)))
    N = 6
    seq = [u] * N
    lams = [GridFunction(dom, u.values - 1.0 / n) for n in range(1, N + 1)]
    mus = [GridFunction(dom, u.values + 1.0 / n) for n in range(1, N + 1)]
    cert = order_convergence_check(seq, lams, mus, u, tol=1.0 / N + 1e-12)
    assert cert.passed and cert.chain_ok
    assert cert.sup_gap == pytest.approx(1.0 / N)
    # tighter tol than the terminal width: same chain, fails on gap
    cert = order_convergence_check(seq, lams, mus, u, tol=1.0 / N - 1e-12)
    assert cert.chain_ok and not cert.passed


def test_order_convergence_flags_first_violation():
    dom = GridDomain([0.0], [1.0], (9,))
    u = _const(dom, 0.0)
    lams = [_const(dom, -1.0), _const(dom, -0.5), _const(dom, -0.75)]
    mus = [_const(dom, 1.0), _const(dom, 0.5), _const(dom, 0.25)]
    cert = order_convergence_check([u, u, u], lams, mus, u, tol=2.0)
    assert not cert.chain_ok and not cert.passed
    n, leg, worst = cert.first_violation
    assert n == 1 and leg == "lower_monotone" and worst == pytest.approx(-0.25)


def test_order_convergence_length_mismatch():
    dom = GridDomain([0.0], [1.0], (9,))
    u = _const(dom, 0.0)
    with pytest.raises(ValueError):
        order_convergence_check([u], [u, u], [u], u, tol=1.0)


# ---------------------------------------------------------------------------
# quasi-uniform convergence


def test_quasi_uniform_harmonic_tail():
    # dyadic base values keep u + 1/n - u exact, so the first strict hit
    # 1/3 < 0.5 is hit at n = 3 at every point
    dom = GridDomain([0.0], [1.0], (21,))
    u = GridFunction(dom, np.round(4.0 * np.sin(dom.axis(0))) / 4.0)
    seq = [GridFunction(dom, u.values + 1.0 / n) for n in range(1, 6)]
    res = quasi_uniform_check(seq, u, eps=0.5)
    assert not res.gamma.any()
    assert res.nowhere_dense_ok
    assert np.all(res.n_map[~dom.skeleton] == 3)


def test_quasi_uniform_exceptional_cell():
    dom, j = _step_domain(11)
    u = _const(dom, 0.0)
    bad = np.zeros(dom.shape, dtype=bool)
    bad[j + 1] = True  # one cell hugging the marked point never converges
    seq = []
    for n in range(1, 6):
        vals = np.full(dom.shape, 1.0 / n)
        vals[bad] = 1.0
        seq.append(GridFunction(dom, vals))
    res = quasi_uniform_check(seq, u, eps=0.5)
    assert res.gamma[j + 1] and res.gamma.sum() == 1
    assert res.nowhere_dense_ok
    off = ~dom.skeleton & ~bad
    assert np.all(res.n_map[off] == 3)
    assert res.n_map[j + 1] == 0


def test_quasi_uniform_never_subtracts_skeleton_values():
    # +inf on the skeleton: a difference taken there would be inf - inf
    skeleton = np.zeros(9, dtype=bool)
    skeleton[4] = True
    dom = GridDomain([0.0], [1.0], (9,), skeleton)
    vals = np.arange(9.0)
    vals[4] = np.inf
    u = GridFunction(dom, vals)
    res = quasi_uniform_check([u], u, 0.5)
    assert not res.gamma.any() and res.nowhere_dense_ok
    assert res.n_map.tolist() == [1, 1, 1, 1, 0, 1, 1, 1, 1]


def test_quasi_uniform_rejects_nonmonotone():
    dom = GridDomain([0.0], [1.0], (9,))
    u = _const(dom, 0.0)
    seq = [_const(dom, 1.0), _const(dom, 2.0)]
    with pytest.raises(ValueError):
        quasi_uniform_check(seq, u, eps=0.5)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(67)
    dom = _random_domain(rng, 2)
    vals = rng.normal(size=dom.shape)
    vals[dom.skeleton] = np.inf  # exercise the infinity encoding
    u = GridFunction(dom, vals)
    p = tmp_path / "u.csv"
    write_csv(u, p)
    back = read_csv(p)
    assert back.domain == u.domain
    assert np.array_equal(back.values, u.values)


def test_csv_round_trip_exact_floats(tmp_path):
    dom = GridDomain([0.0], [1.0], (7,))
    vals = np.array([0.1, 1 / 3, np.pi, -2.5e-17, 1e300, 7.0, 0.0])
    u = GridFunction(dom, vals)
    p = tmp_path / "v.csv"
    write_csv(u, p)
    assert np.array_equal(read_csv(p).values, vals)


def _reference_write_csv(gf, path):
    """The csv.writer row loop that whole-column formatting replaced."""
    n = gf.domain.ndim
    axes = [np.linspace(gf.domain.lo[d], gf.domain.hi[d], gf.domain.shape[d])
            for d in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{d + 1}" for d in range(n)] + ["value", "skeleton"])
        for idx in np.ndindex(gf.domain.shape):
            v = float(gf.values[idx])
            value = ("+inf" if v > 0 else "-inf") if math.isinf(v) else repr(v)
            writer.writerow([repr(float(axes[d][idx[d]])) for d in range(n)]
                            + [value, int(gf.domain.skeleton[idx])])


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_csv_bytes_match_csv_writer_reference(tmp_path, ndim):
    rng = np.random.default_rng(90 + ndim)
    for _ in range(3):
        shape = tuple(int(2 * rng.integers(3, 7) + 1) for _ in range(ndim))
        lo = rng.uniform(-2.0, 0.0, ndim)
        lo[0] = -1.0  # with hi = 1 and an odd shape, 0.0 is on the first axis
        hi = lo + rng.uniform(0.5, 3.0, ndim)
        hi[0] = 1.0
        # every third diagonal: mixed flags, nowhere dense
        skel = np.indices(shape).sum(axis=0) % 3 == 0
        dom = GridDomain(lo, hi, shape, skel)
        vals = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, shape)
        flat = vals.reshape(-1)
        on = np.flatnonzero(skel.reshape(-1))
        off = np.flatnonzero(~skel.reshape(-1))
        flat[off[:4]] = [-0.0, 5e-324, 1e300, -1e300]
        flat[on[::2]] = np.inf
        flat[on[1::2]] = -np.inf
        u = GridFunction(dom, vals)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(u, got)
        _reference_write_csv(u, want)
        assert got.read_bytes() == want.read_bytes()


def test_csv_distinct_values_keep_their_text_and_bits(tmp_path):
    # the writer formats each distinct bit pattern once: -0.0 and 0.0 must
    # keep their own text, and a handful of values repeat across most rows
    shape = (17, 13)
    skel = np.indices(shape).sum(axis=0) % 4 == 1  # diagonals: nowhere dense
    dom = GridDomain([-1.0, 0.0], [1.0, 2.0], shape, skel)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1]
    off = np.flatnonzero(~skel.reshape(-1))
    on = np.flatnonzero(skel.reshape(-1))
    vals = np.empty(skel.size)
    vals[off] = np.array([1.25, -3.0, 0.0, 7e-3])[np.arange(off.size) % 4]
    vals[off[:len(special)]] = special
    vals[on] = np.array([np.inf, -np.inf, -0.0, 5e-324])[np.arange(on.size) % 4]
    u = GridFunction(dom, vals.reshape(shape))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(u, got)
    _reference_write_csv(u, want)
    assert got.read_bytes() == want.read_bytes()
    back = read_csv(got)
    assert back.domain == u.domain
    np.testing.assert_array_equal(back.values.view(np.int64), u.values.view(np.int64))


def test_csv_formats_each_distinct_value_once(tmp_path, monkeypatch):
    # a guard without timing: per-element formatting would format 4,225 values
    formatted = []
    format_values = grids._format_values

    def counted(vals):
        formatted.extend(vals.tolist())
        return format_values(vals)

    monkeypatch.setattr(grids, "_format_values", counted)
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (65, 65))
    vals = np.array([0.5, -2.0, 1e-9])[np.arange(dom.skeleton.size) % 3]
    write_csv(GridFunction(dom, vals.reshape(dom.shape)), tmp_path / "u.csv")
    assert 0 < len(formatted) <= 3


def test_csv_builds_the_row_template_once_per_domain(tmp_path, monkeypatch):
    # the template once per domain, its coordinate text once per lattice:
    # two domains on one lattice with different skeletons share it
    built = []
    build = GridDomain.__dict__["_csv_rows"].func

    def counted(dom):
        built.append(dom)
        return build(dom)

    rows = functools.cached_property(counted)
    rows.__set_name__(GridDomain, "_csv_rows")
    monkeypatch.setattr(GridDomain, "_csv_rows", rows)
    dom = GridDomain([0.0, 0.0], [1.0, 1.0], (65, 65))
    other = dom.with_skeleton(np.indices(dom.shape).sum(axis=0) % 4 == 0)
    for k, u in enumerate([GridFunction(dom, np.zeros(dom.shape)),
                           GridFunction(dom, np.ones(dom.shape)),
                           GridFunction(other, np.full(dom.shape, 0.5))]):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        write_csv(u, got)
        _reference_write_csv(u, want)
        assert got.read_bytes() == want.read_bytes()
    assert built == [dom, other]
    assert other._csv_coords.cache_info().misses == 1


def test_csv_writes_leave_the_shared_template_intact(tmp_path):
    # f, then g with other values and skeleton infinities, then f again on
    # one domain: no write may change the cached text the next one copies
    shape = (9, 7)
    skel = np.indices(shape).sum(axis=0) % 3 == 0
    dom = GridDomain([-1.0, 0.5], [1.0, 2.0], shape, skel)
    on = np.flatnonzero(skel.reshape(-1))
    f_vals = np.linspace(-3.0, 3.0, skel.size)
    g_vals = np.full(skel.size, 0.25)
    g_vals[on] = np.array([np.inf, -np.inf, -0.0, 5e-324])[np.arange(on.size) % 4]
    f, g = (GridFunction(dom, v.reshape(shape)) for v in (f_vals, g_vals))
    for k, u in enumerate((f, g, f)):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        write_csv(u, got)
        _reference_write_csv(u, want)
        assert got.read_bytes() == want.read_bytes()


def test_axis_is_linspace_and_read_only():
    dom = GridDomain([-1.0, 0.1, 1e-3], [1.0, 0.7, 2e-3], (7, 33, 5))
    for d in range(dom.ndim):
        a = dom.axis(d)
        want = np.linspace(dom.lo[d], dom.hi[d], dom.shape[d])
        assert a.dtype == want.dtype and a.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            a[0] = 5.0
        assert dom.axis(d) is a  # built once
    assert dom.with_skeleton(dom.skeleton).axis(1).tobytes() == dom.axis(1).tobytes()


def test_domain_rejects_axes_that_do_not_increase():
    # 64 points across 4 units at 1e16, where one ulp is 2
    with pytest.raises(ValueError, match="increase strictly"):
        GridDomain([1e16], [1e16 + 4.0], (64,))
