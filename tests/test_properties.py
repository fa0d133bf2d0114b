"""Property tests over the expression grammar: rendering round-trips, and
the point, array and interval evaluators agree on values and faults. The
interval evaluator encloses the array values on point boxes and on boxes
around them. Also the CSV writer: its bytes are those of the csv.writer
reference, and read_csv gives back every value bit for bit; the
neighbour box pass gives the bits of the offset loop at every skeleton
point; normalize is idempotent, and the stacked completion gives each
layer's normalize; the routines on lattice functions never read a
skeleton value; and `run` exits 0, 2 or 3 on random 1D and 2D problem
files, never with a traceback.

Trees are drawn for the signatures (n, 1, 1), n in {1, 2}, from every node
type. The runs are derandomized, with a fixed number of examples and no
example database, so the suite stays deterministic.
"""

import contextlib
import dataclasses
import io
import itertools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ordercomplete import expr as ex
from ordercomplete import grids
from ordercomplete.analysis import (
    IntervalSequence,
    dilation_envelopes,
    envelope_sequence,
    interval_pushforward,
    nested_limit_check,
)
from ordercomplete.cli import main, verify
from ordercomplete.grids import (
    GridDomain,
    GridFunction,
    OrderInterval,
    baire_lower,
    baire_upper,
    lattice_inf,
    lattice_sup,
    leq_dense,
    normalize,
    read_csv,
    write_csv,
)
from ordercomplete.intervals import Interval, IntervalDomainError
from ordercomplete.pde import PdeSystem
from test_grids import _offset_loop_extreme, _reference_write_csv

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=120)


def _jet_vars(n):
    """The jet variables of order <= 1 of the one component."""
    alphas = [(0,) * n] + [tuple(int(i == d) for i in range(n)) for d in range(n)]
    return [ex.JetVar(1, a) for a in alphas]


def _trees(n, funcs, jets=True):
    # number literals are finite and non-negative; a sign comes from Neg
    leaves = st.one_of(
        st.builds(ex.Num, st.floats(min_value=0.0, allow_infinity=False)),
        st.sampled_from([ex.SpaceVar(i) for i in range(1, n + 1)]
                        + (_jet_vars(n) if jets else [])),
    )

    def extend(sub):
        return st.one_of(
            st.builds(ex.Neg, sub),
            *(st.builds(op, sub, sub) for op in (ex.Add, ex.Sub, ex.Mul, ex.Div)),
            st.builds(ex.Pow, sub, st.integers(-5, 5)),
            st.builds(ex.Call, st.sampled_from(funcs), sub),
        )

    return st.recursive(leaves, extend, max_leaves=8)


# per n: trees of the grammar, and trees over every function the evaluators
# know, sign included
_GRAMMAR = {n: _trees(n, list(ex.FUNCTIONS)) for n in (1, 2)}
_EVALUATED = {n: _trees(n, [*ex.FUNCTIONS, "sign"]) for n in (1, 2)}


def _cases(values):
    """A tree over every function the evaluators know, sign included, and
    its inputs: 1 to 6 elements of each coordinate and jet variable."""

    def split(n, e, rows):
        cols = np.array(rows).T
        return e, list(cols[:n]), {(v.component, v.alpha): a
                                   for v, a in zip(_jet_vars(n), cols[n:], strict=True)}

    return st.one_of(*(
        st.builds(split, st.just(n), _EVALUATED[n],
                  st.lists(st.tuples(*[values] * (2 * n + 1)), min_size=1, max_size=6))
        for n in (1, 2)))


def _eval_arrays(e, x, jets):
    try:
        vals = ex.eval_on_arrays(e, x, jets)
        return vals, np.zeros(vals.shape, dtype=bool)
    except ex.EvalDomainError as err:
        return err.values, err.faulted


def _subtrees(e):
    """e and every node below it."""
    yield e
    for child in ("operand", "left", "right", "base", "arg"):
        if hasattr(e, child):
            yield from _subtrees(getattr(e, child))


@_SETTINGS
@given(st.one_of(*(st.tuples(st.just(n), _GRAMMAR[n]) for n in (1, 2))))
def test_render_then_parse_is_the_identity(case):
    # each subtree also under the two atom-level parents, where the
    # renderer's parentheses matter most
    n, e = case
    for sub in _subtrees(e):
        for tree in (sub, ex.Neg(sub), ex.Pow(sub, 2)):
            assert ex.parse(ex.render(tree), (n, 1, 1)) == tree


@_SETTINGS
@given(_cases(st.floats()))
def test_point_and_array_evaluators_agree_bit_for_bit(case):
    e, x, jets = case
    vals, faulted = _eval_arrays(e, x, jets)
    for k in range(vals.size):
        point = ([float(c[k]) for c in x], {v: float(a[k]) for v, a in jets.items()})
        if faulted[k]:
            try:
                ex.eval_point(e, *point)
            except ex.EvalDomainError:
                continue
            raise AssertionError(f"{ex.render(e)}: only the array evaluator faults at {k}")
        assert np.float64(ex.eval_point(e, *point)).tobytes() == vals[k].tobytes()


# a point box holds a real: no endpoint is NaN, and +-inf ends an unbounded
# interval but is no point of it. Every subtree is checked, so the enclosure
# holds at each node, also below a node that faults
@_SETTINGS
@given(_cases(st.floats(allow_nan=False, allow_infinity=False)))
def test_interval_evaluator_encloses_array_values_on_point_boxes(case):
    tree, x, jets = case
    boxes = [Interval.point(c) for c in x], {v: Interval.point(a) for v, a in jets.items()}
    for e in _subtrees(tree):
        vals, faulted = _eval_arrays(e, x, jets)
        try:
            out = ex.eval_interval(e, *boxes)
            interval_faulted = np.zeros(vals.shape, dtype=bool)
        except ex.EvalDomainError as err:
            out, interval_faulted = err.values, err.faulted
        assert not np.any(interval_faulted & ~faulted), ex.render(e)
        ok = ~faulted
        assert np.all(out.lo[ok] <= vals[ok]) and np.all(vals[ok] <= out.hi[ok]), ex.render(e)


# each point p widened into the box [p - r, p + r], r = width * max(|p|, 1),
# its ends clipped to finite doubles, and the array evaluator sampled at
# every corner of the box and at p; a box straddling a function's domain
# boundary or a zero of sign holds samples on both sides of it. Every
# subtree is checked, alone and under one drawn function, so that each
# function meets boxes of every kind
@_SETTINGS
@given(_cases(st.floats(allow_nan=False, allow_infinity=False)),
       st.sampled_from([2.0**-20, 2.0**-4, 1.0, 4.0]),
       st.sampled_from([*ex.FUNCTIONS, "sign"]))
def test_interval_evaluator_encloses_array_samples_on_boxes(case, width, func):
    tree, x, jets = case
    points = [*x, *jets.values()]
    big = np.finfo(float).max
    with np.errstate(over="ignore"):
        ends = [(np.maximum(p - r, -big), np.minimum(p + r, big))
                for p, r in ((p, width * np.maximum(np.abs(p), 1.0)) for p in points)]
    corners = list(itertools.product((0, 1), repeat=len(points)))
    # per variable, its samples (corners + 1, elements), flattened
    sampled = [np.stack([end[c[v]] for c in corners] + [points[v]]).ravel()
               for v, end in enumerate(ends)]
    n = len(x)
    boxes = [Interval(*end) for end in ends]
    for e in (t for sub in _subtrees(tree) for t in (sub, ex.Call(func, sub))):
        vals, faulted = (a.reshape(len(corners) + 1, -1) for a in _eval_arrays(
            e, sampled[:n], dict(zip(jets, sampled[n:], strict=True))))
        try:
            out = ex.eval_interval(e, boxes[:n], dict(zip(jets, boxes[n:], strict=True)))
            interval_faulted = np.zeros(vals.shape[1], dtype=bool)
        except ex.EvalDomainError as err:
            out, interval_faulted = err.values, err.faulted
        assert np.all(faulted[:, interval_faulted]), ex.render(e)
        assert np.all(faulted | ((out.lo <= vals) & (vals <= out.hi))), ex.render(e)


# ---------------------------------------------------------------------------
# CSV rendering of grid functions

# a value pool of at most three finite doubles and their negatives, so
# values repeat as they do where skeleton points copy a neighbour's value,
# and a zero comes with its twin of the other sign; the edge cases of the
# text (zero, subnormals, the largest double) are drawn often
_EDGES = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
_POOL = st.lists(st.one_of(st.sampled_from(_EDGES),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=1, max_size=3).map(lambda xs: xs + [-x for x in xs])


@st.composite
def _grid_functions(draw, dims=2, pools=_POOL):
    """A lattice function of 1 to dims dimensions: a nowhere-dense skeleton
    (no point with all indices even is marked, so every 2 x ... x 2 block
    keeps one unmarked point), values of a pool drawn from pools off it,
    and pool values or +-inf on it."""
    shape = tuple(draw(st.lists(st.integers(3, 9), min_size=1, max_size=dims)))
    size = int(np.prod(shape))
    marked = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    skel = marked.reshape(shape) & (np.indices(shape) % 2 != 0).any(axis=0)
    pool = draw(pools)
    picks = draw(st.lists(st.integers(0, len(pool) + 1), min_size=size, max_size=size))
    vals = np.array([*pool, np.inf, -np.inf])[picks].reshape(shape)
    vals[~skel & np.isinf(vals)] = pool[0]
    lo = draw(st.floats(-2.0, 1.0))
    return GridFunction(GridDomain([lo] * len(shape), [lo + 1.5] * len(shape), shape, skel),
                        vals)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_grid_functions())
def test_csv_bytes_and_bits_round_trip(u):
    with tempfile.TemporaryDirectory() as d:
        got, want = Path(d) / "got.csv", Path(d) / "want.csv"
        write_csv(u, got)
        _reference_write_csv(u, want)
        assert got.read_bytes() == want.read_bytes()
        back = read_csv(got)
    assert back.domain == u.domain
    assert back.values.view(np.int64).tolist() == u.values.view(np.int64).tolist()


@st.composite
def _marked_stacks(draw):
    """A 1-3D lattice, its skeleton any set of points but the interior ones
    with all indices even (so the interior is nowhere dense while a marked
    edge sends points to the ring search), and a stack of 1 to 6 fields of
    pool values, zeros of both signs or +-inf everywhere."""
    shape = tuple(draw(st.lists(st.integers(4, 7), min_size=1, max_size=3)))
    idx = np.indices(shape)
    top = np.array(shape).reshape((-1,) + (1,) * len(shape)) - 1
    kept = ((idx % 2 == 0) & (idx > 0) & (idx < top)).all(axis=0)
    skel = draw(hnp.arrays(bool, shape)) & ~kept
    pool = draw(_POOL) + [0.0, -0.0, np.inf, -np.inf]
    k = draw(st.integers(1, 6))
    stack = draw(hnp.arrays(float, (k,) + shape, elements=st.sampled_from(pool)))
    return GridDomain([0.0] * len(shape), [1.0] * len(shape), shape, skel), stack


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_marked_stacks())
def test_box_pass_is_the_offset_loop(case):
    dom, stack = case
    for minimize in (True, False):
        box = grids._neighbor_extreme(dom, stack, minimize)[..., dom.skeleton]
        loop = _offset_loop_extreme(dom, stack, minimize)[..., dom.skeleton]
        assert box.tobytes() == loop.tobytes()


@st.composite
def _stacks(draw):
    """A lattice function of _grid_functions and one or two more on its
    lattice, each holding its values off the skeleton in a drawn order,
    negated or not (so a zero may change its sign), and its skeleton values
    on the skeleton: 2 or 3 layers of lattice values."""
    u = draw(_grid_functions())
    off = ~u.domain.skeleton
    layers = [u.values]
    for _ in range(draw(st.integers(1, 2))):
        v = np.array(u.values)
        v[off] = draw(st.sampled_from([1.0, -1.0])) * np.array(
            draw(st.permutations(u.values[off].tolist())))
        layers.append(v)
    return u.domain, layers


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_stacks())
def test_normalize_is_idempotent_and_completes_stacks_alike(case):
    # normalize is a fixed point after one pass, and the stacked completion
    # (grids.complete) of the values off the skeleton gives each layer's
    # normalize, bit for bit, signed zeros included
    dom, layers = case
    once = [normalize(GridFunction(dom, v)) for v in layers]
    for g in once:
        assert normalize(g).values.tobytes() == g.values.tobytes()
    off = ~dom.skeleton
    stacked = grids.complete(dom, off, [v[off] for v in layers])
    assert [g.values.tobytes() for g in stacked] == [g.values.tobytes() for g in once]


# ---------------------------------------------------------------------------
# skeleton values

# what the skeleton may hold instead of its values: they must never be read
_SKELETON_FILLS = [0.0, np.inf, -np.inf, 1e308, -1e308]
# values whose sums, products and shifts stay finite
_MODERATE = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3).map(
    lambda xs: xs + [-x for x in xs])


@st.composite
def _skeleton_cases(draw):
    """A 1-3D lattice function u of moderate values, a second one v on its
    lattice, and two fields of _SKELETON_FILLS values on it."""
    u = draw(_grid_functions(3, _MODERATE))
    shape = u.domain.shape
    v = GridFunction(u.domain, draw(hnp.arrays(float, shape, elements=st.floats(-1e3, 1e3))))
    return u, v, draw(hnp.arrays(float, (2, *shape),
                                 elements=st.sampled_from(_SKELETON_FILLS)))


def _bits(x):
    """x with every float and array by its bits, so that == compares bit
    for bit, through containers and dataclasses."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return np.float64(x).tobytes()
    if isinstance(x, dict):
        return {k: _bits(y) for k, y in x.items()}
    if isinstance(x, (list, tuple)):
        return tuple(_bits(y) for y in x)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(_bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def _skeleton_outcomes(u, v, blank):
    """What the routines on GridFunctions give on u, v and functions made
    from their values, every input passed through blank; baire_lower,
    baire_upper and dilation_envelopes by their values off the skeleton,
    where the skeleton's own values are not read, the rest whole."""
    dom = u.domain
    off = ~dom.skeleton
    lo = GridFunction(dom, np.minimum(u.values, v.values))
    hi = GridFunction(dom, np.maximum(u.values, v.values))

    def shifted(g, c):
        return blank(GridFunction(dom, g.values + c))

    steps = range(1, 4)
    iv = OrderInterval(blank(lo), blank(hi))
    nested = IntervalSequence([(OrderInterval(shifted(lo, -1 / k), shifted(hi, 1 / k)),)
                               for k in steps])
    u_x, v_x = blank(u), blank(v)
    out = {
        "arithmetic": (u_x + v_x, u_x - v_x, u_x - u_x, u_x * 0.5, -2.0 * u_x, u_x + 1.5),
        "normalize": normalize(u_x),
        "lattice": (lattice_sup(u_x, v_x), lattice_inf(u_x, v_x)),
        "leq_dense": (leq_dense(u_x, v_x), leq_dense(iv.lower, iv.upper)),
        "baire": [g.values[off] for g in (baire_lower(u_x), baire_upper(u_x))],
        "order": [grids.order_convergence_check(
            [shifted(u, 1 / k) for k in steps], [shifted(lo, -1 / k) for k in steps],
            [shifted(hi, sign / k) for k in steps], u_x, 0.75) for sign in (1, -1)],
        "quasi_uniform": grids.quasi_uniform_check([shifted(hi, 1 / k) for k in steps],
                                                   u_x, 0.6),
        "nested_limit": [nested_limit_check(nested, tol) for tol in (1.0, 3e3)],
        "dilation": [g.values[off] for g in dilation_envelopes(u_x, 3, 0.5)],
        "envelopes": envelope_sequence(u_x, 3).steps,
    }
    n = dom.ndim
    value, slope = (f"u[1,({','.join(str(int(d == i)) for d in range(n))})]"
                    for i in (-1, 0))
    for F in (f"{value} * {slope} + sin({value})", f"log({value}) + {slope}"):
        system = PdeSystem(n, 1, 1, [F], ["0"], dom.lo, dom.hi)
        try:
            out[F] = interval_pushforward(system, [iv] * len(system.flat_vars()), dom)
        except IntervalDomainError as e:
            out[F] = str(e), e.faulted
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_skeleton_cases())
def test_skeleton_values_are_never_read(case):
    # the paper's generalized functions are fixed by their values off a
    # closed nowhere-dense set: the same off the skeleton, they give the
    # same results, bit for bit, and no warning (warnings are errors here)
    u, v, fills = case
    skel = u.domain.skeleton
    taken = itertools.count()  # the inputs take the two fields in turn

    def blank(g):
        return GridFunction(g.domain, np.where(skel, fills[next(taken) % 2], g.values))

    want = _skeleton_outcomes(u, v, lambda g: g)
    assert _bits(_skeleton_outcomes(u, v, blank)) == _bits(want)


# ---------------------------------------------------------------------------
# run's exit codes

# box ends around ordinary, huge and tiny scales: with them come boxes of
# no extent, reversed or infinite ones, a diagonal that underflows to 0 and
# one too narrow for its lattice
_ENDS = st.sampled_from([0.0, 1.0, 3.0, -1.5, 1e-300, 5e-324, 1e16, 1e308, -1e308,
                         float("inf")])
_U, _DU = _jet_vars(1)
# a scalar first-order operator u' + g(u), with g one of a few smooth terms
_TRANSPORT = st.builds(ex.Add, st.just(_DU), st.sampled_from(
    [_U, ex.Pow(_U, 3), ex.Call("sin", _U), ex.Mul(ex.SpaceVar(1), _U)]))


def _space_trees(*common):
    """Trees in x1 alone, or one of the given texts."""
    return st.one_of(_trees(1, list(ex.FUNCTIONS), jets=False),
                     st.sampled_from([ex.parse(t, (1, 1, 0)) for t in common]))


@st.composite
def _problem_files(draw):
    """A 1D, first-order scalar problem file on a small lattice: F a tree
    of the grammar, u' plus one, or u' plus a smooth term; f and exact
    trees in x1 or common functions (exact also faulting everywhere, or
    absent); the box an ordinary one or ends from _ENDS."""
    F = draw(st.one_of(_GRAMMAR[1], st.builds(ex.Add, st.just(_DU), _GRAMMAR[1]),
                       _TRANSPORT))
    f = draw(_space_trees("cos(x1)", "1 + x1", "cos(x1) + sin(x1)^3"))
    exact = draw(st.none() | _space_trees("sin(x1)", "log(x1 - 10) + sin(x1)"))
    lo, hi = draw(st.one_of(st.tuples(_ENDS, _ENDS), st.sampled_from([(0.0, 1.0), (0.0, 3.0)])))
    lines = ["n = 1", "K = 1", "m = 1", f"box.lo = {lo!r}", f"box.hi = {hi!r}",
             f"grid = {draw(st.integers(8, 40))}",
             f"F1 = {ex.render(F)}", f"f1 = {ex.render(f)}"]
    if exact is not None:
        lines.append(f"exact1 = {ex.render(exact)}")
    return "\n".join(lines) + "\n"


def _assert_run_documented(spec, stages, gamma):
    """run exits 0, 2 or 3 on the problem file, and verify reproduces every
    run directory that run writes."""
    with tempfile.TemporaryDirectory() as d:
        path, out = Path(d) / "prob.spec", Path(d) / "out"
        path.write_text(spec)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--gamma", gamma, "--stages", str(stages),
                         "--no-samples", "--out", str(out)])
            assert code in (0, 2, 3)
            assert code == 3 or verify(out) == code


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_problem_files(), st.integers(1, 3), st.sampled_from(["0.2", "0.5", "3"]))
def test_run_exits_documented_on_random_problems(spec, stages, gamma):
    _assert_run_documented(spec, stages, gamma)


def _transport_2d(i, j, sign, term):
    """u_i,x1 +- u_j,x2 + term: a 2D first-order operator of components i, j."""
    dx, dy = ex.JetVar(i, (1, 0)), ex.JetVar(j, (0, 1))
    return ex.Add(ex.Add(dx, dy) if sign > 0 else ex.Sub(dx, dy), term)


def _smooth_terms(i):
    """A few smooth terms in component i's value and the coordinates."""
    u = ex.JetVar(i, (0, 0))
    return st.sampled_from([u, ex.Pow(u, 3), ex.Call("sin", u), ex.Mul(ex.SpaceVar(2), u)])


def _plane_trees(*common):
    """Trees in x1 and x2 alone, or one of the given texts."""
    return st.one_of(_trees(2, list(ex.FUNCTIONS), jets=False),
                     st.sampled_from([ex.parse(t, (2, 1, 0)) for t in common]))


@st.composite
def _problem_files_2d(draw):
    """A 2D, first-order problem file with K = 1 or 2. Solvable-looking
    ones: u_x1 + u_x2 plus a smooth term, or two coupled such transports,
    on the unit square at 25 points a side (the coarsest lattices, up to
    17, are too coarse for the I-cells, whose diagonal is a sixteenth of
    the box's, to hold interior points). Wild ones: a tree of the grammar
    in u1 for F1, on 8 to 25 points a side, in a box with ends from _ENDS.
    f and exact trees in x1 and x2 or common functions (exact also
    absent)."""
    K = draw(st.sampled_from([1, 2]))
    wild = draw(st.booleans())
    F = [draw(_GRAMMAR[2]) if wild else
         _transport_2d(1, K, 1, draw(_smooth_terms(1)))]
    if K == 2:
        F.append(_transport_2d(2, 1, -1, draw(_smooth_terms(2))))
    f = [draw(_plane_trees("cos(x1) + x2", "1 + x1*x2", "sin(x1)^3 - cos(x2)")) for _ in F]
    exact = draw(st.none() | st.lists(_plane_trees("sin(x1) + cos(x2)", "log(x1 - 10)"),
                                      min_size=K, max_size=K))
    box, grid = [0.0, 0.0, 1.0, 1.0], 25
    if wild:
        box = draw(st.one_of(st.lists(_ENDS, min_size=4, max_size=4), st.just(box)))
        grid = draw(st.integers(8, 25))
    lines = ["n = 2", f"K = {K}", "m = 1", f"box.lo = {box[0]!r} {box[1]!r}",
             f"box.hi = {box[2]!r} {box[3]!r}", f"grid = {grid}"]
    for j in range(K):
        lines += [f"F{j + 1} = {ex.render(F[j])}", f"f{j + 1} = {ex.render(f[j])}"]
        if exact is not None:
            lines.append(f"exact{j + 1} = {ex.render(exact[j])}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(_problem_files_2d(), st.integers(1, 2), st.sampled_from(["0.2", "0.5", "3"]))
def test_run_exits_documented_on_random_2d_problems(spec, stages, gamma):
    _assert_run_documented(spec, stages, gamma)
