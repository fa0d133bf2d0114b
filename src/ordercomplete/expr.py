"""Expression trees for PDE right-hand sides and operator bodies.

The textual grammar (used by problem-spec files and the demos):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' integer)?
    atom   := number
            | 'x' index                      space variable, 1-based
            | 'u[' index ',(' index {',' index} ')]'   jet variable u[i,(alpha)]
            | func '(' expr ')'
            | '(' expr ')'
            | '-' atom
    func   := 'sin' | 'cos' | 'exp' | 'log' | 'abs' | 'sqrt'

The nesting of parentheses, calls and '-' and the depth of the tree are
each bounded by _MAX_DEPTH, 100 levels, and an exponent's magnitude by
_MAX_EXPONENT, 2^53. Note that '-' binds at atom level,
so "-x1^2" is (-x1)^2; rendering is canonical and, within these bounds,
parse(render(e)) reproduces e node for node. The exceptions
are what only derivatives contain: the internal function sign, which
renders but the grammar does not accept, and negative constants, which
parse back as Neg of a number.

Expressions are immutable. Each is compiled once per backend, on its first
evaluation, into a program of nested closures, one per node, over that
backend's table of operations: elementwise numpy evaluation over
coordinate arrays, and the natural interval extension with outward
rounding, elementwise over arrays of intervals. The program is kept on the
expression's root node. Each node may fault (log or sqrt outside its
domain, division by zero, a zero base with a negative exponent; for
numbers, also a value that is not finite, overflow included), and each
closure ORs its children's fault masks with its own, so an evaluation
faults on the union of them. Point evaluation is the array evaluator on
one-element arrays, so points and arrays give the same bits and fault on
the same inputs by construction.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .intervals import (
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

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt")

# precedence levels used by the renderer
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


class ParseError(ValueError):
    """Malformed expression text; carries 1-based line/column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalDomainError(ValueError):
    """An evaluation faulted: a function outside its domain (log, sqrt,
    division, zero to a negative power) or, for numbers, a non-finite value.

    The evaluators raise it once, after the whole tree: `faulted` is the
    union over all nodes of the masks of the elements that faulted, and
    `values` the elementwise result (an array, or an Interval from
    eval_interval; its faulted elements are meaningless), both of the full
    broadcast shape. Interval operations return their masks and do not
    raise. Without jet values to read, both are None.
    """

    def __init__(self, message: str, faulted: np.ndarray | None = None,
                 values: np.ndarray | None = None) -> None:
        super().__init__(message)
        self.faulted = faulted
        self.values = values


class SignatureError(ParseError):
    """A variable reference is out of range for the system signature."""


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """A node of a parsed expression tree; the subclasses are its kinds."""

    def precedence(self) -> int:
        return _PREC_ATOM


@dataclass(repr=False)
class Num(Expr):
    """A numeric literal, held as a float."""

    value: float

    def __post_init__(self) -> None:
        self.value = float(self.value)


@dataclass(repr=False)
class SpaceVar(Expr):
    """The space variable x_index."""

    index: int  # 1-based


@dataclass(repr=False)
class JetVar(Expr):
    """The jet variable u[component, alpha]: D^alpha of one component."""

    component: int  # 1-based
    alpha: tuple[int, ...]


@dataclass(repr=False)
class Neg(Expr):
    """Unary minus of its operand."""

    operand: Expr


@dataclass(repr=False)
class BinOp(Expr):
    """A binary operation; the subclasses name the operator."""

    left: Expr
    right: Expr


class Add(BinOp):
    """left + right."""

    def precedence(self) -> int:
        return _PREC_ADD


class Sub(BinOp):
    """left - right."""

    def precedence(self) -> int:
        return _PREC_ADD


class Mul(BinOp):
    """left * right."""

    def precedence(self) -> int:
        return _PREC_MUL


class Div(BinOp):
    """left / right."""

    def precedence(self) -> int:
        return _PREC_MUL


@dataclass(repr=False)
class Pow(Expr):
    """base ^ exponent, an integer exponent."""

    base: Expr
    exponent: int

    def precedence(self) -> int:
        return _PREC_POW


@dataclass(repr=False)
class Call(Expr):
    """One of FUNCTIONS, by name, applied to its argument."""

    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# lexer / parser

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    |(?P<name>[A-Za-z]+\d*)
    |(?P<op>[+\-*/^()\[\],])
    |(?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int, int]]:
    line, col, pos = 1, 1, 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = mo.lastgroup
        value = mo.group()
        if kind != "ws":
            yield kind, value, line, col
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = mo.end()
    yield "end", "", line, col


# the deepest nesting of parentheses, calls and minus signs, and the deepest
# tree, that parse accepts: the recursive walks over a tree (and over its
# Jacobian, up to about twice as deep) then stay within Python's stack
_MAX_DEPTH = 100

# the largest exponent magnitude that parse accepts: float(k), in the
# Jacobian's factor k, is exact, and int_pow's chain is at most 106 products
_MAX_EXPONENT = 1 << 53


class _Parser:
    """Recursive descent; each rule takes the nesting of its text and returns
    its tree and the tree's depth, a leaf having depth 1."""

    def __init__(self, text: str, signature: tuple[int, int, int]):
        self.n, self.K, self.m = signature
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got, line, col = self.peek()
        if got != value:
            raise ParseError(f"expected {value!r}, found {got or 'end of input'!r}", line, col)
        self.advance()

    @staticmethod
    def bounded(depth: int, line: int, col: int) -> int:
        """depth, or a ParseError at the token that takes it past _MAX_DEPTH."""
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", line, col)
        return depth

    def parse(self) -> Expr:
        e, _ = self.expr(0)
        kind, value, line, col = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {value!r}", line, col)
        return e

    def expr(self, nest: int) -> tuple[Expr, int]:
        e, depth = self.term(nest)
        while self.peek()[1] in ("+", "-"):
            _, op, line, col = self.advance()
            rhs, rdepth = self.term(nest)
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
            depth = self.bounded(1 + max(depth, rdepth), line, col)
        return e, depth

    def term(self, nest: int) -> tuple[Expr, int]:
        e, depth = self.factor(nest)
        while self.peek()[1] in ("*", "/"):
            _, op, line, col = self.advance()
            rhs, rdepth = self.factor(nest)
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
            depth = self.bounded(1 + max(depth, rdepth), line, col)
        return e, depth

    def factor(self, nest: int) -> tuple[Expr, int]:
        base, depth = self.atom(nest)
        if self.peek()[1] == "^":
            _, _, line, col = self.advance()
            depth = self.bounded(depth + 1, line, col)
            kind, value, line, col = self.peek()
            neg = False
            if value == "-":
                self.advance()
                neg = True
                kind, value, line, col = self.peek()
            if kind != "num" or any(c in value for c in ".eE"):
                raise ParseError("exponent must be an integer literal", line, col)
            digits = value.lstrip("0") or "0"
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT:
                raise ParseError(f"exponent beyond 2^53 = {_MAX_EXPONENT}", line, col)
            self.advance()
            k = int(digits)
            return Pow(base, -k if neg else k), depth
        return base, depth

    def atom(self, nest: int) -> tuple[Expr, int]:
        kind, value, line, col = self.peek()
        if value == "-":
            self.advance()
            e, depth = self.atom(self.bounded(nest + 1, line, col))
            return Neg(e), self.bounded(depth + 1, line, col)
        if value == "(":
            self.advance()
            e, depth = self.expr(self.bounded(nest + 1, line, col))
            self.expect(")")
            return e, depth
        if kind == "num":
            self.advance()
            v = float(value)
            if not np.isfinite(v):
                raise ParseError(f"number {value} overflows a double", line, col)
            return Num(v), 1
        if kind == "name":
            return self.name_atom(nest)
        raise ParseError(f"expected an operand, found {value or 'end of input'!r}", line, col)

    def name_atom(self, nest: int) -> tuple[Expr, int]:
        kind, value, line, col = self.advance()
        mo = re.fullmatch(r"([A-Za-z]+)(\d*)", value)
        word, digits = mo.group(1), mo.group(2)
        if word == "x" and digits:
            idx = self.index(digits, "space variable x", "n", self.n, line, col)
            if not 1 <= idx <= self.n:
                raise SignatureError(
                    f"space variable x{idx} out of range for n={self.n}", line, col
                )
            return SpaceVar(idx), 1
        if word == "u" and not digits:
            return self.jet_atom(line, col), 1
        if value in FUNCTIONS:
            self.expect("(")
            arg, depth = self.expr(self.bounded(nest + 1, line, col))
            self.expect(")")
            return Call(value, arg), self.bounded(depth + 1, line, col)
        raise ParseError(f"unknown name {value!r}", line, col)

    def jet_atom(self, line: int, col: int) -> Expr:
        self.expect("[")
        comp = self.int_token("component index", "K", self.K)
        self.expect(",")
        self.expect("(")
        alpha = [self.int_token("multi-index entry", "m", self.m)]
        while self.peek()[1] == ",":
            self.advance()
            alpha.append(self.int_token("multi-index entry", "m", self.m))
        self.expect(")")
        self.expect("]")
        a = tuple(alpha)
        if not 1 <= comp <= self.K:
            raise SignatureError(
                f"jet component {comp} out of range for K={self.K}", line, col
            )
        if len(a) != self.n:
            raise SignatureError(
                f"multi-index {a} has {len(a)} entries, signature has n={self.n}", line, col
            )
        if sum(a) > self.m:
            raise SignatureError(f"multi-index {a} exceeds order m={self.m}", line, col)
        return JetVar(comp, a)

    def int_token(self, what: str, name: str, bound: int) -> int:
        """An integer literal, bounded by the signature's name = bound (see
        index)."""
        kind, value, line, col = self.peek()
        if kind != "num" or any(c in value for c in ".eE"):
            raise ParseError(f"expected {what} (integer), found {value!r}", line, col)
        self.advance()
        return self.index(value, what, name, bound, line, col)

    @staticmethod
    def index(digits: str, what: str, name: str, bound: int, line: int, col: int) -> int:
        """int(digits), or a SignatureError at (line, col) when digits has
        more digits than bound: it is out of range, and int() of a long
        literal exceeds Python's limit on digits, as an exponent's would."""
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(bound)):
            raise SignatureError(
                f"{what} of {len(digits)} digits out of range for {name}={bound}", line, col)
        return int(digits)


def parse(text: str, signature: tuple[int, int, int]) -> Expr:
    """Parse expression text against a system signature (n, K, m). Text
    nested deeper than _MAX_DEPTH, or whose tree is deeper, is a ParseError."""
    n, K, m = signature
    if n < 1 or K < 1 or m < 0:
        raise ValueError(f"invalid signature (n={n}, K={K}, m={m})")
    return _Parser(text, (n, K, m)).parse()


# ---------------------------------------------------------------------------
# rendering


def render(e: Expr) -> str:
    """Canonical text for e; parse(render(e), sig) == e."""
    return _render(e)


def _child(e: Expr, min_prec: int) -> str:
    text = _render(e)
    if e.precedence() < min_prec:
        return f"({text})"
    return text


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expr) -> str:
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, SpaceVar):
        return f"x{e.index}"
    if isinstance(e, JetVar):
        return f"u[{e.component},({','.join(str(a) for a in e.alpha)})]"
    if isinstance(e, Neg):
        # operand must render as an atom to parse back into this Neg
        return "-" + _child(e.operand, _PREC_ATOM)
    if isinstance(e, Add):
        return f"{_child(e.left, _PREC_ADD)} + {_child(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Sub):
        return f"{_child(e.left, _PREC_ADD)} - {_child(e.right, _PREC_ADD + 1)}"
    if isinstance(e, Mul):
        return f"{_child(e.left, _PREC_MUL)} * {_child(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Div):
        return f"{_child(e.left, _PREC_MUL)} / {_child(e.right, _PREC_MUL + 1)}"
    if isinstance(e, Pow):
        return f"{_child(e.base, _PREC_ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.func}({_render(e.arg)})"
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# structure queries


def jet_vars(e: Expr) -> set[tuple[int, tuple[int, ...]]]:
    """All (component, alpha) jet references in e."""
    out: set[tuple[int, tuple[int, ...]]] = set()
    _collect_jets(e, out)
    return out


def _collect_jets(e: Expr, out: set) -> None:
    if isinstance(e, JetVar):
        out.add((e.component, e.alpha))
    elif isinstance(e, Neg):
        _collect_jets(e.operand, out)
    elif isinstance(e, BinOp):
        _collect_jets(e.left, out)
        _collect_jets(e.right, out)
    elif isinstance(e, Pow):
        _collect_jets(e.base, out)
    elif isinstance(e, Call):
        _collect_jets(e.arg, out)


def has_jet_vars(e: Expr) -> bool:
    return bool(jet_vars(e))


# ---------------------------------------------------------------------------
# evaluation: each expression compiled once per backend into a program of
# nested closures, one per node, over that backend's table of operations


def eval_point(
    e: Expr,
    x: Sequence[float],
    jets: Mapping[tuple[int, tuple[int, ...]], float] | None = None,
) -> float:
    """Evaluate at a space point with jet values supplied by a mapping.

    eval_on_arrays on one-element arrays, so a point gives the same bits
    and the same faults as its element of any batch. A fault raises
    EvalDomainError; the result is always finite.
    """
    coords = [np.array([c], dtype=float) for c in x]
    if jets is not None:
        jets = {var: np.array([v], dtype=float) for var, v in jets.items()}
    return float(eval_on_arrays(e, coords, jets)[0])


def eval_on_arrays(
    e: Expr,
    x: Sequence[np.ndarray],
    jets: Mapping[tuple[int, tuple[int, ...]], np.ndarray] | None = None,
) -> np.ndarray:
    """Elementwise values of e over broadcastable coordinate/jet arrays.

    An element faults when some node of its evaluation is outside a
    function domain (log or sqrt, division by zero, a zero base with a
    negative exponent) or not finite, overflow included. The result always
    has the full broadcast shape of the inputs, even for constant
    expressions. If any element faults, the EvalDomainError raised carries
    the faulted mask and the values, so a sampling caller can drop the
    faulted elements instead of evaluating them one by one.
    """
    x = [np.asarray(c, dtype=float) for c in x]
    if jets is not None:
        jets = {var: np.asarray(v, dtype=float) for var, v in jets.items()}
    with np.errstate(all="ignore"):
        val, faulted = eval_masked(e, x, jets)
    shape = np.broadcast_shapes(*(v.shape for v in [*x, *(jets or {}).values()]))
    out = np.asarray(val, dtype=float)
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    if faulted.any():
        faulted = np.broadcast_to(faulted, shape).copy()
        raise EvalDomainError(
            f"evaluation of {render(e)!r} faulted at {int(faulted.sum())} "
            f"of {faulted.size} elements",
            faulted=faulted, values=out,
        )
    return out


def eval_masked(e: Expr, x: Sequence[np.ndarray], jets) -> tuple:
    """The values of e over float arrays x and jets (a mapping, or None)
    and the mask of the elements that fault, both of the shape the
    operations give, which may be less than the broadcast shape; what
    eval_on_arrays computes before it checks the mask, for a caller that
    reads the mask itself and ignores floating-point errors (np.errstate).
    Missing jet values raise EvalDomainError without a mask."""
    val, faulted = _program(e, "array")(x, jets)
    return val, _or(faulted, ~np.isfinite(val))


def eval_interval(
    e: Expr,
    x: Sequence[Interval],
    jets: Mapping[tuple[int, tuple[int, ...]], Interval] | None = None,
) -> Interval:
    """Natural interval extension of e over box operands, elementwise.

    Each element of the result, which has the operands' full broadcast
    shape, encloses {eval_point(e, p, q) : p in x, q in jets} there: never
    an under-approximation. An element faults when some node's operand lies
    wholly outside a function domain, or when an operand box it reads holds
    no real ([inf, inf] or [-inf, -inf]); if any does, EvalDomainError
    carries the union of the faulted masks over all nodes and the enclosures.
    """
    out, faulted = _program(e, "interval")(x, jets)
    shape = np.broadcast_shapes(*(v.lo.shape for v in [*x, *(jets or {}).values()]))
    out = Interval(np.broadcast_to(out.lo, shape), np.broadcast_to(out.hi, shape))
    if faulted is not False and faulted.any():
        faulted = np.broadcast_to(faulted, shape).copy()
        raise EvalDomainError(
            f"interval evaluation of {render(e)!r} faulted at {int(faulted.sum())} "
            f"of {faulted.size} elements", faulted=faulted, values=out)
    return out


def _or(a, b):
    """a | b for fault masks, where False means that nothing can fault."""
    return b if a is False else a if b is False else a | b


def _program(e: Expr, backend: str):
    """e's program under a backend's operations, "array" or "interval",
    built on its first use and kept on e for e's lifetime, outside the
    dataclass fields that == and render read."""
    try:
        return e.__dict__["_programs"][backend]
    except KeyError:
        programs = e.__dict__.setdefault("_programs", {})
        programs[backend] = program = _build(e, _OPS[backend])
        return program


def _build(e: Expr, ops):
    """The program of e under the operations ops: a function of the
    coordinates x and the jet mapping (or None) that returns e's value and
    the union of the fault masks of all its nodes (False where no node can
    fault). Each node is one closure, which applies the node's operation to
    its children's values, left before right."""
    if isinstance(e, Num):
        const = ops[Num](e.value)
        return lambda x, jets: (const, False)
    var = ops["var"]
    if isinstance(e, SpaceVar):
        axis = e.index - 1
        return lambda x, jets: var(x[axis])
    if isinstance(e, JetVar):
        key, text = (e.component, e.alpha), render(e)

        def jet(x, jets):
            if jets is None:
                raise EvalDomainError(f"no jet values supplied for {text!r}")
            return var(jets[key])
        return jet
    if isinstance(e, Neg):
        operand = _build(e.operand, ops)

        def neg(x, jets):
            val, faulted = operand(x, jets)
            return -val, faulted
        return neg
    if isinstance(e, BinOp):
        left, right, op = _build(e.left, ops), _build(e.right, ops), ops[type(e)]

        def binop(x, jets):
            a, a_faulted = left(x, jets)
            b, b_faulted = right(x, jets)
            val, faulted = op(a, b)
            return val, _or(_or(a_faulted, b_faulted), faulted)
        return binop
    if isinstance(e, Pow):
        base, k, op = _build(e.base, ops), e.exponent, ops[Pow]

        def power(x, jets):
            b, b_faulted = base(x, jets)
            val, faulted = op(b, k)
            return val, _or(b_faulted, faulted)
        return power
    if isinstance(e, Call):
        arg, op = _build(e.arg, ops), ops[e.func]

        def call(x, jets):
            a, a_faulted = arg(x, jets)
            val, faulted = op(a)
            return val, _or(a_faulted, faulted)
        return call
    raise TypeError(f"unknown node {type(e).__name__}")


def _total(f):
    """An operation that cannot fault, in the (value, mask) form."""
    return lambda *args: (f(*args), False)


def _array_div(a, b):
    # numpy division: no ZeroDivisionError; t / inf = 0 absorbs a fault
    b = np.asarray(b)
    return a / b, (b == 0.0) | ~np.isfinite(b)


def _array_pow(b, k):
    b = np.asarray(b)  # numpy arithmetic: no OverflowError
    if k > 0:
        return int_pow(b, k), False
    # inf^k = 1 or 0 for k <= 0 (nan^0 too) absorbs a fault
    return int_pow(b, k), ~np.isfinite(b) | ((b == 0.0) & (k < 0))


# + - * on numbers, arrays and intervals alike
_ARITH = {Add: _total(operator.add), Sub: _total(operator.sub), Mul: _total(operator.mul)}

# A non-finite node value reaches the root, whose check catches it, unless
# an operation absorbs it; those operations check their own operand.
_ARRAY_OPS = {
    **_ARITH,
    Num: lambda v: v,
    "var": lambda a: (a, False),
    Div: _array_div,
    Pow: _array_pow,
    "sin": _total(np.sin),
    "cos": _total(np.cos),
    "abs": _total(np.abs),
    "sign": lambda a: (np.sign(a), ~np.isfinite(a)),  # sign(inf) = 1 absorbs
    "exp": lambda a: (np.exp(a), ~np.isfinite(a)),  # exp(-inf) = 0 absorbs
    "log": lambda a: (np.log(a), a <= 0.0),
    "sqrt": lambda a: (np.sqrt(a), a < 0.0),
}


def _interval_var(box):
    """An operand box and its fault mask, where it holds no real ([inf, inf]
    or [-inf, -inf]); such an element becomes the whole line, so no later
    operation meets inf - inf."""
    if box.lo.max(initial=-np.inf) < np.inf and box.hi.min(initial=np.inf) > -np.inf:
        return box, False
    empty = (box.lo == np.inf) | (box.hi == -np.inf)
    return Interval(np.where(empty, -np.inf, box.lo), np.where(empty, np.inf, box.hi)), empty


# natural extension, outward rounded
_INTERVAL_OPS = {
    **_ARITH,
    Num: Interval.point,
    "var": _interval_var,
    Div: div_interval,
    Pow: Interval.pow_int,
    "sin": _total(sin_interval),
    "cos": _total(cos_interval),
    "abs": _total(abs_interval),
    # sign is monotone: its values at the endpoints enclose it exactly
    "sign": _total(lambda x: Interval(np.sign(x.lo), np.sign(x.hi))),
    "exp": _total(exp_interval),
    "log": log_interval,
    "sqrt": sqrt_interval,
}

_OPS = {"array": _ARRAY_OPS, "interval": _INTERVAL_OPS}


# ---------------------------------------------------------------------------
# symbolic jet derivatives

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b) if not isinstance(b, Num) else Num(-b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return _ONE
    if k == 1:
        return base
    return Pow(base, k)


def diff_jet(e: Expr, var: tuple[int, tuple[int, ...]]) -> Expr:
    """Symbolic partial derivative with respect to one jet variable.

    Space variables are treated as constants. abs(g) gets the generalized
    derivative sign(g) * g', which is what semismooth Newton needs (Qi and
    Sun, Math. Programming 58, 1993); sign is an internal function that the
    evaluators know but the grammar does not.
    """
    comp, alpha = var
    target = JetVar(comp, tuple(alpha))
    return _diff(e, target)


def _diff(e: Expr, v: JetVar) -> Expr:
    if isinstance(e, (Num, SpaceVar)):
        return _ZERO
    if isinstance(e, JetVar):
        return _ONE if e == v else _ZERO
    if isinstance(e, Neg):
        d = _diff(e.operand, v)
        return _ZERO if _is_const(d, 0.0) else Neg(d) if not isinstance(d, Num) else Num(-d.value)
    if isinstance(e, Add):
        return _add(_diff(e.left, v), _diff(e.right, v))
    if isinstance(e, Sub):
        return _sub(_diff(e.left, v), _diff(e.right, v))
    if isinstance(e, Mul):
        return _add(_mul(_diff(e.left, v), e.right), _mul(e.left, _diff(e.right, v)))
    if isinstance(e, Div):
        du = _diff(e.left, v)
        dv = _diff(e.right, v)
        if _is_const(dv, 0.0):
            return _div(du, e.right)
        num = _sub(_mul(du, e.right), _mul(e.left, dv))
        return _div(num, _pow(e.right, 2))
    if isinstance(e, Pow):
        d = _diff(e.base, v)
        if _is_const(d, 0.0):
            return _ZERO
        return _mul(_mul(Num(float(e.exponent)), _pow(e.base, e.exponent - 1)), d)
    if isinstance(e, Call):
        d = _diff(e.arg, v)
        if _is_const(d, 0.0):
            return _ZERO
        if e.func == "sin":
            return _mul(Call("cos", e.arg), d)
        if e.func == "cos":
            return Neg(_mul(Call("sin", e.arg), d))
        if e.func == "exp":
            return _mul(Call("exp", e.arg), d)
        if e.func == "log":
            return _div(d, e.arg)
        if e.func == "sqrt":
            return _div(d, _mul(Num(2.0), Call("sqrt", e.arg)))
        if e.func == "abs":
            return _mul(Call("sign", e.arg), d)
        raise TypeError(f"no derivative rule for {e.func}")
    raise TypeError(f"unknown node {type(e).__name__}")
