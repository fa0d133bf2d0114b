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

Note that '-' binds at atom level, so "-x1^2" is (-x1)^2; rendering is
canonical and parse(render(e)) reproduces e node for node.

Expressions are immutable. Three evaluators share the tree: scalar point
evaluation, elementwise numpy evaluation over coordinate arrays, and
interval evaluation via the natural extension with outward rounding. The
point and array evaluators fault on the same inputs: a domain violation
(log or sqrt outside its domain, division by zero, a zero base with a
negative exponent) or a node value that is not finite (overflow included).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .intervals import (
    Interval,
    IntervalDomainError,
    abs_interval,
    cos_interval,
    exp_interval,
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
    division, zero to a negative power) or a non-finite value.

    Raised by eval_on_arrays, it also carries `faulted`, the boolean mask of
    the elements that faulted, and `values`, the elementwise result (its
    faulted elements are meaningless), both of the full broadcast shape;
    otherwise both are None.
    """

    def __init__(self, message: str, faulted: np.ndarray | None = None,
                 values: np.ndarray | None = None) -> None:
        super().__init__(message)
        self.faulted = faulted
        self.values = values


class NondifferentiableError(ValueError):
    """diff_jet hit a node with no derivative expression (abs)."""


class SignatureError(ParseError):
    """A variable reference is out of range for the system signature."""


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class Expr:
    def precedence(self) -> int:
        return _PREC_ATOM


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class SpaceVar(Expr):
    index: int  # 1-based


@dataclass(frozen=True)
class JetVar(Expr):
    component: int  # 1-based
    alpha: tuple[int, ...]


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Add(BinOp):
    def precedence(self) -> int:
        return _PREC_ADD


@dataclass(frozen=True)
class Sub(BinOp):
    def precedence(self) -> int:
        return _PREC_ADD


@dataclass(frozen=True)
class Mul(BinOp):
    def precedence(self) -> int:
        return _PREC_MUL


@dataclass(frozen=True)
class Div(BinOp):
    def precedence(self) -> int:
        return _PREC_MUL


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def precedence(self) -> int:
        return _PREC_POW


@dataclass(frozen=True)
class Call(Expr):
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


class _Parser:
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

    def fail(self, message: str) -> ParseError:
        _, _, line, col = self.peek()
        return ParseError(message, line, col)

    def parse(self) -> Expr:
        e = self.expr()
        kind, value, line, col = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {value!r}", line, col)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            kind, value, line, col = self.peek()
            neg = False
            if value == "-":
                self.advance()
                neg = True
                kind, value, line, col = self.peek()
            if kind != "num" or any(c in value for c in ".eE"):
                raise ParseError("exponent must be an integer literal", line, col)
            self.advance()
            k = int(value)
            return Pow(base, -k if neg else k)
        return base

    def atom(self) -> Expr:
        kind, value, line, col = self.peek()
        if value == "-":
            self.advance()
            return Neg(self.atom())
        if value == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "name":
            return self.name_atom()
        raise ParseError(f"expected an operand, found {value or 'end of input'!r}", line, col)

    def name_atom(self) -> Expr:
        kind, value, line, col = self.advance()
        mo = re.fullmatch(r"([A-Za-z]+)(\d*)", value)
        word, digits = mo.group(1), mo.group(2)
        if word == "x" and digits:
            idx = int(digits)
            if not 1 <= idx <= self.n:
                raise SignatureError(
                    f"space variable x{idx} out of range for n={self.n}", line, col
                )
            return SpaceVar(idx)
        if word == "u" and not digits:
            return self.jet_atom(line, col)
        if value in FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(value, arg)
        raise ParseError(f"unknown name {value!r}", line, col)

    def jet_atom(self, line: int, col: int) -> Expr:
        self.expect("[")
        comp = self.int_token("component index")
        self.expect(",")
        self.expect("(")
        alpha = [self.int_token("multi-index entry")]
        while self.peek()[1] == ",":
            self.advance()
            alpha.append(self.int_token("multi-index entry"))
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
        if any(e < 0 for e in a):
            raise SignatureError(f"multi-index {a} has a negative entry", line, col)
        if sum(a) > self.m:
            raise SignatureError(f"multi-index {a} exceeds order m={self.m}", line, col)
        return JetVar(comp, a)

    def int_token(self, what: str) -> int:
        kind, value, line, col = self.peek()
        if kind != "num" or any(c in value for c in ".eE"):
            raise ParseError(f"expected {what} (integer), found {value!r}", line, col)
        self.advance()
        return int(value)


def parse(text: str, signature: tuple[int, int, int]) -> Expr:
    """Parse expression text against a system signature (n, K, m)."""
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
# point evaluation

_SCALAR_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "abs": abs,
}


def eval_point(
    e: Expr,
    x: Sequence[float],
    jets: Mapping[tuple[int, tuple[int, ...]], float] | None = None,
) -> float:
    """Evaluate at a space point with jet values supplied by a mapping.

    Domain violations (log/sqrt outside domain, division by zero, zero to
    a negative power) and node values that are not finite, overflow
    included, raise EvalDomainError; the result is always finite.
    """
    try:
        return _eval_point(e, x, jets)
    except OverflowError as err:  # math.exp and float.__pow__ raise it
        raise EvalDomainError(f"overflow in {render(e)!r}") from err


def _eval_point(e: Expr, x, jets) -> float:
    val = _point_node(e, x, jets)
    if not math.isfinite(val):
        raise EvalDomainError(f"non-finite value of {render(e)!r}")
    return val


def _point_node(e: Expr, x, jets) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, SpaceVar):
        return float(x[e.index - 1])
    if isinstance(e, JetVar):
        if jets is None:
            raise EvalDomainError(f"no jet values supplied for {render(e)!r}")
        return float(jets[(e.component, e.alpha)])
    if isinstance(e, Neg):
        return -_eval_point(e.operand, x, jets)
    if isinstance(e, Add):
        return _eval_point(e.left, x, jets) + _eval_point(e.right, x, jets)
    if isinstance(e, Sub):
        return _eval_point(e.left, x, jets) - _eval_point(e.right, x, jets)
    if isinstance(e, Mul):
        return _eval_point(e.left, x, jets) * _eval_point(e.right, x, jets)
    if isinstance(e, Div):
        denom = _eval_point(e.right, x, jets)
        if denom == 0.0:
            raise EvalDomainError(f"division by zero in {render(e)!r}")
        return _eval_point(e.left, x, jets) / denom
    if isinstance(e, Pow):
        base = _eval_point(e.base, x, jets)
        if e.exponent < 0 and base == 0.0:
            raise EvalDomainError(f"zero base with negative exponent in {render(e)!r}")
        return float(base**e.exponent)
    if isinstance(e, Call):
        arg = _eval_point(e.arg, x, jets)
        if e.func == "log":
            if arg <= 0.0:
                raise EvalDomainError(f"log of non-positive value {arg!r}")
            return math.log(arg)
        if e.func == "sqrt":
            if arg < 0.0:
                raise EvalDomainError(f"sqrt of negative value {arg!r}")
            return math.sqrt(arg)
        return _SCALAR_FUNCS[e.func](arg)
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# elementwise evaluation over numpy arrays


def eval_on_arrays(
    e: Expr,
    x: Sequence[np.ndarray],
    jets: Mapping[tuple[int, tuple[int, ...]], np.ndarray] | None = None,
) -> np.ndarray:
    """Elementwise eval_point over broadcastable coordinate/jet arrays.

    Same fault rules as eval_point, checked over every element. The result
    always has the full broadcast shape of the inputs, even for constant
    expressions. If any element faults, the EvalDomainError raised carries
    the faulted mask and the values, so a sampling caller can drop the
    faulted elements instead of evaluating them one by one.
    """
    with np.errstate(all="ignore"):
        val, faulted = _eval_arrays(e, x, jets)
    shapes = [np.shape(c) for c in x]
    if jets is not None:
        shapes.extend(np.shape(v) for v in jets.values())
    shape = np.broadcast_shapes(*shapes) if shapes else ()
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


def _eval_arrays(e: Expr, x, jets):
    """Elementwise values of e and the mask of elements that fault.

    An element faults exactly where eval_point raises EvalDomainError: some
    node of its evaluation is outside a function domain or not finite. The
    values of faulted elements are meaningless.
    """
    val, faulted = _array_node(e, x, jets)
    nonfinite = ~np.isfinite(val)
    return val, nonfinite if faulted is False else faulted | nonfinite


def _array_node(e: Expr, x, jets):
    # A non-finite value reaches the root unless an operand absorbs it:
    # t / inf = 0, inf^k = 1 or 0 for k <= 0 (nan^0 too), exp(-inf) = 0.
    # Only those operands go through _eval_arrays, which checks them; any
    # other non-finite node shows in the root check.
    if isinstance(e, Num):
        return e.value, False
    if isinstance(e, SpaceVar):
        return np.asarray(x[e.index - 1], dtype=float), False
    if isinstance(e, JetVar):
        if jets is None:
            raise EvalDomainError(f"no jet values supplied for {render(e)!r}")
        return np.asarray(jets[(e.component, e.alpha)], dtype=float), False
    if isinstance(e, Neg):
        val, faulted = _array_node(e.operand, x, jets)
        return -val, faulted
    if isinstance(e, Div):
        left, left_faulted = _array_node(e.left, x, jets)
        right, right_faulted = _eval_arrays(e.right, x, jets)
        right = np.asarray(right)  # numpy division: no ZeroDivisionError
        return left / right, left_faulted | right_faulted | (right == 0.0)
    if isinstance(e, BinOp):
        left, left_faulted = _array_node(e.left, x, jets)
        right, right_faulted = _array_node(e.right, x, jets)
        faulted = left_faulted | right_faulted
        if isinstance(e, Add):
            return left + right, faulted
        if isinstance(e, Sub):
            return left - right, faulted
        if isinstance(e, Mul):
            return left * right, faulted
    if isinstance(e, Pow):
        if e.exponent > 0:
            base, faulted = _array_node(e.base, x, jets)
        else:
            base, faulted = _eval_arrays(e.base, x, jets)
        base = np.asarray(base)  # numpy power: no OverflowError
        if e.exponent < 0:
            faulted = faulted | (base == 0.0)
        return base**e.exponent, faulted
    if isinstance(e, Call):
        if e.func == "exp":
            arg, faulted = _eval_arrays(e.arg, x, jets)
            return np.exp(arg), faulted
        arg, faulted = _array_node(e.arg, x, jets)
        if e.func == "log":
            return np.log(arg), faulted | (arg <= 0.0)
        if e.func == "sqrt":
            return np.sqrt(arg), faulted | (arg < 0.0)
        if e.func == "abs":
            return np.abs(arg), faulted
        return getattr(np, e.func)(arg), faulted
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# interval evaluation (natural extension, outward rounded)

_INTERVAL_FUNCS = {
    "sin": sin_interval,
    "cos": cos_interval,
    "exp": exp_interval,
    "log": log_interval,
    "abs": abs_interval,
    "sqrt": sqrt_interval,
}


def eval_interval(
    e: Expr,
    x: Sequence[Interval],
    jets: Mapping[tuple[int, tuple[int, ...]], Interval] | None = None,
) -> Interval:
    """Natural interval extension of e over box operands.

    The result encloses {eval_point(e, p, q) : p in x, q in jets}; it is
    never an under-approximation. Operands wholly outside a function domain
    raise EvalDomainError, same as the point evaluators.
    """
    try:
        return _eval_interval(e, x, jets)
    except IntervalDomainError as err:
        raise EvalDomainError(str(err)) from err


def _eval_interval(e: Expr, x, jets) -> Interval:
    if isinstance(e, Num):
        return Interval.point(e.value)
    if isinstance(e, SpaceVar):
        return x[e.index - 1]
    if isinstance(e, JetVar):
        if jets is None:
            raise EvalDomainError(f"no jet intervals supplied for {render(e)!r}")
        return jets[(e.component, e.alpha)]
    if isinstance(e, Neg):
        return -_eval_interval(e.operand, x, jets)
    if isinstance(e, Add):
        return _eval_interval(e.left, x, jets) + _eval_interval(e.right, x, jets)
    if isinstance(e, Sub):
        return _eval_interval(e.left, x, jets) - _eval_interval(e.right, x, jets)
    if isinstance(e, Mul):
        return _eval_interval(e.left, x, jets) * _eval_interval(e.right, x, jets)
    if isinstance(e, Div):
        return _eval_interval(e.left, x, jets) / _eval_interval(e.right, x, jets)
    if isinstance(e, Pow):
        return _eval_interval(e.base, x, jets).pow_int(e.exponent)
    if isinstance(e, Call):
        return _INTERVAL_FUNCS[e.func](_eval_interval(e.arg, x, jets))
    raise TypeError(f"unknown node {type(e).__name__}")


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

    Space variables are treated as constants. abs has no derivative
    expression here and raises NondifferentiableError when its argument
    depends on the variable.
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
        raise NondifferentiableError(
            f"{e.func} has no derivative expression; use a derivative-free solve"
        )
    raise TypeError(f"unknown node {type(e).__name__}")
