"""Expression AST and a small text format for ODE systems.

The expression language is deliberately tiny: constants, state variables,
the time variable ``t``, unary negation, the binary operators ``+ - * / ^``
(``^`` only with a nonnegative integer literal exponent), binary ``min`` /
``max``, and the unary functions ``exp``, ``sin``, ``cos``.  Everything a
vector field built from these can do — symbolic differentiation, branch-aware
Jacobians for the piecewise-smooth ``min``/``max`` constructs, vectorized
evaluation over sample batches — lives in this module.

A system is declared in a block like::

    system ex1 {
      states x1 in [0, inf), x2 in [0, inf)
      dx1 = -x1 + x2^2
      dx2 = -x2
      equilibrium (0, 0)
    }

State domains are rectangles (an interval per coordinate, possibly
unbounded).  ``equilibrium`` and ``period`` are optional; a declared
equilibrium of a time-invariant system is checked to be an actual zero of
the vector field, and a declared period requires the vector field to
reference ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "TimeVar", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Min", "Max", "Exp", "Sin", "Cos",
    "Interval", "SystemDef", "ExprMatrix", "Guard", "JacobianBranches",
    "DslError", "BranchRequiredError",
    "parse_system", "parse_expr", "differentiate", "jacobian", "evaluate",
    "antiderivative_univariate", "simplify", "pretty", "compile_expr",
    "free_vars", "references_time",
]

TIE_TOL = 1e-9  # relative tie tolerance for min/max branch guards


class DslError(ValueError):
    """Parse or validation error, carrying source position when known."""

    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class BranchRequiredError(ValueError):
    """Raised when differentiating through min/max without choosing a branch."""


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    """Base class for expression nodes.  All nodes are immutable/hashable."""

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __pow__(self, n):
        return Pow(self, int(n))

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return pretty(self)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var(Expr):
    """State variable, identified by its index in the system's state order."""
    index: int


@dataclass(frozen=True)
class TimeVar(Expr):
    """The time variable ``t``."""


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise DslError("power exponent must be a nonnegative integer, "
                           f"got {self.exponent!r}")


@dataclass(frozen=True)
class Min(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Max(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


_BINOPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_FUNCS = {Exp: "exp", Sin: "sin", Cos: "cos", Min: "min", Max: "max"}


def _children(e: Expr) -> tuple:
    if isinstance(e, (Const, Var, TimeVar)):
        return ()
    if isinstance(e, (Neg, Exp, Sin, Cos)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return (e.a, e.b)


def free_vars(e: Expr) -> set:
    """Indices of state variables appearing in ``e``."""
    out: set = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.index)
        else:
            stack.extend(_children(node))
    return out


def references_time(e: Expr) -> bool:
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, TimeVar):
            return True
        stack.extend(_children(node))
    return False


# ---------------------------------------------------------------------------
# Pretty printing (inverse of the parser)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Const) and e.value < 0:
        # prints with a leading minus, so textually it binds like unary minus
        # (otherwise "-2^2" would re-parse as -(2^2))
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def format_number(v: float) -> str:
    if v != v or v in (math.inf, -math.inf):
        raise ValueError(f"cannot print non-finite constant {v}")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty(e: Expr, names: Optional[Sequence[str]] = None) -> str:
    """Render ``e`` as text the parser accepts back into an equal tree.

    ``names`` supplies state-variable names; defaults to x1, x2, ...
    """

    def name(i: int) -> str:
        if names is not None:
            return names[i]
        return f"x{i + 1}"

    def wrap(child: Expr, minimum: int) -> str:
        s = go(child)
        return f"({s})" if _prec(child) < minimum else s

    def go(node: Expr) -> str:
        if isinstance(node, Const):
            return format_number(node.value)
        if isinstance(node, Var):
            return name(node.index)
        if isinstance(node, TimeVar):
            return "t"
        if isinstance(node, Neg):
            return "-" + wrap(node.arg, _PREC_NEG)
        if isinstance(node, (Add, Sub)):
            op = _BINOPS[type(node)]
            # the right operand of +/- must bind tighter than +/- itself,
            # otherwise "a + b - c" would re-associate on re-parse
            return f"{wrap(node.a, _PREC_ADD)} {op} {wrap(node.b, _PREC_ADD + 1)}"
        if isinstance(node, (Mul, Div)):
            op = _BINOPS[type(node)]
            return f"{wrap(node.a, _PREC_MUL)} {op} {wrap(node.b, _PREC_MUL + 1)}"
        if isinstance(node, Pow):
            return f"{wrap(node.base, _PREC_ATOM)}^{node.exponent}"
        if isinstance(node, (Exp, Sin, Cos)):
            return f"{_FUNCS[type(node)]}({go(node.arg)})"
        if isinstance(node, (Min, Max)):
            return f"{_FUNCS[type(node)]}({go(node.a)}, {go(node.b)})"
        raise TypeError(f"unknown node {node!r}")

    return go(e)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, x: Sequence[float], t: Optional[float] = None) -> float:
    """Evaluate at a single point.  min/max take the exact smaller/larger arg."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index])
    if isinstance(e, TimeVar):
        if t is None:
            raise ValueError("expression references t but no time was given")
        return float(t)
    if isinstance(e, Neg):
        return -evaluate(e.arg, x, t)
    if isinstance(e, Add):
        return evaluate(e.a, x, t) + evaluate(e.b, x, t)
    if isinstance(e, Sub):
        return evaluate(e.a, x, t) - evaluate(e.b, x, t)
    if isinstance(e, Mul):
        return evaluate(e.a, x, t) * evaluate(e.b, x, t)
    if isinstance(e, Div):
        return evaluate(e.a, x, t) / evaluate(e.b, x, t)
    if isinstance(e, Pow):
        return evaluate(e.base, x, t) ** e.exponent
    if isinstance(e, Min):
        return min(evaluate(e.a, x, t), evaluate(e.b, x, t))
    if isinstance(e, Max):
        return max(evaluate(e.a, x, t), evaluate(e.b, x, t))
    if isinstance(e, Exp):
        return math.exp(evaluate(e.arg, x, t))
    if isinstance(e, Sin):
        return math.sin(evaluate(e.arg, x, t))
    if isinstance(e, Cos):
        return math.cos(evaluate(e.arg, x, t))
    raise TypeError(f"unknown node {e!r}")


def _emit(node: Expr) -> str:
    """numpy source for ``node`` over rows ``X`` (m, n) and time ``T``."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"X[:, {node.index}]"
    if isinstance(node, TimeVar):
        return "T"
    if isinstance(node, Neg):
        return f"(-{_emit(node.arg)})"
    if isinstance(node, Add):
        return f"({_emit(node.a)} + {_emit(node.b)})"
    if isinstance(node, Sub):
        return f"({_emit(node.a)} - {_emit(node.b)})"
    if isinstance(node, Mul):
        return f"({_emit(node.a)} * {_emit(node.b)})"
    if isinstance(node, Div):
        return f"({_emit(node.a)} / {_emit(node.b)})"
    if isinstance(node, Pow):
        return f"({_emit(node.base)} ** {node.exponent})"
    if isinstance(node, Min):
        return f"np.minimum({_emit(node.a)}, {_emit(node.b)})"
    if isinstance(node, Max):
        return f"np.maximum({_emit(node.a)}, {_emit(node.b)})"
    if isinstance(node, Exp):
        return f"np.exp({_emit(node.arg)})"
    if isinstance(node, Sin):
        return f"np.sin({_emit(node.arg)})"
    if isinstance(node, Cos):
        return f"np.cos({_emit(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


_compiled_cache: dict = {}


def compile_expr(e: Expr) -> Callable[[np.ndarray, Union[float, np.ndarray, None]], np.ndarray]:
    """Compile ``e`` to a vectorized function ``f(X, t) -> (m,) array``.

    ``X`` has shape (m, n); ``t`` is a scalar or an (m,) array (may be None
    for time-invariant expressions).  Tree-walking per point is far too slow
    on 41^n certification grids, so the tree is emitted once as numpy code.
    """
    # keyed by the emitted source, not by e: Const(0.0) and Const(-0.0)
    # compare and hash equal but return zeros of opposite sign, so keying
    # on e makes the sign depend on which of them was compiled first
    body = _emit(e)
    fn = _compiled_cache.get(body)
    if fn is not None:
        return fn

    needs_t = references_time(e)
    src = (
        "def _f(X, T=None):\n"
        f"    res = {body}\n"
        "    res = np.asarray(res, dtype=float)\n"
        "    if res.ndim == 0:\n"
        "        res = np.full(X.shape[0], float(res))\n"
        "    elif res.shape != (X.shape[0],):\n"
        "        res = np.broadcast_to(res, (X.shape[0],)).astype(float)\n"
        "    return res\n"
    )
    ns: dict = {"np": np}
    exec(src, ns)
    raw = ns["_f"]

    if needs_t:
        def fn(X, T=None):
            if T is None:
                raise ValueError("expression references t but no time was given")
            return raw(np.asarray(X, dtype=float), T)
    else:
        def fn(X, T=None):
            return raw(np.asarray(X, dtype=float), T)

    _compiled_cache[body] = fn
    return fn


def _compile_kernel(lines: Sequence[tuple], shape: tuple) -> Callable:
    """One generated kernel ``f(X, T) -> (m, *shape)``.

    ``lines`` holds (index, expression) pairs; each becomes the statement
    ``out[:, index] = <expression>``, so a whole vector field or matrix
    costs one Python call instead of one per entry.
    """
    src = ["def _f(X, T=None):"]
    if any(references_time(e) for _, e in lines):
        src += ["    if T is None:",
                "        raise ValueError('expression references t but no "
                "time was given')"]
    src += ["    X = np.asarray(X, dtype=float)",
            f"    out = np.empty((X.shape[0], {', '.join(map(str, shape))}))"]
    src += [f"    out[:, {', '.join(map(str, idx))}] = {_emit(e)}"
            for idx, e in lines]
    src.append("    return out")
    ns: dict = {"np": np}
    exec("\n".join(src) + "\n", ns)
    return ns["_f"]


# ---------------------------------------------------------------------------
# Differentiation and simplification
# ---------------------------------------------------------------------------

_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e: Expr, v: Optional[float] = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Neg(a)


def _pow(base: Expr, n: int) -> Expr:
    if n == 0:
        return _ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** n)
    return Pow(base, n)


def differentiate(e: Expr, var_index: int) -> Expr:
    """Symbolic partial derivative with respect to state ``var_index``.

    ``min``/``max`` nodes have no single derivative; differentiating through
    one raises :class:`BranchRequiredError` — use :func:`jacobian`, which
    enumerates the branch patterns, when the expression is piecewise.
    """
    if isinstance(e, (Min, Max)):
        raise BranchRequiredError(
            "cannot differentiate through min/max without selecting a branch")
    if isinstance(e, Const) or isinstance(e, TimeVar):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == var_index else _ZERO
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg, var_index))
    if isinstance(e, Add):
        return _add(differentiate(e.a, var_index), differentiate(e.b, var_index))
    if isinstance(e, Sub):
        return _sub(differentiate(e.a, var_index), differentiate(e.b, var_index))
    if isinstance(e, Mul):
        da = differentiate(e.a, var_index)
        db = differentiate(e.b, var_index)
        return _add(_mul(da, e.b), _mul(e.a, db))
    if isinstance(e, Div):
        da = differentiate(e.a, var_index)
        db = differentiate(e.b, var_index)
        num = _sub(_mul(da, e.b), _mul(e.a, db))
        return Div(num, _pow(e.b, 2)) if not _is_const(num, 0.0) else _ZERO
    if isinstance(e, Pow):
        if e.exponent == 0:
            return _ZERO
        d = differentiate(e.base, var_index)
        return _mul(_mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), d)
    if isinstance(e, Exp):
        return _mul(Exp(e.arg), differentiate(e.arg, var_index))
    if isinstance(e, Sin):
        return _mul(Cos(e.arg), differentiate(e.arg, var_index))
    if isinstance(e, Cos):
        return _neg(_mul(Sin(e.arg), differentiate(e.arg, var_index)))
    raise TypeError(f"unknown node {e!r}")


def simplify(e: Expr) -> Expr:
    """Constant folding only — never rewrites variables, domains or branches."""
    kids = _children(e)
    if not kids:
        return e
    if isinstance(e, Neg):
        a = simplify(e.arg)
        return Const(-a.value) if isinstance(a, Const) else Neg(a)
    if isinstance(e, Pow):
        b = simplify(e.base)
        return Const(b.value ** e.exponent) if isinstance(b, Const) else Pow(b, e.exponent)
    if isinstance(e, (Exp, Sin, Cos)):
        a = simplify(e.arg)
        if isinstance(a, Const):
            f = {Exp: math.exp, Sin: math.sin, Cos: math.cos}[type(e)]
            return Const(f(a.value))
        return type(e)(a)
    a = simplify(e.a)
    b = simplify(e.b)
    if isinstance(a, Const) and isinstance(b, Const):
        if isinstance(e, Add):
            return Const(a.value + b.value)
        if isinstance(e, Sub):
            return Const(a.value - b.value)
        if isinstance(e, Mul):
            return Const(a.value * b.value)
        if isinstance(e, Div):
            if b.value != 0.0:
                return Const(a.value / b.value)
            return Div(a, b)  # leave division by zero visible
        if isinstance(e, Min):
            return Const(min(a.value, b.value))
        if isinstance(e, Max):
            return Const(max(a.value, b.value))
    return type(e)(a, b)


def antiderivative_univariate(e: Expr, var_index: Optional[int] = None) -> Expr:
    """Antiderivative of a univariate polynomial expression, constant term 0.

    The expression must be a polynomial in a single state variable (built
    from constants, that variable, ``+ - * ^`` and negation).  Anything else
    raises :class:`DslError`.
    """
    vs = free_vars(e)
    if references_time(e):
        raise DslError("antiderivative requires a time-invariant expression")
    if len(vs) > 1:
        raise DslError(f"expression involves several variables: {sorted(vs)}")
    if var_index is None:
        if not vs:
            raise DslError("constant expression: pass var_index explicitly")
        var_index = vs.pop()

    coeffs = _poly_coeffs(e, var_index)
    out: Expr = _ZERO
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        term = _mul(Const(c / (k + 1)), _pow(Var(var_index), k + 1))
        out = _add(out, term)
    return out


def _poly_coeffs(e: Expr, var_index: int) -> list:
    """Coefficients (ascending) of a polynomial expression in one variable."""
    if isinstance(e, Const):
        return [e.value]
    if isinstance(e, Var):
        if e.index != var_index:
            raise DslError(f"unexpected variable x{e.index + 1}")
        return [0.0, 1.0]
    if isinstance(e, Neg):
        return [-c for c in _poly_coeffs(e.arg, var_index)]
    if isinstance(e, Add) or isinstance(e, Sub):
        ca = _poly_coeffs(e.a, var_index)
        cb = _poly_coeffs(e.b, var_index)
        sign = 1.0 if isinstance(e, Add) else -1.0
        out = [0.0] * max(len(ca), len(cb))
        for i, c in enumerate(ca):
            out[i] += c
        for i, c in enumerate(cb):
            out[i] += sign * c
        return out
    if isinstance(e, Mul):
        ca = _poly_coeffs(e.a, var_index)
        cb = _poly_coeffs(e.b, var_index)
        out = [0.0] * (len(ca) + len(cb) - 1)
        for i, a in enumerate(ca):
            for j, b in enumerate(cb):
                out[i + j] += a * b
        return out
    if isinstance(e, Pow):
        base = _poly_coeffs(e.base, var_index)
        out = [1.0]
        for _ in range(e.exponent):
            nxt = [0.0] * (len(out) + len(base) - 1)
            for i, a in enumerate(out):
                for j, b in enumerate(base):
                    nxt[i + j] += a * b
            out = nxt
        return out
    raise DslError(f"not a polynomial expression: {pretty(e)}")


# ---------------------------------------------------------------------------
# Branch-aware Jacobians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Guard:
    """One distinct min/max argument pair; ``left`` active means a, else b.

    For ``min(a, b)`` the left branch is active when a − b ≤ 0; for
    ``max(a, b)`` when a − b ≥ 0.  Structurally identical (a, b, kind)
    triples anywhere in the system share a single guard.
    """
    a: Expr
    b: Expr
    is_min: bool

    @property
    def diff(self) -> Expr:
        return Sub(self.a, self.b)


def _collect_guards(e: Expr, acc: list) -> None:
    if isinstance(e, (Min, Max)):
        g = Guard(e.a, e.b, isinstance(e, Min))
        if g not in acc:
            acc.append(g)
    for c in _children(e):
        _collect_guards(c, acc)


def _substitute_branches(e: Expr, choice: dict) -> Expr:
    """Replace each min/max node by its chosen argument ('left' or 'right')."""
    if isinstance(e, (Min, Max)):
        g = Guard(e.a, e.b, isinstance(e, Min))
        picked = e.a if choice[g] == "left" else e.b
        return _substitute_branches(picked, choice)
    if isinstance(e, (Const, Var, TimeVar)):
        return e
    if isinstance(e, Neg):
        return Neg(_substitute_branches(e.arg, choice))
    if isinstance(e, (Exp, Sin, Cos)):
        return type(e)(_substitute_branches(e.arg, choice))
    if isinstance(e, Pow):
        return Pow(_substitute_branches(e.base, choice), e.exponent)
    return type(e)(_substitute_branches(e.a, choice),
                   _substitute_branches(e.b, choice))


@dataclass(frozen=True)
class ExprMatrix:
    """A dense matrix of expressions (one smooth branch of a Jacobian)."""
    entries: tuple  # tuple of tuples of Expr
    # the generated kernel of this instance; never shared through a dict
    # keyed on the entries, which would conflate Const(0.0) and Const(-0.0)
    _kernel: Optional[Callable] = field(default=None, init=False, repr=False,
                                        compare=False)

    @property
    def shape(self) -> tuple:
        return (len(self.entries), len(self.entries[0]) if self.entries else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def evaluate(self, x: Sequence[float], t: Optional[float] = None) -> np.ndarray:
        m, n = self.shape
        out = np.empty((m, n))
        for i in range(m):
            for j in range(n):
                out[i, j] = evaluate(self.entries[i][j], x, t)
        return out

    def evaluate_batch(self, X: np.ndarray, t=None) -> np.ndarray:
        """Evaluate on an (m, n_states) batch -> (m, rows, cols) array."""
        if self._kernel is None:
            object.__setattr__(self, "_kernel", _compile_kernel(
                [((i, j), e) for i, row in enumerate(self.entries)
                 for j, e in enumerate(row)], self.shape))
        return self._kernel(X, t)


class JacobianBranches:
    """The Jacobian of a piecewise-smooth vector field, one matrix per branch.

    A branch is an assignment of 'left'/'right' to every distinct guard; the
    guard predicates say where in state space that branch is the active one.
    Branches are enumerated lazily — systems with many structurally distinct
    min/max pairs would otherwise blow up combinatorially.
    """

    def __init__(self, sys: "SystemDef"):
        self.sys = sys
        guards: list = []
        for f in sys.odes:
            _collect_guards(f, guards)
        self.guards: tuple = tuple(guards)
        self._matrix_cache: dict = {}
        self._guard_fns = None

    @property
    def n_guards(self) -> int:
        return len(self.guards)

    def branch_matrix(self, pattern: tuple) -> ExprMatrix:
        """Jacobian of the smooth selection given by ``pattern``.

        ``pattern`` maps guard k to 'left' or 'right', in guard order.
        """
        if pattern in self._matrix_cache:
            return self._matrix_cache[pattern]
        choice = dict(zip(self.guards, pattern))
        n = self.sys.n
        rows = []
        for f in self.sys.odes:
            smooth = _substitute_branches(f, choice)
            rows.append(tuple(differentiate(smooth, j) for j in range(n)))
        mat = ExprMatrix(tuple(rows))
        self._matrix_cache[pattern] = mat
        return mat

    def branches(self) -> Iterator[tuple]:
        """Yield (pattern, ExprMatrix) lazily over all 2^k branch patterns."""
        k = len(self.guards)

        def rec(prefix: tuple):
            if len(prefix) == k:
                yield prefix, self.branch_matrix(prefix)
                return
            for side in ("left", "right"):
                yield from rec(prefix + (side,))

        yield from rec(())

    def guard_values(self, X: np.ndarray, t=None) -> tuple:
        """Per-guard (diff, scale) arrays on a batch: diff = a−b,
        scale = 1 + |a| + |b| (for the relative tie tolerance)."""
        X = np.asarray(X, dtype=float)
        if self._guard_fns is None:
            self._guard_fns = [(compile_expr(g.a), compile_expr(g.b))
                               for g in self.guards]
        diffs = np.empty((X.shape[0], len(self.guards)))
        scales = np.empty_like(diffs)
        for k, (fa, fb) in enumerate(self._guard_fns):
            a = fa(X, t)
            b = fb(X, t)
            diffs[:, k] = a - b
            scales[:, k] = 1.0 + np.abs(a) + np.abs(b)
        return diffs, scales

    def patterns_at(self, x: Sequence[float], t: Optional[float] = None,
                    tie_tol: float = TIE_TOL) -> list:
        """Active branch patterns at one point; several when guards tie.

        A guard ties when |a−b| ≤ tie_tol·(1+|a|+|b|); every pattern
        consistent with the tie set is returned (conservative callers must
        verify all of them).
        """
        options = []
        for g in self.guards:
            a = evaluate(g.a, x, t)
            b = evaluate(g.b, x, t)
            if abs(a - b) <= tie_tol * (1.0 + abs(a) + abs(b)):
                options.append(("left", "right"))
            else:
                take_left = (a < b) if g.is_min else (a > b)
                options.append(("left",) if take_left else ("right",))
        patterns = [()]
        for opt in options:
            patterns = [p + (s,) for p in patterns for s in opt]
        return patterns

    def matrices_at(self, x: Sequence[float], t: Optional[float] = None,
                    tie_tol: float = TIE_TOL) -> list:
        """All (pattern, numeric Jacobian) pairs active at ``x``."""
        return [(p, self.branch_matrix(p).evaluate(x, t))
                for p in self.patterns_at(x, t, tie_tol)]


def jacobian(sys: "SystemDef") -> JacobianBranches:
    """Branch-set Jacobian of a system (a single branch when f is smooth)."""
    return JacobianBranches(sys)


# ---------------------------------------------------------------------------
# System definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DslError(f"empty interval [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and self.lo_closed:
            raise DslError("-inf endpoint must be open")
        if math.isinf(self.hi) and self.hi_closed:
            raise DslError("inf endpoint must be open")

    def contains(self, v: float, tol: float = 0.0) -> bool:
        lo_ok = v >= self.lo - tol if self.lo_closed else v > self.lo - tol
        hi_ok = v <= self.hi + tol if self.hi_closed else v < self.hi + tol
        return lo_ok and hi_ok

    def __str__(self):
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        lo = "-inf" if math.isinf(self.lo) else format_number(self.lo)
        hi = "inf" if math.isinf(self.hi) else format_number(self.hi)
        return f"{lb}{lo}, {hi}{rb}"


@dataclass
class SystemDef:
    """A parsed ODE system on a rectangular domain."""
    name: str
    state_names: tuple
    bounds: tuple  # of Interval
    odes: tuple    # of Expr
    equilibrium: Optional[tuple] = None
    period: Optional[float] = None
    _f_batch: Optional[Callable] = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def time_varying(self) -> bool:
        return any(references_time(f) for f in self.odes)

    def f(self, x: Sequence[float], t: Optional[float] = None) -> np.ndarray:
        return np.array([evaluate(fi, x, t) for fi in self.odes])

    def f_batch(self, X: np.ndarray, t=None) -> np.ndarray:
        """Vectorized vector field: (m, n) -> (m, n)."""
        if self._f_batch is None:
            self._f_batch = _compile_kernel(
                [((i,), fi) for i, fi in enumerate(self.odes)], (self.n,))
        return self._f_batch(X, t)

    def contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        return all(b.contains(float(v), tol) for b, v in zip(self.bounds, x))

    def domain_violation(self, x: Sequence[float]) -> float:
        """How far outside the (closure of the) domain ``x`` is, in sup norm."""
        worst = 0.0
        for b, v in zip(self.bounds, x):
            if v < b.lo:
                worst = max(worst, b.lo - float(v))
            if v > b.hi:
                worst = max(worst, float(v) - b.hi)
        return worst

    def validate(self) -> None:
        n = self.n
        if len(self.bounds) != n or len(self.odes) != n:
            raise DslError("states, bounds and equations must align")
        for i, f in enumerate(self.odes):
            bad = [v for v in free_vars(f) if v >= n]
            if bad:
                raise DslError(f"equation for d{self.state_names[i]} references "
                               f"undeclared state index {bad[0]}")
        if self.equilibrium is not None:
            if len(self.equilibrium) != n:
                raise DslError("equilibrium dimension mismatch")
            for name, b, v in zip(self.state_names, self.bounds, self.equilibrium):
                if not b.contains(v):
                    raise DslError(f"equilibrium coordinate {name} = "
                                   f"{format_number(v)} is outside {b}")
            if not self.time_varying:
                resid = float(np.max(np.abs(self.f(self.equilibrium))))
                if resid >= 1e-9:
                    raise DslError(
                        "declared equilibrium is not a zero of the vector "
                        f"field: |f(x*)|_inf = {resid:.3e} >= 1e-9")
        if self.period is not None:
            if not self.period > 0:
                raise DslError("period must be positive")
            if not self.time_varying:
                raise DslError("a period was declared but the vector field "
                               "never references t")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT = set("(){}[],=^+-*/")


@dataclass
class _Tok:
    kind: str  # NUM, IDENT, PUNCT, NEWLINE, EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    toks: list = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            toks.append(_Tok("NEWLINE", "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            start_col = col
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
                col += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    while j < n and text[j].isdigit():
                        j += 1
                    col += j - i
                    i = j
            toks.append(_Tok("NUM", text[start:i], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            toks.append(_Tok("IDENT", text[start:i], line, start_col))
            continue
        if ch in _PUNCT:
            toks.append(_Tok("PUNCT", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_RESERVED = {"system", "states", "in", "equilibrium", "period", "inf",
             "min", "max", "exp", "sin", "cos", "t"}


class _Parser:
    def __init__(self, toks: list, state_names: Optional[Sequence[str]] = None):
        self.toks = toks
        self.pos = 0
        self.state_index = ({name: i for i, name in enumerate(state_names)}
                            if state_names is not None else {})

    # -- token plumbing ----------------------------------------------------
    def peek(self, skip_newlines: bool = False) -> _Tok:
        p = self.pos
        if skip_newlines:
            while self.toks[p].kind == "NEWLINE":
                p += 1
        return self.toks[p]

    def next(self, skip_newlines: bool = False) -> _Tok:
        if skip_newlines:
            while self.toks[self.pos].kind == "NEWLINE":
                self.pos += 1
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None,
               skip_newlines: bool = False) -> _Tok:
        tok = self.next(skip_newlines)
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.text else tok.kind
            raise DslError(f"expected {want!r}, got {got!r}", tok.line, tok.col)
        return tok

    def err(self, msg: str) -> DslError:
        tok = self.peek()
        return DslError(msg, tok.line, tok.col)

    # -- numbers -----------------------------------------------------------
    def signed_number(self) -> float:
        tok = self.peek(skip_newlines=True)
        sign = 1.0
        if tok.kind == "PUNCT" and tok.text == "-":
            self.next(skip_newlines=True)
            sign = -1.0
        tok = self.expect("NUM", skip_newlines=True)
        return sign * float(tok.text)

    # -- expressions -------------------------------------------------------
    def expr(self) -> Expr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "*/":
                self.next()
                rhs = self.factor()
                node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == "-":
            self.next()
            nxt = self.peek()
            # fold a negated literal into the constant unless it is the base
            # of a power (so "-2^2" keeps Python's reading, -(2^2))
            if nxt.kind == "NUM":
                after = self.toks[self.pos + 1]
                if not (after.kind == "PUNCT" and after.text == "^"):
                    self.next()
                    return Const(-float(nxt.text))
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == "^":
            self.next()
            etok = self.expect("NUM")
            if "." in etok.text or "e" in etok.text or "E" in etok.text:
                raise DslError("exponent must be a nonnegative integer",
                               etok.line, etok.col)
            return Pow(base, int(etok.text))
        return base

    def atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "NUM":
            return Const(float(tok.text))
        if tok.kind == "PUNCT" and tok.text == "(":
            node = self.expr()
            self.expect("PUNCT", ")")
            return node
        if tok.kind == "IDENT":
            name = tok.text
            if name == "t":
                return TimeVar()
            if name in ("min", "max"):
                self.expect("PUNCT", "(")
                a = self.expr()
                self.expect("PUNCT", ",")
                b = self.expr()
                self.expect("PUNCT", ")")
                return Min(a, b) if name == "min" else Max(a, b)
            if name in ("exp", "sin", "cos"):
                self.expect("PUNCT", "(")
                a = self.expr()
                self.expect("PUNCT", ")")
                return {"exp": Exp, "sin": Sin, "cos": Cos}[name](a)
            if name in self.state_index:
                return Var(self.state_index[name])
            raise DslError(f"unknown identifier {name!r}", tok.line, tok.col)
        got = tok.text if tok.text else tok.kind
        raise DslError(f"expected an expression, got {got!r}", tok.line, tok.col)

    # -- system blocks -----------------------------------------------------
    def interval(self) -> Interval:
        tok = self.next(skip_newlines=True)
        if tok.kind != "PUNCT" or tok.text not in "[(":
            raise DslError("expected '[' or '(' to open an interval",
                           tok.line, tok.col)
        lo_closed = tok.text == "["
        lo = self.endpoint(low=True)
        self.expect("PUNCT", ",")
        hi = self.endpoint(low=False)
        tok = self.next()
        if tok.kind != "PUNCT" or tok.text not in "])":
            raise DslError("expected ']' or ')' to close an interval",
                           tok.line, tok.col)
        hi_closed = tok.text == "]"
        try:
            return Interval(lo, hi, lo_closed, hi_closed)
        except DslError as exc:
            raise DslError(str(exc), tok.line, tok.col) from None

    def endpoint(self, low: bool) -> float:
        tok = self.peek(skip_newlines=True)
        if tok.kind == "IDENT" and tok.text == "inf":
            self.next(skip_newlines=True)
            return math.inf
        if tok.kind == "PUNCT" and tok.text == "-":
            nxt = self.toks[self.pos + 1]
            if nxt.kind == "IDENT" and nxt.text == "inf":
                self.next()
                self.next()
                return -math.inf
        return self.signed_number()

    def system(self) -> SystemDef:
        self.expect("IDENT", "system", skip_newlines=True)
        name_tok = self.expect("IDENT")
        self.expect("PUNCT", "{")

        # states line
        self.expect("IDENT", "states", skip_newlines=True)
        names: list = []
        bounds: list = []
        while True:
            tok = self.expect("IDENT")
            if tok.text in _RESERVED:
                raise DslError(f"{tok.text!r} is reserved and cannot name a "
                               "state", tok.line, tok.col)
            if tok.text in names:
                raise DslError(f"duplicate state {tok.text!r}", tok.line, tok.col)
            names.append(tok.text)
            self.expect("IDENT", "in")
            bounds.append(self.interval())
            nxt = self.peek()
            if nxt.kind == "PUNCT" and nxt.text == ",":
                self.next()
                continue
            break
        self.state_index = {nm: i for i, nm in enumerate(names)}

        odes: dict = {}
        equilibrium = None
        period = None
        while True:
            tok = self.peek(skip_newlines=True)
            if tok.kind == "PUNCT" and tok.text == "}":
                self.next(skip_newlines=True)
                break
            if tok.kind == "EOF":
                raise DslError("unterminated system block (missing '}')",
                               tok.line, tok.col)
            tok = self.next(skip_newlines=True)
            if tok.kind != "IDENT":
                raise DslError(f"unexpected {tok.text!r}", tok.line, tok.col)
            if tok.text == "equilibrium":
                if equilibrium is not None:
                    raise DslError("duplicate equilibrium", tok.line, tok.col)
                self.expect("PUNCT", "(")
                pts = [self.signed_number()]
                while self.peek().kind == "PUNCT" and self.peek().text == ",":
                    self.next()
                    pts.append(self.signed_number())
                self.expect("PUNCT", ")")
                equilibrium = tuple(pts)
                continue
            if tok.text == "period":
                if period is not None:
                    raise DslError("duplicate period", tok.line, tok.col)
                period = self.signed_number()
                continue
            if tok.text.startswith("d") and tok.text[1:] in self.state_index:
                state = tok.text[1:]
                if state in odes:
                    raise DslError(f"duplicate equation for d{state}",
                                   tok.line, tok.col)
                self.expect("PUNCT", "=")
                odes[state] = self.expr()
                nl = self.peek()
                if nl.kind not in ("NEWLINE", "EOF") and \
                        not (nl.kind == "PUNCT" and nl.text == "}"):
                    raise DslError(f"unexpected {nl.text!r} after equation",
                                   nl.line, nl.col)
                continue
            raise DslError(f"unexpected {tok.text!r} (expected an equation "
                           "like 'd<state> = ...', 'equilibrium' or 'period')",
                           tok.line, tok.col)

        missing = [nm for nm in names if nm not in odes]
        if missing:
            raise DslError(f"no equation for state {missing[0]!r}",
                           name_tok.line, name_tok.col)

        sysdef = SystemDef(
            name=name_tok.text,
            state_names=tuple(names),
            bounds=tuple(bounds),
            odes=tuple(odes[nm] for nm in names),
            equilibrium=equilibrium,
            period=period,
        )
        sysdef.validate()
        return sysdef


def parse_system(text: str) -> SystemDef:
    """Parse a ``system { ... }`` block; errors carry line/column info."""
    parser = _Parser(_tokenize(text))
    sysdef = parser.system()
    trailing = parser.peek(skip_newlines=True)
    if trailing.kind != "EOF":
        raise DslError(f"unexpected trailing {trailing.text!r}",
                       trailing.line, trailing.col)
    return sysdef


def parse_expr(text: str, state_names: Sequence[str]) -> Expr:
    """Parse a bare expression over the given state names."""
    parser = _Parser(_tokenize(text), state_names)
    node = parser.expr()
    trailing = parser.peek(skip_newlines=True)
    if trailing.kind != "EOF":
        raise DslError(f"unexpected trailing {trailing.text!r}",
                       trailing.line, trailing.col)
    return node
