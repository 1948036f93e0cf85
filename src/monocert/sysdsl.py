"""Expression AST and a small text format for ODE systems.

The expression language is deliberately tiny: constants, state variables,
the time variable ``t``, unary negation, the binary operators ``+ - * / ^``
(``^`` only with a nonnegative integer literal exponent), binary ``min`` /
``max``, ``abs`` (read as ``max(e, -e)``), and the unary functions ``exp``,
``sin``, ``cos``.  Everything a vector field built from these can do —
symbolic differentiation, branch-aware Jacobians for the piecewise-smooth
``min``/``max`` constructs, vectorized evaluation over sample batches —
lives in this module.

Every tree walk runs on one explicit-stack walker (``_fold``), so the depth
of an expression costs no Python recursion (``==`` and ``hash`` of a node
compare a flat key that walker builds), and every numeric evaluation
runs through kernels generated by one emitter (``_emit``): ``compile_expr``
for expressions, vector fields and matrices, and ``compile_step`` for RK4,
whose one kernel loops over up to K steps with the domain check inside and
whose other returns the full and two half steps of an error estimate.  In
every kernel, a constant next to a state-dependent operand, and the
exponent (other than 2) of a state-dependent power, is a 0-d float64 array
bound once in the kernel's namespace; subtrees of constants and ``t`` alone
keep Python floats.

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
from itertools import product
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "TimeVar", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Min", "Max", "Exp", "Sin", "Cos",
    "Interval", "SystemDef", "ExprMatrix", "Guard", "JacobianBranches",
    "DslError", "BranchRequiredError",
    "parse_system", "parse_expr", "differentiate", "jacobian", "pretty",
    "compile_expr", "compile_step", "format_number", "free_vars",
    "references_time",
]

TIE_TOL = 1e-9  # relative tie tolerance for min/max branch guards
# how far outside its domain an integrated state may lie before it fails
INVARIANCE_TOL = 1e-9


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

@dataclass(frozen=True, eq=False)
class Expr:
    """Base class for expression nodes.  All nodes are immutable/hashable.

    A node hashes and compares by a flat key (see ``_structure``) built once
    and kept on it, so a deep tree costs no recursion.  Equality is that of
    the trees' fields: ``Const(0.0) == Const(-0.0)``.
    """

    def _key(self) -> tuple:
        key = self.__dict__.get("_k")
        if key is None:
            key = _structure(self)
            object.__setattr__(self, "_k", key)
        return key

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True, eq=False)
class Var(Expr):
    """State variable, identified by its index in the system's state order."""
    index: int


@dataclass(frozen=True, eq=False)
class TimeVar(Expr):
    """The time variable ``t``."""


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise DslError("power exponent must be a nonnegative integer, "
                           f"got {self.exponent!r}")


@dataclass(frozen=True, eq=False)
class Min(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Max(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True, eq=False)
class Cos(Expr):
    arg: Expr


_BINOPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_FUNCS = {Exp: "exp", Sin: "sin", Cos: "cos", Min: "min", Max: "max"}
_NP_FUNCS = {Exp: "np.exp", Sin: "np.sin", Cos: "np.cos",
             Min: "np.minimum", Max: "np.maximum"}


def _children(e: Expr) -> tuple:
    if isinstance(e, (Const, Var, TimeVar)):
        return ()
    if isinstance(e, (Neg, Exp, Sin, Cos)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return (e.a, e.b)


_LEAVE = object()      # on the walk stack: the node below it is complete


def _fold(root: Expr, leave: Callable, enter: Optional[Callable] = None):
    """Fold ``root`` bottom-up on an explicit stack; depth costs no recursion.

    ``enter(node)``, when given, runs in pre-order, left to right, before the
    node's children are visited, and returns the node to walk in its place.
    ``leave(node, args, slot)`` turns the results ``args`` of the node's
    children into the node's result.  ``slot`` is the height of the result
    stack under the node: while it is combined, its children's results sit
    at slot, slot + 1, ...
    """
    results: list = []
    todo: list = [root]
    pop, push = todo.pop, todo.append
    while todo:
        node = pop()
        if node is _LEAVE:
            node = pop()
            slot = pop()
            value = leave(node, results[slot:], slot)
            del results[slot:]
            results.append(value)
            continue
        if enter is not None:
            node = enter(node)
        kids = _children(node)
        push(len(results))
        push(node)
        push(_LEAVE)
        todo.extend(kids[::-1])
    return results[0]


def _structure(e: Expr) -> tuple:
    """``e`` as a flat pre-order tuple of node types and their fields.

    Two trees give equal tuples exactly when they compare equal, and the
    tuple is built, hashed and compared without recursion.
    """
    out: list = []

    def enter(node: Expr) -> Expr:
        out.append(type(node))
        if isinstance(node, Const):
            out.append(node.value)
        elif isinstance(node, Var):
            out.append(node.index)
        elif isinstance(node, Pow):
            out.append(node.exponent)
        return node

    _fold(e, lambda node, args, slot: None, enter)
    return tuple(out)


def _rebuild(node: Expr, args: list, slot: int = 0) -> Expr:
    """``node`` with its children replaced by ``args``."""
    if not args:
        return node
    if isinstance(node, Pow):
        return Pow(args[0], node.exponent)
    return type(node)(*args)


def free_vars(e: Expr) -> set:
    """Indices of state variables appearing in ``e``."""
    out: set = set()
    _fold(e, lambda node, args, slot:
          out.add(node.index) if isinstance(node, Var) else None)
    return out


def references_time(e: Expr) -> bool:
    return _fold(e, lambda node, args, slot:
                 isinstance(node, TimeVar) or any(args))


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

    def leave(node: Expr, text: list, slot: int) -> str:
        def wrap(k: int, minimum: int) -> str:
            child = _children(node)[k]
            return f"({text[k]})" if _prec(child) < minimum else text[k]

        if isinstance(node, Const):
            return format_number(node.value)
        if isinstance(node, Var):
            return names[node.index] if names is not None \
                else f"x{node.index + 1}"
        if isinstance(node, TimeVar):
            return "t"
        if isinstance(node, Neg):
            return "-" + wrap(0, _PREC_NEG)
        if isinstance(node, (Add, Sub)):
            # the right operand of +/- must bind tighter than +/- itself,
            # otherwise "a + b - c" would re-associate on re-parse
            op = _BINOPS[type(node)]
            return f"{wrap(0, _PREC_ADD)} {op} {wrap(1, _PREC_ADD + 1)}"
        if isinstance(node, (Mul, Div)):
            op = _BINOPS[type(node)]
            return f"{wrap(0, _PREC_MUL)} {op} {wrap(1, _PREC_MUL + 1)}"
        if isinstance(node, Pow):
            return f"{wrap(0, _PREC_ATOM)}^{node.exponent}"
        return f"{_FUNCS[type(node)]}({', '.join(text)})"

    return _fold(e, leave)


# ---------------------------------------------------------------------------
# Evaluation: kernels generated by one emitter
# ---------------------------------------------------------------------------

def _emit(e: Expr, lines: list, consts: dict, var: str = "X[:, {}]",
          time: str = "T") -> None:
    """Append one statement per node of ``e`` that leaves its value in _s0.

    A node's value goes to the local ``_s<slot>``; its children's values
    are in ``_s<slot>``, ``_s<slot + 1>``, ...  ``Var(i)`` reads
    ``var.format(i)`` and ``t`` reads ``time``: by default rows ``X``
    (m, n) and time ``T``.  A constant is written into its parent's
    statement.  Where its sibling depends on the state, and as the exponent
    (other than 2) of a power whose base does, it is a 0-d float64 array
    instead, named in ``consts`` (its repr -> name; ``_define`` binds the
    names): numpy applies that to a small array in about half the time of
    a Python number, with the same bits.  Subtrees of constants and ``t``
    alone keep Python floats, because Python's ``**`` and numpy's
    ``power`` may differ in the last bit.
    """

    def hoisted(value: float) -> str:
        return consts.setdefault(repr(value), f"_c{len(consts)}")

    def leave(node: Expr, args: list, slot: int):
        # a child's result is its constant (a float, not yet written) or
        # whether it depends on the state (its value is in its slot)
        if isinstance(node, Const):
            return node.value
        state = isinstance(node, Var) or any(v is True for v in args)
        ops = [(hoisted(v) if state else f"({v!r})")
               if isinstance(v, float) else f"_s{slot + k}"
               for k, v in enumerate(args)]
        if isinstance(node, Var):
            rhs = var.format(node.index)
        elif isinstance(node, TimeVar):
            rhs = time
        elif isinstance(node, Neg):
            rhs = f"-{ops[0]}"
        elif isinstance(node, Pow):
            # numpy squares for ``** 2``, as fast as the 0-d power on a few
            # rows and twice as fast on a grid
            power = node.exponent
            if state and power != 2:
                power = hoisted(float(power))
            rhs = f"{ops[0]} ** {power}"
        elif type(node) in _BINOPS:
            rhs = f"{ops[0]} {_BINOPS[type(node)]} {ops[1]}"
        else:
            rhs = f"{_NP_FUNCS[type(node)]}({', '.join(ops)})"
        lines.append(f"    _s{slot} = {rhs}")
        return state

    root = _fold(e, leave)
    if isinstance(root, float):
        lines.append(f"    _s0 = ({root!r})")


def compile_expr(e) -> Callable:
    """Compile ``e`` to one vectorized kernel ``f(X, T=None)``.

    ``e`` is an expression, or a tuple (of tuples) of them; the kernel
    returns an array of shape (m,) plus the shape of that nesting.  ``X``
    has shape (m, n); ``T`` is a scalar or an (m,) array, and may be None
    when nothing references ``t``.  Every node becomes one statement on a
    stack-slot local, so the generated code has no nesting that grows with
    the expression, and a whole vector field or matrix costs one Python
    call.  Each call builds a new kernel; callers keep it.

    The storage is component-major, the nesting's shape plus (m,), so each
    entry is written as one contiguous row; the kernel returns the (m, ...)
    view of it, and ``np.moveaxis(out, 0, -1)`` is that storage again.
    A column ``X[:, i]`` is read fastest when X is itself the transposed
    view of an (n, m) array.
    """
    entries = np.array(e, dtype=object)    # expressions are its scalars
    consts: dict = {}
    src = ["def _f(X, T=None):"]
    if any(references_time(entry) for entry in entries.flat):
        src += ["    if T is None:",
                "        raise ValueError('expression references t but no "
                "time was given')"]
    src += ["    X = np.asarray(X, dtype=float)",
            f"    out = np.empty({entries.shape!r} + (X.shape[0],))"]
    for idx, entry in np.ndenumerate(entries):
        _emit(entry, src, consts)
        src.append(f"    out[{', '.join([*map(str, idx), ':'])}] = _s0")
    points_first = (entries.ndim, *range(entries.ndim))
    src.append(f"    return out.transpose({points_first!r})")
    return _define(src, consts)["_f"]


def _define(src: list, consts: dict) -> dict:
    """Execute generated source; return its namespace, in which each name
    of ``consts`` is bound to its constant as a 0-d float64 array."""
    ns: dict = {"np": np, "inf": math.inf, "nan": math.nan,
                "_TWO": np.array(2.0), "_TOL": INVARIANCE_TOL}
    ns.update((name, np.array(float(text))) for text, name in consts.items())
    exec("\n".join(src) + "\n", ns)
    return ns


def compile_step(odes) -> tuple:
    """Compile classical RK4 for ``odes`` to two kernels, ``(run, check)``.

    ``run(X, t, h, K, S, lo, hi)`` takes up to K steps of length ``h`` from
    the states X (m, n) at time ``t``, in one generated loop over (m,)
    column locals, and writes the states after step k to ``S[k]``.  After
    each step it applies the domain check
    ``max(lo - S[k], S[k] - hi) <= INVARIANCE_TOL``, one reduction over
    (m, n) bounds that a NaN fails too, and at the first step that fails it
    returns k, so no step past it is computed; otherwise it returns K.

    ``check(X, t, h)`` returns ``(full, half)``: one step of length ``h``
    and two of length h/2, which share the first stage f(X, t).

    A step runs the arithmetic, in the order, of

        k1 = f(X, t);  k2 = f(X + (h/2) k1, t + h/2)
        k3 = f(X + (h/2) k2, t + h/2);  k4 = f(X + h k3, t + h)
        X + (h/6) (k1 + 2 k2 + 2 k3 + k4)

    and the time advances by ``t += h``, so every state is bit for bit what
    that four-call form gives.  The factors h, h/2 and h/6 are 0-d arrays,
    made once per call, which numpy applies to small arrays faster than
    Python numbers, with the same result.
    """
    n = len(odes)
    consts: dict = {}
    timed = any(references_time(f) for f in odes)

    def stage(src, col, slope, time):
        for i, fi in enumerate(odes):
            _emit(fi, src, consts, var=col + "{}", time=time)
            src.append(f"    {slope}{i} = _s0")

    def step(src, x, out, times, factors, first=True):
        """One step from columns x0, x1, ... to out0, out1, ...; the first
        stage's slopes a0, a1, ... are already there unless ``first``."""
        t, t2, t4 = times
        h1, h2, h6 = factors
        if first:
            stage(src, x, "a", t)
        for slope, nxt, time, factor, nxt_slope in (
                ("a", "y", t2, h2, "b"), ("b", "z", t2, h2, "c"),
                ("c", "w", t4, h1, "d")):
            src += [f"    {nxt}{i} = {x}{i} + {factor} * {slope}{i}"
                    for i in range(n)]
            stage(src, nxt, nxt_slope, time)
        src += [f"    {out}{i} = {x}{i} + {h6} * (a{i} + _TWO * b{i}"
                f" + _TWO * c{i} + d{i})" for i in range(n)]

    loop: list = []
    if timed:
        loop += ["    t2 = t + hh", "    t4 = t + h"]
    step(loop, "x", "x", ("t", "t2", "t4"), ("h1", "h2", "h6"))
    loop.append("    s = S[k]")
    loop += [f"    s[:, {i}] = x{i}" for i in range(n)]
    if timed:
        loop.append("    t = t4")
    loop += ["    if not np.maximum(lo - s, s - hi).max() <= _TOL:",
             "        return k"]
    columns = [f"    x{i} = X[:, {i}]" for i in range(n)]
    factors = "    h1, h2, h6 = np.array(h), np.array(hh), np.array(h / 6)"
    src = ["def _run(X, t, h, K, S, lo, hi):", "    hh = h / 2", factors,
           *columns, "    for k in range(K):",
           *("    " + line for line in loop), "    return K",
           "def _check(X, t, h):", "    hh = h / 2", factors,
           "    q2, q6 = np.array(hh / 2), np.array(hh / 6)",
           "    t2, t4 = t + hh, t + h",
           "    u2, v2, v4 = t + hh / 2, t2 + hh / 2, t2 + hh", *columns]
    step(src, "x", "f", ("t", "t2", "t4"), ("h1", "h2", "h6"))
    step(src, "x", "m", ("t", "u2", "t2"), ("h2", "q2", "q6"), first=False)
    step(src, "m", "g", ("t2", "v2", "v4"), ("h2", "q2", "q6"))
    src += ["    full, half = np.empty(X.shape), np.empty(X.shape)",
            *(f"    full[:, {i}], half[:, {i}] = f{i}, g{i}"
              for i in range(n)),
            "    return full, half"]
    ns = _define(src, consts)
    return ns["_run"], ns["_check"]


# ---------------------------------------------------------------------------
# Differentiation
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

    def enter(node: Expr) -> Expr:
        if isinstance(node, (Min, Max)):
            raise BranchRequiredError(
                "cannot differentiate through min/max without selecting a "
                "branch")
        if isinstance(node, Pow) and node.exponent == 0:
            return _ONE                 # u^0 is 1 whatever u is
        return node

    def leave(node: Expr, d: list, slot: int) -> Expr:
        if isinstance(node, (Const, TimeVar)):
            return _ZERO
        if isinstance(node, Var):
            return _ONE if node.index == var_index else _ZERO
        if isinstance(node, Neg):
            return _neg(d[0])
        if isinstance(node, Add):
            return _add(d[0], d[1])
        if isinstance(node, Sub):
            return _sub(d[0], d[1])
        if isinstance(node, Mul):
            return _add(_mul(d[0], node.b), _mul(node.a, d[1]))
        if isinstance(node, Div):
            num = _sub(_mul(d[0], node.b), _mul(node.a, d[1]))
            return _ZERO if _is_const(num, 0.0) else Div(num, _pow(node.b, 2))
        if isinstance(node, Pow):
            return _mul(_mul(Const(float(node.exponent)),
                             _pow(node.base, node.exponent - 1)), d[0])
        if isinstance(node, Exp):
            return _mul(Exp(node.arg), d[0])
        if isinstance(node, Sin):
            return _mul(Cos(node.arg), d[0])
        return _neg(_mul(Sin(node.arg), d[0]))

    return _fold(e, leave, enter)


# ---------------------------------------------------------------------------
# Branch-aware Jacobians
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Guard:
    """One distinct min/max argument pair; ``left`` active means a, else b.

    For ``min(a, b)`` the left branch is active when a − b ≤ 0; for
    ``max(a, b)`` when a − b ≥ 0.  Structurally identical (a, b, kind)
    triples anywhere in the system share a single guard: a guard hashes and
    compares as the ``min``/``max`` it stands for.
    """
    a: Expr
    b: Expr
    is_min: bool

    def __post_init__(self):
        node = (Min if self.is_min else Max)(self.a, self.b)
        object.__setattr__(self, "_k", node._key())

    def __eq__(self, other):
        if not isinstance(other, Guard):
            return NotImplemented
        return self._k == other._k

    def __hash__(self):
        return hash(self._k)

    @property
    def diff(self) -> Expr:
        return Sub(self.a, self.b)


def _collect_guards(e: Expr) -> list:
    """The distinct guards of ``e``: first occurrence, pre-order, left to
    right."""
    acc: list = []

    def enter(node: Expr) -> Expr:
        if isinstance(node, (Min, Max)):
            g = Guard(node.a, node.b, isinstance(node, Min))
            if g not in acc:
                acc.append(g)
        return node

    _fold(e, lambda node, args, slot: None, enter)
    return acc


def _substitute_branches(e: Expr, choice: dict) -> Expr:
    """Replace each min/max node by its chosen argument ('left' or 'right')."""

    def enter(node: Expr) -> Expr:
        while isinstance(node, (Min, Max)):
            g = Guard(node.a, node.b, isinstance(node, Min))
            node = node.a if choice[g] == "left" else node.b
        return node

    return _fold(e, _rebuild, enter)


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

    def evaluate_batch(self, X: np.ndarray, t=None) -> np.ndarray:
        """Evaluate on an (m, n_states) batch -> (m, rows, cols) array."""
        if self._kernel is None:
            object.__setattr__(self, "_kernel", compile_expr(self.entries))
        return self._kernel(X, t)


class JacobianBranches:
    """The Jacobian of a piecewise-smooth vector field, one matrix per branch.

    A branch is an assignment of 'left'/'right' to every distinct guard; the
    guard predicates say where in state space that branch is the active one.
    Branch matrices are built on first use and kept — systems with many
    structurally distinct min/max pairs would otherwise blow up
    combinatorially.  The tie rule that picks the active branches at a point
    is ``certify.partition``.
    """

    def __init__(self, sys: "SystemDef"):
        self.sys = sys
        guards: list = []
        self._uses: list = []     # per equation, the indices of its guards
        for f in sys.odes:
            own = _collect_guards(f)
            guards += [g for g in own if g not in guards]
            self._uses.append(tuple(guards.index(g) for g in own))
        self.guards: tuple = tuple(guards)
        self._matrix_cache: dict = {}
        self._row_cache: dict = {}
        self._guard_kernel = None

    @property
    def n_guards(self) -> int:
        return len(self.guards)

    def branch_matrix(self, pattern: tuple) -> ExprMatrix:
        """Jacobian of the smooth selection given by ``pattern``.

        ``pattern`` maps guard k to 'left' or 'right', in guard order.
        """
        if pattern in self._matrix_cache:
            return self._matrix_cache[pattern]
        rows = []
        for i, f in enumerate(self.sys.odes):
            # a row depends only on the sides of its own equation's guards,
            # so branches that agree there share it
            key = (i, tuple(pattern[k] for k in self._uses[i]))
            if key not in self._row_cache:
                choice = {self.guards[k]: pattern[k] for k in self._uses[i]}
                smooth = _substitute_branches(f, choice)
                self._row_cache[key] = tuple(differentiate(smooth, j)
                                             for j in range(self.sys.n))
            rows.append(self._row_cache[key])
        mat = ExprMatrix(tuple(rows))
        self._matrix_cache[pattern] = mat
        return mat

    def branches(self) -> Iterator[tuple]:
        """Yield (pattern, ExprMatrix) lazily over all 2^k branch patterns."""
        for pattern in product(("left", "right"), repeat=len(self.guards)):
            yield pattern, self.branch_matrix(pattern)

    def guard_values(self, X: np.ndarray, t=None) -> tuple:
        """Per-guard (diff, scale) arrays on a batch: diff = a−b,
        scale = 1 + |a| + |b| (for the relative tie tolerance)."""
        if self._guard_kernel is None:
            self._guard_kernel = compile_expr(
                tuple((g.a, g.b) for g in self.guards))
        ab = self._guard_kernel(X, t)
        a, b = ab[:, :, 0], ab[:, :, 1]
        return a - b, 1.0 + np.abs(a) + np.abs(b)


def jacobian(sys: "SystemDef") -> JacobianBranches:
    """Branch-set Jacobian of a system (a single branch when f is smooth).

    Built once per system and kept on it, with its branch matrices and
    their kernels.
    """
    if sys._jacobian is None:
        sys._jacobian = JacobianBranches(sys)
    return sys._jacobian


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
    # the field and RK4 kernels and the branch Jacobian, built on first use
    _f_batch: Optional[Callable] = field(default=None, init=False, repr=False,
                                         compare=False)
    _rk4: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)
    _jacobian: Optional[JacobianBranches] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def time_varying(self) -> bool:
        return any(references_time(f) for f in self.odes)

    def f_batch(self, X: np.ndarray, t=None) -> np.ndarray:
        """Vectorized vector field: (m, n) -> (m, n)."""
        if self._f_batch is None:
            self._f_batch = compile_expr(self.odes)
        return self._f_batch(X, t)

    def rk4_run(self, X: np.ndarray, t: float, h: float, K: int,
                S: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
        """Up to K RK4 steps of the rows of X (m, n) from time t, each state
        written to S[k] and checked against lo/hi (m, n); returns the first
        step that leaves the domain, or K (see ``compile_step``)."""
        if self._rk4 is None:
            self._rk4 = compile_step(self.odes)
        return self._rk4[0](X, t, h, K, S, lo, hi)

    def rk4_check(self, X: np.ndarray, t: float, h: float) -> tuple:
        """One RK4 step of the rows of X (m, n) from time t, and two half
        steps: ``(full, half)``."""
        if self._rk4 is None:
            self._rk4 = compile_step(self.odes)
        return self._rk4[1](X, t, h)

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
                fx = self.f_batch(np.array([self.equilibrium], dtype=float))
                resid = float(np.max(np.abs(fx)))
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
             "min", "max", "abs", "exp", "sin", "cos", "t"}


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
    # ``first``, when given, is the already parsed leading atom of the
    # expression: the group of a run of opening parentheses (see ``atom``)
    def expr(self, first: Optional[Expr] = None) -> Expr:
        node = self.term(first)
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.next()
                rhs = self.term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self, first: Optional[Expr] = None) -> Expr:
        node = self.factor() if first is None else self.power(first)
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "*/":
                self.next()
                rhs = self.factor()
                node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        # a run of unary minus signs is counted, not recursed on
        signs = 0
        while (tok := self.peek()).kind == "PUNCT" and tok.text == "-":
            self.next()
            signs += 1
        node = None
        # the innermost sign folds into a literal unless the literal is the
        # base of a power (so "-2^2" keeps Python's reading, -(2^2))
        if signs and tok.kind == "NUM":
            after = self.toks[self.pos + 1]
            if not (after.kind == "PUNCT" and after.text == "^"):
                self.next()
                node = Const(-float(tok.text))
                signs -= 1
        if node is None:
            node = self.power()
        for _ in range(signs):
            node = Neg(node)
        return node

    def power(self, base: Optional[Expr] = None) -> Expr:
        if base is None:
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
            # a run of opening parentheses is counted, not recursed on: the
            # innermost group is parsed first, and each closed group is
            # the leading atom of the expression around it
            depth = 1
            while (tok := self.peek()).kind == "PUNCT" and tok.text == "(":
                self.next()
                depth += 1
            node = self.expr()
            self.expect("PUNCT", ")")
            for _ in range(depth - 1):
                node = self.expr(node)
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
            if name in ("exp", "sin", "cos", "abs"):
                self.expect("PUNCT", "(")
                a = self.expr()
                self.expect("PUNCT", ")")
                if name == "abs":
                    return Max(a, Neg(a))
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
