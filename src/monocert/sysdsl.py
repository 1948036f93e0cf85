"""Expression AST and a small text format for ODE systems.

The expression language is deliberately tiny: constants, state variables,
the time variable ``t``, unary negation, the binary operators ``+ - * / ^``,
binary ``min`` / ``max``, ``abs`` (read as ``max(e, -e)``), and the unary
functions ``exp``, ``sin``, ``cos``.  Everything a vector field built from
these can do — symbolic differentiation, branch-aware Jacobians for the
piecewise-smooth ``min``/``max`` constructs, vectorized evaluation over
sample batches — lives in this module.

The parser reads exactly this: ``^`` takes one nonnegative integer literal
and does not chain (``x1^2^2`` is an error); unary minus binds tighter
than ``*`` and looser than ``^``, so ``-2^2`` is -(2^2); a sign folds into
a bare literal (``-2`` is the constant -2, ``--2`` its negation, ``-(2)``
a negation of 2); a literal ``float`` cannot read (``1.2.3``) is an error.
A system whose equation holds a subtree of constants that divides by zero
or overflows in ``^`` is an error naming the equation (``_fold_constants``).

Parsing is one operator-precedence loop on explicit stacks
(``_Parser.expr``), and every tree walk runs on one explicit-stack walker
(``_fold``), so the depth of an expression costs no Python recursion
(``==`` and ``hash`` of a node compare a flat key that walker builds).
Every numeric evaluation runs through kernels generated by one emitter
(``_emit``): ``compile_expr`` for expressions, vector fields and matrices,
and ``rk4.compile_step`` for blocks of plain RK4 steps, in two shapes with
the same bits, on arrays and on rows of Python floats, each of which runs
its one emitted step inline and nothing else (``sim.integrate_batch``
checks each block's states and takes the error estimate by running the
same kernel at h/2); ``SystemDef.rk4_run`` picks a shape by counts the
emitter returns (``rk4.StepKernels.pick``).  The one exception is a
nesting of constants alone, such as a branch Jacobian of a piecewise-affine
field: ``compile_expr`` writes no code for it, and its entries are folded
by the walker that refuses those subtrees (``_fold_constants``), with the
bits the emitted code would give.

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
import operator
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .rk4 import StepKernels

__all__ = [
    "Expr", "Const", "Var", "TimeVar", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Min", "Max", "Exp", "Sin", "Cos",
    "Interval", "SystemDef", "ExprMatrix", "JacobianBranches",
    "DslError", "BranchRequiredError",
    "parse_system", "parse_expr", "differentiate", "jacobian", "pretty",
    "compile_expr", "format_number",
    "free_vars", "references_time",
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

# The nodes are plain slotted classes, not dataclasses: as dataclasses,
# creating these 15 classes cost 8-10 ms of every interpreter's import,
# against 0.2 ms now.  A node's fields are its ``_fields``, which are also
# its slots.  ``__init__`` is written out once per shape (leaf, unary,
# binary) because parsing and differentiation build many nodes: a loop over
# ``_fields`` would cost 0.4 us more per node.

_set = object.__setattr__


class Expr:
    """Base class for expression nodes.  All nodes are immutable/hashable.

    A node hashes and compares by a flat key (see ``_structure``) built once
    and kept on it, so a deep tree costs no recursion.  Equality is that of
    the trees' fields: ``Const(0.0) == Const(-0.0)``.  Its ``repr``, and a
    failed assignment, read as those of a frozen dataclass.
    """

    __slots__ = ("_k",)
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def _key(self) -> tuple:
        key = getattr(self, "_k", None)
        if key is None:
            key = _structure(self)
            _set(self, "_k", key)
        return key

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class _Unary(Expr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)


class _Binary(Expr):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Expr, b: Expr):
        _set(self, "a", a)
        _set(self, "b", b)


class Const(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        _set(self, "value", float(value))


class Var(Expr):
    """State variable, identified by its index in the system's state order."""
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        _set(self, "index", index)


class TimeVar(Expr):
    """The time variable ``t``."""
    __slots__ = ()


class Neg(_Unary):
    __slots__ = ()


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise DslError("power exponent must be a nonnegative integer, "
                           f"got {exponent!r}")
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Min(_Binary):
    __slots__ = ()


class Max(_Binary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


# the functions of the language by name: (builder, number of arguments);
# the parser reads its names here, and ``abs`` has no node of its own
_FUNCTIONS = {"exp": (Exp, 1), "sin": (Sin, 1), "cos": (Cos, 1),
              "min": (Min, 2), "max": (Max, 2),
              "abs": (lambda a: Max(a, Neg(a)), 1)}
_BINOPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_FUNCS = {build: name for name, (build, _) in _FUNCTIONS.items()
          if name != "abs"}
_UFUNCS = {Exp: "np.exp", Sin: "np.sin", Cos: "np.cos", Min: "np.minimum",
           Max: "np.maximum", Div: "np.true_divide", Pow: "np.power",
           Add: "np.add", Sub: "np.subtract", Mul: "np.multiply",
           Neg: "np.negative"}


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


def _structure(e: Expr, signed: bool = False) -> tuple:
    """``e`` as a flat pre-order tuple of node types and their fields.

    Two trees give equal tuples exactly when they compare equal, and the
    tuple is built, hashed and compared without recursion.  With ``signed``
    a constant enters as its bits, so trees that differ only in the sign of
    a zero or of a NaN give different tuples.
    """
    out: list = []

    def enter(node: Expr) -> Expr:
        out.append(type(node))
        if isinstance(node, Const):
            out.append(_bits(node.value) if signed else node.value)
        elif isinstance(node, Var):
            out.append(node.index)
        elif isinstance(node, Pow):
            out.append(node.exponent)
        return node

    _fold(e, lambda node, args, slot: None, enter)
    return tuple(out)


def _bits(value: float) -> int:
    """The bits of a float, which tell apart what ``==`` and ``repr`` do
    not: the two zeros, and NaNs of either sign."""
    return int(np.float64(value).view(np.int64))


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


# how tightly each operator binds, for the parser and the printer alike
_PRECEDENCE = {Add: _PREC_ADD, Sub: _PREC_ADD, Mul: _PREC_MUL,
               Div: _PREC_MUL, Neg: _PREC_NEG, Pow: _PREC_POW}


def _prec(e: Expr) -> int:
    if isinstance(e, Const) and e.value < 0:
        # prints with a leading minus, so textually it binds like unary minus
        # (otherwise "-2^2" would re-parse as -(2^2))
        return _PREC_NEG
    return _PRECEDENCE.get(type(e), _PREC_ATOM)


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

def _emit(e: Expr, lines: list, consts: dict,
          var: Callable = "X[:, {}]".format, time: str = "T",
          rows: bool = False, out: Optional[str] = None) -> tuple:
    """Write a statement per node of ``e``; return the numpy calls and the
    Python float operations among them, and the text of its value.

    On arrays a node's value goes to ``_s<slot>``, where its parent finds
    it, so that of ``e`` ends in ``_s0``, or with ``out`` its root's ufunc
    writes it there.  ``Var(i)`` reads ``var(i)`` and ``t`` reads ``time``.
    A constant next to a state-dependent operand, or as the exponent (not
    2) of a state-dependent power, is a 0-d array named in ``consts``
    ((bits, np.array) -> name, bound by ``_define``), which numpy applies to
    a small array in half the time of a Python number, with the same bits.
    Subtrees of constants and ``t`` alone keep Python floats, because
    Python's ``**`` and numpy's ``power`` may differ in the last bit.  Such
    a float is written as its ``repr``, which gives back its bits, but a
    NaN, whose sign ``repr`` drops, is named in ``consts`` as (bits, float).

    With ``rows`` the state is Python floats, one value per row, and each
    node appends ``(name, rhs, call)``, written for one row, to ``lines``
    for ``rk4._unrolled`` to write out for each row, or reuses the name of
    an equal ``rhs`` there: the same operation on the same values.
    ``+ - *``, negation and ``^2`` (as ``v*v``) are Python operations on a
    row's floats, exactly rounded as numpy's are.  ``^k``, ``/``, ``min``
    and ``max`` are each a ``call`` made once per stage on the tuples of
    all rows' operands, as ``np.power((v_0, v_1, v_2), _c0)``: their ufunc
    costs about 0.7 us on two floats and 0.9 us on tuples of a few, and
    numpy converts such a tuple into exactly the array whose loop it runs
    on a column.  ``exp``, ``sin`` and ``cos`` call their ufunc on each
    row's float, about 0.2 us, a fifth of a call on a tuple.  Python's
    ``**`` and ``math`` may differ from numpy in the last bit, and Python's
    ``/`` raises on zero.  A constant is a 0-d array there only where it
    goes to a ufunc.
    """
    tally = {"calls": 0, "ops": 0}
    seen = {rhs: name for name, rhs, _ in lines} if rows else {}

    def hoisted(value: float, kind: Callable = np.array) -> str:
        return consts.setdefault((_bits(value), kind), f"_c{len(consts)}")

    def literal(value: float) -> str:
        return f"({value!r})" if value == value else hoisted(value, float)

    def leave(node: Expr, args: list, slot: int):
        # a child's result is its constant (a float, not yet written), or
        # the text of its value and whether that depends on the state
        if isinstance(node, Const):
            return node.value
        if isinstance(node, (Var, TimeVar)):
            return (var(node.index), True) if isinstance(node, Var) else (
                time, False)
        kind, power = type(node), getattr(node, "exponent", None)
        state = any(v[1] for v in args if not isinstance(v, float))
        square = power == 2 and state
        call = rows and state and kind in (Min, Max, Div, Pow) and not square
        ops = [(hoisted(v) if state and (call or not rows) else literal(v))
               if isinstance(v, float) else v[0] for v in args]
        if power is not None and not square:
            ops.append(hoisted(float(power)) if state else str(power))
        ufunc = f"{'np.square' if square else _UFUNCS[kind]}({', '.join(ops)}"
        if node is e and out is not None and state:
            rhs = f"{ufunc}, out={out})"
        elif call or kind in (Exp, Sin, Cos, Min, Max):
            rhs = f"float({ufunc}))" if rows and not call else f"{ufunc})"
        elif kind is Neg:
            rhs = f"-{ops[0]}"
        elif square:
            # numpy squares for ``** 2``, as fast as the 0-d power on a few
            # rows and twice as fast on a grid
            rhs = f"{ops[0]} * {ops[0]}" if rows else f"{ops[0]} ** 2"
        elif power is not None:
            rhs = f"{ops[0]} ** {ops[1]}"
        else:
            rhs = f"{ops[0]} {_BINOPS[kind]} {ops[1]}"
        if rows and rhs in seen:
            return seen[rhs], True
        if state:   # a ufunc on a row's float costs about 8 operations
            tally["calls" if call or not rows else "ops"] += (
                8 if rows and kind in (Exp, Sin, Cos) else 1)
        if rows:
            seen[rhs] = f"_v{len(lines)}"
            lines.append((seen[rhs], rhs, call))
            return seen[rhs], True
        lines.append(f"    {rhs}" if node is e and out is not None and state
                     else f"    _s{slot} = {rhs}")
        return f"_s{slot}", state

    root = _fold(e, leave)
    text = literal(root) if isinstance(root, float) else root[0]
    if rows or text == "_s0" and (out is None or root[1]):
        return tally["calls"], tally["ops"], text
    # a constant, a lone variable or a subtree of them alone, written as
    # an item assignment, which costs less than np.copyto
    tally["calls"] += out is not None
    lines.append(f"    {out}{'[...]' * out.isidentifier()} = {text}" if out
                 else f"    _s0 = {text}")
    return tally["calls"], tally["ops"], text


# what a kernel applies to a node of constants (``_emit``): Python's
# operators, and the ufunc of ``_UFUNCS`` for the functions
_CONST_OPS = {Neg: operator.neg, Add: operator.add, Sub: operator.sub,
              Mul: operator.mul, Div: operator.truediv,
              **{kind: getattr(np, _UFUNCS[kind][3:])
                 for kind in (Exp, Sin, Cos, Min, Max)}}


def _fold_constants(e: Expr, where: str) -> Optional[float]:
    """The value a kernel computes for ``e``, or None when ``e`` reads the
    state or ``t``; raise DslError where the kernel would raise: a subtree
    of constants alone that divides by zero or has a power that overflows.

    Kernels keep subtrees of constants as Python floats (``_emit``), whose
    ``/`` and ``**`` raise where numpy's give inf or nan.  A call returns a
    numpy scalar, which never raises, and neither does any node above it.
    So the fold applies the kernel's own operations to its children's
    values: Python's operators, and the ufuncs of ``exp``, ``sin``, ``cos``,
    ``min`` and ``max``, whose scalars keep numpy's rules above them.
    """

    def leave(node: Expr, args: list, slot: int) -> Optional[float]:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, (Var, TimeVar)) or None in args:
            return None
        try:
            if isinstance(node, Pow):
                return args[0] ** node.exponent
            return _CONST_OPS[type(node)](*args)
        except ZeroDivisionError:
            raise DslError(f"{where}: a constant subexpression divides by "
                           "zero") from None
        except OverflowError:
            raise DslError(f"{where}: a constant power overflows") from None

    with np.errstate(all="ignore"):
        return _fold(e, leave)


def compile_expr(e) -> Callable:
    """Compile ``e`` to one vectorized kernel ``f(X, T=None)``.

    ``e`` is an expression, or a tuple (of tuples) of them; the kernel
    returns an array of shape (m,) plus the shape of that nesting.  ``X``
    has shape (m, n); ``T`` is a scalar or an (m,) array, and may be None
    when nothing references ``t`` (else the kernel raises DslError).  Every
    node becomes one statement on a stack-slot local, so the generated code
    has no nesting that grows with the expression, and a whole vector field
    or matrix costs one Python call.  A nesting whose every entry reads
    neither the state nor ``t``, such as a branch Jacobian of a piecewise
    affine field, generates no code: its entries are folded once
    (``_fold_constants``, with the bits the generated code would give) and
    each call fills a fresh array with them.  A subtree of constants that
    divides by zero or whose power overflows raises DslError here.  Each
    call builds a new kernel; callers keep it.

    The storage is component-major, the nesting's shape plus (m,), so each
    entry is written as one contiguous row; the kernel returns the (m, ...)
    view of it, and ``np.moveaxis(out, 0, -1)`` is that storage again.
    A column ``X[:, i]`` is read fastest when X is itself the transposed
    view of an (n, m) array.
    """
    entries = np.array(e, dtype=object)    # expressions are its scalars
    shape, points_first = entries.shape, (entries.ndim, *range(entries.ndim))
    values = [_fold_constants(entry, "expression") for entry in entries.flat]
    if None not in values:
        filled = np.array(values, dtype=float).reshape(shape + (1,))

        def _f(X, T=None):
            out = np.empty(shape + (len(X),))
            out[...] = filled
            return out.transpose(points_first)
        return _f
    consts: dict = {}
    src = ["def _f(X, T=None):"]
    if any(references_time(entry) for entry in entries.flat):
        src += ["    if T is None:",
                "        raise DslError('expression references t but no "
                "time was given')"]
    src += ["    X = np.asarray(X, dtype=float)",
            f"    out = np.empty({shape!r} + (X.shape[0],))"]
    for idx, entry in np.ndenumerate(entries):
        _emit(entry, src, consts,
              out=f"out[{', '.join([*map(str, idx), ':'])}]")
    src.append(f"    return out.transpose({points_first!r})")
    return _define(src, consts)["_f"]


def _define(src: list, consts: dict) -> dict:
    """Execute generated source; return its namespace, in which each name
    of ``consts``, keyed (bits, kind), is bound to ``kind`` of the float of
    those bits: a 0-d float64 array or a Python float."""
    ns: dict = {"np": np, "inf": math.inf, "nan": math.nan,
                "_TWO": np.array(2.0), "DslError": DslError}
    ns.update((name, kind(np.int64(bits).view(np.float64)))
              for (bits, kind), name in consts.items())
    exec("\n".join(src) + "\n", ns)
    return ns


def _lift_state_free(odes) -> tuple:
    """``odes`` with each largest subtree that reads no state, other than a
    lone constant, replaced by ``Var(n + j)``, and those subtrees: the
    distinct ones in the order a kernel evaluates them.  Subtrees that
    differ only in the sign of a zero are distinct, although ``==`` holds
    between them: ``0*t`` and ``-0*t`` have values of opposite sign."""
    n, lifted = len(odes), {}   # sign-aware key -> (j, subtree)

    def lift(e: Expr) -> Expr:
        if isinstance(e, Const):
            return e
        j, _ = lifted.setdefault(_structure(e, signed=True), (len(lifted), e))
        return Var(n + j)

    def leave(node: Expr, args: list, slot: int) -> tuple:
        # the rewritten node and whether it reads the state
        if not (isinstance(node, Var) or any(s for _, s in args)):
            return node, False
        return _rebuild(node, [c if s else lift(c) for c, s in args]), True

    fields = []
    for f in odes:
        e, state = _fold(f, leave)
        fields.append(e if state else lift(e))
    return fields, [e for _, e in lifted.values()]


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

def _collect_guards(e: Expr) -> list:
    """The distinct ``min``/``max`` nodes of ``e``: first occurrence,
    pre-order, left to right."""
    acc: list = []

    def enter(node: Expr) -> Expr:
        if isinstance(node, (Min, Max)) and node not in acc:
            acc.append(node)
        return node

    _fold(e, lambda node, args, slot: None, enter)
    return acc


def _substitute_branches(e: Expr, choice: dict) -> Expr:
    """Replace each min/max node by its chosen argument ('left' or 'right')."""

    def enter(node: Expr) -> Expr:
        while isinstance(node, (Min, Max)):
            node = node.a if choice[node] == "left" else node.b
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

    A branch is an assignment of 'left'/'right' to every distinct guard, a
    ``min``/``max`` node of ``guards`` ('left' takes its argument a, 'right'
    b); equal nodes anywhere in the system, compared as trees, are one
    guard.  The guard predicates say where in state space that branch is
    the active one: for ``min(a, b)`` left when a − b ≤ 0, for ``max(a, b)``
    when a − b ≥ 0.
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
                # differentiation folds constants (c^2 of x / c), which
                # may overflow or leave a divisor of 0
                where = ("Jacobian of the equation for "
                         f"d{self.sys.state_names[i]}")
                try:
                    row = tuple(differentiate(smooth, j)
                                for j in range(self.sys.n))
                except OverflowError:
                    raise DslError(f"{where}: a constant power "
                                   "overflows") from None
                for e in row:
                    _fold_constants(e, where)
                self._row_cache[key] = row
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
    _rk4: Optional[StepKernels] = field(default=None, init=False,
                                        repr=False, compare=False)
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

    def rk4_run(self, X: np.ndarray, t: float, h: float,
                S: np.ndarray) -> None:
        """len(S) plain RK4 steps of the rows of X (m, n) from time t, the
        states after step k written to S[k] (see ``rk4.compile_step``).
        The kernel's shape is picked for each call by ``StepKernels.pick``
        from m; both give the same bits."""
        if self._rk4 is None:
            from .rk4 import compile_step
            self._rk4 = compile_step(self.odes)
        self._rk4.pick(len(X))(X, t, h, S)

    def validate(self) -> None:
        n = self.n
        if len(self.bounds) != n or len(self.odes) != n:
            raise DslError("states, bounds and equations must align")
        for i, f in enumerate(self.odes):
            bad = [v for v in free_vars(f) if v >= n]
            if bad:
                raise DslError(f"equation for d{self.state_names[i]} references "
                               f"undeclared state index {bad[0]}")
            _fold_constants(f, f"equation for d{self.state_names[i]}")
        if self.equilibrium is not None:
            if len(self.equilibrium) != n:
                raise DslError("equilibrium dimension mismatch")
            for name, b, v in zip(self.state_names, self.bounds, self.equilibrium):
                if not b.contains(v):
                    raise DslError(f"equilibrium coordinate {name} = "
                                   f"{format_number(v)} is outside {b}")
            if not self.time_varying:
                # a division by zero on the way to a finite value prints no
                # warning; a NaN residual is refused ("not <" fails NaN)
                with np.errstate(all="ignore"):
                    fx = self.f_batch(np.array([self.equilibrium],
                                                dtype=float))
                resid = float(np.max(np.abs(fx)))
                if not resid < 1e-9:
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
            # "1.2.3" and "2²" scan as one token but are no number
            try:
                float(text[start:i])
            except ValueError:
                raise DslError(f"malformed number {text[start:i]!r}",
                               line, start_col) from None
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
             "t", *_FUNCTIONS}
_INFIX = {op: node for node, op in _BINOPS.items()}  # binary ops by token


class _Parser:
    def __init__(self, toks: list, state_names: Optional[Sequence[str]] = None):
        self.toks = toks
        self.pos = 0
        self.state_index = ({name: i for i, name in enumerate(state_names)}
                            if state_names is not None else {})

    # -- token plumbing ----------------------------------------------------
    def peek(self, skip_newlines: bool = False, ahead: int = 0) -> _Tok:
        """The token at the cursor, or ``ahead`` places past it; newlines
        at the cursor are passed over first when ``skip_newlines``."""
        p = self.pos
        if skip_newlines:
            while self.toks[p].kind == "NEWLINE":
                p += 1
        return self.toks[p + ahead]

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

    def at(self, text: str, ahead: int = 0) -> bool:
        """Whether the token ``ahead`` places on is the punctuation ``text``."""
        tok = self.toks[self.pos + ahead]
        return tok.kind == "PUNCT" and tok.text == text

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
        """One expression, by operator precedence on explicit stacks.

        ``ops`` holds the node types of pending operators, and ``groups``
        open parentheses and calls as [function name or None, the token the
        group expects next, height of ``ops`` at its start].
        """
        operands: list = []
        ops: list = []
        groups: list = []

        def reduce(prec: int) -> None:
            # apply the innermost group's operators that bind as tight as prec
            floor = groups[-1][2] if groups else 0
            while len(ops) > floor and _PRECEDENCE[ops[-1]] >= prec:
                node = ops.pop()
                k = 1 if node is Neg else 2
                operands[-k:] = [node(*operands[-k:])]

        while True:
            # an operand: signs and openings up to an atom
            tok = self.next()
            if tok.kind == "PUNCT" and tok.text == "-":
                # the innermost sign folds into a literal unless the literal
                # is the base of a power: "-2^2" is -(2^2), as in Python
                num = self.peek()
                if num.kind != "NUM" or self.at("^", ahead=1):
                    ops.append(Neg)
                    continue
                self.next()
                operands.append(Const(-float(num.text)))
            elif tok.kind == "PUNCT" and tok.text == "(":
                groups.append([None, ")", len(ops)])
                continue
            elif tok.kind == "NUM":
                operands.append(Const(float(tok.text)))
            elif tok.kind != "IDENT":
                got = tok.text if tok.text else tok.kind
                raise DslError(f"expected an expression, got {got!r}",
                               tok.line, tok.col)
            elif tok.text == "t":
                operands.append(TimeVar())
            elif tok.text in _FUNCTIONS:
                self.expect("PUNCT", "(")
                arity = _FUNCTIONS[tok.text][1]
                groups.append([tok.text, "," if arity == 2 else ")", len(ops)])
                continue
            elif tok.text in self.state_index:
                operands.append(Var(self.state_index[tok.text]))
            else:
                raise DslError(f"unknown identifier {tok.text!r}",
                               tok.line, tok.col)

            # after an atom: one ``^``, then an operator or a group's end
            while True:
                if self.at("^"):
                    self.next()
                    etok = self.expect("NUM")
                    if not etok.text.isdigit():
                        raise DslError("exponent must be a nonnegative integer",
                                       etok.line, etok.col)
                    operands[-1] = Pow(operands[-1], int(etok.text))
                tok = self.peek()
                if tok.kind == "PUNCT" and tok.text in _INFIX:
                    self.next()
                    node = _INFIX[tok.text]
                    reduce(_PRECEDENCE[node])
                    ops.append(node)
                    break
                reduce(0)
                if not groups:
                    return operands.pop()
                group = groups[-1]
                self.expect("PUNCT", group[1])
                if group[1] == ",":
                    group[1] = ")"
                    break
                groups.pop()
                if group[0] is not None:
                    build, arity = _FUNCTIONS[group[0]]
                    operands[-arity:] = [build(*operands[-arity:])]

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
            nxt = self.peek(skip_newlines=True, ahead=1)
            if nxt.kind == "IDENT" and nxt.text == "inf":
                self.next(skip_newlines=True)
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
            if self.at(","):
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
                while self.at(","):
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
                if nl.kind not in ("NEWLINE", "EOF") and not self.at("}"):
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


def _parse(text: str, read: Callable, state_names=None):
    """Run the parser method ``read`` over all of ``text``."""
    parser = _Parser(_tokenize(text), state_names)
    result = read(parser)
    trailing = parser.peek(skip_newlines=True)
    if trailing.kind != "EOF":
        raise DslError(f"unexpected trailing {trailing.text!r}",
                       trailing.line, trailing.col)
    return result


def parse_system(text: str) -> SystemDef:
    """Parse a ``system { ... }`` block; errors carry line/column info."""
    return _parse(text, _Parser.system)


def parse_expr(text: str, state_names: Sequence[str]) -> Expr:
    """Parse a bare expression over the given state names."""
    return _parse(text, _Parser.expr, state_names)
