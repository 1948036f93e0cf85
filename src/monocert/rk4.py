"""Classical RK4 on blocks of steps, compiled for a system in two shapes
with the same bits.

``compile_step`` generates, from the one emitter of ``sysdsl``
(``_emit``), a kernel that takes K plain steps of m rows in lockstep and
nothing else.  Each shape emits the step once, inline in the kernel's
loop; the domain check and the step-doubling error estimate are not the
kernel's: ``sim.integrate_batch`` checks each block's states once, after
the call, and takes the estimate by running the same kernel at h/2.  Both
shapes run stage-major, each stage for all rows before the next, so a step
costs numpy calls per node of the vector field, not per row or per
component:

* on columns, the state and the stages are (n, m) arrays.  Each field's
  root writes its slope row by ``out=``, and each RK4 update, the final
  sum and the copy into the output is a few numpy calls on all components
  at once;
* on rows, the state is a tuple of Python floats per row.  ``+ - *`` are
  Python float operations, run in one loop over the rows for each stretch
  of them; each ``^k`` (k other than 2), ``/``, ``min`` and ``max`` node is
  one numpy call per stage on the list of all rows' operands, between
  such loops (``_row_loops`` places every node as early as its operands
  allow).  ``exp``, ``sin`` and ``cos`` call their ufunc on each row's
  float, which costs a fifth of a call on a list.  A field without a
  batched node runs one loop per step.

The shapes give the same bits: numpy's ``+ - *`` are IEEE operations,
exactly rounded as Python's are; a ufunc called on a Python float runs the
loop it runs on an array; and numpy converts a list of Python floats into
exactly the float64 array whose loop the column kernel runs.  A numpy call
costs about as much on 3 rows as on 20, so the row kernel is faster for a
few rows and the column kernel for many; ``StepKernels.pick`` chooses by
counts known when the kernels are generated.

``SystemDef.rk4_run`` imports this module on first use, so a program that
never integrates does not compile it.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .sysdsl import _define, _emit, _lift_state_free

__all__ = ["StepKernels", "compile_step"]

class StepKernels(NamedTuple):
    """One system's RK4 block kernel in its two shapes, and its counts per
    step, known when they are generated, that choose between them.

    ``pick`` takes the row kernel for m rows when

        m (p + 8u + 4) / 24 + 2 (u + L) < U + 4,

    a cost in units of one of the column kernel's U numpy calls per step:
    p Python float operations per row cost 1/24 each (a ufunc call on a
    float counts 8), and so do 4 more for each row's share of the loops,
    tuples and lists; each of the u batched calls and L loops over the
    rows costs about 2, and a batched call's list conversion 1/3 per row.
    The constants are a fit to both kernels' times on 256-step blocks of
    every corpus system at m = 1 to 48 (min of 10 runs, two runs, a 2-vCPU
    x86-64 host shared with other work, numpy 2.4).  The crossover column
    is the first m at which the columns were as fast as the rows in each
    run.  It moves with the host's noise by up to 5 rows between runs of
    the same tree (entrain_zero: 13 and 18).  The pick column is what the
    code does:

        system            U   u    p  L   crossover   pick: columns from
        comparison       66   0   98  1     16, 15     16
        entrain_cubic    26   4   21  4      5,  8      6
        entrain_linear   22   0   21  1     19, 18     24
        entrain_zero     18   0   13  1     13, 18     29
        ex1              30   0   42  1     19, 17     17
        linear_sym       30   0   42  1     20, 16     17
        multiagent       38   0   63  1     16, 21     15
        rotation         22   0   30  1     18, 18     17
        traffic4        122  28   96  5      5,  5      5

    The rows' time grows with m at about the same rate on each side of the
    crossover, so a pick a few rows off it costs little: entrain_zero's
    rows take 1.2 to 1.35 times the columns' time at m = 28.
    """
    columns: Callable
    rows: Callable
    column_calls: int   # U: numpy calls of the column kernel
    row_calls: int      # u: batched numpy calls of the row kernel
    row_ops: int        # p: its Python float operations per row
    row_loops: int      # L: its loops over the rows

    def pick(self, m: int) -> Callable:
        """The row kernel for m rows when m (p + 8u + 4) / 24 + 2 (u + L)
        < U + 4, else the column kernel."""
        cost = m * (self.row_ops + 8 * self.row_calls + 4) / 24 + 2 * (
            self.row_calls + self.row_loops)
        return self.rows if cost < self.column_calls + 4 else self.columns


_NAME = re.compile(r"\b[A-Za-z_]\w*")


def _row_loops(records: list, inputs: dict, keep: list) -> tuple:
    """Source that runs ``records`` (see ``_emit``) on all rows, and the
    number of its loops over them.  ``inputs`` maps a list of rows to what
    a row unpacks to.  Each record is placed as early as the names it
    reads allow (those of ``keep`` together): a call between loops, on the
    lists ``v_`` of the rows' operands, the others in a loop, which leaves
    the rows of ``keep`` in ``nxt`` and what a later place reads in lists
    ``v_``."""
    inputs = dict(inputs)
    where = {w: seq for seq, row in inputs.items() for w in _NAME.findall(row)}

    def place(floor: dict) -> list:
        pos, placed = dict.fromkeys(where, -1), []
        for name, rhs, call in records:
            p = max([pos[w] for w in _NAME.findall(rhs) if w in pos]
                    + [floor.get(name, -1)])
            pos[name] = p = p | 1 if call else p + (p & 1)   # loops: even
            placed.append((p, name, rhs))
        return placed

    placed = place({})
    placed = place(dict.fromkeys(keep, max(p for p, name, _ in placed
                                           if name in keep)))
    latest = {w: p for p, _, rhs in sorted(placed, key=lambda r: r[0])
              for w in _NAME.findall(rhs)}   # the latest place reading w
    rowwise = {name for _, name, _ in placed} | set(where)
    src, loops = [], 0
    for p in sorted({p for p, _, _ in placed}):
        here = {name: rhs for q, name, rhs in placed if q == p}
        reads = dict.fromkeys(w for rhs in here.values()
                              for w in _NAME.findall(rhs)
                              if w in rowwise and w not in here)
        if p % 2:   # the rows that the calls read, split into lists first
            for seq in dict.fromkeys(where[w] for w in reads if w in where):
                names = _NAME.findall(inputs.pop(seq))
                src.append(f"    {''.join(w + '_, ' for w in names)}= "
                           f"zip(*{seq})")
                for w in names:
                    del where[w]
            src += [f"    {name}_ = " + _NAME.sub(
                lambda w: w[0] + "_" * (w[0] in rowwise), rhs) + ".tolist()"
                for name, rhs in here.items()]
            continue
        loops += 1
        sources = {where.get(w, w + "_"): inputs.get(where.get(w), w)
                   for w in reads}
        row = f"({''.join(w + ', ' for w in keep if w in here)})"
        outs = [w for w in here if w not in keep and latest.get(w, p) > p]
        made = ["nxt"] * (row != "()") + [w + "_" for w in outs]
        src += [f"    {', '.join(made)}, = {'[], ' * len(made)}",
                *(f"    _a{j} = {w}_.append" for j, w in enumerate(outs)),
                f"    for {', '.join(sources.values())}, in zip("
                f"{', '.join(sources)}):",
                *(f"        {name} = {rhs}" if name else f"        {rhs}"
                  for name, rhs in here.items()),
                *(f"        _a{j}({w})" for j, w in enumerate(outs))]
        if row != "()":
            src.append(f"        nxt += {row},")
    return src, loops


def compile_step(odes) -> StepKernels:
    """Compile classical RK4 for ``odes`` to one block kernel in two shapes,
    each ``run(X, t, h, S)``.

    It takes exactly K = len(S) plain steps of ``h`` from the states X
    (m, n) at time ``t``, writes the states after step k to ``S[k]`` and
    returns nothing: no domain check, no early return (rows that leave the
    domain or become non-finite run on; ``sim.integrate_batch`` checks the
    block afterwards).  Each state is bit for bit

        k1 = f(X, t);  k2 = f(X + (h/2) k1, t + h/2)
        k3 = f(X + (h/2) k2, t + h/2);  k4 = f(X + h k3, t + h)
        X + (h/6) (k1 + 2 k2 + 2 k3 + k4),  then t += h.

    The step is emitted once per shape, inline in the kernel's loop (see
    the module docstring).  A subtree of constants and ``t`` alone is
    computed once per stage time, as a Python float (a 0-d array on
    columns) that keeps Python's ``/`` and ``**``: an ArithmeticError it
    raises is raised at its step, with S written up to the step before.
    """
    n = len(odes)
    fields, lifted = _lift_state_free(odes)

    def listed(name: str) -> str:
        return "".join(f"{name}{i}, " for i in range(n))

    def generate(rows: bool) -> tuple:
        """The kernel, and its counts per step: U, or u, p and L."""
        consts: dict = {}
        counts = {"calls": 0, "ops": 0}

        def at(src, time):   # the lifted subtrees at ``time``
            for j, e in enumerate(lifted):
                _emit(e, src, consts, time=time)
                src.append(f"    _p{j}_{time} = "
                           f"{'float' if rows else 'np.array'}(_s0)")

        def stage(col, slope, time):
            """f at col0, col1, ...: into the rows of the array ``slope``,
            or on rows the texts of its components."""
            texts = []
            for i, fi in enumerate(fields):
                calls, ops, text = _emit(
                    fi, body, consts, rows=rows, out=None if rows else
                    f"{slope}{i}", var=lambda j: f"{col}{j}" if j < n else
                    f"_p{j - n}_{time}")
                counts["calls"] += calls
                counts["ops"] += ops
                texts.append(text)
            return texts if rows else slope

        # the step from x0, x1, ... at t: to f0, f1, ... on rows, else its
        # increment to the array F
        body: list = []
        k = [stage("x", "a", "t")]
        for slope, time, factor in zip("bcd", ("t2", "t2", "t4"),
                                       ("h2", "h2", "h1")):
            y = f"f{slope}" if rows else "y"
            body += [(f"{y}{i}", f"x{i} + {factor} * {s}", False)
                     for i, s in enumerate(k[-1])] if rows else [
                f"    np.multiply({factor}, {k[-1]}, out=y)",
                "    np.add(x, y, out=y)"]
            k.append(stage(y, slope, time))
        body += [(f"f{i}", f"x{i} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + "
                  f"{d})", False) for i, (a, b, c, d) in
                 enumerate(zip(*k))] if rows else [
            "    F = h6 * (a + _TWO * b + _TWO * c + d)"]
        # the lifted values: at t before the loop, and at t + h/2 and t + h
        # on each step, t carried only where something is lifted
        start, times, carry = [], [], []
        if lifted:
            at(start, "t")
            times = ["    t2, t4 = t + hh, t + h"]
            at(times, "t2")
            at(times, "t4")
            carry = [*(f"    _p{j}_t = _p{j}_t4" for j in range(len(lifted))),
                     "    t = t4"]
        src = ["def _run(X, t, h, S):", "    hh = h / 2",
               "    h1, h2, h6 = map("
               f"{'float' if rows else 'np.array'}, (h, hh, h / 6))"]
        if rows:
            counts["ops"] += 13 * n   # 2 per update, 7 per sum
            plain, counts["loops"] = _row_loops(
                body, {"live": f"({listed('x')})"},
                [f"f{i}" for i in range(n)])
            src += ["    live, out = X.tolist(), []",
                    "    try:", *("    " + line for line in start),
                    "        for k in range(len(S)):",
                    *("        " + line for line in [
                        *times, *plain, "    out += nxt", "    live = nxt",
                        *carry]),
                    "    finally:",
                    "        S[:len(out) // len(X)] = np.fromiter(chain."
                    "from_iterable(out), float).reshape(-1, *X.shape)"]
        else:
            counts["calls"] += 14   # 6 updates, 7 sum, S[k]
            src += ["    x = X.T.copy()",
                    "    a, b, c, d, y = np.empty((5,) + x.shape)",
                    *(f"    {listed(v)}= {v}" for v in "abcdyx"),
                    "    xt = x.T", *start,
                    "    for k in range(len(S)):",
                    *("    " + line for line in [
                        *times, *body, "    np.add(x, F, out=x)", *carry,
                        "    S[k] = xt"])]
        return _define(src, consts)["_run"], counts

    columns, column = generate(rows=False)
    rows, row = generate(rows=True)
    return StepKernels(columns, rows, column["calls"], row["calls"],
                       row["ops"], row["loops"])
