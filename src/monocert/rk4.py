"""Classical RK4 on blocks of steps, compiled for a system in two shapes
with the same bits.

``compile_step`` generates, from the one emitter of ``sysdsl``
(``_emit``), a kernel that takes K plain steps of m rows in lockstep and
nothing else.  Each shape emits the step once, inline in the kernel's
loop; the domain check and the step-doubling error estimate are not the
kernel's: ``sim.integrate_batch`` checks each block's states once, after
the call, and takes the estimate by running the same kernel at h/2.  Both
shapes run stage-major, each stage for all rows before the next:

* on columns, the state and the stages are (n, m) arrays.  Each field's
  root writes its slope row by ``out=``, and each RK4 update, the final
  sum and the copy into the output is a few numpy calls on all components
  at once, so a step costs numpy calls per node of the vector field, not
  per row or per component;
* on rows, the kernel is straight-line code unrolled for exactly m rows,
  generated on the first call with m rows and kept.  Each row's state and
  each of its values is a local of its own, suffixed by the row (``x1_0``
  is x1 of row 0).  ``+ - *`` are a Python float operation per row;
  each ``^k`` (k other than 2), ``/``, ``min`` and ``max`` node is one
  numpy call per stage on the tuple of all rows' operands, unpacked into
  a name per row (on one row, a call on its float).  ``exp``, ``sin`` and
  ``cos`` call their ufunc on each row's float, which costs a fifth of a
  call on a tuple.

The shapes give the same bits: numpy's ``+ - *`` are IEEE operations,
exactly rounded as Python's are; a ufunc called on a Python float runs the
loop it runs on an array; and numpy converts a tuple of Python floats into
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

        m (p + 6u + 5) / 24 + 2u < U + 7,

    a cost in units of one of the column kernel's U numpy calls per step:
    p Python float operations per row cost 1/24 each (a ufunc call on a
    float counts 8), and so do 5 more for each row's share of the state's
    tuple and of ``out``; each of the u batched calls costs about 2, and
    its tuple, array and list of the rows 6/24 per row; the column kernel
    costs 7 more for its loop and its copy into S.  The constants are a
    least-squares fit to both kernels' times on 256-step blocks of every
    corpus system at m = 1 to 24 and at even m to 48 (min of 12
    interleaved runs, two runs, a 2-vCPU x86-64 host shared with other
    work, numpy 2.4), m (p + 5.9u + 5.3) / 26.5 + 2.2u against U + 7.3,
    with the row kernel's build counted.  The row kernel for m rows is
    generated on the first call with m rows, about 5 us per operation and
    row (ex1 at m = 20: 4 to 5 ms), the time of some 400 of its steps;
    spread over a run of 4,000 steps (``simulate`` takes 4,000,
    ``contract`` 5,000), it turns the fit's 1/26.5 into 1/24.  The
    crossover column is the first m at which the columns were as fast as
    the rows per step in each run; it moves with the host's noise
    (entrain_cubic: 11 and 17).  The pick column is what the code does:

        system            U   u    p   crossover   pick: columns from
        comparison       66   0   98     18, 18     18
        entrain_cubic    26   4   21     11, 17     12
        entrain_linear   22   0   21     34, 34     27
        entrain_zero     18   0   13     42, 42     34
        ex1              30   0   42     22, 22     19
        linear_sym       30   0   42     22, 23     19
        multiagent       38   0   63     19, 19     16
        rotation         22   0   30     21, 21     20
        traffic4        122  28   96      8,  8      7

    The rows' time grows with m at about the same rate on each side of the
    crossover, so a pick a few rows off it costs little: at the pick the
    columns take 0.96 to 1.18 times the rows' time per step, and 1.25 on
    entrain_linear at m = 28.  At ``contract``'s 20 rows of linear_sym
    (5,000 steps) the two shapes tie with the build counted: 6 of 12
    fresh-process pairs of the command were faster on rows.
    """
    columns: Callable
    rows: Callable
    column_calls: int   # U: numpy calls of the column kernel
    row_calls: int      # u: batched numpy calls of the row kernel
    row_ops: int        # p: its Python float operations per row

    def pick(self, m: int) -> Callable:
        """The row kernel for m rows when m (p + 6u + 5) / 24 + 2u < U + 7,
        else the column kernel."""
        cost = m * (self.row_ops + 6 * self.row_calls + 5) / 24 + (
            2 * self.row_calls)
        return self.rows if cost < self.column_calls + 7 else self.columns


_NAME = re.compile(r"\b[A-Za-z_]\w*")


def _unrolled(records: list, m: int, n: int) -> list:
    """The lines of one step of ``records`` (see ``_emit``) on exactly m
    rows, from the state ``x0_r, x1_r, ...`` of each row r to its
    ``f0_r, f1_r, ...``: a record is a statement per row, its row-wise
    names suffixed by the row, or a call on the tuple of the m rows'
    operands, unpacked into m names (on one row, a call on its floats)."""
    rowwise = {name for name, _, _ in records} | {f"x{i}" for i in range(n)}

    def names(w: str) -> str:
        return "".join(f"{w}_{r}, " for r in range(m))

    def sub(rhs: str, text: Callable) -> str:   # each row-wise w as text(w)
        return _NAME.sub(lambda w: text(w[0]) if w[0] in rowwise else w[0],
                         rhs)

    lines = []
    for name, rhs, call in records:
        if call and m > 1:
            lines.append(f"{names(name)}= "
                         f"{sub(rhs, lambda w: f'({names(w)})')}.tolist()")
        elif call:
            lines.append(f"{name}_0 = float({sub(rhs, lambda w: w + '_0')})")
        else:
            lines += [f"{name}_{r} = {sub(rhs, lambda w: f'{w}_{r}')}"
                      for r in range(m)]
    return lines


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
    the module docstring); the row shape writes it out for m rows on its
    first call with m rows, and keeps that kernel.  A subtree of constants
    and ``t`` alone is computed once per stage time, as a Python float (a
    0-d array on columns) that keeps Python's ``/`` and ``**``: an
    ArithmeticError it raises is raised at its step, with S written up to
    the step before.
    """
    n = len(odes)
    fields, lifted = _lift_state_free(odes)

    def listed(name: str) -> str:
        return "".join(f"{name}{i}, " for i in range(n))

    def generate(rows: bool) -> tuple:
        """The kernel's source, on rows a function of the row count m, its
        constants and its counts per step: U, or u and p."""
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

            def unrolled(m: int) -> list:
                # the rows' states, flat and row-major as in S, in ``st``
                def flat(v):
                    return "".join(f"{v}{i}_{r}, " for r in range(m)
                                   for i in range(n))
                return src + [
                    "    st, out = X.ravel().tolist(), []",
                    "    try:", *("    " + line for line in start),
                    "        for k in range(len(S)):",
                    *("        " + line for line in [
                        f"    {flat('x')}= st", *times,
                        *("    " + line for line in _unrolled(body, m, n)),
                        f"    st = {flat('f')}", "    out += st", *carry]),
                    "    finally:",
                    "        S[:len(out) // X.size] = np.fromiter("
                    "out, float, len(out)).reshape(-1, *X.shape)"]
            return unrolled, consts, counts
        counts["calls"] += 14   # 6 updates, 7 sum, S[k]
        src += ["    x = X.T.copy()",
                "    a, b, c, d, y = np.empty((5,) + x.shape)",
                *(f"    {listed(v)}= {v}" for v in "abcdyx"),
                "    xt = x.T", *start,
                "    for k in range(len(S)):",
                *("    " + line for line in [
                    *times, *body, "    np.add(x, F, out=x)", *carry,
                    "    S[k] = xt"])]
        return src, consts, counts

    src, consts, column = generate(rows=False)
    unrolled, row_consts, row = generate(rows=True)
    built: dict = {}   # m -> the row kernel for m rows

    def rows(X, t, h, S):
        run = built.get(len(X))
        if run is None:
            run = built[len(X)] = _define(unrolled(len(X)),
                                          row_consts)["_run"]
        run(X, t, h, S)

    return StepKernels(_define(src, consts)["_run"], rows, column["calls"],
                       row["calls"], row["ops"])
