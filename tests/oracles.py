"""Independent numeric oracles for the tests.

These deliberately avoid the code paths under test: eigenvalues come from
the characteristic polynomial (Faddeev-LeVerrier) solved by Durand-Kerner
iteration rather than any library eigensolver used by the package (the
package uses none), and matrix measures come from the defining limit
quotient (||I + hA|| - 1)/h rather than the closed-form column/row
expressions implemented in monocert.measures.

Expressions are evaluated here by a recursive tree walk in Python floats
(``math.exp``, builtin ``min``/``max``), one point at a time, and the
active branch patterns of a point come from the per-point tie rule.  The
package evaluates only through generated numpy kernels and finds branches
only through ``certify.partition``, so these are independent references
for both; the partition itself is referenced by a stable sort of the
points' key tuples (``partition_groups``), where the package sorts one
base-3 integer code per point.  The worst entry of condition blocks is
found by an argmax-first scan in Python floats, one entry at a time, where
the package locates rows on numpy maxima first.  The RK4 references are
the four-call form of a step over ``f_batch`` (bit for bit what the step
kernel must give) and one step of one point in Python floats; a whole run
of the integrator is referenced by those steps taken one row at a time,
with the error estimate, domain check and sampling applied step by step in
Python (``integrate_reference``).  The synthesis LP's condition,
positivity and equilibrium rows are built one grid point, branch and
component at a time in Python floats (``synthesis_rows``).  Expressions are
parsed here by plain recursive descent, one function per grammar level,
where the package reads them with one operator-precedence loop on explicit
stacks.
"""

import math
from itertools import product

import numpy as np

from monocert.sim import INVARIANCE_TOL
from monocert.sysdsl import (TIE_TOL, Add, Const, Cos, Div, DslError, Exp,
                             Max, Min, Mul, Neg, Pow, Sin, Sub, TimeVar, Var,
                             _tokenize)


def evaluate(e, x, t=None) -> float:
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
    if isinstance(e, Pow):
        return evaluate(e.base, x, t) ** e.exponent
    if isinstance(e, (Exp, Sin, Cos)):
        fn = {Exp: math.exp, Sin: math.sin, Cos: math.cos}[type(e)]
        return fn(evaluate(e.arg, x, t))
    a, b = evaluate(e.a, x, t), evaluate(e.b, x, t)
    if isinstance(e, Add):
        return a + b
    if isinstance(e, Sub):
        return a - b
    if isinstance(e, Mul):
        return a * b
    if isinstance(e, Div):
        return a / b
    if isinstance(e, Min):
        return min(a, b)
    if isinstance(e, Max):
        return max(a, b)
    raise TypeError(f"unknown node {e!r}")


def field_at(sys, x, t=None) -> np.ndarray:
    """The vector field of ``sys`` at one point."""
    return np.array([evaluate(fi, x, t) for fi in sys.odes])


def rk4_four_calls(sys, X, t, h) -> np.ndarray:
    """One classical RK4 step of the rows of X as four ``f_batch`` calls.

    The integrator's step kernel runs the same arithmetic in one generated
    function; this is its bitwise reference.
    """
    f = sys.f_batch
    k1 = f(X, t)
    k2 = f(X + (h / 2) * k1, t + h / 2)
    k3 = f(X + (h / 2) * k2, t + h / 2)
    k4 = f(X + h * k3, t + h)
    return X + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_at(sys, x, t, h) -> list:
    """One classical RK4 step of one point, in Python floats."""
    def f(y, s):
        return [evaluate(fi, y, s) for fi in sys.odes]

    def shift(c, k):
        return [xi + c * ki for xi, ki in zip(x, k)]

    k1 = f(x, t)
    k2 = f(shift(h / 2, k1), t + h / 2)
    k3 = f(shift(h / 2, k2), t + h / 2)
    k4 = f(shift(h, k3), t + h)
    return [xi + h / 6 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def domain_failure(sys, j, x, k, t):
    """The integrator's diagnostic for row j at state x after step k, or
    None: a row fails when a coordinate is non-finite or lies outside its
    interval by more than ``INVARIANCE_TOL``."""
    if not all(math.isfinite(v) for v in x):
        return (k, math.inf, f"non-finite state at t={t:.6g}")
    viol = [max(b.lo - v, v - b.hi) for b, v in zip(sys.bounds, x)]
    worst = max(viol)
    if worst <= INVARIANCE_TOL:
        return None
    i = viol.index(worst)
    return (k, worst,
            f"trajectory {j} left the domain at t={t:.6g}: "
            f"{sys.state_names[i]}={x[i]:.6g} violates {sys.bounds[i]} "
            f"by {worst:.3e} (not clamping)")


def integrate_reference(sys, X0, t_end, dt, t0=0.0, save_every=1,
                        abort_on_failure=False) -> tuple:
    """A whole run of ``integrate_batch``, one row and one step at a time:
    ``(t, x, max_step_error, failures)``.

    The run takes floor(span/dt + 1e-9) steps of dt and, when more than
    1e-12 is left, one remainder step, the time advancing by ``t += h``.
    Each live row steps alone by ``rk4_four_calls``.  On every 16th step of
    the run, and on the last, the row's step-doubling estimate
    max_i |full_i - half_i| / 15, with ``half`` two four-call steps of h/2,
    raises its worst error unless the estimate is NaN.  A row that
    ``domain_failure`` flags, at the start (step -1) or after a step, stops
    there; its samples from then on are NaN, the start aside.  A sample is
    kept after every ``save_every``-th step and after the last; with
    ``abort_on_failure`` the run ends after the first step, or at the start,
    at which a row fails.
    """
    X0 = np.asarray(X0, dtype=float)
    span = float(t_end) - float(t0)
    n_full = math.floor(span / dt + 1e-9)
    rem = span - n_full * dt
    n_steps = n_full + (1 if rem > 1e-12 else 0)
    live, failures = {}, {}
    for j, x in enumerate(X0):
        fail = domain_failure(sys, j, x.tolist(), -1, t0)
        if fail is None:
            live[j] = x
        else:
            failures[j] = fail
    err = [0.0] * len(X0)
    t = float(t0)
    ts, xs = [t], [X0.copy()]
    for k in range(n_steps):
        if abort_on_failure and failures:
            break
        h = dt if k < n_full else rem
        for j in sorted(live):
            x = live[j][None, :]
            full = rk4_four_calls(sys, x, t, h)[0]
            if k % 16 == 0 or k == n_steps - 1:
                mid = rk4_four_calls(sys, x, t, h / 2)
                half = rk4_four_calls(sys, mid, t + h / 2, h / 2)[0]
                gaps = [abs(a - b) for a, b in zip(full, half)]
                if not any(math.isnan(g) for g in gaps):
                    err[j] = max(err[j], max(gaps) / 15.0)
            live[j] = full
        t += h
        for j in sorted(live):
            fail = domain_failure(sys, j, live[j].tolist(), k, t)
            if fail is not None:
                failures[j] = fail
                del live[j]
        if (k + 1) % save_every == 0 or k + 1 == n_steps:
            sample = np.full(X0.shape, np.nan)
            for j, x in live.items():
                sample[j] = x
            ts.append(t)
            xs.append(sample)
    return np.array(ts), np.array(xs), np.array(err), failures


def matrix_at(mat, x, t=None) -> np.ndarray:
    """An ``ExprMatrix`` at one point."""
    return np.array([[evaluate(e, x, t) for e in row] for row in mat.entries])


def patterns_at(jb, x, t=None, tie_tol: float = TIE_TOL) -> list:
    """Active branch patterns at one point; several when guards tie.

    A guard ties when |a−b| ≤ tie_tol·(1+|a|+|b|); every pattern
    consistent with the tie set is returned, in ``itertools.product``
    order.  A NaN gap a−b (a NaN value, or a = b = ±inf) neither ties nor
    picks a side by comparison: the guard takes its left.
    """
    options = []
    for g in jb.guards:
        a = evaluate(g.a, x, t)
        b = evaluate(g.b, x, t)
        if math.isnan(a - b):
            options.append(("left",))
        elif abs(a - b) <= tie_tol * (1.0 + abs(a) + abs(b)):
            options.append(("left", "right"))
        else:
            take_left = (a < b) if isinstance(g, Min) else (a > b)
            options.append(("left",) if take_left else ("right",))
    return list(product(*options))


def partition_groups(jb, X, tie_tol: float = TIE_TOL) -> list:
    """The rows of X grouped by the tie rule, in pure Python:
    ``[(rows, tied, patterns)]`` as ``certify.partition`` gives them.

    Each row's key has one entry per guard, from its a and b at the row:
    2 where the guard ties (|a−b| ≤ tie_tol·(1+|a|+|b|)), else 1 where it
    takes the right side (a−b ≥ 0 for ``min``, a−b ≤ 0 for ``max``) and 0
    otherwise, so a NaN gap takes the left.  Python's stable sort orders
    the rows by key tuple, and the rows of equal keys form a group, in
    their order in X; a tied guard takes both sides, in
    ``itertools.product`` order.
    """
    keys = []
    for x in X:
        key = []
        for g in jb.guards:
            a, b = evaluate(g.a, x), evaluate(g.b, x)
            if abs(a - b) <= tie_tol * (1.0 + abs(a) + abs(b)):
                key.append(2)
            else:
                key.append(int(a - b >= 0 if isinstance(g, Min)
                               else a - b <= 0))
        keys.append(tuple(key))
    groups: dict = {}
    for r in sorted(range(len(keys)), key=keys.__getitem__):
        groups.setdefault(keys[r], []).append(r)
    sides = ("left", "right")
    return [(rows, 2 in key,
             list(product(*[sides if d == 2 else (sides[d],) for d in key])))
            for key, rows in groups.items()]


def synthesis_rows(sys, jb, box, res, mode, degree, eps,
                   strict_radius=math.inf) -> tuple:
    """The rows and right-hand sides of the synthesis LP, before dedupe.

    The variables are the coefficients c_{i,k} of x_i^k in weight i, at
    column i * (degree + 1) + k, then the margin s; ``degree`` None is the
    constant-vector LP (one coefficient per weight, no positivity or
    equilibrium rows).  At every point x of the C-order linspace grid of
    ``res`` points per axis, and every branch pattern active there,
    condition component j gives the row  cond_j(x) + s * strict(x) <= 0:
    cond_j is sum_i theta_i J_ij + theta_j' f_j (mode "sum") or
    sum_i J_ji omega_i - omega_j' f_j (mode "max"), and strict(x) is 1
    within ``strict_radius`` of x* in sup norm, else 0.  The positivity
    rows  -theta_i(a) <= -eps  run over each axis's grid, and the
    equilibrium rows  cond_j(x*) <= -eps  over the patterns at x*.
    """
    n = sys.n
    d1 = 1 if degree is None else degree + 1
    n_vars = n * d1 + 1
    xstar = [float(v) for v in sys.equilibrium]
    axes = [np.linspace(lo, hi, res) for lo, hi in zip(box.lows, box.highs)]
    rows, rhs = [], []

    def conditions(x, strict, bound):
        f = None if degree is None else field_at(sys, x)
        for pattern in patterns_at(jb, x):
            J = matrix_at(jb.branch_matrix(pattern), x)
            for j in range(n):
                row = [0.0] * n_vars
                for i in range(n):
                    coupling = J[i][j] if mode == "sum" else J[j][i]
                    for k in range(d1):
                        row[i * d1 + k] = coupling * x[i] ** k
                if degree is not None:
                    sign = 1.0 if mode == "sum" else -1.0
                    for k in range(1, d1):
                        row[j * d1 + k] += sign * k * x[j] ** (k - 1) * f[j]
                row[-1] = strict
                rows.append(row)
                rhs.append(bound)

    for x in product(*axes):
        x = [float(v) for v in x]
        near = max(abs(a - b) for a, b in zip(x, xstar)) <= strict_radius
        conditions(x, 1.0 if degree is None or near else 0.0, 0.0)
    if degree is not None:
        for i, ax in enumerate(axes):
            for a in ax:
                row = [0.0] * n_vars
                for k in range(d1):
                    row[i * d1 + k] = -float(a) ** k
                rows.append(row)
                rhs.append(-eps)
        conditions(xstar, 0.0, -eps)
    return np.array(rows), np.array(rhs)


def char_poly(A: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda*I - A), descending, by Faddeev-LeVerrier."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    c = 1.0
    for k in range(1, n + 1):
        M = A @ M + c * np.eye(n)
        c = -np.trace(A @ M) / k
        coeffs.append(c)
    return np.array(coeffs)


def poly_roots(coeffs, tol: float = 1e-13, max_iter: int = 1000) -> np.ndarray:
    """All complex roots of a polynomial by Durand-Kerner iteration."""
    coeffs = np.asarray(coeffs, dtype=complex)
    coeffs = coeffs / coeffs[0]
    n = len(coeffs) - 1
    if n == 0:
        return np.array([], dtype=complex)
    bound = 1.0 + float(np.max(np.abs(coeffs[1:])))
    z = bound * (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(max_iter):
        p = np.polyval(coeffs, z)
        denom = np.empty_like(z)
        for i in range(n):
            denom[i] = np.prod(z[i] - np.delete(z, i))
        step = p / denom
        z = z - step
        if np.max(np.abs(step)) < tol:
            break
    return z


def eigvals_oracle(A: np.ndarray) -> np.ndarray:
    return poly_roots(char_poly(A))


def spectral_abscissa(A: np.ndarray) -> float:
    return float(np.max(eigvals_oracle(A).real))


def is_hurwitz(A: np.ndarray) -> bool:
    return spectral_abscissa(A) < 0.0


def mu_limit(A: np.ndarray, ord, h: float = 1e-8) -> float:
    """Matrix measure from the defining one-sided limit quotient."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    return float((np.linalg.norm(np.eye(n) + h * A, ord) - 1.0) / h)


def scaled_jacobian_at(fam, J, x, f) -> np.ndarray:
    """Theta J Theta^-1 + diag(Theta' f) Theta^-1 at one point, by matrix
    products with ``np.diag`` and ``np.linalg.inv``.

    Theta_ii is theta_i(x_i) for a theta family and 1/omega_i(x_i) for an
    omega family.  Each weight and its derivative are summed term by term in
    Python floats, and every reciprocal goes through the quotient rule.
    """
    th, dth = [], []
    for comp, xi in zip(fam.components, x):
        xi = float(xi)
        p = sum(c * xi ** k for k, c in enumerate(comp.coeffs))
        dp = sum(k * c * xi ** (k - 1)
                 for k, c in enumerate(comp.coeffs) if k)
        if comp.reciprocal:
            p, dp = 1.0 / p, -dp / (p * p)
        if fam.kind == "omega":
            p, dp = 1.0 / p, -dp / (p * p)
        th.append(p)
        dth.append(dp)
    T = np.diag(th)
    T_inv = np.linalg.inv(T)
    return T @ np.asarray(J) @ T_inv + np.diag(np.asarray(dth) * f) @ T_inv


def worst_entry(m: int, blocks) -> tuple:
    """The worst entry of condition blocks by an argmax-first scan:
    (row, component, value).

    ``blocks`` lists (rows, cond), cond[c][k] being component c at row
    rows[k]; a row may lie in several blocks (its tied branches), and the
    blocks cover rows 0..m-1.  The scan visits the rows in order, at each
    row its blocks in list order, in each block the components in order.
    An entry replaces the worst so far when it is larger, or when it is a
    NaN and the worst so far is not, so the first entry attaining the worst
    value wins and its value is returned as it is, zero sign included.
    """
    best = None
    for r in range(m):
        for rows, cond in blocks:
            hits = [k for k, row in enumerate(rows) if row == r]
            for k in hits:
                for c in range(len(cond)):
                    v = float(cond[c][k])
                    if best is None or v > best[2] or (
                            math.isnan(v) and not math.isnan(best[2])):
                        best = (r, c, v)
    return best


def parse_expr_rd(text: str, state_names) -> object:
    """``text`` parsed by recursive descent over the grammar

        expr   := term (('+' | '-') term)*
        term   := factor (('*' | '/') factor)*
        factor := '-' factor | power
        power  := atom ('^' digits)?
        atom   := number | 't' | state | '(' expr ')'
                | ('exp' | 'sin' | 'cos' | 'abs') '(' expr ')'
                | ('min' | 'max') '(' expr ',' expr ')'

    where a '-' right before a literal folds into it unless the literal is
    the base of '^', and ``abs(e)`` is ``max(e, -e)``.  It recurses on
    depth, as a grammar read straight does, and raises the ``DslError`` the
    package gives for a bad input.  The tokens are the package's
    (``sysdsl._tokenize``): this is a reference for the parser only.
    """
    toks = _tokenize(text)
    index = {name: i for i, name in enumerate(state_names)}
    pos = 0

    def got(tok) -> str:
        return repr(tok.text if tok.text else tok.kind)

    def is_punct(tok, text) -> bool:
        return tok.kind == "PUNCT" and tok.text == text

    def take():
        nonlocal pos
        tok = toks[pos]
        if tok.kind != "EOF":
            pos += 1
        return tok

    def expect(text):
        tok = take()
        if not is_punct(tok, text):
            raise DslError(f"expected {text!r}, got {got(tok)}",
                           tok.line, tok.col)

    def expr():
        node = term()
        while is_punct(toks[pos], "+") or is_punct(toks[pos], "-"):
            op = take().text
            node = (Add if op == "+" else Sub)(node, term())
        return node

    def term():
        node = factor()
        while is_punct(toks[pos], "*") or is_punct(toks[pos], "/"):
            op = take().text
            node = (Mul if op == "*" else Div)(node, factor())
        return node

    def factor():
        if not is_punct(toks[pos], "-"):
            return power()
        take()
        if toks[pos].kind == "NUM" and not is_punct(toks[pos + 1], "^"):
            return Const(-float(take().text))
        return Neg(factor())

    def power():
        base = atom()
        if not is_punct(toks[pos], "^"):
            return base
        take()
        tok = take()
        if tok.kind != "NUM":
            raise DslError(f"expected 'NUM', got {got(tok)}",
                           tok.line, tok.col)
        if any(ch in tok.text for ch in ".eE"):
            raise DslError("exponent must be a nonnegative integer",
                           tok.line, tok.col)
        return Pow(base, int(tok.text))

    def call(name):
        expect("(")
        a = expr()
        if name in ("min", "max"):
            expect(",")
            b = expr()
            expect(")")
            return (Min if name == "min" else Max)(a, b)
        expect(")")
        if name == "abs":
            return Max(a, Neg(a))
        return {"exp": Exp, "sin": Sin, "cos": Cos}[name](a)

    def atom():
        tok = take()
        if tok.kind == "NUM":
            return Const(float(tok.text))
        if is_punct(tok, "("):
            node = expr()
            expect(")")
            return node
        if tok.kind != "IDENT":
            raise DslError(f"expected an expression, got {got(tok)}",
                           tok.line, tok.col)
        if tok.text == "t":
            return TimeVar()
        if tok.text in ("exp", "sin", "cos", "abs", "min", "max"):
            return call(tok.text)
        if tok.text in index:
            return Var(index[tok.text])
        raise DslError(f"unknown identifier {tok.text!r}", tok.line, tok.col)

    node = expr()
    while toks[pos].kind == "NEWLINE":
        pos += 1
    if toks[pos].kind != "EOF":
        raise DslError(f"unexpected trailing {toks[pos].text!r}",
                       toks[pos].line, toks[pos].col)
    return node
