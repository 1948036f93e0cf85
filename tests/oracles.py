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
for both.  The worst entry of condition blocks is found by an
argmax-first scan in Python floats, one entry at a time, where the package
locates rows on numpy maxima first.  The RK4 references are the four-call
form of a step over ``f_batch`` (bit for bit what the step kernel must
give) and one step of one point in Python floats.
"""

import math
from itertools import product

import numpy as np

from monocert.sim import INVARIANCE_TOL
from monocert.sysdsl import (TIE_TOL, Add, Const, Cos, Div, Exp, Max, Min,
                             Mul, Neg, Pow, Sin, Sub, TimeVar, Var)


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


def matrix_at(mat, x, t=None) -> np.ndarray:
    """An ``ExprMatrix`` at one point."""
    return np.array([[evaluate(e, x, t) for e in row] for row in mat.entries])


def patterns_at(jb, x, t=None, tie_tol: float = TIE_TOL) -> list:
    """Active branch patterns at one point; several when guards tie.

    A guard ties when |a−b| ≤ tie_tol·(1+|a|+|b|); every pattern
    consistent with the tie set is returned, in ``itertools.product``
    order.
    """
    options = []
    for g in jb.guards:
        a = evaluate(g.a, x, t)
        b = evaluate(g.b, x, t)
        if abs(a - b) <= tie_tol * (1.0 + abs(a) + abs(b)):
            options.append(("left", "right"))
        else:
            take_left = (a < b) if g.is_min else (a > b)
            options.append(("left",) if take_left else ("right",))
    return list(product(*options))


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
