"""Separable Lyapunov functions built from certified weights.

A positive sum-type family theta gives two l1-flavoured candidates:

* state-sum:  V(x) = sum_i | integral from xstar_i to x_i of theta_i(s) ds |
* flow-sum:   V(x) = sum_i theta_i(x_i) |f_i(x)|

A positive max-type family omega gives the linf analogues (the metric
density along coordinate i is 1/omega_i):

* state-max:  V(x) = max_i | integral from xstar_i to x_i of ds/omega_i(s) |
* flow-max:   V(x) = max_i |f_i(x)| / omega_i(x_i)

State variants decrease globally on the certified region; flow variants are
local statements near x* unless the uniform "<= -eps everywhere" addendum
was certified, in which case pass ``uniform=True`` to record global scope.
Building a candidate applies only the checks' positivity rule, at x*; it
certifies nothing — run the checks first.

Each quantity has one batched routine: ``_distance`` is the separable
Finsler distance of paired states, aggregating per-coordinate integrals of
the metric density (sum for l1, max for linf), and ``_flow_norm`` the
weighted norm of f.  State variants are the distance to x*, flow variants
the flow norm, and ``weighted_distance`` is the one-pair distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .certify import _Grid, _positivity_check
from .measures import (NORM_KIND, PAIRING, WeightComponent, WeightFamily,
                       _poly_text)
from .sysdsl import SystemDef, format_number

__all__ = ["LyapFn", "LyapError", "build_lyapunov",
           "weighted_distance", "VARIANTS"]

VARIANTS = ("state-sum", "flow-sum", "state-max", "flow-max")

_GL_NODES = 32


class LyapError(ValueError):
    """Incompatible weight kind/variant or malformed request."""


@lru_cache(maxsize=1)
def _gl_rule():
    return np.polynomial.legendre.leggauss(_GL_NODES)


# ---------------------------------------------------------------------------
# Per-coordinate metric density and its antiderivative
# ---------------------------------------------------------------------------

class _Density:
    """Metric density rho_i(s) for one coordinate: theta_i or 1/omega_i.

    Polynomial densities integrate exactly through their antiderivative;
    anything else falls back to 32-node Gauss-Legendre quadrature on
    [base, x], which is exact well past the polynomial degrees in play and
    accurate to machine precision for the smooth reciprocal densities.
    """

    def __init__(self, comp: WeightComponent, kind: str):
        # density is theta_i for sum-type weights, 1/omega_i for max-type
        invert = (kind == "omega")
        poly_density = comp.reciprocal == invert
        if poly_density:
            self._anti = P.polyint(np.asarray(comp.coeffs, dtype=float))
        else:
            # either omega = p (density 1/p) or theta = 1/p (density 1/p)
            self._anti = None
            self._fn = lambda s: 1.0 / comp.poly_value(s)

    def integral(self, x, base) -> np.ndarray:
        """integral from base to x of rho(s) ds, elementwise over x and base."""
        x = np.asarray(x, dtype=float)
        if self._anti is not None:
            return P.polyval(x, self._anti) - P.polyval(base, self._anti)
        nodes, wts = _gl_rule()
        half = (x - base) / 2.0
        mid = (x + base) / 2.0
        s = half[..., None] * nodes + mid[..., None]
        return half * np.sum(wts * self._fn(s), axis=-1)

    def describe(self, var: str, base: float) -> Optional[str]:
        """Closed form of the integral from base when polynomial, else None."""
        if self._anti is None:
            return None
        return _poly_text(P.polysub(self._anti, P.polyval(base, self._anti)),
                          var)


def _densities(family: WeightFamily) -> tuple:
    return tuple(_Density(c, family.kind) for c in family.components)


def _distance(densities: tuple, norm: str, X, Y) -> np.ndarray:
    """Separable distance between paired states X and Y of shape (..., n):
    the sum (l1) or max (linf) of |integral from y_i to x_i of rho_i|."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    T = np.stack([np.abs(d.integral(X[..., i], Y[..., i]))
                  for i, d in enumerate(densities)], axis=-1)
    return np.sum(T, axis=-1) if norm == "l1" else np.max(T, axis=-1)


def _flow_norm(sys: SystemDef, family: WeightFamily, norm: str,
               X) -> np.ndarray:
    """Weighted norm of the vector field at states X (..., n) -> (...):
    theta_i |f_i| or |f_i| / omega_i, summed (l1) or maxed (linf)."""
    X = np.asarray(X, dtype=float)
    flat = X.reshape(-1, X.shape[-1])
    F = np.abs(sys.f_batch(flat))
    w = family.axis_values(flat)
    T = w * F if family.kind == "theta" else F / w
    out = np.sum(T, axis=1) if norm == "l1" else np.max(T, axis=1)
    return out.reshape(X.shape[:-1])


# ---------------------------------------------------------------------------
# Lyapunov candidate
# ---------------------------------------------------------------------------

@dataclass
class LyapFn:
    """A separable Lyapunov candidate V with its provenance.

    ``scope`` records what the accompanying certificates justify: state
    variants are global on the certified region; flow variants are local
    unless built with ``uniform=True``.
    """
    variant: str
    scope: str
    weights: WeightFamily
    xstar: tuple
    sys: SystemDef
    _densities: tuple

    @property
    def n(self) -> int:
        return len(self.xstar)

    def value(self, x: Sequence[float]) -> float:
        return float(self.evaluate_batch(np.asarray([list(map(float, x))]))[0])

    def __call__(self, x: Sequence[float]) -> float:
        return self.value(x)

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise LyapError(f"expected points of dimension {self.n}")
        norm = PAIRING[self.variant.split("-")[1]][1]
        if self.variant.startswith("state"):
            return _distance(self._densities, norm, X, self.xstar)
        return _flow_norm(self.sys, self.weights, norm, X)

    def describe(self) -> str:
        names = self.sys.state_names
        if self.variant.startswith("state"):
            parts = []
            for i, d in enumerate(self._densities):
                closed = d.describe(names[i], self.xstar[i])
                if closed is None:
                    dens = ("1/(" + self.weights.components[i].describe(names[i]) + ")")
                    parts.append(f"|int_{format_number(self.xstar[i])}^{names[i]} {dens} ds|")
                else:
                    parts.append(f"|{closed}|")
        else:
            parts = []
            for i in range(self.n):
                wdesc = self.weights.components[i].describe(names[i])
                if self.weights.kind == "theta":
                    parts.append(f"({wdesc})*|f_{names[i]}|"
                                 if not self.weights.components[i].is_constant
                                 else f"{wdesc}*|f_{names[i]}|")
                else:
                    parts.append(f"|f_{names[i]}|/({wdesc})")
        joiner = " + " if self.variant.endswith("sum") else ", "
        body = joiner.join(parts)
        if self.variant.endswith("max"):
            body = f"max{{{body}}}"
        return f"V(x) = {body}"

    def to_jsonable(self) -> dict:
        return {
            "variant": self.variant,
            "scope": self.scope,
            "weights": self.weights.to_jsonable(),
            "equilibrium": list(self.xstar),
            "system": self.sys.name,
            "pretty": self.describe(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2)


def build_lyapunov(sys: SystemDef, w: WeightFamily, variant: str,
                   uniform: bool = False) -> LyapFn:
    """Assemble the separable candidate for the given weights and variant.

    Sum variants take a theta family, max variants an omega family; the
    cross pairings have no meaning here and raise.  ``uniform`` marks a
    flow variant as globally valid (only do this after certifying the
    uniform-negativity addendum).  Weights that break the checks' one
    positivity rule at x*, where every variant is anchored, raise the
    checks' ``CertifyError``.
    """
    if variant not in VARIANTS:
        raise LyapError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    need = PAIRING[variant.split("-")[1]][0]   # variant: "<form>-<mode>"
    if w.kind != need:
        raise LyapError(
            f"variant {variant!r} needs kind {need!r} weights, got {w.kind!r}")
    if w.n != sys.n:
        raise LyapError("weight dimension mismatch")
    if sys.equilibrium is None:
        raise LyapError("system has no declared equilibrium")
    xstar = tuple(float(v) for v in sys.equilibrium)
    _positivity_check(w, _Grid.at(xstar))
    if variant.startswith("state"):
        scope = "global"
    else:
        scope = "global" if uniform else "local"
    return LyapFn(variant=variant, scope=scope, weights=w, xstar=xstar,
                  sys=sys, _densities=_densities(w))


# ---------------------------------------------------------------------------
# The underlying weighted distance
# ---------------------------------------------------------------------------

def weighted_distance(family: WeightFamily, x: Sequence[float],
                      y: Sequence[float], norm: str = "l1") -> float:
    """Separable weighted distance between two points.

    l1 uses a theta family: d = sum_i |int_{y_i}^{x_i} theta_i|.
    linf uses an omega family: d = max_i |int_{y_i}^{x_i} 1/omega_i|.
    """
    kind = NORM_KIND.get(norm)
    if kind is None:
        raise LyapError(f"norm must be 'l1' or 'linf', got {norm!r}")
    if family.kind != kind:
        article = "an" if kind == "omega" else "a"
        raise LyapError(f"{norm} distance requires {article} {kind} family")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (family.n,) or y.shape != (family.n,):
        raise LyapError("point dimension mismatch")
    return float(_distance(_densities(family), norm, x, y))
