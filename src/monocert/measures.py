"""Matrix measures, Metzler structure, and diagonal state-dependent scalings.

The two measures used throughout are the ones induced by the l1 and linf
vector norms:

    mu1(A)   = max_j ( A[j,j] + sum_{i != j} |A[i,j]| )   (column-wise)
    muinf(A) = max_i ( A[i,i] + sum_{j != i} |A[i,j]| )   (row-wise)

Both upper-bound the real part of every eigenvalue, are subadditive and
positively homogeneous, and for Metzler matrices reduce to plain column/row
sums.  A negative measure certifies Hurwitz stability — that one-sided
implication is what all the certification checks are built on.

:class:`WeightFamily` holds per-coordinate scalar weights (constants,
polynomials, or reciprocals of polynomials in the single coordinate) and
knows how to build the scaled Jacobian

    Jtilde = Thetadot * Theta^-1 + Theta * J * Theta^-1

for a diagonal Theta(x) = diag(theta_i(x_i)) along a vector field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "mu1", "mu_inf", "is_metzler", "WeightComponent", "WeightFamily",
    "weighted_jacobian",
]


def mu1(A: np.ndarray) -> float:
    """l1-induced matrix measure (column sums with off-diagonal magnitudes)."""
    A = np.asarray(A, dtype=float)
    d = np.diag(A)
    col = np.sum(np.abs(A), axis=0) - np.abs(d) + d
    return float(np.max(col))


def mu_inf(A: np.ndarray) -> float:
    """linf-induced matrix measure (row sums with off-diagonal magnitudes)."""
    A = np.asarray(A, dtype=float)
    d = np.diag(A)
    row = np.sum(np.abs(A), axis=1) - np.abs(d) + d
    return float(np.max(row))


def is_metzler(A: np.ndarray, tol: float = 1e-9) -> bool:
    """True when every off-diagonal entry is >= -tol."""
    A = np.asarray(A, dtype=float)
    off = A - np.diag(np.diag(A))
    return bool(np.min(off) >= -tol)


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightComponent:
    """One coordinate's weight: a polynomial p(x) or a reciprocal 1/p(x).

    Coefficients are ascending (coeffs[k] multiplies x^k).
    """
    coeffs: tuple
    reciprocal: bool = False
    # derivative coefficients, kept per instance rather than in a dict keyed
    # on coeffs, where 0.0 == -0.0 would share them between components
    _dcoeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a weight component needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_dcoeffs",
                           P.polyder(np.asarray(cs)) if len(cs) > 1
                           else np.zeros(1))

    @property
    def is_constant(self) -> bool:
        return all(c == 0.0 for c in self.coeffs[1:])

    @property
    def degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.coeffs):
            if c != 0.0:
                deg = k
        return deg

    def poly_value(self, x) -> np.ndarray:
        return P.polyval(np.asarray(x, dtype=float), self.coeffs)

    def value(self, x) -> np.ndarray:
        v = self.poly_value(x)
        return 1.0 / v if self.reciprocal else v

    def deriv(self, x) -> np.ndarray:
        dv = P.polyval(np.asarray(x, dtype=float), self._dcoeffs)
        if self.reciprocal:
            p = self.poly_value(x)
            return -dv / (p * p)
        return dv

    def to_jsonable(self) -> Union[list, dict]:
        if self.reciprocal:
            return {"reciprocal": list(self.coeffs)}
        return list(self.coeffs)

    @staticmethod
    def from_jsonable(obj) -> "WeightComponent":
        if isinstance(obj, dict):
            if set(obj.keys()) != {"reciprocal"}:
                raise ValueError(f"bad weight component {obj!r}")
            return WeightComponent(tuple(obj["reciprocal"]), reciprocal=True)
        if isinstance(obj, (int, float)):
            return WeightComponent((float(obj),))
        return WeightComponent(tuple(obj))

    def describe(self, var: str) -> str:
        if self.is_constant:
            body = _fmt(self.coeffs[0])
        else:
            terms = []
            for k, c in enumerate(self.coeffs):
                if c == 0.0:
                    continue
                if k == 0:
                    terms.append(_fmt(c))
                elif k == 1:
                    terms.append(f"{_fmt(c)}*{var}" if c != 1.0 else var)
                else:
                    head = f"{_fmt(c)}*" if c != 1.0 else ""
                    terms.append(f"{head}{var}^{k}")
            body = " + ".join(terms) if terms else "0"
        if self.reciprocal:
            return f"1/({body})"
        return body


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


@dataclass(frozen=True)
class WeightFamily:
    """Per-coordinate weights of a given kind.

    kind 'theta' scales sum-type (l1) constructions and requires
    theta_i(x_i) >= c > 0 on the working region; kind 'omega' scales
    max-type (linf) constructions and requires 0 < omega_i(x_i) <= c.
    The diagonal scaling used for the generalized Jacobian is
    Theta = diag(theta_i) for 'theta' and Theta = diag(1/omega_i) for
    'omega'.
    """
    kind: str
    components: tuple

    def __post_init__(self):
        if self.kind not in ("theta", "omega"):
            raise ValueError(f"kind must be 'theta' or 'omega', got {self.kind!r}")
        comps = tuple(c if isinstance(c, WeightComponent)
                      else WeightComponent.from_jsonable(c)
                      for c in self.components)
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for c in self.components)

    def constants(self) -> Optional[np.ndarray]:
        if not self.is_constant:
            return None
        return np.array([c.value(0.0) for c in self.components], dtype=float)

    def value(self, i: int, xi) -> np.ndarray:
        return self.components[i].value(xi)

    def deriv(self, i: int, xi) -> np.ndarray:
        return self.components[i].deriv(xi)

    def values(self, x: Sequence[float]) -> np.ndarray:
        return np.array([float(c.value(v)) for c, v in zip(self.components, x)])

    def theta_diag(self, x: Sequence[float]) -> np.ndarray:
        """Diagonal of Theta(x) (reciprocal of the weights for kind 'omega')."""
        vals = self.values(x)
        return 1.0 / vals if self.kind == "omega" else vals

    def theta_diag_deriv(self, x: Sequence[float]) -> np.ndarray:
        """d Theta_ii / d x_i at x."""
        if self.kind == "omega":
            w = self.values(x)
            dw = np.array([float(c.deriv(v))
                           for c, v in zip(self.components, x)])
            return -dw / (w * w)
        return np.array([float(c.deriv(v))
                         for c, v in zip(self.components, x)])

    def metric_density(self, i: int, xi) -> np.ndarray:
        """Integrand of the induced coordinate distance (theta_i or 1/omega_i)."""
        v = self.components[i].value(xi)
        return 1.0 / v if self.kind == "omega" else v

    def to_jsonable(self) -> dict:
        return {"kind": self.kind,
                "weights": [c.to_jsonable() for c in self.components]}

    @staticmethod
    def from_jsonable(obj: dict) -> "WeightFamily":
        if not isinstance(obj, dict) or "kind" not in obj or "weights" not in obj:
            raise ValueError("weight JSON needs 'kind' and 'weights' fields")
        comps = tuple(WeightComponent.from_jsonable(w) for w in obj["weights"])
        return WeightFamily(obj["kind"], comps)

    @staticmethod
    def constant(kind: str, values: Sequence[float]) -> "WeightFamily":
        return WeightFamily(kind, tuple(WeightComponent((float(v),))
                                        for v in values))

    def describe(self, names: Optional[Sequence[str]] = None) -> str:
        vars_ = (names if names is not None
                 else [f"x{i+1}" for i in range(self.n)])
        inner = ", ".join(c.describe(v) for c, v in zip(self.components, vars_))
        return f"{self.kind} = ({inner})"


def weighted_jacobian(J: np.ndarray, weights: WeightFamily,
                      x: Sequence[float], f_at_x: Sequence[float]) -> np.ndarray:
    """Scaled Jacobian Thetadot Theta^-1 + Theta J Theta^-1 at one point.

    ``J`` is the (branch-resolved) Jacobian at ``x`` and ``f_at_x`` the
    vector field value there — passing f explicitly keeps this purely
    numeric.  Theta is the diagonal scaling of ``weights`` and
    Thetadot_ii = (d Theta_ii / d x_i) * f_i(x).
    """
    J = np.asarray(J, dtype=float)
    f = np.asarray(f_at_x, dtype=float)
    th = weights.theta_diag(x)
    dth = weights.theta_diag_deriv(x)
    if np.any(th <= 0.0):
        raise ValueError("diagonal scaling must stay positive on the domain")
    out = (th[:, None] / th[None, :]) * J
    out[np.diag_indices_from(out)] += dth * f / th
    return out
