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
polynomials, or reciprocals of polynomials in the single coordinate).
``_scaled_jacobian`` is the one routine that builds

    Jtilde = Thetadot * Theta^-1 + Theta * J * Theta^-1

for Theta(x) = diag(theta_i(x_i)), or diag(1/omega_i(x_i)), along a
vector field, and ``_measure_terms`` the one that reads the measure's
column or row terms off it.  Both take matrices points-last: an (n, n)
matrix, or (n, n, m) for m points, with (n,) or (n, m) vectors beside it,
so every numpy call runs along the long point axis.  ``mu1``, ``mu_inf``
and ``weighted_jacobian`` are their calls without a point axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as P

from .sysdsl import format_number

__all__ = [
    "mu1", "mu_inf", "is_metzler", "WeightComponent", "WeightFamily",
    "weighted_jacobian",
]


# The one positivity rule of every weighted check: each weight is finite and
# greater than this on the region checked (certify's axis grids, or the one
# point of ``weighted_jacobian``).
POSITIVITY_TOL = 1e-12


def _diagonal(A: np.ndarray) -> np.ndarray:
    """The diagonal of (n, n, ...) matrices, (n, ...): a view when A is
    C-contiguous, whose rows are contiguous in a points-last stack."""
    n = A.shape[0]
    return A.reshape((n * n,) + A.shape[2:])[::n + 1]


def _measure_terms(A: np.ndarray, norm: str) -> np.ndarray:
    """Column (l1) or row (linf) terms of the measure of matrices (n, n, ...):
    the diagonal entry plus the off-diagonal magnitudes, shape (n, ...).
    Their max is mu."""
    d = _diagonal(A)
    return np.sum(np.abs(A), axis=0 if norm == "l1" else 1) - np.abs(d) + d


def mu1(A: np.ndarray) -> float:
    """l1-induced matrix measure (column sums with off-diagonal magnitudes)."""
    return float(np.max(_measure_terms(np.asarray(A, dtype=float), "l1")))


def mu_inf(A: np.ndarray) -> float:
    """linf-induced matrix measure (row sums with off-diagonal magnitudes)."""
    return float(np.max(_measure_terms(np.asarray(A, dtype=float), "linf")))


def is_metzler(A: np.ndarray, tol: float = 1e-9) -> bool:
    """True when every off-diagonal entry is >= -tol."""
    A = np.asarray(A, dtype=float)
    off = A - np.diag(np.diag(A))
    return bool(np.min(off) >= -tol)


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------

def _poly_text(coeffs, var: str) -> str:
    """Ascending ``coeffs`` as "c0 + c1*x + c2*x^2": zero terms (0.0 and
    -0.0) dropped, unit factors left out, "0" when no term is left."""
    terms = []
    for k, c in enumerate(coeffs):
        c = float(c)
        if c == 0.0:
            continue
        if k == 0:
            terms.append(format_number(c))
        elif k == 1:
            terms.append(f"{format_number(c)}*{var}" if c != 1.0 else var)
        else:
            head = f"{format_number(c)}*" if c != 1.0 else ""
            terms.append(f"{head}{var}^{k}")
    return " + ".join(terms) if terms else "0"


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
        body = (format_number(self.coeffs[0]) if self.is_constant
                else _poly_text(self.coeffs, var))
        if self.reciprocal:
            return f"1/({body})"
        return body


# The paper's pairings, by condition mode, for every module: sum-type (thm1,
# cor1) takes theta weights and the l1 norm, max-type omega and linf.
PAIRING = {"sum": ("theta", "l1"), "max": ("omega", "linf")}
NORM_KIND = {norm: kind for kind, norm in PAIRING.values()}


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

    def axis_values(self, X, deriv: bool = False) -> np.ndarray:
        """Weights (or with ``deriv`` their derivatives) at states X of
        shape (..., n): entry i is component i at coordinate i."""
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for i, comp in enumerate(self.components):
            xi = X[..., i]
            out[..., i] = comp.deriv(xi) if deriv else comp.value(xi)
        return out

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


def _scaled_jacobian(kind: str, J: np.ndarray, w: np.ndarray, dw: np.ndarray,
                     F: np.ndarray) -> np.ndarray:
    """Theta J Theta^-1 + Thetadot Theta^-1, shape (n, n, ...) as ``J``.

    ``J`` is one (n, n) Jacobian or (n, n, m) at m points; ``w``, ``dw``
    and ``F`` are the (n,) or (n, m) weights of kind ``kind``, their
    derivatives and the vector field.  Theta = diag(w) for 'theta' and
    diag(1/w) for 'omega', and Thetadot_ii = (d Theta_ii / d x_i) * f_i.
    """
    if kind == "omega":
        dw = -dw / (w * w)
        w = 1.0 / w
    # C order, so that the diagonal written below is a view of out
    out = np.multiply(w[:, None] / w[None, :], J, order="C")
    _diagonal(out)[...] += dw * F / w
    return out


def weighted_jacobian(J: np.ndarray, weights: WeightFamily,
                      x: Sequence[float], f_at_x: Sequence[float]) -> np.ndarray:
    """Scaled Jacobian Thetadot Theta^-1 + Theta J Theta^-1 at one point.

    ``J`` is the (branch-resolved) Jacobian at ``x`` and ``f_at_x`` the
    vector field value there — passing f explicitly keeps this purely
    numeric.  Theta is the diagonal scaling of ``weights`` and
    Thetadot_ii = (d Theta_ii / d x_i) * f_i(x).  Weights that are not
    finite and greater than ``POSITIVITY_TOL`` at ``x`` raise ValueError.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):   # a refusal prints no warning
        w = weights.axis_values(x)
        dw = weights.axis_values(x, deriv=True)
    if not np.all(np.isfinite(w) & (w > POSITIVITY_TOL)):
        raise ValueError(f"{weights.kind} weights must be finite and positive "
                         f"(> {POSITIVITY_TOL:g}) at x={x.tolist()}")
    return _scaled_jacobian(weights.kind, np.asarray(J, dtype=float), w, dw,
                            np.asarray(f_at_x, dtype=float))
