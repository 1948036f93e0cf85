"""Matrix measures and diagonal weight families, checked against the
limit-quotient oracle and hand-derived values."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from monocert.lyap import _densities
from monocert.measures import (
    WeightComponent, WeightFamily, _scaled_jacobian, is_metzler, mu1, mu_inf,
    weighted_jacobian,
)

from conftest import random_family
from oracles import mu_limit, scaled_jacobian_at, spectral_abscissa


# ---------------------------------------------------------------------------
# mu1 / mu_inf
# ---------------------------------------------------------------------------

def test_mu_hand_values():
    A = np.array([[-2.0, 1.0], [1.0, -2.0]])
    assert mu1(A) == -1.0
    assert mu_inf(A) == -1.0
    B = np.array([[-1.0, 3.0], [0.0, -1.0]])
    assert mu1(B) == 2.0          # column 2: -1 + |3|
    assert mu_inf(B) == 2.0       # row 1:    -1 + |3|
    C = np.array([[0.0, -2.0], [0.5, -4.0]])
    assert mu1(C) == 0.5          # column 1: 0 + |0.5|
    assert mu_inf(C) == 2.0       # row 1:    0 + |-2|


def test_mu_matches_limit_quotient_oracle():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        for _ in range(20):
            A = rng.normal(scale=2.0, size=(n, n))
            assert mu1(A) == pytest.approx(mu_limit(A, ord=1), abs=1e-6)
            assert mu_inf(A) == pytest.approx(mu_limit(A, ord=np.inf), abs=1e-6)


def test_mu_transpose_duality():
    rng = np.random.default_rng(19)
    for _ in range(50):
        A = rng.normal(size=(4, 4))
        assert mu1(A) == pytest.approx(mu_inf(A.T), abs=1e-14)


def test_mu_measure_axioms():
    rng = np.random.default_rng(29)
    for _ in range(30):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        c = float(rng.uniform(0, 4))
        for mu in (mu1, mu_inf):
            # subadditivity and positive homogeneity
            assert mu(A + B) <= mu(A) + mu(B) + 1e-12
            assert mu(c * A) == pytest.approx(c * mu(A), abs=1e-12)
            # shift by a multiple of the identity moves the measure exactly
            assert mu(A + 2.5 * np.eye(3)) == pytest.approx(mu(A) + 2.5, abs=1e-12)
            # the measure dominates the spectral abscissa
            assert mu(A) >= spectral_abscissa(A) - 1e-7


def test_mu_equals_plain_sums_for_metzler():
    rng = np.random.default_rng(31)
    for _ in range(20):
        A = rng.uniform(0.0, 1.0, size=(4, 4))
        A[np.diag_indices(4)] = rng.uniform(-6.0, 0.0, size=4)
        assert is_metzler(A)
        assert mu1(A) == pytest.approx(np.max(np.sum(A, axis=0)), abs=1e-14)
        assert mu_inf(A) == pytest.approx(np.max(np.sum(A, axis=1)), abs=1e-14)


def test_is_metzler_tolerance():
    A = np.array([[-1.0, -1e-12], [0.0, -1.0]])
    assert is_metzler(A)
    assert not is_metzler(A, tol=1e-13)
    assert not is_metzler(np.array([[0.0, -1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# WeightComponent
# ---------------------------------------------------------------------------

def test_component_value_and_deriv_polynomial():
    comp = WeightComponent((1.0, 2.0, 3.0))  # 1 + 2x + 3x^2
    xs = np.array([0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(comp.value(xs), 1 + 2 * xs + 3 * xs**2)
    np.testing.assert_allclose(comp.deriv(xs), 2 + 6 * xs)
    assert comp.degree == 2
    assert not comp.is_constant


def test_component_reciprocal():
    comp = WeightComponent((1.0, 1.0), reciprocal=True)  # 1/(1+x)
    xs = np.array([0.0, 1.0, 3.0])
    np.testing.assert_allclose(comp.value(xs), 1.0 / (1.0 + xs))
    np.testing.assert_allclose(comp.deriv(xs), -1.0 / (1.0 + xs) ** 2)


def test_component_deriv_matches_numeric():
    rng = np.random.default_rng(37)
    for _ in range(20):
        coeffs = tuple(rng.uniform(0.5, 2.0, size=rng.integers(1, 5)))
        rec = bool(rng.random() < 0.5)
        comp = WeightComponent(coeffs, reciprocal=rec)
        x = float(rng.uniform(0.1, 2.0))
        h = 1e-6
        num = (comp.value(x + h) - comp.value(x - h)) / (2 * h)
        assert float(comp.deriv(x)) == pytest.approx(float(num), abs=1e-6)


def test_component_deriv_keeps_the_sign_of_zero():
    """Derivative coefficients belong to each component: components equal
    up to the sign of a zero coefficient keep derivatives of their own
    sign, bit for bit what numpy's polyder gives."""
    xs = np.array([-1.5, -0.5])
    pos = WeightComponent((1.0, 0.0))
    neg = WeightComponent((1.0, -0.0))
    assert pos == neg
    for comp in (pos, neg, pos):
        want = P.polyval(xs, P.polyder(np.asarray(comp.coeffs)))
        assert np.array_equal(np.signbit(comp.deriv(xs)), np.signbit(want))
        assert np.array_equal(comp.deriv(xs), want)
    assert not np.any(np.signbit(pos.deriv(xs)))
    assert np.all(np.signbit(neg.deriv(xs)))


def test_component_constant_and_degree():
    c = WeightComponent((2.0,))
    assert c.is_constant and c.degree == 0
    assert float(c.deriv(5.0)) == 0.0
    padded = WeightComponent((2.0, 0.0, 0.0))
    assert padded.is_constant and padded.degree == 0


def test_component_jsonable_roundtrip():
    for comp in (WeightComponent((1.0, 2.0)),
                 WeightComponent((3.0,)),
                 WeightComponent((1.0, 0.5), reciprocal=True)):
        again = WeightComponent.from_jsonable(comp.to_jsonable())
        assert again == comp
    assert WeightComponent.from_jsonable(2) == WeightComponent((2.0,))
    with pytest.raises(ValueError):
        WeightComponent.from_jsonable({"recip": [1.0]})
    with pytest.raises(ValueError):
        WeightComponent(())


def test_component_describe():
    assert WeightComponent((1.0, 1.0)).describe("x2") == "1 + x2"
    assert WeightComponent((2.0,)).describe("x1") == "2"
    assert WeightComponent((0.0, 0.0, 1.5)).describe("u") == "1.5*u^2"
    assert WeightComponent((1.0, 1.0), reciprocal=True).describe("x2") == "1/(1 + x2)"


# ---------------------------------------------------------------------------
# WeightFamily
# ---------------------------------------------------------------------------

def test_family_kind_validated():
    with pytest.raises(ValueError, match="kind"):
        WeightFamily("sigma", (WeightComponent((1.0,)),))


def test_family_constants():
    fam = WeightFamily.constant("theta", [1.0, 4.0])
    assert fam.is_constant
    np.testing.assert_allclose(fam.constants(), [1.0, 4.0])
    mixed = WeightFamily("theta", ((1.0,), (1.0, 1.0)))
    assert not mixed.is_constant
    assert mixed.constants() is None


def test_family_axis_values_for_both_kinds(ex1_theta, ex1_omega):
    X = np.array([[1.0, 2.0], [0.0, 0.0]])
    # theta = (1, 1 + x2)
    np.testing.assert_allclose(ex1_theta.axis_values(X), [[1.0, 3.0], [1.0, 1.0]])
    # omega = (2, 1/(1+x2))
    np.testing.assert_allclose(ex1_omega.axis_values(X),
                               [[2.0, 1.0 / 3.0], [2.0, 1.0]])
    np.testing.assert_allclose(ex1_omega.axis_values(X[0]), [2.0, 1.0 / 3.0])
    np.testing.assert_allclose(ex1_omega.axis_values(X, deriv=True),
                               [[0.0, -1.0 / 9.0], [0.0, -1.0]])
    # omega scales as Theta = diag(1/omega) = (0.5, 3): with J all ones and
    # f = 0 the scaled Jacobian is Theta_i / Theta_j
    x = X[:1]
    out = _scaled_jacobian("omega", np.ones((2, 2, 1)),
                           ex1_omega.axis_values(x).T,
                           ex1_omega.axis_values(x, deriv=True).T,
                           np.zeros((2, 1)))
    np.testing.assert_allclose(out[..., 0], [[1.0, 0.5 / 3.0], [6.0, 1.0]])


def test_family_axis_values_deriv_chain_rule(ex1_theta, ex1_omega):
    # (Theta(x + h f) - Theta(x - h f)) / 2h ~= Theta'(x) f, and with J = 0
    # the scaled Jacobian is diag(Theta'(x) f / Theta(x))
    f = np.array([0.7, -1.3])
    x = np.array([0.8, 1.4])
    h = 1e-6
    for fam in (ex1_theta, ex1_omega):
        power = 1.0 if fam.kind == "theta" else -1.0
        fwd = fam.axis_values(x + h * f) ** power
        bwd = fam.axis_values(x - h * f) ** power
        num = (fwd - bwd) / (2 * h) / fam.axis_values(x) ** power
        X = x[None, :]
        out = _scaled_jacobian(fam.kind, np.zeros((2, 2, 1)),
                               fam.axis_values(X).T,
                               fam.axis_values(X, deriv=True).T, f[:, None])
        np.testing.assert_allclose(out[..., 0], np.diag(num), atol=1e-6)


def test_density_is_theta_or_reciprocal_omega(ex1_theta, ex1_omega):
    """The distance integrand: theta_i, or 1/omega_i.  Over [x - h, x + h]
    a density of degree <= 1 integrates to exactly 2h rho(x)."""
    def density(fam, i, x, h=1e-3):
        return float(_densities(fam)[i].integral(x + h, x - h)) / (2 * h)
    assert density(ex1_theta, 1, 2.0) == pytest.approx(3.0, rel=1e-12)  # 1+x2
    assert density(ex1_omega, 1, 2.0) == pytest.approx(3.0, rel=1e-12)  # 1/omega_2
    assert density(ex1_omega, 0, 9.9) == pytest.approx(0.5, rel=1e-12)  # 1/omega_1


def test_family_jsonable_roundtrip(ex1_omega):
    obj = ex1_omega.to_jsonable()
    assert obj["kind"] == "omega"
    again = WeightFamily.from_jsonable(obj)
    assert again.components == ex1_omega.components
    with pytest.raises(ValueError, match="kind"):
        WeightFamily.from_jsonable({"weights": [[1.0]]})


def test_family_describe(ex1_theta):
    assert ex1_theta.describe() == "theta = (1, 1 + x2)"
    assert ex1_theta.describe(names=["a", "b"]) == "theta = (1, 1 + b)"


# ---------------------------------------------------------------------------
# weighted_jacobian
# ---------------------------------------------------------------------------

def ex1_jacobian(x):
    return np.array([[-1.0, 2.0 * x[1]], [0.0, -1.0]])


def ex1_field(x):
    return np.array([-x[0] + x[1] ** 2, -x[1]])


def test_weighted_jacobian_constant_weights_is_similarity():
    rng = np.random.default_rng(43)
    fam = WeightFamily.constant("theta", [1.0, 4.0, 2.0])
    Th = np.diag([1.0, 4.0, 2.0])
    for _ in range(10):
        J = rng.normal(size=(3, 3))
        x = rng.normal(size=3)
        f = rng.normal(size=3)
        out = weighted_jacobian(J, fam, x, f)
        np.testing.assert_allclose(out, Th @ J @ np.linalg.inv(Th), atol=1e-12)


def test_weighted_jacobian_hand_value_theta(ex1_theta):
    # theta = (1, 1+x2): Jtilde = [[-1, 2x2/(1+x2)], [0, -1 - x2/(1+x2)]]
    x = np.array([1.0, 1.0])
    out = weighted_jacobian(ex1_jacobian(x), ex1_theta, x, ex1_field(x))
    np.testing.assert_allclose(out, [[-1.0, 1.0], [0.0, -1.5]], atol=1e-14)
    # l1 measure of the scaled Jacobian at x2 -> -1/(1+x2)
    assert mu1(out) == pytest.approx(-0.5, abs=1e-14)


def test_weighted_jacobian_hand_value_omega(ex1_omega):
    # omega = (2, 1/(1+x2)) gives Theta = (1/2, 1+x2):
    # Jtilde = [[-1, x2/(1+x2)], [0, -1 - x2/(1+x2)]]
    x = np.array([2.0, 3.0])
    out = weighted_jacobian(ex1_jacobian(x), ex1_omega, x, ex1_field(x))
    np.testing.assert_allclose(out, [[-1.0, 0.75], [0.0, -1.75]], atol=1e-14)
    assert mu_inf(out) == pytest.approx(-0.25, abs=1e-14)


def test_weighted_jacobian_flow_derivative_term():
    # Jtilde should match the numeric derivative of Theta(phi_t) Theta^-1
    # composed with the similarity part; check the diagonal correction alone
    fam = WeightFamily("theta", ((1.0,), (1.0, 1.0)))
    x = np.array([0.5, 2.0])
    f = ex1_field(x)
    out = weighted_jacobian(np.zeros((2, 2)), fam, x, f)
    # with J = 0 only Thetadot Theta^-1 remains: diag(0, f2/(1+x2))
    np.testing.assert_allclose(out, np.diag([0.0, f[1] / 3.0]), atol=1e-14)


def test_weighted_jacobian_rejects_nonpositive_scaling():
    fam = WeightFamily("theta", ((-1.0, 1.0),))  # theta = x - 1
    with pytest.raises(ValueError, match="positive"):
        weighted_jacobian(np.array([[-1.0]]), fam, [0.5], [0.0])


@pytest.mark.parametrize("kind, weights", [
    ("theta", ((1.0,), (np.nan,))),
    ("omega", ((1.0,), (1.0, np.nan))),
    ("theta", ((1.0,), (1e-13,))),       # not above POSITIVITY_TOL
    ("omega", ((1.0,), {"reciprocal": [0.0]})),   # inf
])
def test_weighted_jacobian_applies_the_positivity_rule(kind, weights):
    fam = WeightFamily(kind, weights)
    with pytest.raises(ValueError, match=rf"^{kind} weights must be finite "
                       r"and positive \(> 1e-12\) at x=\[0.5, 2.0\]$"):
        weighted_jacobian(np.eye(2), fam, [0.5, 2.0], [0.0, 0.0])


@pytest.mark.parametrize("kind", ["theta", "omega"])
def test_weighted_jacobian_matches_matrix_product_oracle(kind):
    rng = np.random.default_rng(47 if kind == "theta" else 48)
    for n in (1, 2, 3, 4):
        fam = random_family(rng, kind, n)
        for _ in range(25):
            J = rng.normal(size=(n, n))
            x = rng.uniform(0.0, 1.0, size=n)
            f = rng.normal(size=n)
            np.testing.assert_allclose(weighted_jacobian(J, fam, x, f),
                                       scaled_jacobian_at(fam, J, x, f),
                                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["theta", "omega"])
def test_scaled_jacobian_rows_match_matrix_product_oracle(kind):
    """The batched routine on random rows against the per-point oracle."""
    rng = np.random.default_rng(49 if kind == "theta" else 50)
    for n in (1, 2, 3, 4):
        fam = random_family(rng, kind, n)
        J = rng.normal(size=(40, n, n))
        X = rng.uniform(0.0, 1.0, size=(40, n))
        F = rng.normal(size=(40, n))
        out = _scaled_jacobian(kind, np.moveaxis(J, 0, -1),
                               fam.axis_values(X).T,
                               fam.axis_values(X, deriv=True).T, F.T)
        for k in range(40):
            np.testing.assert_allclose(
                out[..., k], scaled_jacobian_at(fam, J[k], X[k], F[k]),
                rtol=1e-12, atol=1e-12)
