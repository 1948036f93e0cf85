"""Separable Lyapunov candidates and the weighted distance behind them.

Hand goldens use ex1 (dx1 = -x1 + x2^2, dx2 = -x2, equilibrium 0) with
theta = (1, 1 + x2) and omega = (2, 1/(1 + x2)):

    state-sum   V(x) = |x1| + |x2 + x2^2/2|
    flow-sum    V(x) = |-x1 + x2^2| + (1 + x2)*x2          (on x >= 0)
    state-max   V(x) = max(|x1|/2, |x2 + x2^2/2|)
    flow-max    V(x) = max(|-x1 + x2^2|/2, (1 + x2)*x2)
"""

import json
import math
import warnings

import numpy as np
import pytest

from conftest import load_family, load_system
import monocert as mc
from monocert import WeightFamily
from monocert.lyap import (VARIANTS, LyapError, LyapFn, _densities, _distance,
                           build_lyapunov, weighted_distance)


def test_variants_tuple():
    assert VARIANTS == ("state-sum", "flow-sum", "state-max", "flow-max")


# ---------------------------------------------------------------------------
# ex1 goldens
# ---------------------------------------------------------------------------

def test_state_sum_golden(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    assert V.value([1.0, 1.0]) == pytest.approx(2.5, abs=1e-12)
    assert V.value([0.0, 0.0]) == 0.0
    rng = np.random.default_rng(11)
    X = rng.uniform(0.0, 3.0, size=(60, 2))
    expect = np.abs(X[:, 0]) + np.abs(X[:, 1] + 0.5 * X[:, 1] ** 2)
    np.testing.assert_allclose(V.evaluate_batch(X), expect, atol=1e-12)


def test_flow_sum_golden(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "flow-sum")
    # f(1,1) = (0, -1), so V = 1*0 + 2*1
    assert V.value([1.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(12)
    X = rng.uniform(0.0, 3.0, size=(60, 2))
    expect = np.abs(-X[:, 0] + X[:, 1] ** 2) + (1.0 + X[:, 1]) * X[:, 1]
    np.testing.assert_allclose(V.evaluate_batch(X), expect, atol=1e-12)


def test_state_max_golden(ex1, ex1_omega):
    V = build_lyapunov(ex1, ex1_omega, "state-max")
    assert V.value([2.0, 1.0]) == pytest.approx(1.5, abs=1e-12)
    rng = np.random.default_rng(13)
    X = rng.uniform(0.0, 3.0, size=(60, 2))
    expect = np.maximum(0.5 * np.abs(X[:, 0]),
                        np.abs(X[:, 1] + 0.5 * X[:, 1] ** 2))
    np.testing.assert_allclose(V.evaluate_batch(X), expect, atol=1e-12)


def test_flow_max_golden(ex1, ex1_omega):
    V = build_lyapunov(ex1, ex1_omega, "flow-max")
    # f(2,1) = (-1, -1); omega = (2, 1/2) at this point
    assert V.value([2.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    rng = np.random.default_rng(14)
    X = rng.uniform(0.0, 3.0, size=(60, 2))
    expect = np.maximum(0.5 * np.abs(-X[:, 0] + X[:, 1] ** 2),
                        (1.0 + X[:, 1]) * X[:, 1])
    np.testing.assert_allclose(V.evaluate_batch(X), expect, atol=1e-12)


def test_constant_weight_goldens(multiagent, traffic4):
    v3 = load_family("multiagent.v.json")
    V = build_lyapunov(multiagent, v3, "state-sum")
    assert V.value([1.0, -1.0, 2.0]) == pytest.approx(7.7, abs=1e-12)

    v4 = load_family("traffic4.v.json")
    Vt = build_lyapunov(traffic4, v4, "state-sum")
    # sum_i v_i |x_i - x*_i| at x = 0.2*ones, x* = (0.1, 0.08, 0.064, 0.0512)
    assert Vt.value([0.2] * 4) == pytest.approx(0.753125, abs=1e-12)
    assert Vt.value(traffic4.equilibrium) == 0.0


def test_omega_constant_flow(multiagent):
    w = load_family("multiagent.w.json")
    V = build_lyapunov(multiagent, w, "flow-max")
    x = [1.0, 0.0, -1.0]
    f = multiagent.f_batch(np.array([x]), 0.0)[0]
    expect = max(abs(f[0]) / 1.0, abs(f[1]) / 1.5, abs(f[2]) / 1.7)
    assert V.value(x) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# evaluation plumbing
# ---------------------------------------------------------------------------

def test_call_value_eval_agree(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    x = [1.3, 0.7]
    assert V(x) == V.value(x)


def test_batch_matches_pointwise(ex1, ex1_omega):
    V = build_lyapunov(ex1, ex1_omega, "flow-max")
    rng = np.random.default_rng(21)
    X = rng.uniform(0.0, 3.0, size=(50, 2))
    batch = V.evaluate_batch(X)
    for k in range(X.shape[0]):
        assert batch[k] == pytest.approx(V.value(X[k]), abs=1e-13)


def test_batch_rejects_wrong_shape(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    with pytest.raises(LyapError, match="dimension 2"):
        V.evaluate_batch(np.zeros((4, 3)))
    with pytest.raises(LyapError):
        V.evaluate_batch(np.zeros(2))


def test_zero_at_equilibrium_all_variants(ex1, ex1_theta, ex1_omega):
    for variant in VARIANTS:
        fam = ex1_theta if variant.endswith("sum") else ex1_omega
        V = build_lyapunov(ex1, fam, variant)
        assert V.value([0.0, 0.0]) == pytest.approx(0.0, abs=1e-14)


def test_state_variants_positive_definite(ex1, ex1_theta, ex1_omega):
    """State candidates vanish only at the equilibrium."""
    rng = np.random.default_rng(22)
    for variant, fam in (("state-sum", ex1_theta), ("state-max", ex1_omega)):
        V = build_lyapunov(ex1, fam, variant)
        for _ in range(40):
            x = rng.uniform(0.0, 3.0, size=2)
            if np.max(np.abs(x)) < 1e-8:
                continue
            assert V.value(x) > 0.0


def test_exact_integral_for_constant_density(ex1, ex1_omega):
    # coordinate 1 has omega = 2, so the metric density is the constant 1/2
    # and the quadrature path must reproduce x/2 to machine precision
    V = build_lyapunov(ex1, ex1_omega, "state-max")
    for x1 in (0.3, 1.0, 2.9):
        got = V.value([x1, 0.0])
        assert got == pytest.approx(x1 / 2.0, abs=1e-14)


# ---------------------------------------------------------------------------
# construction rules
# ---------------------------------------------------------------------------

def test_scope_rules(ex1, ex1_theta, ex1_omega):
    assert build_lyapunov(ex1, ex1_theta, "state-sum").scope == "global"
    assert build_lyapunov(ex1, ex1_omega, "state-max").scope == "global"
    assert build_lyapunov(ex1, ex1_theta, "flow-sum").scope == "local"
    assert build_lyapunov(ex1, ex1_omega, "flow-max").scope == "local"
    assert build_lyapunov(ex1, ex1_theta, "flow-sum",
                          uniform=True).scope == "global"
    # uniform is meaningless for state variants and must not demote them
    assert build_lyapunov(ex1, ex1_theta, "state-sum",
                          uniform=True).scope == "global"


def test_kind_variant_mismatch(ex1, ex1_theta, ex1_omega):
    with pytest.raises(LyapError, match="needs kind 'omega'"):
        build_lyapunov(ex1, ex1_theta, "state-max")
    with pytest.raises(LyapError, match="needs kind 'theta'"):
        build_lyapunov(ex1, ex1_omega, "flow-sum")


def test_unknown_variant(ex1, ex1_theta):
    with pytest.raises(LyapError, match="unknown variant"):
        build_lyapunov(ex1, ex1_theta, "state-l2")


def test_dimension_mismatch(ex1):
    v3 = load_family("multiagent.v.json")
    with pytest.raises(LyapError, match="dimension mismatch"):
        build_lyapunov(ex1, v3, "state-sum")


def test_missing_equilibrium():
    sys = load_system("entrain_cubic")
    fam = WeightFamily("theta", (load_family("ex1.theta.json").components[0],))
    with pytest.raises(LyapError, match="equilibrium"):
        build_lyapunov(sys, fam, "state-sum")


@pytest.mark.parametrize("weights,message", [
    ([[1.0], [1.0, math.nan]], "component 2 reaches nan at x=0"),
    ([{"reciprocal": [0.0]}, [1.0]], "component 1 reaches inf at x=0"),
    ([[1e-13], [1.0]], "component 1 reaches 1e-13 at x=0"),
    ([[1.0], [-2.0, 1.0]], "component 2 reaches -2 at x=0"),
])
@pytest.mark.parametrize("kind", ["theta", "omega"])
def test_weights_not_positive_at_the_equilibrium_are_refused(ex1, kind,
                                                             weights,
                                                             message):
    """The checks' positivity rule at x* = (0, 0), for both variants of the
    kind and without a numpy warning.  Before, each candidate was built."""
    fam = WeightFamily.from_jsonable({"kind": kind, "weights": weights})
    mode = "sum" if kind == "theta" else "max"
    for form in ("state", "flow"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(mc.CertifyError) as info:
                build_lyapunov(ex1, fam, f"{form}-{mode}")
        assert str(info.value) == (f"{kind} positivity violated at x*: "
                                   f"{message}")


def test_weights_are_checked_at_the_equilibrium_alone(ex1):
    """theta_2 = 1 - x2 is not positive from x2 = 1 on, away from x*."""
    fam = WeightFamily.from_jsonable({"kind": "theta",
                                      "weights": [[1.0], [1.0, -1.0]]})
    V = build_lyapunov(ex1, fam, "state-sum")
    assert V.value([1.0, 0.5]) == pytest.approx(1.375, abs=1e-12)


# ---------------------------------------------------------------------------
# describe / serialization
# ---------------------------------------------------------------------------

def test_describe_state_sum(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    assert V.describe() == "V(x) = |x1| + |x2 + 0.5*x2^2|"


def test_describe_state_max_mixes_closed_form_and_integral(ex1, ex1_omega):
    V = build_lyapunov(ex1, ex1_omega, "state-max")
    s = V.describe()
    assert s.startswith("V(x) = max{")
    # constant omega has no polynomial antiderivative on this path; the
    # reciprocal omega does
    assert "int_0^x1" in s
    assert "|x2 + 0.5*x2^2|" in s


def test_state_variants_from_a_nonzero_equilibrium():
    """The integrals start at x* = (1, 2): theta = (1 + s, 2) gives
    |x1 + x1^2/2 - 1.5| + |2 x2 - 4|, and a constant omega = 4 integrates
    ds/4 by quadrature from 2."""
    sysd = mc.parse_system("""
    system shifted {
        states x1 in [0, 4], x2 in [0, 4]
        dx1 = -(x1 - 1)
        dx2 = -(x2 - 2)
        equilibrium (1, 2)
    }
    """)
    theta = WeightFamily("theta", ((1.0, 1.0), (2.0,)))
    V = build_lyapunov(sysd, theta, "state-sum")
    assert V.describe() == "V(x) = |-1.5 + x1 + 0.5*x1^2| + |-4 + 2*x2|"
    X = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 3.5]])
    np.testing.assert_allclose(
        V.evaluate_batch(X),
        np.abs(X[:, 0] + X[:, 0] ** 2 / 2 - 1.5) + np.abs(2 * X[:, 1] - 4),
        atol=1e-12)
    omega = WeightFamily("omega", ((1.0,), (4.0,)))
    Vm = build_lyapunov(sysd, omega, "state-max")
    assert "|int_2^x2 1/(4) ds|" in Vm.describe()
    np.testing.assert_allclose(
        Vm.evaluate_batch(X),
        np.maximum(np.abs(X[:, 0] - 1), np.abs(X[:, 1] - 2) / 4), atol=1e-12)


def test_describe_flow_variants(ex1, ex1_theta, ex1_omega):
    fs = build_lyapunov(ex1, ex1_theta, "flow-sum").describe()
    assert fs == "V(x) = 1*|f_x1| + (1 + x2)*|f_x2|"
    fm = build_lyapunov(ex1, ex1_omega, "flow-max").describe()
    assert "|f_x1|/(2)" in fm and "|f_x2|/(1/(1 + x2))" in fm


def test_jsonable(ex1, ex1_omega):
    V = build_lyapunov(ex1, ex1_omega, "flow-max", uniform=True)
    obj = V.to_jsonable()
    assert obj["variant"] == "flow-max"
    assert obj["scope"] == "global"
    assert obj["equilibrium"] == [0.0, 0.0]
    assert obj["system"] == "ex1"
    assert obj["pretty"] == V.describe()
    fam = WeightFamily.from_jsonable(obj["weights"])
    assert fam.kind == "omega"
    assert V.to_json() == V.to_json()
    json.loads(V.to_json())


def test_lyapfn_is_dataclass_with_n(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    assert isinstance(V, LyapFn)
    assert V.n == 2
    assert V.xstar == (0.0, 0.0)


# ---------------------------------------------------------------------------
# weighted distance: metric axioms and closed forms
# ---------------------------------------------------------------------------

def _random_triples(rng, lo, hi, n, count):
    for _ in range(count):
        yield (rng.uniform(lo, hi, size=n), rng.uniform(lo, hi, size=n),
               rng.uniform(lo, hi, size=n))


def test_metric_axioms_theta_l1(ex1_theta):
    rng = np.random.default_rng(31)
    for x, y, z in _random_triples(rng, 0.0, 3.0, 2, 200):
        dxy = weighted_distance(ex1_theta, x, y, norm="l1")
        dyx = weighted_distance(ex1_theta, y, x, norm="l1")
        assert abs(dxy - dyx) <= 1e-10
        assert weighted_distance(ex1_theta, x, x, norm="l1") == 0.0
        if np.max(np.abs(x - y)) > 1e-8:
            assert dxy > 0.0
        dxz = weighted_distance(ex1_theta, x, z, norm="l1")
        dzy = weighted_distance(ex1_theta, z, y, norm="l1")
        assert dxy <= dxz + dzy + 1e-10


def test_metric_axioms_omega_linf(ex1_omega):
    rng = np.random.default_rng(32)
    for x, y, z in _random_triples(rng, 0.0, 3.0, 2, 200):
        dxy = weighted_distance(ex1_omega, x, y, norm="linf")
        dyx = weighted_distance(ex1_omega, y, x, norm="linf")
        assert abs(dxy - dyx) <= 1e-10
        assert weighted_distance(ex1_omega, x, x, norm="linf") == 0.0
        if np.max(np.abs(x - y)) > 1e-8:
            assert dxy > 0.0
        dxz = weighted_distance(ex1_omega, x, z, norm="linf")
        dzy = weighted_distance(ex1_omega, z, y, norm="linf")
        assert dxy <= dxz + dzy + 1e-10


def test_distance_closed_form_polynomial(ex1_theta):
    # theta = (1, 1 + s): d = |x1 - y1| + |(x2 + x2^2/2) - (y2 + y2^2/2)|
    rng = np.random.default_rng(33)
    for _ in range(50):
        x, y = rng.uniform(0.0, 3.0, size=(2, 2))
        expect = (abs(x[0] - y[0])
                  + abs(x[1] + 0.5 * x[1] ** 2 - y[1] - 0.5 * y[1] ** 2))
        got = weighted_distance(ex1_theta, x, y, norm="l1")
        assert got == pytest.approx(expect, abs=1e-12)


def test_distance_quadrature_matches_log():
    """A reciprocal theta integrates through quadrature; 1/(1+s) has an
    exact log antiderivative to compare against."""
    fam = WeightFamily.from_jsonable(
        {"kind": "theta", "weights": [{"reciprocal": [1, 1]}]})
    rng = np.random.default_rng(34)
    for _ in range(50):
        x, y = rng.uniform(0.0, 5.0, size=2)
        expect = abs(np.log((1.0 + x) / (1.0 + y)))
        got = weighted_distance(fam, [x], [y], norm="l1")
        assert got == pytest.approx(expect, abs=1e-12)


def test_distance_constant_omega_closed_form():
    """A constant omega integrates 1/omega_i by quadrature; the distance is
    max_i |x_i - y_i| / omega_i."""
    fam = load_family("multiagent.w.json")
    w = np.array([1.0, 1.5, 1.7])
    rng = np.random.default_rng(36)
    for _ in range(200):
        x, y = rng.uniform(-2.0, 2.0, size=(2, 3))
        expect = float(np.max(np.abs(x - y) / w))
        got = weighted_distance(fam, x, y, norm="linf")
        assert got == pytest.approx(expect, rel=1e-14, abs=0.0)


def test_paired_distance_batch_matches_points(ex1_theta, ex1_omega):
    """The batched distance over (..., n) pairs equals the one-point
    distance at every pair, for either kind with either norm."""
    rng = np.random.default_rng(37)
    X, Y = rng.uniform(0.0, 3.0, size=(2, 4, 5, 2))
    for fam in (ex1_theta, ex1_omega):
        dens = _densities(fam)
        for norm in ("l1", "linf"):
            D = _distance(dens, norm, X, Y)
            assert D.shape == (4, 5)
            for k in np.ndindex(4, 5):
                assert D[k] == float(_distance(dens, norm, X[k], Y[k]))
    D = _distance(_densities(ex1_omega), "linf", X, Y)
    for k in np.ndindex(4, 5):
        assert D[k] == weighted_distance(ex1_omega, X[k], Y[k], norm="linf")


def test_distance_constant_omega_closed_form_batch():
    fam = load_family("multiagent.w.json")
    w = np.array([1.0, 1.5, 1.7])
    rng = np.random.default_rng(38)
    X, Y = rng.uniform(-2.0, 2.0, size=(2, 50, 3))
    np.testing.assert_allclose(_distance(_densities(fam), "linf", X, Y),
                               np.max(np.abs(X - Y) / w, axis=-1),
                               rtol=1e-14, atol=0.0)


def test_distance_guards(ex1_theta, ex1_omega):
    with pytest.raises(LyapError, match="theta family"):
        weighted_distance(ex1_omega, [0, 0], [1, 1], norm="l1")
    with pytest.raises(LyapError, match="omega family"):
        weighted_distance(ex1_theta, [0, 0], [1, 1], norm="linf")
    with pytest.raises(LyapError, match="norm must be"):
        weighted_distance(ex1_theta, [0, 0], [1, 1], norm="l2")
    with pytest.raises(LyapError, match="dimension"):
        weighted_distance(ex1_theta, [0, 0, 0], [1, 1, 1], norm="l1")


def test_state_lyap_is_distance_to_equilibrium(ex1, ex1_theta, ex1_omega):
    """V_state(x) and d(x, x*) are the same object by construction."""
    Vs = build_lyapunov(ex1, ex1_theta, "state-sum")
    Vm = build_lyapunov(ex1, ex1_omega, "state-max")
    rng = np.random.default_rng(35)
    for _ in range(40):
        x = rng.uniform(0.0, 3.0, size=2)
        assert Vs.value(x) == pytest.approx(
            weighted_distance(ex1_theta, x, [0.0, 0.0], norm="l1"), abs=1e-12)
        assert Vm.value(x) == pytest.approx(
            weighted_distance(ex1_omega, x, [0.0, 0.0], norm="linf"),
            abs=1e-12)
