"""The expression core: the one walker and the one kernel compiler.

Random trees from hypothesis are checked against the tree-walking oracle in
``tests/oracles.py``; deep trees check that no walk recurses.  The property
tests are derandomized, so every run sees the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monocert.certify import WorkingBox, certify_all
from monocert.measures import WeightFamily
from monocert.sysdsl import (
    Add, Const, Cos, Div, DslError, Exp, Max, Min, Mul, Neg, Pow, Sin, Sub,
    TimeVar, Var, compile_expr, differentiate, jacobian, parse_expr,
    parse_system, pretty,
)

from oracles import evaluate

NAMES = ["x1", "x2", "x3"]
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

constants = st.floats(-4.0, 4.0, allow_nan=False).map(Const)
leaves = st.one_of(constants, st.integers(0, 2).map(Var), st.just(TimeVar()))


def _trees(smooth: bool, any_divisor: bool = True, no_neg_const: bool = False):
    """Random expression trees over x1..x3 and t.

    ``smooth`` leaves out min/max; without ``any_divisor`` a divisor is a
    nonzero constant; ``no_neg_const`` keeps Neg off constants, which the
    parser folds into negative literals.
    """

    def extend(kids):
        operand = kids.filter(lambda e: not isinstance(e, Const)) \
            if no_neg_const else kids
        divisor = kids if any_divisor else st.floats(0.25, 4.0).map(Const)
        nodes = [
            st.builds(Add, kids, kids), st.builds(Sub, kids, kids),
            st.builds(Mul, kids, kids), st.builds(Div, kids, divisor),
            st.builds(Neg, operand),
            st.builds(Pow, kids, st.integers(0, 4)),
            st.builds(Exp, kids), st.builds(Sin, kids), st.builds(Cos, kids),
        ]
        if not smooth:
            nodes += [st.builds(Min, kids, kids), st.builds(Max, kids, kids)]
        return st.one_of(*nodes)

    return st.recursive(leaves, extend, max_leaves=12)


def _oracle(e, x, t):
    """The oracle's value, or None where Python floats raise (x/0 and
    overflow), which numpy answers with inf or nan instead."""
    try:
        return evaluate(e, x, t)
    except (ZeroDivisionError, OverflowError):
        return None


points = st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                            st.floats(-2.0, 2.0), st.floats(0.0, 10.0)),
                  min_size=1, max_size=8)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(_trees(smooth=False), points)
# a negative base of an even power: emitted as "-1.5 ** 2", Python reads
# -(1.5 ** 2)
@example(Pow(Const(-1.5), 2), [(0.0, 0.0, 0.0, 0.0)])
@example(Sub(Var(0), Pow(Const(-2.0), 0)), [(1.0, 0.0, 0.0, 0.0)])
def test_compile_expr_matches_the_oracle(e, pts):
    X = np.array([p[:3] for p in pts])
    T = np.array([p[3] for p in pts])
    want = [_oracle(e, x, t) for x, t in zip(X, T)]
    keep = [i for i, w in enumerate(want) if w is not None]
    assume(keep)
    with np.errstate(all="ignore"):
        got = compile_expr(e)(X, T)
    assert got.shape == (len(pts),)
    np.testing.assert_allclose(got[keep], [want[i] for i in keep],
                               rtol=1e-12, atol=0, equal_nan=True)


@PROPERTY
@given(_trees(smooth=False, no_neg_const=True))
def test_pretty_parse_round_trip(e):
    text = pretty(e, names=NAMES)
    again = parse_expr(text, NAMES)
    assert again == e, text
    assert pretty(again, names=NAMES) == text


@PROPERTY
@given(_trees(smooth=True, any_divisor=False), st.integers(0, 2),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                 st.floats(-1.0, 1.0)), st.floats(0.0, 10.0))
def test_differentiate_matches_central_differences(e, j, x, t):
    h = 1e-5
    xp, xm = list(x), list(x)
    xp[j] += h
    xm[j] -= h
    fp, fm, fx = _oracle(e, xp, t), _oracle(e, xm, t), _oracle(e, x, t)
    assume(None not in (fp, fm, fx) and max(map(abs, (fp, fm, fx))) < 1e6)
    sym = evaluate(differentiate(e, j), x, t)
    num = (fp - fm) / (2 * h)
    assert sym == pytest.approx(num, rel=1e-4, abs=1e-4 * (1 + abs(fx)))


# ---------------------------------------------------------------------------
# deep expressions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_terms", [300, 10_000])
def test_deep_sum_runs_end_to_end(n_terms):
    """A long sum stays a deep tree, and so does its derivative; every stage
    runs with the default recursion limit.  dx1 = -x1 + n*0.001*x1^2, so
    J = -1 + 0.002*n*x1, worst at x1 = 1."""
    rhs = "-x1 + " + " + ".join(["0.001 * x1^2"] * n_terms)
    sys = parse_system(f"system deep {{\n  states x1 in [0, 1]\n"
                       f"  dx1 = {rhs}\n  equilibrium (0)\n}}\n")
    assert pretty(sys.odes[0], names=["x1"]) == rhs

    X = np.array([[0.0], [0.5], [1.0]])
    f = sys.f_batch(X)[:, 0]
    want = -X[:, 0] + n_terms * 0.001 * X[:, 0] ** 2
    np.testing.assert_allclose(f, want, rtol=1e-9, atol=1e-12)

    (_, mat), = jacobian(sys).branches()
    J = mat.evaluate_batch(X)[:, 0, 0]
    np.testing.assert_allclose(J, -1 + 0.002 * n_terms * X[:, 0], rtol=1e-9)

    theta = WeightFamily.from_jsonable({"kind": "theta", "weights": [[1]]})
    reports = certify_all(sys, [theta], WorkingBox((0.0,), (1.0,), 11))
    by_name = {r.condition: r for r in reports}
    thm1 = by_name["thm1"]
    assert thm1.worst_margin == pytest.approx(-1 + 0.002 * n_terms, rel=1e-9)
    assert thm1.witness["point"] == [1.0]
    assert thm1.equilibrium_margin == -1.0


@pytest.mark.parametrize("text, tree", [
    ("-x1", Neg(Var(0))),
    ("--x1", Neg(Neg(Var(0)))),
    ("-2", Const(-2.0)),
    ("--2", Neg(Const(-2.0))),
    ("-2^2", Neg(Pow(Const(2.0), 2))),
    ("--2^2", Neg(Neg(Pow(Const(2.0), 2)))),
    ("-(2)", Neg(Const(2.0))),
    ("3 * --x1", Mul(Const(3.0), Neg(Neg(Var(0))))),
    ("-x1^2 - -1", Sub(Neg(Pow(Var(0), 2)), Const(-1.0))),
])
def test_short_minus_chains_keep_their_trees(text, tree):
    assert parse_expr(text, ["x1"]) == tree


@pytest.mark.parametrize("operand, innermost, negs", [
    ("x1", Var(0), 5000), ("3", Const(-3.0), 4999),
    ("3^2", Pow(Const(3.0), 2), 5000)])
def test_long_minus_chain_parses_without_recursion(operand, innermost, negs):
    e = parse_expr("-" * 5000 + operand, ["x1"])
    depth = 0
    while isinstance(e, Neg):
        e, depth = e.arg, depth + 1
    assert (depth, e) == (negs, innermost)
    chain = parse_expr("-" * 5001 + "x1", ["x1"])
    assert compile_expr(chain)(np.array([[2.0]])).tolist() == [-2.0]


# ---------------------------------------------------------------------------
# abs
# ---------------------------------------------------------------------------

def test_abs_parses_to_max_of_e_and_minus_e():
    e = parse_expr("abs(x1 - 2)", ["x1"])
    inner = Sub(Var(0), Const(2.0))
    assert e == Max(inner, Neg(inner))
    X = np.array([[-1.0], [2.0], [3.5]])
    np.testing.assert_array_equal(compile_expr(e)(X), [3.0, 0.0, 1.5])


def test_abs_is_reserved():
    with pytest.raises(DslError, match="reserved"):
        parse_system("system s {\n  states abs in [0, 1]\n  dabs = -abs\n}\n")


def test_abs_jacobian_has_one_guard_with_both_signs():
    sys = parse_system("system s {\n  states x1 in [-1, 1]\n"
                       "  dx1 = -abs(x1) - x1\n}\n")
    jb = jacobian(sys)
    assert jb.n_guards == 1
    X = np.array([[0.5]])
    mats = {p: float(m.evaluate_batch(X)[0, 0, 0]) for p, m in jb.branches()}
    assert mats == {("left",): -2.0, ("right",): 0.0}


def test_compile_expr_shapes():
    x1, x2 = Var(0), Var(1)
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert compile_expr(Const(1.5))(X).tolist() == [1.5, 1.5]
    assert compile_expr((x1, x2, Const(0.0)))(X).shape == (2, 3)
    M = compile_expr(((x1, x2), (Mul(x1, x2), Const(-1.0))))(X)
    np.testing.assert_array_equal(M, [[[1, 2], [2, -1]], [[3, 4], [12, -1]]])
    assert compile_expr(())(X).shape == (2, 0)
    assert math.isinf(compile_expr(Const(math.inf))(X)[0])
