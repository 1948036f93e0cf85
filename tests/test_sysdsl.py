"""Parser, AST, symbolic differentiation and branch-Jacobian tests."""

import math

import numpy as np
import pytest

from monocert.sysdsl import (
    Add, BranchRequiredError, Const, Cos, Div, DslError, Exp, Interval, Max,
    ExprMatrix, Min, Mul, Neg, Pow, Sin, Sub, SystemDef, TimeVar, Var,
    antiderivative_univariate, compile_expr, differentiate, evaluate,
    free_vars, jacobian, parse_expr, parse_system, pretty, references_time,
    simplify,
)

from conftest import CORPUS, load_system


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_system():
    sys = parse_system("""
    system tiny {
        states u in [0, 1]
        du = -u
    }
    """)
    assert sys.name == "tiny"
    assert sys.state_names == ("u",)
    assert sys.bounds[0] == Interval(0.0, 1.0)
    assert sys.odes == (Neg(Var(0)),)
    assert sys.equilibrium is None
    assert sys.period is None


def test_parse_full_header():
    sys = parse_system("""
    # a comment before the block
    system demo {
        states a in [0, inf), b in (-inf, inf)   # trailing comment
        da = -a + b^2
        db = -b
        equilibrium (0, 0)
    }
    """)
    assert sys.state_names == ("a", "b")
    assert sys.bounds[0].hi == math.inf and not sys.bounds[0].hi_closed
    assert sys.bounds[1].lo == -math.inf and not sys.bounds[1].lo_closed
    assert sys.equilibrium == (0.0, 0.0)
    assert sys.odes[0] == Add(Neg(Var(0)), Pow(Var(1), 2))


def test_parse_corpus_files_validate():
    for path in sorted(CORPUS.glob("*.sys")):
        sys = parse_system(path.read_text())
        sys.validate()
        assert sys.n >= 1


def test_precedence_and_associativity():
    names = ["x1", "x2"]
    assert parse_expr("x1 + x2 * x1", names) == Add(Var(0), Mul(Var(1), Var(0)))
    assert parse_expr("-x1^2", names) == Neg(Pow(Var(0), 2))
    assert parse_expr("x1 - x2 - x1", names) == Sub(Sub(Var(0), Var(1)), Var(0))
    assert parse_expr("x1 / 2 / 4", names) == Div(Div(Var(0), Const(2.0)), Const(4.0))
    assert parse_expr("2 * -x1", names) == Mul(Const(2.0), Neg(Var(0)))


def test_unary_minus_on_literal_folds():
    e = parse_expr("-3 * x1", ["x1"])
    assert e == Mul(Const(-3.0), Var(0))


def test_functions_parse():
    names = ["x1"]
    assert parse_expr("exp(-x1)", names) == Exp(Neg(Var(0)))
    assert parse_expr("min(x1, 1 - x1)", names) == Min(Var(0), Sub(Const(1.0), Var(0)))
    assert parse_expr("max(0, x1)", names) == Max(Const(0.0), Var(0))
    assert parse_expr("sin(t) + cos(t)", names) == Add(Sin(TimeVar()), Cos(TimeVar()))


@pytest.mark.parametrize("bad, fragment", [
    ("x1 +", "expected"),
    ("(x1", "expected"),
    ("x3", "unknown"),
    ("x1 ^ x1", "expected 'NUM'"),
    ("x1 ^ -2", "expected 'NUM'"),
    ("x1 ^ 1.5", "exponent"),
    ("min(x1)", ","),
    ("foo(x1)", "foo"),
])
def test_bad_expressions_raise(bad, fragment):
    with pytest.raises(DslError) as exc:
        parse_expr(bad, ["x1", "x2"])
    assert fragment.lower() in str(exc.value).lower()


def test_error_carries_line_and_col():
    text = """system broken {
    states x1 in [0, 1]
    dx1 = x1 +
}"""
    with pytest.raises(DslError) as exc:
        parse_system(text)
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_reserved_word_as_state_rejected():
    with pytest.raises(DslError):
        parse_system("""
        system bad {
            states min in [0, 1]
            dmin = -min
        }
        """)


def test_duplicate_state_and_equation_rejected():
    with pytest.raises(DslError, match="duplicate"):
        parse_system("""
        system bad {
            states u in [0, 1], u in [0, 1]
            du = -u
        }
        """)
    with pytest.raises(DslError, match="duplicate"):
        parse_system("""
        system bad {
            states u in [0, 1]
            du = -u
            du = -u
        }
        """)


def test_missing_equation_rejected():
    with pytest.raises(DslError, match="equation"):
        parse_system("""
        system bad {
            states u in [0, 1], v in [0, 1]
            du = -u
        }
        """)


def test_trailing_garbage_rejected():
    with pytest.raises(DslError, match="trailing"):
        parse_system("""
        system ok {
            states u in [0, 1]
            du = -u
        }
        stray
        """)


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def test_interval_contains_open_closed():
    iv = Interval(0.0, math.inf, lo_closed=True, hi_closed=False)
    assert iv.contains(0.0)
    assert iv.contains(1e12)
    assert not iv.contains(-1e-12)
    assert iv.contains(-1e-12, tol=1e-9)
    op = Interval(0.0, 1.0, lo_closed=False)
    assert not op.contains(0.0)
    assert op.contains(0.5)


def test_interval_rejects_empty_and_closed_inf():
    with pytest.raises(DslError):
        Interval(1.0, 1.0)
    with pytest.raises(DslError):
        Interval(-math.inf, 0.0, lo_closed=True)
    with pytest.raises(DslError):
        Interval(0.0, math.inf, hi_closed=True)


def test_interval_str_roundtrips_through_parser():
    sys = parse_system("""
    system s {
        states u in (0, 2.5], v in [-1, inf)
        du = -u
        dv = -v
    }
    """)
    assert str(sys.bounds[0]) == "(0, 2.5]"
    assert str(sys.bounds[1]) == "[-1, inf)"


# ---------------------------------------------------------------------------
# pretty / round-trip
# ---------------------------------------------------------------------------

ROUND_TRIP_SOURCES = [
    "-x1 + x2^2",
    "x1 - x2 - x1",
    "x1 / 2 / 4",
    "2 * -x1",
    "min(0.1, 1 - x1) - min(0.8*x1, 1 - x2) / 0.8",
    "exp(-x1) - 1 + x2",
    "-x1^3 + sin(t)",
    "max(x1, min(x2, 0.5)) * cos(t)",
    "-(x1 + x2)^2",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_pretty_roundtrip(src):
    names = ["x1", "x2"]
    tree = parse_expr(src, names)
    again = parse_expr(pretty(tree), names)
    assert again == tree


def test_pretty_uses_supplied_names():
    tree = parse_expr("x1 * x2", ["x1", "x2"])
    assert pretty(tree, names=["pos", "vel"]) == "pos * vel"


def test_pretty_roundtrip_random_trees():
    # the parser folds "-NUM" and "Const^n" at parse time, so exact tree
    # equality is only promised for trees free of those patterns
    rng = np.random.default_rng(7)
    names = ["x1", "x2", "x3"]

    def rand_tree(depth, no_bare_const=False):
        if depth == 0 or (depth < 3 and rng.random() < 0.2):
            if no_bare_const or rng.random() < 0.5:
                return Var(int(rng.integers(0, 3)))
            return Const(float(np.round(rng.uniform(-3, 3), 3)))
        pick = rng.integers(0, 8)
        if pick == 0:
            return Add(rand_tree(depth - 1), rand_tree(depth - 1))
        if pick == 1:
            return Sub(rand_tree(depth - 1), rand_tree(depth - 1))
        if pick == 2:
            return Mul(rand_tree(depth - 1), rand_tree(depth - 1))
        if pick == 3:
            return Div(rand_tree(depth - 1), Const(float(1 + rng.integers(1, 5))))
        if pick == 4:
            return Neg(rand_tree(depth - 1, no_bare_const=True))
        if pick == 5:
            return Pow(rand_tree(depth - 1, no_bare_const=True),
                       int(rng.integers(2, 4)))
        if pick == 6:
            return Min(rand_tree(depth - 1), rand_tree(depth - 1))
        return Max(rand_tree(depth - 1), rand_tree(depth - 1))

    for _ in range(120):
        tree = rand_tree(3)
        text = pretty(tree, names=names)
        assert parse_expr(text, names) == tree, text


def test_pretty_preserves_value_on_foldprone_trees():
    # even where re-parsing folds constants, the printed text must evaluate
    # to the same number as the original tree
    rng = np.random.default_rng(41)
    names = ["x1", "x2"]
    trees = [
        Pow(Const(-1.649), 2),
        Neg(Const(2.0)),
        Pow(Const(2.0), 3),
        Neg(Pow(Const(2.0), 2)),
        Mul(Pow(Const(-0.5), 3), Var(0)),
        Sub(Var(1), Pow(Const(-2.0), 2)),
        Pow(Neg(Var(0)), 1),
        Pow(Var(0), 0),
    ]
    for tree in trees:
        again = parse_expr(pretty(tree, names=names), names)
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            assert evaluate(again, x) == pytest.approx(evaluate(tree, x),
                                                       abs=1e-12), pretty(tree)


# ---------------------------------------------------------------------------
# evaluation / compilation
# ---------------------------------------------------------------------------

def test_evaluate_matches_hand_values():
    e = parse_expr("-x1 + x2^2", ["x1", "x2"])
    assert evaluate(e, [1.0, 2.0]) == 3.0
    e = parse_expr("min(x1, x2) + max(x1, x2)", ["x1", "x2"])
    assert evaluate(e, [3.0, -1.0]) == 2.0
    e = parse_expr("exp(-x1)", ["x1"])
    assert evaluate(e, [0.0]) == 1.0


def test_evaluate_time_required():
    e = parse_expr("sin(t)", ["x1"])
    assert evaluate(e, [0.0], t=math.pi / 2) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="time"):
        evaluate(e, [0.0])


def test_compile_expr_matches_evaluate_on_batch():
    rng = np.random.default_rng(11)
    names = ["x1", "x2", "x3"]
    sources = [
        "-x1 + x2^2 - x3 / 3",
        "min(0.1, 1 - x1) - min(0.8*x1, 1 - x2) / 0.8",
        "exp(-x1) - 1 + x2 * cos(t)",
        "max(x1, x2) * min(x2, x3)",
        "-(x1 - 0.75)^3 / 3 + sin(t)",
    ]
    X = rng.uniform(-2.0, 2.0, size=(200, 3))
    T = rng.uniform(0.0, 10.0, size=200)
    for src in sources:
        e = parse_expr(src, names)
        fn = compile_expr(e)
        got = fn(X, T)
        want = np.array([evaluate(e, X[i], t=float(T[i])) for i in range(200)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_compile_expr_keeps_the_sign_of_zero():
    """Const(0.0) == Const(-0.0), yet their kernels must not be shared."""
    X = np.zeros((2, 1))
    neg = compile_expr(Const(-0.0))(X)
    pos = compile_expr(Const(0.0))(X)
    assert np.all(np.signbit(neg))
    assert not np.any(np.signbit(pos))


def test_expr_matrix_keeps_the_sign_of_zero():
    """Equal matrices of Const(0.0) and Const(-0.0) keep their own kernels,
    whichever is evaluated first."""
    X = np.zeros((2, 1))
    pos = ExprMatrix(((Const(0.0),),))
    neg = ExprMatrix(((Const(-0.0),),))
    assert pos == neg
    assert not np.any(np.signbit(pos.evaluate_batch(X)))
    assert np.all(np.signbit(neg.evaluate_batch(X)))


def test_compile_expr_scalar_time_broadcast():
    e = parse_expr("x1 * sin(t)", ["x1"])
    fn = compile_expr(e)
    X = np.array([[1.0], [2.0]])
    np.testing.assert_allclose(fn(X, 0.5), np.array([1.0, 2.0]) * math.sin(0.5))


def test_f_batch_matches_pointwise(traffic4):
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, size=(64, 4))
    got = traffic4.f_batch(X)
    want = np.array([traffic4.f(x) for x in X])
    np.testing.assert_allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.sys")))
def test_fused_f_batch_matches_tree_walker(name):
    """The one generated field kernel against the tree-walking ``f``, at
    scalar times and at one time per point."""
    sys = load_system(name)
    rng = np.random.default_rng(17)
    lo = np.array([max(b.lo, -3.0) for b in sys.bounds])
    hi = np.array([min(b.hi, 3.0) for b in sys.bounds])
    X = lo + (hi - lo) * rng.random((50, sys.n))
    T = rng.uniform(0.0, 10.0, size=50)
    for t in (0.0, 0.7, 5.25):
        want = np.array([sys.f(x, t) for x in X])
        np.testing.assert_allclose(sys.f_batch(X, t), want, rtol=1e-12, atol=0)
    want = np.array([sys.f(x, float(t)) for x, t in zip(X, T)])
    np.testing.assert_allclose(sys.f_batch(X, T), want, rtol=1e-12, atol=0)


def test_time_varying_f_batch_needs_time():
    sys = load_system("entrain_cubic")
    with pytest.raises(ValueError, match="no time was given"):
        sys.f_batch(np.zeros((2, 1)))


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.sys")))
def test_fused_jacobian_kernel_matches_evaluate(name):
    """One generated kernel per branch matrix: close to the tree-walking
    ``evaluate`` and bit for bit the per-entry ``compile_expr`` kernels."""
    sys = load_system(name)
    rng = np.random.default_rng(23)
    lo = np.array([max(b.lo, -3.0) for b in sys.bounds])
    hi = np.array([min(b.hi, 3.0) for b in sys.bounds])
    X = lo + (hi - lo) * rng.random((40, sys.n))
    t = 0.7
    for _, mat in jacobian(sys).branches():
        got = mat.evaluate_batch(X, t)
        assert got.shape == (40, sys.n, sys.n)
        want = np.array([mat.evaluate(x, t) for x in X])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        for i in range(sys.n):
            for j in range(sys.n):
                entry = compile_expr(mat[i, j])(X, t)
                assert np.array_equal(got[:, i, j], entry, equal_nan=True)
                assert np.array_equal(np.signbit(got[:, i, j]),
                                      np.signbit(entry))


def test_time_varying_jacobian_needs_time():
    mat = ExprMatrix(((Mul(Var(0), Sin(TimeVar())), Const(1.0)),))
    X = np.ones((3, 2))
    with pytest.raises(ValueError, match="no time was given"):
        mat.evaluate_batch(X)
    np.testing.assert_array_equal(mat.evaluate_batch(X, 0.0),
                                  [[[0.0, 1.0]]] * 3)


# ---------------------------------------------------------------------------
# free_vars / references_time / simplify
# ---------------------------------------------------------------------------

def test_free_vars_and_time():
    e = parse_expr("x1 + cos(t) * x3", ["x1", "x2", "x3"])
    assert free_vars(e) == {0, 2}
    assert references_time(e)
    assert not references_time(parse_expr("x1 + x2", ["x1", "x2"]))


def test_simplify_folds_constants_only():
    e = parse_expr("2 * 3 + x1 * 1", ["x1"])
    s = simplify(e)
    # constant subtree folds; the variable product is left untouched
    assert evaluate(s, [5.0]) == evaluate(e, [5.0]) == 11.0
    assert simplify(parse_expr("2^3", ["x1"])) == Const(8.0)
    v = parse_expr("x1 + 0", ["x1"])
    assert evaluate(simplify(v), [4.0]) == 4.0


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def _numeric_partial(e, x, j, t=None, h=1e-6):
    xp = list(map(float, x))
    xm = list(map(float, x))
    xp[j] += h
    xm[j] -= h
    return (evaluate(e, xp, t) - evaluate(e, xm, t)) / (2 * h)


def test_differentiate_matches_finite_differences():
    rng = np.random.default_rng(23)
    names = ["x1", "x2"]
    sources = [
        "-x1 + x2^2",
        "exp(-x1) - 1 + x2",
        "-2*x2 - x2^2 + 0.81*(1 - exp(-x1))^2",
        "x1 * x2 / 4 - x1^3",
        "sin(t) * x1 + cos(t) * x2^2",
    ]
    for src in sources:
        e = parse_expr(src, names)
        for j in range(2):
            de = differentiate(e, j)
            for _ in range(10):
                x = rng.uniform(0.2, 2.0, size=2)
                t = float(rng.uniform(0, 5))
                sym = evaluate(de, x, t)
                num = _numeric_partial(e, x, j, t)
                assert sym == pytest.approx(num, abs=2e-6), (src, j, x)


def test_differentiate_time_var_is_zero():
    e = parse_expr("sin(t)", ["x1"])
    d = differentiate(e, 0)
    assert evaluate(d, [1.0], t=0.3) == 0.0


def test_differentiate_through_minmax_raises():
    e = parse_expr("min(x1, x2)", ["x1", "x2"])
    with pytest.raises(BranchRequiredError):
        differentiate(e, 0)


def test_antiderivative_univariate_polynomials():
    e = parse_expr("1 + 2*x2 + 3*x2^2", ["x1", "x2"])
    F = antiderivative_univariate(e)
    # F(x2) = x2 + x2^2 + x2^3, constant term zero
    for v in (0.0, 0.5, 1.0, 2.0):
        assert evaluate(F, [0.0, v]) == pytest.approx(v + v**2 + v**3, abs=1e-12)
    assert evaluate(F, [0.0, 0.0]) == 0.0


def test_antiderivative_constant_defaults_to_given_index():
    e = parse_expr("2", ["x1", "x2"])
    F = antiderivative_univariate(e, var_index=1)
    assert evaluate(F, [9.0, 3.0]) == pytest.approx(6.0)


def test_antiderivative_rejects_multivariate_and_nonpoly():
    with pytest.raises(DslError):
        antiderivative_univariate(parse_expr("x1 + x2", ["x1", "x2"]))
    with pytest.raises(DslError):
        antiderivative_univariate(parse_expr("exp(x1)", ["x1"]))
    with pytest.raises(DslError):
        antiderivative_univariate(parse_expr("sin(t)", ["x1"]))


# ---------------------------------------------------------------------------
# jacobian branches
# ---------------------------------------------------------------------------

def test_smooth_system_single_branch(ex1):
    jb = jacobian(ex1)
    assert jb.n_guards == 0
    pats = list(jb.branches())
    assert len(pats) == 1
    pattern, mat = pats[0]
    assert pattern == ()
    J = mat.evaluate([1.0, 2.0])
    np.testing.assert_allclose(J, [[-1.0, 4.0], [0.0, -1.0]])


def test_jacobian_matches_finite_differences_smooth(comparison):
    jb = jacobian(comparison)
    (_, mat), = jb.branches()
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = rng.uniform(0.1, 2.0, size=2)
        J = mat.evaluate(x)
        for i in range(2):
            for j in range(2):
                num = _numeric_partial(comparison.odes[i], x, j)
                assert J[i, j] == pytest.approx(num, abs=5e-6)


def test_traffic_guard_count_and_branch_matrices(traffic4):
    jb = jacobian(traffic4)
    # one min() per flow term: dx1 has min(0.1, 1-x1) and min(0.8 x1, 1-x2);
    # downstream equations reuse the shared flows
    assert jb.n_guards == 4
    pats = list(jb.branches())
    assert len(pats) == 2 ** 4
    seen = {p for p, _ in pats}
    assert len(seen) == 16
    # every branch matrix is Metzler (off-diagonal >= 0) on the box interior
    rng = np.random.default_rng(17)
    X = rng.uniform(0.05, 0.95, size=(32, 4))
    for _, mat in pats:
        JB = mat.evaluate_batch(X)
        off = JB.copy()
        for i in range(4):
            off[:, i, i] = 0.0
        assert np.min(off) >= -1e-12


def test_branch_jacobian_matches_numeric_away_from_ties(traffic4):
    jb = jacobian(traffic4)
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(40):
        x = rng.uniform(0.05, 0.95, size=4)
        pats = jb.patterns_at(x)
        if len(pats) != 1:
            continue  # on a tie surface; derivative is not unique there
        J = jb.branch_matrix(pats[0]).evaluate(x)
        for i in range(4):
            for j in range(4):
                num = _numeric_partial(traffic4.odes[i], x, j, h=1e-7)
                assert J[i, j] == pytest.approx(num, abs=1e-5)
        checked += 1
    assert checked >= 30


def test_patterns_at_tie_returns_both(traffic4):
    # at x1 = 0.125 the first guard ties: min(0.1, 1 - x1) has 0.1 vs 0.875…
    # use the second guard instead: 0.8*x1 == 1 - x2 when x1=0.5, x2=0.6
    x = [0.5, 0.6, 0.5, 0.5]
    pats = traffic4.jacobian_branches().patterns_at(x) \
        if hasattr(traffic4, "jacobian_branches") else jacobian(traffic4).patterns_at(x)
    assert len(pats) >= 2
    # all returned patterns differ only in tied guards
    arr = np.array([[1 if s == "left" else 0 for s in p] for p in pats])
    assert arr.shape[0] == len(set(map(tuple, arr.tolist())))


def test_guard_values_shapes(traffic4):
    jb = jacobian(traffic4)
    X = np.full((5, 4), 0.3)
    diffs, scales = jb.guard_values(X)
    assert diffs.shape == (5, jb.n_guards)
    assert np.all(scales >= 1.0)


# ---------------------------------------------------------------------------
# SystemDef.validate
# ---------------------------------------------------------------------------

def test_validate_rejects_nonzero_equilibrium():
    with pytest.raises(DslError, match="not a zero"):
        parse_system("""
        system bad {
            states u in [0, 2]
            du = -u + 1
            equilibrium (0)
        }
        """).validate()


def test_validate_rejects_equilibrium_outside_domain():
    with pytest.raises(DslError, match="outside"):
        parse_system("""
        system bad {
            states u in [0, 2]
            du = -u + 3
            equilibrium (3)
        }
        """).validate()


def test_validate_rejects_period_without_time():
    with pytest.raises(DslError, match="never references t"):
        parse_system("""
        system bad {
            states u in [0, 2], v in [0, 2]
            du = -u
            dv = -v
            period 6.28
        }
        """).validate()


def test_validate_rejects_nonpositive_period():
    with pytest.raises(DslError, match="positive"):
        parse_system("""
        system bad {
            states u in (-inf, inf)
            du = -u + sin(t)
            period -1
        }
        """).validate()


def test_time_varying_flag(entrain_sources=("entrain_cubic", "entrain_linear")):
    for name in entrain_sources:
        sys = load_system(name)
        assert sys.time_varying
        assert sys.period is not None and sys.period > 0
    assert not load_system("ex1").time_varying


def test_domain_violation(ex1):
    assert ex1.domain_violation([1.0, 1.0]) == 0.0
    assert ex1.domain_violation([-0.5, 1.0]) == pytest.approx(0.5)
    assert ex1.contains([0.0, 0.0])
    assert not ex1.contains([-1e-6, 0.0])
    assert ex1.contains([-1e-6, 0.0], tol=1e-5)
