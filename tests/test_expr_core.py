"""The expression core: the parser, the one walker and the one kernel
compiler.

Random trees from hypothesis are checked against the tree-walking oracle in
``tests/oracles.py``, and random inputs of the parser against its
recursive-descent oracle there; deep trees check that neither parsing nor
any walk recurses.  The property tests are derandomized, so every run sees
the same examples.
"""

import math
from sys import getrecursionlimit

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monocert.certify import WorkingBox, certify_all
from monocert.measures import WeightFamily
from monocert.sysdsl import (
    Add, Const, Cos, Div, DslError, Exp, Max, Min, Mul, Neg, Pow, Sin,
    Sub, TimeVar, Var, _define, _emit, compile_expr, differentiate, jacobian,
    parse_expr, parse_system, pretty,
)

from oracles import evaluate, parse_expr_rd

NAMES = ["x1", "x2", "x3"]
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

constants = st.floats(-4.0, 4.0, allow_nan=False).map(Const)
leaves = st.one_of(constants, st.integers(0, 2).map(Var), st.just(TimeVar()))


def _trees(smooth: bool, any_divisor: bool = True, no_neg_const: bool = False,
           leaves=leaves):
    """Random expression trees over x1..x3 and t, or over other ``leaves``.

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


def _emitted(e):
    """The value of a tree of constants by the statements ``_emit`` writes
    for it, which raise where Python's ``/`` and ``**`` do."""
    src, consts = ["def _f():"], {}
    _emit(e, src, consts)
    with np.errstate(all="ignore"):
        return _define(src + ["    return _s0"], consts)["_f"]()


# NaN constants of both signs, which a fold such as inf - inf also gives;
# ``repr`` writes both as "nan"
nan_constants = st.sampled_from([math.nan, -math.nan]).map(Const)


@PROPERTY
@given(st.lists(_trees(smooth=False, leaves=st.one_of(constants,
                                                      nan_constants)),
                min_size=1, max_size=4))
@example([Neg(Const(0.0))])
@example([Const(-math.nan)])
@example([Add(Const(math.nan), Const(1.0)), Mul(Const(-math.nan), Const(2.0))])
@example([Pow(Const(-1.5), 3)])
@example([Mul(Exp(Const(1.0)), Const(0.8))])
@example([Min(Const(0.1), Const(0.2))])
@example([Div(Const(0.64), Const(0.6400000000000001))])
@example([Exp(Const(1000.0))])     # inf, with no warning
# Python's ** and numpy's power differ in the last bit here; Python's /
# raises on zero, numpy's gives inf, also on a ufunc's zero
@example([Pow(Const(0.99), 3)])
@example([Div(Const(1.0), Pow(Const(0.0), 2))])
@example([Div(Const(1.0), Sin(Const(0.0)))])
def test_a_nesting_of_constants_keeps_the_emitted_bits(trees):
    """A scalar, vector or matrix of trees of constants compiles to a kernel
    that writes the bits the emitted kernel writes for the same entries,
    zero and NaN signs included, and, where the tree holds no NaN and the
    Python-float oracle is finite, values within 1e-12 of it.  The emitted
    side is the flat nesting with a state entry added, so it still goes
    through ``_emit``.  A constant kernel does no arithmetic on a call, so
    it warns of nothing."""
    X = np.zeros((3, 1))
    flat = tuple(trees)
    try:
        emitted = compile_expr((*flat, Var(0)))
    except DslError:
        # refused only where the statements of the kernel would raise
        with pytest.raises(DslError):
            compile_expr(flat)
        with pytest.raises((ZeroDivisionError, OverflowError)):
            for e in flat:
                _emitted(e)
        return
    with np.errstate(all="ignore"):
        want = emitted(X)[:, :-1]
    for nesting, cols in ((flat[0], want[:, :1]), (flat, want),
                          ((flat, flat[::-1]), np.hstack([want, want[:, ::-1]]))):
        got = compile_expr(nesting)(X)
        assert got.shape == (3, *np.array(nesting, dtype=object).shape)
        np.testing.assert_array_equal(
            np.ascontiguousarray(got.reshape(3, -1)).view(np.int64),
            np.ascontiguousarray(cols).view(np.int64))
    got = compile_expr(flat)(X)
    for k, e in enumerate(flat):
        oracle = _oracle(e, (), None)
        # Python's min and max, which the oracle takes, may pass over a NaN
        # where numpy's propagate it
        if (oracle is not None and math.isfinite(oracle)
                and "value=nan" not in repr(e)):
            assert got[0, k] == pytest.approx(oracle, rel=1e-12, abs=1e-12)


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


def test_nested_parentheses_parse_without_recursion():
    x1 = parse_expr("x1", ["x1"])
    assert parse_expr("(" * 10000 + "x1" + ")" * 10000, ["x1"]) == x1
    # each closed group goes on as the leading atom of the one around it
    deep = "(" * 3000 + "x1 + 1) * 2)^2" + " - x1)" * 2998
    flat = "((x1 + 1) * 2)^2" + " - x1" * 2998
    assert pretty(parse_expr(deep, ["x1"])) == flat


DEPTH = 10_000


@pytest.mark.parametrize("opening, closing, printed", [
    ("exp(", ")", None),
    ("sin(", ")", None),
    ("min(x1, ", ")", None),
    ("max(", ", x1)", None),            # nested in the first argument
    ("2 * (", ")", "2 * (" * (DEPTH - 1) + "2 * x1" + ")" * (DEPTH - 1)),
    ("-(", ")", "-" * DEPTH + "x1"),
    ("(x1 + ", ")", "x1 + " + "(x1 + " * (DEPTH - 1) + "x1" + ")" * (DEPTH - 1)),
], ids=["exp", "sin", "min", "max", "times", "minus", "plus"])
def test_deep_nesting_parses_without_recursion(opening, closing, printed):
    """10,000 nested calls, groups and signs parse at the default recursion
    limit into the tree they spell: ``pretty`` prints it back as written,
    up to the parentheses it leaves out."""
    assert getrecursionlimit() < DEPTH
    text = opening * DEPTH + "x1" + closing * DEPTH
    assert pretty(parse_expr(text, ["x1"])) == (printed or text)


# atoms of the parser inputs, and what an edit may insert or put in place
# of a token
ATOMS = st.sampled_from(["x1", "x2", "t", "0", "2", "3.5", "1e3", ".5", "٣",
                         "2^3", "x1^2"])
NOISE = st.sampled_from(["-", "+", "*", "/", "^", "^", "(", ")", ",", "\n",
                         "2", "x1", "min", "exp", "abs", "y", "inf", "2.5e-1",
                         "1.2.3", "²", "$"])
INFIX = st.sampled_from("+-*/")
CALL = st.sampled_from(["exp", "sin", "cos", "abs", "min", "max"])


@st.composite
def _parser_inputs(draw):
    """Well-formed expressions up to 30 levels deep, each level wrapping the
    one below in an operator, a group or a call, with an atom beside it; and
    the same with up to three tokens deleted, inserted or replaced.  The
    tokens are joined with spaces, or with nothing, which glues them into
    new ones."""
    toks = [draw(ATOMS)]
    for _ in range(draw(st.integers(0, 30))):
        wrap = draw(st.integers(0, 4))
        if wrap == 0:
            toks = toks + [draw(INFIX), draw(ATOMS)]
        elif wrap == 1:
            toks = [draw(ATOMS), draw(INFIX)] + toks
        elif wrap == 2:
            toks = ["-"] + toks
        elif wrap == 3:
            toks = ["("] + toks + [")"] + draw(st.sampled_from([[], ["^2"]]))
        elif (name := draw(CALL)) not in ("min", "max"):
            toks = [name, "("] + toks + [")"]
        elif draw(st.booleans()):
            toks = [name, "("] + toks + [",", draw(ATOMS), ")"]
        else:
            toks = [name, "(", draw(ATOMS), ","] + toks + [")"]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(toks)))
        edit = draw(st.integers(0, 2))
        if edit == 0 and at < len(toks):
            del toks[at]
        elif edit == 1 and at < len(toks):
            toks[at] = draw(NOISE)
        else:
            toks.insert(at, draw(NOISE))
    return draw(st.sampled_from([" ", " ", ""])).join(toks)


def _outcome(parse, text):
    try:
        return repr(parse(text, ["x1", "x2"]))
    except DslError as exc:
        return (str(exc), exc.line, exc.col)


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(_parser_inputs())
@example("-2^2 - --2 * -(2)")
@example("x1^2^2")
@example("min(x1\n, 2)")
@example("abs(x1 - ٣) + exp(")
def test_parser_matches_the_recursive_descent_oracle(text):
    """The same tree, or the same error at the same place, as a recursive
    descent reading of the grammar."""
    assert _outcome(parse_expr, text) == _outcome(parse_expr_rd, text)


def test_deep_guard_hashes_and_certifies():
    """A guard whose argument is a 3,000-term sum, used twice:
    min(0.5 x1, 0.3 x1) picks 0.3 x1 on (0, 1] and ties at 0."""
    total = " + ".join(["0.0001 * x1"] * 3000)
    rhs = f"-x1 + 0.5 * min(0.5 * x1, {total}) + 0.5 * min(0.5 * x1, {total})"
    sys = parse_system(f"system deep {{\n  states x1 in [0, 1]\n"
                       f"  dx1 = {rhs}\n  equilibrium (0)\n}}\n")
    jb = jacobian(sys)
    assert jb.n_guards == 1
    X = np.array([[0.25], [1.0]])
    left = jb.branch_matrix(("left",)).evaluate_batch(X)[:, 0, 0]
    right = jb.branch_matrix(("right",)).evaluate_batch(X)[:, 0, 0]
    np.testing.assert_allclose(left, [-0.5, -0.5], rtol=1e-12)
    np.testing.assert_allclose(right, [-0.7, -0.7], rtol=1e-9)

    theta = WeightFamily.from_jsonable({"kind": "theta", "weights": [[1]]})
    reports = certify_all(sys, [theta], WorkingBox((0.0,), (1.0,), 11))
    thm1 = {r.condition: r for r in reports}["thm1"]
    # the tie at x1 = 0 takes the worse, left, branch
    assert thm1.worst_margin == pytest.approx(-0.5, rel=1e-12)
    assert thm1.witness["point"] == [0.0]


def test_guards_compare_as_before():
    """Guards, the min/max nodes, are equal exactly when their trees are,
    with 0.0 equal to -0.0 as ``Const`` compares it."""
    a, b = parse_expr("x1 * 2 + t", ["x1"]), parse_expr("x1 * 2 + t", ["x1"])
    assert a is not b
    assert Min(a, Var(0)) == Min(b, Var(0))
    assert hash(Min(a, Var(0))) == hash(Min(b, Var(0)))
    assert Min(a, Var(0)) != Max(a, Var(0))
    assert Min(a, Var(0)) != Min(Var(0), a)
    assert Min(Const(0.0), a) == Min(Const(-0.0), a)
    assert Min(Const(1.0), a) != Min(Const(2.0), a)
    assert Min(Var(0), a) != Min(Var(1), a)
    assert Min(Pow(a, 2), a) != Min(Pow(a, 3), a)
    assert Min(a, Var(0)) == Min(b, Var(0)) != Max(a, Var(0))
    assert len({Min(a, Var(0)), Min(b, Var(0)), Max(a, Var(0))}) == 2


def test_deep_trees_compare_and_hash_without_recursion():
    """Two parses of a 3,000-term sum, and two systems with it as their
    equation, are equal with equal hashes; one changed term makes them
    unequal."""
    terms = [f"{k % 7 + 1} * x1" for k in range(3000)]
    text = " + ".join(terms)
    changed = " + ".join(terms[:1500] + ["9 * x1"] + terms[1501:])
    a, b = parse_expr(text, ["x1"]), parse_expr(text, ["x1"])
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != parse_expr(changed, ["x1"])

    def system(rhs):
        return parse_system(f"system deep {{\n  states x1 in [0, 1]\n"
                            f"  dx1 = -({rhs})\n  equilibrium (0)\n}}\n")

    s1, s2 = system(text), system(text)
    assert s1 == s2 and hash(s1.odes) == hash(s2.odes)
    assert s1 != system(changed)


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
