"""Parser, AST, symbolic differentiation and branch-Jacobian tests."""

import copy
import math
import pickle
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from monocert import sysdsl
from monocert.rk4 import compile_step
from monocert.certify import partition
from monocert.sysdsl import (
    Add, BranchRequiredError, Const, Cos, Div, DslError, Exp, Interval, Max,
    ExprMatrix, Min, Mul, Neg, Pow, Sin, Sub, SystemDef, TimeVar, Var,
    _substitute_branches, compile_expr, differentiate, free_vars, jacobian,
    parse_expr, parse_system, pretty, references_time,
)

from conftest import CORPUS, load_system
from oracles import (evaluate, field_at, matrix_at, patterns_at,
                     rk4_four_calls)


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


@pytest.mark.parametrize("text, line, col, literal", [
    ("1.2.3", 1, 1, "1.2.3"),
    ("x1 + 1..", 1, 6, "1.."),
    (".5. * x1", 1, 1, ".5."),
    ("2²", 1, 1, "2²"),
    ("x1^²", 1, 4, "²"),
    ("system s {\n  states x1 in [0, 1.2.3]\n  dx1 = -x1\n}", 2, 20, "1.2.3"),
])
def test_malformed_numbers_are_dsl_errors(text, line, col, literal):
    """A literal ``float`` cannot read is rejected where it stands, in a
    bare expression and in a system file alike."""
    parse = parse_system if text.startswith("system") else \
        lambda src: parse_expr(src, ["x1"])
    with pytest.raises(DslError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert f"malformed number {literal!r}" in str(exc.value)


@pytest.mark.parametrize("rhs, fault", [
    ("-x1 + 1 / 0", "divides by zero"),
    ("-x1 + x1 * (1 / 0)", "divides by zero"),
    ("-x1 + 0 / (2 - 2)", "divides by zero"),
    ("-x1 + (1e200)^2", "power overflows"),
    ("-x1 + 2 * (1e200)^3 - 1", "power overflows"),
])
def test_raising_constant_is_a_dsl_error_naming_the_equation(rhs, fault):
    text = f"system s {{\n  states x1 in [0, 1]\n  dx1 = {rhs}\n}}"
    with pytest.raises(DslError, match=f"equation for dx1: .*{fault}"):
        parse_system(text)


@pytest.mark.parametrize("rhs, fault", [
    # d/dx1 is 1e-300 / (1e-300)^2, whose folded square underflows to 0
    ("x1 / 1e-300 - 3", "divides by zero"),
    ("min(x1 / 1e-300, 1) - 3", "divides by zero"),
    # d/dx1 is 1e300 / (1e300)^2, whose folded square overflows
    ("x1 / 1e300", "power overflows"),
    ("-x1 + max(x1, 0) / 1e300", "power overflows"),
])
def test_raising_constant_of_a_derivative_is_a_dsl_error(rhs, fault):
    """The field parses and evaluates, but a constant that differentiation
    folds would raise in the Jacobian's kernel (or while folding): the
    branch matrix is refused, naming the equation."""
    sysd = parse_system(f"system s {{\n  states x1 in [-1, 1]\n"
                        f"  dx1 = {rhs}\n}}")
    with np.errstate(all="ignore"):
        assert sysd.f_batch(np.array([[0.5]])).shape == (1, 1)
    with pytest.raises(DslError, match="^Jacobian of the equation for dx1: "
                       f".*{fault}"):
        for _ in jacobian(sysd).branches():
            pass


def test_derivative_of_a_division_by_a_constant_still_builds():
    """x1 / 4 and x1 / 1e-100 differentiate to 4 / 16 and 1e-100 / 1e-200,
    whose squares fold to normal floats."""
    sysd = parse_system("system s {\n  states x1 in [-1, 1], x2 in [-1, 1]"
                        "\n  dx1 = x1 / 4\n  dx2 = x2 / 1e-100\n}")
    (_, mat), = jacobian(sysd).branches()
    J = mat.evaluate_batch(np.array([[0.5, 0.5]]))[0]
    assert J[0, 0] == 0.25 and J[1, 1] == 1e-100 / 1e-200 and J[0, 1] == 0


@pytest.mark.parametrize("rhs", [
    "-x1 + x1 / 0",            # 0-d array operand: numpy gives inf
    "-x1 + exp(0) / 0",        # numpy scalar from the call
    "-x1 + 1e200 * 1e200",     # Python's * gives inf without raising
    "-x1 + t / 0",             # depends on t
])
def test_constants_that_evaluate_still_parse(rhs):
    sysd = parse_system(f"system s {{\n  states x1 in [0, 1]\n"
                        f"  dx1 = {rhs}\n}}")
    with np.errstate(all="ignore"):
        sysd.f_batch(np.array([[0.5]]), np.array([1.0]))


def test_minus_inf_endpoint_after_a_newline():
    sysd = parse_system("system s {\n  states x1 in (\n  -inf, 0]\n"
                        "  dx1 = -x1\n}")
    assert sysd.bounds[0].lo == -math.inf
    with pytest.raises(DslError, match="-inf endpoint must be open"):
        parse_system("system s {\n  states x1 in [\n  -inf, 0]\n"
                     "  dx1 = -x1\n}")


def test_unicode_digits_still_parse():
    assert parse_expr("٣ * x1", ["x1"]) == Mul(Const(3.0), Var(0))
    assert parse_expr("x1^٣", ["x1"]) == Pow(Var(0), 3)


def test_readme_lists_the_functions_the_parser_reads():
    """README's expression sentence names the functions of the parser's
    table, no more and no fewer."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"the functions `([^`]*)`", readme).group(1).split()
    assert sorted(listed) == sorted(sysdsl._FUNCTIONS)


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


_U = "system u {\n  states u in [0, 1]\n  du = -u\n"


@pytest.mark.parametrize("text, message", [
    (_U, "line 4, col 1: unterminated system block (missing '}')"),
    (_U + "  equilibrium (0)\n  equilibrium (0)\n}",
     "line 5, col 3: duplicate equilibrium"),
    ("system u {\n  states u in (-inf, inf)\n  du = -u + sin(t)\n"
     "  period 1\n  period 2\n}", "line 5, col 3: duplicate period"),
    ("system u {\n  states u in 0, 1]\n  du = -u\n}",
     "line 2, col 15: expected '[' or '(' to open an interval"),
    ("system u {\n  states u in [0, 1}\n  du = -u\n}",
     "line 2, col 20: expected ']' or ')' to close an interval"),
    ("system u {\n  states u in [0, 1]\n  du = -u u\n}",
     "line 3, col 11: unexpected 'u' after equation"),
    (_U + "  5\n}", "line 4, col 3: unexpected '5'"),
    (_U + "  dv = -u\n}",
     "line 4, col 3: unexpected 'dv' (expected an equation like "
     "'d<state> = ...', 'equilibrium' or 'period')"),
    (_U + "  equilibrium (0, 0)\n}", "equilibrium dimension mismatch"),
], ids=["unterminated", "duplicate-equilibrium", "duplicate-period",
        "interval-open", "interval-close", "token-after-equation",
        "number-clause", "non-equation-clause", "equilibrium-dimension"])
def test_malformed_system_block_is_refused(text, message):
    with pytest.raises(DslError) as exc:
        parse_system(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("states, odes, message", [
    (("u", "v"), (Neg(Var(0)),), "states, bounds and equations must align"),
    (("u",), (Neg(Var(1)),),
     "equation for du references undeclared state index 1"),
])
def test_system_built_in_code_is_validated(states, odes, message):
    """A SystemDef built without the parser: its states, bounds and
    equations must line up, and its equations read declared states only."""
    sysd = SystemDef(name="s", state_names=states,
                     bounds=(Interval(0.0, 1.0),), odes=odes,
                     equilibrium=None)
    with pytest.raises(DslError) as exc:
        sysd.validate()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------

_X, _Y = Var(0), Var(1)
# each node type with its repr as that of the frozen dataclasses the nodes
# once were
NODE_REPRS = [
    (Const(1), "Const(value=1.0)"),
    (Const(-0.0), "Const(value=-0.0)"),
    (Var(2), "Var(index=2)"),
    (TimeVar(), "TimeVar()"),
    (Neg(_X), "Neg(arg=Var(index=0))"),
    (Add(_X, Const(1.0)), "Add(a=Var(index=0), b=Const(value=1.0))"),
    (Sub(_X, _Y), "Sub(a=Var(index=0), b=Var(index=1))"),
    (Mul(Const(2.5), _X), "Mul(a=Const(value=2.5), b=Var(index=0))"),
    (Div(_X, TimeVar()), "Div(a=Var(index=0), b=TimeVar())"),
    (Pow(_X, 3), "Pow(base=Var(index=0), exponent=3)"),
    (Min(_X, _Y), "Min(a=Var(index=0), b=Var(index=1))"),
    (Max(_X, Neg(_X)), "Max(a=Var(index=0), b=Neg(arg=Var(index=0)))"),
    (Exp(_X), "Exp(arg=Var(index=0))"),
    (Sin(TimeVar()), "Sin(arg=TimeVar())"),
    (Cos(Add(_X, _Y)), "Cos(arg=Add(a=Var(index=0), b=Var(index=1)))"),
    (parse_expr("abs(x1 - 2) + x2^2 * exp(-t)", ["x1", "x2"]),
     "Add(a=Max(a=Sub(a=Var(index=0), b=Const(value=2.0)), "
     "b=Neg(arg=Sub(a=Var(index=0), b=Const(value=2.0)))), "
     "b=Mul(a=Pow(base=Var(index=1), exponent=2), "
     "b=Exp(arg=Neg(arg=TimeVar()))))"),
]


@pytest.mark.parametrize("node,text", NODE_REPRS)
def test_node_repr(node, text):
    assert repr(node) == text


@pytest.mark.parametrize("node", [n for n, _ in NODE_REPRS])
def test_nodes_are_frozen(node):
    hash(node)   # a cached key is no way around the freeze either
    for name in (*node._fields, "_k", "other"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(node, name, 1)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(node, name)
    assert repr(node) == dict(NODE_REPRS)[node]


@pytest.mark.parametrize("node", [n for n, _ in NODE_REPRS])
def test_nodes_survive_pickle_and_deepcopy(node):
    for again in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node),
                  copy.copy(node)):
        assert type(again) is type(node)
        assert again == node and hash(again) == hash(node)
        assert repr(again) == repr(node)
    assert repr(pickle.loads(pickle.dumps(Const(-0.0)))) == "Const(value=-0.0)"


def test_const_holds_a_float():
    assert type(Const(1).value) is float
    assert type(Const(True).value) is float
    assert Const(1) == Const(1.0)


@pytest.mark.parametrize("exponent", [-1, 2.0, 1.5, "2", None])
def test_pow_rejects_a_negative_or_non_int_exponent(exponent):
    with pytest.raises(DslError, match="power exponent must be a "
                                       "nonnegative integer"):
        Pow(_X, exponent)


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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_pretty_refuses_a_non_finite_constant(value):
    """The DSL has no literal for a non-finite number, so it prints none."""
    with pytest.raises(ValueError) as exc:
        pretty(Add(Var(0), Const(value)), names=["u"])
    assert str(exc.value) == f"cannot print non-finite constant {value}"


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
    """The oracle and the compiled kernel at hand-computed values."""
    cases = [("-x1 + x2^2", [1.0, 2.0], 3.0),
             ("min(x1, x2) + max(x1, x2)", [3.0, -1.0], 2.0),
             ("exp(-x1)", [0.0, 0.0], 1.0),
             ("(-2)^2 - x1", [1.0, 0.0], 3.0)]
    for src, x, want in cases:
        e = parse_expr(src, ["x1", "x2"])
        assert evaluate(e, x) == want
        assert compile_expr(e)(np.array([x]))[0] == want


def test_evaluate_time_required():
    e = parse_expr("sin(t)", ["x1"])
    assert evaluate(e, [0.0], t=math.pi / 2) == pytest.approx(1.0)
    assert compile_expr(e)(np.zeros((1, 1)), math.pi / 2)[0] == \
        pytest.approx(1.0)
    with pytest.raises(ValueError, match="time"):
        evaluate(e, [0.0])
    with pytest.raises(ValueError, match="time"):
        compile_expr(e)(np.zeros((1, 1)))


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
    want = np.array([field_at(traffic4, x) for x in X])
    np.testing.assert_allclose(got, want, atol=1e-14)


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.sys")))
def test_fused_f_batch_matches_tree_walker(name):
    """The one generated field kernel against the tree-walking oracle, at
    scalar times and at one time per point."""
    sys = load_system(name)
    rng = np.random.default_rng(17)
    lo = np.array([max(b.lo, -3.0) for b in sys.bounds])
    hi = np.array([min(b.hi, 3.0) for b in sys.bounds])
    X = lo + (hi - lo) * rng.random((50, sys.n))
    T = rng.uniform(0.0, 10.0, size=50)
    for t in (0.0, 0.7, 5.25):
        want = np.array([field_at(sys, x, t) for x in X])
        np.testing.assert_allclose(sys.f_batch(X, t), want, rtol=1e-12, atol=0)
    want = np.array([field_at(sys, x, float(t)) for x, t in zip(X, T)])
    np.testing.assert_allclose(sys.f_batch(X, T), want, rtol=1e-12, atol=0)


def test_lifted_subtrees_keep_the_sign_of_a_zero():
    """``0*t`` and ``-0*t`` compare equal but have values of opposite sign,
    so the RK4 kernels lift them apart: from (-0, -0), both shapes give the
    bits of four ``f_batch`` calls, in which x2 ends at +0."""
    sys = parse_system("""
    system signs {
        states x1 in (-inf, inf), x2 in (-inf, inf)
        dx1 = x1 * (0*t)
        dx2 = x2 * (-0*t) + 0*x1
    }
    """)
    X = np.array([[-0.0, -0.0]])
    want = rk4_four_calls(sys, X, 0.5, 0.1)
    assert math.copysign(1.0, want[0, 1]) == 1.0
    kernels = compile_step(sys.odes)
    for run in (kernels.columns, kernels.rows):
        S = np.empty((1,) + X.shape)
        assert run(X, 0.5, 0.1, S) is None
        assert np.array_equal(S[0].view(np.uint64), want.view(np.uint64))


def test_time_varying_f_batch_needs_time():
    sys = load_system("entrain_cubic")
    with pytest.raises(ValueError, match="no time was given"):
        sys.f_batch(np.zeros((2, 1)))


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.sys")))
def test_fused_jacobian_kernel_matches_evaluate(name):
    """One generated kernel per branch matrix: close to the tree-walking
    oracle and bit for bit the per-entry ``compile_expr`` kernels."""
    sys = load_system(name)
    rng = np.random.default_rng(23)
    lo = np.array([max(b.lo, -3.0) for b in sys.bounds])
    hi = np.array([min(b.hi, 3.0) for b in sys.bounds])
    X = lo + (hi - lo) * rng.random((40, sys.n))
    t = 0.7
    for _, mat in jacobian(sys).branches():
        got = mat.evaluate_batch(X, t)
        assert got.shape == (40, sys.n, sys.n)
        want = np.array([matrix_at(mat, x, t) for x in X])
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
# free_vars / references_time
# ---------------------------------------------------------------------------

def test_free_vars_and_time():
    e = parse_expr("x1 + cos(t) * x3", ["x1", "x2", "x3"])
    assert free_vars(e) == {0, 2}
    assert references_time(e)
    assert not references_time(parse_expr("x1 + x2", ["x1", "x2"]))


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
    J = mat.evaluate_batch(np.array([[1.0, 2.0]]))[0]
    np.testing.assert_allclose(J, [[-1.0, 4.0], [0.0, -1.0]])


def test_jacobian_matches_finite_differences_smooth(comparison):
    jb = jacobian(comparison)
    (_, mat), = jb.branches()
    rng = np.random.default_rng(5)
    for _ in range(8):
        x = rng.uniform(0.1, 2.0, size=2)
        J = mat.evaluate_batch(x[None, :])[0]
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
        pats = patterns_at(jb, x)
        if len(pats) != 1:
            continue  # on a tie surface; derivative is not unique there
        J = jb.branch_matrix(pats[0]).evaluate_batch(x[None, :])[0]
        for i in range(4):
            for j in range(4):
                num = _numeric_partial(traffic4.odes[i], x, j, h=1e-7)
                assert J[i, j] == pytest.approx(num, abs=1e-5)
        checked += 1
    assert checked >= 30


def test_patterns_at_tie_returns_both(traffic4):
    # the second guard ties: 0.8*x1 == 1 - x2 when x1=0.5, x2=0.6
    x = [0.5, 0.6, 0.5, 0.5]
    jb = jacobian(traffic4)
    pats = patterns_at(jb, x)
    assert len(pats) >= 2
    (_, _, got), = partition(jb, np.array([x]))
    assert got == pats
    # all returned patterns differ only in tied guards
    arr = np.array([[1 if s == "left" else 0 for s in p] for p in pats])
    assert arr.shape[0] == len(set(map(tuple, arr.tolist())))


def test_shared_rows_equal_full_substitution(traffic4):
    """A Jacobian row is shared by the branches that agree on its own
    equation's guards; it equals the row built from the whole pattern."""
    jb = jacobian(traffic4)
    for pattern, mat in jb.branches():
        choice = dict(zip(jb.guards, pattern))
        for i, f in enumerate(traffic4.odes):
            smooth = _substitute_branches(f, choice)
            assert mat.entries[i] == tuple(differentiate(smooth, j)
                                           for j in range(traffic4.n))
    assert len(jb._row_cache) == 4 + 4 + 4 + 2


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


def test_validate_evaluates_the_equilibrium_quietly():
    """f(x*) is evaluated under np.errstate.  A NaN residual is refused:
    "resid >= 1e-9" let it pass, after two RuntimeWarnings.  A division by
    zero on the way to a finite zero (exp(+-inf / -0.0) = 0 at x2 = -0)
    prints no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DslError, match=r"not a zero .* = nan"):
            parse_system("""
            system nan_residual {
                states x1 in [0, 1], x2 in [0, 1]
                dx1 = -x1 + 0*(1/x1)
                dx2 = -x2
                equilibrium (0, 0)
            }
            """)
        sysd = parse_system("""
        system folds_to_zero {
            states x1 in [-1, 1], x2 in [-1, 1], x3 in [-1, 1]
            dx1 = -x1 + exp((0.0625 / abs(x2)) / (x3 * (-0.5)^1))
            dx2 = -x2
            dx3 = -x3
            equilibrium (0, -0, 0)
        }
        """)
    with np.errstate(all="ignore"):
        assert not sysd.f_batch(np.array([sysd.equilibrium])).any()


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
