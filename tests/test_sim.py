"""Integrator, decrease checks, contraction-rate validation, entrainment."""

import inspect
import math
import re

import numpy as np
import pytest

import monocert as mc
from conftest import CORPUS, load_family, load_system, linear_system
from monocert.lyap import build_lyapunov
from monocert.sim import (BatchTrajectories, ContractionReport,
                          DecreaseReport, EntrainReport, SimulationError,
                          Trajectory, entrainment_test,
                          estimate_contraction_rate, integrate,
                          integrate_batch, verify_decrease)
from monocert.sysdsl import (Add, Const, Cos, Div, Exp, Max, Min, Mul, Neg,
                             Pow, Sin, Sub, TimeVar, Var)
import monocert.rk4 as rk4
from monocert.rk4 import compile_step
from oracles import (domain_failure, integrate_reference, rk4_at,
                     rk4_four_calls)


def _scalar(body: str, lo="-inf", hi="inf", extra="") -> mc.SystemDef:
    lob = "(" if lo == "-inf" else "["
    hib = ")" if hi == "inf" else "]"
    src = f"""
    system s {{
        states x in {lob}{lo}, {hi}{hib}
        dx = {body}
        {extra}
    }}
    """
    sys = mc.parse_system(src)
    sys.validate()
    return sys


# ---------------------------------------------------------------------------
# integrator accuracy
# ---------------------------------------------------------------------------

def test_rk4_fourth_order():
    """Halving the step must shrink the error by about 2^4."""
    decay = _scalar("-x", extra="equilibrium (0)")
    errs = []
    for dt in (0.1, 0.05):
        tr = integrate(decay, [1.0], 1.0, dt=dt)
        errs.append(abs(tr.final[0] - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 32.0


def test_exponential_decay_accuracy():
    decay = _scalar("-x", extra="equilibrium (0)")
    tr = integrate(decay, [1.0], 1.0, dt=1e-3)
    assert abs(tr.final[0] - math.exp(-1.0)) < 1e-12
    assert tr.max_step_error < 1e-9


def test_time_varying_drive():
    # dx = cos(t) from 0 integrates to sin(t)
    drive = _scalar("0*x + cos(t)", extra="period 6.283185307179586")
    assert drive.time_varying
    tr = integrate(drive, [0.0], 2.0, dt=1e-3)
    assert abs(tr.final[0] - math.sin(2.0)) < 1e-12


def test_final_time_hit_exactly():
    decay = _scalar("-x", extra="equilibrium (0)")
    tr = integrate(decay, [1.0], 1.0, dt=0.3)  # 3 full steps + remainder
    np.testing.assert_allclose(tr.t, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_save_every_thins_but_keeps_final(ex1):
    tr = integrate(ex1, [1.0, 1.0], 1.0, dt=1e-2, save_every=10)
    assert len(tr.t) == 11
    assert tr.t[-1] == pytest.approx(1.0, abs=1e-12)
    assert tr.x.shape == (11, 2)


def _mixed_field() -> mc.SystemDef:
    """Time-varying, with a constant component and a time-only one."""
    sys = mc.parse_system("""
    system mixed {
      states x1 in (-inf, inf), x2 in [-5, 5], x3 in (-inf, inf)
      dx1 = -x1 + x2 * sin(t)
      dx2 = 2
      dx3 = cos(t)
    }
    """)
    sys.validate()
    return sys


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in CORPUS.glob("*.sys")) + ["mixed"])
def test_rk4_step_matches_the_four_call_form(name):
    """K steps of the kernel are bit for bit K rounds of four ``f_batch``
    calls, and close to K steps in Python floats over the tree-walking
    oracle; the error ``integrate_batch`` estimates with it is the
    reference's, and on one step bit for bit max_i |full_i - half_i| / 15,
    ``half`` being two four-call steps of h/2.  ``rk4_run`` takes the row
    kernel for 1 and 3 rows and the column kernel for 40 and 64, past every
    system's crossover, and for 20 on all but entrain_linear and
    entrain_zero, whose rows run past 20, so both shapes are checked on
    every system."""
    sys = _mixed_field() if name == "mixed" else load_system(name)
    kernels, ran = compile_step(sys.odes), []

    def recorded(shape):
        def run(*args):
            ran.append(shape)
            return getattr(kernels, shape)(*args)
        return run

    sys._rk4 = kernels._replace(columns=recorded("columns"),
                                rows=recorded("rows"))
    rng = np.random.default_rng(23)
    lo = np.array([max(b.lo, -3.0) for b in sys.bounds])
    hi = np.array([min(b.hi, 3.0) for b in sys.bounds])
    # a full step, a half step and a remainder step (0.7 - 2 * 0.3)
    for h in (1e-2, 1e-2 / 2, 0.7 - 2 * 0.3):
        for B in (1, 3, 20, 40, 64):
            ran.clear()
            X = lo + (hi - lo) * rng.random((B, sys.n))
            want, t, Y = [], 0.7, X
            for _ in range(15):
                Y = rk4_four_calls(sys, Y, t, h)
                want.append(Y)
                t += h
            for K in (1, 2, 15):
                S = np.full((K, B, sys.n), np.nan)
                assert sys.rk4_run(X, 0.7, h, S) is None
                assert np.array_equal(_bits(S), _bits(np.array(want[:K])))
            exact, t = [list(x) for x in X[:3]], 0.7
            for k in range(15):
                exact = [rk4_at(sys, x, t, h) for x in exact]
                t += h
                np.testing.assert_allclose(S[k, :3], exact, rtol=1e-12, atol=0)
            late = B == 20 and name in ("entrain_linear", "entrain_zero")
            shape = {"rows" if B <= 3 or late else "columns"}
            assert set(ran) == shape
            # the estimates of steps 0 and 16 and of the last, 17 or 18
            for K in (17, 18):
                _assert_matches_reference(sys, X, 0.7 + K * h, h, 0.7, 5,
                                          False)
            # a single estimate, on the run's first step, which it takes
            # also on the rows that leave the domain there (in rotation)
            ran.clear()
            batch = integrate_batch(sys, X, 0.7 + h, dt=h, t0=0.7)
            mid = rk4_four_calls(sys, X, 0.7, h / 2)
            half = rk4_four_calls(sys, mid, 0.7 + h / 2, h / 2)
            kept = sorted(set(range(B)) - set(batch.failures))
            assert np.array_equal(_bits(batch.x[1, kept]),
                                  _bits(want[0][kept]))
            assert np.array_equal(_bits(batch.max_step_error), _bits(
                np.abs(want[0] - half).max(axis=1) / 15.0))
            assert ran == list(shape) * 2   # the step, then its estimate


def _premise_values() -> np.ndarray:
    """About 20k seeded values: signed zeros, infinities, NaN, huge and
    subnormal numbers, then normal, wide uniform and log-uniform samples."""
    rng = np.random.default_rng(29)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-310,
               -5e-324, 1.0, -1.0, 2.0 ** 1023, 0.5]
    scale = np.sign(rng.standard_normal(10_000)) * 10.0 ** rng.uniform(
        -320, 308, 10_000)
    return np.concatenate([special, rng.standard_normal(5_000) * 10,
                           rng.uniform(-800, 800, 5_000), scale])


def test_scalar_calls_give_the_array_bits():
    """The premise of the row kernel.  Each ufunc it calls on a Python
    float returns the bits of the same ufunc on an array; Python's
    ``+ - *`` and ``v*v`` are numpy's add, subtract, multiply and square."""
    v = _premise_values()
    w = v[::-1].copy()
    # against v's first values 0, -0, inf, -inf, NaN, 1e200, -1e200 and
    # 1e-310: signed-zero ties, zero and infinite divisors, NaN either side
    w[:8] = [-0.0, 0.0, np.inf, -np.inf, 1.0, np.nan, 0.0, -0.0]

    def same(array, scalars):
        assert np.array_equal(_bits(array), _bits(np.array(scalars)))

    with np.errstate(all="ignore"):
        for k in (0, 1, 3, 4, 5, 6, 7, 10, 25):
            c = np.array(float(k))   # the 0-d exponent both kernels pass
            same(np.power(v, c), [float(np.power(x, c)) for x in v.tolist()])
        for ufunc in (np.exp, np.sin, np.cos):
            same(ufunc(v), [float(ufunc(x)) for x in v.tolist()])
        pairs = list(zip(v.tolist(), w.tolist()))
        for ufunc in (np.true_divide, np.minimum, np.maximum):
            same(ufunc(v, w), [float(ufunc(x, y)) for x, y in pairs])
        same(np.add(v, w), [x + y for x, y in pairs])
        same(np.subtract(v, w), [x - y for x, y in pairs])
        same(np.multiply(v, w), [x * y for x, y in pairs])
        same(v ** 2, [x * x for x in v.tolist()])


def test_list_calls_give_the_scalar_bits():
    """The premise of the row kernel's batched calls.  Each ufunc it calls
    once on the list of all rows' operands gives every element the bits of
    the same ufunc called on that element alone, for lists of 1 to 17
    floats (numpy's SIMD loops run up to 16 lanes, then a tail), with the
    0-d exponents and constants the kernels pass on either side."""
    v = _premise_values()[:1500]   # the special values, then samples
    w = v[::-1].copy()
    w[:8] = [-0.0, 0.0, np.inf, -np.inf, 1.0, np.nan, 0.0, -0.0]
    c = np.array(-0.0)   # a signed zero against the specials' zeros
    calls = [(np.power, v, np.array(float(k)))
             for k in (0, 1, 3, 4, 5, 6, 7, 10, 25)]
    for ufunc in (np.true_divide, np.minimum, np.maximum):
        calls += [(ufunc, v, w), (ufunc, v, c), (ufunc, c, v),
                  (ufunc, v, np.array(1.5)), (ufunc, np.array(1.5), v)]
    with np.errstate(all="ignore"):
        for ufunc, a, b in calls:
            scalars = [x.tolist() if x.ndim else [x] * len(v) for x in (a, b)]
            want = [float(ufunc(x, y)) for x, y in zip(*scalars)]
            for size in range(1, 18):
                got = []
                for j in range(0, len(want) - size + 1, size):
                    ops = [x if x.ndim == 0 else x[j:j + size].tolist()
                           for x in (a, b)]
                    got += ufunc(*ops).tolist()
                assert np.array_equal(_bits(got), _bits(want[:len(got)]))


_KINDS = (Neg, Add, Sub, Mul, Div, Pow, Min, Max, Exp, Sin, Cos)


def _random_field(rng, n: int, root=None, depth: int = 4):
    """A random expression, of type ``root`` at the top when given.  Its
    leaves are states, ``t`` and constants, zero among them, so that zero
    divisors and subtrees of ``t`` alone turn up."""
    def grow(d, kind=None):
        if kind is None:
            if d == 0 or rng.random() < 0.3:
                pick = int(rng.integers(6))
                if pick < 3:
                    return Var(int(rng.integers(n)))
                if pick == 3:
                    return TimeVar()
                return Const(float(rng.choice([0.0, -0.5, 1.5, 3.0])))
            kind = _KINDS[rng.integers(len(_KINDS))]
        if kind is Pow:
            return Pow(grow(d - 1), int(rng.integers(5)))
        if kind in (Neg, Exp, Sin, Cos):
            return kind(grow(d - 1))
        return kind(grow(d - 1), grow(d - 1))
    return grow(depth, root)


def _assert_shapes_agree(odes, X, t, h, K, lo, hi):
    """Both kernel shapes of ``odes`` take K plain steps, or raise the same
    ArithmeticError, and leave the same bits in S.  A NaN compares as NaN:
    its sign and payload are never observable.  Returns the exception, or
    the first step at which a row of S fails ``lo - s <= INVARIANCE_TOL``
    and ``s - hi <= INVARIANCE_TOL`` (NaN fails), else K."""
    kernels = compile_step(odes)
    tol, seen = mc.sim.INVARIANCE_TOL, []
    for run in (kernels.columns, kernels.rows):
        S = np.full((K,) + X.shape, np.nan)
        try:
            with np.errstate(all="ignore"):
                assert run(X, t, h, S) is None
                inside = ((lo - S <= tol) & (S - hi <= tol)).all(axis=(1, 2))
            got = int(np.argmin(inside)) if not inside.all() else K
        except ArithmeticError as exc:
            got = (type(exc), str(exc))
        seen.append((got, _bits(np.where(np.isnan(S), np.nan, S))))
    (a, S_a), (b, S_b) = seen
    assert a == b
    assert np.array_equal(S_a, S_b)
    return a


@pytest.mark.parametrize("seed", range(3))
def test_row_kernel_matches_the_column_kernel(seed):
    """Random fields with every node type at the top of one equation, on
    x1 in [-3, 3] and x2, x3 free: rows that blow up or leave mid-block,
    zero divisors and subtrees of ``t`` alone.  Each block is also run by
    ``integrate_batch`` with the error estimate, on each shape alone."""
    rng = np.random.default_rng([seed, 43])
    returns = set()
    for root in _KINDS:
        n = int(rng.integers(1, 4))
        odes = [_random_field(rng, n, root)]
        odes += [_random_field(rng, n) for _ in range(n - 1)]
        for m in (1, 2, 5, 9, 17, 33):
            X = rng.uniform(-2.5, 2.5, (m, n))
            lo = np.tile([-3.0] + [-np.inf] * (n - 1), (m, 1))
            hi = np.tile([3.0] + [np.inf] * (n - 1), (m, 1))
            h = float(rng.choice([1e-2, 0.1, 0.3]))
            t = float(rng.choice([0.0, 0.3]))
            returns.add(_assert_shapes_agree(odes, X, t, h, 24, lo, hi))
            _assert_estimates_agree(odes, X, t, h, 24)
    assert 24 in returns and len(returns) > 2   # some blocks stop early


def _assert_estimates_agree(odes, X, t0, h, steps):
    """``integrate_batch`` with the estimate, with either kernel shape
    forced, on x1 in [-3, 3] and the other states free: the same samples,
    failures and errors, or the same ``SimulationError``."""
    n = X.shape[1]
    free = mc.Interval(-np.inf, np.inf, False, False)
    sys = mc.SystemDef("r", tuple(f"x{i + 1}" for i in range(n)),
                       (mc.Interval(-3.0, 3.0),) + (free,) * (n - 1),
                       tuple(odes))
    kernels = compile_step(sys.odes)
    seen = []
    for forced in (kernels._replace(rows=kernels.columns),
                   kernels._replace(columns=kernels.rows)):
        sys._rk4 = forced
        try:
            with np.errstate(all="ignore"):
                got = integrate_batch(sys, X, t0 + steps * h, dt=h, t0=t0)
        except SimulationError as exc:
            seen.append(str(exc))
            continue
        seen.append((_bits(got.t), _bits(got.x), _bits(got.max_step_error),
                     got.failures))
    a, b = seen
    assert type(a) is type(b)
    if isinstance(a, str):
        assert a == b
    else:
        for u, v in zip(a, b):
            assert u == v if isinstance(u, dict) else np.array_equal(u, v)


def test_row_records_share_only_the_same_operation():
    """The row shape computes a node once for each distinct text, so nodes
    that differ only in a constant, or in the sign of a zero, stay apart:
    2 x and 3 x, min(x, 0) and min(x, -0), 0 x and -0 x."""
    x = Var(0)
    odes = (Add(Mul(Const(2.0), x), Mul(Const(3.0), x)),
            Sub(Min(x, Const(0.0)), Min(x, Const(-0.0))),
            Sub(Mul(Const(0.0), x), Mul(Const(-0.0), Var(1))))
    X = np.array([[1.5, -2.0, 0.5], [-0.0, 0.0, -1.0], [-1.0, 3.0, 0.0]])
    inf = np.full(X.shape, np.inf)
    assert _assert_shapes_agree(odes, X, 0.0, 0.1, 4, -inf, inf) == 4


@pytest.mark.parametrize("c,k_out", [(0.5, 6), (1.5, 5), (3.0, 5)])
def test_both_shapes_return_at_the_step_past_the_tolerance(c, k_out):
    """Drift at unit speed towards x = 1, out after step 5 by c times
    ``INVARIANCE_TOL``: both shapes write the same states, and
    ``integrate_batch`` records the first step the rule fails, not one
    that lies inside the tolerance, on rows (1 start) and on columns (40),
    as the reference does."""
    tol = mc.sim.INVARIANCE_TOL
    X = np.array([[1 - 6e-2 + c * tol]])
    assert _assert_shapes_agree((Add(Const(1.0), Mul(Const(0.0), Var(0))),),
                                X, 0.0, 1e-2, 10, np.zeros((1, 1)),
                                np.ones((1, 1))) == k_out
    drift = _scalar("1 + 0*x", lo="0", hi="1")
    for X0, shape in ((X, "rows"), (np.tile(X, (40, 1)), "columns")):
        _assert_matches_reference(drift, X0, 0.1, 1e-2, 0.0, 1, False)
        batch = integrate_batch(drift, X0, 0.1, dt=1e-2)
        assert drift._rk4.pick(len(X0)) is getattr(drift._rk4, shape)
        assert {f[0] for f in batch.failures.values()} == {k_out}
        assert len(batch.failures) == len(X0)


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in CORPUS.glob("*.sys")) + ["mixed", 0])
def test_kernels_take_plain_steps_only(name, monkeypatch):
    """Both shapes are ``run(X, t, h, S)``, as ``SystemDef.rk4_run`` is,
    and their source holds no domain bounds, tolerance, check flag or
    early return: the column kernel's, and the row kernel's for 1, 2, 3
    and 7 rows.  0 is the seed of random fields with every node type."""
    sources = []

    def define(src, consts):
        sources.append("\n".join(src))
        return define_(src, consts)

    define_ = rk4._define
    monkeypatch.setattr(rk4, "_define", define)
    if isinstance(name, int):
        rng = np.random.default_rng([name, 47])
        odes = [_random_field(rng, 3, root) for root in _KINDS]
    else:
        odes = (_mixed_field() if name == "mixed" else load_system(name)).odes
    kernels = compile_step(odes)
    assert len(sources) == 1   # the row kernels are built on first use
    for m in (1, 2, 3, 7):
        S = np.empty((1, m, len(odes)))
        with np.errstate(all="ignore"):
            try:
                kernels.rows(np.full((m, len(odes)), 0.5), 0.0, 0.1, S)
            except ArithmeticError:   # a pole of t in a random field
                pass
    assert len(sources) == 5
    for src in sources:
        assert not re.search(r"\b(lo|hi|_TOL|ok|return)\b", src), src
    for run in (kernels.columns, kernels.rows, mc.SystemDef.rk4_run):
        params = list(inspect.signature(run).parameters)
        assert params[-4:] == ["X", "t", "h", "S"]
        assert params[:-4] in ([], ["self"])


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in CORPUS.glob("*.sys")) + ["mixed", 0, 1])
def test_pick_switches_shape_once(name):
    """As m grows, ``pick`` takes the row kernel below one crossover and
    the column kernel from it on; on the corpus and the mixed field the
    crossover lies between 3 and 40 rows.  0 and 1 are seeds of random
    fields with every node type."""
    if isinstance(name, int):
        rng = np.random.default_rng([name, 47])
        odes = [_random_field(rng, 3, root) for root in _KINDS]
    else:
        odes = (_mixed_field() if name == "mixed" else load_system(name)).odes
    kernels = compile_step(odes)
    shapes = ["rows" if kernels.pick(m) is kernels.rows else "columns"
              for m in range(1, 401)]
    switch = shapes.index("columns")
    assert shapes == ["rows"] * switch + ["columns"] * (400 - switch)
    if not isinstance(name, int):
        assert 3 < switch < 40


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in CORPUS.glob("*.sys")) + [0, 1])
def test_row_kernel_matches_the_columns_at_every_row_count(name):
    """The row kernel, unrolled for each m, leaves the column kernel's bits
    at every m from 1 to two rows past the pick's crossover, on the corpus
    (starts in the box clipped to [-3, 3]) and on random fields with every
    node type (seeds 0 and 1)."""
    if isinstance(name, int):
        rng = np.random.default_rng([name, 47])
        odes = [_random_field(rng, 3, root) for root in _KINDS]
        lo, hi = np.full(len(odes), -3.0), np.full(len(odes), 3.0)
    else:
        sys = load_system(name)
        odes = sys.odes
        lo = np.array([max(b.lo, -3.0) for b in sys.bounds])
        hi = np.array([min(b.hi, 3.0) for b in sys.bounds])
    kernels = compile_step(odes)
    switch = next(m for m in range(1, 401)
                  if kernels.pick(m) is kernels.columns)
    rng = np.random.default_rng([len(odes), 53])
    for m in range(1, switch + 3):
        X = lo + (hi - lo) * rng.random((m, len(odes)))
        _assert_shapes_agree(odes, X, 0.3, 0.05, 6, lo, hi)


def test_row_kernels_are_built_once_per_row_count(monkeypatch):
    """Four starts of dx = 1 on [0, 10] leave the domain one by one, each
    in a block of its own (at steps 100, 400, 700 and 1,000 of 256-step
    blocks): the run builds the row kernel for 4, 3, 2 and 1 rows, once
    each, the estimate's calls included, and a second run on the same
    system builds none."""
    sys = _scalar("1 + 0*x", lo="0", hi="10")
    sys._rk4 = compile_step(sys.odes)
    builds, sizes = [], []
    define = rk4._define
    rk4_run = mc.SystemDef.rk4_run

    def spied(self, X, t, h, S):
        sizes.append(len(X))
        rk4_run(self, X, t, h, S)

    monkeypatch.setattr(rk4, "_define",
                        lambda src, consts: builds.append(1) or define(
                            src, consts))
    monkeypatch.setattr(mc.SystemDef, "rk4_run", spied)
    X0 = np.array([[9.0], [6.0], [3.0], [0.0]])
    for run in range(2):
        sizes.clear()
        batch = integrate_batch(sys, X0, 12.0, dt=1e-2)
        assert sorted(batch.failures) == [0, 1, 2, 3]
        assert sorted(set(sizes)) == [1, 2, 3, 4]
        assert all(sys._rk4.pick(m) is sys._rk4.rows for m in sizes)
        assert len(builds) == 4


def test_both_shapes_keep_the_error_where_a_component_is_nan():
    """Where x2 overflows to inf in the full step and in the half steps,
    their difference is NaN: numpy's maximum makes the row's estimate NaN,
    and fmax keeps its old error, on rows (2 starts) and on columns (40),
    as the reference does."""
    sys = mc.parse_system("""
    system blowup {
      states x1 in (-inf, inf), x2 in (-inf, inf)
      dx1 = -x1
      dx2 = x2^2 * 1e300
    }
    """)
    X = np.array([[1.0, 1.0], [1.0, 0.0]])
    for X0, shape in ((X, "rows"), (np.tile(X, (20, 1)), "columns")):
        _assert_matches_reference(sys, X0, 0.3, 0.1, 0.0, 1, False)
        with np.errstate(all="ignore"):
            batch = integrate_batch(sys, X0, 0.3, dt=0.1)
        assert sys._rk4.pick(len(X0)) is getattr(sys._rk4, shape)
        assert set(batch.failures) == set(range(0, len(X0), 2))
        assert batch.failures[0][:2] == (0, math.inf)
        err = batch.max_step_error
        assert (err[0::2] == 0).all() and (err[1::2] > 0).all()

@pytest.mark.parametrize("field,exc", [
    # t runs 0.5, 0.75, 1.0, ...: t + h reaches 1 on the second step
    (Add(Var(0), Div(Const(1.0), Sub(TimeVar(), Const(1.0)))),
     ZeroDivisionError),
    # (t * 1e154)^2 overflows once t passes about 1.34
    (Sub(Neg(Var(0)), Mul(Const(1e-300), Pow(Mul(TimeVar(), Const(1e154)),
                                             2))), OverflowError),
    # a plain-step pole: t + h reaches 1.5 on step 3
    (Sub(Var(0), Div(Const(1.0), Sub(TimeVar(), Const(1.5)))),
     ZeroDivisionError),
])
def test_both_shapes_raise_at_the_same_step(field, exc):
    """A subtree of ``t`` alone keeps Python's ``/`` and ``**``: both shapes
    raise its error at the same step, with the same states written before
    it."""
    X = np.array([[0.5], [-0.25], [1.0]])
    for m in (1, 3):
        got = _assert_shapes_agree(
            (field,), X[:m], 0.5, 0.25, 12, np.full((m, 1), -np.inf),
            np.full((m, 1), np.inf))
        assert got[0] is exc


def test_both_shapes_raise_at_a_quarter_step_pole():
    """A pole at 0.5 + 0.25/4, the midpoint of the first half step in the
    estimate of step 0, which the plain steps from t = 0.5 with h = 0.25
    never reach: each kernel shape alone goes through, and
    ``integrate_batch`` with the estimate raises the same message on rows
    (1 and 3 starts) and on columns (40)."""
    sys = _scalar("x - 1 / (t - 0.5625)")
    X = np.linspace(-1.0, 1.0, 40)[:, None]
    inf = np.full((3, 1), np.inf)
    assert _assert_shapes_agree(sys.odes, X[:3], 0.5, 0.25, 12, -inf,
                                inf) == 12
    for m, shape in ((1, "rows"), (3, "rows"), (40, "columns")):
        with pytest.raises(SimulationError) as exc:
            integrate_batch(sys, X[:m], 3.5, dt=0.25, t0=0.5)
        assert str(exc.value) == ("the vector field cannot be evaluated "
                                  "between t=0.5 and t=3.5: float division "
                                  "by zero")
        assert sys._rk4.pick(m) is getattr(sys._rk4, shape)


def _assert_matches_reference(sys, X0, t_end, dt, t0, save_every, abort,
                              estimate=True):
    """``integrate_batch`` gives the reference's bits; without the
    estimate, the same samples and failures and an all-NaN error."""
    with np.errstate(all="ignore"):
        got = integrate_batch(sys, X0, t_end, dt=dt, t0=t0,
                              save_every=save_every, abort_on_failure=abort,
                              estimate=estimate)
        t, x, err, failures = integrate_reference(
            sys, X0, t_end, dt, t0=t0, save_every=save_every,
            abort_on_failure=abort)
    assert np.array_equal(_bits(got.t), _bits(t))
    assert got.x.shape == x.shape
    assert np.array_equal(_bits(got.x), _bits(x))
    if estimate:
        assert np.array_equal(_bits(got.max_step_error), _bits(err))
    else:
        assert got.max_step_error.shape == err.shape
        assert np.isnan(got.max_step_error).all()
    assert got.failures == failures


def _edge_starts(rng, sys, X0):
    """Put coordinates of some rows on a bounded domain's edge, past it by
    half of ``INVARIANCE_TOL`` (kept) or by twice it (dropped)."""
    tol = mc.sim.INVARIANCE_TOL
    edges = [(i, e, s) for i, b in enumerate(sys.bounds)
             for e, s in ((b.lo, -1.0), (b.hi, 1.0)) if math.isfinite(e)]
    for r in range(X0.shape[0]):
        if edges and rng.random() < 0.4:
            i, e, s = edges[rng.integers(len(edges))]
            X0[r, i] = e + s * tol * rng.choice([0.0, 0.5, 2.0])
    return X0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.sys")))
def test_integrate_batch_matches_the_whole_run_reference(name, seed):
    """Seeded runs: batch sizes 1 to 20, runs with and without a remainder
    step, two start times, four sample spacings, both abort settings and
    starts on or just past a bounded edge; a step as long as 0.25 lets
    some rows blow up or leave.  Each run is checked with and without the
    error estimate."""
    sys = load_system(name)
    rng = np.random.default_rng([seed, len(name)])
    lo = np.array([max(b.lo, -5.0) for b in sys.bounds])
    hi = np.array([min(b.hi, 5.0) for b in sys.bounds])
    for _ in range(3):
        B = int(rng.choice([1, 2, 3, 7, 20]))
        X0 = _edge_starts(rng, sys, lo + (hi - lo) * rng.random((B, sys.n)))
        dt = float(rng.choice([1e-2, 0.05, 0.25]))
        t0 = float(rng.choice([0.0, 0.3]))
        steps = int(rng.choice([1, 2, 16, 17, 40, 75]))
        t_end = t0 + (steps + float(rng.choice([0.0, 0.37]))) * dt
        run = (X0, t_end, dt, t0, int(rng.choice([1, 3, 16, 50])),
               bool(rng.integers(2)))
        for estimate in (True, False):
            _assert_matches_reference(sys, *run, estimate=estimate)


@pytest.mark.parametrize("abort", [False, True])
def test_run_without_estimate_matches_the_reference_on_both_shapes(
        monkeypatch, abort):
    """Without the estimate, 3 starts on rows and 40 on columns, of which
    some leave [-1, 1]^2 mid-run: every kernel call is a plain block of
    dt, none an estimate's half steps (at h/2), and the samples and
    failures are the reference's bits."""
    sys = load_system("rotation")
    shapes = []
    rk4_run = mc.SystemDef.rk4_run

    def spied(self, X, t, h, S):
        assert h == 1e-2 or abs(h - 0.37e-2) < 1e-12   # or the remainder
        rk4_run(self, X, t, h, S)
        kernels = self._rk4
        shapes.append("rows" if kernels.pick(len(X)) is kernels.rows
                      else "columns")

    monkeypatch.setattr(mc.SystemDef, "rk4_run", spied)
    rng = np.random.default_rng(61)
    for X0 in (np.array([[0.5, 0.0], [0.8, -0.7], [0.3, 0.3]]),
               rng.uniform(-1.0, 1.0, (40, 2))):
        shapes.clear()
        _assert_matches_reference(sys, X0, 2.0 + 0.37e-2, 1e-2, 0.0, 7,
                                  abort, estimate=False)
        assert set(shapes) == {"rows" if len(X0) == 3 else "columns"}
        assert integrate_batch(sys, X0, 2.0, dt=1e-2,
                               estimate=False).failures


def test_contract_and_entrain_take_no_estimate(linear_sym, monkeypatch):
    """``estimate_contraction_rate`` and ``entrainment_test`` discard the
    step error, so no kernel call of theirs takes the estimate: every call
    is a block of the run's own step, none an estimate's two of h/2."""
    steps = []
    rk4_run = mc.SystemDef.rk4_run

    def spied(self, X, t, h, S):
        steps.append(h)
        rk4_run(self, X, t, h, S)

    monkeypatch.setattr(mc.SystemDef, "rk4_run", spied)
    fam = mc.WeightFamily.constant("theta", [1.0, 1.0])
    rep = estimate_contraction_rate(linear_sym, fam, pairs=3, t_end=0.5)
    assert rep.passed and steps and set(steps) == {1e-3}
    steps.clear()
    cubic = load_system("entrain_cubic")
    rep = entrainment_test(cubic, [[-2.0], [2.0]], horizon_periods=2)
    T = float(cubic.period)
    assert steps and set(steps) == {T / round(T / 5e-3)}


def test_run_without_estimate_never_evaluates_the_quarter_step_times():
    """A subtree of ``t`` alone with a pole at t = h/4 only, which the
    estimate of step 0 evaluates and RK4's stage times t, t + h/2 and
    t + h never reach: without the estimate the run, and entrainment,
    go through it, while with the estimate the run raises, on rows (2
    starts) and on columns (30)."""
    pole = _scalar("-x + 1 / (t - 0.0625)", extra="period 1")
    for X0 in (np.array([[1.0], [-1.0]]), np.linspace(-1.0, 1.0, 30)[:, None]):
        batch = integrate_batch(pole, X0, 1.0, dt=0.25, estimate=False)
        assert np.isfinite(batch.x).all() and not batch.failures
        entrainment_test(pole, X0, horizon_periods=2, dt=0.25)
        with pytest.raises(SimulationError, match="cannot be evaluated "
                           r"between t=0 and t=1: float division by zero"):
            integrate_batch(pole, X0, 1.0, dt=0.25)


@pytest.mark.parametrize("name", ["ex1", "entrain_cubic", "rotation"])
def test_long_run_matches_the_whole_run_reference(name):
    """Runs of over 2,000 steps with a remainder step; in rotation one
    start leaves the domain mid-run."""
    sys = load_system(name)
    X0 = np.array([[0.9] * sys.n, [0.3] * sys.n])
    for save_every, abort in ((1, False), (50, True)):
        _assert_matches_reference(sys, X0, 0.3 + 2100.5 * 1e-3, 1e-3, 0.3,
                                  save_every, abort)


def _failures_by_rule(sys, X0, t_end, dt):
    """Each row's failure under the per-row rule, stepping the live rows
    with the four-call RK4 (t_end a whole number of steps)."""
    live = dict(enumerate(np.asarray(X0, dtype=float)))
    failures = {}

    def check(k, t):
        for j in list(live):
            fail = domain_failure(sys, j, live[j].tolist(), k, t)
            if fail is not None:
                failures[j] = fail
                del live[j]

    check(-1, 0.0)
    t = 0.0
    for k in range(int(round(t_end / dt))):
        rows = sorted(live)
        if rows:
            X = rk4_four_calls(sys, np.array([live[j] for j in rows]), t, dt)
            live = dict(zip(rows, X))
        t += dt
        check(k, t)
    return failures


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_domain_check_matches_the_per_row_rule():
    """Starts that are NaN, ±inf under an infinite bound, out by exactly
    ``INVARIANCE_TOL`` (kept) or by the next float above it (dropped)."""
    sys = mc.parse_system("""
    system box {
      states x1 in [0, 1], x2 in [-1, 0], x3 in (-inf, inf)
      dx1 = -x1
      dx2 = -x2
      dx3 = -x3
    }
    """)
    tol = mc.sim.INVARIANCE_TOL
    above = np.nextafter(tol, 1.0)
    X0 = np.array([
        [0.5, -0.5, 0.0],
        [np.nan, -0.5, 0.0],
        [0.5, -0.5, np.inf],
        [0.5, -0.5, -np.inf],
        [-tol, -0.5, 1e300],
        [-above, -0.5, 0.0],
        [0.5, tol, 0.0],
        [0.5, above, 0.0],
        [2.0, 3.0, 0.0],
        [2.0, 1.0, 0.0],
    ])
    batch = integrate_batch(sys, X0, 0.05, dt=1e-2)
    want = _failures_by_rule(sys, X0, 0.05, 1e-2)
    assert set(want) == {1, 2, 3, 5, 7, 8, 9}
    assert batch.failures == want
    for j in (0, 4, 6):
        assert np.all(np.isfinite(batch.trajectory(j).x))
    # each start beside an interior one, so that it alone decides the check
    for j in range(1, len(X0)):
        pair = X0[[0, j]]
        got = integrate_batch(sys, pair, 0.05, dt=1e-2).failures
        assert got == _failures_by_rule(sys, pair, 0.05, 1e-2), j


def test_domain_check_mid_run_matches_the_per_row_rule(rotation):
    """Starts that leave [-1, 1]^2 at different steps, or never."""
    X0 = np.array([[0.5, 0.0], [0.8, -0.7], [0.3, 0.3], [-0.75, 0.75],
                   [0.9, 0.9], [0.0, -0.7]])
    batch = integrate_batch(rotation, X0, 2.0, dt=1e-2)
    want = _failures_by_rule(rotation, X0, 2.0, 1e-2)
    assert set(want) == {1, 3, 4}
    assert len({k for k, _, _ in want.values()}) == 3
    assert batch.failures == want


def test_block_kernel_returns_at_the_step_that_leaves(rotation):
    """A start that leaves [-1, 1]^2 inside a block: the kernel writes the
    block's every state, past that step too, and ``integrate_batch``
    records the per-row rule's failure at that step, with the row's
    samples NaN from it on, on rows (2 starts) and on columns (40), as the
    reference does."""
    dt = 1e-2
    for x0, k_out in (([0.8, -0.7], 37), ([0.9, 0.9], 11)):
        X0 = np.array([x0, [0.5, 0.0]])
        want = _failures_by_rule(rotation, X0, 2.0, dt)
        assert set(want) == {0} and want[0][0] == k_out
        assert integrate_batch(rotation, X0, 2.0, dt=dt).failures == want
        # a block of 15 steps k0 .. k0 + 14 around the step that leaves
        k0 = k_out - k_out % 16 + 1
        X, t, states = X0[:1], 0.0, []
        for _ in range(k0 + 15):
            X = rk4_four_calls(rotation, X, t, dt)
            states.append(X)
            t += dt
        t = 0.0
        for _ in range(k0):
            t += dt
        S = np.full((15, 1, 2), np.nan)
        assert rotation.rk4_run(states[k0 - 1], t, dt, S) is None
        assert np.array_equal(_bits(S), _bits(np.array(states[k0:k0 + 15])))
        for starts, shape in ((X0, "rows"), (np.tile(X0, (20, 1)), "columns")):
            _assert_matches_reference(rotation, starts, 2.0, dt, 0.0, 1,
                                      False)
            batch = integrate_batch(rotation, starts, 2.0, dt=dt)
            assert rotation._rk4.pick(len(starts)) is getattr(rotation._rk4,
                                                              shape)
            assert set(batch.failures) == set(range(0, len(starts), 2))
            assert batch.failures[0] == want[0]
            assert np.isfinite(batch.x[:k_out + 1, 0]).all()
            assert np.isnan(batch.x[k_out + 1:, 0]).all()


@pytest.mark.parametrize("abort", [False, True])
def test_rows_leave_inside_one_block_without_cutting_it(monkeypatch, abort):
    """Starts that leave [-1, 1]^2 at different steps of the first 256-step
    block, with one that stays, 3 on rows and 40 on columns: the kernel is
    called once per block with live rows, and once per scheduled estimate
    (two steps of h/2), and the samples, errors and failures are the
    reference's bits."""
    sys = load_system("rotation")
    calls = []
    rk4_run = mc.SystemDef.rk4_run

    def spied(self, X, t, h, S):
        calls.append((h, len(S), len(X)))
        rk4_run(self, X, t, h, S)

    monkeypatch.setattr(mc.SystemDef, "rk4_run", spied)
    rng = np.random.default_rng(67)
    for X0 in (np.array([[0.8, -0.7], [0.5, 0.0], [0.9, 0.9]]),
               rng.uniform(-1.0, 1.0, (40, 2))):
        calls.clear()
        want = _failures_by_rule(sys, X0, 3.0, 1e-2)
        exits = {k for k, _, _ in want.values()}
        assert len(exits) > 1 and max(exits) < 256
        assert len(want) < len(X0)
        _assert_matches_reference(sys, X0, 3.0, 1e-2, 0.0, 7, abort)
        plain = [c for c in calls if c[0] == 1e-2]
        halves = [c for c in calls if c[0] == 1e-2 / 2]
        assert len(plain) + len(halves) == len(calls)
        if abort:   # the run ends with the first block
            first = min(exits)
            assert plain == [(1e-2, 256, len(X0))]
            assert len(halves) == len(range(0, first + 1, 16))
        else:
            live = len(X0) - len(want)
            assert plain == [(1e-2, 256, len(X0)), (1e-2, 44, live)]
            assert len(halves) == len(range(0, 300, 16)) + 1   # and step 299
        assert {c[1] for c in halves} == {2}


def _block_pole() -> mc.SystemDef:
    """x2 leaves [-3, 3] at about t = 0.27 from x2 = 1, and x1's field has
    a pole at t = 1.5, a plain stage time for dt = 0.25."""
    sys = mc.parse_system("""
    system blockpole {
      states x1 in (-inf, inf), x2 in [-3, 3]
      dx1 = -x1 + 1/(t - 1.5)
      dx2 = 4*x2
    }
    """)
    sys.validate()
    return sys


@pytest.mark.parametrize("abort", [False, True])
def test_a_pole_after_an_exit_in_the_block_names_the_block(abort):
    """A subtree of ``t`` that raises later in a block than a row's exit is
    raised for the whole block, which the kernel runs before the check:
    with the starts (0, 0) and (0, 1), which leaves at step 1, the message
    names the block's span from t = 0, and so it does when every live row
    exits before the pole (the start (0, 1) alone), on rows and on columns,
    with either abort setting."""
    sys = _block_pole()
    for X0 in (np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0]]),
               np.tile([[0.0, 0.0], [0.0, 1.0]], (20, 1))):
        with pytest.raises(SimulationError) as exc:
            integrate_batch(sys, X0, 10.0, dt=0.25, abort_on_failure=abort)
        assert str(exc.value) == ("the vector field cannot be evaluated "
                                  "between t=0 and t=10: float division by "
                                  "zero")


@pytest.mark.parametrize("abort", [False, True])
def test_a_pole_after_every_row_has_left_does_not_raise(abort):
    """With dt = 1e-3, x2 from 1 leaves at step 274, in the second block,
    and the pole at t = 1.5 lies in the sixth: no kernel runs a block
    without live rows, so the run ends with the row's failure, as the
    reference does."""
    sys = _block_pole()
    X0 = np.array([[0.0, 1.0]])
    _assert_matches_reference(sys, X0, 2.0, 1e-3, 0.0, 50, abort)
    batch = integrate_batch(sys, X0, 2.0, dt=1e-3, abort_on_failure=abort)
    assert batch.failures[0][0] == 274


def test_block_kernel_check_keeps_the_tolerance():
    """Drift at unit speed towards x = 1, out after step 5 (inside the
    first block) by 0.5, 1.5 and 3 times ``INVARIANCE_TOL``."""
    drift = _scalar("1 + 0*x", lo="0", hi="1")
    tol = mc.sim.INVARIANCE_TOL
    # one start at a time, so that each alone decides the block's check
    for c, k_out in ((0.5, 6), (1.5, 5), (3.0, 5)):
        X0 = np.array([[1 - 6e-2 + c * tol]])
        want = _failures_by_rule(drift, X0, 0.1, 1e-2)
        assert want[0][0] == k_out
        assert integrate_batch(drift, X0, 0.1, dt=1e-2).failures == want


def test_batch_matches_single_bitwise(ex1):
    """Lockstep batch integration is the same arithmetic as one-at-a-time."""
    X0 = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, 3.0]])
    batch = integrate_batch(ex1, X0, 1.0, dt=1e-2)
    assert isinstance(batch, BatchTrajectories)
    assert batch.n_trajectories == 3
    for j in range(3):
        single = integrate(ex1, X0[j], 1.0, dt=1e-2)
        assert np.array_equal(batch.trajectory(j).x, single.x)
        assert np.array_equal(batch.t, single.t)


def test_batch_step_error_is_per_trajectory(ex1):
    X0 = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, 3.0]])
    batch = integrate_batch(ex1, X0, 1.0, dt=1e-2)
    errs = [batch.trajectory(j).max_step_error for j in range(3)]
    for j in range(3):
        assert errs[j] == integrate(ex1, X0[j], 1.0, dt=1e-2).max_step_error
    assert len(set(errs)) == 3


def test_mixed_batch_aborts_only_the_row_that_leaves(rotation):
    """Row 2 starts inside [-1, 1]^2 at radius 1.06 and leaves mid-run;
    the other rows finish exactly as they would alone."""
    X0 = np.array([[0.5, 0.0], [0.0, -0.7], [0.8, -0.7], [0.3, 0.3]])
    batch = integrate_batch(rotation, X0, 2.0, dt=1e-2)
    assert set(batch.failures) == {2}
    for j in (0, 1, 3):
        single = integrate(rotation, X0[j], 2.0, dt=1e-2)
        got = batch.trajectory(j)
        assert np.array_equal(got.x, single.x)
        assert np.array_equal(got.t, single.t)
        assert got.max_step_error == single.max_step_error
    with pytest.raises(SimulationError) as alone:
        integrate(rotation, X0[2], 2.0, dt=1e-2)
    with pytest.raises(SimulationError) as batched:
        batch.trajectory(2)
    assert str(alone.value).startswith("trajectory 0 left the domain at t=0.3")
    assert str(batched.value) == str(alone.value).replace(
        "trajectory 0 ", "trajectory 2 ", 1)


def _single_failures(sys, X0, t_end, dt):
    """(failure time, message) of every start that fails when run alone."""
    out = {}
    for j, x0 in enumerate(X0):
        try:
            integrate(sys, x0, t_end, dt=dt)
        except SimulationError as exc:
            msg = str(exc)
            out[j] = (float(msg.split("t=")[1].split(":")[0]), msg)
    return out


def test_entrainment_raises_the_earliest_failure():
    # dx = 1 drifts out of [0, 10]: the start at 9.5 leaves first, at
    # about t = 0.5, the start at 8 at about t = 2
    drift = _scalar("1 + 0*sin(t)", lo="0", hi="10", extra="period 1")
    X0 = np.array([[8.0], [9.5], [1.0]])
    alone = _single_failures(drift, X0, 5.0, 5e-3)
    assert set(alone) == {0, 1} and alone[1][0] < alone[0][0]
    with pytest.raises(SimulationError) as exc:
        entrainment_test(drift, X0, horizon_periods=5, dt=5e-3)
    assert str(exc.value) == alone[1][1].replace("trajectory 0 ",
                                                 "trajectory 1 ", 1)


def test_contraction_rate_raises_the_earliest_failure(rotation):
    fam = mc.WeightFamily.constant("theta", [1.0, 1.0])
    box = mc.WorkingBox((-1.0, -1.0), (1.0, 1.0))
    # the starts estimate_contraction_rate draws for seed 2, 4 pairs
    rng = np.random.default_rng(2)
    X0 = -1.0 + 2.0 * rng.random((8, 2))
    alone = _single_failures(rotation, X0, 3.0, 1e-3)
    times = sorted(t for t, _ in alone.values())
    assert len(times) >= 2 and times[0] < times[1]
    first = min(alone, key=lambda j: alone[j][0])
    assert first != 0
    with pytest.raises(SimulationError) as exc:
        estimate_contraction_rate(rotation, fam, pairs=4, box=box,
                                  t_end=3.0, seed=2)
    assert str(exc.value) == alone[first][1].replace(
        "trajectory 0 ", f"trajectory {first} ", 1)


def test_contraction_rate_stops_at_the_first_failure(rotation, monkeypatch):
    """The pairs stop integrating after the block that holds the step at
    which the first start leaves the domain (t = 0.21 for seed 2), not at
    t_end = 3, and the raised diagnostic is that earliest failure."""
    fam = mc.WeightFamily.constant("theta", [1.0, 1.0])
    box = mc.WorkingBox((-1.0, -1.0), (1.0, 1.0))
    ends = []
    rk4_run = mc.SystemDef.rk4_run

    def counted_run(self, X, t, h, S):
        rk4_run(self, X, t, h, S)
        for _ in range(len(S)):    # the steps it computed
            t += h
            ends.append(t)

    monkeypatch.setattr(mc.SystemDef, "rk4_run", counted_run)
    with pytest.raises(SimulationError,
                       match=r"^trajectory 3 left the domain at t=0\.21:"):
        estimate_contraction_rate(rotation, fam, pairs=4, box=box,
                                  t_end=3.0, seed=2)
    # one end a step (the pairs take no error estimate): the first block,
    # of 256 steps, and no other
    assert len(ends) == 256
    assert max(ends) < 0.2565


def test_abort_on_failure_keeps_the_failures_of_that_step(rotation):
    """Two starts that leave at the same step are both recorded, and the
    samples end at that step."""
    X0 = np.array([[0.8, -0.7], [-0.8, 0.7], [0.1, 0.1]])
    full = integrate_batch(rotation, X0, 2.0, dt=1e-2)
    cut = integrate_batch(rotation, X0, 2.0, dt=1e-2, abort_on_failure=True)
    assert set(cut.failures) == set(full.failures) == {0, 1}
    assert cut.failures == full.failures
    k = cut.failures[0][0]
    assert cut.t.shape == (k + 2,)
    assert np.array_equal(cut.x, full.x[:k + 2], equal_nan=True)


def test_to_csv_matches_row_by_row_formatting(tmp_path):
    t = np.array([0.0, 0.1, 0.2, 0.30000000000000004, 1e-300])
    x = np.array([[1.0, -0.0], [np.nan, 2.5e-17], [np.inf, -np.inf],
                  [1 / 3, 123456789.123456789], [-1e300, 5e-324]])
    tr = Trajectory(t, x, 0.1, 0.0, ("a", "b"))
    path = tmp_path / "fast.csv"
    tr.to_csv(path)
    want = "t,a,b\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n"
        for row in zip(t, x[:, 0], x[:, 1]))
    assert path.read_bytes() == want.encode()


def test_trajectory_to_csv(tmp_path, ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    tr = integrate(ex1, [2.0, 1.0], 0.5, dt=1e-2)
    path = tmp_path / "traj.csv"
    tr.to_csv(path, V=V)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,V"
    assert len(lines) == len(tr.t) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[:3] == [0.0, 2.0, 1.0]
    assert first[3] == pytest.approx(V.value([2.0, 1.0]), abs=1e-12)


# ---------------------------------------------------------------------------
# domain and argument guards
# ---------------------------------------------------------------------------

def test_domain_exit_aborts_with_diagnostic():
    runaway = _scalar("0*x + 1", lo="0", hi="1")
    with pytest.raises(SimulationError, match=r"left the domain .*x=.*not clamping"):
        integrate(runaway, [0.5], 2.0, dt=1e-2)


def test_nonfinite_state_aborts():
    blowup = _scalar("x^2")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="non-finite state"):
            integrate(blowup, [1.5], 1.0, dt=1e-3)


def test_bad_timespan_and_step(ex1):
    span = "^t-end must exceed the start time$"
    with pytest.raises(SimulationError, match=span):
        integrate(ex1, [1.0, 1.0], 0.0)
    with pytest.raises(SimulationError, match=span):
        integrate(ex1, [1.0, 1.0], 1.0, t0=2.0)
    with pytest.raises(SimulationError, match="dt must be positive"):
        integrate(ex1, [1.0, 1.0], 1.0, dt=0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
def test_step_not_positive_and_finite_is_a_simulation_error(ex1, dt):
    """Worded as the command line words it.  Before, a NaN dt raised
    ValueError and an infinite one took a single step to t_end."""
    with pytest.raises(SimulationError,
                       match="^dt must be positive and finite$"):
        integrate_batch(ex1, [[1.0, 1.0]], 1.0, dt=dt)


@pytest.mark.parametrize("t_end,t0", [(math.inf, 0.0), (math.nan, 0.0),
                                      (1.0, math.nan), (1.0, -math.inf)])
def test_non_finite_timespan_is_a_simulation_error(ex1, t_end, t0):
    """Before, an infinite t_end raised OverflowError and a NaN one
    ValueError."""
    with pytest.raises(SimulationError,
                       match="^t-end and t0 must be finite$"):
        integrate_batch(ex1, [[1.0, 1.0]], t_end, t0=t0)


def test_bad_initial_condition_shape(ex1):
    with pytest.raises(SimulationError, match=r"\(B, 2\)"):
        integrate_batch(ex1, np.zeros((3, 5)), 1.0)


def test_initial_condition_outside_domain(ex1):
    with pytest.raises(SimulationError, match="left the domain"):
        integrate(ex1, [-1.0, 0.5], 1.0)


# ---------------------------------------------------------------------------
# Lyapunov decrease along trajectories
# ---------------------------------------------------------------------------

def test_verify_decrease_certified_system(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    tr = integrate(ex1, [2.0, 3.0], 20.0, dt=5e-3, save_every=5)
    rep = verify_decrease(V, tr, require_terminal=True)
    assert rep.passed
    assert rep.n_violations == 0
    assert rep.max_violation <= 0.0
    assert rep.first_violation_time is None
    assert rep.terminal_ok is True
    assert rep.terminal <= 1e-6 * rep.initial + 1e-15
    assert rep.initial == pytest.approx(V.value([2.0, 3.0]), abs=1e-12)


def test_verify_decrease_flags_growth():
    grow = linear_system([[1.0]], lo=-5.0, hi=5.0)
    fam = mc.WeightFamily.constant("theta", [1.0])
    V = build_lyapunov(grow, fam, "state-sum")
    tr = integrate(grow, [0.1], 2.0, dt=1e-2)
    rep = verify_decrease(V, tr)
    assert not rep.passed
    assert rep.max_increment > 0.0
    assert rep.n_violations == len(tr.t) - 1
    assert rep.first_violation_time == pytest.approx(tr.t[1], abs=1e-15)
    assert rep.terminal_ok is None
    assert rep.terminal > rep.initial


def test_decrease_report_jsonable(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    tr = integrate(ex1, [1.0, 1.0], 1.0, dt=1e-2)
    rep = verify_decrease(V, tr)
    obj = rep.to_jsonable()
    assert set(obj) == {"passed", "max_increment", "max_violation",
                        "first_violation_time", "n_violations",
                        "initial", "terminal", "terminal_ok"}
    assert isinstance(rep, DecreaseReport)
    assert len(rep.values) == len(tr.t)


# ---------------------------------------------------------------------------
# contraction-rate validation
# ---------------------------------------------------------------------------

def test_contraction_rate_linear(linear_sym):
    fam = load_family("linear_sym.theta.json")
    rep = estimate_contraction_rate(linear_sym, fam, norm="l1", pairs=4,
                                    t_end=2.0, dt=1e-3, seed=3)
    # identity weights give column sums exactly -1 on both columns
    assert rep.certified_rate == 1.0
    assert rep.passed
    assert rep.ratio_excess <= 1e-6
    assert rep.flow_ratio_excess <= 1e-6
    assert rep.fitted_rate >= 0.99
    assert rep.n_pairs == 4
    assert rep.certificate.passed


def _never(*args, **kwargs):
    raise AssertionError("called before the arguments were checked")


def _named(cases: list) -> list:
    return [pytest.param(kwargs, message, id=",".join(
        f"{k}={v}" for k, v in kwargs.items())) for kwargs, message in cases]


@pytest.mark.parametrize("kwargs,message", _named([
    ({"t_end": math.inf}, "t-end must be positive and finite"),
    ({"t_end": math.nan}, "t-end must be positive and finite"),
    ({"t_end": 0.0}, "t-end must be positive and finite"),
    ({"dt": 0.0}, "dt must be positive and finite"),
    ({"dt": math.nan}, "dt must be positive and finite"),
    ({"dt": -1e-3}, "dt must be positive and finite"),
    ({"pairs": 0}, "pairs must be at least 1"),
    ({"pairs": -1}, "pairs must be at least 1"),
]))
def test_contraction_rate_refuses_what_the_cli_refuses(linear_sym, kwargs,
                                                       message, monkeypatch):
    """Worded as the command line words it, before the certificate is
    computed.  Before, t_end inf or nan raised OverflowError or
    ValueError, dt 0 or nan ZeroDivisionError or ValueError, and pairs=0
    passed with no pair integrated."""
    monkeypatch.setattr(mc.sim, "check_cor3", _never)
    fam = load_family("linear_sym.theta.json")
    with pytest.raises(SimulationError, match=f"^{message}$"):
        estimate_contraction_rate(linear_sym, fam, **kwargs)


def test_contraction_rate_rejects_expansion():
    grow = _scalar("x", lo="-5", hi="5", extra="equilibrium (0)")
    fam = mc.WeightFamily.constant("theta", [1.0])
    rep = estimate_contraction_rate(grow, fam, norm="l1", pairs=3,
                                    t_end=1.0, dt=1e-3,
                                    box=mc.WorkingBox((-1.0,), (1.0,), 11),
                                    seed=5)
    assert not rep.passed
    assert rep.certified_rate == 0.0      # no decay certified, clamped
    # distances grow like e^t, so the unit-ratio bound is exceeded by e - 1
    assert rep.ratio_excess == pytest.approx(math.e - 1.0, rel=1e-6)
    assert rep.fitted_rate == pytest.approx(-1.0, abs=1e-6)


def test_contraction_rate_omega_linf(multiagent):
    """omega = (1, 1.5, 1.7) scales row i of J by 1/omega_i and column j by
    omega_j; row 3 is the worst, -1 + 1.5/1.7 = -2/17."""
    fam = load_family("multiagent.w.json")
    rep = estimate_contraction_rate(multiagent, fam, norm="linf", pairs=4,
                                    t_end=2.0, dt=1e-3, seed=3)
    assert rep.certificate.condition == "cor3-linf"
    assert rep.certified_rate == pytest.approx(2.0 / 17.0, rel=1e-12)
    assert rep.passed
    assert rep.ratio_excess <= 1e-6
    assert rep.flow_ratio_excess <= 1e-6
    assert rep.fitted_rate >= rep.certified_rate


def test_contraction_rate_accepts_mixed_kind_and_norm(linear_sym):
    """The measure check and the contraction check take either kind with
    either norm; the distance, the grid measure and the Lyapunov builder
    reject mixing."""
    theta = load_family("linear_sym.theta.json")
    # identity weights on the symmetric A: row sums -1 as well
    rep = estimate_contraction_rate(linear_sym, theta, norm="linf", pairs=4,
                                    t_end=2.0, dt=1e-3, seed=3)
    assert rep.certificate.condition == "cor3-linf"
    assert rep.certified_rate == 1.0
    assert rep.passed
    assert rep.ratio_excess <= 1e-6
    assert rep.fitted_rate >= 0.99
    omega = mc.WeightFamily.constant("omega", [1.0, 1.0])
    rep = estimate_contraction_rate(linear_sym, omega, norm="l1", pairs=4,
                                    t_end=2.0, dt=1e-3, seed=3)
    assert rep.certificate.condition == "cor3-l1"
    assert rep.certified_rate == 1.0
    assert rep.passed
    box = mc.WorkingBox((-1.0, -1.0), (1.0, 1.0), 5)
    with pytest.raises(mc.CertifyError, match="omega"):
        mc.grid_mu_values(linear_sym, theta, box, "linf")
    with pytest.raises(mc.LyapError, match="omega family"):
        mc.weighted_distance(theta, [0.0, 0.0], [1.0, 1.0], norm="linf")
    with pytest.raises(mc.LyapError, match="needs kind 'omega'"):
        build_lyapunov(linear_sym, theta, "state-max")


def test_contraction_report_jsonable(linear_sym):
    fam = load_family("linear_sym.theta.json")
    rep = estimate_contraction_rate(linear_sym, fam, norm="l1", pairs=2,
                                    t_end=0.5, dt=1e-2, seed=1)
    assert isinstance(rep, ContractionReport)
    obj = rep.to_jsonable()
    assert obj["certified_rate"] == 1.0
    assert obj["certificate"]["condition"] == "cor3-l1"


# ---------------------------------------------------------------------------
# entrainment
# ---------------------------------------------------------------------------

def test_entrainment_cubic_converges():
    cubic = load_system("entrain_cubic")
    rep = entrainment_test(cubic, [-2.0, 0.0, 2.0], horizon_periods=40,
                           dt=5e-3)
    assert rep.passed
    assert rep.checks == {"pairwise_nonincreasing": True,
                          "geometric_decay": True, "final_mutual": True}
    assert rep.final_spread < 1e-4
    assert rep.spread.shape == (41,)
    assert rep.increments.shape == (40, 3)
    assert rep.period == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_entrainment_zero_field_fails():
    zero = load_system("entrain_zero")
    rep = entrainment_test(zero, [-1.0, 1.0], horizon_periods=6, dt=5e-3)
    assert not rep.passed
    assert rep.checks["pairwise_nonincreasing"] is True
    assert rep.checks["geometric_decay"] is False
    assert rep.checks["final_mutual"] is False
    assert rep.final_spread == 2.0   # nothing ever moves


def test_entrainment_guards(ex1):
    with pytest.raises(SimulationError, match="declared period"):
        entrainment_test(ex1, [[0.0, 0.0], [1.0, 1.0]])
    cubic = load_system("entrain_cubic")
    with pytest.raises(SimulationError, match="at least two"):
        entrainment_test(cubic, [0.5])


@pytest.mark.parametrize("kwargs,message", _named([
    ({"dt": 0.0}, "dt must be positive and finite"),
    ({"dt": math.nan}, "dt must be positive and finite"),
    ({"dt": -0.1}, "dt must be positive and finite"),
    ({"dt": math.inf}, "dt must be positive and finite"),
    ({"horizon_periods": 0}, "periods must be at least 1"),
    ({"horizon_periods": -3}, "periods must be at least 1"),
]))
def test_entrainment_refuses_what_the_cli_refuses(kwargs, message,
                                                  monkeypatch):
    """Worded as the command line words it, before anything is integrated.
    Before, dt 0 or nan raised ZeroDivisionError or ValueError, dt -0.1 or
    inf took one step per period and reported a non-finite state, and
    zero periods were refused as a t_end that does not exceed the start."""
    monkeypatch.setattr(mc.sim, "integrate_batch", _never)
    with pytest.raises(SimulationError, match=f"^{message}$"):
        entrainment_test(load_system("entrain_cubic"), [-2.0, 2.0], **kwargs)


def test_entrain_report_jsonable():
    zero = load_system("entrain_zero")
    rep = entrainment_test(zero, [-1.0, 1.0], horizon_periods=4, dt=1e-2)
    assert isinstance(rep, EntrainReport)
    obj = rep.to_jsonable()
    assert set(obj) == {"passed", "checks", "final_spread", "period",
                        "n_periods"}
    assert obj["n_periods"] == 4


# ---------------------------------------------------------------------------
# order preservation: monotone flows keep componentwise order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,lo,hi", [
    ("ex1", 0.0, 3.0),
    ("multiagent", -1.5, 1.5),
    ("traffic4", 0.0, 1.0),
])
def test_flow_preserves_partial_order(name, lo, hi):
    """x0 <= y0 componentwise implies x(t) <= y(t) for Kamke-monotone
    fields; checked on 20 sampled ordered pairs per system."""
    sys = load_system(name)
    rng = np.random.default_rng(41)
    X = rng.uniform(lo, hi, size=(20, sys.n))
    Y = np.minimum(X + rng.uniform(0.0, (hi - lo) / 2, size=(20, sys.n)), hi)
    batch = integrate_batch(sys, np.concatenate([X, Y], axis=0), 5.0,
                            dt=5e-3, save_every=10)
    gap = batch.x[:, :20, :] - batch.x[:, 20:, :]
    assert float(np.max(gap)) <= 1e-9


def test_rotation_does_not_preserve_order(rotation):
    """The negative example: a rotation swaps orderings within a quarter
    turn, so the same check must fail."""
    X0 = np.array([[0.0, 0.0], [0.5, 0.5]])
    batch = integrate_batch(rotation, X0, 3.0, dt=1e-2)
    gap = batch.x[:, 0, :] - batch.x[:, 1, :]
    assert float(np.max(gap)) > 0.1
