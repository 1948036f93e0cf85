import json
from pathlib import Path

import numpy as np
import pytest

import monocert as mc
from monocert.sysdsl import Add, Const, Interval, Mul, SystemDef, Var

CORPUS = Path(__file__).resolve().parents[1] / "src" / "monocert" / "corpus"


def load_system(name: str) -> mc.SystemDef:
    return mc.parse_system((CORPUS / f"{name}.sys").read_text())


def load_family(filename: str) -> mc.WeightFamily:
    return mc.WeightFamily.from_jsonable(
        json.loads((CORPUS / filename).read_text()))


def strict_json(text: str):
    """Parse ``text`` as RFC 8259 JSON, which has no NaN or Infinity:
    a bare ``NaN``, ``Infinity`` or ``-Infinity`` token raises."""
    def refuse(token):
        raise ValueError(f"not strict JSON: bare {token}")
    return json.loads(text, parse_constant=refuse)


def random_family(rng, kind: str, n: int) -> mc.WeightFamily:
    """Polynomial and reciprocal weights of degree <= 3, positive on [0, 1]:
    constant term in [1, 2], higher coefficients in [-0.2, 0.2]."""
    comps = []
    for _ in range(n):
        coeffs = [rng.uniform(1.0, 2.0)]
        coeffs += list(rng.uniform(-0.2, 0.2, size=rng.integers(0, 4)))
        comps.append(mc.WeightComponent(tuple(coeffs),
                                        reciprocal=bool(rng.integers(2))))
    return mc.WeightFamily(kind, tuple(comps))


def linear_system(A, lo=-1.0, hi=1.0, name="lin") -> SystemDef:
    """dx = A x on a symmetric box, built directly from expression nodes."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    odes = []
    for i in range(n):
        terms = [Mul(Const(float(A[i, j])), Var(j))
                 for j in range(n) if A[i, j] != 0.0]
        if not terms:
            terms = [Mul(Const(0.0), Var(i))]
        e = terms[0]
        for term in terms[1:]:
            e = Add(e, term)
        odes.append(e)
    s = SystemDef(name=name,
                  state_names=tuple(f"x{i + 1}" for i in range(n)),
                  bounds=tuple(Interval(float(lo), float(hi)) for _ in range(n)),
                  odes=tuple(odes),
                  equilibrium=tuple(0.0 for _ in range(n)))
    s.validate()
    return s


@pytest.fixture(scope="session")
def ex1():
    return load_system("ex1")


@pytest.fixture(scope="session")
def ex1_theta():
    return load_family("ex1.theta.json")


@pytest.fixture(scope="session")
def ex1_omega():
    return load_family("ex1.omega.json")


@pytest.fixture(scope="session")
def ex1_box():
    return mc.WorkingBox((0.0, 0.0), (3.0, 3.0), 41)


@pytest.fixture(scope="session")
def comparison():
    return load_system("comparison")


@pytest.fixture(scope="session")
def multiagent():
    return load_system("multiagent")


@pytest.fixture(scope="session")
def traffic4():
    return load_system("traffic4")


@pytest.fixture(scope="session")
def linear_sym():
    return load_system("linear_sym")


@pytest.fixture(scope="session")
def rotation():
    return load_system("rotation")
