"""The public ``monocert`` namespace: every name of the eager package is
still there, and ``import monocert`` loads only the modules a caller uses.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monocert

SRC = Path(__file__).resolve().parents[1] / "src"

# ``monocert.__all__`` as the package exported it when it imported every
# module eagerly, in its order
PUBLIC = [
    "SystemDef", "Interval", "DslError", "parse_system", "parse_expr",
    "jacobian",
    "WeightComponent", "WeightFamily", "mu1", "mu_inf", "is_metzler",
    "weighted_jacobian",
    "WorkingBox", "CertReport", "CertifyError", "check_kamke",
    "check_thm1", "check_thm2", "check_cor1", "check_cor2", "check_cor3",
    "certify_all", "grid_condition_values", "grid_mu_values",
    "DEFAULT_EPS", "DEFAULT_RESOLUTION",
    "LPProblem", "LPResult", "solve_lp", "SynthResult", "SynthError",
    "synth_const", "synth_poly", "export_sos_sdpa", "parse_sos_solution",
    "LyapFn", "LyapError", "build_lyapunov", "weighted_distance",
    "VARIANTS",
    "Trajectory", "SimulationError", "integrate", "integrate_batch",
    "verify_decrease", "DecreaseReport", "estimate_contraction_rate",
    "ContractionReport", "entrainment_test", "EntrainReport",
    "__version__",
]
HOMES = ("sysdsl", "measures", "certify", "synth", "lyap", "sim")


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this checkout."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    return run.stdout


def test_import_loads_only_the_modules_a_caller_uses():
    """Parsing, validating and reading weights loads the system and
    measure modules alone; the certification, synthesis, Lyapunov,
    simulation and command-line modules stay unloaded."""
    corpus = SRC / "monocert" / "corpus"
    out = _fresh(f"""
import json, sys
import monocert
print(json.dumps(sorted(m for m in sys.modules if m.startswith("monocert"))))
monocert.parse_system(open({str(corpus / "ex1.sys")!r}).read()).validate()
monocert.WeightFamily.from_jsonable(
    json.load(open({str(corpus / "ex1.theta.json")!r})))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("monocert"))))
""")
    bare, used = map(json.loads, out.splitlines())
    assert bare == ["monocert"]
    assert used == ["monocert", "monocert.measures", "monocert.sysdsl"]


def test_every_public_name_is_its_home_modules_object():
    assert monocert.__all__ == PUBLIC
    homes = [importlib.import_module(f"monocert.{m}") for m in HOMES]
    for name in PUBLIC[:-1]:
        owners = [m for m in homes if name in vars(m)
                  and vars(m)[name] is getattr(monocert, name)]
        assert owners, name
    assert monocert.__version__ == "0.1.0"


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(monocert))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'check_thm3'"):
        monocert.check_thm3


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from monocert import *", scope)
    assert all(scope[name] is getattr(monocert, name) for name in PUBLIC)


def test_submodules_and_star_import_in_a_fresh_interpreter():
    """``import monocert.sysdsl`` binds the module on the package, and a
    star import in a fresh interpreter loads every home module."""
    out = _fresh("""
import sys
import monocert.sysdsl
print(monocert.sysdsl.parse_system is monocert.parse_system)
from monocert import *
print(check_thm1 is sys.modules["monocert.certify"].check_thm1)
""")
    assert out.split() == ["True", "True"]
