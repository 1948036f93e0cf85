"""monocert: contraction certificates and weight synthesis for monotone systems.

Workflow: describe a system in the small ODE text format (``parse_system``),
pick or synthesize per-coordinate weights, run the grid certification checks
(``check_thm1``/``check_thm2``/``check_cor1``/``check_cor2``/``check_cor3``),
then build separable Lyapunov functions and validate against simulated
trajectories.  The ``monocert`` command line exposes the same pipeline.

``import monocert`` loads no submodule: each public name below loads its
module on first use (PEP 562), so a program that only parses systems and
reads weights never compiles the certification, synthesis, Lyapunov or
simulation modules.
"""

__version__ = "0.1.0"

# the public names by home module; ``__all__``, attribute access and
# ``dir`` all read this one table
_EXPORTS = {
    # system description
    "sysdsl": ("SystemDef", "Interval", "DslError", "parse_system",
               "parse_expr", "jacobian"),
    # measures and weights
    "measures": ("WeightComponent", "WeightFamily", "mu1", "mu_inf",
                 "is_metzler", "weighted_jacobian"),
    # certification
    "certify": ("WorkingBox", "CertReport", "CertifyError", "check_kamke",
                "check_thm1", "check_thm2", "check_cor1", "check_cor2",
                "check_cor3", "certify_all", "grid_condition_values",
                "grid_mu_values", "DEFAULT_EPS", "DEFAULT_RESOLUTION"),
    # synthesis
    "synth": ("LPProblem", "LPResult", "solve_lp", "SynthResult",
              "SynthError", "synth_const", "synth_poly", "export_sos_sdpa",
              "parse_sos_solution"),
    # Lyapunov functions
    "lyap": ("LyapFn", "LyapError", "build_lyapunov", "weighted_distance",
             "VARIANTS"),
    # simulation
    "sim": ("Trajectory", "SimulationError", "integrate", "integrate_batch",
            "verify_decrease", "DecreaseReport", "estimate_contraction_rate",
            "ContractionReport", "entrainment_test", "EntrainReport"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which ``-X importtime`` reports and
    # ``importlib.import_module`` bypasses; it binds the module in globals()
    __import__(f"{__name__}.{module}")
    value = getattr(globals()[module], name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
