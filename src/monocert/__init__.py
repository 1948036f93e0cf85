"""monocert: contraction certificates and weight synthesis for monotone systems.

Workflow: describe a system in the small ODE text format (``parse_system``),
pick or synthesize per-coordinate weights, run the grid certification checks
(``check_thm1``/``check_thm2``/``check_cor1``/``check_cor2``/``check_cor3``),
then build separable Lyapunov functions and validate against simulated
trajectories.  The ``monocert`` command line exposes the same pipeline.
"""

from .certify import (CertReport, CertifyError, DEFAULT_EPS,
                      DEFAULT_RESOLUTION, WorkingBox, certify_all,
                      check_cor1, check_cor2, check_cor3, check_kamke,
                      check_thm1, check_thm2, grid_condition_values,
                      grid_mu_values)
from .lyap import (VARIANTS, LyapError, LyapFn, build_lyapunov,
                   weighted_distance)
from .measures import (WeightComponent, WeightFamily, is_metzler, mu1,
                       mu_inf, weighted_jacobian)
from .sim import (ContractionReport, DecreaseReport, EntrainReport,
                  SimulationError, Trajectory, entrainment_test,
                  estimate_contraction_rate, integrate, integrate_batch,
                  verify_decrease)
from .synth import (LPProblem, LPResult, SynthError, SynthResult,
                    export_sos_sdpa, parse_sos_solution, solve_lp,
                    synth_const, synth_poly)
from .sysdsl import (DslError, Interval, SystemDef, jacobian, parse_expr,
                     parse_system)

__version__ = "0.1.0"

__all__ = [
    # system description
    "SystemDef", "Interval", "DslError", "parse_system", "parse_expr",
    "jacobian",
    # measures and weights
    "WeightComponent", "WeightFamily", "mu1", "mu_inf", "is_metzler",
    "weighted_jacobian",
    # certification
    "WorkingBox", "CertReport", "CertifyError", "check_kamke",
    "check_thm1", "check_thm2", "check_cor1", "check_cor2", "check_cor3",
    "certify_all", "grid_condition_values", "grid_mu_values",
    "DEFAULT_EPS", "DEFAULT_RESOLUTION",
    # synthesis
    "LPProblem", "LPResult", "solve_lp", "SynthResult", "SynthError",
    "synth_const", "synth_poly", "export_sos_sdpa", "parse_sos_solution",
    # Lyapunov functions
    "LyapFn", "LyapError", "build_lyapunov", "weighted_distance",
    "VARIANTS",
    # simulation
    "Trajectory", "SimulationError", "integrate", "integrate_batch",
    "verify_decrease", "DecreaseReport", "estimate_contraction_rate",
    "ContractionReport", "entrainment_test", "EntrainReport",
    "__version__",
]
