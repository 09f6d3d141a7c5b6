"""First-order optimization with perturbation-based convergence diagnostics
and point-based calmness certificates."""

from .core import (ConfigError, IterateTrace, NumericAbort, ProblemSpec,
                   SolverConfig, StationarySetApprox, distance_to_set,
                   load_problem, problem_from_json, save_problem)
from .losses import (Box, ExponentialLoss, LipschitzBound, LogisticLoss,
                     QuadraticLoss, SigmoidNNLoss, StructuredCompositeLoss,
                     loss_from_json)
from .penalties import (BoxIndicator, GroupLasso, IntervalSet, L1Penalty,
                        McpPenalty, NegAbsPenalty, Penalty, ProxResult,
                        ScadPenalty, ZeroPenalty, penalty_from_json)
from .graphs_cones import PolylineGraph, classify_point
from .solvers import pg_solve, ppa_solve
from .constrained_solvers import (ConvexTerm, KKTTrace,
                                  LinearlyConstrainedProblem, SaddleProblem,
                                  gpadmm_solve, pdhg_solve)
from .calmness import (CertificateError, CertificateReport, ModulusEstimate,
                       check_foscms, check_nnamcq, check_polyhedral,
                       estimate_calmness_modulus, is_proximal_stationary)
from .diagnostics import (RateFit, check_kl_half, check_kl_half_problem,
                          check_proper_separation, classify_stationarity,
                          estimate_error_bound_constant, fit_linear_rate,
                          kappa1, kappa2, residual, verify_cost_to_go,
                          verify_sufficient_descent)
from .oracle import (OracleError, brute_force_prox, brute_force_scalar_min,
                     brute_force_set_valued_solve, brute_force_stationary_set)

__version__ = "0.1.0"
