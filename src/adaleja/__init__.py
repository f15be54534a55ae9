"""Adaptive Leja collocation with conformal maps.

Builds polynomial surrogates of expensive parametric models on
dimension-adaptive sparse grids of weighted Leja nodes, optionally
transplanted through conformal maps that widen the region of analytic
continuation.  Surrogates post-process into moments, densities, failure
probabilities, Sobol indices, and resonance statistics.
"""

from .adaptive import (AdaptiveConfig, AdaptiveReport, IterationRecord,
                       corrected_evaluate, run_adaptive, run_adaptive_adjoint)
from .distributions import (BETA33, UNIFORM, Distribution, beta33,
                            make_distribution, sample_joint, uniform)
from .errors import (ConfigError, ContractError, DomainError,
                     SerializationError, SolveError, UnsupportedVersionError)
from .gpc import SMOLYAK, TENSOR, GpcExpansion, gauss_rule, project
from .grid import MultiIndexSet, backward_neighbors, forward_neighbors
from .leja import LejaSequence, leja_nodes
from .linmodel import (LadderModel, ParametricLinearModel, error_indicator,
                       material_interp, permittivity, read_material_samples,
                       solve_dual, solve_primal)
from .maps import ConformalMap, IdentityMap, KTEMap, SausageMap, make_map
from .stats import (McSummary, SobolResult, cv_errors, extract_resonance,
                    failure_probability, kde_pdf, mc_moments, sobol_indices)
from .surrogate import (Surrogate, deserialize, load_surrogate,
                        save_surrogate, serialize)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig", "AdaptiveReport", "IterationRecord",
    "corrected_evaluate", "run_adaptive", "run_adaptive_adjoint",
    "BETA33", "UNIFORM", "Distribution", "beta33", "make_distribution",
    "sample_joint", "uniform",
    "ConfigError", "ContractError", "DomainError", "SerializationError",
    "SolveError", "UnsupportedVersionError",
    "SMOLYAK", "TENSOR", "GpcExpansion", "gauss_rule", "project",
    "MultiIndexSet", "backward_neighbors", "forward_neighbors",
    "LejaSequence", "leja_nodes",
    "LadderModel", "ParametricLinearModel", "error_indicator",
    "material_interp", "permittivity", "read_material_samples",
    "solve_dual", "solve_primal",
    "ConformalMap", "IdentityMap", "KTEMap", "SausageMap", "make_map",
    "McSummary", "SobolResult", "cv_errors", "extract_resonance",
    "failure_probability", "kde_pdf", "mc_moments", "sobol_indices",
    "Surrogate", "deserialize", "load_surrogate", "save_surrogate",
    "serialize",
    "__version__",
]
