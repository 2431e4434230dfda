"""Fractional-step theta finite-element heat solver with reconstruction
based a posteriori error estimators and a convergence-study harness."""

from .errors import ConfigurationError
from .estimators import (ConstantsConfig, EstimatorAccumulator, EstimatorEngine,
                         EstimatorReport, StepEstimates, coarsening_estimator,
                         elliptic_estimator, lap_substep_defect,
                         proj_forcing_substep_defect, quadrature_exactness_check,
                         recon_coeff_three_level, recon_coeff_two_level,
                         step_difference_estimator, time_weight)
from .fem import (FeFunction, P1Space, ScalarField, assemble_mass,
                  assemble_stiffness, zero_field)
from .mesh import Mesh, build_uniform_mesh, write_mesh_text
from .scheme import (THETA_DEFAULT, SchemeParams, StepRecord, ThetaScheme,
                     glowinski_alpha, make_uniform_grid)
from .solver import SolverError, solve_spd
from .study import (CaseSpec, RunReport, StudyResult, emit, eoc, make_case,
                    run_single, run_study, verify_forcing)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ConstantsConfig", "EstimatorAccumulator", "EstimatorEngine",
    "EstimatorReport", "StepEstimates", "coarsening_estimator",
    "elliptic_estimator", "lap_substep_defect", "proj_forcing_substep_defect",
    "quadrature_exactness_check", "recon_coeff_three_level",
    "recon_coeff_two_level",
    "step_difference_estimator", "time_weight",
    "FeFunction", "P1Space", "ScalarField", "assemble_mass",
    "assemble_stiffness", "zero_field",
    "Mesh", "build_uniform_mesh", "write_mesh_text",
    "THETA_DEFAULT", "SchemeParams", "StepRecord", "ThetaScheme",
    "glowinski_alpha", "make_uniform_grid",
    "SolverError", "solve_spd",
    "CaseSpec", "RunReport", "StudyResult", "emit", "eoc", "make_case",
    "run_single", "run_study", "verify_forcing",
    "__version__",
]
