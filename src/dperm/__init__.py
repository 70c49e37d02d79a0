"""Differentially private ERM with geometry-aware solvers."""

from .geometry import (
    Box,
    ConvexBody,
    GroupedL1Ball,
    L1Ball,
    L2Ball,
    Polytope,
    Simplex,
    WidthEstimate,
    body_from_dict,
    gaussian_width_mc,
    symmetric_hull,
)
from .harness import ExperimentSpec, RiskRecord, generate_lasso, run_sweep, summarize
from .losses import CustomLoss, Dataset, Huber, LossSpec, SquaredError
from .oracle import OracleSolution, cached_solve, excess_risk, solve_exact
from .potentials import GroupedL1, NegativeEntropy, PolytopeQNorm, Potential, SquaredL2
from .privacy import (
    NoisePlan,
    PrivacyBudget,
    fw_gaussian_sigma,
    fw_laplace_scale,
    md_sigma,
    objpert_plan,
    report_noisy_min,
    sample_gaussian_vec,
    sample_laplace,
    spawn_rng,
)
from .solvers import SolverConfig, SolverReport, resolve_defaults, run_solver

__version__ = "0.1.0"

__all__ = [
    "Box", "ConvexBody", "GroupedL1Ball", "L1Ball", "L2Ball", "Polytope",
    "Simplex", "WidthEstimate", "body_from_dict", "gaussian_width_mc",
    "symmetric_hull",
    "ExperimentSpec", "RiskRecord", "generate_lasso", "run_sweep", "summarize",
    "CustomLoss", "Dataset", "Huber", "LossSpec", "SquaredError",
    "OracleSolution", "cached_solve", "excess_risk", "solve_exact",
    "GroupedL1", "NegativeEntropy", "PolytopeQNorm", "Potential", "SquaredL2",
    "NoisePlan", "PrivacyBudget", "fw_gaussian_sigma", "fw_laplace_scale",
    "md_sigma", "objpert_plan", "report_noisy_min", "sample_gaussian_vec",
    "sample_laplace", "spawn_rng",
    "SolverConfig", "SolverReport", "resolve_defaults", "run_solver",
]
