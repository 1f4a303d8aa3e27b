"""Doubly nonlinear p(x)-diffusion: implicit Euler solves as energy
minimization, with a verification harness for the contraction, comparison,
scaling and stabilization estimates the scheme is built on."""

from .operators import (ExponentField, LerayLionsOperator, PotentialField,
                        Regime, SourceTerm, classify_regime, eval_A, eval_flux,
                        eval_source, monotonicity_gap, picone_gap)
from .meshing import (DiscreteField, Mesh, boundary_distance_field, gradient,
                      interpolate, interval_mesh, l2_norm_diff_power,
                      rectangle_mesh)
from .elliptic import (EllipticProblem, FailedToFit, InvalidProblem,
                       NonConvergence, SolverReport, energy, energy_gradient,
                       make_subsolution, make_supersolution, solve,
                       solve_lambda_problem, solve_stationary)
from .evolution import (EvolutionSetup, Trajectory, average_potential,
                        change_of_variables_u, evolve, step)
from .checks import CheckReport
from .scenario import ParseError, Scenario, ValidationError, load_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
