"""Doubly nonlinear p(x)-diffusion: implicit Euler solves as energy
minimization, with a verification harness for the contraction, comparison,
scaling and stabilization estimates the scheme is built on."""

from .operators import (ExponentField, LerayLionsOperator, PotentialField,
                        Regime, SourceTerm, classify_regime, eval_A, eval_flux,
                        eval_source)
from .meshing import (DiscreteField, Mesh, boundary_distance_field, interpolate,
                      interval_mesh, l2_norm_diff_power, rectangle_mesh)
from .elliptic import EllipticProblem, NonConvergence, SolverReport, solve
from .evolution import (EvolutionSetup, Run, Trajectory, average_potential,
                        diagnose, make_subsolution, make_supersolution, step)
from .checks import CheckReport
from .scenario import ParseError, Scenario, ValidationError, load_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
