"""Implicit Euler semi-discretization of the doubly nonlinear flow.

Each step averages the potential over the time window and solves the
time-step elliptic problem with lam = dt and h0 = dt * h^n + v_{n-1}^q, so the
iterate satisfies

    ((v_n^q - v_{n-1}^q)/dt) v_n^{q-1} - div a(x, grad v_n) = h^n v_n^{q-1} + f(x, v_n).

The per-run dissipation diagnostic accumulates the squared increments and the
telescoped modular difference and compares them against the potential and
source budget; a violation beyond the stated slack marks the trajectory.

Every diagnostic of a step reads one element state of the new iterate
(`elliptic._point`): the increment norm and the source ratio read its element
means, and the stationary energy sums the stationary problem's term
integrals, whose diffusion term (lam = 1) is the modular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .elliptic import (EllipticProblem, NonConvergence, SolverReport,
                       _energy_terms, _point, solve)
from .meshing import (DiscreteField, Mesh, boundary_distance_field,
                      l2_norm_values)
from .operators import (LerayLionsOperator, PotentialField, SourceTerm,
                        ValidationError, eval_source)

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)
DISSIPATION_SLACK = 1.05


@dataclass(frozen=True)
class EvolutionSetup:
    """A validated run description; owns `q ∈ (1, p_-)` and, for the operator
    on this mesh, `(A_0)`.  `sandwich_constant` is the smallest c with
    delta/c <= v0 <= c*delta at the interior quadrature points.  It says what
    to compute, not what to write: `evolve` keeps every step."""

    mesh: Mesh
    op: LerayLionsOperator
    q: float
    source: Optional[SourceTerm]
    potential: PotentialField
    horizon: float
    steps: int
    initial: DiscreteField
    sandwich_constant: float = field(init=False)

    def __post_init__(self):
        mesh, q, p_minus = self.mesh, self.q, self.op.exponent.p_minus
        if self.op.ndim != mesh.dimension:
            raise ValidationError("(A_0)", "partition must cover every mesh axis "
                                  "exactly once")
        if not (1.0 < q < p_minus):
            raise ValidationError("q ∈ (1, p_-)", f"q = {q} is outside (1, {p_minus})")
        if self.source is not None and self.source.q != q:
            raise ValueError(f"source was checked for q = {self.source.q}, "
                             f"the run has q = {q}")
        if not 0.0 < self.horizon < np.inf or self.steps < 1:
            raise ValueError("need a finite horizon > 0 and at least one step")
        if self.initial.mesh is not mesh:
            raise ValueError("initial datum lives on a different mesh")
        delta = boundary_distance_field(mesh).quadrature
        vb = self.initial.barycenter_values()
        if np.any(vb <= 0.0):
            raise ValueError("initial datum must be positive at interior quadrature points")
        object.__setattr__(self, "sandwich_constant",
                           float(max(np.max(vb / delta), np.max(delta / vb))))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


@dataclass
class StepDiagnostics:
    report: SolverReport
    increment_norm: float
    stationary_energy: float


@dataclass
class Trajectory:
    """`fields[n]` is the iterate at `times[n]`; `diagnostics[n - 1]` reports step n."""

    times: np.ndarray
    fields: List[DiscreteField]
    diagnostics: List[StepDiagnostics]
    q: float
    power: float = 1.0
    dissipation_ok: bool = True
    dissipation_margin: float = np.inf

    @property
    def final(self) -> DiscreteField:
        return self.fields[-1]


def average_potential(h: PotentialField, n: int, dt: float) -> np.ndarray:
    """h^n(x) = (1/dt) int_{t_{n-1}}^{t_n} h(s, x) ds by 5-point Gauss-Legendre."""
    if n < 1:
        raise ValueError("step index starts at 1")
    t0 = (n - 1) * dt
    ts = t0 + (GAUSS_NODES + 1.0) * dt / 2.0
    acc = None
    for t, w in zip(ts, GAUSS_WEIGHTS):
        term = w * h(t)
        acc = term if acc is None else acc + term
    return acc / 2.0


def time_integral_norm(mesh: Mesh, h: PotentialField, g: PotentialField,
                       t_end: float, n_steps: int, positive_part: bool = False) -> np.ndarray:
    """Cumulative integral_0^{t_n} ||(h - g)^(+)||_L2 ds for n = 0..n_steps by
    per-step Gauss quadrature; returns the array over step indices."""
    dt = t_end / n_steps
    out = np.zeros(n_steps + 1)
    for n in range(1, n_steps + 1):
        ts = (n - 1) * dt + (GAUSS_NODES + 1.0) * dt / 2.0
        val = 0.0
        for t, w in zip(ts, GAUSS_WEIGHTS):
            diff = h(t) - g(t)
            if positive_part:
                diff = np.maximum(diff, 0.0)
            val += w * l2_norm_values(mesh, diff)
        out[n] = out[n - 1] + val * dt / 2.0
    return out


def step(setup: EvolutionSetup, previous: DiscreteField, h_n: np.ndarray,
         dt: float) -> tuple[DiscreteField, SolverReport]:
    """One implicit Euler step, warm-started from the previous iterate."""
    vbq = np.maximum(previous.barycenter_values(), 0.0) ** setup.q
    h0 = dt * h_n + vbq
    problem = EllipticProblem.standard(setup.mesh, setup.op, setup.q, dt, h0,
                                       setup.source)
    return solve(problem, previous)


def _f_ratio_sq(setup: EvolutionSetup, vb: np.ndarray) -> float:
    """||f(x, v) / v^(q-1)||^2 from the clipped element means vb of v."""
    if setup.source is None:
        return 0.0
    mesh = setup.mesh
    ks = np.arange(mesh.n_elements)
    fv = np.asarray(eval_source(setup.source, ks, vb))
    ratio = np.where(vb > 0.0, fv / np.where(vb > 0.0, vb, 1.0) ** (setup.q - 1.0), 0.0)
    return l2_norm_values(mesh, ratio) ** 2


def evolve(setup: EvolutionSetup) -> Trajectory:
    """Run the full scheme, keeping every step; step failures carry the step
    index and leave the partial trajectory on the exception."""
    mesh, op, q, dt = setup.mesh, setup.op, setup.q, setup.dt
    times = np.linspace(0.0, setup.horizon, setup.steps + 1)
    traj = Trajectory(times=times, fields=[setup.initial], diagnostics=[], q=q)
    v = setup.initial
    point = _point(mesh, op, v.values)
    mod0 = _energy_terms(EllipticProblem(mesh, op), point)[0]
    vbq = np.maximum(point[0], 0.0) ** q
    inc_sq_sum = 0.0
    budget_sum = 0.0
    worst_margin = np.inf
    for n in range(1, setup.steps + 1):
        h_n = average_potential(setup.potential, n, dt)
        try:
            v_new, report = step(setup, v, h_n, dt)
        except NonConvergence as exc:
            exc.args = (f"step {n}: {exc.args[0]}",)
            exc.trajectory = traj
            raise
        point = _point(mesh, op, v_new.values)
        vb = np.maximum(point[0], 0.0)
        vbq_new = vb ** q
        inc = l2_norm_values(mesh, vbq_new - vbq) / dt
        h_norm_sq = l2_norm_values(mesh, h_n) ** 2
        f_sq = _f_ratio_sq(setup, vb)
        # the stationary problem has lam = 1, so its diffusion term is the modular
        stationary = EllipticProblem.stationary(mesh, op, q, h_n, setup.source)
        terms = _energy_terms(stationary, point)
        traj.diagnostics.append(StepDiagnostics(
            report=report, increment_norm=inc, stationary_energy=sum(terms)))
        inc_sq_sum += 0.5 * dt * inc ** 2
        budget_sum += dt * (h_norm_sq + f_sq)
        lhs = inc_sq_sum + q * (terms[0] - mod0)
        margin = DISSIPATION_SLACK * budget_sum + 1e-12 - lhs
        worst_margin = min(worst_margin, margin)
        traj.fields.append(v_new)
        v, vbq = v_new, vbq_new
    traj.dissipation_margin = worst_margin
    traj.dissipation_ok = worst_margin >= 0.0
    return traj


def change_of_variables_u(traj: Trajectory) -> Trajectory:
    """Nodal power map u = v^q; the transformed run solves the operator-form
    problem and inherits the distance sandwich with exponent q."""
    fields = [DiscreteField(f.mesh, np.maximum(f.values, 0.0) ** traj.q)
              for f in traj.fields]
    return Trajectory(times=traj.times, fields=fields, diagnostics=traj.diagnostics,
                      q=traj.q, power=traj.q * traj.power,
                      dissipation_ok=traj.dissipation_ok,
                      dissipation_margin=traj.dissipation_margin)
