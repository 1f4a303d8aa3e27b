"""Implicit Euler semi-discretization of the doubly nonlinear flow.

Each step averages the potential over the time window and solves the
time-step elliptic problem with lam = dt and h0 = dt * h^n + v_{n-1}^q, so the
iterate satisfies

    ((v_n^q - v_{n-1}^q)/dt) v_n^{q-1} - div a(x, grad v_n) = h^n v_n^{q-1} + f(x, v_n).

One 5-point Gauss-Legendre rule in time, `_gauss_sum`, gives both the
potential average h^n of a step and `time_integral_norm`, the data term of
the contraction estimates, each node with one potential call for all steps.

`Run` advances the scheme alone, as far as it is read, and is the only
producer of h^n: one `average_potential` call per chunk of `_chunk_steps`
steps as it reaches the chunk, or one array every step shares under a
steady potential.  Its trajectory records them, steps times elements floats
under a moving potential.  `diagnose` walks a finished run and evaluates no
potential: it sums the squared increments and the telescoped modular
difference and compares them against the recorded h^n and the source
budget, beyond a stated slack.  Each step's diagnostics read one element
state of its iterate (`elliptic._point`): the increment norm and the source
ratio read its element means, and the stationary energy sums the stationary
problem's term integrals, whose diffusion term (lam = 1) is the modular.
The solved steps are diagnosed in chunks of steps, each in one broadcast
pass over a leading axis of iterates (h^n, element states, norms and energy
terms), so a 1D mesh of 100 elements takes 40 steps a pass; the sums and
the worst margin then walk the steps in order.

A step is a deterministic function of its start and h^n, so each step's
`Step` record goes to the next: a step whose inputs repeat it bitwise (the
discrete steady state under a constant h^n) returns its field unsolved, and
a solve from its field takes its element state instead of computing it.
The step problems share the mass and source terms built once per run
(`EvolutionSetup.step_terms`), whose values the state has cached.
`make_subsolution` and `make_supersolution` fit the comparison bracket of
the datum from the setup alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional

import numpy as np

from .elliptic import (EllipticProblem, NonConvergence, SolverReport,
                       _energy_terms, _point, _solve, _State, mass_term, potential_term,
                       solve, source_terms)
from .meshing import (DiscreteField, Mesh, boundary_distance_field,
                      l2_norm_values)
from .operators import (LerayLionsOperator, PotentialField, SourceTerm,
                        ValidationError, eval_source)

# `numpy.polynomial.legendre.leggauss(5)`, written out bit for bit, so that
# set-up does not import `numpy.polynomial` for one constant
GAUSS_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                        0.5384693101056831, 0.906179845938664])
GAUSS_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                          0.4786286704993663, 0.23692688505618928])
DISSIPATION_SLACK = 1.05
# Element-steps one diagnostic pass covers: its steps times the mesh's
# elements, and at least one step a pass.
DIAGNOSTIC_ELEMENT_STEPS = 4096
MU_FLOOR = 1e-12
KAPPA_CEIL = 1e12


@dataclass(frozen=True)
class EvolutionSetup:
    """A validated run description; owns `(A_0)` for the operator on this
    mesh, and checks that the operator is sampled at the mesh's quadrature
    points.  `sandwich_constant` is the smallest c with delta/c <= v0 <=
    c*delta at the interior quadrature points.  It says what to compute, not
    what to write: its `Run` keeps every step taken.  `step_terms` are the
    step problem's mass term and, with a source, its source term, the same for
    every step; building them checks `q ∈ (1, p_-)`, `(f_1)` and `(f_2)`."""

    mesh: Mesh
    op: LerayLionsOperator
    q: float
    source: Optional[SourceTerm]
    potential: PotentialField
    horizon: float
    steps: int
    initial: DiscreteField
    sandwich_constant: float = field(init=False)
    step_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mesh, q = self.mesh, self.q
        if self.op.ndim != mesh.dimension:
            raise ValidationError("(A_0)", "partition must cover every mesh axis "
                                  "exactly once")
        if self.op.n_points != mesh.n_elements:
            raise ValueError("operator does not match the mesh quadrature")
        if not 0.0 < self.horizon < np.inf or self.steps < 1:
            raise ValueError("need a finite horizon > 0 and at least one step")
        object.__setattr__(self, "step_terms", (mass_term(mesh, q),) + source_terms(
            mesh, self.op, q, self.dt, self.source))
        if self.initial.mesh is not mesh:
            raise ValueError("initial datum lives on a different mesh")
        if np.any(self.initial.values < 0.0):
            raise ValueError("initial datum must be nonnegative at the mesh vertices")
        delta = boundary_distance_field(mesh)
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
    increment_norm: float
    stationary_energy: float


@dataclass
class Trajectory:
    """`fields[n]` is the iterate at `times[n]`; `reports[n - 1]` reports step
    n of a run of `setup`, which owns the run's q, dt, mesh and potential, and
    `averages[n - 1]` is the h^n step n ran with."""

    times: np.ndarray
    fields: List[DiscreteField]
    reports: List[SolverReport]
    averages: List[np.ndarray]
    setup: EvolutionSetup

    @property
    def final(self) -> DiscreteField:
        return self.fields[-1]


def _gauss_sum(f, t0, dt: float):
    """sum_j w_j f(t0 + x_j) over the 5-point Gauss-Legendre rule on
    [t0, t0 + dt] (nodes x_j in [0, dt], weights summing to 2), accumulated
    node by node; t0 may be an array of window starts that f takes whole."""
    acc = None
    for x, w in zip((GAUSS_NODES + 1.0) * dt / 2.0, GAUSS_WEIGHTS):
        term = w * f(t0 + x)
        acc = term if acc is None else acc + term
    return acc


def average_potential(h: PotentialField, steps: np.ndarray, dt: float) -> np.ndarray:
    """h^n(x) = (1/dt) int_{t_{n-1}}^{t_n} h(s, x) ds by `_gauss_sum` for each
    step index n of the array `steps`: the rows of an (S, n_points) array."""
    if steps.min() < 1:
        raise ValueError("step index starts at 1")
    return _gauss_sum(h.at, (steps - 1) * dt, dt) / 2.0


def time_integral_norm(mesh: Mesh, h: PotentialField, g: PotentialField,
                       dt: float, n_steps: int) -> np.ndarray:
    """Cumulative integral_0^{t_n} ||h - g||_L2 ds (column 0) and
    integral_0^{t_n} ||(h - g)^+||_L2 ds (column 1) for n = 0..n_steps,
    t_n = n dt, by `_gauss_sum` on each step; an (n_steps + 1, 2) array.
    Each Gauss node samples h - g once for every step and norms both forms
    in one call."""

    def norms(ts):
        diff = h.at(ts) - g.at(ts)
        return np.array(l2_norm_values(mesh, [diff, np.maximum(diff, 0.0)])).T

    out = np.zeros((n_steps + 1, 2))
    steps = _gauss_sum(norms, np.arange(n_steps) * dt, dt)
    out[1:] = np.cumsum(steps * dt / 2.0, axis=0)
    return out


class Step(NamedTuple):
    """A step's start and h^n, and its field, report and element state."""

    start: DiscreteField
    h_n: np.ndarray
    field: DiscreteField
    report: SolverReport
    state: _State


def step(setup: EvolutionSetup, previous: DiscreteField, h_n: np.ndarray,
         last: Optional[Step] = None) -> Step:
    """One implicit Euler step of length `setup.dt`, warm-started from the
    previous iterate.

    `last` is the step before, on this setup.  When the inputs equal its
    bitwise (a steady potential's h^n by identity), it is returned with this
    start and a copy of its report marked `repeated`, unsolved.  A
    `previous` that is `last.field` starts from `last.state`, whose clipped
    element means give h0; the problem adds only its potential term
    (-h0, q) to `setup.step_terms`."""
    if last is not None and (h_n is last.h_n or np.array_equal(h_n, last.h_n)) and (
            previous is last.start or np.array_equal(previous.values, last.start.values)):
        return last._replace(start=previous, report=replace(last.report, repeated=True))
    state = last.state if last is not None and previous is last.field else None
    vbp = np.maximum(previous.barycenter_values(), 0.0) if state is None else state.clipped
    mass, *sources = setup.step_terms
    potential = potential_term(setup.mesh, setup.q, setup.dt * h_n + vbp ** setup.q)
    problem = EllipticProblem(setup.mesh, setup.op, setup.dt, (mass, potential, *sources))
    return Step(previous, h_n, *_solve(problem, previous, state))


def _chunk_steps(mesh: Mesh) -> int:
    """Steps one potential average and one diagnostic pass cover on `mesh`:
    DIAGNOSTIC_ELEMENT_STEPS // n_elements, and at least one."""
    return max(1, DIAGNOSTIC_ELEMENT_STEPS // mesh.n_elements)


def _step_averages(setup: EvolutionSetup, first: int) -> list:
    """h^k of every step under a steady potential (one shared array), else of
    the `_chunk_steps` steps from `first` on, bitwise the averages of one step
    at a time: one `average_potential` call."""
    if setup.potential.steady:
        return [average_potential(setup.potential, np.array([1]), setup.dt)[0]] * setup.steps
    last = min(first + _chunk_steps(setup.mesh), setup.steps + 1)
    return list(average_potential(setup.potential, np.arange(first, last), setup.dt))


class Run:
    """One run of `setup`, advanced only as far as it is read: `head(n)` takes
    the steps up to n not yet taken, each once and handed the `Step` before,
    and returns the first n (all by default); the last `Step` is kept only
    while steps remain.  `averages` holds h^n of every step of each chunk
    (`_step_averages`) the run has reached.  A failed step's error names it;
    the steps before stay in `fields` and `reports`."""

    def __init__(self, setup: EvolutionSetup):
        self.setup = setup
        self.times = np.linspace(0.0, setup.horizon, setup.steps + 1)
        self.fields, self.reports, self.averages = [setup.initial], [], []
        self._last = None

    def head(self, n: Optional[int] = None) -> Trajectory:
        setup = self.setup
        n = setup.steps if n is None else n
        if not 0 <= n <= setup.steps:
            raise ValueError(f"the run has steps 0..{setup.steps}, not {n}")
        for k in range(len(self.reports) + 1, n + 1):
            if k > len(self.averages):
                self.averages += _step_averages(setup, k)
            try:
                self._last = step(setup, self.fields[-1], self.averages[k - 1], self._last)
            except NonConvergence as exc:
                exc.args = (f"step {k}: {exc.args[0]}",)
                raise
            self.fields.append(self._last.field)
            self.reports.append(self._last.report)
        if len(self.reports) == setup.steps:
            self._last = None  # no step follows: free the last element state
        return Trajectory(self.times[:n + 1], self.fields[:n + 1],
                          self.reports[:n], self.averages[:n], setup)


def make_subsolution(setup: EvolutionSetup) -> tuple[DiscreteField, float]:
    """Halve mu from 1 until the positive solution of the setup's stationary
    problem -div a = mu (h_lower w^(q-1) + f(x, w)), h_lower its potential's
    `lower_envelope`, sits below its initial datum nodally: (w_lower, mu)."""
    mesh, source, v0 = setup.mesh, setup.source, setup.initial
    mu = 1.0
    while mu >= MU_FLOOR:
        scaled = None if source is None else replace(source, g=mu * source.g)
        w = solve(EllipticProblem.stationary(mesh, setup.op, setup.q,
                                             mu * setup.potential.lower_envelope, scaled))[0]
        if np.all(w.values <= v0.values) and np.all(w.values[mesh.interior] > 0.0):
            return w, mu
        mu *= 0.5
    raise NonConvergence("no mu above the floor produced a subsolution below v0")


def make_supersolution(setup: EvolutionSetup) -> tuple[DiscreteField, float]:
    """Double kappa from 1 until the positive solution of the setup's stationary
    problem -div a = ||h||_inf w^(q-1) + f(x, w) + kappa, ||h||_inf its
    potential's `sup_norm`, dominates its initial datum nodally: (w_upper, kappa)."""
    ne = setup.mesh.n_elements
    kappa = 1.0
    while kappa <= KAPPA_CEIL:
        w = solve(EllipticProblem.stationary(
            setup.mesh, setup.op, setup.q, np.full(ne, float(setup.potential.sup_norm)),
            setup.source, load=np.full(ne, float(kappa))))[0]
        if np.all(w.values >= setup.initial.values):
            return w, kappa
        kappa *= 2.0
    raise NonConvergence("no kappa below the ceiling produced a supersolution above v0")


def diagnose(traj: Trajectory) -> tuple[List[StepDiagnostics], float]:
    """Each step's diagnostics of a run and its worst dissipation margin; a
    repeated step has its predecessor's field, h^n and values."""
    setup = traj.setup
    mesh, op, q, dt = setup.mesh, setup.op, setup.q, setup.dt
    point = _point(mesh, op, traj.fields[0].values)
    mod0 = float(point.modular)  # the diffusion term at lam = 1
    solved_values = _solved_steps(traj, point.clipped ** q)
    diagnostics = []
    inc_sq_sum = budget_sum = 0.0
    worst_margin = np.inf
    for report in traj.reports:
        if not report.repeated:
            inc, budget, terms = next(solved_values)
        diagnostics.append(StepDiagnostics(inc, sum(terms)))
        inc_sq_sum += 0.5 * dt * inc ** 2
        budget_sum += budget
        lhs = inc_sq_sum + q * (terms[0] - mod0)
        worst_margin = min(worst_margin, DISSIPATION_SLACK * budget_sum + 1e-12 - lhs)
    return diagnostics, worst_margin


def _solved_steps(traj: Trajectory, vbq: np.ndarray):
    """(increment norm, budget, stationary energy terms) of each solved step
    of `traj` in order, whose start has (v+)^q = `vbq` at the element means.
    The steps are evaluated `_chunk_steps` at a time; a chunk's arrays are
    freed before the next is built."""
    solved = [n for n, report in enumerate(traj.reports, 1) if not report.repeated]
    size = _chunk_steps(traj.setup.mesh)
    for i in range(0, len(solved), size):
        values, vbq = _diagnose_chunk(traj, solved[i:i + size], vbq)
        yield from values


def _diagnose_chunk(traj: Trajectory, steps: list, vbq: np.ndarray) -> tuple[list, np.ndarray]:
    """The values of `_solved_steps` for `steps`, in one pass over their
    iterates with a leading axis of steps, and their last (v+)^q."""
    setup = traj.setup
    mesh, op, q, dt, source = setup.mesh, setup.op, setup.q, setup.dt, setup.source
    h_n = np.array([traj.averages[n - 1] for n in steps])
    point = _point(mesh, op, np.array([traj.fields[n].values for n in steps]))
    vb = point.clipped
    rows = vb ** q
    incs = l2_norm_values(mesh, np.diff(rows, axis=0, prepend=vbq[None]))
    # ||f(x, v) / v^(q-1)||^2 from the clipped element means
    f_sq = [0.0] * len(steps)
    if source is not None:
        fv = eval_source(source, vb)
        ratio = np.where(vb > 0.0, fv / np.where(vb > 0.0, vb, 1.0) ** (q - 1.0), 0.0)
        f_sq = [norm ** 2 for norm in l2_norm_values(mesh, ratio)]
    h_norms = l2_norm_values(mesh, h_n)
    # the stationary problem has lam = 1, so its diffusion term is the modular
    stationary = EllipticProblem.stationary(mesh, op, q, h_n, source)
    terms = zip(*(t.tolist() for t in _energy_terms(stationary, point)))
    values = [(inc / dt, dt * (h ** 2 + f), row)
              for inc, h, f, row in zip(incs, h_norms, f_sq, terms)]
    return values, rows[-1].copy()
