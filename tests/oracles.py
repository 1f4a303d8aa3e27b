"""Oracles the tests read and no command runs.

The operator oracles sample both sides of the prototype operator's pointwise
inequalities (strong monotonicity, the Picone pair sum, the Clarkson-type
convexity defect, the ellipticity floor and the growth sandwich); the energy
helpers evaluate J and its nodal gradient at a field; `evolve` takes every
step of a run and `diagnose_per_step` diagnoses it one step at a time, the
reference for the chunked `evolution.diagnose`; the u = v^q change of
variables and the contraction ratio of a refinement study feed the acceptance
tests.  They read the library's private
element state the same way the solver does.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from dne.checks import _solve_pair
from dne.elliptic import (EllipticProblem, _energy_parts, _energy_terms,
                          _gradient_values, _point)
from dne.evolution import (DISSIPATION_SLACK, EvolutionSetup, Run, StepDiagnostics,
                           Trajectory, average_potential)
from dne.meshing import DiscreteField, Mesh, l2_norm_diff_power, l2_norm_values
from dne.operators import (LerayLionsOperator, _blocks, _maybe_scalar, eval_A,
                           eval_flux, eval_source, seeded_rng)


def monotonicity_gap(op: LerayLionsOperator, k, xi, eta, gamma0: float = 1.0):
    """Both sides of the strong monotonicity bound
    <a(x,xi)-a(x,eta), xi-eta> >= gamma0 * |xi-eta|^p            (p > 2)
                               >= gamma0 * |xi-eta|^2 / (1+|xi|+|eta|)^(2-p)  (p <= 2).
    Returns (lhs, rhs); the caller asserts lhs >= rhs."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    p = op.exponent.values[k]
    diff = xi - eta
    lhs = np.sum((eval_flux(op, k, xi) - eval_flux(op, k, eta)) * diff, axis=-1)
    d = np.linalg.norm(diff, axis=-1)
    nx = np.linalg.norm(np.broadcast_to(xi, diff.shape), axis=-1)
    ne = np.linalg.norm(np.broadcast_to(eta, diff.shape), axis=-1)
    rhs = np.where(p > 2.0,
                   gamma0 * d ** np.maximum(p, 2.0),
                   gamma0 * d ** 2 / (1.0 + nx + ne) ** (2.0 - np.minimum(p, 2.0)))
    return _maybe_scalar(lhs), _maybe_scalar(rhs)


def calibrate_gamma0(op: LerayLionsOperator, n_samples: int = 10 ** 6,
                     seed: int = 0) -> float:
    """Empirical monotonicity constant: 0.9x the smallest observed lhs/rhs ratio
    over a seeded sample (rhs evaluated with gamma0 = 1)."""
    rng = seeded_rng(seed, "gamma0-calibration")
    worst = np.inf
    chunk = 200_000
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        k = rng.integers(0, op.n_points, size=m)
        scale = 10.0 ** rng.uniform(-2.0, 1.0, size=(m, 1))
        xi = rng.standard_normal((m, op.ndim)) * scale
        eta = rng.standard_normal((m, op.ndim)) * scale
        lhs, rhs = monotonicity_gap(op, k, xi, eta, gamma0=1.0)
        mask = rhs > 0.0
        if np.any(mask):
            worst = min(worst, float(np.min(lhs[mask] / rhs[mask])))
        done += m
    if not np.isfinite(worst) or worst <= 0.0:
        raise ValueError("calibration produced no positive monotonicity ratio")
    return 0.9 * worst


def picone_pair_sum(op: LerayLionsOperator, k, w1, w2, g1, g2, r: float):
    """Pointwise two-function sum
    a(x,g1).grad((w1^r-w2^r)/w1^(r-1)) + a(x,g2).grad((w2^r-w1^r)/w2^(r-1))
    for positive values w1, w2 with gradients g1, g2; nonnegative for r < p(x)."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if np.any(w1 <= 0.0) or np.any(w2 <= 0.0):
        raise ValueError("picone_pair_sum requires strictly positive values")
    # grad((w1^r - w2^r)/w1^(r-1)) = g1 - r (w2/w1)^(r-1) g2 - (1-r) (w2/w1)^r g1
    q12 = (w2 / w1)[..., None]
    q21 = (w1 / w2)[..., None]
    grad1 = g1 - r * q12 ** (r - 1.0) * g2 - (1.0 - r) * q12 ** r * g1
    grad2 = g2 - r * q21 ** (r - 1.0) * g1 - (1.0 - r) * q21 ** r * g2
    term1 = np.sum(eval_flux(op, k, g1) * grad1, axis=-1)
    term2 = np.sum(eval_flux(op, k, g2) * grad2, axis=-1)
    return _maybe_scalar(term1 + term2)


def morawetz_gap(op: LerayLionsOperator, k, xi, eta):
    """Both sides of the Clarkson-type convexity-defect bound with
    s = min(1, p/2) and zeta = (1 - 2^(1-p))^(-s) for p < 2, 1/2 otherwise.
    Sampled only; asserted only for constant-exponent single-block operators."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    p = np.asarray(op.exponent.values[k], dtype=float)
    s = np.minimum(1.0, p / 2.0)
    zeta = np.where(p < 2.0, (1.0 - 2.0 ** (1.0 - p)) ** (-s), 0.5)
    a_sum = np.asarray(eval_A(op, k, xi) + eval_A(op, k, eta))
    defect = np.maximum(a_sum - 2.0 * np.asarray(eval_A(op, k, (xi + eta) / 2.0)), 0.0)
    lhs = eval_A(op, k, (xi - eta) / 2.0)
    rhs = zeta * a_sum ** (1.0 - s) * defect ** s
    return _maybe_scalar(lhs), _maybe_scalar(rhs)


def ellipticity_floor(op: LerayLionsOperator, k, xi):
    """Provable smallest-eigenvalue floor of the flux Jacobian at (x_k, xi).

    Per block the spectrum is c_j * {1, p-1} with c_j = g_j rho_j^((p-2)/2),
    so the floor is min(1, p-1) * min_j c_j.  For a single block (or p <= 2)
    this dominates gamma * |xi|^(p-2); for several blocks and p > 2 the
    |xi|-based form of the literature bound fails and the blockwise floor is
    the honest statement.
    """
    xi = np.asarray(xi, dtype=float)
    p = op.exponent.values[k]
    floor = reduce(np.minimum, (c for _, _, c in _blocks(op, k, xi)))
    return _maybe_scalar(np.minimum(1.0, p - 1.0) * floor)


def growth_envelope(op: LerayLionsOperator, k, xi):
    """Provable sandwich for the prototype on the sampled exponent range:
    weight_floor * min(1, p-1)/(p-1) * |xi|^p <= A <= weight_ceiling * C_J(p) * |xi|^p
    with C_J(p) = J^max(0, 1 - p/2) from the block structure."""
    xi = np.asarray(xi, dtype=float)
    p = np.asarray(op.exponent.values[k], dtype=float)
    norm_p = np.linalg.norm(xi, axis=-1) ** p
    nblocks = len(op.partition)
    lower = op.weight_floor * np.minimum(1.0, p - 1.0) / (p - 1.0) * norm_p
    upper = op.weight_ceiling * nblocks ** np.maximum(0.0, 1.0 - p / 2.0) * norm_p
    return _maybe_scalar(lower), _maybe_scalar(upper)


def energy(problem: EllipticProblem, v: DiscreteField) -> float:
    """Quadrature value of the energy functional at v."""
    return _energy_parts(problem, _point(problem.mesh, problem.op, v.values))[0]


def energy_gradient(problem: EllipticProblem, v: DiscreteField) -> DiscreteField:
    """Nodal partial derivatives of the energy; equals the hat-function residual
    of the weak form, and vanishes at interior nodes of a discrete solution."""
    point = _point(problem.mesh, problem.op, v.values)
    return DiscreteField(problem.mesh, _gradient_values(problem, point))


def zero_field(mesh: Mesh) -> DiscreteField:
    return DiscreteField(mesh, np.zeros(mesh.n_vertices))


def evolve(setup: EvolutionSetup) -> Trajectory:
    """Every step of a run of `setup`."""
    return Run(setup).head()


def diagnose_per_step(setup: EvolutionSetup, traj: Trajectory):
    """`evolution.diagnose` one solved step at a time: each step's h^n, element
    state, norms and stationary energy terms from its own 1-D arrays."""
    mesh, op, q, dt, source = setup.mesh, setup.op, setup.q, setup.dt, setup.source
    point = _point(mesh, op, traj.fields[0].values)
    mod0 = float(_energy_terms(EllipticProblem(mesh, op), point)[0])
    vbq = np.maximum(point[0], 0.0) ** q
    diagnostics = []
    inc_sq_sum = budget_sum = 0.0
    worst_margin = np.inf
    for n, (v, report) in enumerate(zip(traj.fields[1:], traj.reports), 1):
        if not report.repeated:
            h_n = average_potential(setup.potential, n, dt)
            point = _point(mesh, op, v.values)
            vb = np.maximum(point[0], 0.0)
            vbq, vbq_prev = vb ** q, vbq
            inc = l2_norm_values(mesh, vbq - vbq_prev) / dt
            f_sq = 0.0
            if source is not None:
                fv = np.asarray(eval_source(source, np.arange(mesh.n_elements), vb))
                ratio = np.where(vb > 0.0, fv / np.where(vb > 0.0, vb, 1.0) ** (q - 1.0), 0.0)
                f_sq = l2_norm_values(mesh, ratio) ** 2
            budget = dt * (l2_norm_values(mesh, h_n) ** 2 + f_sq)
            stationary = EllipticProblem.stationary(mesh, op, q, h_n, source)
            terms = [float(t) for t in _energy_terms(stationary, point)]
        diagnostics.append(StepDiagnostics(inc, sum(terms)))
        inc_sq_sum += 0.5 * dt * inc ** 2
        budget_sum += budget
        lhs = inc_sq_sum + q * (terms[0] - mod0)
        worst_margin = min(worst_margin, DISSIPATION_SLACK * budget_sum + 1e-12 - lhs)
    return diagnostics, worst_margin


def change_of_variables_u(traj: Trajectory) -> Trajectory:
    """Nodal power map u = v^q; the transformed run solves the operator-form
    problem and inherits the distance sandwich with exponent q."""
    fields = [DiscreteField(f.mesh, np.maximum(f.values, 0.0) ** traj.q)
              for f in traj.fields]
    return Trajectory(times=traj.times, fields=fields, reports=traj.reports,
                      q=traj.q)


def contraction_ratio(mesh, op, q, lam, source, h1, h2) -> float:
    """lhs/rhs of the one-sided contraction for a refinement study."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    v1, v2 = _solve_pair(mesh, op, q, lam, source, h1, h2)
    lhs = l2_norm_diff_power(v1, v2, q, positive_part=True)
    rhs = l2_norm_values(mesh, np.maximum(h1 - h2, 0.0))
    return lhs / rhs if rhs > 0 else 0.0
