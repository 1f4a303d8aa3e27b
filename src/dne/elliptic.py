"""Elliptic solves by projected damped Newton on a coercive energy.

Every problem minimizes the one energy

    J(v) = lam int A(x, grad v)/p(x)  +  sum_(c, r) int c (v+)^r / r  -  int load * v

over the nonnegative cone of the P1 space, with per-element coefficients c.
The constructors differ only in the power terms (c, r) they set:
`standard` (the implicit Euler step) has the mass term (1, 2q), the potential
term (-h0, q) and the source term (-lam g delta^gamma, beta + 1); `stationary`
has lam = 1, the potential and source terms and an optional load (the
supersolution problem); the pure-load problem is the bare constructor with a
load and no terms.  Iterates are projected onto {v >= 0}, realizing the
positive-part truncation the energy is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded

from .meshing import DiscreteField, Mesh, _unit_bump, interpolate
from .operators import LerayLionsOperator, eval_flux, flux_jacobian_batch

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
# Relative regularization of the flux Jacobian: block norms are smoothed by
# HESSIAN_EPS times the iterate's largest element gradient, so for p < 2 the
# smoothing stays below the gradients of a tiny solution.
HESSIAN_EPS = 1e-8
# The stopping policy of every solve, read by `solve` alone.  Absolute bounds
# on the nodal KKT residual: in 1D the nodal noise stays well below the 1e-8
# ordering slack of the comparison checks; in 2D the tolerance equals that
# slack.
DEFAULT_TOL = {1: 1e-11, 2: 1e-8}
MAX_ITERATIONS = 200
MU_FLOOR = 1e-12
KAPPA_CEIL = 1e12
# Relative roundoff of the energy.  A predicted decrease at most ROUNDOFF times
# the energy's term scale is below what the Armijo test can resolve, and a
# trial energy within ROUNDOFF (1 + |J|) of the current one is no increase.
ROUNDOFF = 1e-13


class InvalidProblem(ValueError):
    pass


class NonConvergence(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FailedToFit(RuntimeError):
    pass


@dataclass
class SolverReport:
    iterations: int = 0
    final_gradient_norm: float = np.inf
    energy: float = np.inf
    line_search_failures: int = 0
    searches_skipped: int = 0
    converged: bool = False
    floor_steps: int = 0
    fallback: bool = False


def _forcing_terms(mesh, op, q, h0, lam, source) -> tuple:
    """The potential term (-h0, q) and, with a source, the source term
    (-lam g delta^gamma, beta + 1), after checking q, h0 and that the source
    was checked for this q."""
    if not (1.0 < q < op.exponent.p_minus):
        raise InvalidProblem("q must lie in (1, p_-)")
    if source is not None and source.q != q:
        raise InvalidProblem(f"source was checked for q = {source.q}, "
                             f"the problem has q = {q}")
    h0 = np.asarray(h0, dtype=float)
    if h0.shape != (mesh.n_elements,) or h0.min() < 0.0:
        raise InvalidProblem("h0 must be a nonnegative per-element field")
    if source is None:
        return ((-h0, q),)
    return ((-h0, q), (-lam * source.g * source.delta ** source.gamma,
                       source.beta + 1.0))


@dataclass(frozen=True)
class EllipticProblem:
    """One elliptic solve: diffusion weight lam, power terms (c, r) with
    per-element coefficients c, and an optional per-element linear load."""

    mesh: Mesh
    op: LerayLionsOperator
    lam: float = 1.0
    terms: tuple = ()
    load: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.op.n_points != self.mesh.n_elements or self.op.ndim != self.mesh.dimension:
            raise InvalidProblem("operator does not match the mesh quadrature")
        if not (self.lam > 0.0):
            raise InvalidProblem("lambda must be positive")
        terms = tuple((np.asarray(c, dtype=float), float(r)) for c, r in self.terms)
        if any(c.shape != (self.mesh.n_elements,) for c, _ in terms):
            raise InvalidProblem("term coefficients must be per-element fields")
        object.__setattr__(self, "terms", terms)
        if self.load is not None:
            object.__setattr__(self, "load", np.asarray(self.load, dtype=float))

    @classmethod
    def standard(cls, mesh, op, q, lam, h0, source=None):
        mass = (np.ones(mesh.n_elements), 2.0 * q)
        return cls(mesh, op, lam, (mass,) + _forcing_terms(mesh, op, q, h0, lam, source))

    @classmethod
    def stationary(cls, mesh, op, q, b, source=None, load=None):
        return cls(mesh, op, 1.0, _forcing_terms(mesh, op, q, b, 1.0, source), load)


def _power(vbp: np.ndarray, s: float) -> np.ndarray:
    """vbp^s where vbp > 0 and exactly 0 elsewhere, for any exponent s."""
    pos = vbp > 0.0
    return np.where(pos, np.where(pos, vbp, 1.0) ** s, 0.0)


def _point(mesh: Mesh, op: LerayLionsOperator, vals: np.ndarray) -> tuple:
    """Element state of one iterate, (element means, element gradients, flux
    a(x, grad v)): the only views of the nodal values that the energy, its
    gradient and its Hessian read, so each point visited takes one pass over
    the mesh and one operator pass."""
    gv = mesh.gradient_of(vals)
    return mesh.element_means(vals), gv, eval_flux(op, np.arange(mesh.n_elements), gv)


def _energy_terms(problem: EllipticProblem, point) -> list[float]:
    """The signed integrals of the energy's terms: the diffusion term
    lam int A(x, grad v)/p(x), with A = a(x, grad v) . grad v, each power term
    int c (v+)^r / r, and minus the load term, in that order; J is their sum."""
    mesh = problem.mesh
    vb, gv, flux = point
    vbp = np.maximum(vb, 0.0)
    dens = np.einsum("ed,ed->e", flux, gv)
    diffusion = problem.lam * np.sum(mesh.measures * dens / problem.op.exponent.values)
    terms = [float(diffusion)]
    for c, r in problem.terms:
        terms.append(float(np.sum(mesh.measures * c * vbp ** r) / r))
    if problem.load is not None:
        terms.append(-float(np.sum(mesh.measures * problem.load * vb)))
    return terms


def _energy_parts(problem: EllipticProblem, point) -> tuple[float, float]:
    """The energy J and its roundoff scale S, the sum of the absolute values
    of its terms.  The terms cancel, so |J| can be far below S."""
    terms = _energy_terms(problem, point)
    return sum(terms), sum(map(abs, terms))


def _gradient_values(problem: EllipticProblem, point) -> np.ndarray:
    mesh = problem.mesh
    nloc = mesh.elements.shape[1]
    vb, _, flux = point
    vbp = np.maximum(vb, 0.0)
    dens = np.zeros(mesh.n_elements)
    for c, r in problem.terms:
        dens += c * _power(vbp, r - 1.0)
    if problem.load is not None:
        dens -= problem.load
    contrib = (mesh.measures * dens)[:, None] / nloc
    contrib = contrib + problem.lam * mesh.measures[:, None] * np.einsum(
        "ed,eld->el", flux, mesh.grads)
    grad = np.zeros(mesh.n_vertices)
    np.add.at(grad, mesh.elements.ravel(), contrib.ravel())
    grad[mesh.boundary_mask] = 0.0
    return grad


def _hessian_matrix(problem: EllipticProblem, point,
                    include_concave: bool) -> np.ndarray:
    """Interior block of the energy's Hessian in the LAPACK band storage of
    `Mesh.band_scatter`, shape (2 bandwidth + 1, n_interior), with the flux
    Jacobian regularized by HESSIAN_EPS max|grad v| (HESSIAN_EPS when
    grad v = 0); without `include_concave` the terms with negative
    coefficients are dropped, which leaves a convex majorant."""
    mesh = problem.mesh
    nloc = mesh.elements.shape[1]
    vb, gv, _ = point
    scale = float(np.sqrt(np.einsum("ed,ed->e", gv, gv).max()))
    jac = flux_jacobian_batch(problem.op, np.arange(mesh.n_elements), gv,
                              eps=HESSIAN_EPS * (scale if scale > 0.0 else 1.0))
    elem = (mesh.grads @ jac) @ mesh.grads.transpose(0, 2, 1)
    elem *= (problem.lam * mesh.measures)[:, None, None]
    vbp = np.maximum(vb, 0.0)
    dd = np.zeros(mesh.n_elements)
    for c, r in problem.terms:
        if include_concave or c.min() >= 0.0:
            dd += (r - 1.0) * c * _power(vbp, r - 2.0)
    elem += (mesh.measures * dd)[:, None, None] / nloc ** 2
    scatter = mesh.band_scatter
    n_diagonals = 2 * scatter.bandwidth + 1
    band = np.bincount(scatter.index, weights=elem.ravel()[scatter.keep],
                       minlength=n_diagonals * mesh.interior.size)
    return band.reshape(n_diagonals, -1)


def energy(problem: EllipticProblem, v: DiscreteField) -> float:
    """Quadrature value of the energy functional at v."""
    return _energy_parts(problem, _point(problem.mesh, problem.op, v.values))[0]


def energy_gradient(problem: EllipticProblem, v: DiscreteField) -> DiscreteField:
    """Nodal partial derivatives of the energy; equals the hat-function residual
    of the weak form, and vanishes at interior nodes of a discrete solution."""
    point = _point(problem.mesh, problem.op, v.values)
    return DiscreteField(problem.mesh, _gradient_values(problem, point))


def _project(mesh: Mesh, vals: np.ndarray) -> np.ndarray:
    out = np.maximum(vals, 0.0)
    out[mesh.boundary_mask] = 0.0
    return out


def _kkt_norm(mesh: Mesh, vals: np.ndarray, grad: np.ndarray) -> float:
    r = np.where(vals > 0.0, np.abs(grad), np.maximum(-grad, 0.0))
    return float(np.max(r[mesh.interior], initial=0.0))


def _newton_direction(problem, point, grad, include_concave):
    """Newton direction on the interior nodes, or None when the system is
    singular or its solution is not a finite descent direction.  The band
    Hessian is solved by banded LU with partial pivoting, since with
    `include_concave` it can be indefinite."""
    mesh = problem.mesh
    band = _hessian_matrix(problem, point, include_concave)
    bw = mesh.band_scatter.bandwidth
    ii = mesh.interior
    gi = grad[ii]
    try:
        di = solve_banded((bw, bw), band, -gi, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(di)) or float(gi @ di) >= 0.0:
        return None
    d = np.zeros_like(grad)
    d[ii] = di
    return d


def _directions(problem: EllipticProblem, point, grad, descend: bool):
    """Search directions in preference order, produced lazily: one Newton step
    (the full one, or the convex-majorant step that drops the concave second
    derivatives when the full step is not a descent direction), then, if
    `descend`, projected steepest descent."""
    d = _newton_direction(problem, point, grad, include_concave=True)
    if d is None:
        d = _newton_direction(problem, point, grad, include_concave=False)
    if d is not None:
        yield d
    if descend:
        yield np.where(problem.mesh.boundary_mask, 0.0, -grad)


def _minimize(problem: EllipticProblem, start: np.ndarray, tolerance: float,
              max_iterations: int) -> tuple[np.ndarray, SolverReport]:
    mesh, op = problem.mesh, problem.op
    vals = _project(mesh, np.array(start, dtype=float))
    report = SolverReport()
    point = _point(mesh, op, vals)
    e_now, s_now = _energy_parts(problem, point)
    grad = _gradient_values(problem, point)
    for it in range(1, max_iterations + 1):
        kkt = _kkt_norm(mesh, vals, grad)
        report.iterations = it - 1
        report.final_gradient_norm = kkt
        report.energy = e_now
        # A start counts as converged only after one step: a warm start that
        # already meets the tolerance would otherwise never move.
        if kkt <= tolerance and it > 1:
            report.converged = True
            return vals, report

        moved, next_grad = False, None
        # steepest descent only while the residual is above the tolerance: a
        # start inside it tries the Newton step alone
        for d in _directions(problem, point, grad, kkt > tolerance):
            full = _project(mesh, vals + d)
            # Backtracking cannot resolve a predicted decrease of the full
            # step below the energy's roundoff: go straight to the floor test.
            if -float(grad @ (full - vals)) <= ROUNDOFF * s_now:
                report.searches_skipped += 1
            else:
                t = 1.0
                for _ in range(MAX_BACKTRACKS):
                    trial = _project(mesh, vals + t * d)
                    step = trial - vals
                    if not np.any(step):
                        break
                    trial_point = _point(mesh, op, trial)
                    e_trial, s_trial = _energy_parts(problem, trial_point)
                    if e_trial < e_now and e_trial <= e_now + ARMIJO_C * float(grad @ step):
                        vals, point, e_now, s_now = trial, trial_point, e_trial, s_trial
                        moved = True
                        break
                    t *= BACKTRACK
                if moved:
                    break
                report.line_search_failures += 1
            # Roundoff floor of the energy: accept the full step when it still
            # reduces the first-order residual without raising the energy
            # beyond machine slack.
            if np.any(full - vals):
                full_point = _point(mesh, op, full)
                e_trial, s_trial = _energy_parts(problem, full_point)
                if e_trial <= e_now + ROUNDOFF * (1.0 + abs(e_now)):
                    g_trial = _gradient_values(problem, full_point)
                    if _kkt_norm(mesh, full, g_trial) < kkt:
                        vals, point, e_now, s_now = full, full_point, e_trial, s_trial
                        moved, next_grad = True, g_trial
                        report.floor_steps += 1
                        break
        if not moved:
            report.converged = kkt <= tolerance
            return vals, report
        grad = _gradient_values(problem, point) if next_grad is None else next_grad
    report.iterations = max_iterations
    report.final_gradient_norm = _kkt_norm(mesh, vals, grad)
    report.energy = e_now
    report.converged = report.final_gradient_norm <= tolerance
    return vals, report


def bump_seed(mesh: Mesh) -> DiscreteField:
    """Interior bump of height 0.1, the generic positive starting guess."""
    return interpolate(mesh, lambda pts: 0.1 * _unit_bump(pts, mesh))


def solve(problem: EllipticProblem,
          guess: DiscreteField) -> tuple[DiscreteField, SolverReport]:
    """One minimization from the caller's guess under the module's fixed
    stopping policy: converged once the KKT residual is at most
    DEFAULT_TOL[dimension] (1e-11 in 1D, 1e-8 in 2D) within MAX_ITERATIONS
    (200) iterations, else NonConvergence.

    With a potential or source term the problem has exactly one positive
    solution, where J < 0; the only other KKT point is v = 0, with J(0) = 0
    (Picone's identity), so a descent that starts below J = 0 cannot end
    there.  A warm result that is not positive is replaced by one minimization
    from the bump, halved until J < 0, and its report has `fallback` set.
    When no halving gets below zero there is no positive solution (e.g. h0 = 0)
    and the warm result stands; without a negative coefficient or a positive
    load J >= 0 on the whole cone, so the halving is skipped.  The pure-load
    problem is strictly convex with a positive minimizer, so a converged solve
    of it never falls back."""
    mesh, op = problem.mesh, problem.op
    tolerance = DEFAULT_TOL[mesh.dimension]
    vals, report = _minimize(problem, guess.values, tolerance, MAX_ITERATIONS)
    positive = (report.converged and report.energy < 0.0
                and np.all(vals[mesh.interior] > 0.0))
    if not positive:
        # J(t * bump) ~ a t^p - b t^q near t = 0, so J < 0 can need a tiny t
        # when p - q is small; halving is exact and reaches zero only when no
        # t gives J < 0
        nonnegative = (all(c.min() >= 0.0 for c, _ in problem.terms)
                       and (problem.load is None or problem.load.max() <= 0.0))
        start = np.zeros_like(vals) if nonnegative else bump_seed(mesh).values
        while np.any(start) and _energy_parts(problem, _point(mesh, op, start))[0] >= 0.0:
            start = 0.5 * start
        # a guess that is this start has been minimized already
        if np.any(start) and not np.array_equal(start, guess.values):
            vals, report = _minimize(problem, start, tolerance, MAX_ITERATIONS)
        report.fallback = True
    if not report.converged:
        raise NonConvergence(
            f"elliptic solve failed to reach tolerance {tolerance:g} "
            f"(residual {report.final_gradient_norm:g})", report)
    return DiscreteField(mesh, vals), report


def solve_lambda_problem(lam: float, mesh: Mesh, op: LerayLionsOperator) -> DiscreteField:
    """Solution of the pure-load problem -div a(x, grad w) = lam, w = 0 on the
    boundary; monotone and power-law scaling in lam for constant exponents."""
    if not (lam > 0.0):
        raise InvalidProblem("lambda must be positive")
    problem = EllipticProblem(mesh, op, load=np.full(mesh.n_elements, float(lam)))
    field_, _ = solve(problem, bump_seed(mesh))
    return field_


def solve_subsolution_problem(mesh, op, q, source, lower_envelope, mu) -> DiscreteField:
    """Positive solution of -div a = mu (h_lower w^(q-1) + f(x, w)) at fixed mu:
    the stationary problem with potential mu * h_lower and source mu * f."""
    if not (mu > 0.0):
        raise InvalidProblem("mu must be positive")
    if source is not None:
        source = replace(source, g=mu * source.g)
    return solve_stationary(mesh, op, q, mu * np.asarray(lower_envelope), source)


def solve_supersolution_problem(mesh, op, q, source, sup_norm_h, kappa) -> DiscreteField:
    """Positive solution of -div a = ||h||_inf w^(q-1) + f(x, w) + kappa: the
    stationary problem with constant potential ||h||_inf and constant load."""
    if not (kappa > 0.0):
        raise InvalidProblem("kappa must be positive")
    ne = mesh.n_elements
    problem = EllipticProblem.stationary(mesh, op, q, np.full(ne, float(sup_norm_h)),
                                         source, load=np.full(ne, float(kappa)))
    return solve(problem, bump_seed(mesh))[0]


def make_subsolution(mesh, op, q, source, lower_envelope, v0: DiscreteField):
    """Halve mu from 1 until the subsolution sits below v0 nodally.
    Returns (w_lower, mu_used)."""
    mu = 1.0
    while mu >= MU_FLOOR:
        w = solve_subsolution_problem(mesh, op, q, source, lower_envelope, mu)
        if np.all(w.values <= v0.values) and np.all(w.values[mesh.interior] > 0.0):
            return w, mu
        mu *= 0.5
    raise FailedToFit("no mu above the floor produced a subsolution below v0")


def make_supersolution(mesh, op, q, source, sup_norm_h, v0: DiscreteField):
    """Double kappa from 1 until the supersolution dominates v0 nodally.
    Returns (w_upper, kappa_used)."""
    kappa = 1.0
    while kappa <= KAPPA_CEIL:
        w = solve_supersolution_problem(mesh, op, q, source, sup_norm_h, kappa)
        if np.all(w.values >= v0.values):
            return w, kappa
        kappa *= 2.0
    raise FailedToFit("no kappa below the ceiling produced a supersolution above v0")


def solve_stationary(mesh, op, q, b, source=None) -> DiscreteField:
    """Global minimizer of the stationary energy with potential b >= 0, b != 0,
    from the bump seed; a caller with its own start calls
    `solve(EllipticProblem.stationary(...), start)`."""
    b = np.asarray(b, dtype=float)
    if b.min() < 0.0 or not np.any(b > 0.0):
        raise InvalidProblem("stationary potential must be nonnegative and nontrivial")
    problem = EllipticProblem.stationary(mesh, op, q, b, source)
    field_, _ = solve(problem, bump_seed(mesh))
    return field_
