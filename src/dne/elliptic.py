"""Elliptic solves by projected damped Newton on a coercive energy.

Every problem minimizes the one energy

    J(v) = lam int A(x, grad v)/p(x)  +  sum_(c, r) int c (v+)^r / r  -  int load * v

over the nonnegative cone of the P1 space, with per-element coefficients c.
The constructors differ only in the power terms (c, r) they set, each a
`PowerTerm`: `standard` (the implicit Euler step) has the mass term (1, 2q),
the potential term (-h0, q) and the source term (-lam g delta^gamma,
beta + 1); `stationary` has lam = 1, the potential and source terms and an
optional load (the supersolution problem); the pure-load problem is the bare
constructor with a load and no terms.  Iterates are projected onto
{v >= 0}, realizing the positive-part truncation the energy is built on.
The energy, its gradient and its Hessian combine an iterate's element state
(`_point`), formed once, with the problem's and the terms' constants.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import PathFinder
from typing import Optional

import numpy as np

from .meshing import DiscreteField, Mesh, _unit_bump, interpolate
from .operators import (LerayLionsOperator, ValidationError, _block_norms,
                        _coefficient, _flux)

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 60
# Relative regularization of the flux Jacobian: block norms are smoothed by
# HESSIAN_EPS times the iterate's largest element gradient, so for p < 2 the
# smoothing stays below the gradients of a tiny solution.  Where that
# gradient is at most HESSIAN_SCALE_FLOOR the smoothing is HESSIAN_EPS itself:
# a relative eps^2 underflows below about 1e-154, and c / rho then overflows.
HESSIAN_EPS = 1e-8
HESSIAN_SCALE_FLOOR = 1e-90
# The stopping policy of every solve, which `_minimize` reads itself (`_solve`
# names the tolerance only in its error).  Absolute bounds on the nodal KKT
# residual: in 1D the nodal noise stays well below the 1e-8 ordering slack of
# the comparison checks; in 2D the tolerance equals that slack.
DEFAULT_TOL = {1: 1e-11, 2: 1e-8}
MAX_ITERATIONS = 200
MU_FLOOR = 1e-12
KAPPA_CEIL = 1e12
# Relative roundoff of the energy.  A predicted decrease at most ROUNDOFF times
# the energy's term scale is below what the Armijo test can resolve, and a
# trial energy within ROUNDOFF (1 + |J|) of the current one is no increase.
ROUNDOFF = 1e-13


def _banded_solvers():
    """LAPACK's `dpbsv` and `dptsv` from scipy's compiled wrappers,
    `scipy.linalg._flapack`, loaded as the one extension module:
    `from scipy.linalg.lapack import ...` would run all of
    `scipy/linalg/__init__.py` for two routines.  The module is found in the
    `linalg` directory of scipy's spec, which `find_spec("scipy")` returns
    without running `scipy/__init__.py`, so no package is imported.  It is
    registered under its own name, so a later `scipy.linalg` import reuses it
    (and its routines)."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        path = [os.path.join(location, "linalg") for location in
                importlib.util.find_spec("scipy").submodule_search_locations]
        spec = PathFinder.find_spec(name, path)
        if spec is None:
            import scipy
            raise ImportError(f"{name} not found in scipy {scipy.__version__}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.dpbsv, module.dptsv


dpbsv, dptsv = _banded_solvers()


class NonConvergence(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


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
    # Newton directions taken from the convex majorant because the full
    # Hessian was not positive definite or its step did not descend
    majorant_directions: int = 0
    # the step repeated the inputs of the previous step's `Step` record and
    # returned its field unsolved (`evolution.step`); the rest are its solve's
    repeated: bool = False


class PowerTerm:
    """The energy term int c (v+)^r / r: per-element coefficients c (a read-only
    copy), the power r, the weight |e| c and the Hessian's (r - 1) c (None at
    r = 1).  A term equals only itself, so a state caches its values by term."""

    def __init__(self, mesh: Mesh, c, r: float):
        c = np.array(c, dtype=float)
        if c.shape[-1:] != (mesh.n_elements,):
            raise ValueError("term coefficients must be per-element fields")
        c.flags.writeable = False
        self.c, self.r, self.weight = c, float(r), mesh.measures * c
        self.curvature = None if self.r == 1.0 else (self.r - 1.0) * c


def mass_term(mesh: Mesh, q: float) -> PowerTerm:
    """The time-step problem's mass term (1, 2q)."""
    return PowerTerm(mesh, np.ones(mesh.n_elements), 2.0 * q)


def source_terms(mesh, op, q, lam, source) -> tuple:
    """With a source, its term (-lam g delta^gamma, beta + 1), and none
    without, after checking q ∈ (1, p_-) and the source's exponents against
    q: beta in [0, q-1) (`(f_1)`) and beta + gamma > q - 3/2 (`(f_2)`), so
    that f/s^(q-1) is nonincreasing and the boundary-weighted ratio
    f/v^(q-1) stays square integrable along distance-comparable fields."""
    p_minus = op.exponent.p_minus
    if not (1.0 < q < p_minus):
        raise ValidationError("q ∈ (1, p_-)", f"q = {q} is outside (1, {p_minus})")
    if source is None:
        return ()
    beta, gamma = source.beta, source.gamma
    if not (0.0 <= beta < q - 1.0):
        raise ValidationError("(f_1)", f"beta = {beta} must lie in "
                              f"[0, q-1) = [0, {q - 1.0})")
    if not (beta + gamma > q - 1.5):
        raise ValidationError("(f_2)", f"beta + gamma = {beta + gamma} must "
                              f"exceed q - 3/2 = {q - 1.5}")
    return (PowerTerm(mesh, -lam * source.g * source.delta_power, beta + 1.0),)


def potential_term(mesh: Mesh, q: float, h0) -> PowerTerm:
    """The potential term (-h0, q), after checking that h0 is a nonnegative
    per-element field (`(H_h)`)."""
    h0 = np.asarray(h0, dtype=float)
    if h0.shape[-1:] != (mesh.n_elements,):
        raise ValueError("h0 must be a nonnegative per-element field")
    if h0.min() < 0.0:
        raise ValidationError("(H_h)", "h0 must be a nonnegative per-element field")
    return PowerTerm(mesh, -h0, q)


@dataclass(frozen=True)
class EllipticProblem:
    """One elliptic solve: diffusion weight lam, `PowerTerm`s (c, r) with
    per-element coefficients c, and an optional per-element linear load.
    A coefficient of shape (S, n_elements) holds one row per iterate of a
    point with that leading axis (`evolution.diagnose`); `solve` takes
    per-element fields.  It holds the diffusion weight lam |e| (`weight`) and
    each operator block's G_B G_B^T by block index (`products`)."""

    mesh: Mesh
    op: LerayLionsOperator
    lam: float = 1.0
    terms: tuple = ()
    load: Optional[np.ndarray] = None
    weight: np.ndarray = field(init=False, repr=False, compare=False)
    products: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op.n_points != self.mesh.n_elements or self.op.ndim != self.mesh.dimension:
            raise ValueError("operator does not match the mesh quadrature")
        if not (self.lam > 0.0):
            raise ValueError("lambda must be positive")
        if self.load is not None:
            object.__setattr__(self, "load", np.asarray(self.load, dtype=float))
        object.__setattr__(self, "weight", self.lam * self.mesh.measures)
        object.__setattr__(self, "products", tuple(
            map(self.mesh.band_scatter.block_products, self.op.axes)))

    @classmethod
    def standard(cls, mesh, op, q, lam, h0, source=None):
        sources = source_terms(mesh, op, q, lam, source)
        return cls(mesh, op, lam, (mass_term(mesh, q), potential_term(mesh, q, h0)) + sources)

    @classmethod
    def stationary(cls, mesh, op, q, b, source=None, load=None):
        sources = source_terms(mesh, op, q, 1.0, source)
        return cls(mesh, op, 1.0, (potential_term(mesh, q, b),) + sources, load)


def _power(vbp: np.ndarray, s: float, positive: bool) -> np.ndarray:
    """vbp^s where vbp > 0 and exactly 0 elsewhere, for any exponent s;
    `positive` says whether every entry is (vbp.min() > 0.0), which the
    caller tests once for all its terms (`_State.positive`)."""
    if positive:
        return vbp ** s
    pos = vbp > 0.0
    return np.where(pos, np.where(pos, vbp, 1.0) ** s, 0.0)


class _State:
    """Element state of one iterate (`_point`): its element means, gradients
    and each operator block's |grad v_B|^2 (`norms`), its flux and modular,
    the clipped means (v_b)^+ (the means themselves when all are positive,
    `positive`) and, formed on first use, each `PowerTerm`'s energy integral
    and gradient density, cached by term.  A run's next step starts from its
    last solve's state (`evolution.step`), so it evaluates only its new
    potential term there."""

    def __init__(self, means, grads, norms, flux, modular):
        self.means, self.grads, self.norms, self.flux = means, grads, norms, flux
        self.modular = modular
        self.positive = means.min() > 0.0
        self.clipped = means if self.positive else np.maximum(means, 0.0)
        self._energies, self._densities = {}, {}

    def energy(self, term: PowerTerm):
        """int c (v+)^r / r."""
        value = self._energies.get(term)
        if value is None:
            value = self._energies[term] = ((term.weight * self.clipped ** term.r)
                                            .sum(axis=-1) / term.r)
        return value

    def density(self, term: PowerTerm) -> np.ndarray:
        """c (v_b+)^(r-1), the term's gradient density."""
        value = self._densities.get(term)
        if value is None:
            value = self._densities[term] = term.c * _power(self.clipped, term.r - 1.0,
                                                            self.positive)
        return value


def _point(mesh: Mesh, op: LerayLionsOperator, vals: np.ndarray) -> _State:
    """Element state of one iterate: the only views of the nodal values that
    the energy, its gradient and its Hessian read, each formed once in one
    pass over the mesh (`Mesh.means_and_gradients`) and one operator pass,
    with the modular int A(x, grad v)/p(x), A = a(x, grad v) . grad v.
    Gradients and flux are views of axis-major memory.  Nodal values of
    shape (S, n_vertices) give the states of S iterates in one pass, each
    with that leading axis.  `_solve` returns its final state, which a run's
    next step hands to the solve starting there (`evolution.step`)."""
    vb, gv = mesh.means_and_gradients(vals)
    norms = _block_norms(op, gv)
    flux = _flux(op, gv, norms)
    # a . grad v axis by axis: no product c xi_d xi_d is -0.0, so these are
    # the sums of numpy's `einsum`
    dens = flux[..., 0] * gv[..., 0]
    for d in range(1, gv.shape[-1]):
        dens = dens + flux[..., d] * gv[..., d]
    # the `sum` method: np.sum's summation order without its dispatch
    modular = (mesh.measures * dens / op.exponent.values).sum(axis=-1)
    return _State(vb, gv, norms, flux, modular)


def _energy_terms(problem: EllipticProblem, point: _State) -> list:
    """The signed integrals of the energy's terms: the diffusion term
    lam int A(x, grad v)/p(x), each power term int c (v+)^r / r, and minus
    the load term, in that order; J is their sum.  Each is a numpy scalar,
    or for a point with a leading axis of S iterates the array of their S
    values: every integral sums over the last axis, which numpy reduces row
    by row as it reduces one iterate's array."""
    terms = [problem.lam * point.modular]
    terms += [point.energy(term) for term in problem.terms]
    if problem.load is not None:
        terms.append(-(problem.mesh.measures * problem.load * point.means).sum(axis=-1))
    return terms


def _energy_parts(problem: EllipticProblem, point) -> tuple[float, float]:
    """The energy J and its roundoff scale S, the sum of the absolute values
    of its terms.  The terms cancel, so |J| can be far below S."""
    terms = [float(t) for t in _energy_terms(problem, point)]
    return sum(terms), sum(map(abs, terms))


def _gradient_values(problem: EllipticProblem, point: _State) -> np.ndarray:
    mesh = problem.mesh
    dens = np.zeros(mesh.n_elements)
    for term in problem.terms:
        dens += point.density(term)
    if problem.load is not None:
        dens -= problem.load
    # a . grad phi_l per corner, axis by axis; the mass part is never -0.0,
    # so the sign of a zero product does not reach the sum
    grads, flux = mesh.corner_grads, point.flux  # (nloc, dim, n_elements)
    flux_part = flux[:, 0] * grads[:, 0]
    for d in range(1, grads.shape[1]):
        flux_part += flux[:, d] * grads[:, d]
    contrib = (mesh.measures * dens) / len(grads) + problem.weight * flux_part
    # element-major weights: each vertex sums its terms in element order
    grad = np.bincount(mesh.elements.ravel(), weights=contrib.T.ravel(),
                       minlength=mesh.n_vertices)
    grad[mesh.boundary_mask] = 0.0
    return grad


def _hessian_matrix(problem: EllipticProblem, point,
                    include_concave: bool) -> np.ndarray:
    """Upper band of the interior block of the energy's Hessian in the LAPACK
    storage and layout of `Mesh.band_scatter` (`BandScatter.assemble`), with
    the flux Jacobian regularized by HESSIAN_EPS max|grad v| (HESSIAN_EPS when
    max|grad v| <= HESSIAN_SCALE_FLOOR); without `include_concave` the terms
    with negative coefficients are dropped, which leaves a convex majorant.  Per operator
    block G_B J_B G_B^T = c G_B G_B^T + c2 (G_B xi_B)(G_B xi_B)^T, with
    c2 = (p - 2) c / rho, is formed at the kept band pairs from the problem's
    G_B G_B^T (`EllipticProblem.products`), with no element Jacobian.  The
    mass part that every pair starts from is never -0.0, so no term's sign
    of zero reaches the band."""
    mesh, op = problem.mesh, problem.op
    scatter = mesh.band_scatter
    nloc = mesh.elements.shape[1]
    gv, norms = point.grads, point.norms
    # |grad v|^2: one block's norm, or two one-axis blocks' same two squares
    scale = float(np.sqrt(sum(norms[1:], norms[0]).max()))
    eps = HESSIAN_EPS * (scale if scale > HESSIAN_SCALE_FLOOR else 1.0)
    dd = np.zeros(mesh.n_elements)
    # a term with r = 1 (the source at beta = 0) would add (r - 1) c vbp^-1,
    # +-0.0, or 0 * inf = nan where a clipped mean is subnormal
    for term in problem.terms:
        if term.curvature is not None and (include_concave or term.c.min() >= 0.0):
            dd += term.curvature * _power(point.clipped, term.r - 2.0, point.positive)
    element, (first, second) = scatter.element, scatter.rows
    pairs = (mesh.measures * dd / nloc ** 2).take(element)
    weight = problem.weight
    for j, axes in enumerate(op.axes):
        # rho >= eps^2 >= (HESSIAN_EPS HESSIAN_SCALE_FLOOR)^2 > 0
        rho = norms[j] + eps ** 2
        c = _coefficient(op, j, rho)
        c2 = op.exponent.minus_two * (c / rho)
        # G_B xi_B per corner and element, corner-major like `rows`
        grads, xb = mesh.corner_grads[:, axes], gv[:, axes]
        s = grads[:, 0] * xb[:, 0]
        for d in range(1, xb.shape[1]):
            s += grads[:, d] * xb[:, d]
        pairs += (weight * c).take(element) * problem.products[j]
        pairs += (weight * c2 * s).take(first) * s.take(second)
    return scatter.assemble(pairs)


def _project(mesh: Mesh, vals: np.ndarray) -> np.ndarray:
    out = np.maximum(vals, 0.0)
    out[mesh.boundary_mask] = 0.0
    return out


def _kkt_norm(mesh: Mesh, vals: np.ndarray, grad: np.ndarray) -> float:
    r = np.where(vals > 0.0, np.abs(grad), np.maximum(-grad, 0.0))
    return float(r[mesh.interior].max(initial=0.0))


def _newton_direction(problem, point, grad, include_concave):
    """Newton direction on the interior nodes, or None when the Hessian is not
    positive definite or the solution is not a finite descent direction.  The
    upper band of the Hessian is solved by LAPACK's banded Cholesky, `dpbsv`,
    or in 1D (bandwidth 1) its tridiagonal LDL^T, `dptsv`: the routines
    `scipy.linalg.solveh_banded` calls, without its checks, taken from
    `scipy.linalg._flapack` by `_banded_solvers` so that set-up imports
    neither `scipy` nor `scipy.linalg` as a package.  The band comes in the
    layout each routine reads (`BandScatter`), so neither call copies it:
    `dpbsv` factors the Fortran-ordered band in place, `dptsv` its two rows.
    The module name is private; if scipy moves it, `import dne` raises
    ImportError and `tests/test_api.py` fails.  With `include_concave` the
    Hessian can be indefinite, and the factorization then fails (info > 0)."""
    band = _hessian_matrix(problem, point, include_concave)
    ii = problem.mesh.interior
    gi = grad[ii]
    if len(band) == 2:
        *_, di, info = dptsv(band[1], band[0, 1:], -gi, overwrite_d=1, overwrite_e=1,
                             overwrite_b=1)
    else:
        _, di, info = dpbsv(band, -gi, overwrite_ab=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of the banded solve")
    if info > 0 or not np.isfinite(di).all() or float(gi @ di) >= 0.0:
        return None
    d = np.zeros(grad.shape)
    d[ii] = di
    return d


def _direction(problem: EllipticProblem, point, grad, report: SolverReport):
    """The iteration's one search direction: the full Newton step, else the
    convex-majorant step, which drops the concave second derivatives and is
    positive definite (counted in `majorant_directions`), else None."""
    d = _newton_direction(problem, point, grad, include_concave=True)
    if d is None:
        d = _newton_direction(problem, point, grad, include_concave=False)
        if d is not None:
            report.majorant_directions += 1
    return d


def _minimize(problem: EllipticProblem, start: np.ndarray,
              point: Optional[_State] = None) -> tuple[np.ndarray, SolverReport, _State]:
    """Projected damped Newton from `start` under the stopping policy,
    DEFAULT_TOL[dimension] and MAX_ITERATIONS: the final iterate, its report
    and its element state; `point` is start's.  Each iteration takes one
    direction (`_direction`) and accepts either its Armijo step or, at the
    energy's roundoff floor, its full step; when there is no direction or
    neither step is accepted, the minimization stops where it is."""
    mesh, op = problem.mesh, problem.op
    tolerance = DEFAULT_TOL[mesh.dimension]
    vals = _project(mesh, np.asarray(start, dtype=float))
    report = SolverReport()
    point = _point(mesh, op, vals) if point is None else point
    e_now, s_now = _energy_parts(problem, point)
    grad = _gradient_values(problem, point)
    kkt = _kkt_norm(mesh, vals, grad)
    # the report describes the iterate at the loop top, where the loop exits
    # at the iteration cap
    for it in itertools.count():
        report.iterations = it
        report.final_gradient_norm = kkt
        report.energy = e_now
        report.converged = kkt <= tolerance
        # A start counts as converged only after one step: a warm start that
        # already meets the tolerance would otherwise never move.
        if (report.converged and it > 0) or it == MAX_ITERATIONS:
            return vals, report, point

        d = _direction(problem, point, grad, report)
        if d is None:
            return vals, report, point
        full = _project(mesh, vals + d)
        full_step = full - vals
        slope = float(grad @ full_step)
        at_full = None  # the full step's point and energy, once evaluated
        # Backtracking cannot resolve a predicted decrease of the full step
        # below the energy's roundoff: go straight to the floor test.
        if -slope <= ROUNDOFF * s_now:
            report.searches_skipped += 1
        else:
            t, accepted = 1.0, None
            for _ in range(MAX_BACKTRACKS):
                # 1.0 * d is d, so the first trial is the full step
                first = t == 1.0
                trial = full if first else _project(mesh, vals + t * d)
                step = full_step if first else trial - vals
                if not step.any():
                    break
                trial_point = _point(mesh, op, trial)
                e_trial, s_trial = _energy_parts(problem, trial_point)
                if first:
                    at_full = trial_point, e_trial, s_trial
                if e_trial < e_now and e_trial <= e_now + ARMIJO_C * (
                        slope if first else float(grad @ step)):
                    accepted = trial, trial_point, e_trial, s_trial
                    break
                t *= BACKTRACK
            if accepted is not None:
                vals, point, e_now, s_now = accepted
                grad = _gradient_values(problem, point)
                kkt = _kkt_norm(mesh, vals, grad)
                continue
            report.line_search_failures += 1
        # Roundoff floor of the energy: accept the full step when it still
        # reduces the first-order residual without raising the energy beyond
        # machine slack.  The acceptance is written as the positive
        # comparisons, which a NaN fails.
        if full_step.any():
            if at_full is None:
                full_point = _point(mesh, op, full)
                at_full = full_point, *_energy_parts(problem, full_point)
            full_point, e_trial, s_trial = at_full
            if e_trial <= e_now + ROUNDOFF * (1.0 + abs(e_now)):
                g_trial = _gradient_values(problem, full_point)
                kkt_trial = _kkt_norm(mesh, full, g_trial)
                if kkt_trial < kkt:
                    # the floor step carries the gradient and residual its
                    # test measured
                    vals, point, e_now, s_now = full, full_point, e_trial, s_trial
                    grad, kkt = g_trial, kkt_trial
                    report.floor_steps += 1
                    continue
        return vals, report, point


def bump_seed(mesh: Mesh) -> DiscreteField:
    """Interior bump of height 0.1, the generic positive starting guess."""
    return interpolate(mesh, lambda pts: 0.1 * _unit_bump(pts, mesh))


def solve(problem: EllipticProblem,
          guess: Optional[DiscreteField] = None) -> tuple[DiscreteField, SolverReport]:
    """One minimization from the caller's guess, or from `bump_seed` without
    one, under the module's fixed stopping policy: converged once the KKT
    residual is at most DEFAULT_TOL[dimension] (1e-11 in 1D, 1e-8 in 2D)
    within MAX_ITERATIONS (200) iterations, else NonConvergence.

    With a potential or source term the problem has exactly one positive
    solution, where J < 0; the only other KKT point is v = 0, with J(0) = 0
    (Picone's identity), so a descent that starts below J = 0 cannot end
    there.  A warm result that is not positive is replaced by one minimization
    from the bump, halved until J < 0, and its report has `fallback` set.
    Without a negative coefficient or a positive load J >= 0 on the whole
    cone, there is no positive solution (e.g. h0 = 0), the halving is skipped
    and the warm result stands.  With one, a halving that reaches zero means
    the positive solution is below double range: NonConvergence says so, with
    the warm result's report.  The pure-load problem is strictly convex with
    a positive minimizer, so a converged solve of it never falls back."""
    return _solve(problem, guess)[:2]


def _solve(problem: EllipticProblem, guess: Optional[DiscreteField] = None,
           state: Optional[_State] = None) -> tuple[DiscreteField, SolverReport, _State]:
    """`solve`, and the final element state; `state` is the guess's."""
    mesh, op = problem.mesh, problem.op
    guess = bump_seed(mesh) if guess is None else guess
    vals, report, point = _minimize(problem, guess.values, state)
    positive = (report.converged and report.energy < 0.0
                and (vals[mesh.interior] > 0.0).all())
    if not positive:
        # J(t * bump) ~ a t^p - b t^q near t = 0, so J < 0 can need a tiny t
        # when p - q is small; halving is exact and reaches zero only when no
        # t gives J < 0
        nonnegative = (all(term.c.min() >= 0.0 for term in problem.terms)
                       and (problem.load is None or problem.load.max() <= 0.0))
        start = np.zeros_like(vals) if nonnegative else bump_seed(mesh).values
        while np.any(start) and _energy_parts(problem, _point(mesh, op, start))[0] >= 0.0:
            start = 0.5 * start
        # a guess that is this start has been minimized already
        if np.any(start) and not np.array_equal(start, guess.values):
            vals, report, point = _minimize(problem, start)
        report.fallback = True
        if not (nonnegative or np.any(start)):
            raise NonConvergence("no t > 0 gives J(t * bump) < 0 in double precision: "
                                 "the positive solution is below double range", report)
    if not report.converged:
        raise NonConvergence(
            f"elliptic solve failed to reach tolerance {DEFAULT_TOL[mesh.dimension]:g} "
            f"(residual {report.final_gradient_norm:g})", report)
    return DiscreteField(mesh, vals), report, point


def solve_lambda_problem(lam: float, mesh: Mesh, op: LerayLionsOperator) -> DiscreteField:
    """Solution of the pure-load problem -div a(x, grad w) = lam, w = 0 on the
    boundary; monotone and power-law scaling in lam for constant exponents."""
    if not (lam > 0.0):
        raise ValueError("lambda must be positive")
    problem = EllipticProblem(mesh, op, load=np.full(mesh.n_elements, float(lam)))
    return solve(problem)[0]


def make_subsolution(mesh, op, q, source, lower_envelope, v0: DiscreteField):
    """Halve mu from 1 until the positive solution of
    -div a = mu (h_lower w^(q-1) + f(x, w)), the stationary problem with
    potential mu * h_lower and source mu * f, sits below v0 nodally.
    Returns (w_lower, mu_used)."""
    mu = 1.0
    while mu >= MU_FLOOR:
        scaled = None if source is None else replace(source, g=mu * source.g)
        w = solve_stationary(mesh, op, q, mu * np.asarray(lower_envelope), scaled)
        if np.all(w.values <= v0.values) and np.all(w.values[mesh.interior] > 0.0):
            return w, mu
        mu *= 0.5
    raise NonConvergence("no mu above the floor produced a subsolution below v0")


def make_supersolution(mesh, op, q, source, sup_norm_h, v0: DiscreteField):
    """Double kappa from 1 until the positive solution of
    -div a = ||h||_inf w^(q-1) + f(x, w) + kappa, the stationary problem with
    constant potential ||h||_inf and constant load kappa, dominates v0
    nodally.  Returns (w_upper, kappa_used)."""
    ne = mesh.n_elements
    kappa = 1.0
    while kappa <= KAPPA_CEIL:
        problem = EllipticProblem.stationary(mesh, op, q, np.full(ne, float(sup_norm_h)),
                                             source, load=np.full(ne, float(kappa)))
        w = solve(problem)[0]
        if np.all(w.values >= v0.values):
            return w, kappa
        kappa *= 2.0
    raise NonConvergence("no kappa below the ceiling produced a supersolution above v0")


def solve_stationary(mesh, op, q, b, source=None) -> DiscreteField:
    """Global minimizer of the stationary energy with potential b >= 0, b != 0,
    from `solve`'s cold start; a caller with its own start calls
    `solve(EllipticProblem.stationary(...), start)`."""
    b = np.asarray(b, dtype=float)
    if b.min() < 0.0 or not np.any(b > 0.0):
        raise ValidationError("(H_h)", "stationary potential must be nonnegative and "
                              "nontrivial")
    return solve(EllipticProblem.stationary(mesh, op, q, b, source))[0]
