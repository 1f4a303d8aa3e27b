"""Oracles the tests read and no command runs.

The operator oracles sample both sides of the prototype operator's pointwise
inequalities (strong monotonicity, the Picone gap, the Picone pair sum, the
Clarkson-type convexity defect, the ellipticity floor and the growth
sandwich), and `flux_jacobian_batch` is the flux Jacobian the Hessian tests
build from.  Each takes its own point index k, an index array, a slice or
(but for `flux_jacobian_batch`) a scalar, and evaluates `restrict(op, k)`,
the operator on those points alone: the library evaluates every point of an
operator at once.  `picone_at_points` is the `picone` check with every
power evaluated per sample through `picone_gap`, at every point the
reference for the check's enumerated pass, and `picone_per_sample` draws its points
as the check once sampled them; `picone_pair_per_pair` is the `picone-pair`
integral one pair at a time, the reference for the batched pass; the energy
helpers evaluate J and its nodal gradient at a field; `evolve` takes every
step of a run and `diagnose_per_step` diagnoses it one step at a time, the
reference for the chunked `evolution.diagnose`; the u = v^q change of
variables and the contraction ratio of a refinement study feed the
acceptance tests.  They read the library's private element
state the same way the solver does.

The element-pass references (`element_means_reference`, `gradient_reference`,
`blocks_reference`, `flux_reference`, `point_reference`,
`energy_terms_reference`, `gradient_values_reference`,
`hessian_band_reference`) are the solver's per-point formulas as numpy
reductions and `einsum` calls over element-major arrays, the reference the
corner-major, plain-add passes of the solver must match bit for bit.

The run-check references (`sandwich_per_step`, `monotone_run_per_step`,
`contraction_parabolic_per_step`, `stabilization_per_step`) walk a run one
stored time at a time through `l2_norm_diff_power`, `positive_part_norm` and
per-field minima, the reference for the stacked checks of `dne.checks`;
`time_integral_norm_per_step` integrates the potential difference one step,
Gauss node and form at a time, and `contraction_elliptic_per_orientation`
forms each orientation's differences in its own order; `eval_at_points`
evaluates a P1 field anywhere in a rectangle from `rectangle_mesh`'s triangle
layout, the reference for the Hopf probes read along grid lines, and
`rectangle_elements_reference` builds that layout one cell at a time.
`spacing_reference`, `boundary_distance_reference` and
`function_library_reference` read the mesh extents as one flat tuple, with
a branch per dimension, the reference for the library's loops over the
(lo, hi) pairs of `Mesh.bounds`.

`pure_load_solution` is the exact discrete solution of the 1D pure-load
problem that `elliptic.solve_lambda_problem` solves, and `per_time` makes
a `PotentialField` evaluator of a function of one time.  `seeded_rng` is
the tests' one source of random draws: no command draws any.
"""

from __future__ import annotations

import zlib
from functools import reduce

import numpy as np
from scipy.optimize import brentq

from dne import checks
from dne.checks import _report, _solve_pair
from dne.elliptic import (HESSIAN_EPS, HESSIAN_SCALE_FLOOR, EllipticProblem,
                          _energy_parts, _energy_terms, _gradient_values, _point,
                          _power)
from dne.evolution import (DISSIPATION_SLACK, EvolutionSetup, Run, StepDiagnostics,
                           Trajectory, average_potential)
from dne.meshing import (DiscreteField, Mesh, _cell_flipped, _mean_powers,
                         l2_norm_diff_power, l2_norm_values)
from dne.operators import (ExponentField, LerayLionsOperator, eval_A, eval_flux,
                           eval_source)


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """Deterministic per-purpose generator: one stream per (seed, label)."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(label.encode())]))


def restrict(op: LerayLionsOperator, k) -> LerayLionsOperator:
    """`op` on the points k alone, an index array or a slice: the operator
    whose every-point evaluation is `op`'s at those points, bit for bit."""
    return LerayLionsOperator(ExponentField(op.exponent.values[k]), op.partition,
                              op.weights[:, k])


def per_time(h):
    """The `PotentialField` evaluator of `h`, a function of one time: the
    rows h(t) for an array of times, stacked."""
    return lambda times: np.array([h(t) for t in times])


def _maybe_scalar(x):
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _at_points(op: LerayLionsOperator, k, *xis):
    """A sampling oracle's point index k (a scalar, an index array or a
    slice) in the library's every-point form: `restrict(op, k)`, each xi as
    an array over those points (a scalar k's xi gains a points axis of one),
    and the map from a result over the points back to k's form, a float for
    a scalar k."""
    xis = [np.asarray(x, dtype=float) for x in xis]
    if np.ndim(k) == 0 and not isinstance(k, slice):
        return (restrict(op, [k]), [x[..., None, :] for x in xis],
                lambda y: _maybe_scalar(y[..., 0]))
    return restrict(op, k), xis, lambda y: y


def monotonicity_gap(op: LerayLionsOperator, k, xi, eta, gamma0: float = 1.0):
    """Both sides of the strong monotonicity bound
    <a(x,xi)-a(x,eta), xi-eta> >= gamma0 * |xi-eta|^p            (p > 2)
                               >= gamma0 * |xi-eta|^2 / (1+|xi|+|eta|)^(2-p)  (p <= 2).
    Returns (lhs, rhs); the caller asserts lhs >= rhs."""
    sub, (xi, eta), back = _at_points(op, k, xi, eta)
    p = sub.exponent.values
    diff = xi - eta
    lhs = np.sum((eval_flux(sub, xi) - eval_flux(sub, eta)) * diff, axis=-1)
    d = np.linalg.norm(diff, axis=-1)
    nx = np.linalg.norm(xi, axis=-1)
    ne = np.linalg.norm(eta, axis=-1)
    rhs = np.where(p > 2.0,
                   gamma0 * d ** np.maximum(p, 2.0),
                   gamma0 * d ** 2 / (1.0 + nx + ne) ** (2.0 - np.minimum(p, 2.0)))
    return back(lhs), back(rhs)


def flux_jacobian_batch(op: LerayLionsOperator, k, xi: np.ndarray,
                        eps: float = 0.0) -> np.ndarray:
    """Vectorized flux Jacobian over rows of xi (m, N) -> (m, N, N) at the m
    points k, an index array or a slice; block j is
    c_j I + (p-2) (c_j/rho_j) xi_Bj xi_Bj^T, the second term 0 where rho_j = 0.

    With eps > 0 every block norm is smoothed, rho -> rho + eps^2, as in the
    solver's regularized Hessian, which assembles the same blocks as rank-one
    updates and is tested against this; the exact Jacobian is eps = 0.
    """
    xi = np.asarray(xi, dtype=float)
    op = restrict(op, k)
    p = op.exponent.values
    m, n = xi.shape
    jac = np.zeros((m, n, n))
    for axes, rho, c in blocks_reference(op, xi, eps):
        xb = xi[:, axes]
        c2 = (p - 2.0) * np.divide(c, rho, out=np.zeros(m), where=rho > 0.0)
        sub = c2[:, None, None] * (xb[:, :, None] * xb[:, None, :])
        size = xb.shape[1]
        sub.reshape(m, size * size)[:, ::size + 1] += c[:, None]  # + c_j I
        # the (axes, axes) square: basic slicing, or an outer fancy index
        jac[:, axes if isinstance(axes, slice) else axes[:, None], axes] = sub
    return jac


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


def picone_gap(op: LerayLionsOperator, k, grad_u_root, grad_v_root, ratio_grad, r: float):
    """Both sides of the Picone-type bound for consistently supplied gradients
    of u^(1/r), v^(1/r) and v/u^((r-1)/r):

        a(x, grad u^(1/r)) . grad(v/u^((r-1)/r))
            <= A^(r/p)(x, grad v^(1/r)) * A^((p-r)/p)(x, grad u^(1/r)).
    """
    sub, (gu, gv, ratio_grad), back = _at_points(op, k, grad_u_root, grad_v_root,
                                                 ratio_grad)
    p = sub.exponent.values
    if r < 1.0 or np.any(r >= p):
        raise ValueError("picone_gap requires 1 <= r < p(x) at every sampled point")
    lhs = np.sum(eval_flux(sub, gu) * ratio_grad, axis=-1)
    rhs = eval_A(sub, gv) ** (r / p) * eval_A(sub, gu) ** ((p - r) / p)
    return back(lhs), back(rhs)


def picone_per_sample(mesh: Mesh, op: LerayLionsOperator, r: float,
                      sample_count: int = 10 ** 5, seed: int = 0):
    """The `picone` check as it once sampled: for each (u, v) pair in library
    order, sample_count // L^2 (at least one) quadrature points drawn from
    one seeded stream.  Returns the drawn points[pair, sample] and, from
    `picone_at_points`, the margins there and their report."""
    rng = seeded_rng(seed, "picone")
    n_pairs = len(checks.function_library(mesh)) ** 2
    per_pair = max(1, sample_count // n_pairs)
    points = np.array([rng.integers(0, mesh.n_elements, size=per_pair)
                       for _ in range(n_pairs)])
    return (points,) + picone_at_points(mesh, op, r, points)


def picone_at_points(mesh: Mesh, op: LerayLionsOperator, r: float, points):
    """`checks.check_picone` with every power of u and v evaluated per sample
    through `picone_gap`, at the quadrature points points[pair] of each
    (u, v) pair in library order: its margins[pair, sample] and its report,
    whose strictness asks each pair's gap integrated over its points and
    which names the first pair that fails it.  Every point of every pair, in
    element order, is the check itself."""
    if not (1.0 <= r < op.exponent.p_minus):
        raise ValueError("check_picone requires r in [1, p_-)")
    lib = checks.function_library(mesh)
    margins, failing = [], []
    pairs = [(iu, fu, iv, fv) for iu, fu in enumerate(lib) for iv, fv in enumerate(lib)]
    for (iu, fu, iv, fv), ks in zip(pairs, points):
        u, gu = fu["values"][ks], fu["grads"][ks]
        v, gv = fv["values"][ks], fv["grads"][ks]
        grad_u_root = (1.0 / r) * u[:, None] ** (1.0 / r - 1.0) * gu
        grad_v_root = (1.0 / r) * v[:, None] ** (1.0 / r - 1.0) * gv
        ratio_grad = (u[:, None] ** (-(r - 1.0) / r) * gv
                      - ((r - 1.0) / r) * (v * u ** (-(r - 1.0) / r - 1.0))[:, None] * gu)
        lhs, rhs = picone_gap(op, ks, grad_u_root, grad_v_root, ratio_grad, r)
        margins.append(rhs - lhs + checks.PICONE_SLACK * np.maximum(1.0, np.abs(rhs)))
        gap = (mesh.measures[ks] * (rhs - lhs)).sum()
        if r > 1.0 and iu != iv and gap <= 0.0:
            failing.append(f"pair ({fu['name']}, {fv['name']}) integrated gap {gap:+.3e}")
    names = [(fu["name"], fv["name"]) for _, fu, _, fv in pairs]
    per_pair = np.shape(points)[1]
    report = _report("picone", len(margins) * per_pair, margins,
                     lambda i: failing[0] if failing else
                     "pair ({}, {})".format(*names[i // per_pair]),
                     slack=checks.PICONE_SLACK, extra_pass=not failing)
    return np.array(margins), report


def picone_pair_sum(op: LerayLionsOperator, k, w1, w2, g1, g2, r: float):
    """Pointwise two-function sum
    a(x,g1).grad((w1^r-w2^r)/w1^(r-1)) + a(x,g2).grad((w2^r-w1^r)/w2^(r-1))
    for positive values w1, w2 with gradients g1, g2; nonnegative for r < p(x)."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    sub, (g1, g2), back = _at_points(op, k, g1, g2)
    if np.any(w1 <= 0.0) or np.any(w2 <= 0.0):
        raise ValueError("picone_pair_sum requires strictly positive values")
    # grad((w1^r - w2^r)/w1^(r-1)) = g1 - r (w2/w1)^(r-1) g2 - (1-r) (w2/w1)^r g1
    q12 = (w2 / w1)[..., None]
    q21 = (w1 / w2)[..., None]
    grad1 = g1 - r * q12 ** (r - 1.0) * g2 - (1.0 - r) * q12 ** r * g1
    grad2 = g2 - r * q21 ** (r - 1.0) * g1 - (1.0 - r) * q21 ** r * g2
    term1 = np.sum(eval_flux(sub, g1) * grad1, axis=-1)
    term2 = np.sum(eval_flux(sub, g2) * grad2, axis=-1)
    return back(term1 + term2)


def picone_pair_per_pair(mesh: Mesh, op: LerayLionsOperator, r: float, pairs):
    """`checks.picone_pair_integral` one (w1, w2) pair of fields at a time,
    each quotient a `DiscreteField`: the values and the scales of the pairs."""
    ii = mesh.interior

    def quotient(a: DiscreteField, b: DiscreteField) -> DiscreteField:
        vals = np.zeros(mesh.n_vertices)
        va, vb = a.values[ii], b.values[ii]
        vals[ii] = (va ** r - vb ** r) / va ** (r - 1.0)
        return DiscreteField(mesh, vals)

    values, scales = [], []
    for w1, w2 in pairs:
        t1, t2 = (np.sum(eval_flux(op, mesh.gradient_of(a.values))
                         * mesh.gradient_of(quotient(a, b).values), axis=1)
                  for a, b in ((w1, w2), (w2, w1)))
        values.append(float(np.sum(mesh.measures * (t1 + t2))))
        scales.append(float(np.sum(mesh.measures * (np.abs(t1) + np.abs(t2)))))
    return np.array(values), np.array(scales)


def morawetz_gap(op: LerayLionsOperator, k, xi, eta):
    """Both sides of the Clarkson-type convexity-defect bound with
    s = min(1, p/2) and zeta = (1 - 2^(1-p))^(-s) for p < 2, 1/2 otherwise.
    Sampled only; asserted only for constant-exponent single-block operators."""
    sub, (xi, eta), back = _at_points(op, k, xi, eta)
    p = sub.exponent.values
    s = np.minimum(1.0, p / 2.0)
    zeta = np.where(p < 2.0, (1.0 - 2.0 ** (1.0 - p)) ** (-s), 0.5)
    a_sum = eval_A(sub, xi) + eval_A(sub, eta)
    defect = np.maximum(a_sum - 2.0 * eval_A(sub, (xi + eta) / 2.0), 0.0)
    lhs = eval_A(sub, (xi - eta) / 2.0)
    rhs = zeta * a_sum ** (1.0 - s) * defect ** s
    return back(lhs), back(rhs)


def ellipticity_floor(op: LerayLionsOperator, k, xi):
    """Provable smallest-eigenvalue floor of the flux Jacobian at (x_k, xi).

    Per block the spectrum is c_j * {1, p-1} with c_j = g_j rho_j^((p-2)/2),
    so the floor is min(1, p-1) * min_j c_j.  For a single block (or p <= 2)
    this dominates gamma * |xi|^(p-2); for several blocks and p > 2 the
    |xi|-based form of the literature bound fails and the blockwise floor is
    the honest statement.
    """
    sub, (xi,), back = _at_points(op, k, xi)
    floor = reduce(np.minimum, (c for _, _, c in blocks_reference(sub, xi)))
    return back(np.minimum(1.0, sub.exponent.values - 1.0) * floor)


def growth_envelope(op: LerayLionsOperator, k, xi):
    """Provable sandwich for the prototype on the sampled exponent range:
    min g * min(1, p-1)/(p-1) * |xi|^p <= A <= max g * C_J(p) * |xi|^p
    over the block weights g, with C_J(p) = J^max(0, 1 - p/2) from the block
    structure."""
    xi = np.asarray(xi, dtype=float)
    p = np.asarray(op.exponent.values[k], dtype=float)
    norm_p = np.linalg.norm(xi, axis=-1) ** p
    nblocks = len(op.partition)
    lower = op.weights.min() * np.minimum(1.0, p - 1.0) / (p - 1.0) * norm_p
    upper = op.weights.max() * nblocks ** np.maximum(0.0, 1.0 - p / 2.0) * norm_p
    return _maybe_scalar(lower), _maybe_scalar(upper)


def element_grads(mesh: Mesh) -> np.ndarray:
    """The mesh's shape-function gradients element-major, G[element, l, d]."""
    return mesh.corner_grads.transpose(2, 0, 1)


def element_means_reference(mesh: Mesh, nodal_values) -> np.ndarray:
    """Element means: a gather by `elements` and numpy's sum over corners."""
    vals = np.asarray(nodal_values, dtype=float).take(mesh.elements, axis=-1)
    return vals.sum(axis=-1) / mesh.elements.shape[1]


def gradient_reference(mesh: Mesh, nodal_values) -> np.ndarray:
    """Element gradients: a gather by `elements` and one `einsum`."""
    vals = np.asarray(nodal_values, dtype=float).take(mesh.elements, axis=-1)
    return np.einsum("...el,eld->...ed", vals, element_grads(mesh))


def blocks_reference(op: LerayLionsOperator, xi, eps: float = 0.0):
    """Per block j: its axes, rho_j = |xi_Bj|^2 + eps^2 and the coefficient
    c_j = g_j rho_j^((p-2)/2) of the flux a = c_j xi on the block: the
    block norms and coefficients of `operators._block_norms` and
    `operators._coefficient` with rho summed by numpy and the rho = 0 guard
    applied at every exponent."""
    power, at_least_two = op.exponent.flux_power, op.exponent.at_least_two
    for j, axes in enumerate(op.axes):
        rho = (xi[..., axes] ** 2).sum(axis=-1) + eps ** 2
        base = np.where((rho > 0.0) | at_least_two, rho, np.inf)
        yield axes, rho, op.weights[j] * base ** power


def flux_reference(op: LerayLionsOperator, xi) -> np.ndarray:
    """`eval_flux` over `blocks_reference`, into a C-ordered array."""
    xi = np.asarray(xi, dtype=float)
    out = np.empty(xi.shape)
    for axes, _, c in blocks_reference(op, xi):
        out[..., axes] = c[..., None] * xi[..., axes]
    return out


def point_reference(mesh: Mesh, op: LerayLionsOperator, vals) -> tuple:
    """`elliptic._point` from the references above."""
    gv = gradient_reference(mesh, vals)
    return element_means_reference(mesh, vals), gv, flux_reference(op, gv)


def energy_terms_reference(problem: EllipticProblem, point) -> list:
    """`elliptic._energy_terms` with the density a . grad v by `einsum`."""
    mesh = problem.mesh
    vb, gv, flux = point
    vbp = np.maximum(vb, 0.0)
    dens = np.einsum("...d,...d->...", flux, gv)
    terms = [problem.lam * (mesh.measures * dens / problem.op.exponent.values).sum(axis=-1)]
    for term in problem.terms:
        terms.append((mesh.measures * term.c * vbp ** term.r).sum(axis=-1) / term.r)
    if problem.load is not None:
        terms.append(-(mesh.measures * problem.load * vb).sum(axis=-1))
    return terms


def gradient_values_reference(problem: EllipticProblem, point) -> np.ndarray:
    """`elliptic._gradient_values` with a . grad phi_l by `einsum` and
    element-major corner terms."""
    mesh = problem.mesh
    nloc = mesh.elements.shape[1]
    vb, _, flux = point
    vbp = np.maximum(vb, 0.0)
    dens = np.zeros(mesh.n_elements)
    for term in problem.terms:
        dens += term.c * _power(vbp, term.r - 1.0, vbp.min() > 0.0)
    if problem.load is not None:
        dens -= problem.load
    contrib = (mesh.measures * dens)[:, None] / nloc
    contrib = contrib + problem.lam * mesh.measures[:, None] * np.einsum(
        "ed,eld->el", flux, element_grads(mesh))
    grad = np.bincount(mesh.elements.ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_vertices)
    grad[mesh.boundary_mask] = 0.0
    return grad


def hessian_band_reference(problem: EllipticProblem, point,
                           include_concave: bool) -> np.ndarray:
    """`elliptic._hessian_matrix` with `einsum` products, numpy's sums over
    block axes and the rank-one weights `repeat`ed per corner, over
    element-major corner terms, added at the band places of each pair's
    vertices in pair order (`np.add.at`), not through `BandScatter.index`."""
    mesh, op = problem.mesh, problem.op
    scatter = mesh.band_scatter
    nloc = mesh.elements.shape[1]
    vb, gv, _ = point
    scale = float(np.sqrt(np.einsum("ed,ed->e", gv, gv).max()))
    eps = HESSIAN_EPS * (scale if scale > HESSIAN_SCALE_FLOOR else 1.0)
    vbp = np.maximum(vb, 0.0)
    dd = np.zeros(mesh.n_elements)
    for term in problem.terms:
        if include_concave or term.c.min() >= 0.0:
            dd += (term.r - 1.0) * term.c * _power(vbp, term.r - 2.0, vbp.min() > 0.0)
    element = scatter.element
    # the pairs' corners in an element-major (element, l) array
    first, second = scatter.rows % mesh.n_elements * nloc + scatter.rows // mesh.n_elements
    pairs = (mesh.measures * dd / nloc ** 2).take(element)
    weight = problem.lam * mesh.measures
    for axes, rho, c in blocks_reference(op, gv, eps):
        c2 = (op.exponent.values - 2.0) * np.divide(c, rho, out=np.zeros_like(rho),
                                                    where=rho > 0.0)
        s = np.einsum("eld,ed->el", element_grads(mesh)[..., axes], gv[:, axes]).ravel()
        pairs += (weight * c).take(element) * scatter.products[axes].sum(axis=0)
        pairs += ((weight * c2).repeat(nloc) * s).take(first) * s.take(second)
    # each pair at (kd + i - j, j), from its own vertices' interior positions
    kd = scatter.shape[0] - 1
    pos = np.cumsum(~mesh.boundary_mask) - 1
    i, j = pos[mesh.elements[element, scatter.rows // mesh.n_elements]]
    band = np.zeros((kd + 1, mesh.interior.size))
    np.add.at(band, (kd + i - j, j), pairs)
    return band


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


def diagnose_per_step(traj: Trajectory):
    """`evolution.diagnose` one solved step at a time: each step's h^n, element
    state, norms and stationary energy terms from its own 1-D arrays."""
    setup = traj.setup
    mesh, op, q, dt, source = setup.mesh, setup.op, setup.q, setup.dt, setup.source
    point = _point(mesh, op, traj.fields[0].values)
    mod0 = float(_energy_terms(EllipticProblem(mesh, op), point)[0])
    vbq = np.maximum(point.means, 0.0) ** q
    diagnostics = []
    inc_sq_sum = budget_sum = 0.0
    worst_margin = np.inf
    for n, (v, report) in enumerate(zip(traj.fields[1:], traj.reports), 1):
        if not report.repeated:
            h_n = average_potential(setup.potential, np.array([n]), dt)[0]
            point = _point(mesh, op, v.values)
            vb = np.maximum(point.means, 0.0)
            vbq, vbq_prev = vb ** q, vbq
            inc = l2_norm_values(mesh, vbq - vbq_prev) / dt
            f_sq = 0.0
            if source is not None:
                fv = eval_source(source, vb)
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
    fields = [DiscreteField(f.mesh, np.maximum(f.values, 0.0) ** traj.setup.q)
              for f in traj.fields]
    return Trajectory(times=traj.times, fields=fields, reports=traj.reports,
                      setup=traj.setup)


def positive_part_norm(u: DiscreteField, v: DiscreteField, power: float) -> float:
    """L2 norm of (u^power - v^power)^+, from the element means
    `l2_norm_diff_power` reads."""
    diff = _mean_powers(u.mesh, u.values, power) - _mean_powers(v.mesh, v.values, power)
    return l2_norm_values(u.mesh, np.maximum(diff, 0.0))


def time_integral_norm_per_step(mesh: Mesh, h, g, dt: float, n_steps: int):
    """`evolution.time_integral_norm` one step, Gauss node and form at a
    time: column 0 integrates ||h - g||, column 1 ||(h - g)^+||."""
    nodes, weights = np.polynomial.legendre.leggauss(5)
    out = np.zeros((n_steps + 1, 2))
    for form, positive in enumerate((False, True)):
        for n in range(1, n_steps + 1):
            ts = (n - 1) * dt + (nodes + 1.0) * dt / 2.0
            val = 0.0
            for t, w in zip(ts, weights):
                diff = h(t) - g(t)
                if positive:
                    diff = np.maximum(diff, 0.0)
                val += w * l2_norm_values(mesh, diff)
            out[n, form] = out[n - 1, form] + val * dt / 2.0
    return out


def contraction_ratio(mesh, op, q, lam, source, h1, h2) -> float:
    """lhs/rhs of the one-sided contraction for a refinement study."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    v1, v2 = _solve_pair(mesh, op, q, lam, source, h1, h2)
    lhs = positive_part_norm(v1, v2, q)
    rhs = l2_norm_values(mesh, np.maximum(h1 - h2, 0.0))
    return lhs / rhs if rhs > 0 else 0.0


def contraction_elliptic_per_orientation(mesh, op, q, lam, source, h1, h2):
    """`checks.check_contraction_elliptic` one orientation at a time, each
    difference formed in its own order."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    v1, v2 = _solve_pair(mesh, op, q, lam, source, h1, h2)
    margins, ordered_ok = [], True
    for a, b, ha, hb in ((v1, v2, h1, h2), (v2, v1, h2, h1)):
        rhs = l2_norm_values(mesh, np.maximum(ha - hb, 0.0))
        margins.append(checks.CONTRACTION_SLACK * rhs - positive_part_norm(a, b, q))
        if np.all(ha <= hb):
            ordered_ok = ordered_ok and bool(np.all(a.values <= b.values
                                                    + checks.ORDERING_SLACK))
    return _report("contraction-elliptic", 2, margins, ("h1 vs h2", "h2 vs h1").__getitem__,
                   slack=checks.CONTRACTION_SLACK, extra_pass=ordered_ok)


def sandwich_per_step(traj: Trajectory, sub: DiscreteField, sup: DiscreteField):
    """`checks.check_sandwich` one stored time at a time."""
    margins, locs = [], []
    for t, field in zip(traj.times, traj.fields):
        v = field.values
        lo = float(np.min(v - sub.values)) + checks.ORDERING_SLACK
        hi = float(np.min(sup.values - v)) + checks.ORDERING_SLACK
        margins.extend([lo, hi])
        locs.extend([f"t={t:.6g} lower", f"t={t:.6g} upper"])
    return _report("sandwich", len(margins), margins, locs.__getitem__,
                   slack=checks.ORDERING_SLACK)


def monotone_run_per_step(traj: Trajectory, direction: str):
    """`checks.check_monotone_run` one step at a time."""
    sign = 1.0 if direction == "nondecreasing" else -1.0
    margins, locs = [], []
    for n in range(1, len(traj.fields)):
        diff = sign * (traj.fields[n].values - traj.fields[n - 1].values)
        margins.append(float(np.min(diff)) + checks.ORDERING_SLACK)
        locs.append(f"step {n}")
    return _report(f"monotone-{direction}", len(margins), margins, locs.__getitem__,
                   slack=checks.ORDERING_SLACK)


def contraction_parabolic_per_step(traj1: Trajectory, traj2: Trajectory):
    """`checks.check_contraction_parabolic` one stored time at a time, each
    norm from its own `l2_norm_diff_power` or `positive_part_norm` call and
    the data integrals of the runs' own potentials h and g from
    `time_integral_norm_per_step`."""
    s1, s2 = traj1.setup, traj2.setup
    mesh, q = s1.mesh, s1.q
    cum = time_integral_norm_per_step(mesh, s1.potential, s2.potential, s1.dt,
                                      len(traj1.times) - 1)
    base_plain = l2_norm_diff_power(traj1.fields[0], traj2.fields[0], q)
    base_pos = positive_part_norm(traj1.fields[0], traj2.fields[0], q)
    margins, locs = [], []
    for n, (v, w) in enumerate(zip(traj1.fields, traj2.fields, strict=True)):
        lhs = l2_norm_diff_power(v, w, q)
        margins.append(checks.CONTRACTION_SLACK * (base_plain + cum[n, 0])
                       + 1e-12 - lhs)
        locs.append(f"t={traj1.times[n]:.6g} (plain)")
        lhs_p = positive_part_norm(v, w, q)
        margins.append(checks.CONTRACTION_SLACK * (base_pos + cum[n, 1])
                       + 1e-12 - lhs_p)
        locs.append(f"t={traj1.times[n]:.6g} (positive part)")
    return _report("contraction-parabolic", len(margins), margins, locs.__getitem__,
                   slack=checks.CONTRACTION_SLACK)


def stabilization_per_step(traj: Trajectory, v_stat: DiscreteField):
    """`checks.check_stabilization` with one `l2_norm_diff_power` call per
    stored time."""
    burn_in = (len(traj.times) - 1) // 5
    errs = np.array([l2_norm_diff_power(field, v_stat, traj.setup.q)
                     for field in traj.fields])
    tail = errs[burn_in:]
    margins, locs = [], []
    if tail.size > 1:
        growth = (tail[1:] - tail[:-1] * (1.0 + checks.STABILIZATION_GROWTH)
                  - 1e-13)
        margins.append(float(-np.max(growth)))
        locs.append("r=2.0 monotone tail")
    margins.append(checks.STABILIZATION_THRESHOLD - float(errs[-1]))
    locs.append(f"r=2.0 final error {errs[-1]:.3g}")
    return _report("stabilization", len(margins), margins, locs.__getitem__,
                   slack=checks.STABILIZATION_GROWTH)


def rectangle_elements_reference(nx: int, ny: int) -> np.ndarray:
    """`rectangle_mesh`'s element table cell by cell, in row-major cell
    order: two triangles per cell, split by `_cell_flipped`."""

    def vid(i, j):
        return i * (ny + 1) + j

    elements = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if _cell_flipped(i, j, nx, ny):
                elements += [(v00, v10, v01), (v10, v11, v01)]
            else:
                elements += [(v00, v10, v11), (v00, v11, v01)]
    return np.array(elements)


def eval_at_points(field: DiscreteField, points: np.ndarray) -> np.ndarray:
    """Evaluate the P1 interpolant at arbitrary interior points (structured meshes)."""
    mesh = field.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.dimension == 1:
        return np.interp(pts[:, 0], mesh.vertices[:, 0], field.values)
    (x0, x1), (y0, y1) = mesh.bounds
    nx, ny = mesh.resolution
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    i = np.clip(((pts[:, 0] - x0) / hx).astype(int), 0, nx - 1)
    j = np.clip(((pts[:, 1] - y0) / hy).astype(int), 0, ny - 1)
    sx = (pts[:, 0] - x0) / hx - i
    sy = (pts[:, 1] - y0) / hy - j
    stride = ny + 1
    v00 = field.values[i * stride + j]
    v10 = field.values[(i + 1) * stride + j]
    v01 = field.values[i * stride + j + 1]
    v11 = field.values[(i + 1) * stride + j + 1]
    flipped = _cell_flipped(i, j, nx, ny)
    plain = np.where(sx >= sy,  # triangle (v00, v10, v11) else (v00, v11, v01)
                     v00 * (1.0 - sx) + v10 * (sx - sy) + v11 * sy,
                     v00 * (1.0 - sy) + v11 * sx + v01 * (sy - sx))
    flip = np.where(sx + sy <= 1.0,  # triangle (v00, v10, v01) else (v10, v11, v01)
                    v00 * (1.0 - sx - sy) + v10 * sx + v01 * sy,
                    v10 * (1.0 - sy) + v11 * (sx + sy - 1.0) + v01 * (1.0 - sx))
    return np.where(flipped, flip, plain)


def hopf_probe_quotients(field: DiscreteField) -> np.ndarray:
    """The boundary difference quotients of `checks.check_positivity_hopf`,
    in its probe order, each probe evaluated by `eval_at_points`."""
    mesh = field.mesh
    off = 2.0 * mesh.spacing
    if mesh.dimension == 1:
        (a, b), = mesh.bounds
        probes = [[a + off], [b - off]]
    else:
        (x0, x1), (y0, y1) = mesh.bounds
        nx, ny = mesh.resolution
        hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
        cells = checks.HOPF_CORNER_CELLS
        probes = ([[x0 + i * hx, y] for i in range(cells, nx - cells + 1)
                   for y in (y0 + off, y1 - off)]
                  + [[x, y0 + j * hy] for j in range(cells, ny - cells + 1)
                     for x in (x0 + off, x1 - off)])
    return eval_at_points(field, np.array(probes).reshape(-1, mesh.dimension)) / off


# The mesh extents as the flat (a, b) or (x0, x1, y0, y1) tuple, and the
# per-dimension formulas that read it: the references for the library's
# readers of `Mesh.bounds`, one (lo, hi) pair per axis.

def flat_bounds(mesh: Mesh) -> tuple:
    return tuple(b for pair in mesh.bounds for b in pair)


def spacing_reference(mesh: Mesh) -> float:
    bounds = flat_bounds(mesh)
    if mesh.dimension == 1:
        return (bounds[1] - bounds[0]) / mesh.resolution[0]
    hx = (bounds[1] - bounds[0]) / mesh.resolution[0]
    hy = (bounds[3] - bounds[2]) / mesh.resolution[1]
    return max(hx, hy)


def boundary_distance_reference(mesh: Mesh) -> np.ndarray:
    points = mesh.barycenters
    if mesh.dimension == 1:
        a, b = flat_bounds(mesh)
        return np.minimum(points[:, 0] - a, b - points[:, 0])
    x0, x1, y0, y1 = flat_bounds(mesh)
    return np.minimum.reduce([points[:, 0] - x0, x1 - points[:, 0],
                              points[:, 1] - y0, y1 - points[:, 1]])


def function_library_reference(mesh: Mesh):
    """`checks.function_library` with a branch per dimension: the 1D
    profiles, or a double loop over them for the 2D tensor products."""
    pts = mesh.barycenters
    out = []
    if mesh.dimension == 1:
        a, b = flat_bounds(mesh)
        s = (pts[:, 0] - a) / (b - a)
        for fv, fg, name in checks._PROFILES:
            out.append({"name": name, "values": fv(s),
                        "grads": (fg(s) / (b - a))[:, None]})
    else:
        x0, x1, y0, y1 = flat_bounds(mesh)
        sx = (pts[:, 0] - x0) / (x1 - x0)
        sy = (pts[:, 1] - y0) / (y1 - y0)
        for fv1, fg1, n1 in checks._PROFILES:
            for fv2, fg2, n2 in checks._PROFILES:
                u1, d1 = fv1(sx), fg1(sx) / (x1 - x0)
                u2, d2 = fv2(sy), fg2(sy) / (y1 - y0)
                out.append({"name": f"{n1}*{n2}", "values": u1 * u2,
                            "grads": np.stack([d1 * u2, u1 * d2], axis=1)})
    return out


def pure_load_solution(mesh: Mesh, op: LerayLionsOperator, lam: float) -> np.ndarray:
    """Nodal values of the exact discrete minimizer of the 1D pure-load
    problem -(a(x, w'))' = lam, w = 0 at both ends, on `interval_mesh` with a
    single-block operator, a = g |w'|^(p-2) w' per element.  Each interior
    nodal equation makes the fluxes of its two elements differ by lam h, so
    a_e = C - lam mid_e and w'_e = sign(a_e) (|a_e| / g_e)^(1/(p_e - 1)); C
    is the root of sum_e h w'_e = 0, monotone in C, which is lam times the
    interval's midpoint for constant p and weight.  The nodal values are the
    cumulative sums of h w'_e."""
    h, mid = mesh.measures, mesh.barycenters[:, 0]
    p, g = op.exponent.values, op.weights[0]

    def slopes(c):
        a = c - lam * mid
        return np.sign(a) * (np.abs(a) / g) ** (1.0 / (p - 1.0))

    (lo, hi), = mesh.bounds
    if op.exponent.is_constant and np.all(g == g[0]):
        c = lam * (lo + hi) / 2.0
    else:
        c = brentq(lambda c: float(np.sum(h * slopes(c))), lam * lo, lam * hi,
                   xtol=1e-300)
    return np.concatenate([[0.0], np.cumsum(h * slopes(c))])
