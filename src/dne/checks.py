"""Named, machine-runnable checks for every estimate the solver is built on.

Each check enumerates or solves, measures one array of signed
margins over its locations (>= 0 means the inequality holds with room) and
returns the CheckReport that `_report` builds from it: the worst margin and
where it lies.  No check draws its locations: `alg-inequality` takes a fixed
grid of ratios, `picone` every library pair at every quadrature point, and
`picone-pair` the fixed field pairs of `pair_fields` in one pass.  A check on
a run reads the run once, as one array with a leading axis of stored times:
nodal values for the ordering checks, and (v+)^q element means, normed row
by row, for the norm checks.  The two contraction checks take both of their
forms from one difference: the plain norm and that of its positive part, or
the positive parts of d and -d for the two orientations.  Slacks are named
constants.  That refinement improves the margins they cover is untested: on
`default_1d` refined from 25 to 400 elements, 8 of the 11 margins of the
default suite do not move, each sitting at a slack or a grid edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import EllipticProblem, solve
from .evolution import EvolutionSetup, Trajectory, time_integral_norm
from .meshing import DiscreteField, Mesh, _mean_powers, l2_norm_values
from .operators import LerayLionsOperator, eval_A, eval_flux

CONTRACTION_SLACK = 1.02          # multiplicative, discrete contraction checks
ORDERING_SLACK = 1e-8             # additive, nodal comparison checks
LAMBDA_ORDERING_SLACK = 1e-10     # additive, nodal monotonicity in lambda
PARABOLIC_FLOOR = 1e-12           # additive, parabolic contraction margins
STABILIZATION_FLOOR = 1e-13       # absolute per-step growth allowed after burn-in
PICONE_PAIR_SLACK = 1e-10         # relative, integrated two-function sum
PICONE_SLACK = 1e-12              # relative, pointwise Picone margin
ALG_GRID = 10 ** 5                # grid intervals of the power inequality's ratio
PICONE_PAIRS = 8                  # field pairs of the two-function Picone check
STABILIZATION_GROWTH = 1e-6       # relative per-step growth allowed after burn-in
STABILIZATION_THRESHOLD = 1e-3    # largest final L2 distance to the stationary state
HOPF_FLOOR = 1e-6                 # smallest admissible boundary difference quotient
HOPF_CORNER_CELLS = 3             # rectangle cells per corner without Hopf probes
SLOPE_TOL = 0.02                  # allowed deviation of the fitted scaling slope


@dataclass
class CheckReport:
    check_name: str
    samples: int
    worst_margin: float
    location: str
    passed: bool
    slack: float = 0.0


def _report(name, samples, margins, locate, slack=0.0, extra_pass=True) -> CheckReport:
    """The report of margins over a check's locations, taken in flat order:
    the first smallest margin, and `locate(i)` of its flat index i."""
    margins = np.asarray(margins, dtype=float).ravel()
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return CheckReport(check_name=name, samples=int(samples), worst_margin=worst,
                       location=str(locate(i)), passed=bool(worst >= 0.0) and extra_pass,
                       slack=slack)


def _stack(traj: Trajectory) -> np.ndarray:
    """The nodal values of a run, one row per stored time."""
    return np.array([field.values for field in traj.fields])


# ---------------------------------------------------------------------------
# sample library for Picone-type checks: positive smooth functions with
# closed-form gradients, bounded away from zero on the closed domain.

# reference profiles on s in [0, 1]: (value, derivative, name), all positive
_PROFILES = [
    (lambda s: 0.5 + s * (1.0 - s), lambda s: 1.0 - 2.0 * s, "poly-bump"),
    (lambda s: 0.6 + 0.4 * np.sin(np.pi * s),
     lambda s: 0.4 * np.pi * np.cos(np.pi * s), "sine"),
    (lambda s: np.exp(-2.0 * (s - 0.3) ** 2),
     lambda s: -4.0 * (s - 0.3) * np.exp(-2.0 * (s - 0.3) ** 2), "gaussian"),
    (lambda s: 1.0 + 0.5 * s ** 2 * (1.0 - s),
     lambda s: 0.5 * (2.0 * s - 3.0 * s ** 2), "cubic"),
]


def function_library(mesh: Mesh):
    """Positive smooth test functions with closed-form gradients, evaluated at
    the quadrature points: the tensor products of the profiles over the axes,
    a single profile in 1D, each gradient component its axis's derivative
    times the other axes' values, in axis order."""
    s = [(mesh.barycenters[:, axis] - lo) / (hi - lo)
         for axis, (lo, hi) in enumerate(mesh.bounds)]
    out = []
    for profiles in itertools.product(_PROFILES, repeat=mesh.dimension):
        values = [fv(sa) for (fv, _, _), sa in zip(profiles, s)]
        slopes = [fg(sa) / (hi - lo)
                  for (_, fg, _), sa, (lo, hi) in zip(profiles, s, mesh.bounds)]
        grads = [math.prod(values[:axis] + [slopes[axis]] + values[axis + 1:])
                 for axis in range(mesh.dimension)]
        out.append({"name": "*".join(name for _, _, name in profiles),
                    "values": math.prod(values), "grads": np.stack(grads, axis=1)})
    return out


def pair_fields(mesh: Mesh):
    """PICONE_PAIRS pairs of fields for `picone-pair`, positive at the interior
    vertices and zero on the boundary: scale * (0.2 + |sin(pi s)| + 0.3 u),
    s the first coordinate scaled to [0, 1].  The u are the fixed sequence
    u_m = frac(m (sqrt(5) - 1)/2), m = 1, 2, ..., taken in blocks, one a
    field, fields in pair order: a field's scale is 0.5 + 1.5 u at the first u
    of its block, and the rest are its interior u."""
    interior, n_fields = mesh.interior, 2 * PICONE_PAIRS
    block = 1 + interior.size
    m = np.arange(1, n_fields * block + 1)
    u = np.modf(m * ((math.sqrt(5.0) - 1.0) / 2.0))[0].reshape(n_fields, block)
    lo, hi = mesh.bounds[0]
    base = np.abs(np.sin(np.pi * (mesh.vertices[interior, 0] - lo) / (hi - lo)))
    values = np.zeros((n_fields, mesh.n_vertices))
    values[:, interior] = (0.5 + 1.5 * u[:, :1]) * (0.2 + base + 0.3 * u[:, 1:])
    fields = [DiscreteField(mesh, v) for v in values]
    return list(zip(fields[::2], fields[1::2]))


def check_picone(mesh: Mesh, op: LerayLionsOperator, r: float) -> CheckReport:
    """Pointwise Picone bound on every (u, v) pair of the library at every
    quadrature point, L^2 n_elements samples for a library of L functions;
    for r > 1 and u/v nonconstant the integrated gap must be strictly
    positive (the pointwise gap is zero where grad log u = grad log v)."""
    if not (1.0 <= r < op.exponent.p_minus):
        raise ValueError("check_picone requires r in [1, p_-)")
    lib = function_library(mesh)
    margins, gaps = _picone_margins(op, r, lib, mesh.measures)
    # a pair u = v has equality, so only the others must show room
    failing = [] if r == 1.0 else np.flatnonzero((gaps <= 0.0) & ~np.eye(len(lib), dtype=bool))
    names = [(fu["name"], fv["name"]) for fu in lib for fv in lib]

    def locate(i):
        """The worst margin's pair, or the first pair that fails strictness,
        which the worst margin cannot show."""
        if len(failing):
            return "pair ({}, {}) integrated gap {:+.3e}".format(*names[failing[0]],
                                                                 gaps.flat[failing[0]])
        return "pair ({}, {})".format(*names[i // mesh.n_elements])

    return _report("picone", margins.size, margins, locate, slack=PICONE_SLACK,
                   extra_pass=not len(failing))


def _picone_margins(op: LerayLionsOperator, r: float, lib: list,
                    measures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """margins[pair, point] of the Picone bound

        a(x, grad u^(1/r)) . grad(v/u^((r-1)/r))
            <= A^(r/p)(x, grad v^(1/r)) * A^((p-r)/p)(x, grad u^(1/r)),

    pairs (u, v) in library order at every quadrature point, and gaps[u, v],
    each pair's rhs - lhs integrated with the element `measures`.  The v
    side's A^(r/p) is taken for every function at once, the u side's flux and
    powers one u at a time, each against every v in one pass."""
    p = op.exponent.values
    s = (r - 1.0) / r
    values = np.array([f["values"] for f in lib])     # (L, n_elements)
    grads = np.array([f["grads"] for f in lib])       # (L, n_elements, dim)
    # grad f^(1/r) from f and grad f
    roots = (1.0 / r) * values[..., None] ** (1.0 / r - 1.0) * grads
    v_bound = eval_A(op, roots) ** (r / p)
    axes = np.moveaxis(grads, -1, 0).copy()           # (dim, L, n_elements)
    margins = np.empty((len(lib),) + values.shape)
    gaps = np.empty((len(lib), len(lib)))
    for iu in range(len(lib)):
        flux = eval_flux(op, roots[iu])
        # A = a(x, xi) . xi, as `eval_A` forms it, from the one flux pass
        u_bound = np.sum(flux * roots[iu], axis=-1) ** ((p - r) / p)
        # a . grad(v/u^s), grad(v/u^s) = u^-s grad v - s v u^(-s-1) grad u,
        # for every v, axis by axis
        u_power, weight = values[iu] ** -s, s * (values * values[iu] ** (-s - 1.0))
        lhs = flux[:, 0] * (u_power * axes[0] - weight * axes[0, iu])
        for d in range(1, len(axes)):
            lhs = lhs + flux[:, d] * (u_power * axes[d] - weight * axes[d, iu])
        # rhs is never -0.0, so the sign of a zero lhs does not reach rhs - lhs
        rhs = v_bound * u_bound
        gap = rhs - lhs
        margins[iu] = gap + PICONE_SLACK * np.maximum(1.0, np.abs(rhs))
        gaps[iu] = (measures * gap).sum(-1)
    return margins.reshape(len(lib) ** 2, -1), gaps


def check_picone_pair(mesh: Mesh, op: LerayLionsOperator, r: float,
                      pairs: Sequence[tuple[DiscreteField, DiscreteField]]) -> CheckReport:
    """Integrated two-function inequality on interpolated quotient fields,
    for each pair (w1, w2) of strictly positive interior fields, all pairs in
    one pass: one margin a pair, and the worst pair is reported by its index."""
    if not (1.0 <= r < op.exponent.p_minus):
        raise ValueError("check_picone_pair requires r in [1, p_-)")
    w = np.array([[w1.values, w2.values] for w1, w2 in pairs])  # (pair, 2, n_vertices)
    if np.any(w[..., mesh.interior] <= 0.0):
        raise ValueError("check_picone_pair requires strictly positive interior fields")
    value, scale = picone_pair_integral(mesh, op, r, w[:, 0], w[:, 1])
    margins = value + PICONE_PAIR_SLACK * np.maximum(scale, 1e-300)
    return _report("picone-pair", len(pairs), margins,
                   lambda i: f"pair {i} integrated quotient sum", slack=PICONE_PAIR_SLACK)


def picone_pair_integral(mesh, op, r, w1, w2):
    """Quadrature of a(grad w1).grad((w1^r - w2^r)/w1^(r-1)) + (1 <-> 2) for
    nodal values of shape (..., n_vertices); returns (value, scale), each of
    shape (...), where scale sums the absolute contributions."""
    ii = mesh.interior

    def term(a, b):
        """a(grad a) . grad((a^r - b^r)/a^(r-1)) at every quadrature point."""
        quotient = np.zeros(a.shape)
        va, vb = a[..., ii], b[..., ii]
        quotient[..., ii] = (va ** r - vb ** r) / va ** (r - 1.0)
        flux = eval_flux(op, mesh.gradient_of(a))
        return np.sum(flux * mesh.gradient_of(quotient), axis=-1)

    t1, t2 = term(w1, w2), term(w2, w1)
    value = (mesh.measures * (t1 + t2)).sum(axis=-1)
    scale = (mesh.measures * (np.abs(t1) + np.abs(t2))).sum(axis=-1)
    return value, scale


def check_contraction_elliptic(setup: EvolutionSetup, lam, h1, h2) -> CheckReport:
    """Discrete one-sided contraction of the time-step problem in the potential:
    ||(v1^q - v2^q)^+||_L2 <= slack * ||(h1 - h2)^+||_L2, both orientations,
    each the positive part of one difference or of its negation; where the
    potentials are ordered, the solutions must be ordered the same way.  The
    problem is the setup's mesh, operator, q and source with weight lam, each
    solved from a cold start."""
    mesh, q = setup.mesh, setup.q
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    v1, v2 = [solve(EllipticProblem.standard(mesh, setup.op, q, lam, h, setup.source))[0]
              for h in (h1, h2)]
    dh = h1 - h2
    dv = _mean_powers(mesh, v1.values, q) - _mean_powers(mesh, v2.values, q)
    # ||(h1 - h2)^+||, ||(h2 - h1)^+||, ||(v1^q - v2^q)^+||, ||(v2^q - v1^q)^+||:
    # b - a is exactly -(a - b), so each orientation negates one difference
    norms = np.array(l2_norm_values(mesh, np.maximum([dh, -dh, dv, -dv], 0.0)))
    margins = CONTRACTION_SLACK * norms[:2] - norms[2:]
    ordered_ok = all(np.all(va.values <= vb.values + ORDERING_SLACK)
                     for va, vb, ha, hb in ((v1, v2, h1, h2), (v2, v1, h2, h1))
                     if np.all(ha <= hb))
    return _report("contraction-elliptic", 2, margins, ("h1 vs h2", "h2 vs h1").__getitem__,
                   slack=CONTRACTION_SLACK, extra_pass=ordered_ok)


def check_contraction_parabolic(traj1: Trajectory, traj2: Trajectory) -> CheckReport:
    """Discrete analogues of the two-trajectory contraction, plain and
    positive-part form, at every step: traj1 runs under its potential h and
    traj2 under its g, and the data term integrates ||h - g||.  Both runs
    must share their mesh, q, dt and time grid."""
    s1, s2 = traj1.setup, traj2.setup
    if s1.mesh is not s2.mesh:
        raise ValueError("trajectories live on different meshes")
    if s1.q != s2.q or s1.dt != s2.dt or not np.array_equal(traj1.times, traj2.times):
        raise ValueError("trajectories were run with different schemes")
    mesh, q = s1.mesh, s1.q
    diff = _mean_powers(mesh, _stack(traj1), q) - _mean_powers(mesh, _stack(traj2), q)
    # lhs[n, form] and margins[n, form], form 0 plain and 1 positive part
    lhs = np.array(l2_norm_values(mesh, [diff, np.maximum(diff, 0.0)])).T
    cum = time_integral_norm(mesh, s1.potential, s2.potential, s1.dt, len(traj1.times) - 1)
    margins = CONTRACTION_SLACK * (lhs[0] + cum) + PARABOLIC_FLOOR - lhs
    return _report("contraction-parabolic", margins.size, margins,
                   lambda i: f"t={traj1.times[i // 2]:.6g} "
                             f"({('plain', 'positive part')[i % 2]})",
                   slack=CONTRACTION_SLACK)


def check_sandwich(traj: Trajectory, sub: DiscreteField,
                   sup: DiscreteField) -> CheckReport:
    """Nodal bracketing w_lower <= v_n <= w_upper along the whole run."""
    values = _stack(traj)
    # margins[n, side], side 0 lower and 1 upper
    margins = np.stack([(values - sub.values).min(axis=1),
                        (sup.values - values).min(axis=1)], axis=1) + ORDERING_SLACK
    return _report("sandwich", margins.size, margins,
                   lambda i: f"t={traj.times[i // 2]:.6g} {('lower', 'upper')[i % 2]}",
                   slack=ORDERING_SLACK)


def check_monotone_run(traj: Trajectory, direction: str) -> CheckReport:
    """Runs started at the subsolution must be nodally nondecreasing in n,
    runs started at the supersolution nonincreasing."""
    sign = 1.0 if direction == "nondecreasing" else -1.0
    margins = (sign * np.diff(_stack(traj), axis=0)).min(axis=1) + ORDERING_SLACK
    return _report(f"monotone-{direction}", margins.size, margins,
                   lambda i: f"step {i + 1}", slack=ORDERING_SLACK)


def check_stabilization(traj: Trajectory, v_stat: DiscreteField) -> CheckReport:
    """Decay of ||v^q(t) - v_stat^q||_{L^2}: nonincreasing after a burn-in of
    the first fifth of the steps, and below STABILIZATION_THRESHOLD at the
    final time."""
    mesh, q = v_stat.mesh, traj.setup.q
    if traj.setup.mesh is not mesh:
        raise ValueError("fields live on different meshes")
    burn_in = (len(traj.times) - 1) // 5
    errs = np.array(l2_norm_values(mesh, _mean_powers(mesh, _stack(traj), q)
                                   - _mean_powers(mesh, v_stat.values, q)))
    tail = errs[burn_in:]
    margins, locs = [], []
    if tail.size > 1:
        # the absolute term guards the comparison once e(t) sits at the
        # solver-noise floor, where relative slack alone is meaningless
        growth = tail[1:] - tail[:-1] * (1.0 + STABILIZATION_GROWTH) - STABILIZATION_FLOOR
        margins.append(float(-np.max(growth)))
        locs.append("r=2.0 monotone tail")
    margins.append(STABILIZATION_THRESHOLD - float(errs[-1]))
    locs.append(f"r=2.0 final error {errs[-1]:.3g}")
    return _report("stabilization", len(margins), margins, locs.__getitem__,
                   slack=STABILIZATION_GROWTH)


def check_lambda_scaling(mesh, op, lambdas: Sequence[float]) -> CheckReport:
    """Sup-norm power law ||w_lambda||_inf ~ lambda^(1/(p-1)) for constant p,
    plus nodal monotonicity in lambda."""
    if len(lambdas) < 3:
        raise ValueError("need at least three lambdas to fit a slope")
    if not op.exponent.is_constant:
        raise ValueError("the power law is exact only for constant exponents")
    if not all(lam > 0.0 for lam in lambdas):
        raise ValueError("lambda must be positive")
    p = op.exponent.p_minus
    sols = [solve(EllipticProblem(mesh, op, load=np.full(mesh.n_elements, float(lam))))[0]
            for lam in lambdas]
    sups = np.array([s.sup_norm for s in sols])
    slope = float(np.polyfit(np.log(lambdas), np.log(sups), 1)[0])
    monotone = np.diff([s.values for s in sols], axis=0).min(axis=1) + LAMBDA_ORDERING_SLACK
    margins = np.concatenate([[SLOPE_TOL - abs(slope - 1.0 / (p - 1.0))], monotone])
    return _report("lambda-scaling", len(lambdas), margins,
                   lambda i: (f"monotonicity {lambdas[i - 1]} -> {lambdas[i]}" if i
                              else f"fitted slope {slope:.4f} vs {1.0 / (p - 1.0):.4f}"),
                   slack=SLOPE_TOL)


def check_positivity_hopf(field: DiscreteField) -> CheckReport:
    """Interior positivity plus a one-sided boundary difference quotient at
    offset 2 * spacing; rectangle corners are excluded by a cell band.  A
    rectangle's probes lie on its grid lines, whose segments are triangle
    edges, so the P1 field is read there by linear interpolation along the
    line."""
    mesh = field.mesh
    off = 2.0 * mesh.spacing
    if mesh.dimension == 1:
        (a, b), = mesh.bounds
        probes = np.interp([a + off, b - off], mesh.vertices[:, 0], field.values)
    else:
        (x0, x1), (y0, y1) = mesh.bounds
        nx, ny = mesh.resolution
        grid = field.values.reshape(nx + 1, ny + 1)  # [i, j] at (xs[i], ys[j])
        xs, ys = mesh.vertices[::ny + 1, 0], mesh.vertices[:ny + 1, 1]
        # near the bottom and top edge of each inner vertical line, then near
        # the left and right edge of each inner horizontal line
        probes = np.ravel(
            [np.interp([y0 + off, y1 - off], ys, grid[i])
             for i in range(HOPF_CORNER_CELLS, nx - HOPF_CORNER_CELLS + 1)]
            + [np.interp([x0 + off, x1 - off], xs, grid[:, j])
               for j in range(HOPF_CORNER_CELLS, ny - HOPF_CORNER_CELLS + 1)])
    quot = probes / off
    margins = np.concatenate([[np.min(field.values[mesh.interior])], quot - HOPF_FLOOR])
    return _report("positivity-hopf", margins.size, margins,
                   lambda i: (f"boundary probe {i - 1} quotient {quot[i - 1]:.4g}"
                              if i else "interior minimum"),
                   slack=HOPF_FLOOR)


def check_alg_inequality(q: float) -> CheckReport:
    """|a - b|^(2q) <= (a^q - b^q)^2 for a >= b >= 0 and q > 1.  Both sides
    are homogeneous of degree 2q, so a = 1 and s = b/a in [0, 1] cover every
    pair: the margins (1 - s^q)^2 - (1 - s)^(2q), with no slack, on the open
    grid s = k/ALG_GRID, k = 1 .. ALG_GRID - 1.  Its two ends are excluded,
    since both are exact equalities: s = 0 is b = 0, and s = 1 is a = b."""
    if q <= 1.0:
        raise ValueError("the power inequality needs q > 1")
    s = np.arange(1, ALG_GRID) / ALG_GRID
    margins = (1.0 - s ** q) ** 2 - (1.0 - s) ** (2.0 * q)
    return _report("alg-inequality", s.size, margins,
                   lambda i: f"s = b/a = {s[i]:.6g}, equalities s = 0, 1 excluded")
