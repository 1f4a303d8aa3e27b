"""Named, machine-runnable checks for every estimate the solver is built on.

Each check samples or solves, measures a signed margin (>= 0 means the
inequality holds with room), and returns a CheckReport.  Slacks are named
constants; refinement is expected to improve every margin they cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import EllipticProblem, bump_seed, solve, solve_lambda_problem
from .evolution import Trajectory, time_integral_norm
from .meshing import (DiscreteField, Mesh, eval_at_points, gradient,
                      l2_norm_diff_power, l2_norm_values)
from .operators import (LerayLionsOperator, PotentialField, eval_flux,
                        picone_gap, seeded_rng)

CONTRACTION_SLACK = 1.02          # multiplicative, discrete contraction checks
ORDERING_SLACK = 1e-8             # additive, nodal comparison checks
PICONE_PAIR_SLACK = 1e-10         # relative, integrated two-function sum
PICONE_SLACK = 1e-12              # relative, pointwise Picone margin
ALG_SLACK = 1e-14                 # absolute, scalar power inequality
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


def _report(name, samples, margins, locations, slack=0.0, extra_pass=True) -> CheckReport:
    margins = np.asarray(margins, dtype=float)
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return CheckReport(check_name=name, samples=int(samples), worst_margin=worst,
                       location=str(locations[i]), passed=bool(worst >= 0.0) and extra_pass,
                       slack=slack)


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
    the quadrature points: 1D profiles or tensor products of them in 2D."""
    pts = mesh.barycenters
    out = []
    if mesh.dimension == 1:
        a, b = mesh.bounds
        s = (pts[:, 0] - a) / (b - a)
        for fv, fg, name in _PROFILES:
            out.append({"name": name, "values": fv(s),
                        "grads": (fg(s) / (b - a))[:, None]})
    else:
        x0, x1, y0, y1 = mesh.bounds
        sx = (pts[:, 0] - x0) / (x1 - x0)
        sy = (pts[:, 1] - y0) / (y1 - y0)
        for fv1, fg1, n1 in _PROFILES:
            for fv2, fg2, n2 in _PROFILES:
                u1, d1 = fv1(sx), fg1(sx) / (x1 - x0)
                u2, d2 = fv2(sy), fg2(sy) / (y1 - y0)
                out.append({"name": f"{n1}*{n2}", "values": u1 * u2,
                            "grads": np.stack([d1 * u2, u1 * d2], axis=1)})
    return out


def check_picone(mesh: Mesh, op: LerayLionsOperator, r: float,
                 sample_count: int = 10 ** 5, seed: int = 0) -> CheckReport:
    """Pointwise Picone bound on consistent (u, v) pairs from the library; for
    r > 1 and u/v nonconstant the margin must be strictly positive."""
    if not (1.0 <= r < op.exponent.p_minus):
        raise ValueError("check_picone requires r in [1, p_-)")
    rng = seeded_rng(seed, "picone")
    lib = function_library(mesh)
    worst = np.inf
    worst_loc = ""
    strict_ok = True
    n_done = 0
    per_pair = max(1, sample_count // (len(lib) ** 2))
    for iu, fu in enumerate(lib):
        for iv, fv in enumerate(lib):
            ks = rng.integers(0, mesh.n_elements, size=per_pair)
            u, gu = fu["values"][ks], fu["grads"][ks]
            v, gv = fv["values"][ks], fv["grads"][ks]
            grad_u_root = (1.0 / r) * u[:, None] ** (1.0 / r - 1.0) * gu
            grad_v_root = (1.0 / r) * v[:, None] ** (1.0 / r - 1.0) * gv
            ratio_grad = (u[:, None] ** (-(r - 1.0) / r) * gv
                          - ((r - 1.0) / r) * (v * u ** (-(r - 1.0) / r - 1.0))[:, None] * gu)
            lhs, rhs = picone_gap(op, ks, grad_u_root, grad_v_root, ratio_grad, r)
            margins = rhs - lhs + PICONE_SLACK * np.maximum(1.0, np.abs(rhs))
            m = float(np.min(margins))
            if m < worst:
                worst, worst_loc = m, f"pair ({fu['name']}, {fv['name']})"
            if r > 1.0 and iu != iv and np.min(rhs - lhs) <= 0.0:
                strict_ok = False
            n_done += per_pair
    return CheckReport("picone", n_done, worst, worst_loc,
                       passed=bool(worst >= 0.0 and strict_ok), slack=PICONE_SLACK)


def check_picone_pair(mesh: Mesh, op: LerayLionsOperator, r: float,
                  w1: DiscreteField, w2: DiscreteField) -> CheckReport:
    """Integrated two-function inequality on interpolated quotient fields."""
    if not (1.0 <= r < op.exponent.p_minus):
        raise ValueError("check_picone_pair requires r in [1, p_-)")
    for w in (w1, w2):
        if np.any(w.values[mesh.interior] <= 0.0):
            raise ValueError("check_picone_pair requires strictly positive interior fields")
    value, scale = picone_pair_integral(mesh, op, r, w1, w2)
    margin = value + PICONE_PAIR_SLACK * max(scale, 1e-300)
    return CheckReport("picone-pair", mesh.n_elements, float(margin),
                       "integrated quotient sum", passed=bool(margin >= 0.0),
                       slack=PICONE_PAIR_SLACK)


def picone_pair_integral(mesh, op, r, w1, w2):
    """Quadrature of a(grad w1).grad((w1^r - w2^r)/w1^(r-1)) + (1 <-> 2);
    returns (value, scale) where scale sums the absolute contributions."""

    def quotient(a: DiscreteField, b: DiscreteField) -> DiscreteField:
        vals = np.zeros(mesh.n_vertices)
        ii = mesh.interior
        va, vb_ = a.values[ii], b.values[ii]
        vals[ii] = (va ** r - vb_ ** r) / va ** (r - 1.0)
        return DiscreteField(mesh, vals)

    ks = np.arange(mesh.n_elements)
    t1 = np.sum(eval_flux(op, ks, gradient(w1)) * gradient(quotient(w1, w2)), axis=1)
    t2 = np.sum(eval_flux(op, ks, gradient(w2)) * gradient(quotient(w2, w1)), axis=1)
    value = float(np.sum(mesh.measures * (t1 + t2)))
    scale = float(np.sum(mesh.measures * (np.abs(t1) + np.abs(t2))))
    return value, scale


def _solve_pair(mesh, op, q, lam, source, h1, h2):
    """Time-step solutions for the two potentials, both from the bump seed."""
    return [solve(EllipticProblem.standard(mesh, op, q, lam, h, source),
                  bump_seed(mesh))[0] for h in (h1, h2)]


def check_contraction_elliptic(mesh, op, q, lam, source, h1, h2) -> CheckReport:
    """Discrete one-sided contraction of the time-step problem in the potential:
    ||(v1^q - v2^q)^+||_L2 <= slack * ||(h1 - h2)^+||_L2, both orientations."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    v1, v2 = _solve_pair(mesh, op, q, lam, source, h1, h2)
    margins, locs = [], []
    for (a, b, ha, hb, tag) in ((v1, v2, h1, h2, "h1 vs h2"),
                                (v2, v1, h2, h1, "h2 vs h1")):
        lhs = l2_norm_diff_power(a, b, q, positive_part=True)
        rhs = l2_norm_values(mesh, np.maximum(ha - hb, 0.0))
        margins.append(CONTRACTION_SLACK * rhs - lhs)
        locs.append(tag)
    ordered_ok = True
    if np.all(h1 <= h2):
        ordered_ok = bool(np.all(v1.values <= v2.values + ORDERING_SLACK))
    report = _report("contraction-elliptic", 2, margins, locs,
                     slack=CONTRACTION_SLACK, extra_pass=ordered_ok)
    return report


def check_contraction_parabolic(traj1: Trajectory, traj2: Trajectory,
                                h: PotentialField, g: PotentialField) -> CheckReport:
    """Discrete analogues of the two-trajectory contraction, plain and
    positive-part form, at every step."""
    if traj1.fields[0].mesh is not traj2.fields[0].mesh:
        raise ValueError("trajectories live on different meshes")
    if traj1.q != traj2.q or len(traj1.times) != len(traj2.times):
        raise ValueError("trajectories were run with different schemes")
    mesh = traj1.fields[0].mesh
    q = traj1.q
    n_steps = len(traj1.times) - 1
    t_end = float(traj1.times[-1])
    cum_plain = time_integral_norm(mesh, h, g, t_end, n_steps)
    cum_pos = time_integral_norm(mesh, h, g, t_end, n_steps, positive_part=True)
    base_plain = l2_norm_diff_power(traj1.fields[0], traj2.fields[0], q)
    base_pos = l2_norm_diff_power(traj1.fields[0], traj2.fields[0], q,
                                  positive_part=True)
    margins, locs = [], []
    for n, (v, w) in enumerate(zip(traj1.fields, traj2.fields, strict=True)):
        lhs = l2_norm_diff_power(v, w, q)
        rhs = base_plain + cum_plain[n]
        margins.append(CONTRACTION_SLACK * rhs + 1e-12 - lhs)
        locs.append(f"t={traj1.times[n]:.6g} (plain)")
        lhs_p = l2_norm_diff_power(v, w, q, positive_part=True)
        rhs_p = base_pos + cum_pos[n]
        margins.append(CONTRACTION_SLACK * rhs_p + 1e-12 - lhs_p)
        locs.append(f"t={traj1.times[n]:.6g} (positive part)")
    return _report("contraction-parabolic", len(margins), margins, locs,
                   slack=CONTRACTION_SLACK)


def check_sandwich(traj: Trajectory, sub: DiscreteField,
                   sup: DiscreteField) -> CheckReport:
    """Nodal bracketing w_lower <= v_n <= w_upper along the whole run."""
    margins, locs = [], []
    for t, field in zip(traj.times, traj.fields):
        v = field.values
        lo = float(np.min(v - sub.values)) + ORDERING_SLACK
        hi = float(np.min(sup.values - v)) + ORDERING_SLACK
        margins.extend([lo, hi])
        locs.extend([f"t={t:.6g} lower", f"t={t:.6g} upper"])
    return _report("sandwich", len(margins), margins, locs, slack=ORDERING_SLACK)


def check_monotone_run(traj: Trajectory, direction: str) -> CheckReport:
    """Runs started at the subsolution must be nodally nondecreasing in n,
    runs started at the supersolution nonincreasing."""
    sign = 1.0 if direction == "nondecreasing" else -1.0
    margins, locs = [], []
    for n in range(1, len(traj.fields)):
        diff = sign * (traj.fields[n].values - traj.fields[n - 1].values)
        margins.append(float(np.min(diff)) + ORDERING_SLACK)
        locs.append(f"step {n}")
    return _report(f"monotone-{direction}", len(margins), margins, locs,
                   slack=ORDERING_SLACK)


def check_stabilization(traj: Trajectory, v_stat: DiscreteField,
                        potential: PotentialField) -> CheckReport:
    """Decay of ||v^q(t) - v_stat^q||_{L^2}: nonincreasing after a burn-in of
    the first fifth of the steps, and below STABILIZATION_THRESHOLD at the
    final time."""
    if potential.limit is None:
        raise ValueError("stabilization requires the potential's large-time limit")
    burn_in = (len(traj.times) - 1) // 5
    errs = np.array([l2_norm_diff_power(field, v_stat, traj.q)
                     for field in traj.fields])
    tail = errs[burn_in:]
    margins, locs = [], []
    if tail.size > 1:
        # the 1e-13 absolute term guards the comparison once e(t) sits at
        # the solver-noise floor, where relative slack alone is meaningless
        growth = tail[1:] - tail[:-1] * (1.0 + STABILIZATION_GROWTH) - 1e-13
        margins.append(float(-np.max(growth)))
        locs.append("r=2.0 monotone tail")
    margins.append(STABILIZATION_THRESHOLD - float(errs[-1]))
    locs.append(f"r=2.0 final error {errs[-1]:.3g}")
    return _report("stabilization", len(margins), margins, locs,
                   slack=STABILIZATION_GROWTH)


def check_lambda_scaling(mesh, op, lambdas: Sequence[float]) -> CheckReport:
    """Sup-norm power law ||w_lambda||_inf ~ lambda^(1/(p-1)) for constant p,
    plus nodal monotonicity in lambda."""
    if len(lambdas) < 3:
        raise ValueError("need at least three lambdas to fit a slope")
    if not op.exponent.is_constant:
        raise ValueError("the power law is exact only for constant exponents")
    p = op.exponent.p_minus
    sols = [solve_lambda_problem(lam, mesh, op) for lam in lambdas]
    sups = np.array([s.sup_norm for s in sols])
    slope = float(np.polyfit(np.log(lambdas), np.log(sups), 1)[0])
    margins = [SLOPE_TOL - abs(slope - 1.0 / (p - 1.0))]
    locs = [f"fitted slope {slope:.4f} vs {1.0 / (p - 1.0):.4f}"]
    for i in range(len(sols) - 1):
        margins.append(float(np.min(sols[i + 1].values - sols[i].values)) + 1e-10)
        locs.append(f"monotonicity {lambdas[i]} -> {lambdas[i + 1]}")
    return _report("lambda-scaling", len(lambdas), margins, locs, slack=SLOPE_TOL)


def check_positivity_hopf(field: DiscreteField) -> CheckReport:
    """Interior positivity plus a one-sided boundary difference quotient at
    offset 2 * spacing; rectangle corners are excluded by a cell band."""
    mesh = field.mesh
    margins = [float(np.min(field.values[mesh.interior]))]
    locs = ["interior minimum"]
    off = 2.0 * mesh.spacing
    if mesh.dimension == 1:
        a, b = mesh.bounds
        probes = np.array([[a + off], [b - off]])
    else:
        x0, x1, y0, y1 = mesh.bounds
        nx, ny = mesh.resolution
        hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
        probes = []
        for i in range(HOPF_CORNER_CELLS, nx - HOPF_CORNER_CELLS + 1):
            xc = x0 + i * hx
            probes.extend([[xc, y0 + off], [xc, y1 - off]])
        for j in range(HOPF_CORNER_CELLS, ny - HOPF_CORNER_CELLS + 1):
            yc = y0 + j * hy
            probes.extend([[x0 + off, yc], [x1 - off, yc]])
        probes = np.array(probes).reshape(-1, 2)
    quot = eval_at_points(field, probes) / off
    for i, qv in enumerate(quot):
        margins.append(float(qv) - HOPF_FLOOR)
        locs.append(f"boundary probe {i} quotient {qv:.4g}")
    return _report("positivity-hopf", len(margins), margins, locs, slack=HOPF_FLOOR)


def check_alg_inequality(q: float, sample_count: int = 10 ** 5,
                         seed: int = 0) -> CheckReport:
    """|a - b|^(2q) <= (a^q - b^q)^2 for nonnegative pairs and q > 1."""
    if q <= 1.0:
        raise ValueError("the power inequality needs q > 1")
    rng = seeded_rng(seed, "alg-inequality")
    a = rng.uniform(0.0, 2.0, size=sample_count)
    b = rng.uniform(0.0, 2.0, size=sample_count)
    a[: sample_count // 100] = b[: sample_count // 100]        # equality edge
    b[sample_count // 100: sample_count // 50] = 0.0           # b = 0 edge
    margin = (a ** q - b ** q) ** 2 + ALG_SLACK - np.abs(a - b) ** (2.0 * q)
    i = int(np.argmin(margin))
    return CheckReport("alg-inequality", sample_count, float(margin[i]),
                       f"(a, b) = ({a[i]:.6g}, {b[i]:.6g})",
                       passed=bool(margin[i] >= 0.0), slack=ALG_SLACK)
