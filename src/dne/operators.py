"""Block-anisotropic p(x)-homogeneous operator algebra.

The energy density is A(x, xi) = sum_j g_j(x) * (sum_{i in P_j} xi_i^2)^(p(x)/2)
over a partition (P_j) of the coordinate axes, with weights g_j(x) >= c > 0.
Its flux a(x, xi) = (1/p(x)) * grad_xi A is evaluated in closed form, together
with the flux Jacobian and the pointwise inequalities the solver and the
verification harness rely on.

All evaluation functions broadcast: the point index `k` may be a scalar or an
integer array, `xi` an array of shape (..., N).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

ENVELOPE_TOL = 1e-12  # roundoff a potential may dip below its lower envelope


class ValidationError(ValueError):
    """A violated admissibility hypothesis, named by its tag (`(A_1)`, ...).
    Each value object raises it for the hypotheses on its own inputs."""

    def __init__(self, tag: str, message: str):
        super().__init__(f"[{tag}] {message}")
        self.tag = tag


def seeded_rng(seed: int, label: str) -> np.random.Generator:
    """Deterministic per-purpose generator: one stream per (seed, label)."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(label.encode())]))


@dataclass(frozen=True)
class ExponentField:
    """Variable exponent p sampled on a fixed point set; owns `1 < p_-` and
    derives the extrema p_- and p_+."""

    values: np.ndarray
    p_minus: float = field(init=False)
    p_plus: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("exponent values must be a nonempty finite 1-d array")
        if not (1.0 < v.min()):
            raise ValidationError("1 < p_-", "exponent field requires 1 < p everywhere")
        object.__setattr__(self, "p_minus", float(v.min()))
        object.__setattr__(self, "p_plus", float(v.max()))

    @classmethod
    def constant(cls, n_points: int, p: float) -> "ExponentField":
        return cls(np.full(n_points, float(p)))

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def is_constant(self) -> bool:
        return self.p_plus - self.p_minus <= 1e-14


@dataclass(frozen=True)
class LerayLionsOperator:
    """Prototype operator: disjoint axis blocks, per-block weights, one exponent
    field; owns `(A_0)` for its partition and `(A_1)`.

    `partition` holds 0-based axis index arrays; `weights` takes one scalar or
    per-point array per block and is stored with shape (n_blocks, n_points).
    """

    exponent: ExponentField
    partition: tuple
    weights: np.ndarray
    weight_floor: float = field(init=False)
    weight_ceiling: float = field(init=False)

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=int) for b in self.partition)
        object.__setattr__(self, "partition", blocks)
        flat = np.concatenate(blocks) if blocks else np.empty(0, int)
        if flat.size == 0 or sorted(flat.tolist()) != list(range(flat.size)):
            raise ValidationError("(A_0)", "partition must cover every mesh axis "
                                  "exactly once")
        if len(self.weights) != len(blocks):
            raise ValueError("weights must hold one entry per partition block")
        w = np.vstack([np.broadcast_to(np.asarray(wj, dtype=float),
                                       (self.exponent.n_points,))
                       for wj in self.weights])
        object.__setattr__(self, "weights", w)
        if not np.all(np.isfinite(w)):
            raise ValueError("operator weights must be finite")
        if w.min() <= 0.0:
            raise ValidationError("(A_1)", "operator weights must satisfy "
                                  "g_j(x) >= c > 0")
        object.__setattr__(self, "weight_floor", float(w.min()))
        object.__setattr__(self, "weight_ceiling", float(w.max()))

    @classmethod
    def isotropic(cls, exponent: ExponentField, weight_values,
                  ndim: int = 1) -> "LerayLionsOperator":
        """Single-block operator A = g(x) |xi|^p(x) on ndim axes."""
        return cls(exponent, (np.arange(ndim),), [weight_values])

    @property
    def ndim(self) -> int:
        return sum(len(b) for b in self.partition)

    @property
    def n_points(self) -> int:
        return self.exponent.n_points


def _maybe_scalar(x):
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _check_dim(op: LerayLionsOperator, xi: np.ndarray) -> None:
    if xi.shape[-1] != op.ndim:
        raise ValueError(f"xi has {xi.shape[-1]} components, operator acts on {op.ndim}")


def eval_A(op: LerayLionsOperator, k, xi):
    """Energy density A(x_k, xi) = sum_j g_j (sum_{i in P_j} xi_i^2)^(p/2)."""
    xi = np.asarray(xi, dtype=float)
    _check_dim(op, xi)
    p = op.exponent.values[k]
    total = np.zeros(np.broadcast_shapes(np.shape(p), xi.shape[:-1]))
    for j, block in enumerate(op.partition):
        rho = np.sum(xi[..., block] ** 2, axis=-1)
        total = total + op.weights[j][k] * rho ** (p / 2.0)
    return _maybe_scalar(total)


def eval_flux(op: LerayLionsOperator, k, xi):
    """Flux a(x_k, xi) = (1/p) grad_xi A; component i in block j is
    g_j * rho_j^((p-2)/2) * xi_i, extended by 0 where the block vanishes."""
    xi = np.asarray(xi, dtype=float)
    _check_dim(op, xi)
    p = op.exponent.values[k]
    shape = np.broadcast_shapes(np.shape(p), xi.shape[:-1])
    out = np.zeros(shape + (xi.shape[-1],))
    xi_b = np.broadcast_to(xi, shape + (xi.shape[-1],))
    for j, block in enumerate(op.partition):
        rho = np.sum(xi_b[..., block] ** 2, axis=-1)
        safe = np.where(rho > 0.0, rho, 1.0)
        coef = np.where(rho > 0.0, op.weights[j][k] * safe ** ((p - 2.0) / 2.0), 0.0)
        out[..., block] = coef[..., None] * xi_b[..., block]
    return out


def flux_jacobian_batch(op: LerayLionsOperator, k, xi: np.ndarray,
                        eps: float = 0.0) -> np.ndarray:
    """Vectorized flux Jacobian over rows of xi (m, N) -> (m, N, N).

    With eps > 0 every block norm is smoothed, rho -> rho + eps^2, which is the
    regularized Newton preconditioner; the exact Jacobian is eps = 0.
    """
    xi = np.asarray(xi, dtype=float)
    p = np.asarray(op.exponent.values[k], dtype=float)
    m, n = xi.shape
    jac = np.zeros((m, n, n))
    for j, block in enumerate(op.partition):
        w = np.asarray(op.weights[j][k], dtype=float)
        xb = xi[:, block]
        rho = np.sum(xb ** 2, axis=1) + eps ** 2
        safe = np.where(rho > 0.0, rho, 1.0)
        c1 = np.where(rho > 0.0, w * safe ** ((p - 2.0) / 2.0), 0.0)
        c2 = np.where(rho > 0.0, w * (p - 2.0) * safe ** ((p - 4.0) / 2.0), 0.0)
        outer = xb[:, :, None] * xb[:, None, :]
        eye = np.eye(block.size)
        sub = c1[:, None, None] * eye + c2[:, None, None] * outer
        jac[np.ix_(np.arange(m), block, block)] = sub
    return jac


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


def picone_gap(op: LerayLionsOperator, k, grad_u_root, grad_v_root, ratio_grad, r: float):
    """Both sides of the Picone-type bound for consistently supplied gradients
    of u^(1/r), v^(1/r) and v/u^((r-1)/r):

        a(x, grad u^(1/r)) . grad(v/u^((r-1)/r))
            <= A^(r/p)(x, grad v^(1/r)) * A^((p-r)/p)(x, grad u^(1/r)).
    """
    p = np.asarray(op.exponent.values[k], dtype=float)
    if r < 1.0 or np.any(r >= p):
        raise ValueError("picone_gap requires 1 <= r < p(x) at every sampled point")
    gu = np.asarray(grad_u_root, dtype=float)
    lhs = np.sum(eval_flux(op, k, gu) * np.asarray(ratio_grad, dtype=float), axis=-1)
    au = eval_A(op, k, gu)
    av = eval_A(op, k, grad_v_root)
    rhs = np.asarray(av) ** (r / p) * np.asarray(au) ** ((p - r) / p)
    return _maybe_scalar(lhs), _maybe_scalar(rhs)


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

    Per block the spectrum is g_j rho_j^((p-2)/2) * {1, p-1}, so the floor is
    min(1, p-1) * min_j g_j rho_j^((p-2)/2).  For a single block (or p <= 2)
    this dominates gamma * |xi|^(p-2); for several blocks and p > 2 the
    |xi|-based form of the literature bound fails and the blockwise floor is
    the honest statement.
    """
    xi = np.asarray(xi, dtype=float)
    p = np.asarray(op.exponent.values[k], dtype=float)
    floor = None
    for j, block in enumerate(op.partition):
        rho = np.sum(xi[..., block] ** 2, axis=-1)
        val = np.asarray(op.weights[j][k], dtype=float) * rho ** ((p - 2.0) / 2.0)
        floor = val if floor is None else np.minimum(floor, val)
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


@dataclass(frozen=True)
class SourceTerm:
    """Prototype source f(x, s) = g(x) * delta(x)^gamma * s^beta with f(x,0) = 0,
    checked for the doubling exponent q; owns `(f_0)`, `(f_1)` and `(f_2)`.

    Requires beta in [0, q-1) and beta + gamma > q - 3/2 so that f/s^(q-1) is
    nonincreasing and the boundary-weighted ratio f/v^(q-1) stays square
    integrable along distance-comparable fields.
    """

    g: np.ndarray
    delta: np.ndarray
    gamma: float
    beta: float
    q: float

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "delta", d)
        beta, gamma, q = self.beta, self.gamma, self.q
        if not (np.isfinite(beta) and np.isfinite(gamma)):
            raise ValueError(f"source exponents must be finite, got "
                             f"beta = {beta}, gamma = {gamma}")
        if not (0.0 <= beta < q - 1.0):
            raise ValidationError("(f_1)", f"beta = {beta} must lie in "
                                  f"[0, q-1) = [0, {q - 1.0})")
        if not (beta + gamma > q - 1.5):
            raise ValidationError("(f_2)", f"beta + gamma = {beta + gamma} must "
                                  f"exceed q - 3/2 = {q - 1.5}")
        if g.shape != d.shape:
            raise ValueError("g and delta must live on the same point set")
        if not np.all(np.isfinite(g)):
            raise ValueError("source weight g must be finite")
        if g.min() < 0.0:
            raise ValidationError("(f_0)", "source weight g must be nonnegative")
        if np.any(d < 0.0):
            raise ValueError("boundary distance must be nonnegative")


def eval_source(src: SourceTerm, k, s):
    """f(x_k, s) = g delta^gamma s^beta for s > 0, and exactly 0 at s = 0."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise ValueError("source is defined for s >= 0 only")
    coef = src.g[k] * src.delta[k] ** src.gamma
    pos = s > 0.0
    out = np.where(pos, coef * np.where(pos, s, 1.0) ** src.beta, 0.0)
    return _maybe_scalar(out)


@dataclass(frozen=True)
class PotentialField:
    """Time-dependent potential h(t, x) on the quadrature points.

    `evaluator` maps a time to the per-point values; `lower_envelope` is the
    nonnegative, not identically zero floor h(t,.) >= h_lower required of
    admissible potentials (`(H_h)`, checked here and, at sampled times, by
    `check_envelope`), and `limit` the large-time profile when one exists.
    """

    evaluator: Callable[[float], np.ndarray]
    lower_envelope: np.ndarray
    sup_norm: float
    limit: Optional[np.ndarray] = None

    def __post_init__(self):
        env = np.asarray(self.lower_envelope, dtype=float)
        object.__setattr__(self, "lower_envelope", env)
        if np.any(env < 0.0) or not np.any(env > 0.0):
            raise ValidationError("(H_h)", "lower envelope must be nonnegative and "
                                  "not identically zero")
        if self.limit is not None:
            object.__setattr__(self, "limit", np.asarray(self.limit, dtype=float))

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self.evaluator(t), dtype=float)

    def check_envelope(self, times: Sequence[float]) -> None:
        """`(H_h)` at the sampled times: h(t, .) >= h_lower up to roundoff."""
        for t in times:
            if np.any(self(t) < self.lower_envelope - ENVELOPE_TOL):
                raise ValidationError("(H_h)", "potential drops below its lower "
                                      f"envelope at t={t}")

    @classmethod
    def constant(cls, values) -> "PotentialField":
        values = np.asarray(values, dtype=float)
        return cls(lambda t: values, values, float(np.abs(values).max()), limit=values)


class Regime(enum.Enum):
    SLOW_DIFFUSION = "slow-diffusion"
    FAST_DIFFUSION = "fast-diffusion"
    MIXED = "mixed"


def classify_regime(exponents: ExponentField, q: float) -> Regime:
    """Slow diffusion iff 2q < p_-, fast iff 2q > p_+, mixed otherwise."""
    if not (1.0 < q < exponents.p_minus):
        raise ValueError("regime classification requires q in (1, p_-)")
    if 2.0 * q < exponents.p_minus:
        return Regime.SLOW_DIFFUSION
    if 2.0 * q > exponents.p_plus:
        return Regime.FAST_DIFFUSION
    return Regime.MIXED
