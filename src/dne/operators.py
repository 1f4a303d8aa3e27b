"""Block-anisotropic p(x)-homogeneous operator algebra.

The energy density is A(x, xi) = sum_j g_j(x) * (sum_{i in P_j} xi_i^2)^(p(x)/2)
over a partition (P_j) of the coordinate axes, with weights g_j(x) >= c > 0.
Its flux a(x, xi) = (1/p(x)) * grad_xi A and the solver's Hessian read one
owner of the block formula (`_coefficient`); A itself is a(x, xi) . xi by
Euler's identity.  The Picone bound the verification harness evaluates
(`checks.check_picone`) is built on these; the flux Jacobian, the per-sample
Picone gap and the oracles for the operator's other pointwise inequalities
(monotonicity, convexity defect, ellipticity floor, growth) are test code, in
`tests/oracles.py`.

Every evaluation takes every point the operator is sampled on, as the energy
reads it: `xi` has shape (..., n_points, N) and a source argument `s` shape
(..., n_points), any leading axes batching iterates.
"""

from __future__ import annotations

import enum
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


@dataclass(frozen=True)
class ExponentField:
    """Variable exponent p sampled on a fixed point set; owns `1 < p_-` and
    derives the extrema p_- and p_+, p - 2 (the Hessian's rank-one factor),
    and for `_coefficient` the power (p - 2)/2 of a block norm in the flux and
    the mask p >= 2."""

    values: np.ndarray
    p_minus: float = field(init=False)
    p_plus: float = field(init=False)
    minus_two: np.ndarray = field(init=False, repr=False, compare=False)
    flux_power: np.ndarray = field(init=False, repr=False, compare=False)
    at_least_two: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ValueError("exponent values must be a nonempty finite 1-d array")
        if not (1.0 < v.min()):
            raise ValidationError("1 < p_-", "exponent field requires 1 < p everywhere")
        object.__setattr__(self, "p_minus", float(v.min()))
        object.__setattr__(self, "p_plus", float(v.max()))
        object.__setattr__(self, "minus_two", v - 2.0)
        object.__setattr__(self, "flux_power", self.minus_two / 2.0)
        object.__setattr__(self, "at_least_two", v >= 2.0)

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
    `axes` indexes the same blocks, each a slice when its axes are a
    contiguous ascending run (a view of xi, not a gather); `block_of` gives
    each axis its block's index.
    """

    exponent: ExponentField
    partition: tuple
    weights: np.ndarray
    axes: tuple = field(init=False, repr=False, compare=False)
    block_of: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=int) for b in self.partition)
        object.__setattr__(self, "partition", blocks)
        flat = np.concatenate(blocks) if blocks else np.empty(0, int)
        if flat.size == 0 or sorted(flat.tolist()) != list(range(flat.size)):
            raise ValidationError("(A_0)", "partition must cover every mesh axis "
                                  "exactly once")
        object.__setattr__(self, "axes", tuple(
            slice(int(b[0]), int(b[-1]) + 1)
            if b.size and np.array_equal(b, np.arange(b[0], b[-1] + 1)) else b
            for b in blocks))
        object.__setattr__(self, "block_of", tuple(
            j for axis in range(flat.size) for j, b in enumerate(blocks) if axis in b))
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

    @classmethod
    def isotropic(cls, exponent: ExponentField, weight_values,
                  ndim: int = 1) -> "LerayLionsOperator":
        """Single-block operator A = g(x) |xi|^p(x) on ndim axes."""
        return cls(exponent, (np.arange(ndim),), [weight_values])

    @property
    def ndim(self) -> int:
        return len(self.block_of)

    @property
    def n_points(self) -> int:
        return self.exponent.n_points


def _check_dim(op: LerayLionsOperator, xi: np.ndarray) -> None:
    if xi.shape[-2:] != (op.n_points, op.ndim):
        raise ValueError(f"xi has shape {xi.shape}, not (..., {op.n_points}, {op.ndim})")


def _square_norm(xi: np.ndarray) -> np.ndarray:
    """|xi|^2 over the last axis, its squares added axis by axis: the sum
    numpy's `sum` and `einsum` give, since no square is -0.0."""
    out = xi[..., 0] ** 2
    for i in range(1, xi.shape[-1]):
        out = out + xi[..., i] ** 2
    return out


def _block_norms(op: LerayLionsOperator, xi: np.ndarray) -> list:
    """|xi_Bj|^2 of each block j of `op.axes`, in block order."""
    return [_square_norm(xi[..., axes]) for axes in op.axes]


def _coefficient(op: LerayLionsOperator, j: int, rho: np.ndarray) -> np.ndarray:
    """c_j = g_j rho^((p-2)/2), the coefficient of the flux a = c_j xi on
    block j, at rho = |xi_Bj|^2 (plus eps^2 in the solver's Hessian).  The
    one guard: c_j = 0 where rho = 0 and p < 2 (inf to a negative power is
    0); for p >= 2 the power's limit is g_j at p = 2 and 0 above, so an
    operator with p_- >= 2 skips it."""
    exponent = op.exponent
    if exponent.p_minus < 2.0:
        rho = np.where((rho > 0.0) | exponent.at_least_two, rho, np.inf)
    return op.weights[j] * rho ** exponent.flux_power


def eval_A(op: LerayLionsOperator, xi):
    """Energy density A(x, xi) = sum_j g_j (sum_{i in P_j} xi_i^2)^(p/2) at
    every point, evaluated as a(x, xi) . xi by Euler's identity for the
    p-homogeneous A."""
    return np.sum(eval_flux(op, xi) * xi, axis=-1)


def eval_flux(op: LerayLionsOperator, xi):
    """Flux a(x, xi) = (1/p) grad_xi A at every point; component i in block j
    is g_j * rho_j^((p-2)/2) * xi_i, extended by 0 where the block vanishes."""
    xi = np.asarray(xi, dtype=float)
    _check_dim(op, xi)
    return _flux(op, xi, _block_norms(op, xi))


def _flux(op: LerayLionsOperator, xi: np.ndarray, norms: list) -> np.ndarray:
    """`eval_flux` from the block norms of xi (`_block_norms`), without its
    checks: xi times its axes' block coefficients, laid out like xi."""
    cs = [_coefficient(op, j, rho) for j, rho in enumerate(norms)]
    coefficients = (cs[0][..., None] if len(cs) == 1
                    else np.stack([cs[j] for j in op.block_of], axis=-1))
    return coefficients * xi


@dataclass(frozen=True)
class SourceTerm:
    """Prototype source f(x, s) = g(x) * delta(x)^gamma * s^beta with f(x,0) = 0;
    owns `(f_0)`.  Its exponents' bounds against q, `(f_1)` and `(f_2)`, are
    checked where a problem meets its q (`elliptic.source_terms`).  Derives
    delta^gamma once.
    """

    g: np.ndarray
    delta: np.ndarray
    gamma: float
    beta: float
    delta_power: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "delta", d)
        beta, gamma = self.beta, self.gamma
        if not (np.isfinite(beta) and np.isfinite(gamma)):
            raise ValueError(f"source exponents must be finite, got "
                             f"beta = {beta}, gamma = {gamma}")
        if g.shape != d.shape:
            raise ValueError("g and delta must live on the same point set")
        if not np.all(np.isfinite(g)):
            raise ValueError("source weight g must be finite")
        if g.min() < 0.0:
            raise ValidationError("(f_0)", "source weight g must be nonnegative")
        if np.any(d < 0.0):
            raise ValueError("boundary distance must be nonnegative")
        object.__setattr__(self, "delta_power", d ** gamma)


def eval_source(src: SourceTerm, s):
    """f(x, s) = g delta^gamma s^beta at every point for s > 0, and exactly 0
    at s = 0."""
    s = np.asarray(s, dtype=float)
    if s.shape[-1:] != src.g.shape:
        raise ValueError(f"s has shape {s.shape}, not (..., {src.g.size})")
    if np.any(s < 0.0):
        raise ValueError("source is defined for s >= 0 only")
    pos = s > 0.0
    return np.where(pos, src.g * src.delta_power * np.where(pos, s, 1.0) ** src.beta, 0.0)


@dataclass(frozen=True)
class PotentialField:
    """Time-dependent potential h(t, x) on the quadrature points.

    `evaluator` maps an array of S times to the (S, n_points) array of the
    values at each, one row per time (`at`); `lower_envelope` is the
    nonnegative, not identically zero floor h(t,.) >= h_lower required of
    admissible potentials (`(H_h)`, checked here and, at sampled times, by
    `check_envelope`), and `limit` the large-time profile when one exists.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    lower_envelope: np.ndarray
    sup_norm: float
    limit: Optional[np.ndarray] = None
    steady: bool = field(default=False, init=False, compare=False)

    def __post_init__(self):
        env = np.asarray(self.lower_envelope, dtype=float)
        object.__setattr__(self, "lower_envelope", env)
        if self.limit is not None:
            object.__setattr__(self, "limit", np.asarray(self.limit, dtype=float))
        if not (np.all(np.isfinite(env)) and np.isfinite(self.sup_norm)
                and (self.limit is None or np.all(np.isfinite(self.limit)))):
            raise ValueError("potential envelope, limit and sup norm must be finite")
        if np.any(env < 0.0) or not np.any(env > 0.0):
            raise ValidationError("(H_h)", "lower envelope must be nonnegative and "
                                  "not identically zero")

    def __call__(self, t: float) -> np.ndarray:
        """h(t, .) at one time: the one row of `at([t])`."""
        return self.at([t])[0]

    def at(self, times) -> np.ndarray:
        """h(t, .) at each of the times, the rows of an (S, n_points) array,
        from one evaluator call."""
        return np.asarray(self.evaluator(np.asarray(times, dtype=float)), dtype=float)

    def check_envelope(self, times: Sequence[float]) -> None:
        """`(H_h)` at the sampled times, in order: h(t, .) >= h_lower up to
        roundoff, and h(t, .) >= 0 exactly and not identically zero, as the
        elliptic problems' potential term needs."""
        for t, sample in zip(times, self.at(times)):
            if not np.isfinite(sample).all():
                raise ValueError(f"potential is not finite at t={t}")
            if (sample < self.lower_envelope - ENVELOPE_TOL).any():
                raise ValidationError("(H_h)", "potential drops below its lower "
                                      f"envelope at t={t}")
            if (sample < 0.0).any():
                raise ValidationError("(H_h)", f"potential is negative at t={t}")
            if not (sample > 0.0).any():
                raise ValidationError("(H_h)", f"potential is identically zero at t={t}")

    @classmethod
    def constant(cls, values, lower_envelope=None) -> "PotentialField":
        """The `steady` potential h(t, .) = values, its own envelope by default."""
        values = np.asarray(values, dtype=float)
        pot = cls(lambda ts: np.broadcast_to(values, (ts.size, values.size)),
                  values if lower_envelope is None else lower_envelope,
                  float(np.abs(values).max()), limit=values)
        object.__setattr__(pot, "steady", True)
        return pot


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
