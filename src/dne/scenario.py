"""Scenario configuration: a flat, sectioned key-value format.

Values are scalars, space-separated lists, or named function primitives
(`constant c`, `affine a0 ax [ay]`, `bump s`, `sin-product s`,
`power-of-delta s e`).  `load_scenario` parses each section straight into its
runtime object (mesh, exponent, operator, source, potential, initial datum),
checks every hypothesis the solver relies on as it goes, and returns a
`Scenario` holding the validated `EvolutionSetup` that every command runs on.
A malformed value raises a ParseError; a violated hypothesis raises a
ValidationError naming its tag.  The full grammar is documented in the README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .evolution import EvolutionSetup
from .io_utils import VERTEX_TOL, field_from_csv, read_field_csv
from .meshing import (DiscreteField, Mesh, _axis_bounds, _distance, _unit_bump,
                      boundary_distance_field, interpolate, interval_mesh, rectangle_mesh)
from .operators import (ExponentField, LerayLionsOperator, PotentialField,
                        SourceTerm)


class ParseError(ValueError):
    pass


class ValidationError(ValueError):
    def __init__(self, tag: str, message: str):
        super().__init__(f"[{tag}] {message}")
        self.tag = tag


@dataclass(frozen=True)
class Primitive:
    name: str
    params: tuple

    @classmethod
    def parse(cls, text: str) -> "Primitive":
        parts = text.split()
        if not parts:
            raise ParseError("empty function primitive")
        name = parts[0]
        if name not in _PRIMITIVES:
            raise ParseError(f"unknown function primitive '{name}' "
                             f"(expected one of {sorted(_PRIMITIVES)})")
        want = _PRIMITIVES[name]
        try:
            params = tuple(float(p) for p in parts[1:])
        except ValueError as exc:
            raise ParseError(f"bad parameters for primitive '{name}': {exc}") from exc
        if len(params) not in want:
            raise ParseError(f"primitive '{name}' takes {want} parameters, "
                             f"got {len(params)}")
        return cls(name, params)

    def __call__(self, points: np.ndarray, mesh: Mesh) -> np.ndarray:
        points = np.atleast_2d(points)
        if self.name == "constant":
            return np.full(points.shape[0], self.params[0])
        if self.name == "affine":
            out = np.full(points.shape[0], self.params[0])
            for axis in range(points.shape[1]):
                if len(self.params) > axis + 1:
                    out = out + self.params[axis + 1] * points[:, axis]
            return out
        if self.name == "bump":
            return self.params[0] * _unit_bump(points, mesh)
        if self.name == "sin-product":
            return self.params[0] * _sin_product(points, mesh)
        if self.name == "power-of-delta":
            scale, expo = self.params
            return scale * _distance(points, mesh) ** expo
        raise AssertionError(self.name)


_PRIMITIVES = {
    "constant": {1},
    "affine": {2, 3},
    "bump": {1},
    "sin-product": {1},
    "power-of-delta": {2},
}


def _sin_product(points, mesh):
    out = np.ones(points.shape[0])
    for axis, (lo, hi) in enumerate(_axis_bounds(mesh)):
        out = out * np.sin(np.pi * (points[:, axis] - lo) / (hi - lo))
    return out


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: the config text, the validated evolution setup every
    command runs on, and the run and sweep values read besides it.

    `dimension`, `resolution`, `steps`, `horizon` and `build_mesh()` are
    read-only views of `setup` that exist only for the benchmark harness
    (`perfbench/`); the commands read `setup`."""

    raw_text: str
    setup: EvolutionSetup
    lam: float
    seed: int
    sweep_kind: Optional[str]
    sweep_lambdas: List[float]
    sweep_p_values: List[float]
    sweep_q_values: List[float]

    @property
    def dimension(self) -> int:
        return self.setup.mesh.dimension

    @property
    def resolution(self) -> tuple:
        return self.setup.mesh.resolution

    @property
    def steps(self) -> int:
        return self.setup.steps

    @property
    def horizon(self) -> float:
        return self.setup.horizon

    def build_mesh(self) -> Mesh:
        return self.setup.mesh


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    return dict(cp[name]) if cp.has_section(name) else {}


def _floats(text: str) -> List[float]:
    return [float(p) for p in text.split()]


def _mesh(sec: dict) -> Mesh:
    dimension = int(sec.get("dimension", "1"))
    if dimension not in (1, 2):
        raise ParseError("dimension must be 1 or 2")
    extents = _floats(sec.get("extents", "0 1" if dimension == 1 else "0 1 0 1"))
    if len(extents) != 2 * dimension:
        raise ParseError("extents must list 2 values per axis")
    res = [int(n) for n in sec.get("resolution", "100").split()]
    if dimension == 2 and len(res) == 1:
        res = [res[0], res[0]]
    if len(res) != dimension:
        raise ParseError("resolution must list one value per axis")
    if dimension == 1:
        return interval_mesh(extents[0], extents[1], res[0])
    return rectangle_mesh(*extents, *res)


def _exponent(sec: dict, mesh: Mesh) -> ExponentField:
    kind = sec.get("kind", "constant")
    if kind in ("constant", "affine"):
        vals = np.full(mesh.n_elements, float(sec.get("value", "2.0")))
        if kind == "affine":
            slope = _floats(sec.get("slope", "0"))
            for axis in range(min(mesh.dimension, len(slope))):
                vals = vals + slope[axis] * mesh.barycenters[:, axis]
    elif kind == "tabulated":
        coords, vals = read_field_csv(sec["file"])
        if vals.size != mesh.n_elements:
            raise ParseError(f"[exponent] file {sec['file']} has {vals.size} "
                             f"values, one per element needs {mesh.n_elements}")
        if (coords.shape != mesh.barycenters.shape
                or np.max(np.abs(coords - mesh.barycenters)) > VERTEX_TOL):
            raise ParseError(f"[exponent] file {sec['file']} does not match the "
                             "element barycenters")
    else:
        raise ParseError(f"unknown exponent kind '{kind}'")
    try:
        return ExponentField.from_values(vals)
    except ValueError as exc:
        raise ValidationError("1 < p_-", str(exc)) from exc


def _operator(sec: dict, mesh: Mesh, exponent: ExponentField) -> LerayLionsOperator:
    part_text = sec.get("partition",
                        " | ".join(str(i + 1) for i in range(mesh.dimension)))
    blocks = [np.asarray([int(tok) - 1 for tok in blk.split()], dtype=int)
              for blk in part_text.split("|") if blk.strip()]
    weights = [Primitive.parse(sec.get(f"weight.{j}", "constant 1.0"))
               for j in range(1, len(blocks) + 1)]
    if sorted(int(i) for b in blocks for i in b) != list(range(mesh.dimension)):
        raise ValidationError("(A_0)", "partition must cover every mesh axis "
                              "exactly once")
    values = []
    for prim in weights:
        w = prim(mesh.barycenters, mesh)
        if w.min() <= 0.0:
            raise ValidationError("(A_1)", "operator weights must satisfy "
                                  "g_j(x) >= c > 0")
        values.append(w)
    return LerayLionsOperator.from_blocks(exponent, blocks, values)


def _source(sec: dict, mesh: Mesh, q: float) -> Optional[SourceTerm]:
    gamma = float(sec.get("gamma", "1.0"))
    beta = float(sec.get("beta", "0.0"))
    if sec.get("enabled", "false").lower() not in ("1", "true", "yes"):
        return None
    g_prim = Primitive.parse(sec.get("g", "constant 1.0"))
    if not (0.0 <= beta < q - 1.0):
        raise ValidationError("(f_1)", f"beta = {beta} must lie in "
                              f"[0, q-1) = [0, {q - 1.0})")
    if not (beta + gamma > q - 1.5):
        raise ValidationError("(f_2)", f"beta + gamma = {beta + gamma} must "
                              f"exceed q - 3/2 = {q - 1.5}")
    g = g_prim(mesh.barycenters, mesh)
    if g.min() < 0.0:
        raise ValidationError("(f_0)", "source weight g must be nonnegative")
    delta = boundary_distance_field(mesh).quadrature
    return SourceTerm(g, delta, gamma, beta, q)


def _potential(sec: dict, mesh: Mesh, horizon: float) -> PotentialField:
    pts = mesh.barycenters
    kind = sec.get("kind", "constant")
    eta = float(sec.get("eta", "0.5"))
    if kind == "tabulated":
        times = np.asarray(_floats(sec["times"]))
        if times.size < 2 or np.any(np.diff(times) <= 0):
            raise ParseError("tabulated potential needs increasing times")
        profiles = np.stack([Primitive.parse(sec[f"profile.{i}"])(pts, mesh)
                             for i in range(1, times.size + 1)])

        def evaluator(t):
            t = np.clip(t, times[0], times[-1])
            i = int(np.searchsorted(times, t, side="right") - 1)
            i = min(i, len(times) - 2)
            w = (t - times[i]) / (times[i + 1] - times[i])
            return (1.0 - w) * profiles[i] + w * profiles[i + 1]

        sup = float(np.abs(profiles).max())
        limit = profiles[-1]
    elif kind in ("constant", "decaying"):
        profile = Primitive.parse(sec.get("profile", "bump 1.0"))(pts, mesh)
        limit = profile
        if kind == "constant":
            evaluator = lambda t: profile
            sup = float(np.abs(profile).max())
        else:  # decaying toward the limit at rate (1+t)^-(1+eta)
            if not eta > -1.0:
                raise ParseError(f"[potential] eta = {eta} must exceed -1, or h "
                                 f"does not decay to its profile")
            evaluator = lambda t: profile * (1.0 + (1.0 + t) ** (-(1.0 + eta)))
            sup = float(2.0 * np.abs(profile).max())
    else:
        raise ParseError(f"unknown potential kind '{kind}'")
    if "lower_envelope" in sec:
        envelope = Primitive.parse(sec["lower_envelope"])(pts, mesh)
    else:
        envelope = np.asarray(limit, dtype=float)
    if envelope.min() < 0.0 or not np.any(envelope > 0.0):
        raise ValidationError("(H_h)", "lower envelope must be nonnegative and "
                              "not identically zero")
    try:
        pot = PotentialField(evaluator, envelope, sup, limit=limit)
        pot.check_envelope(np.linspace(0.0, max(horizon, 1e-9), 7))
    except ValueError as exc:
        raise ValidationError("(H_h)", str(exc)) from exc
    return pot


def _initial(sec: dict, mesh: Mesh) -> DiscreteField:
    if "file" in sec:
        return field_from_csv(mesh, sec["file"])
    prim = Primitive.parse(sec.get("profile", "bump 0.5"))
    return interpolate(mesh, lambda pts: prim(pts, mesh))


def load_scenario(path: str) -> Scenario:
    """Parse and validate every section straight into its runtime object;
    distinct errors for malformed files (ParseError) and violated hypotheses
    (ValidationError with the tag).  An OSError from a field file passes
    through."""
    try:
        with open(path) as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        cp.read_string(raw)
    except configparser.Error as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc

    try:
        run_sec = _section(cp, "run")
        if "tolerance" in run_sec:
            raise ParseError("[run] tolerance was removed: the solver tolerance "
                             "is fixed")
        horizon = float(run_sec.get("horizon", "1.0"))
        # before the potential is sampled on [0, horizon]
        if not np.isfinite(horizon):
            raise ParseError(f"[run] horizon = {horizon} must be finite")
        mesh = _mesh(_section(cp, "mesh"))
        op = _operator(_section(cp, "operator"), mesh,
                       _exponent(_section(cp, "exponent"), mesh))
        q = float(_section(cp, "problem").get("q", "1.25"))
        if not (1.0 < q < op.exponent.p_minus):
            raise ValidationError("q ∈ (1, p_-)", f"q = {q} is outside "
                                  f"(1, {op.exponent.p_minus})")
        setup = EvolutionSetup.create(
            mesh, op, q, _source(_section(cp, "source"), mesh, q),
            _potential(_section(cp, "potential"), mesh, horizon), horizon,
            int(run_sec.get("steps", "20")), _initial(_section(cp, "initial"), mesh),
            store_stride=int(run_sec.get("store_stride", "1")))
        # solve-elliptic and every solve of a lambda sweep need lambda > 0
        lam = float(run_sec.get("lambda", "1.0"))
        if not 0.0 < lam < np.inf:
            raise ParseError(f"[run] lambda = {lam} must be positive and finite")
        sweep_sec = _section(cp, "sweep")
        lambdas = _floats(sweep_sec.get("lambdas", ""))
        if not all(0.0 < v < np.inf for v in lambdas):
            raise ParseError(f"[sweep] lambdas must all be positive and finite, "
                             f"got {lambdas}")
        return Scenario(
            raw_text=raw, setup=setup, lam=lam,
            seed=int(run_sec.get("seed", "20240801")),
            sweep_kind=sweep_sec.get("kind"), sweep_lambdas=lambdas,
            sweep_p_values=_floats(sweep_sec.get("p_values", "")),
            sweep_q_values=_floats(sweep_sec.get("q_values", "")))
    except (ParseError, ValidationError):
        raise
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
