"""Scenario configuration: a flat, sectioned key-value format.

Values are scalars, space-separated lists, or named function primitives
(`constant c`, `affine a0 ax [ay]`, `bump s`, `sin-product s`,
`power-of-delta s e`).  `load_scenario` parses each section straight into its
runtime object (mesh, exponent, operator, source, potential, initial datum)
and returns a `Scenario` holding the `EvolutionSetup` that every command runs
on.  A malformed value raises a ParseError; a violated hypothesis raises the
ValidationError, naming its tag, of the object that owns it.  The full
grammar is documented in the README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .evolution import EvolutionSetup
from .io_utils import read_field_csv
from .meshing import (DiscreteField, Mesh, _distance, _unit_bump, boundary_distance_field,
                      interpolate, interval_mesh, rectangle_mesh)
from .operators import (ExponentField, LerayLionsOperator, PotentialField,
                        SourceTerm, ValidationError)


class ParseError(ValueError):
    pass


def _primitive(text: str, points: np.ndarray, mesh: Mesh) -> np.ndarray:
    """The values at `points` of the function primitive `text`."""
    parts = text.split()
    if not parts:
        raise ParseError("empty function primitive")
    name = parts[0]
    if name not in _PRIMITIVES:
        raise ParseError(f"unknown function primitive '{name}' "
                         f"(expected one of {sorted(_PRIMITIVES)})")
    want, evaluate = _PRIMITIVES[name]
    try:
        params = [float(p) for p in parts[1:]]
    except ValueError as exc:
        raise ParseError(f"bad parameters for primitive '{name}': {exc}") from exc
    if len(params) not in want:
        raise ParseError(f"primitive '{name}' takes {want} parameters, "
                         f"got {len(params)}")
    return evaluate(np.atleast_2d(points), mesh, *params)


def _affine(points, mesh, a0, *slope):
    if len(slope) > mesh.dimension:
        raise ParseError(f"an affine function takes at most one slope per axis, "
                         f"got {len(slope)} on a {mesh.dimension}D mesh")
    out = np.full(points.shape[0], a0)
    for axis, slope_axis in enumerate(slope):
        out = out + slope_axis * points[:, axis]
    return out


def _sin_product(points, mesh, scale):
    out = np.ones(points.shape[0])
    for axis, (lo, hi) in enumerate(mesh.bounds):
        out = out * np.sin(np.pi * (points[:, axis] - lo) / (hi - lo))
    return scale * out


# name: (the parameter counts it takes, its values at points of a mesh)
_PRIMITIVES = {
    "constant": ({1}, lambda points, mesh, c: np.full(points.shape[0], c)),
    "affine": ({2, 3}, _affine),
    "bump": ({1}, lambda points, mesh, scale: scale * _unit_bump(points, mesh)),
    "sin-product": ({1}, _sin_product),
    "power-of-delta": ({2}, lambda points, mesh, scale, expo:
                       scale * _distance(points, mesh) ** expo),
}


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: the config text, the validated evolution setup every
    command runs on, and the run and sweep values read besides it.
    `store_stride` is a setting of the `evolve` writer alone: it thins the
    fields written, never the run.

    `dimension`, `resolution`, `steps`, `horizon` and `build_mesh()` are
    read-only views of `setup` that exist only for the benchmark harness
    (`perfbench/`); the commands read `setup`."""

    raw_text: str
    setup: EvolutionSetup
    lam: float
    seed: int
    store_stride: int
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
        slope = _floats(sec.get("slope", "0")) if kind == "affine" else []
        vals = _affine(mesh.barycenters, mesh, float(sec.get("value", "2.0")), *slope)
    elif kind == "tabulated":
        try:
            vals = read_field_csv(sec["file"], mesh.barycenters, "element barycenters")
        except ValueError as exc:
            raise ParseError(f"[exponent] {exc}") from exc
    else:
        raise ParseError(f"unknown exponent kind '{kind}'")
    return ExponentField(vals)


def _operator(sec: dict, mesh: Mesh, exponent: ExponentField) -> LerayLionsOperator:
    part_text = sec.get("partition",
                        " | ".join(str(i + 1) for i in range(mesh.dimension)))
    blocks = [np.asarray([int(tok) - 1 for tok in blk.split()], dtype=int)
              for blk in part_text.split("|") if blk.strip()]
    weights = [_primitive(sec.get(f"weight.{j}", "constant 1.0"), mesh.barycenters, mesh)
               for j in range(1, len(blocks) + 1)]
    return LerayLionsOperator(exponent, blocks, weights)


def _source(sec: dict, mesh: Mesh, q: float) -> Optional[SourceTerm]:
    gamma = float(sec.get("gamma", "1.0"))
    beta = float(sec.get("beta", "0.0"))
    if sec.get("enabled", "false").lower() not in ("1", "true", "yes"):
        return None
    g = _primitive(sec.get("g", "constant 1.0"), mesh.barycenters, mesh)
    return SourceTerm(g, boundary_distance_field(mesh), gamma, beta, q)


def _potential(sec: dict, mesh: Mesh, horizon: float) -> PotentialField:
    pts = mesh.barycenters
    kind = sec.get("kind", "constant")
    eta = float(sec.get("eta", "0.5"))
    knots = []  # a tabulated h takes its extremes at its knots; h(inf) is its limit
    if kind == "tabulated":
        times = np.asarray(_floats(sec["times"]))
        if times.size < 2 or not (np.all(np.isfinite(times))
                                  and np.all(np.diff(times) > 0)):
            raise ParseError(f"[potential] times must be finite and increasing, "
                             f"got {times.tolist()}")
        profiles = np.stack([_primitive(sec[f"profile.{i}"], pts, mesh)
                             for i in range(1, times.size + 1)])

        def evaluator(t):
            t = np.clip(t, times[0], times[-1])
            i = int(np.searchsorted(times, t, side="right") - 1)
            i = min(i, len(times) - 2)
            w = (t - times[i]) / (times[i + 1] - times[i])
            return (1.0 - w) * profiles[i] + w * profiles[i + 1]

        sup = float(np.abs(profiles).max())
        limit, knots = profiles[-1], times.tolist()
    elif kind in ("constant", "decaying"):
        profile = _primitive(sec.get("profile", "bump 1.0"), pts, mesh)
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
        envelope = _primitive(sec["lower_envelope"], pts, mesh)
    else:
        envelope = limit
    pot = PotentialField(evaluator, envelope, sup, limit=limit)
    pot.check_envelope([*np.linspace(0.0, max(horizon, 1e-9), 7), *knots, np.inf])
    return pot


def _initial(sec: dict, mesh: Mesh) -> DiscreteField:
    if "file" in sec:
        return DiscreteField(mesh, read_field_csv(sec["file"], mesh.vertices,
                                                  "mesh vertices"))
    profile = sec.get("profile", "bump 0.5")
    return interpolate(mesh, lambda pts: _primitive(profile, pts, mesh))


def load_scenario(path: str) -> Scenario:
    """Parse every section straight into its runtime object; distinct errors
    for malformed files (ParseError) and violated hypotheses (the owning
    object's ValidationError with the tag).  An OSError from a field file
    passes through."""
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
        setup = EvolutionSetup(
            mesh, op, q, _source(_section(cp, "source"), mesh, q),
            _potential(_section(cp, "potential"), mesh, horizon), horizon,
            int(run_sec.get("steps", "20")), _initial(_section(cp, "initial"), mesh))
        # solve-elliptic and every solve of a lambda sweep need lambda > 0
        lam = float(run_sec.get("lambda", "1.0"))
        if not 0.0 < lam < np.inf:
            raise ParseError(f"[run] lambda = {lam} must be positive and finite")
        # the seed feeds numpy's SeedSequence, which takes no negative entropy
        seed = int(run_sec.get("seed", "20240801"))
        if seed < 0:
            raise ParseError(f"[run] seed = {seed} must be nonnegative")
        stride = int(run_sec.get("store_stride", "1"))
        if stride < 1:
            raise ParseError(f"[run] store_stride = {stride} must be at least 1")
        sweep_sec = _section(cp, "sweep")
        if sweep_sec.get("kind") not in (None, "lambda", "pq"):
            raise ParseError(f"unknown sweep kind '{sweep_sec['kind']}'")
        lambdas = _floats(sweep_sec.get("lambdas", ""))
        if not all(0.0 < v < np.inf for v in lambdas):
            raise ParseError(f"[sweep] lambdas must all be positive and finite, "
                             f"got {lambdas}")
        # a finite p <= 1 or q outside (1, p) is an `invalid` grid row, not an error
        grid = {key: _floats(sweep_sec.get(key, ""))
                for key in ("p_values", "q_values")}
        for key, values in grid.items():
            if not np.all(np.isfinite(values)):
                raise ParseError(f"[sweep] {key} must all be finite, got {values}")
        return Scenario(
            raw_text=raw, setup=setup, lam=lam, seed=seed, store_stride=stride,
            sweep_kind=sweep_sec.get("kind"), sweep_lambdas=lambdas,
            sweep_p_values=grid["p_values"], sweep_q_values=grid["q_values"])
    except (ParseError, ValidationError):
        raise
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
