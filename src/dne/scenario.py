"""Scenario configuration: a flat, sectioned key-value format.

Values are scalars, space-separated lists, or named function primitives
(`constant c`, `affine a0 ax [ay]`, `bump s`, `sin-product s`,
`power-of-delta s e`).  `load_scenario` parses each section straight into its
runtime object (mesh, exponent, operator, source, potential, initial datum)
and returns a `Scenario` holding the `EvolutionSetup` that every command runs
on.  Each section's reader pops the keys it reads, so a key still left once
every value is checked (one the scenario's own choices leave unread, too) is
a ParseError, as is a malformed value; a violated hypothesis raises the
ValidationError, naming its tag, of the object that owns it.  The full
grammar is documented in the README.
"""

from __future__ import annotations

import configparser
from collections import defaultdict
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


_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
# sweep kind: {each list it reads: the bound below its values}
_SWEEP_LISTS = {None: {}, "lambda": {"lambdas": 0.0},
                "pq": {"p_values": -np.inf, "q_values": -np.inf}}


def _floats(text: str) -> List[float]:
    return [float(p) for p in text.split()]


def _mesh(sec: dict) -> Mesh:
    dimension = int(sec.pop("dimension", "1"))
    if dimension not in (1, 2):
        raise ParseError("dimension must be 1 or 2")
    extents = _floats(sec.pop("extents", "0 1" if dimension == 1 else "0 1 0 1"))
    if len(extents) != 2 * dimension:
        raise ParseError("extents must list 2 values per axis")
    res = [int(n) for n in sec.pop("resolution", "100").split()]
    if dimension == 2 and len(res) == 1:
        res = [res[0], res[0]]
    if len(res) != dimension:
        raise ParseError("resolution must list one value per axis")
    if dimension == 1:
        return interval_mesh(extents[0], extents[1], res[0])
    return rectangle_mesh(*extents, *res)


def _exponent(sec: dict, mesh: Mesh) -> ExponentField:
    kind = sec.pop("kind", "constant")
    if kind in ("constant", "affine"):
        slope = _floats(sec.pop("slope", "0")) if kind == "affine" else []
        vals = _affine(mesh.barycenters, mesh, float(sec.pop("value", "2.0")), *slope)
    elif kind == "tabulated":
        try:
            vals = read_field_csv(sec.pop("file"), mesh.barycenters, "element barycenters")
        except ValueError as exc:
            raise ParseError(f"[exponent] {exc}") from exc
    else:
        raise ParseError(f"unknown exponent kind '{kind}'")
    return ExponentField(vals)


def _operator(sec: dict, mesh: Mesh, exponent: ExponentField) -> LerayLionsOperator:
    part_text = sec.pop("partition",
                        " | ".join(str(i + 1) for i in range(mesh.dimension)))
    blocks = [np.asarray([int(tok) - 1 for tok in blk.split()], dtype=int)
              for blk in part_text.split("|") if blk.strip()]
    weights = [_primitive(sec.pop(f"weight.{j}", "constant 1.0"), mesh.barycenters, mesh)
               for j in range(1, len(blocks) + 1)]
    return LerayLionsOperator(exponent, blocks, weights)


def _source(sec: dict, mesh: Mesh) -> Optional[SourceTerm]:
    word = sec.pop("enabled", "false")
    if word.lower() not in _BOOLEANS:
        raise ParseError(f"[source] enabled = {word!r} must be one of "
                         f"{', '.join(_BOOLEANS)}")
    if not _BOOLEANS[word.lower()]:
        return None
    gamma = float(sec.pop("gamma", "1.0"))
    beta = float(sec.pop("beta", "0.0"))
    g = _primitive(sec.pop("g", "constant 1.0"), mesh.barycenters, mesh)
    return SourceTerm(g, boundary_distance_field(mesh), gamma, beta)


def _potential(sec: dict, mesh: Mesh, horizon: float) -> PotentialField:
    pts = mesh.barycenters
    kind = sec.pop("kind", "constant")
    knots = []  # a tabulated h takes its extremes at its knots; h(inf) is its limit
    if kind == "tabulated":
        times = np.asarray(_floats(sec.pop("times")))
        if times.size < 2 or not (np.all(np.isfinite(times))
                                  and np.all(np.diff(times) > 0)):
            raise ParseError(f"[potential] times must be finite and increasing, "
                             f"got {times.tolist()}")
        profiles = np.stack([_primitive(sec.pop(f"profile.{i}"), pts, mesh)
                             for i in range(1, times.size + 1)])

        def evaluator(ts):
            ts = np.clip(ts, times[0], times[-1])
            i = np.minimum(np.searchsorted(times, ts, side="right") - 1, len(times) - 2)
            w = ((ts - times[i]) / (times[i + 1] - times[i]))[:, None]
            return (1.0 - w) * profiles[i] + w * profiles[i + 1]

        sup = float(np.abs(profiles).max())
        limit, knots = profiles[-1], times.tolist()
    elif kind in ("constant", "decaying"):
        profile = _primitive(sec.pop("profile", "bump 1.0"), pts, mesh)
        limit = profile
        if kind == "decaying":  # toward the limit at rate (1+t)^-(1+eta)
            eta = float(sec.pop("eta", "0.5"))
            if not eta > -1.0:
                raise ParseError(f"[potential] eta = {eta} must exceed -1, or h "
                                 f"does not decay to its profile")

            def evaluator(ts):
                # a scalar power per time: numpy's array power can differ
                # from it in the last bit
                factor = [1.0 + (1.0 + t) ** (-(1.0 + eta)) for t in ts.tolist()]
                return profile * np.array(factor)[:, None]

            sup = float(2.0 * np.abs(profile).max())
    else:
        raise ParseError(f"unknown potential kind '{kind}'")
    envelope = sec.pop("lower_envelope", None)
    envelope = limit if envelope is None else _primitive(envelope, pts, mesh)
    pot = (PotentialField.constant(limit, envelope) if kind == "constant"
           else PotentialField(evaluator, envelope, sup, limit=limit))
    pot.check_envelope([*np.linspace(0.0, max(horizon, 1e-9), 7), *knots, np.inf])
    return pot


def _initial(sec: dict, mesh: Mesh) -> DiscreteField:
    if "file" in sec:
        return DiscreteField(mesh, read_field_csv(sec.pop("file"), mesh.vertices,
                                                  "mesh vertices"))
    profile = sec.pop("profile", "bump 0.5")
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
        # each reader pops the keys it reads, so a key left over is one dne
        # ignores; dict() interpolates every value, and may fail on a stray %
        sections = defaultdict(dict, {name: dict(sec) for name, sec in cp.items()})
    except configparser.Error as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
    try:
        run = sections["run"]
        horizon = float(run.pop("horizon", "1.0"))
        # before the potential is sampled on [0, horizon]
        if not np.isfinite(horizon):
            raise ParseError(f"[run] horizon = {horizon} must be finite")
        mesh = _mesh(sections["mesh"])
        op = _operator(sections["operator"], mesh, _exponent(sections["exponent"], mesh))
        q = float(sections["problem"].pop("q", "1.25"))
        setup = EvolutionSetup(
            mesh, op, q, _source(sections["source"], mesh),
            _potential(sections["potential"], mesh, horizon), horizon,
            int(run.pop("steps", "20")), _initial(sections["initial"], mesh))
        # solve-elliptic and every solve of a lambda sweep need lambda > 0
        lam = float(run.pop("lambda", "1.0"))
        if not 0.0 < lam < np.inf:
            raise ParseError(f"[run] lambda = {lam} must be positive and finite")
        # the seed feeds numpy's SeedSequence, which takes no negative entropy
        seed = int(run.pop("seed", "20240801"))
        if seed < 0:
            raise ParseError(f"[run] seed = {seed} must be nonnegative")
        stride = int(run.pop("store_stride", "1"))
        if stride < 1:
            raise ParseError(f"[run] store_stride = {stride} must be at least 1")
        sweep = sections["sweep"]
        kind = sweep.pop("kind", None)
        if kind not in _SWEEP_LISTS:
            raise ParseError(f"unknown sweep kind '{kind}'")
        # a finite p <= 1 or q outside (1, p) is an `invalid` grid row, not an error
        lists = {key: _floats(sweep.pop(key, "")) for key in _SWEEP_LISTS[kind]}
        for key, low in _SWEEP_LISTS[kind].items():
            if not (lists[key] and all(low < v < np.inf for v in lists[key])):
                raise ParseError(f"[sweep] {key} must list one or more values in "
                                 f"({low}, inf), got {lists[key]}")
        leftover = [f"[{name}] {key}" for name, sec in sections.items() for key in sec]
        if leftover:
            raise ParseError(f"{leftover[0]} is not a setting dne reads")
        return Scenario(
            raw_text=raw, setup=setup, lam=lam, seed=seed, store_stride=stride,
            sweep_kind=kind, sweep_lambdas=lists.get("lambdas", []),
            sweep_p_values=lists.get("p_values", []),
            sweep_q_values=lists.get("q_values", []))
    except (ParseError, ValidationError):
        raise
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc
