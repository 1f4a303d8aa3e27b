"""Scenario configuration: a flat, sectioned key-value format.

Values are scalars, space-separated lists, or named function primitives
(`constant c`, `affine a0 ax [ay]`, `bump s`, `sin-product s`,
`power-of-delta s e`).  Every hypothesis the solver relies on is re-validated
at load time and violations raise a ValidationError naming the violated tag.
The full grammar is documented in the README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .evolution import EvolutionSetup
from .io_utils import field_from_csv, read_field_csv
from .meshing import (DiscreteField, Mesh, _distance, boundary_distance_field,
                      interpolate, interval_mesh, rectangle_mesh)
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


def _axis_bounds(mesh: Mesh):
    if mesh.dimension == 1:
        return [(mesh.bounds[0], mesh.bounds[1])]
    return [(mesh.bounds[0], mesh.bounds[1]), (mesh.bounds[2], mesh.bounds[3])]


def _unit_bump(points, mesh):
    out = np.ones(points.shape[0])
    for axis, (lo, hi) in enumerate(_axis_bounds(mesh)):
        out = out * 4.0 * (points[:, axis] - lo) * (hi - points[:, axis]) / (hi - lo) ** 2
    return out


def _sin_product(points, mesh):
    out = np.ones(points.shape[0])
    for axis, (lo, hi) in enumerate(_axis_bounds(mesh)):
        out = out * np.sin(np.pi * (points[:, axis] - lo) / (hi - lo))
    return out


@dataclass
class Scenario:
    """Parsed and validated run description; builders construct the runtime
    objects lazily and cache the mesh."""

    raw_text: str
    dimension: int
    extents: List[float]
    resolution: List[int]
    exponent_kind: str
    exponent_params: dict
    partition: List[List[int]]
    weight_primitives: List[Primitive]
    q: float
    source_enabled: bool
    source_g: Optional[Primitive]
    source_gamma: float
    source_beta: float
    potential_kind: str
    potential_profile: Optional[Primitive]
    potential_eta: float
    potential_times: List[float]
    potential_profiles: List[Primitive]
    lower_envelope: Optional[Primitive]
    initial_profile: Optional[Primitive]
    initial_file: Optional[str]
    horizon: float
    steps: int
    lam: float
    seed: int
    store_stride: int
    sweep_kind: Optional[str]
    sweep_lambdas: List[float]
    sweep_p_values: List[float]
    sweep_q_values: List[float]
    _mesh: Optional[Mesh] = field(default=None, repr=False)

    # -- builders ----------------------------------------------------------
    def build_mesh(self) -> Mesh:
        if self._mesh is None:
            if self.dimension == 1:
                self._mesh = interval_mesh(self.extents[0], self.extents[1],
                                           self.resolution[0])
            else:
                self._mesh = rectangle_mesh(self.extents[0], self.extents[1],
                                            self.extents[2], self.extents[3],
                                            self.resolution[0], self.resolution[1])
        return self._mesh

    def build_exponent(self, mesh: Mesh) -> ExponentField:
        pts = mesh.barycenters
        if self.exponent_kind == "constant":
            vals = np.full(mesh.n_elements, self.exponent_params["value"])
        elif self.exponent_kind == "affine":
            vals = np.full(mesh.n_elements, self.exponent_params["value"])
            slope = self.exponent_params["slope"]
            for axis in range(min(mesh.dimension, len(slope))):
                vals = vals + slope[axis] * pts[:, axis]
        else:
            _, vals = read_field_csv(self.exponent_params["file"])
            if vals.size != mesh.n_elements:
                raise ValidationError("1 < p_-", "tabulated exponent size does not "
                                      "match the element count")
        try:
            return ExponentField.from_values(vals)
        except ValueError as exc:
            raise ValidationError("1 < p_-", str(exc)) from exc

    def build_operator(self, mesh: Mesh) -> LerayLionsOperator:
        exponent = self.build_exponent(mesh)
        blocks = [np.asarray(b, dtype=int) for b in self.partition]
        flat = sorted(int(i) for b in blocks for i in b)
        if flat != list(range(mesh.dimension)):
            raise ValidationError("(A_0)", "partition must cover every mesh axis "
                                  "exactly once")
        weights = []
        for prim in self.weight_primitives:
            w = prim(mesh.barycenters, mesh)
            if w.min() <= 0.0:
                raise ValidationError("(A_1)", "operator weights must satisfy "
                                      "g_j(x) >= c > 0")
            weights.append(w)
        return LerayLionsOperator.from_blocks(exponent, blocks, weights)

    def build_source(self, mesh: Mesh) -> Optional[SourceTerm]:
        if not self.source_enabled:
            return None
        if not (0.0 <= self.source_beta < self.q - 1.0):
            raise ValidationError("(f_1)", f"beta = {self.source_beta} must lie in "
                                  f"[0, q-1) = [0, {self.q - 1.0})")
        if not (self.source_beta + self.source_gamma > self.q - 1.5):
            raise ValidationError("(f_2)", f"beta + gamma = "
                                  f"{self.source_beta + self.source_gamma} must "
                                  f"exceed q - 3/2 = {self.q - 1.5}")
        g = self.source_g(mesh.barycenters, mesh)
        if g.min() < 0.0:
            raise ValidationError("(f_0)", "source weight g must be nonnegative")
        delta = boundary_distance_field(mesh).quadrature
        return SourceTerm(g, delta, self.source_gamma, self.source_beta, self.q)

    def build_potential(self, mesh: Mesh) -> PotentialField:
        pts = mesh.barycenters
        if self.potential_kind == "tabulated":
            times = np.asarray(self.potential_times, dtype=float)
            profiles = np.stack([p(pts, mesh) for p in self.potential_profiles])

            def evaluator(t, times=times, profiles=profiles):
                t = np.clip(t, times[0], times[-1])
                i = int(np.searchsorted(times, t, side="right") - 1)
                i = min(i, len(times) - 2)
                w = (t - times[i]) / (times[i + 1] - times[i])
                return (1.0 - w) * profiles[i] + w * profiles[i + 1]

            sup = float(np.abs(profiles).max())
            limit = profiles[-1]
        else:
            profile = self.potential_profile(pts, mesh)
            if self.potential_kind == "constant":
                evaluator = lambda t, profile=profile: profile
                sup = float(np.abs(profile).max())
                limit = profile
            else:  # decaying toward the limit at rate (1+t)^-(1+eta)
                eta = self.potential_eta

                def evaluator(t, profile=profile, eta=eta):
                    return profile * (1.0 + (1.0 + t) ** (-(1.0 + eta)))

                sup = float(2.0 * np.abs(profile).max())
                limit = profile
        if self.lower_envelope is not None:
            envelope = self.lower_envelope(pts, mesh)
        else:
            envelope = np.asarray(limit, dtype=float)
        if envelope.min() < 0.0 or not np.any(envelope > 0.0):
            raise ValidationError("(H_h)", "lower envelope must be nonnegative and "
                                  "not identically zero")
        sample_times = np.linspace(0.0, max(self.horizon, 1e-9), 7)
        try:
            pot = PotentialField(evaluator, envelope, sup, limit=limit)
            pot.check_envelope(sample_times)
        except ValueError as exc:
            raise ValidationError("(H_h)", str(exc)) from exc
        return pot

    def build_initial(self, mesh: Mesh) -> DiscreteField:
        if self.initial_file is not None:
            return field_from_csv(mesh, self.initial_file)
        prim = self.initial_profile
        return interpolate(mesh, lambda pts: prim(pts, mesh))

    def build_evolution_setup(self) -> EvolutionSetup:
        mesh = self.build_mesh()
        op = self.build_operator(mesh)
        self._check_q(op)
        return EvolutionSetup.create(
            mesh, op, self.q, self.build_source(mesh), self.build_potential(mesh),
            self.horizon, self.steps, self.build_initial(mesh),
            store_stride=self.store_stride)

    def _check_q(self, op: LerayLionsOperator) -> None:
        if not (1.0 < self.q < op.exponent.p_minus):
            raise ValidationError("q ∈ (1, p_-)", f"q = {self.q} is outside "
                                  f"(1, {op.exponent.p_minus})")

    def validate(self) -> None:
        """Run every hypothesis check without solving anything."""
        self.build_evolution_setup()


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    return dict(cp[name]) if cp.has_section(name) else {}


def _floats(text: str) -> List[float]:
    return [float(p) for p in text.split()]


def _ints(text: str) -> List[int]:
    return [int(p) for p in text.split()]


def load_scenario(path: str) -> Scenario:
    """Parse and validate; distinct errors for malformed files (ParseError) and
    violated hypotheses (ValidationError with the tag)."""
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
        mesh_sec = _section(cp, "mesh")
        dimension = int(mesh_sec.get("dimension", "1"))
        if dimension not in (1, 2):
            raise ParseError("dimension must be 1 or 2")
        extents = _floats(mesh_sec.get("extents", "0 1" if dimension == 1
                                       else "0 1 0 1"))
        if len(extents) != 2 * dimension:
            raise ParseError("extents must list 2 values per axis")
        res = _ints(mesh_sec.get("resolution", "100"))
        if dimension == 2 and len(res) == 1:
            res = [res[0], res[0]]
        if len(res) != dimension:
            raise ParseError("resolution must list one value per axis")

        exp_sec = _section(cp, "exponent")
        exponent_kind = exp_sec.get("kind", "constant")
        if exponent_kind not in ("constant", "affine", "tabulated"):
            raise ParseError(f"unknown exponent kind '{exponent_kind}'")
        exponent_params: dict = {}
        if exponent_kind in ("constant", "affine"):
            exponent_params["value"] = float(exp_sec.get("value", "2.0"))
        if exponent_kind == "affine":
            exponent_params["slope"] = _floats(exp_sec.get("slope", "0"))
        if exponent_kind == "tabulated":
            exponent_params["file"] = exp_sec["file"]

        op_sec = _section(cp, "operator")
        part_text = op_sec.get("partition",
                               " | ".join(str(i + 1) for i in range(dimension)))
        partition = [[int(tok) - 1 for tok in blk.split()]
                     for blk in part_text.split("|") if blk.strip()]
        weights = []
        for j in range(1, len(partition) + 1):
            weights.append(Primitive.parse(op_sec.get(f"weight.{j}", "constant 1.0")))

        prob_sec = _section(cp, "problem")
        q = float(prob_sec.get("q", "1.25"))

        src_sec = _section(cp, "source")
        source_enabled = src_sec.get("enabled", "false").lower() in ("1", "true", "yes")
        source_g = Primitive.parse(src_sec.get("g", "constant 1.0")) if source_enabled else None
        source_gamma = float(src_sec.get("gamma", "1.0"))
        source_beta = float(src_sec.get("beta", "0.0"))

        pot_sec = _section(cp, "potential")
        potential_kind = pot_sec.get("kind", "constant")
        if potential_kind not in ("constant", "decaying", "tabulated"):
            raise ParseError(f"unknown potential kind '{potential_kind}'")
        potential_profile = None
        potential_times: List[float] = []
        potential_profiles: List[Primitive] = []
        if potential_kind == "tabulated":
            potential_times = _floats(pot_sec["times"])
            if len(potential_times) < 2 or np.any(np.diff(potential_times) <= 0):
                raise ParseError("tabulated potential needs increasing times")
            for i in range(1, len(potential_times) + 1):
                potential_profiles.append(Primitive.parse(pot_sec[f"profile.{i}"]))
        else:
            potential_profile = Primitive.parse(pot_sec.get("profile", "bump 1.0"))
        potential_eta = float(pot_sec.get("eta", "0.5"))
        lower_envelope = (Primitive.parse(pot_sec["lower_envelope"])
                          if "lower_envelope" in pot_sec else None)

        init_sec = _section(cp, "initial")
        initial_file = init_sec.get("file")
        initial_profile = (Primitive.parse(init_sec.get("profile", "bump 0.5"))
                           if initial_file is None else None)

        run_sec = _section(cp, "run")
        horizon = float(run_sec.get("horizon", "1.0"))
        steps = int(run_sec.get("steps", "20"))
        lam = float(run_sec.get("lambda", "1.0"))
        seed = int(run_sec.get("seed", "20240801"))
        if "tolerance" in run_sec:
            raise ParseError("[run] tolerance was removed: the solver tolerance "
                             "is fixed")
        store_stride = int(run_sec.get("store_stride", "1"))

        sweep_sec = _section(cp, "sweep")
        sweep_kind = sweep_sec.get("kind")
        sweep_lambdas = _floats(sweep_sec.get("lambdas", "")) if sweep_sec else []
        sweep_p_values = _floats(sweep_sec.get("p_values", "")) if sweep_sec else []
        sweep_q_values = _floats(sweep_sec.get("q_values", "")) if sweep_sec else []
    except ParseError:
        raise
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed scenario file {path}: {exc}") from exc

    scenario = Scenario(
        raw_text=raw, dimension=dimension, extents=extents, resolution=res,
        exponent_kind=exponent_kind, exponent_params=exponent_params,
        partition=partition, weight_primitives=weights, q=q,
        source_enabled=source_enabled, source_g=source_g,
        source_gamma=source_gamma, source_beta=source_beta,
        potential_kind=potential_kind, potential_profile=potential_profile,
        potential_eta=potential_eta, potential_times=potential_times,
        potential_profiles=potential_profiles, lower_envelope=lower_envelope,
        initial_profile=initial_profile, initial_file=initial_file,
        horizon=horizon, steps=steps, lam=lam, seed=seed,
        store_stride=store_stride, sweep_kind=sweep_kind,
        sweep_lambdas=sweep_lambdas, sweep_p_values=sweep_p_values,
        sweep_q_values=sweep_q_values)
    try:
        scenario.validate()
    except ValidationError:
        raise
    except ValueError as exc:
        raise ParseError(f"invalid scenario file {path}: {exc}") from exc
    return scenario
