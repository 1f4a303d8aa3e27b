"""Command line driver: scenario runs, verification suite, parameter sweeps."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import List, Optional

import numpy as np

from . import checks as ck
from .elliptic import (EllipticProblem, FailedToFit, NonConvergence, bump_seed,
                       make_subsolution, make_supersolution, solve,
                       solve_lambda_problem, solve_stationary)
from .evolution import EvolutionSetup, evolve
from .io_utils import atomic_write_text, write_field_csv, write_json
from .meshing import DiscreteField, l2_norm_diff_power
from .operators import (ExponentField, LerayLionsOperator, PotentialField,
                        classify_regime, seeded_rng)
from .scenario import ParseError, Scenario, ValidationError, load_scenario

DEFAULT_CHECKS = [
    "alg-inequality", "picone", "picone-pair", "lambda-scaling", "positivity-hopf",
    "contraction-elliptic", "contraction-parabolic", "sandwich", "monotone",
    "stabilization",
]


def _manifest_base(scenario: Scenario, seed: int) -> dict:
    exponent, q = scenario.setup.op.exponent, scenario.setup.q
    return {
        "config_echo": scenario.raw_text,
        "seed": seed,
        "regime": classify_regime(exponent, q).value,
        "p_minus": exponent.p_minus,
        "p_plus": exponent.p_plus,
        "q": q,
    }


def run_solve_elliptic(scenario: Scenario, out_dir: str, seed: int) -> int:
    setup = scenario.setup
    problem = EllipticProblem.standard(setup.mesh, setup.op, setup.q, scenario.lam,
                                       setup.potential(0.0), setup.source)
    field_, report = solve(problem, bump_seed(setup.mesh))
    write_field_csv(field_, os.path.join(out_dir, "solution.csv"))
    manifest = _manifest_base(scenario, seed)
    manifest["solver_report"] = dataclasses.asdict(report)
    manifest["sup_norm"] = field_.sup_norm
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


def run_stationary(scenario: Scenario, out_dir: str, seed: int) -> int:
    setup = scenario.setup
    v_stat = solve_stationary(setup.mesh, setup.op, setup.q, setup.potential.limit,
                              setup.source)
    write_field_csv(v_stat, os.path.join(out_dir, "stationary.csv"))
    manifest = _manifest_base(scenario, seed)
    manifest["sup_norm"] = v_stat.sup_norm
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


def run_evolve(scenario: Scenario, out_dir: str, seed: int) -> int:
    setup = scenario.setup
    traj = evolve(setup)
    for pos, n in enumerate(traj.stored_indices):
        write_field_csv(traj.fields[pos], os.path.join(out_dir, f"field_{n:05d}.csv"))
    v_stat = solve_stationary(setup.mesh, setup.op, setup.q, setup.potential.limit,
                              setup.source)
    e_final = l2_norm_diff_power(traj.final, v_stat, setup.q)
    manifest = _manifest_base(scenario, seed)
    manifest.update({
        "times": traj.times.tolist(),
        "stored_indices": traj.stored_indices,
        "dissipation_ok": traj.dissipation_ok,
        "dissipation_margin": traj.dissipation_margin,
        "sandwich_constant": setup.sandwich_constant,
        "stabilization_error_final": e_final,
        "diagnostics": [{
            "index": d.index, "time": d.time,
            "increment_norm": d.increment_norm,
            "stationary_energy": d.stationary_energy,
            "solver": dataclasses.asdict(d.report),
        } for d in traj.diagnostics],
    })
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


def run_verify(scenario: Scenario, out_dir: str, names: Optional[List[str]],
               seed: int) -> int:
    """Run the named checks (default suite if none) against one setup.

    The shortened base run, the sub/supersolution bracket and the stationary
    solution are each computed at most once and shared by the checks."""
    names = names or DEFAULT_CHECKS
    unknown = [name for name in names if name not in DEFAULT_CHECKS]
    if unknown:
        raise ParseError(f"unknown check '{unknown[0]}' "
                         f"(available: {', '.join(DEFAULT_CHECKS)})")
    setup = scenario.setup
    mesh, op, source, potential = setup.mesh, setup.op, setup.source, setup.potential
    q = setup.q
    r_mid = (1.0 + op.exponent.p_minus) / 2.0
    short_steps = min(setup.steps, 50)

    def short_run(initial, pot=potential):
        """The first (at most) 50 steps, same dt, every step stored."""
        return evolve(EvolutionSetup.create(mesh, op, q, source, pot,
                                            setup.dt * short_steps, short_steps,
                                            initial))

    @functools.cache
    def base_run():
        return short_run(setup.initial)

    @functools.cache
    def bracket():
        w_lo, _ = make_subsolution(mesh, op, q, source, potential.lower_envelope,
                                   setup.initial)
        w_hi, _ = make_supersolution(mesh, op, q, source, potential.sup_norm,
                                     setup.initial)
        return w_lo, w_hi

    @functools.cache
    def stationary():
        return solve_stationary(mesh, op, q, potential.limit, source)

    def picone_pair():
        rng = seeded_rng(seed, "picone-pair-fields")
        worst = None
        for _ in range(8):
            w1 = _positive_field(mesh, rng)
            w2 = _positive_field(mesh, rng)
            rep = ck.check_picone_pair(mesh, op, r_mid, w1, w2)
            if worst is None or rep.worst_margin < worst.worst_margin:
                worst = rep
        return [worst]

    def lambda_scaling():
        op_const = LerayLionsOperator.from_blocks(
            ExponentField.constant(mesh.n_elements, op.exponent.p_minus),
            op.partition, list(op.weights))
        return [ck.check_lambda_scaling(mesh, op_const, [0.5, 1.0, 2.0, 4.0])]

    def contraction_elliptic():
        h1 = potential(0.0)
        return [ck.check_contraction_elliptic(mesh, op, q, scenario.lam, source,
                                              h1, h1 + 0.1)]

    def contraction_parabolic():
        shrunk = setup.initial.with_values(0.7 * setup.initial.values)
        return [ck.check_contraction_parabolic(base_run(), short_run(shrunk),
                                               potential, potential)]

    def monotone():
        # time monotonicity from a sub/supersolution needs an h that does not
        # depend on t: both runs use the potential's large-time limit
        w_lo, w_hi = bracket()
        frozen = PotentialField.constant(potential.limit)
        return [ck.check_monotone_run(short_run(w_lo, frozen), "nondecreasing"),
                ck.check_monotone_run(short_run(w_hi, frozen), "nonincreasing")]

    checks = {
        "alg-inequality": lambda: [ck.check_alg_inequality(q, seed=seed)],
        "picone": lambda: [ck.check_picone(mesh, op, r_mid, seed=seed)],
        "picone-pair": picone_pair,
        "lambda-scaling": lambda_scaling,
        "positivity-hopf": lambda: [ck.check_positivity_hopf(stationary())],
        "contraction-elliptic": contraction_elliptic,
        "contraction-parabolic": contraction_parabolic,
        "sandwich": lambda: [ck.check_sandwich(base_run(), *bracket())],
        "monotone": monotone,
        "stabilization": lambda: [ck.check_stabilization(
            evolve(setup), stationary(), potential)],
    }
    reports = [rep for name in names for rep in checks[name]()]
    payload = [dataclasses.asdict(r) for r in reports]
    write_json(payload, os.path.join(out_dir, "report.json"))
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.check_name:24s} worst margin {r.worst_margin:+.3e}  "
              f"({r.location})")
    return 1 if failed else 0


def _positive_field(mesh, rng):
    """Random strictly positive interior field for the paired-comparison loop."""
    vals = np.zeros(mesh.n_vertices)
    interior = mesh.interior
    scale = float(rng.uniform(0.5, 2.0))
    base = np.abs(np.sin(np.pi * (mesh.vertices[interior, 0] - mesh.bounds[0])
                         / (mesh.bounds[1] - mesh.bounds[0])))
    vals[interior] = scale * (0.2 + base + rng.uniform(0.0, 0.3, interior.size))
    return DiscreteField(mesh, vals)


def run_sweep(scenario: Scenario, out_dir: str, seed: int) -> int:
    mesh, op = scenario.setup.mesh, scenario.setup.op
    manifest = _manifest_base(scenario, seed)
    lines = []
    if scenario.sweep_kind == "lambda":
        sups = []
        for lam in scenario.sweep_lambdas:
            w = solve_lambda_problem(lam, mesh, op)
            sups.append(w.sup_norm)
            lines.append(f"{lam!r},{w.sup_norm!r}")
        header = "# columns: lambda,sup_norm"
        if op.exponent.is_constant and len(sups) >= 3:
            slope = float(np.polyfit(np.log(scenario.sweep_lambdas),
                                     np.log(sups), 1)[0])
            manifest["fitted_slope"] = slope
            manifest["expected_slope"] = 1.0 / (op.exponent.p_minus - 1.0)
    elif scenario.sweep_kind == "pq":
        # the grid q generally breaks the scenario source's (f_1)/(f_2)
        # constraints, so the stationary solves run without the source term
        header = "# columns: p,q,regime,stationary_sup_norm"
        limit = scenario.setup.potential.limit
        for p in scenario.sweep_p_values:
            for qv in scenario.sweep_q_values:
                if not (1.0 < qv < p):
                    lines.append(f"{p!r},{qv!r},invalid,nan")
                    continue
                exponent = ExponentField.constant(mesh.n_elements, p)
                op_pq = LerayLionsOperator.isotropic(exponent, 1.0, mesh.dimension)
                regime = classify_regime(exponent, qv).value
                v = solve_stationary(mesh, op_pq, qv, limit, None)
                lines.append(f"{p!r},{qv!r},{regime},{v.sup_norm!r}")
    else:
        raise ParseError("scenario has no [sweep] section or unknown sweep kind")
    atomic_write_text(os.path.join(out_dir, "summary.csv"),
                      "\n".join([header] + lines) + "\n")
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return 0


def run(command: str, scenario: Scenario, out_dir: str,
        checks: Optional[List[str]] = None, seed: Optional[int] = None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    actual_seed = seed if seed is not None else scenario.seed
    if command == "solve-elliptic":
        return run_solve_elliptic(scenario, out_dir, actual_seed)
    if command == "stationary":
        return run_stationary(scenario, out_dir, actual_seed)
    if command == "evolve":
        return run_evolve(scenario, out_dir, actual_seed)
    if command == "verify":
        return run_verify(scenario, out_dir, checks, actual_seed)
    if command == "sweep":
        return run_sweep(scenario, out_dir, actual_seed)
    raise ParseError(f"unknown command '{command}'")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dne",
        description="Doubly nonlinear p(x)-diffusion: elliptic and parabolic "
                    "solves plus the verification suite.")
    parser.add_argument("command", choices=["solve-elliptic", "evolve",
                                            "stationary", "verify", "sweep"])
    parser.add_argument("--config", required=True, help="scenario file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--check", action="append", default=None,
                        help="verify: run this named check (repeatable)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        return run(args.command, scenario, args.out, checks=args.check,
                   seed=args.seed)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, FailedToFit) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
