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
from .elliptic import EllipticProblem, NonConvergence, solve
from .evolution import (EvolutionSetup, Run, diagnose, make_subsolution,
                        make_supersolution)
from .io_utils import atomic_open, field_to_csv, write_json
from .meshing import DiscreteField, l2_norm_diff_power
from .operators import (ExponentField, LerayLionsOperator, PotentialField,
                        classify_regime)
from .scenario import ParseError, Scenario, ValidationError, load_scenario

DEFAULT_CHECKS = [
    "alg-inequality", "picone", "picone-pair", "lambda-scaling", "positivity-hopf",
    "contraction-elliptic", "contraction-parabolic", "sandwich", "monotone",
    "stabilization",
]


def _stationary_state(setup: EvolutionSetup) -> DiscreteField:
    """The stationary state runs of `setup` settle to, at the potential's limit."""
    return solve(EllipticProblem.stationary(setup.mesh, setup.op, setup.q,
                                            setup.potential.limit, setup.source))[0]


def run_solve_elliptic(scenario: Scenario, out_dir: str) -> dict:
    setup = scenario.setup
    problem = EllipticProblem.standard(setup.mesh, setup.op, setup.q, scenario.lam,
                                       setup.potential(0.0), setup.source)
    field_, report = solve(problem)
    with atomic_open(os.path.join(out_dir, "solution.csv")) as handle:
        handle.write(field_to_csv(field_))
    return {"solver_report": vars(report), "sup_norm": field_.sup_norm}


def run_stationary(scenario: Scenario, out_dir: str) -> dict:
    v_stat = _stationary_state(scenario.setup)
    with atomic_open(os.path.join(out_dir, "stationary.csv")) as handle:
        handle.write(field_to_csv(v_stat))
    return {"sup_norm": v_stat.sup_norm}


def run_evolve(scenario: Scenario, out_dir: str) -> dict:
    setup = scenario.setup
    run = Run(setup)
    # each field is written as the run reaches it; the stride never drops the last.
    # A repeated step returns the same field object, so a field that is the one
    # written last reuses its text
    stored = sorted({*range(0, setup.steps + 1, scenario.store_stride), setup.steps})
    written = text = None
    for n in stored:
        field_ = run.head(n).final
        if field_ is not written:
            written, text = field_, field_to_csv(field_)
        with atomic_open(os.path.join(out_dir, f"field_{n:05d}.csv")) as handle:
            handle.write(text)
    traj = run.head()
    diagnostics, margin = diagnose(traj)
    e_final = l2_norm_diff_power(traj.final, _stationary_state(setup), setup.q)
    return {
        "times": traj.times.tolist(),
        "stored_indices": stored,
        "dissipation_ok": margin >= 0.0,
        "dissipation_margin": margin,
        "sandwich_constant": setup.sandwich_constant,
        "stabilization_error_final": e_final,
        "diagnostics": [{
            "index": n, "time": traj.times[n],
            "increment_norm": d.increment_norm,
            "stationary_energy": d.stationary_energy,
            "solver": vars(report),
        } for n, (d, report) in enumerate(zip(diagnostics, traj.reports), 1)],
    }


def run_verify(scenario: Scenario, out_dir: str, names: Optional[List[str]]) -> int:
    """Run the named checks (default suite if none) against one setup.

    The scenario's own datum is evolved once, only as far as the checks read
    (`sandwich` and `contraction-parabolic` its first 50 steps at most,
    `stabilization` all); that run, the sub/supersolution bracket and the
    stationary solution are each computed at most once and shared by the checks.
    No check draws its locations, so the report is the same for any
    `[run] seed`."""
    names = names or DEFAULT_CHECKS
    setup = scenario.setup
    mesh, op, potential = setup.mesh, setup.op, setup.potential
    q, r_mid = setup.q, (1.0 + op.exponent.p_minus) / 2.0
    short_steps = min(setup.steps, 50)

    scenario_run = Run(setup).head

    def short_run(initial, pot=potential):
        """The first (at most) 50 steps of another run, same dt."""
        return Run(dataclasses.replace(setup, potential=pot,
                                       initial=initial)).head(short_steps)

    @functools.cache
    def bracket():
        return make_subsolution(setup)[0], make_supersolution(setup)[0]

    stationary = functools.cache(functools.partial(_stationary_state, setup))

    def lambda_scaling():
        op_const = LerayLionsOperator(
            ExponentField.constant(mesh.n_elements, op.exponent.p_minus),
            op.partition, op.weights)
        return [ck.check_lambda_scaling(mesh, op_const, [0.5, 1.0, 2.0, 4.0])]

    def contraction_elliptic():
        h1 = potential(0.0)
        return [ck.check_contraction_elliptic(setup, scenario.lam, h1, h1 + 0.1)]

    def contraction_parabolic():
        shrunk = setup.initial.with_values(0.7 * setup.initial.values)
        return [ck.check_contraction_parabolic(scenario_run(short_steps),
                                               short_run(shrunk))]

    def monotone():
        # time monotonicity from a sub/supersolution needs an h that does not
        # depend on t: both runs use the potential's large-time limit
        w_lo, w_hi = bracket()
        frozen = PotentialField.constant(potential.limit)
        return [ck.check_monotone_run(short_run(w_lo, frozen), "nondecreasing"),
                ck.check_monotone_run(short_run(w_hi, frozen), "nonincreasing")]

    checks = {
        "alg-inequality": lambda: [ck.check_alg_inequality(q)],
        "picone": lambda: [ck.check_picone(mesh, op, r_mid)],
        "picone-pair": lambda: [ck.check_picone_pair(mesh, op, r_mid,
                                                     ck.pair_fields(mesh))],
        "lambda-scaling": lambda_scaling,
        "positivity-hopf": lambda: [ck.check_positivity_hopf(stationary())],
        "contraction-elliptic": contraction_elliptic,
        "contraction-parabolic": contraction_parabolic,
        "sandwich": lambda: [ck.check_sandwich(scenario_run(short_steps), *bracket())],
        "monotone": monotone,
        "stabilization": lambda: [ck.check_stabilization(scenario_run(), stationary())],
    }
    reports = [rep for name in names for rep in checks[name]()]
    write_json([vars(r) for r in reports], os.path.join(out_dir, "report.json"))
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.check_name:24s} worst margin {r.worst_margin:+.3e}  "
              f"({r.location})")
    return 1 if failed else 0


def run_sweep(scenario: Scenario, out_dir: str) -> dict:
    mesh, op = scenario.setup.mesh, scenario.setup.op
    entries = {}
    lines = []
    if scenario.sweep_kind == "lambda":
        sups = []
        for lam in scenario.sweep_lambdas:
            w = solve(EllipticProblem(mesh, op, load=np.full(mesh.n_elements, float(lam))))[0]
            sups.append(w.sup_norm)
            lines.append(f"{lam!r},{w.sup_norm!r}")
        header = "# columns: lambda,sup_norm"
        if op.exponent.is_constant and len(sups) >= 3:
            slope = float(np.polyfit(np.log(scenario.sweep_lambdas),
                                     np.log(sups), 1)[0])
            entries["fitted_slope"] = slope
            entries["expected_slope"] = 1.0 / (op.exponent.p_minus - 1.0)
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
                v = solve(EllipticProblem.stationary(mesh, op_pq, qv, limit))[0]
                lines.append(f"{p!r},{qv!r},{regime},{v.sup_norm!r}")
    else:
        raise ParseError("scenario has no [sweep] kind")
    with atomic_open(os.path.join(out_dir, "summary.csv")) as handle:
        handle.write("\n".join([header] + lines) + "\n")
    return entries


_COMMANDS = {
    "solve-elliptic": run_solve_elliptic,
    "evolve": run_evolve,
    "stationary": run_stationary,
    "verify": run_verify,
    "sweep": run_sweep,
}


def run(command: str, scenario: Scenario, out_dir: str,
        checks: Optional[List[str]] = None) -> int:
    """Run one command.  Every command but `verify` returns its own manifest
    entries, and `run` writes them with the entries common to all commands
    to `manifest.json`, after the command's own files."""
    if command not in _COMMANDS:
        raise ParseError(f"unknown command '{command}'")
    if checks is not None:
        if command != "verify":
            raise ParseError("--check applies only to verify")
        unknown = [name for name in checks if name not in DEFAULT_CHECKS]
        if unknown:
            raise ParseError(f"unknown check '{unknown[0]}' "
                             f"(available: {', '.join(DEFAULT_CHECKS)})")
        checks = list(dict.fromkeys(checks))
    if command == "verify":
        return run_verify(scenario, out_dir, checks)
    entries = _COMMANDS[command](scenario, out_dir)
    exponent, q = scenario.setup.op.exponent, scenario.setup.q
    write_json({"config_echo": scenario.raw_text, "seed": scenario.seed,
                "regime": classify_regime(exponent, q).value,
                "p_minus": exponent.p_minus, "p_plus": exponent.p_plus, "q": q,
                **entries}, os.path.join(out_dir, "manifest.json"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dne",
        description="Doubly nonlinear p(x)-diffusion: elliptic and parabolic "
                    "solves plus the verification suite.")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="scenario file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--check", action="append", default=None,
                        help="verify: run this named check (repeatable)")
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        return run(args.command, scenario, args.out, checks=args.check)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
