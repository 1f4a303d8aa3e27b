import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dne import cli, elliptic, evolution, meshing, operators
from dne.elliptic import (EllipticProblem, NonConvergence, bump_seed,
                          make_subsolution, make_supersolution, solve,
                          solve_stationary, source_terms)
from dne.evolution import (EvolutionSetup, Run, Trajectory, average_potential,
                           diagnose, step, time_integral_norm)
from dne.meshing import (DiscreteField, Mesh, _unit_bump, boundary_distance_field,
                         interpolate, interval_mesh, l2_norm_diff_power,
                         rectangle_mesh)
from dne.operators import (ExponentField, LerayLionsOperator, PotentialField,
                           SourceTerm, ValidationError)
from dne.scenario import load_scenario

from oracles import (change_of_variables_u, diagnose_per_step, energy, evolve,
                     per_time, seeded_rng, time_integral_norm_per_step, zero_field)

Q = 1.25
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def first_steps(config, steps):
    """The first `steps` steps of the shipped configs/<config>.cfg."""
    full = load_scenario(str(CONFIGS / f"{config}.cfg")).setup
    return EvolutionSetup(full.mesh, full.op, full.q, full.source,
                          full.potential, steps * full.dt, steps, full.initial)


def rebind(monkeypatch, module, name, replacement):
    """Rebind `module.name` there and wherever a `dne` module binds it, as a
    harness timing it does."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, replacement)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "dne" or mod_name.startswith("dne."):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    monkeypatch.setattr(mod, attr, replacement)


def count_calls(monkeypatch, module, name, counted=lambda: True):
    """Return the list that gets one entry per call of `module.name` made
    while `counted()` holds."""
    original, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        if counted():
            calls.append(1)
        return original(*args, **kwargs)

    rebind(monkeypatch, module, name, counting)
    return calls


def count_iterates(monkeypatch, counted=lambda: True):
    """Return the list that gets, per `elliptic._point` call made while
    `counted()` holds, the number of iterates whose element state it computes
    (the rows of a leading axis of iterates, else one)."""
    original, iterates = elliptic._point, []

    def counting(mesh, op, vals):
        if counted():
            iterates.append(len(vals) if np.ndim(vals) == 2 else 1)
        return original(mesh, op, vals)

    rebind(monkeypatch, elliptic, "_point", counting)
    return iterates


def with_repeats(traj, repeated):
    """`traj` with each step in `repeated` turned into a repeat of its
    predecessor: its field object and a copy of its report marked `repeated`."""
    fields, reports = [traj.fields[0]], []
    for n, (v, report) in enumerate(zip(traj.fields[1:], traj.reports), 1):
        if n in repeated:
            v, report = fields[-1], replace(reports[-1], repeated=True)
        fields.append(v)
        reports.append(report)
    return Trajectory(traj.times, fields, reports, traj.setup)


def outside_solve(monkeypatch):
    """A `counted` test for `count_calls`: no solve (`elliptic._solve`, which
    every solve runs) is running."""
    solve, inside = elliptic._solve, []

    def solving(*args, **kwargs):
        inside.append(1)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    rebind(monkeypatch, elliptic, "_solve", solving)
    return lambda: not inside


def fail_on_call(monkeypatch, n):
    """Make the n-th solve (`elliptic._solve` call) from here on raise
    NonConvergence."""
    solve, calls = elliptic._solve, []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise NonConvergence("injected failure")
        return solve(*args, **kwargs)

    rebind(monkeypatch, elliptic, "_solve", failing)


def make_setup(mesh, data, horizon, steps, scale=0.5):
    op, src, pot = data
    v0 = interpolate(mesh, lambda x: scale * np.sin(np.pi * x[:, 0]))
    return EvolutionSetup(mesh, op, Q, src, pot, horizon, steps, v0)


def step_average(h, n: int, dt: float) -> np.ndarray:
    """h^n of the one step n, the one row of its `average_potential` call."""
    return average_potential(h, np.array([n]), dt)[0]


class TestAveragePotential:
    def test_constant_in_time(self, mesh_1d, data_1d):
        _, _, pot = data_1d
        h1 = step_average(pot, 1, 0.25)
        np.testing.assert_allclose(h1, pot(0.0), rtol=1e-14)

    def test_linear_in_time_exact(self, mesh_1d):
        ne = mesh_1d.n_elements
        pot = PotentialField(per_time(lambda t: np.full(ne, 0.5 + t)), np.full(ne, 0.5), 1.5)
        h1 = step_average(pot, 1, 1.0)
        np.testing.assert_allclose(h1, 1.0, atol=1e-12)

    def test_sup_bound_over_window(self, mesh_1d, data_1d):
        op, src, _ = data_1d
        ne = mesh_1d.n_elements
        prof = np.ones(ne)
        pot = PotentialField(per_time(lambda t: prof * (1.0 + (1.0 + t) ** (-1.5))),
                             prof, 2.0, limit=prof)
        for n in range(1, 6):
            hn = step_average(pot, n, 0.5)
            assert hn.max() <= pot.sup_norm + 1e-12

    def test_rejects_step_zero(self, data_1d):
        _, _, pot = data_1d
        with pytest.raises(ValueError):
            average_potential(pot, np.array([0]), 0.1)
        with pytest.raises(ValueError):
            average_potential(pot, np.array([2, 0, 1]), 0.1)

    def test_gauss_rule_is_leggauss(self):
        # the written-out constants are numpy's 5-point rule, bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(5)
        assert evolution.GAUSS_NODES.tobytes() == nodes.tobytes()
        assert evolution.GAUSS_WEIGHTS.tobytes() == weights.tobytes()

    def test_rows_are_each_steps_average(self):
        # an array of steps evaluates the same times and accumulates the same
        # nodes in the same order as the 5-point Gauss-Legendre sum of one
        # step, written out here: bitwise the same rows
        pot = load_scenario(str(CONFIGS / "decaying_1d.cfg")).setup.potential
        steps, dt = np.array([1, 2, 7, 40, 41]), 0.05
        nodes, weights = np.polynomial.legendre.leggauss(5)
        rows = average_potential(pot, steps, dt)
        assert rows.shape == (steps.size, pot(0.0).size)
        for n, row in zip(steps.tolist(), rows, strict=True):
            acc = None
            for x, w in zip((nodes + 1.0) * dt / 2.0, weights):
                term = w * pot((n - 1) * dt + x)
                acc = term if acc is None else acc + term
            assert row.tobytes() == (acc / 2.0).tobytes()
            assert row.tobytes() == step_average(pot, n, dt).tobytes()


class TestStep:
    def test_stationary_fixed_point(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v_stat = solve_stationary(mesh_1d, op, Q, pot.limit, src)
        setup = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, v_stat)
        h1 = step_average(pot, 1, setup.dt)
        _, _, v1, report, _ = step(setup, v_stat, h1)
        assert report.converged
        assert l2_norm_diff_power(v1, v_stat, 1.0) <= 10 * 1e-10

    def test_order_preserved_between_runs(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        small = interpolate(mesh_1d, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        large = interpolate(mesh_1d, lambda x: 0.6 * np.sin(np.pi * x[:, 0]))
        s_small = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, small)
        h1 = step_average(pot, 1, s_small.dt)
        v1 = step(s_small, small, h1).field
        w1 = step(s_small, large, h1).field
        assert np.all(v1.values <= w1.values + 1e-8)

    def test_sandwich_preserved(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w_lo, _ = make_subsolution(mesh_1d, op, Q, src, pot.lower_envelope, v0)
        w_hi, _ = make_supersolution(mesh_1d, op, Q, src, pot.sup_norm, v0)
        setup = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, v0)
        h1 = step_average(pot, 1, setup.dt)
        v1 = step(setup, v0, h1).field
        assert np.all(v1.values >= w_lo.values - 1e-8)
        assert np.all(v1.values <= w_hi.values + 1e-8)


class TestEvolve:
    def test_tiny_horizon_continuity(self, mesh_1d, data_1d):
        setup = make_setup(mesh_1d, data_1d, horizon=1e-6, steps=1)
        traj = evolve(setup)
        assert l2_norm_diff_power(traj.final, setup.initial, 1.0) <= 1e-3

    def test_setup_requires_positive_initial(self, mesh_1d, data_1d):
        # one slightly negative node leaves every element mean positive; the
        # setup rejects it, not the first check that powers the run
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 2.0 * x[:, 0] * (1.0 - x[:, 0]))
        values = v0.values.copy()
        values[mesh_1d.n_vertices // 2] = -1e-3
        negative_node = v0.with_values(values)
        assert negative_node.barycenter_values().min() > 0.0
        for initial in (zero_field(mesh_1d), negative_node):
            with pytest.raises(ValueError):
                EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 4, initial)

    def test_setup_checks_the_source_against_its_q(self, mesh_1d, data_1d):
        # beta = 0.4 satisfies (f_1) for q = 1.5 but not for q = 1.25: the
        # source holds no q, and each setup checks it against its own
        op, _, pot = data_1d
        delta = boundary_distance_field(mesh_1d)
        src = SourceTerm(np.ones(mesh_1d.n_elements), delta, 1.0, 0.4)
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        assert EvolutionSetup(mesh_1d, op, 1.5, src, pot, 1.0, 4, v0).source is src
        with pytest.raises(ValidationError) as err:
            EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 4, v0)
        assert err.value.tag == "(f_1)"

    def test_setup_rejects_an_operator_sampled_on_another_mesh(self):
        # 30 operator points on a 20-element mesh: the setup says so, not the
        # first step's solve
        mesh = interval_mesh(0.0, 1.0, 20)
        op = LerayLionsOperator.isotropic(ExponentField.constant(30, 2.5), 1.0)
        pot = PotentialField.constant(np.ones(mesh.n_elements))
        v0 = interpolate(mesh, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        with pytest.raises(ValueError, match="operator does not match the mesh quadrature"):
            EvolutionSetup(mesh, op, Q, None, pot, 1.0, 4, v0)

    def test_every_step_problem_names_q_outside_its_range(self, mesh_1d, data_1d):
        # one check, in the step terms' builder, serves the setup and both
        # elliptic constructors
        op, _, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        h = np.ones(mesh_1d.n_elements)
        for build in (lambda: EvolutionSetup(mesh_1d, op, 3.0, None, pot, 1.0, 4, v0),
                      lambda: EllipticProblem.standard(mesh_1d, op, 3.0, 1.0, h),
                      lambda: EllipticProblem.stationary(mesh_1d, op, 3.0, h)):
            with pytest.raises(ValidationError, match=r"^\[q ∈ \(1, p_-\)\] "
                                                      r"q = 3.0 is outside \(1, 2.5\)$"):
                build()

    @pytest.mark.parametrize("horizon", [np.inf, np.nan], ids=["inf", "nan"])
    def test_setup_rejects_nonfinite_horizon(self, mesh_1d, data_1d, horizon):
        with pytest.raises(ValueError, match="finite horizon"):
            make_setup(mesh_1d, data_1d, horizon=horizon, steps=4)

    def test_distance_sandwich_along_run(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w_lo, _ = make_subsolution(mesh_1d, op, Q, src, pot.lower_envelope, v0)
        w_hi, _ = make_supersolution(mesh_1d, op, Q, src, pot.sup_norm, v0)
        delta = boundary_distance_field(mesh_1d)
        c = max(np.max(w_hi.barycenter_values() / delta),
                np.max(delta / w_lo.barycenter_values()))
        setup = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, v0)
        traj = evolve(setup)
        for f in traj.fields:
            vb = f.barycenter_values()
            assert np.all(vb <= c * delta + 1e-8)
            assert np.all(vb >= delta / c - 1e-8)

    def test_dissipation_bound_flag(self, mesh_1d, data_1d):
        setup = make_setup(mesh_1d, data_1d, horizon=1.0, steps=20)
        diagnostics, margin = diagnose(evolve(setup))
        assert len(diagnostics) == setup.steps
        assert margin >= 0.0

    def test_increment_sum_stable_under_dt_refinement(self, mesh_1d, data_1d):
        def inc_sum(steps):
            setup = make_setup(mesh_1d, data_1d, horizon=0.5, steps=steps, scale=0.3)
            diagnostics, _ = diagnose(evolve(setup))
            dt = 0.5 / steps
            return sum(dt * d.increment_norm ** 2 for d in diagnostics)

        coarse, fine = inc_sum(10), inc_sum(20)
        assert fine <= 2.0 * coarse and coarse <= 2.0 * fine

    def test_one_minimization_per_step(self, monkeypatch):
        setup = first_steps("default_1d", 20)
        minimize, calls = elliptic._minimize, []

        def counting(*args):
            calls.append([term.r for term in args[0].terms])
            return minimize(*args)

        monkeypatch.setattr(elliptic, "_minimize", counting)
        traj = evolve(setup)
        assert len(calls) == setup.steps
        # every step problem carries the mass term (v+)^2q
        assert all(2.0 * setup.q in powers for powers in calls)
        assert not any(r.fallback for r in traj.reports)

    def test_shipped_2d_steps_take_full_newton_directions(self):
        # every step Hessian of smoke_2d is positive definite, so no Newton
        # direction comes from the convex majorant
        traj = evolve(load_scenario(str(CONFIGS / "smoke_2d.cfg")).setup)
        assert len(traj.reports) == 10
        assert [r.majorant_directions for r in traj.reports] == [0] * 10

    def test_energy_evaluations_per_step(self, monkeypatch):
        # 50 near-stationary steps of default_1d: backtracking below the
        # energy's roundoff made 385 energy evaluations (7.7 per step);
        # skipping it makes 174 (3.5 per step)
        setup = first_steps("default_1d", 50)
        parts, calls = elliptic._energy_parts, []

        def counting(*args):
            calls.append(1)
            return parts(*args)

        monkeypatch.setattr(elliptic, "_energy_parts", counting)
        evolve(setup)
        assert len(calls) / setup.steps <= 5.0

    def test_one_element_pass_per_point(self, monkeypatch):
        # inside the solves of 50 default_1d steps every point visited gets
        # one element pass (`Mesh.means_and_gradients`), shared by the energy
        # (density a . grad v), gradient and Hessian there (recomputing it
        # per evaluation made 322 element_means and 396 gradient_of passes
        # for 124 energies), except the start of each solved step after the
        # first, whose state the previous solve handed over; the flux is
        # built from the operator blocks, so eval_flux and eval_A are never
        # called
        setup = first_steps("default_1d", 50)
        counts = {"means_and_gradients": 0, "_energy_parts": 0,
                  "eval_flux": 0, "eval_A": 0}
        inside = []

        def counting(name, inner):
            def wrapper(*args, **kwargs):
                if inside:
                    counts[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        solve = evolution._solve

        def solving(*args):
            inside.append(1)
            try:
                return solve(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(evolution, "_solve", solving)
        monkeypatch.setattr(Mesh, "means_and_gradients",
                            counting("means_and_gradients", Mesh.means_and_gradients))
        monkeypatch.setattr(elliptic, "_energy_parts",
                            counting("_energy_parts", elliptic._energy_parts))
        for name in ("eval_flux", "eval_A"):
            original = getattr(operators, name)
            for module in (operators, elliptic, evolution, meshing):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        traj = evolve(setup)
        handed = sum(not r.repeated for r in traj.reports) - 1
        assert counts["_energy_parts"] >= setup.steps
        assert counts["means_and_gradients"] == counts["_energy_parts"] - handed
        assert counts["eval_flux"] == 0
        assert counts["eval_A"] == 0

    def test_one_residual_per_gradient(self, monkeypatch):
        # each gradient's KKT residual is measured once: a floor step carries
        # the residual its test measured to the next iteration (measuring it
        # again made 1077 residuals for 973 gradients on the 400 steps of the
        # stabilize-1d benchmark, one more per floor step)
        setup = first_steps("decaying_1d", 50)
        residuals = count_calls(monkeypatch, elliptic, "_kkt_norm")
        gradients = count_calls(monkeypatch, elliptic, "_gradient_values")
        traj = evolve(setup)
        assert sum(r.floor_steps for r in traj.reports) > 0
        assert len(residuals) == len(gradients)

    def test_one_element_state_per_step(self, monkeypatch):
        # outside the solves, `evolve` reads the first step's start through
        # one element_means pass (in `step`); every later solved step reads
        # the means its previous solve handed over (one pass each before).
        # It computes no diagnostic: no gradient_of or eval_flux pass (the
        # diagnostics made one of each per step, plus one for the initial
        # datum)
        setup = first_steps("default_1d", 50)
        outside = outside_solve(monkeypatch)
        counts = {name: count_calls(monkeypatch, Mesh, name, outside)
                  for name in ("element_means", "gradient_of")}
        counts["eval_flux"] = count_calls(monkeypatch, operators, "eval_flux", outside)
        traj = evolve(setup)
        assert sum(not r.repeated for r in traj.reports) > 1
        assert len(counts["element_means"]) == 1
        assert counts["gradient_of"] == []
        assert counts["eval_flux"] == []

    def test_diagnostics_match_their_definitions(self):
        # bit for bit: the stationary energy of each step is the energy of
        # the stationary problem at h^n, and the increment norm is
        # ||v_n^q - v_{n-1}^q|| / dt
        setup = first_steps("default_1d", 50)
        traj = evolve(setup)
        diagnostics, margin = diagnose(traj)
        assert len(traj.fields) == setup.steps + 1
        assert len(diagnostics) == setup.steps
        for n, d in enumerate(diagnostics, 1):
            v_n, v_prev = traj.fields[n], traj.fields[n - 1]
            h_n = step_average(setup.potential, n, setup.dt)
            problem = EllipticProblem.stationary(setup.mesh, setup.op, setup.q,
                                                 h_n, setup.source)
            assert d.stationary_energy == energy(problem, v_n)
            assert d.increment_norm == l2_norm_diff_power(v_n, v_prev,
                                                          setup.q) / setup.dt
        # plain Python types, so the margin and the flag `evolve` writes
        # from it serialize as JSON
        assert type(margin >= 0.0) is bool
        assert type(margin) is float

    def test_step_failure_annotated(self, mesh_1d, data_1d, monkeypatch):
        monkeypatch.setitem(elliptic.DEFAULT_TOL, 1, 0.0)
        setup = make_setup(mesh_1d, data_1d, horizon=1.0, steps=4)
        with pytest.raises(NonConvergence) as err:
            evolve(setup)
        assert "step 1" in str(err.value)


class TestRun:
    def test_head_takes_each_step_once(self, mesh_1d, data_1d, monkeypatch):
        # a head reads the steps already taken and takes only the missing
        # ones; the whole run equals a run taken in one go
        setup = make_setup(mesh_1d, data_1d, horizon=1.0, steps=6)
        full = evolve(setup)
        steps = count_calls(monkeypatch, evolution, "step")
        run = Run(setup)
        first = run.head(3)
        assert len(steps) == 3
        shorter = run.head(2)
        assert len(steps) == 3
        traj = run.head()
        assert len(steps) == 6
        assert all(f is g for f, g in zip(shorter.fields, first.fields[:3], strict=True))
        assert all(f is g for f, g in zip(first.fields, traj.fields[:4], strict=True))
        assert run.head(0).fields[0] is setup.initial
        np.testing.assert_array_equal(traj.times, full.times)
        np.testing.assert_array_equal(first.times, full.times[:4])
        for f, g in zip(traj.fields, full.fields, strict=True):
            assert f.values.tobytes() == g.values.tobytes()
        assert traj.reports == full.reports
        for outside in (-1, 7):
            with pytest.raises(ValueError, match="steps 0..6"):
                run.head(outside)

    def test_failure_keeps_the_steps_taken(self, mesh_1d, data_1d, monkeypatch):
        setup = make_setup(mesh_1d, data_1d, horizon=1.0, steps=6)
        run = Run(setup)
        fail_on_call(monkeypatch, 3)
        with pytest.raises(NonConvergence, match="^step 3: "):
            run.head()
        taken = run.head(len(run.reports))
        assert len(taken.fields) == 3 and len(taken.reports) == 2
        np.testing.assert_array_equal(taken.times, [0.0, setup.dt, 2 * setup.dt])

    def test_failed_evolve_leaves_the_fields_before(self, tmp_path, capsys,
                                                    monkeypatch):
        # each stored field is written as the run reaches it, so a failure
        # at step 3 leaves the start and steps 1 and 2 on disk, and no manifest
        fail_on_call(monkeypatch, 3)
        out = tmp_path / "o"
        assert cli.main(["evolve", "--config", str(CONFIGS / "default_1d.cfg"),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("solver failure: step 3")
        assert sorted(p.name for p in out.iterdir()) == [
            "field_00000.csv", "field_00001.csv", "field_00002.csv"]

    @pytest.mark.parametrize("config, command, check, calls", [
        ("decaying_1d", "verify", "sandwich", 50),
        ("decaying_1d", "verify", "contraction-parabolic", 100),
        ("decaying_1d", "verify", "monotone", 100),
        ("decaying_1d", "verify", "stabilization", 2000),
        ("default_1d", "verify", None, 550),
        ("default_1d", "evolve", None, 400),
    ])
    def test_steps_taken_per_command(self, monkeypatch, tmp_path, config, command,
                                     check, calls):
        # a harness times each step by rebinding `evolution.step` wherever
        # `dne` binds it: a lone check takes only the steps it reads, the
        # default suite 400 + 3 x 50 steps and `evolve` every step
        scenario = load_scenario(str(CONFIGS / f"{config}.cfg"))
        steps = count_calls(monkeypatch, evolution, "step")
        assert cli.run(command, scenario, str(tmp_path / "o"),
                       checks=[check] if check else None) == 0
        assert len(steps) == calls
        if command == "evolve":
            assert calls == scenario.setup.steps


AVERAGED_POTENTIALS = {
    "constant": "kind = constant\nprofile = bump 1.0",
    "decaying": "kind = decaying\nprofile = bump 1.0\neta = 0.5",
    "tabulated": ("kind = tabulated\ntimes = 0 0.7 1.9 4\nprofile.1 = bump 1.0\n"
                  "profile.2 = bump 1.5\nprofile.3 = bump 0.8\nprofile.4 = bump 1.0\n"
                  "lower_envelope = bump 0.8"),
}


def averaged_setup(tmp_path, dimension, potential, steps):
    """A setup over 4 time units: 100 elements on an interval, or 2178 on a
    33 x 33 square, with one of AVERAGED_POTENTIALS."""
    mesh = ("dimension = 1\nextents = 0 1\nresolution = 100" if dimension == 1
            else "dimension = 2\nextents = 0 1 0 1\nresolution = 33")
    text = (f"[mesh]\n{mesh}\n[exponent]\nkind = constant\nvalue = 2.5\n"
            f"[problem]\nq = 1.25\n[potential]\n{AVERAGED_POTENTIALS[potential]}\n"
            f"[initial]\nprofile = bump 0.5\n"
            f"[run]\nhorizon = 4.0\nsteps = {steps}\n")
    path = tmp_path / "averaged.cfg"
    path.write_text(text)
    return load_scenario(str(path)).setup


class TestRunAverages:
    """`Run.head` averages the potential of the steps it takes a chunk of
    DIAGNOSTIC_ELEMENT_STEPS // n_elements steps (at least one) per
    `average_potential` call; each step gets bitwise the average of its own
    one-step call."""

    @pytest.mark.parametrize("potential", sorted(AVERAGED_POTENTIALS))
    @pytest.mark.parametrize("dimension, steps, heads, chunks", [
        # 40 steps a call on 100 elements: heads ending at 7 and 45 end mid-chunk
        (1, 100, [7, 45, 46, 100], [[7], [38], [1], [40, 14]]),
        # 2178 elements: one one-step call per step
        (2, 5, [2, 5], [[1] * 2, [1] * 3]),
    ])
    def test_rows_and_calls(self, tmp_path, monkeypatch, potential, dimension,
                            steps, heads, chunks):
        setup = averaged_setup(tmp_path, dimension, potential, steps)
        size = evolution.DIAGNOSTIC_ELEMENT_STEPS // setup.mesh.n_elements
        assert size == (40 if dimension == 1 else 1)
        average, calls, seen = evolution.average_potential, [], []

        def recording(h, steps, dt):
            calls.append(len(steps))
            return average(h, steps, dt)

        def no_solve(setup, previous, h_n, last=None):
            seen.append(h_n.tobytes())
            return evolution.Step(previous, h_n, previous, elliptic.SolverReport(),
                                  None)

        rebind(monkeypatch, evolution, "average_potential", recording)
        rebind(monkeypatch, evolution, "step", no_solve)
        run = Run(setup)
        for n, expected in zip(heads, chunks, strict=True):
            calls.clear()
            run.head(n)
            assert calls == expected
        assert seen == [step_average(setup.potential, k, setup.dt).tobytes()
                        for k in range(1, steps + 1)]


def averaged_potential_reference(potential, mesh):
    """h(t, .) of AVERAGED_POTENTIALS[potential] at one time, by the one-time
    formula of its kind (a decaying factor is a scalar power)."""
    bump = lambda s: s * _unit_bump(mesh.barycenters, mesh)
    if potential == "constant":
        return lambda t: bump(1.0)
    if potential == "decaying":
        return lambda t: bump(1.0) * (1.0 + (1.0 + t) ** (-(1.0 + 0.5)))
    knots = np.array([0.0, 0.7, 1.9, 4.0])
    profiles = [bump(1.0), bump(1.5), bump(0.8), bump(1.0)]

    def tabulated(t):
        t = np.clip(t, knots[0], knots[-1])
        i = min(int(np.searchsorted(knots, t, side="right") - 1), len(knots) - 2)
        w = (t - knots[i]) / (knots[i + 1] - knots[i])
        return (1.0 - w) * profiles[i] + w * profiles[i + 1]

    return tabulated


class TestPotentialRows:
    """A potential's evaluator takes an array of times and returns one row per
    time, each bitwise that time's value, so `average_potential` over any
    chunk of steps is bitwise each step's own average."""

    STEPS, DT = 2000, 0.002

    def gauss_times(self):
        """The times `_gauss_sum` samples over steps 1..STEPS, node by node,
        and some beyond the horizon."""
        starts = np.arange(self.STEPS) * self.DT
        nodes = (evolution.GAUSS_NODES + 1.0) * self.DT / 2.0
        return np.concatenate([starts + x for x in nodes] + [[4.0, 5.0, np.inf]])

    @pytest.mark.parametrize("potential", sorted(AVERAGED_POTENTIALS) + ["field-constant"])
    def test_rows_are_each_times_value(self, tmp_path, potential):
        kind = "constant" if potential == "field-constant" else potential
        setup = averaged_setup(tmp_path, 1, kind, 10)
        mesh, times = setup.mesh, self.gauss_times()
        pot, reference = setup.potential, averaged_potential_reference(kind, mesh)
        if potential == "field-constant":
            values = seeded_rng(3, "field-constant").uniform(0.5, 1.5, mesh.n_elements)
            pot, reference = PotentialField.constant(values), lambda t: values
        rows = pot.at(times)
        assert rows.shape == (times.size, mesh.n_elements)
        expected = np.array([reference(t) for t in times])
        assert rows.tobytes() == expected.tobytes()
        for t in times[::101]:
            assert pot(t).tobytes() == reference(t).tobytes()

    @pytest.mark.parametrize("potential", sorted(AVERAGED_POTENTIALS))
    def test_chunk_averages_are_one_step_averages(self, tmp_path, potential):
        pot = averaged_setup(tmp_path, 1, potential, 10).potential
        one_step = np.array([step_average(pot, n, self.DT)
                             for n in range(1, self.STEPS + 1)])
        for size in (7, 40, self.STEPS):
            chunks = [average_potential(pot, np.arange(k, min(k + size, self.STEPS + 1)),
                                        self.DT)
                      for k in range(1, self.STEPS + 1, size)]
            assert np.concatenate(chunks).tobytes() == one_step.tobytes()


class TestRepeatedStep:
    def test_repeated_steps_are_exact(self, monkeypatch):
        # from step 49 on, each default_1d step returns its start under the
        # same constant h^n, so steps 50-60 repeat their predecessor's inputs
        setup = first_steps("default_1d", 60)
        original = evolution.step
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "step",
                          lambda setup, previous, h_n, last=None:
                          original(setup, previous, h_n))
            plain = evolve(setup)
        steps = count_calls(monkeypatch, evolution, "step")
        minimizations = count_calls(monkeypatch, elliptic, "_minimize")
        traj = evolve(setup)

        for f, g in zip(traj.fields, plain.fields, strict=True):
            assert f.values.tobytes() == g.values.tobytes()
        for r, e in zip(traj.reports, plain.reports, strict=True):
            assert replace(r, repeated=False) == e
        # a repeated step reuses its predecessor's diagnostics, which are
        # bitwise those computed afresh
        diagnostics, margin = diagnose(traj)
        plain_diagnostics, plain_margin = diagnose(plain)
        for d, e in zip(diagnostics, plain_diagnostics, strict=True):
            assert d.increment_norm == e.increment_norm
            assert d.stationary_energy == e.stationary_energy
        assert margin == plain_margin

        h = [step_average(setup.potential, n, setup.dt)
             for n in range(1, setup.steps + 1)]
        expected = [n >= 2 and np.array_equal(h[n - 1], h[n - 2])
                    and np.array_equal(plain.fields[n - 1].values,
                                       plain.fields[n - 2].values)
                    for n in range(1, setup.steps + 1)]
        repeats = sum(expected)
        assert repeats > 0
        assert [r.repeated for r in traj.reports] == expected
        # every step has its own report object
        assert len({id(r) for r in traj.reports}) == setup.steps
        assert len(steps) == setup.steps
        assert len(minimizations) == setup.steps - repeats

    def test_moving_potential_never_repeats(self, monkeypatch):
        setup = first_steps("decaying_1d", 50)
        minimizations = count_calls(monkeypatch, elliptic, "_minimize")
        traj = evolve(setup)
        assert not any(r.repeated for r in traj.reports)
        assert len(minimizations) == setup.steps

    def test_step_solves_unless_last_matches_bitwise(self, mesh_1d, data_1d,
                                                     monkeypatch):
        setup = make_setup(mesh_1d, data_1d, horizon=1.0, steps=10)
        v0, dt = setup.initial, setup.dt
        h1 = step_average(setup.potential, 1, dt)
        first = step(setup, v0, h1)
        v1, r1 = first.field, first.report
        minimizations = count_calls(monkeypatch, elliptic, "_minimize")

        def up(x):
            return np.nextafter(x, np.inf)

        h_moved, start_moved = h1.copy(), v0.values.copy()
        h_moved[0] = up(h_moved[0])
        start_moved[50] = up(start_moved[50])
        moved = DiscreteField(mesh_1d, start_moved)
        for last in [first._replace(h_n=h_moved), first._replace(start=moved)]:
            minimizations.clear()
            _, _, v, report, _ = step(setup, v0, h1, last)
            assert len(minimizations) == 1
            assert not report.repeated
            assert v.values.tobytes() == v1.values.tobytes()

        # a copy of the start repeats too, and is the repeat's start
        copy = DiscreteField(mesh_1d, v0.values)
        for start in (v0, copy):
            minimizations.clear()
            repeat = step(setup, start, h1, first)
            assert minimizations == []
            assert repeat.start is start
            assert repeat.field is v1 and repeat.state is first.state
            assert repeat.report.repeated and repeat.report is not r1
            assert replace(repeat.report, repeated=False) == r1


class TestHandoff:
    """A step's record holds its solve's final element state; the next step,
    starting from that record's field, reads it instead of computing it."""

    @pytest.mark.parametrize("config, steps", [("decaying_1d", 30), ("smoke_2d", 6)])
    def test_run_matches_steps_from_fresh_copies(self, monkeypatch, config, steps):
        # bitwise the same fields, and one `_point` call fewer per solved step
        # but the first, whose start no solve returned
        setup = first_steps(config, steps)
        iterates = count_iterates(monkeypatch)
        traj = Run(setup).head()
        handed = len(iterates)
        iterates.clear()
        fields, last = [setup.initial], None
        for n in range(1, steps + 1):
            h_n = step_average(setup.potential, n, setup.dt)
            last = step(setup, DiscreteField(setup.mesh, fields[-1].values), h_n, last)
            fields.append(last.field)
        for a, b in zip(traj.fields, fields, strict=True):
            assert a.values.tobytes() == b.values.tobytes()
        solved = sum(not r.repeated for r in traj.reports)
        assert solved > 1
        assert len(iterates) - handed == solved - 1

    @pytest.mark.parametrize("config, steps", [
        ("decaying_1d", 40), ("default_1d", 60), ("smoke_2d", 6)])
    def test_handed_states_give_the_run_without_them(self, monkeypatch, config, steps):
        # a run whose steps start from the states their predecessors hand
        # over, whose cached terms serve the run-level mass and source terms,
        # equals one where every step computes its start's state, bitwise
        setup = first_steps(config, steps)
        handed = Run(setup).head()
        original = evolution.step
        monkeypatch.setattr(evolution, "step", lambda setup, previous, h_n, last=None:
                            original(setup, previous, h_n,
                                     None if last is None else last._replace(state=None)))
        fresh = Run(setup).head()
        for a, b in zip(handed.fields, fresh.fields, strict=True):
            assert a.values.tobytes() == b.values.tobytes()
        assert handed.reports == fresh.reports
        if config == "default_1d":
            assert any(r.repeated for r in handed.reports)

    def test_state_is_handed_only_from_last_field(self, mesh_1d, data_1d, monkeypatch):
        # a step from a copy of `last.field` computes its start's state and
        # never reads `last.state`; its result is the handed step's, bitwise
        setup = make_setup(mesh_1d, data_1d, horizon=1.0, steps=10)
        h1, h2 = (step_average(setup.potential, n, setup.dt) for n in (1, 2))
        first = step(setup, setup.initial, h1)
        with pytest.raises(ValueError):
            first.field.values[1] = 0.0  # the state can never go stale
        iterates = count_iterates(monkeypatch)
        handed = step(setup, first.field, h2, first)
        from_field = len(iterates)
        iterates.clear()
        unreadable = first._replace(state=object())
        fresh = step(setup, DiscreteField(mesh_1d, first.field.values), h2, unreadable)
        assert len(iterates) == from_field + 1
        assert fresh.field.values.tobytes() == handed.field.values.tobytes()
        assert fresh.report == handed.report
        assert fresh.state.means.tobytes() == handed.state.means.tobytes()

    def test_solve_leaves_its_guess_as_it_was(self, mesh_1d, data_1d, monkeypatch):
        # `solve` reads its guess and returns a new field: two solves from a
        # solve's result compute the same points and give the same answer
        op, src, pot = data_1d
        v, _ = solve(EllipticProblem.standard(mesh_1d, op, Q, 1.0, pot(0.0), src),
                     bump_seed(mesh_1d))
        target = EllipticProblem.standard(mesh_1d, op, Q, 0.5, pot(0.0), src)
        iterates = count_iterates(monkeypatch)
        w, report = solve(target, v)
        first = len(iterates)
        iterates.clear()
        again, again_report = solve(target, v)
        assert len(iterates) == first
        assert again.values.tobytes() == w.values.tobytes()
        assert again_report == report


class TestDiagnose:
    @pytest.mark.parametrize("config, points", [
        ("default_1d", 50), ("decaying_1d", 2001), ("smoke_2d", 11)])
    def test_one_element_state_per_solved_step(self, monkeypatch, config, points):
        # the initial datum and each solved step's iterate are read through
        # one element state; a repeated step reuses its predecessor's values.
        # The solved steps take one pass per chunk: 40 steps of 100 elements
        # (49 and 2000 solved steps: 2 and 50 passes), 14 of 288 (10 solved
        # steps: 1 pass)
        setup = load_scenario(str(CONFIGS / f"{config}.cfg")).setup
        traj = evolve(setup)
        iterates = count_iterates(monkeypatch)
        diagnose(traj)
        assert sum(iterates) == points
        assert points == sum(not r.repeated for r in traj.reports) + 1
        passes = {"default_1d": 3, "decaying_1d": 51, "smoke_2d": 2}
        assert len(iterates) == passes[config]

    @pytest.mark.parametrize("command, points", [("verify", 0), ("evolve", 50)])
    def test_only_evolve_command_diagnoses(self, monkeypatch, tmp_path, command,
                                           points):
        # outside the solves, an element state is a step diagnostic: `verify`
        # on default_1d computes none (its four runs computed 554 when
        # `evolve` diagnosed every run), `evolve` one per solved step plus one
        scenario = load_scenario(str(CONFIGS / "default_1d.cfg"))
        every = count_iterates(monkeypatch)
        outside = count_iterates(monkeypatch, outside_solve(monkeypatch))
        assert cli.run(command, scenario, str(tmp_path / "o")) == 0
        assert sum(outside) == points
        assert sum(every) > points

    @staticmethod
    def assert_matches_per_step(traj):
        # bitwise: every chunk row is reduced over its last axis as a 1-D
        # array is, and the walk adds the same floats in the same order
        diagnostics, margin = diagnose(traj)
        reference, reference_margin = diagnose_per_step(traj)
        assert len(diagnostics) == len(reference) == traj.setup.steps
        for d, e in zip(diagnostics, reference):
            assert d.increment_norm == e.increment_norm
            assert d.stationary_energy == e.stationary_energy
        assert margin == reference_margin
        assert type(margin) is float

    @pytest.mark.parametrize("config, steps, source, chunks", [
        ("decaying_1d", 100, True, 3), ("decaying_1d", 100, False, 3),
        ("default_1d", 400, True, 2), ("smoke_2d", 10, True, 1),
        ("smoke_2d", 10, False, 1)])
    def test_chunks_match_per_step_reference(self, config, steps, source, chunks):
        # default_1d reaches its steady state at step 49: its last chunk is
        # followed by 351 repeated steps
        setup = first_steps(config, steps)
        if not source:
            setup = replace(setup, source=None)
        traj = evolve(setup)
        solved = sum(not r.repeated for r in traj.reports)
        size = evolution.DIAGNOSTIC_ELEMENT_STEPS // setup.mesh.n_elements
        assert -(-solved // size) == chunks
        self.assert_matches_per_step(traj)

    @pytest.mark.parametrize("budget", [300, 4096])
    def test_repeats_around_chunk_boundaries(self, monkeypatch, budget):
        # repeated steps inside a chunk, between two chunks and at the end:
        # 3 and 40 solved steps a chunk
        monkeypatch.setattr(evolution, "DIAGNOSTIC_ELEMENT_STEPS", budget)
        setup = first_steps("decaying_1d", 100)
        size = budget // setup.mesh.n_elements
        repeated = {2, 3, 6, 7, 45, 46, 98, 99, 100}
        traj = with_repeats(evolve(setup), repeated)
        solved = [n for n in range(1, 101) if n not in repeated]
        boundaries = solved[size - 1::size]
        assert any(n + 1 in repeated for n in boundaries)
        self.assert_matches_per_step(traj)

    def test_mesh_beyond_the_budget_takes_one_step_a_pass(self, monkeypatch,
                                                          tmp_path):
        # smoke_2d at resolution 48 has 4608 elements: one step a chunk
        config = tmp_path / "smoke_48.cfg"
        config.write_text((CONFIGS / "smoke_2d.cfg").read_text().replace(
            "resolution = 12", "resolution = 48"))
        full = load_scenario(str(config)).setup
        assert full.mesh.n_elements > evolution.DIAGNOSTIC_ELEMENT_STEPS
        setup = replace(full, horizon=3 * full.dt, steps=3)
        traj = evolve(setup)
        iterates = count_iterates(monkeypatch)
        diagnose(traj)
        assert iterates == [1, 1, 1, 1]
        self.assert_matches_per_step(traj)


class TestChangeOfVariables:
    def test_round_trip(self, mesh_1d, data_1d):
        traj = evolve(make_setup(mesh_1d, data_1d, horizon=0.5, steps=5))
        u_traj = change_of_variables_u(traj)
        for v, u in zip(traj.fields, u_traj.fields):
            np.testing.assert_allclose(u.values ** (1.0 / Q), v.values, atol=1e-14)

    def test_zero_trajectory_maps_to_zero(self, mesh_1d, data_1d):
        z = zero_field(mesh_1d)
        traj = Trajectory(times=np.array([0.0, 1.0]), fields=[z, z], reports=[],
                          setup=make_setup(mesh_1d, data_1d, horizon=1.0, steps=1))
        u_traj = change_of_variables_u(traj)
        for u in u_traj.fields:
            np.testing.assert_array_equal(u.values, 0.0)

    def test_sandwich_transforms_with_power(self, mesh_1d, data_1d):
        # distance comparability transfers: (c^-1 d)^q <= v^q <= (c d)^q
        setup = make_setup(mesh_1d, data_1d, horizon=0.5, steps=5)
        traj = evolve(setup)
        u_traj = change_of_variables_u(traj)
        delta = boundary_distance_field(mesh_1d)
        c = setup.sandwich_constant * 1.5
        for u in u_traj.fields:
            ub = u.barycenter_values()
            assert np.all(ub <= (c * delta) ** Q + 1e-8)


class TestTimeIntegralNorm:
    def test_constant_difference(self, mesh_1d, data_1d):
        ne = mesh_1d.n_elements
        h = PotentialField(per_time(lambda t: np.full(ne, 2.0)), np.full(ne, 2.0), 2.0)
        g = PotentialField(per_time(lambda t: np.full(ne, 1.0)), np.full(ne, 1.0), 1.0)
        cum = time_integral_norm(mesh_1d, h, g, 0.5, 4)
        # h - g = 1 > 0: the plain and positive-part columns agree
        np.testing.assert_allclose(cum, np.linspace(0.0, 2.0, 5)[:, None] * [1.0, 1.0],
                                   rtol=1e-12)

    @pytest.mark.parametrize("n_steps", [1, 7, 50])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_matches_per_step_integration(self, n_steps, dimension, mesh_1d, mesh_2d,
                                          data_1d, data_2d):
        # one sampled difference a Gauss node, both forms normed together,
        # against one step, node and form at a time: bitwise equal for h = g
        # and for a difference that changes sign, in both orientations
        mesh, (_, _, bump) = (mesh_1d, data_1d) if dimension == 1 else (mesh_2d, data_2d)
        phase = np.linspace(0.0, 6.0, mesh.n_elements)
        wave = PotentialField(per_time(lambda t: bump(t) * (1.0 + 0.5 * np.sin(3.0 * t + phase))),
                              0.5 * bump.lower_envelope, 1.5 * bump.sup_norm)
        for h, g in [(bump, bump), (bump, wave), (wave, bump)]:
            cum = time_integral_norm(mesh, h, g, 1.5 / n_steps, n_steps)
            reference = time_integral_norm_per_step(mesh, h, g, 1.5 / n_steps, n_steps)
            assert cum.tobytes() == reference.tobytes()


def _owner_violations():
    """One direct construction per admissibility tag, each breaking only the
    hypothesis its owner checks."""
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)
    ne = mesh.n_elements
    p = ExponentField.constant(ne, 2.5)
    op = LerayLionsOperator.isotropic(p, 1.0, ndim=2)
    delta = boundary_distance_field(mesh)
    ones = np.ones(ne)
    pot = PotentialField.constant(ones)
    v0 = interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    falling = PotentialField(per_time(lambda t: ones * (1.0 - t)), ones, 1.0)
    tiny = 1e-13 * ones

    def sampled(h):
        # h within ENVELOPE_TOL of its envelope, but not h >= 0 and h != 0
        PotentialField(per_time(lambda t: h), tiny, 1.0).check_envelope([0.0])

    return [
        pytest.param("1 < p_-", lambda: ExponentField(np.linspace(1.0, 2.0, ne)),
                     id="p-minus"),
        pytest.param("(A_0)", lambda: LerayLionsOperator(p, ([0], [0]), [1.0, 1.0]),
                     id="A0-partition"),
        pytest.param("(A_0)", lambda: EvolutionSetup(
            mesh, LerayLionsOperator.isotropic(p, 1.0, ndim=1), 1.25, None, pot,
            1.0, 4, v0), id="A0-mesh"),
        pytest.param("(A_1)", lambda: LerayLionsOperator(p, ([0, 1],), [ones - 1.0]),
                     id="A1"),
        pytest.param("(f_0)", lambda: SourceTerm(-ones, delta, 1.0, 0.0), id="f0"),
        pytest.param("(f_1)", lambda: source_terms(mesh, op, 1.25, 1.0,
                                                   SourceTerm(ones, delta, 1.0, 0.25)), id="f1"),
        pytest.param("(f_2)", lambda: source_terms(mesh, op, 1.25, 1.0,
                                                   SourceTerm(ones, delta, -0.3, 0.0)), id="f2"),
        pytest.param("(H_h)", lambda: PotentialField(per_time(lambda t: ones), 0.0 * ones, 1.0),
                     id="Hh-envelope"),
        pytest.param("(H_h)", lambda: falling.check_envelope([0.0, 0.5]),
                     id="Hh-sampled"),
        pytest.param("(H_h)", lambda: sampled(-tiny), id="Hh-sampled-negative"),
        pytest.param("(H_h)", lambda: sampled(0.0 * tiny), id="Hh-sampled-zero"),
        pytest.param("q ∈ (1, p_-)",
                     lambda: EvolutionSetup(mesh, op, 2.5, None, pot, 1.0, 4, v0),
                     id="q-range"),
    ]


@pytest.mark.parametrize("tag, build", _owner_violations())
def test_each_owner_raises_its_tag(tag, build):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.tag == tag
    assert str(err.value).startswith(f"[{tag}] ")
