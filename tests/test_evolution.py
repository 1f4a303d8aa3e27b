from pathlib import Path

import numpy as np
import pytest

from dne import elliptic, evolution, meshing, operators
from dne.elliptic import (EllipticProblem, NonConvergence, energy,
                          make_subsolution, make_supersolution, solve_stationary)
from dne.evolution import (EvolutionSetup, Trajectory, average_potential,
                           change_of_variables_u, evolve, step,
                           time_integral_norm)
from dne.meshing import (Mesh, boundary_distance_field, interpolate,
                         l2_norm_diff_power, rectangle_mesh, zero_field)
from dne.operators import (ExponentField, LerayLionsOperator, PotentialField,
                           SourceTerm, ValidationError)
from dne.scenario import load_scenario

Q = 1.25
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fifty_default_steps():
    """The first 50 steps of configs/default_1d.cfg."""
    full = load_scenario(str(CONFIGS / "default_1d.cfg")).setup
    return EvolutionSetup(full.mesh, full.op, full.q, full.source,
                          full.potential, 50 * full.dt, 50, full.initial)


def make_setup(mesh, data, horizon, steps, scale=0.5):
    op, src, pot = data
    v0 = interpolate(mesh, lambda x: scale * np.sin(np.pi * x[:, 0]))
    return EvolutionSetup(mesh, op, Q, src, pot, horizon, steps, v0)


class TestAveragePotential:
    def test_constant_in_time(self, mesh_1d, data_1d):
        _, _, pot = data_1d
        h1 = average_potential(pot, 1, 0.25)
        np.testing.assert_allclose(h1, pot(0.0), rtol=1e-14)

    def test_linear_in_time_exact(self, mesh_1d):
        ne = mesh_1d.n_elements
        pot = PotentialField(lambda t: np.full(ne, 0.5 + t), np.full(ne, 0.5), 1.5)
        h1 = average_potential(pot, 1, 1.0)
        np.testing.assert_allclose(h1, 1.0, atol=1e-12)

    def test_sup_bound_over_window(self, mesh_1d, data_1d):
        op, src, _ = data_1d
        ne = mesh_1d.n_elements
        prof = np.ones(ne)
        pot = PotentialField(lambda t: prof * (1.0 + (1.0 + t) ** (-1.5)),
                             prof, 2.0, limit=prof)
        for n in range(1, 6):
            hn = average_potential(pot, n, 0.5)
            assert hn.max() <= pot.sup_norm + 1e-12

    def test_rejects_step_zero(self, data_1d):
        _, _, pot = data_1d
        with pytest.raises(ValueError):
            average_potential(pot, 0, 0.1)


class TestStep:
    def test_stationary_fixed_point(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v_stat = solve_stationary(mesh_1d, op, Q, pot.limit, src)
        setup = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, v_stat)
        h1 = average_potential(pot, 1, setup.dt)
        v1, report = step(setup, v_stat, h1, setup.dt)
        assert report.converged
        assert l2_norm_diff_power(v1, v_stat, 1.0) <= 10 * 1e-10

    def test_order_preserved_between_runs(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        small = interpolate(mesh_1d, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        large = interpolate(mesh_1d, lambda x: 0.6 * np.sin(np.pi * x[:, 0]))
        s_small = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, small)
        h1 = average_potential(pot, 1, s_small.dt)
        v1, _ = step(s_small, small, h1, s_small.dt)
        w1, _ = step(s_small, large, h1, s_small.dt)
        assert np.all(v1.values <= w1.values + 1e-8)

    def test_sandwich_preserved(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w_lo, _ = make_subsolution(mesh_1d, op, Q, src, pot.lower_envelope, v0)
        w_hi, _ = make_supersolution(mesh_1d, op, Q, src, pot.sup_norm, v0)
        setup = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, v0)
        h1 = average_potential(pot, 1, setup.dt)
        v1, _ = step(setup, v0, h1, setup.dt)
        assert np.all(v1.values >= w_lo.values - 1e-8)
        assert np.all(v1.values <= w_hi.values + 1e-8)


class TestEvolve:
    def test_tiny_horizon_continuity(self, mesh_1d, data_1d):
        setup = make_setup(mesh_1d, data_1d, horizon=1e-6, steps=1)
        traj = evolve(setup)
        assert l2_norm_diff_power(traj.final, setup.initial, 1.0) <= 1e-3

    def test_setup_requires_positive_initial(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        with pytest.raises(ValueError):
            EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 4, zero_field(mesh_1d))

    def test_setup_rejects_source_checked_for_another_q(self, mesh_1d, data_1d):
        # beta = 0.4 satisfies (f_1) for q = 1.5 but not for the run's q = 1.25
        op, _, pot = data_1d
        delta = boundary_distance_field(mesh_1d).quadrature
        src = SourceTerm(np.ones(mesh_1d.n_elements), delta, 1.0, 0.4, 1.5)
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        with pytest.raises(ValueError, match="source was checked for q = 1.5"):
            EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 4, v0)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan], ids=["inf", "nan"])
    def test_setup_rejects_nonfinite_horizon(self, mesh_1d, data_1d, horizon):
        with pytest.raises(ValueError, match="finite horizon"):
            make_setup(mesh_1d, data_1d, horizon=horizon, steps=4)

    def test_distance_sandwich_along_run(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w_lo, _ = make_subsolution(mesh_1d, op, Q, src, pot.lower_envelope, v0)
        w_hi, _ = make_supersolution(mesh_1d, op, Q, src, pot.sup_norm, v0)
        delta = boundary_distance_field(mesh_1d).quadrature
        c = max(np.max(w_hi.barycenter_values() / delta),
                np.max(delta / w_lo.barycenter_values()))
        setup = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 10, v0)
        traj = evolve(setup)
        for f in traj.fields:
            vb = f.barycenter_values()
            assert np.all(vb <= c * delta + 1e-8)
            assert np.all(vb >= delta / c - 1e-8)

    def test_dissipation_bound_flag(self, mesh_1d, data_1d):
        traj = evolve(make_setup(mesh_1d, data_1d, horizon=1.0, steps=20))
        assert traj.dissipation_ok
        assert traj.dissipation_margin >= 0.0

    def test_increment_sum_stable_under_dt_refinement(self, mesh_1d, data_1d):
        def inc_sum(steps):
            traj = evolve(make_setup(mesh_1d, data_1d, horizon=0.5, steps=steps,
                                     scale=0.3))
            dt = 0.5 / steps
            return sum(dt * d.increment_norm ** 2 for d in traj.diagnostics)

        coarse, fine = inc_sum(10), inc_sum(20)
        assert fine <= 2.0 * coarse and coarse <= 2.0 * fine

    def test_one_minimization_per_step(self, monkeypatch):
        full = load_scenario(str(CONFIGS / "default_1d.cfg")).setup
        setup = EvolutionSetup(full.mesh, full.op, full.q, full.source,
                               full.potential, 20 * full.dt, 20, full.initial)
        minimize, calls = elliptic._minimize, []

        def counting(*args):
            calls.append([r for _, r in args[0].terms])
            return minimize(*args)

        monkeypatch.setattr(elliptic, "_minimize", counting)
        traj = evolve(setup)
        assert len(calls) == setup.steps
        # every step problem carries the mass term (v+)^2q
        assert all(2.0 * setup.q in powers for powers in calls)
        assert not any(d.report.fallback for d in traj.diagnostics)

    def test_energy_evaluations_per_step(self, monkeypatch):
        # 50 near-stationary steps of default_1d: backtracking below the
        # energy's roundoff made 385 energy evaluations (7.7 per step);
        # skipping it makes 174 (3.5 per step)
        full = load_scenario(str(CONFIGS / "default_1d.cfg")).setup
        setup = EvolutionSetup(full.mesh, full.op, full.q, full.source,
                               full.potential, 50 * full.dt, 50, full.initial)
        parts, calls = elliptic._energy_parts, []

        def counting(*args):
            calls.append(1)
            return parts(*args)

        monkeypatch.setattr(elliptic, "_energy_parts", counting)
        evolve(setup)
        assert len(calls) / setup.steps <= 5.0

    def test_one_element_pass_per_point(self, monkeypatch):
        # inside the solves of 50 default_1d steps every point visited gets
        # one element_means, one gradient_of and one eval_flux pass, shared
        # by the energy (density a . grad v), gradient and Hessian there
        # (recomputing them per evaluation made 322 element_means and 396
        # gradient_of passes for 124 energies); eval_A is never called
        setup = fifty_default_steps()
        counts = {"element_means": 0, "gradient_of": 0, "_energy_parts": 0,
                  "eval_flux": 0, "eval_A": 0}
        inside = []

        def counting(name, inner):
            def wrapper(*args, **kwargs):
                if inside:
                    counts[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        solve = evolution.solve

        def solving(*args):
            inside.append(1)
            try:
                return solve(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(evolution, "solve", solving)
        for name in ("element_means", "gradient_of"):
            monkeypatch.setattr(Mesh, name, counting(name, getattr(Mesh, name)))
        monkeypatch.setattr(elliptic, "_energy_parts",
                            counting("_energy_parts", elliptic._energy_parts))
        for name in ("eval_flux", "eval_A"):
            original = getattr(operators, name)
            for module in (operators, elliptic, evolution, meshing):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        evolve(setup)
        assert counts["_energy_parts"] >= setup.steps
        assert counts["element_means"] == counts["_energy_parts"]
        assert counts["gradient_of"] == counts["_energy_parts"]
        assert counts["eval_flux"] == counts["_energy_parts"]
        assert counts["eval_A"] == 0

    def test_one_element_state_per_step(self, monkeypatch):
        # outside the solves, each of 50 default_1d steps reads the new
        # iterate through one element state: one element_means pass in `step`
        # and one _point pass (element_means, gradient_of, eval_flux) whose
        # flux all diagnostics share; the initial datum's state is the one
        # extra
        setup = fifty_default_steps()
        counts = {"element_means": 0, "gradient_of": 0, "eval_flux": 0}
        inside = []

        def counting(name, inner):
            def wrapper(*args, **kwargs):
                if not inside:
                    counts[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        solve = evolution.solve

        def solving(*args):
            inside.append(1)
            try:
                return solve(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(evolution, "solve", solving)
        for name in ("element_means", "gradient_of"):
            monkeypatch.setattr(Mesh, name, counting(name, getattr(Mesh, name)))
        for module in (elliptic, evolution, meshing):
            if getattr(module, "eval_flux", None) is operators.eval_flux:
                monkeypatch.setattr(module, "eval_flux",
                                    counting("eval_flux", operators.eval_flux))
        evolve(setup)
        assert counts["element_means"] <= 2 * setup.steps + 1
        assert counts["gradient_of"] <= setup.steps + 1
        assert counts["eval_flux"] <= setup.steps + 1

    def test_diagnostics_match_their_definitions(self):
        # bit for bit: the stationary energy of each step is the energy of
        # the stationary problem at h^n, and the increment norm is
        # ||v_n^q - v_{n-1}^q|| / dt
        setup = fifty_default_steps()
        traj = evolve(setup)
        assert len(traj.fields) == setup.steps + 1
        for n, d in enumerate(traj.diagnostics, 1):
            v_n, v_prev = traj.fields[n], traj.fields[n - 1]
            h_n = average_potential(setup.potential, n, setup.dt)
            problem = EllipticProblem.stationary(setup.mesh, setup.op, setup.q,
                                                 h_n, setup.source)
            assert d.stationary_energy == energy(problem, v_n)
            assert d.increment_norm == l2_norm_diff_power(v_n, v_prev,
                                                          setup.q) / setup.dt
        # plain Python types, so the flags serialize as JSON
        assert type(traj.dissipation_ok) is bool
        assert type(traj.dissipation_margin) is float

    def test_step_failure_annotated(self, mesh_1d, data_1d, monkeypatch):
        monkeypatch.setitem(elliptic.DEFAULT_TOL, 1, 0.0)
        setup = make_setup(mesh_1d, data_1d, horizon=1.0, steps=4)
        with pytest.raises(NonConvergence) as err:
            evolve(setup)
        assert "step 1" in str(err.value)
        assert err.value.trajectory.times.size == 5


class TestChangeOfVariables:
    def test_round_trip(self, mesh_1d, data_1d):
        traj = evolve(make_setup(mesh_1d, data_1d, horizon=0.5, steps=5))
        u_traj = change_of_variables_u(traj)
        assert u_traj.power == Q
        for v, u in zip(traj.fields, u_traj.fields):
            np.testing.assert_allclose(u.values ** (1.0 / Q), v.values, atol=1e-14)

    def test_zero_trajectory_maps_to_zero(self, mesh_1d):
        z = zero_field(mesh_1d)
        traj = Trajectory(times=np.array([0.0, 1.0]), fields=[z, z],
                          diagnostics=[], q=Q)
        u_traj = change_of_variables_u(traj)
        for u in u_traj.fields:
            np.testing.assert_array_equal(u.values, 0.0)

    def test_sandwich_transforms_with_power(self, mesh_1d, data_1d):
        # distance comparability transfers: (c^-1 d)^q <= v^q <= (c d)^q
        setup = make_setup(mesh_1d, data_1d, horizon=0.5, steps=5)
        traj = evolve(setup)
        u_traj = change_of_variables_u(traj)
        delta = boundary_distance_field(mesh_1d).quadrature
        c = setup.sandwich_constant * 1.5
        for u in u_traj.fields:
            ub = u.barycenter_values()
            assert np.all(ub <= (c * delta) ** Q + 1e-8)


class TestTimeIntegralNorm:
    def test_constant_difference(self, mesh_1d, data_1d):
        ne = mesh_1d.n_elements
        h = PotentialField(lambda t: np.full(ne, 2.0), np.full(ne, 2.0), 2.0)
        g = PotentialField(lambda t: np.full(ne, 1.0), np.full(ne, 1.0), 1.0)
        cum = time_integral_norm(mesh_1d, h, g, 2.0, 4)
        np.testing.assert_allclose(cum, np.linspace(0.0, 2.0, 5), rtol=1e-12)


def _owner_violations():
    """One direct construction per admissibility tag, each breaking only the
    hypothesis its owner checks."""
    mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)
    ne = mesh.n_elements
    p = ExponentField.constant(ne, 2.5)
    op = LerayLionsOperator.isotropic(p, 1.0, ndim=2)
    delta = boundary_distance_field(mesh).quadrature
    ones = np.ones(ne)
    pot = PotentialField.constant(ones)
    v0 = interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
    falling = PotentialField(lambda t: ones * (1.0 - t), ones, 1.0)
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
        pytest.param("(f_0)", lambda: SourceTerm(-ones, delta, 1.0, 0.0, 1.25), id="f0"),
        pytest.param("(f_1)", lambda: SourceTerm(ones, delta, 1.0, 0.25, 1.25), id="f1"),
        pytest.param("(f_2)", lambda: SourceTerm(ones, delta, -0.3, 0.0, 1.25), id="f2"),
        pytest.param("(H_h)", lambda: PotentialField(lambda t: ones, 0.0 * ones, 1.0),
                     id="Hh-envelope"),
        pytest.param("(H_h)", lambda: falling.check_envelope([0.0, 0.5]),
                     id="Hh-sampled"),
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
