import dataclasses

import numpy as np
import pytest

from dne import checks
from dne.checks import (check_alg_inequality, check_contraction_elliptic,
                        check_contraction_parabolic, check_lambda_scaling,
                        check_picone_pair, check_monotone_run, check_picone,
                        check_positivity_hopf, check_sandwich,
                        check_stabilization, contraction_ratio,
                        picone_pair_integral)
from dne.elliptic import (make_subsolution, make_supersolution,
                          solve_lambda_problem, solve_stationary)
from dne.evolution import EvolutionSetup, evolve
from dne.meshing import (DiscreteField, interpolate, interval_mesh,
                         l2_norm_diff_power, zero_field)
from dne.operators import (ExponentField, LerayLionsOperator, PotentialField,
                           seeded_rng)

Q = 1.25


def iso_op(mesh, p):
    return LerayLionsOperator.isotropic(
        ExponentField.constant(mesh.n_elements, p), 1.0, ndim=mesh.dimension)


class TestPicone:
    def test_sampled_zero_violations(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        report = check_picone(mesh_1d, op, 1.5, sample_count=20_000, seed=3)
        assert report.passed
        assert report.samples >= 16

    def test_equality_case_margin_near_zero(self, mesh_1d, data_1d):
        # r = 1 keeps the u = v diagonal pairs at equality
        op, _, _ = data_1d
        report = check_picone(mesh_1d, op, 1.0, sample_count=5_000, seed=4)
        assert report.passed
        assert abs(report.worst_margin) < 1e-10

    def test_rejects_r_out_of_range(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        with pytest.raises(ValueError):
            check_picone(mesh_1d, op, 2.5)

    def test_deterministic_per_seed(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        a = check_picone(mesh_1d, op, 1.5, sample_count=5_000, seed=9)
        b = check_picone(mesh_1d, op, 1.5, sample_count=5_000, seed=9)
        assert a.worst_margin == b.worst_margin


class TestPiconePair:
    def test_equal_fields_give_zero(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        w = interpolate(mesh_1d, lambda x: 0.4 + np.sin(np.pi * x[:, 0]))
        value, scale = picone_pair_integral(mesh_1d, op, 1.3, w, w)
        assert abs(value) <= 1e-8 * max(scale, 1.0)

    def test_scaled_pair_strictly_positive(self):
        mesh = interval_mesh(0.0, 1.0, 80)
        op = iso_op(mesh, 2.5)
        w2 = interpolate(mesh, lambda x: 0.3 + x[:, 0] * (1.0 - x[:, 0]))
        w1 = w2.with_values(2.0 * w2.values)
        value, _ = picone_pair_integral(mesh, op, 1.0, w1, w2)
        assert value > 0.0

    def test_random_pairs_never_negative(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        rng = seeded_rng(5, "picone-pair-fields-test")
        for _ in range(200):
            vals1 = np.zeros(mesh_1d.n_vertices)
            vals2 = np.zeros(mesh_1d.n_vertices)
            ii = mesh_1d.interior
            vals1[ii] = rng.uniform(0.05, 2.0, ii.size)
            vals2[ii] = rng.uniform(0.05, 2.0, ii.size)
            report = check_picone_pair(mesh_1d, op, 1.2, DiscreteField(mesh_1d, vals1),
                                   DiscreteField(mesh_1d, vals2))
            assert report.passed

    def test_rejects_nonpositive_interior(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        with pytest.raises(ValueError):
            check_picone_pair(mesh_1d, op, 1.2, zero_field(mesh_1d),
                          zero_field(mesh_1d))


class TestContractionElliptic:
    def test_identical_potentials(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        h = pot(0.0)
        report = check_contraction_elliptic(mesh_1d, op, Q, 1.0, src, h, h)
        assert report.passed
        # both sides vanish: lhs below solver noise
        ratio = contraction_ratio(mesh_1d, op, Q, 1.0, src, h, h)
        assert ratio == 0.0

    def test_shifted_potential(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        h1 = pot(0.0)
        report = check_contraction_elliptic(mesh_1d, op, Q, 1.0, src, h1, h1 + 0.1)
        assert report.passed

    def test_ratio_below_slack_and_refining(self, data_1d):
        ratios = []
        for n in (50, 100):
            mesh = interval_mesh(0.0, 1.0, n)
            op = iso_op(mesh, 2.5)
            xb = mesh.barycenters[:, 0]
            h1 = 4.0 * xb * (1.0 - xb)
            ratios.append(contraction_ratio(mesh, op, Q, 1.0, None, h1 + 0.1, h1))
        assert all(r <= 1.02 for r in ratios)


@pytest.fixture(scope="module")
def runs(mesh_1d, data_1d):
    op, src, pot = data_1d
    v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
    w0 = v0.with_values(0.7 * v0.values)
    s1 = EvolutionSetup.create(mesh_1d, op, Q, src, pot, 1.0, 20, v0)
    s2 = EvolutionSetup.create(mesh_1d, op, Q, src, pot, 1.0, 20, w0)
    return evolve(s1), evolve(s2), pot


@pytest.fixture(scope="module")
def bracketing(mesh_1d, data_1d):
    op, src, pot = data_1d
    v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
    w_lo, _ = make_subsolution(mesh_1d, op, Q, src, pot.lower_envelope, v0)
    w_hi, _ = make_supersolution(mesh_1d, op, Q, src, pot.sup_norm, v0)
    return v0, w_lo, w_hi


class TestContractionParabolic:
    def test_identical_runs_agree(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        s = EvolutionSetup.create(mesh_1d, op, Q, src, pot, 0.5, 10, v0)
        t1, t2 = evolve(s), evolve(s)
        assert l2_norm_diff_power(t1.final, t2.final, Q) <= 10 * 1e-11

    def test_same_potential_different_data(self, runs):
        traj1, traj2, pot = runs
        report = check_contraction_parabolic(traj1, traj2, pot, pot)
        assert report.passed
        # the difference also shrinks from its initial value
        lhs0 = l2_norm_diff_power(traj1.fields[0], traj2.fields[0], Q)
        lhsT = l2_norm_diff_power(traj1.final, traj2.final, Q)
        assert lhsT <= 1.02 * lhs0

    def test_different_potentials(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        prof = pot.limit
        pot2 = PotentialField(lambda t: prof * (1.0 + 0.3 * np.exp(-t)), prof,
                              1.3 * float(prof.max()), limit=prof)
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        s1 = EvolutionSetup.create(mesh_1d, op, Q, src, pot, 1.0, 20, v0)
        s2 = EvolutionSetup.create(mesh_1d, op, Q, src, pot2, 1.0, 20, v0)
        report = check_contraction_parabolic(evolve(s1), evolve(s2), pot, pot2)
        assert report.passed

    def test_rejects_mismatched_runs(self, mesh_1d, data_1d, runs):
        op, src, pot = data_1d
        traj1, _, _ = runs
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        other = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 1.0, 10, v0))
        with pytest.raises(ValueError):
            check_contraction_parabolic(traj1, other, pot, pot)


class TestSandwichAndMonotone:
    def test_run_stays_bracketed(self, mesh_1d, data_1d, bracketing):
        op, src, pot = data_1d
        v0, w_lo, w_hi = bracketing
        traj = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 1.0, 15, v0))
        report = check_sandwich(traj, w_lo, w_hi)
        assert report.passed

    def test_monotone_bracketing_runs(self, mesh_1d, data_1d, bracketing):
        op, src, pot = data_1d
        _, w_lo, w_hi = bracketing
        lo_run = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 1.0, 15, w_lo))
        hi_run = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 1.0, 15, w_hi))
        assert check_monotone_run(lo_run, "nondecreasing").passed
        assert check_monotone_run(hi_run, "nonincreasing").passed
        assert check_sandwich(lo_run, w_lo, w_hi).passed
        assert check_sandwich(hi_run, w_lo, w_hi).passed


class TestStabilization:
    def test_constant_potential_perturbed_start(self, mesh_1d, data_1d, monkeypatch):
        monkeypatch.setattr(checks, "STABILIZATION_THRESHOLD", 1e-4)
        op, src, pot = data_1d
        v_stat = solve_stationary(mesh_1d, op, Q, pot.limit, src)
        v0 = v_stat.with_values(
            np.where(mesh_1d.boundary_mask, 0.0, 1.3 * v_stat.values))
        traj = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 50.0, 250, v0))
        report = check_stabilization(traj, v_stat, pot)
        assert report.passed

    def test_bracketing_runs_meet(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w_lo, _ = make_subsolution(mesh_1d, op, Q, src, pot.lower_envelope, v0)
        w_hi, _ = make_supersolution(mesh_1d, op, Q, src, pot.sup_norm, v0)
        lo = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 50.0, 250, w_lo))
        hi = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 50.0, 250, w_hi))
        assert l2_norm_diff_power(lo.final, hi.final, 1.0) <= 2e-4

    def test_requires_limit(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        ne = mesh_1d.n_elements
        no_limit = PotentialField(lambda t: np.ones(ne), np.ones(ne), 1.0)
        v_stat = solve_stationary(mesh_1d, op, Q, pot.limit, src)
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        traj = evolve(EvolutionSetup.create(mesh_1d, op, Q, src, pot, 0.5, 5, v0))
        with pytest.raises(ValueError):
            check_stabilization(traj, v_stat, no_limit)


class TestLambdaScaling:
    @pytest.mark.parametrize("p,slope", [(2.0, 1.0), (3.0, 0.5)])
    def test_constant_p_slopes(self, p, slope):
        mesh = interval_mesh(0.0, 1.0, 200)
        report = check_lambda_scaling(mesh, iso_op(mesh, p), [0.5, 1.0, 2.0, 4.0])
        assert report.passed
        assert f"{slope:.4f}" in report.location or report.worst_margin >= 0.0

    def test_rejects_too_few_lambdas(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        with pytest.raises(ValueError):
            check_lambda_scaling(mesh_1d, op, [1.0, 2.0])

    def test_rejects_variable_exponent(self, mesh_1d):
        values = 2.0 + np.linspace(0.0, 0.5, mesh_1d.n_elements)
        op = LerayLionsOperator.isotropic(ExponentField.from_values(values), 1.0)
        with pytest.raises(ValueError):
            check_lambda_scaling(mesh_1d, op, [0.5, 1.0, 2.0])


class TestPositivityHopf:
    def test_lambda_problem_slope(self):
        # p = 2, lambda = 1: solution x(1-x)/2 has boundary slope 1/2
        mesh = interval_mesh(0.0, 1.0, 2000)
        w = solve_lambda_problem(1.0, mesh, iso_op(mesh, 2.0))
        report = check_positivity_hopf(w)
        assert report.passed
        off = 2.0 * mesh.spacing
        quotient = w.values[2] / off
        assert quotient == pytest.approx(0.5, abs=1e-3)

    def test_stationary_solution_positive(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v = solve_stationary(mesh_1d, op, Q, pot.limit, src)
        assert check_positivity_hopf(v).passed

    def test_zero_field_designed_failure(self, mesh_1d):
        report = check_positivity_hopf(zero_field(mesh_1d))
        assert not report.passed
        assert report.worst_margin < 0.0


class TestAlgInequality:
    def test_sampled(self):
        for q in (1.2, 1.5, 3.0):
            report = check_alg_inequality(q, sample_count=100_000, seed=21)
            assert report.passed

    def test_edge_cases(self):
        # a = b gives 0 <= 0; b = 0 gives equality |a|^2q = (a^q)^2
        report = check_alg_inequality(2.0, sample_count=1_000, seed=2)
        assert report.passed

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            check_alg_inequality(1.0)

    def test_reports_are_serializable(self):
        report = check_alg_inequality(1.5, sample_count=100, seed=0)
        d = dataclasses.asdict(report)
        assert set(d) == {"check_name", "samples", "worst_margin", "location",
                          "passed", "slack"}


class TestImmutability:
    def test_checks_do_not_mutate_inputs(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        w1 = interpolate(mesh_1d, lambda x: 0.4 + np.sin(np.pi * x[:, 0]))
        w2 = interpolate(mesh_1d, lambda x: 0.6 + x[:, 0] * (1.0 - x[:, 0]))
        before1, before2 = w1.values.copy(), w2.values.copy()
        check_picone_pair(mesh_1d, op, 1.2, w1, w2)
        np.testing.assert_array_equal(w1.values, before1)
        np.testing.assert_array_equal(w2.values, before2)
