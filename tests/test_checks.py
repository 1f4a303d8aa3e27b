import dataclasses
from pathlib import Path

import numpy as np
import pytest

from dne import checks
from dne.checks import (check_alg_inequality, check_contraction_elliptic,
                        check_contraction_parabolic, check_lambda_scaling,
                        check_picone_pair, check_monotone_run, check_picone,
                        check_positivity_hopf, check_sandwich,
                        check_stabilization, picone_pair_integral)
from dne.elliptic import (make_subsolution, make_supersolution,
                          solve_lambda_problem, solve_stationary)
from dne.evolution import EvolutionSetup, time_integral_norm
from dne.meshing import (DiscreteField, interpolate, interval_mesh,
                         l2_norm_diff_power, rectangle_mesh)
from dne.operators import ExponentField, LerayLionsOperator, PotentialField
from dne.scenario import load_scenario

from oracles import (contraction_elliptic_per_orientation,
                     contraction_parabolic_per_step, contraction_ratio, evolve,
                     function_library_reference, hopf_probe_quotients, monotone_run_per_step, picone_at_points,
                     per_time, picone_pair_per_pair, picone_per_sample,
                     sandwich_per_step, seeded_rng, stabilization_per_step,
                     zero_field)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
Q = 1.25


def iso_op(mesh, p):
    return LerayLionsOperator.isotropic(
        ExponentField.constant(mesh.n_elements, p), 1.0, ndim=mesh.dimension)


class TestPicone:
    def test_sampled_zero_violations(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        report = check_picone(mesh_1d, op, 1.5)
        assert report.passed
        # every library pair at every quadrature point
        assert report.samples == 16 * mesh_1d.n_elements

    def test_equality_case_margin_near_zero(self, mesh_1d, data_1d):
        # r = 1 keeps the u = v diagonal pairs at equality
        op, _, _ = data_1d
        report = check_picone(mesh_1d, op, 1.0)
        assert report.passed
        assert abs(report.worst_margin) < 1e-10

    def test_rejects_r_out_of_range(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        with pytest.raises(ValueError):
            check_picone(mesh_1d, op, 2.5)

    def test_names_the_pair_that_fails_strictness(self, mesh_1d, data_1d, monkeypatch):
        # every pointwise margin holds while one pair's integrated gap is 0:
        # the report fails and names that pair, not the worst margin's; the
        # u = v diagonal and later failing pairs do not take its place
        op, _, _ = data_1d
        passing = check_picone(mesh_1d, op, 1.5)
        margins_of = checks._picone_margins

        def with_gaps(*args):
            margins, gaps = margins_of(*args)
            gaps[[0, 1, 3], [0, 2, 0]] = 0.0
            return margins, gaps

        monkeypatch.setattr(checks, "_picone_margins", with_gaps)
        report = check_picone(mesh_1d, op, 1.5)
        names = [f["name"] for f in checks.function_library(mesh_1d)]
        assert not report.passed
        assert report.worst_margin == passing.worst_margin > 0.0
        assert report.location == f"pair ({names[1]}, {names[2]}) integrated gap +0.000e+00"
        # r = 1 asks no strictness
        assert check_picone(mesh_1d, op, 1.0).passed

    def test_deterministic(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        a = check_picone(mesh_1d, op, 1.5)
        b = check_picone(mesh_1d, op, 1.5)
        assert a.worst_margin == b.worst_margin
        assert a == b


def picone_operator(kind):
    """A mesh and operator: constant or affine p on an interval, an affine p
    rising from below 2 on an interval, and on a rectangle an affine p on one
    block or on the two axis blocks with different weights."""
    if kind.startswith("1d"):
        mesh = interval_mesh(0.0, 1.0, 40)
    else:
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.5, 6, 9)
    if kind == "1d-constant":
        return mesh, iso_op(mesh, 2.5)
    xb = mesh.barycenters[:, 0]
    p_low = {"1d-affine": 2.2, "1d-p<2": 1.6, "2d-affine": 2.2, "2d-anisotropic": 1.7}[kind]
    exponent = ExponentField(p_low + 0.8 * xb / xb.max())
    if kind == "2d-anisotropic":
        yb = mesh.barycenters[:, 1]
        return mesh, LerayLionsOperator(exponent, ([0], [1]), [1.0 + xb, 2.0 - yb])
    return mesh, LerayLionsOperator.isotropic(exponent, 1.0 + xb, ndim=mesh.dimension)


class TestFunctionLibrary:
    def test_matches_the_per_dimension_reference(self, extent_mesh):
        # names, order and every value and gradient, bit for bit
        lib = checks.function_library(extent_mesh)
        expected = function_library_reference(extent_mesh)
        assert [f["name"] for f in lib] == [f["name"] for f in expected]
        assert len(lib) == len(checks._PROFILES) ** extent_mesh.dimension
        for got, want in zip(lib, expected):
            for key in ("values", "grads"):
                assert got[key].shape == want[key].shape
                assert got[key].tobytes() == want[key].tobytes()


class TestPiconeTables:
    """The enumerated `_picone_margins` reproduces the per-sample evaluation
    of `oracles.picone_at_points` bit for bit, signs of zero included: at the
    points `oracles.picone_per_sample` draws as the check once sampled, and
    at every point, where `check_picone` gives the oracle's report."""

    KINDS = ["1d-constant", "1d-affine", "1d-p<2", "2d-affine", "2d-anisotropic"]

    @staticmethod
    def case(kind, r_kind):
        mesh, op = picone_operator(kind)
        p_minus = op.exponent.p_minus
        assert (p_minus < 2.0) == (kind in ("1d-p<2", "2d-anisotropic"))
        r = 1.0 if r_kind == "one" else (1.0 + p_minus) / 2.0
        return mesh, op, r, checks.function_library(mesh)

    @pytest.mark.parametrize("seed, sample_count", [(0, 4096), (11, 1001)])
    @pytest.mark.parametrize("r_kind", ["one", "mid"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_margins_at_the_drawn_points_match_per_sample(self, kind, r_kind, seed,
                                                           sample_count):
        mesh, op, r, lib = self.case(kind, r_kind)
        margins, gaps = checks._picone_margins(op, r, lib, mesh.measures)
        assert margins.shape == (len(lib) ** 2, mesh.n_elements)
        assert gaps.shape == (len(lib), len(lib))
        # 1001 samples: 62 for each of 16 pairs, 3 for each of 256
        points, expected, _ = picone_per_sample(mesh, op, r, sample_count, seed)
        assert points.shape == expected.shape == (len(lib) ** 2,
                                                  sample_count // len(lib) ** 2)
        drawn = np.take_along_axis(margins, points, axis=1)
        assert drawn.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("r_kind", ["one", "mid"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_report_is_the_first_minimum_over_every_point(self, kind, r_kind):
        mesh, op, r, lib = self.case(kind, r_kind)
        every = np.tile(np.arange(mesh.n_elements), (len(lib) ** 2, 1))
        expected, report = picone_at_points(mesh, op, r, every)
        margins, _ = checks._picone_margins(op, r, lib, mesh.measures)
        assert margins.tobytes() == expected.tobytes()
        assert report.samples == len(lib) ** 2 * mesh.n_elements
        assert check_picone(mesh, op, r) == report


class TestPiconePair:
    def test_equal_fields_give_zero(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        w = interpolate(mesh_1d, lambda x: 0.4 + np.sin(np.pi * x[:, 0]))
        value, scale = picone_pair_integral(mesh_1d, op, 1.3, w.values, w.values)
        assert abs(value) <= 1e-8 * max(scale, 1.0)

    def test_scaled_pair_strictly_positive(self):
        mesh = interval_mesh(0.0, 1.0, 80)
        op = iso_op(mesh, 2.5)
        w2 = interpolate(mesh, lambda x: 0.3 + x[:, 0] * (1.0 - x[:, 0]))
        w1 = w2.with_values(2.0 * w2.values)
        value, _ = picone_pair_integral(mesh, op, 1.0, w1.values, w2.values)
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
            report = check_picone_pair(mesh_1d, op, 1.2, [(DiscreteField(mesh_1d, vals1),
                                                           DiscreteField(mesh_1d, vals2))])
            assert report.passed

    def test_rejects_nonpositive_interior(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        with pytest.raises(ValueError):
            check_picone_pair(mesh_1d, op, 1.2, [(zero_field(mesh_1d),
                                                  zero_field(mesh_1d))])

    @staticmethod
    def positive_pairs(mesh, count):
        rng = seeded_rng(6, "picone-pair-worst-test")
        ii = mesh.interior
        pairs = []
        for _ in range(count):
            w1, w2 = np.zeros((2, mesh.n_vertices))
            w1[ii], w2[ii] = rng.uniform(0.05, 2.0, (2, ii.size))
            pairs.append((DiscreteField(mesh, w1), DiscreteField(mesh, w2)))
        return pairs

    def test_reports_the_worst_of_several_pairs(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        pairs = self.positive_pairs(mesh_1d, 5)
        singles = [check_picone_pair(mesh_1d, op, 1.2, [pair]) for pair in pairs]
        margins = [r.worst_margin for r in singles]
        assert len(set(margins)) == len(pairs)
        # rotate the worst pair to the end, then to the middle
        k = int(np.argmin(margins))
        for shift in (k + 1, k - 2):
            rotated = pairs[shift:] + pairs[:shift]
            report = check_picone_pair(mesh_1d, op, 1.2, rotated)
            assert report.worst_margin == singles[k].worst_margin
            assert report.samples == len(pairs)
            assert report.location == f"pair {(k - shift) % len(pairs)} integrated quotient sum"

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_batch_matches_a_per_pair_loop(self, dimension):
        if dimension == 1:
            mesh = interval_mesh(0.0, 1.0, 40)
        else:
            mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.5, 6, 9)
        xb = mesh.barycenters[:, 0]
        op = LerayLionsOperator.isotropic(ExponentField(1.7 + 0.8 * xb), 1.0 + xb,
                                          ndim=dimension)
        pairs = self.positive_pairs(mesh, 8)
        values, scales = picone_pair_per_pair(mesh, op, 1.2, pairs)
        w1, w2 = (np.array([pair[i].values for pair in pairs]) for i in (0, 1))
        value, scale = picone_pair_integral(mesh, op, 1.2, w1, w2)
        assert value.tobytes() == values.tobytes()
        assert scale.tobytes() == scales.tobytes()
        margins = [v + checks.PICONE_PAIR_SLACK * max(s, 1e-300)
                   for v, s in zip(values.tolist(), scales.tolist())]
        worst = int(np.argmin(margins))
        report = check_picone_pair(mesh, op, 1.2, pairs)
        assert report.worst_margin == margins[worst]
        assert report.samples == len(pairs)
        assert report.location == f"pair {worst} integrated quotient sum"
        assert report.passed

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_pair_fields_follow_the_fixed_sequence(self, dimension):
        # field j of the flat pair order reads u_m = frac(m (sqrt 5 - 1)/2) at
        # m = j * block + 1 .. (j + 1) * block: its scale, then its interior
        if dimension == 1:
            mesh = interval_mesh(0.0, 1.0, 40)
        else:
            mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.5, 6, 9)
        pairs = checks.pair_fields(mesh)
        assert len(pairs) == checks.PICONE_PAIRS
        ii = mesh.interior
        block = 1 + ii.size
        golden = (5.0 ** 0.5 - 1.0) / 2.0
        for j, field_ in enumerate(f for pair in pairs for f in pair):
            u = [(m * golden) % 1.0 for m in range(j * block + 1, (j + 1) * block + 1)]
            x = mesh.vertices[ii, 0]
            expected = (0.5 + 1.5 * u[0]) * (0.2 + np.abs(np.sin(np.pi * x))
                                              + 0.3 * np.array(u[1:]))
            np.testing.assert_allclose(field_.values[ii], expected, rtol=1e-12)
            assert np.all(field_.values[ii] > 0.0)
            assert np.all(np.delete(field_.values, ii) == 0.0)
        again = checks.pair_fields(mesh)
        assert all(a.values.tobytes() == b.values.tobytes()
                   for pa, pb in zip(pairs, again) for a, b in zip(pa, pb))

    def test_rejects_a_nonpositive_field_in_any_pair(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        pairs = self.positive_pairs(mesh_1d, 3)
        good = pairs[0][0]
        for bad in [(good, zero_field(mesh_1d)), (zero_field(mesh_1d), good)]:
            for position in (0, 1, 3):
                with pytest.raises(ValueError):
                    check_picone_pair(mesh_1d, op, 1.2,
                                      pairs[:position] + [bad] + pairs[position:])


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

    def test_crossing_potentials_match_per_orientation(self, mesh_1d, data_1d):
        # both orientations from one difference and its negation, bitwise as
        # each difference formed in its own order
        op, src, _ = data_1d
        xb = mesh_1d.barycenters[:, 0]
        bump, sine = 4.0 * xb * (1.0 - xb), 0.5 + 0.4 * np.sin(3.0 * np.pi * xb)
        for h1, h2 in [(bump, sine), (sine, bump)]:
            report = check_contraction_elliptic(mesh_1d, op, Q, 1.0, src, h1, h2)
            assert report == contraction_elliptic_per_orientation(mesh_1d, op, Q, 1.0,
                                                                  src, h1, h2)

    def test_ordering_checked_in_either_orientation(self, mesh_1d, data_1d, monkeypatch):
        # h2 <= h1 needs v2 <= v1: a pair whose element means keep that order
        # but whose nodes break it fails on the ordering alone
        op, src, pot = data_1d
        h2 = pot(0.0)
        v1 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        raised = v1.values.copy()
        raised[50] += 1e-4
        raised[[49, 51]] -= 2e-4
        v2 = v1.with_values(raised)
        monkeypatch.setattr(checks, "_solve_pair", lambda *args: [v1, v2])
        report = check_contraction_elliptic(mesh_1d, op, Q, 1.0, src, h2 + 0.1, h2)
        assert report.worst_margin >= 0.0
        assert not report.passed

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
    s1 = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 20, v0)
    s2 = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 20, w0)
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
        s = EvolutionSetup(mesh_1d, op, Q, src, pot, 0.5, 10, v0)
        t1, t2 = evolve(s), evolve(s)
        assert l2_norm_diff_power(t1.final, t2.final, Q) <= 10 * 1e-11

    def test_same_potential_different_data(self, runs):
        traj1, traj2, pot = runs
        report = check_contraction_parabolic(traj1, traj2)
        assert report.passed
        # the difference also shrinks from its initial value
        lhs0 = l2_norm_diff_power(traj1.fields[0], traj2.fields[0], Q)
        lhsT = l2_norm_diff_power(traj1.final, traj2.final, Q)
        assert lhsT <= 1.02 * lhs0

    def test_different_potentials(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        prof = pot.limit
        pot2 = PotentialField(per_time(lambda t: prof * (1.0 + 0.3 * np.exp(-t))), prof,
                              1.3 * float(prof.max()), limit=prof)
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        s1 = EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 20, v0)
        s2 = EvolutionSetup(mesh_1d, op, Q, src, pot2, 1.0, 20, v0)
        traj1, traj2 = evolve(s1), evolve(s2)
        report = check_contraction_parabolic(traj1, traj2)
        assert report.passed
        # one datum, so the runs part only through their potentials: with no
        # data term every margin after t = 0 would be 1e-12 - lhs < 0, and
        # the check passes on the integral of ||h - g|| it reads from the runs
        assert time_integral_norm(mesh_1d, pot, pot2, s1.dt, s1.steps)[-1, 0] > 0.0
        assert l2_norm_diff_power(traj1.final, traj2.final, Q) > 1e-9
        assert report == contraction_parabolic_per_step(traj1, traj2)

    def test_rejects_mismatched_runs(self, mesh_1d, data_1d, runs):
        op, src, pot = data_1d
        traj1, _, _ = runs
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        # fewer steps, or as many on another time grid
        for horizon, steps in [(1.0, 10), (2.0, 20)]:
            other = evolve(EvolutionSetup(mesh_1d, op, Q, src, pot, horizon, steps, v0))
            with pytest.raises(ValueError):
                check_contraction_parabolic(traj1, other)


class TestSandwichAndMonotone:
    def test_run_stays_bracketed(self, mesh_1d, data_1d, bracketing):
        op, src, pot = data_1d
        v0, w_lo, w_hi = bracketing
        traj = evolve(EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 15, v0))
        report = check_sandwich(traj, w_lo, w_hi)
        assert report.passed

    def test_monotone_bracketing_runs(self, mesh_1d, data_1d, bracketing):
        op, src, pot = data_1d
        _, w_lo, w_hi = bracketing
        lo_run = evolve(EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 15, w_lo))
        hi_run = evolve(EvolutionSetup(mesh_1d, op, Q, src, pot, 1.0, 15, w_hi))
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
        traj = evolve(EvolutionSetup(mesh_1d, op, Q, src, pot, 50.0, 250, v0))
        report = check_stabilization(traj, v_stat)
        assert report.passed

    def test_bracketing_runs_meet(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w_lo, _ = make_subsolution(mesh_1d, op, Q, src, pot.lower_envelope, v0)
        w_hi, _ = make_supersolution(mesh_1d, op, Q, src, pot.sup_norm, v0)
        lo = evolve(EvolutionSetup(mesh_1d, op, Q, src, pot, 50.0, 250, w_lo))
        hi = evolve(EvolutionSetup(mesh_1d, op, Q, src, pot, 50.0, 250, w_hi))
        assert l2_norm_diff_power(lo.final, hi.final, 1.0) <= 2e-4


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
        op = LerayLionsOperator.isotropic(ExponentField(values), 1.0)
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

    def test_coarse_rectangle_reads_the_interior_minimum(self):
        # on 4 x 4 cells the corner bands cover every boundary probe
        mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)
        v = interpolate(mesh, lambda x: 0.1 + np.sin(np.pi * x[:, 0])
                        * np.sin(np.pi * x[:, 1]))
        report = check_positivity_hopf(v)
        assert report.samples == 1
        assert report.location == "interior minimum"
        assert report.passed


class TestAlgInequality:
    @pytest.mark.parametrize("q", [1.0 + 1e-6, 1.01, 1.25, 3.0, 3.5, 5.0, 50.0])
    def test_every_grid_margin_is_positive_without_slack(self, q):
        report = check_alg_inequality(q)
        assert report.passed and report.worst_margin > 0.0
        assert report.slack == 0.0
        assert report.samples == checks.ALG_GRID - 1

    def test_excluded_ends_are_equalities(self):
        # s = 0 is b = 0 and s = 1 is a = b: both sides agree exactly, so the
        # grid leaves them out and its margins need no slack
        for q in (1.25, 3.0, 50.0):
            for s in (0.0, 1.0):
                assert (1.0 - s ** q) ** 2 - (1.0 - s) ** (2.0 * q) == 0.0
        report = check_alg_inequality(1.25)
        assert report.location.endswith("equalities s = 0, 1 excluded")

    def test_worst_margin_lies_at_the_grid_point_next_to_a_equals_b(self):
        report = check_alg_inequality(1.25)
        assert report.location.startswith("s = b/a = 0.99999,")
        s = (checks.ALG_GRID - 1) / checks.ALG_GRID
        assert report.worst_margin == (1.0 - s ** 1.25) ** 2 - (1.0 - s) ** 2.5

    def test_rejects_q_below_one(self):
        with pytest.raises(ValueError):
            check_alg_inequality(1.0)

    def test_reports_are_serializable(self):
        report = check_alg_inequality(1.5)
        d = dataclasses.asdict(report)
        assert set(d) == {"check_name", "samples", "worst_margin", "location",
                          "passed", "slack"}


class TestImmutability:
    def test_checks_do_not_mutate_inputs(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        w1 = interpolate(mesh_1d, lambda x: 0.4 + np.sin(np.pi * x[:, 0]))
        w2 = interpolate(mesh_1d, lambda x: 0.6 + x[:, 0] * (1.0 - x[:, 0]))
        before1, before2 = w1.values.copy(), w2.values.copy()
        check_picone_pair(mesh_1d, op, 1.2, [(w1, w2)])
        np.testing.assert_array_equal(w1.values, before1)
        np.testing.assert_array_equal(w2.values, before2)


@pytest.fixture()
def recorded_margins(monkeypatch):
    """The margins each check hands to `_report`, flat, by check name."""
    recorded = {}
    report = checks._report

    def recording(name, samples, margins, *args, **kwargs):
        recorded[name] = np.asarray(margins, dtype=float).ravel()
        return report(name, samples, margins, *args, **kwargs)

    monkeypatch.setattr(checks, "_report", recording)
    return recorded


def _shipped_runs(config, steps):
    """The first `steps` steps of configs/<config>.cfg and of the same run
    from 0.7 times its datum."""
    full = load_scenario(str(CONFIGS / f"{config}.cfg")).setup
    setup = dataclasses.replace(full, horizon=steps * full.dt, steps=steps)
    shrunk = setup.initial.with_values(0.7 * setup.initial.values)
    return setup, evolve(setup), evolve(dataclasses.replace(setup, initial=shrunk))


def _data_1d_runs(mesh, data, source):
    op, src, pot = data
    v0 = interpolate(mesh, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
    setup = EvolutionSetup(mesh, op, Q, src if source else None, pot, 1.0, 20, v0)
    shrunk = dataclasses.replace(setup, initial=v0.with_values(0.7 * v0.values))
    return setup, evolve(setup), evolve(shrunk)


@pytest.fixture(scope="module", params=["default_1d", "decaying_1d", "smoke_2d",
                                        "with_source", "without_source"])
def run_pair(request, mesh_1d, data_1d):
    """(setup, run, run from 0.7 times its datum, stationary state)."""
    if request.param.endswith("source"):
        runs = _data_1d_runs(mesh_1d, data_1d, request.param == "with_source")
    else:
        runs = _shipped_runs(request.param, 40 if "1d" in request.param else 10)
    setup = runs[0]
    v_stat = solve_stationary(setup.mesh, setup.op, setup.q, setup.potential.limit,
                              setup.source)
    return (*runs, v_stat)


class TestStackedRunChecks:
    """The run checks read a run as one array; each report equals, field for
    field and bitwise, the one built one stored time at a time."""

    def test_sandwich(self, run_pair):
        _, traj, other, v_stat = run_pair
        for sub, sup in [(other.final, v_stat), (other.fields[0], traj.fields[0])]:
            assert check_sandwich(traj, sub, sup) == sandwich_per_step(traj, sub, sup)

    def test_monotone(self, run_pair):
        _, traj, other, _ = run_pair
        for run in (traj, other):
            for direction in ("nondecreasing", "nonincreasing"):
                assert (check_monotone_run(run, direction)
                        == monotone_run_per_step(run, direction))

    def test_contraction_parabolic(self, run_pair):
        # each run holds its potential: for each (h, g), the datum runs under
        # h and 0.7 times it under g, checked in both orientations
        setup, traj, other, _ = run_pair
        pot = setup.potential
        # a second potential whose difference from the first changes sign
        phase = np.linspace(0.0, 6.0, setup.mesh.n_elements)
        wave = PotentialField(per_time(lambda t: pot(t) * (1.0 + 0.5 * np.sin(3.0 * t + phase))),
                              0.5 * pot.lower_envelope, 1.5 * pot.sup_norm)
        traj_wave, other_wave = (evolve(dataclasses.replace(run.setup, potential=wave))
                                 for run in (traj, other))
        for a, b in [(traj, other), (traj, other_wave), (traj_wave, other)]:
            for x, y in [(a, b), (b, a)]:
                assert (check_contraction_parabolic(x, y)
                        == contraction_parabolic_per_step(x, y))

    def test_stabilization(self, run_pair):
        setup, traj, other, v_stat = run_pair
        for run in (traj, other):
            assert (check_stabilization(run, v_stat)
                    == stabilization_per_step(run, v_stat))

    def test_worst_at_the_initial_time(self, mesh_1d, data_1d, bracketing):
        # the two runs differ most at t = 0; the bracket's margin is the slack
        # at the boundary nodes from t = 0 on, and the first worst is reported
        _, traj, other = _data_1d_runs(mesh_1d, data_1d, True)
        report = check_contraction_parabolic(traj, other)
        assert report.location == "t=0 (plain)"
        assert report == contraction_parabolic_per_step(traj, other)
        _, w_lo, w_hi = bracketing
        report = check_sandwich(traj, w_lo, w_hi)
        assert report.location == "t=0 lower"
        assert report == sandwich_per_step(traj, w_lo, w_hi)

    def test_stabilization_rejects_another_mesh(self, runs):
        traj, _, pot = runs
        mesh = interval_mesh(0.0, 1.0, 7)
        v_other = interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(ValueError):
            check_stabilization(traj, v_other)


def _hopf_field(mesh):
    """Positive inside, zero on the boundary, a different slope at each side."""
    values = np.ones(mesh.n_vertices)
    for axis, (lo, hi) in enumerate(mesh.bounds):
        s = (mesh.vertices[:, axis] - lo) / (hi - lo)
        values = values * np.sin(np.pi * s) * (1.0 + s) * (1.5 - 0.3 * axis)
    values[mesh.boundary_mask] = 0.0
    return DiscreteField(mesh, values)


class TestHopfProbes:
    """The probes read along grid lines agree with evaluation at the probe
    points through the triangle layout."""

    MESHES = {"interval": lambda: interval_mesh(-0.7, 2.3, 37),
              "12x12": lambda: rectangle_mesh(0.0, 1.0, 0.0, 1.0, 12, 12),
              "30x10": lambda: rectangle_mesh(0.5, 2.0, -1.0, 0.2, 30, 10),
              "9x23": lambda: rectangle_mesh(0.0, 1.0, 0.0, 1.0, 9, 23)}

    @pytest.mark.parametrize("name", MESHES)
    def test_quotients_match_point_evaluation(self, name, recorded_margins):
        field = _hopf_field(self.MESHES[name]())
        report = check_positivity_hopf(field)
        reference = hopf_probe_quotients(field)
        margins = recorded_margins["positivity-hopf"]
        assert report.samples == margins.size == reference.size + 1
        assert report.location == "interior minimum"
        np.testing.assert_allclose(margins[1:] + checks.HOPF_FLOOR, reference,
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", ["interval", "30x10", "9x23"])
    def test_worst_probe_located(self, name):
        # scaled down, every quotient falls below the floor
        field = _hopf_field(self.MESHES[name]())
        field = field.with_values(1e-9 * field.values)
        report = check_positivity_hopf(field)
        reference = hopf_probe_quotients(field)
        k = int(np.argmin(reference))
        assert not report.passed
        assert report.location.startswith(f"boundary probe {k} quotient ")
        assert report.worst_margin == pytest.approx(reference[k] - checks.HOPF_FLOOR,
                                                    rel=1e-14, abs=0.0)
