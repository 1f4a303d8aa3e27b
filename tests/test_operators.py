from dataclasses import replace

import numpy as np
import pytest

from dne.operators import (ExponentField, LerayLionsOperator, PotentialField,
                           Regime, SourceTerm, ValidationError, classify_regime,
                           eval_A, eval_flux, eval_source)

from oracles import (calibrate_gamma0, ellipticity_floor, flux_jacobian_batch,
                     growth_envelope, monotonicity_gap, morawetz_gap, picone_gap,
                     per_time, picone_pair_sum, restrict, seeded_rng)


def const_op(p, ndim=2, weight=1.0, n_points=8):
    return LerayLionsOperator.isotropic(ExponentField.constant(n_points, p),
                                        weight, ndim=ndim)


def every(op, xi):
    """The one gradient xi at every point of `op`."""
    return np.broadcast_to(np.asarray(xi, dtype=float), (op.n_points, len(xi)))


def random_op(rng, n_points=64, p_range=(1.2, 4.0)):
    exponent = ExponentField(rng.uniform(*p_range, n_points))
    w1 = rng.uniform(0.5, 2.0, n_points)
    w2 = rng.uniform(0.5, 2.0, n_points)
    return LerayLionsOperator(
        exponent, (np.array([0]), np.array([1, 2])), [w1, w2])


class TestExponentField:
    def test_caches_match_extrema(self):
        f = ExponentField([2.0, 3.0, 2.5])
        assert f.p_minus == 2.0 and f.p_plus == 3.0

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            ExponentField([1.0, 2.0])


class TestOperatorConstruction:
    def test_partition_must_cover_axes(self):
        exponent = ExponentField.constant(4, 2.0)
        with pytest.raises(ValueError):
            LerayLionsOperator(exponent, (np.array([0, 0]),), [1.0])
        with pytest.raises(ValueError):
            LerayLionsOperator(exponent, (np.array([0]), np.array([2])), [1.0, 1.0])

    def test_weights_must_be_positive(self):
        exponent = ExponentField.constant(4, 2.0)
        with pytest.raises(ValueError):
            LerayLionsOperator(exponent, (np.array([0]),), [0.0])


class TestEvalA:
    def test_p2_is_squared_norm(self):
        op = const_op(2.0)
        np.testing.assert_allclose(eval_A(op, every(op, [3.0, 4.0])), 25.0)

    def test_cubic_homogeneity(self):
        op = const_op(3.0)
        xi = every(op, [0.6, 0.8])
        np.testing.assert_allclose(eval_A(op, 2.0 * xi), 8.0 * eval_A(op, xi))

    def test_two_blocks_with_weights(self):
        exponent = ExponentField.constant(4, 3.0)
        op = LerayLionsOperator(exponent, (np.array([0]), np.array([1])), [1.0, 2.0])
        np.testing.assert_allclose(eval_A(op, every(op, [1.0, 1.0])), 3.0)

    def test_zero_only_at_zero(self):
        op = const_op(2.7)
        assert np.all(eval_A(op, every(op, [0.0, 0.0])) == 0.0)
        assert np.all(eval_A(op, every(op, [1e-8, 0.0])) > 0.0)


class TestEvalFlux:
    def test_identity_at_p2(self):
        op = const_op(2.0)
        np.testing.assert_allclose(eval_flux(op, every(op, [3.0, 4.0])),
                                   every(op, [3.0, 4.0]))

    def test_p4_closed_form(self):
        op = const_op(4.0)
        np.testing.assert_allclose(eval_flux(op, every(op, [1.0, 0.0])),
                                   every(op, [1.0, 0.0]))

    def test_zero_extension_for_singular_p(self):
        op = const_op(1.4)
        np.testing.assert_array_equal(eval_flux(op, every(op, [0.0, 0.0])),
                                      every(op, [0.0, 0.0]))

    def test_euler_identity_random(self):
        rng = seeded_rng(11, "euler")
        op = random_op(rng)
        ks = rng.integers(0, op.n_points, 5000)
        xi = rng.standard_normal((5000, 3)) * 10.0 ** rng.uniform(-2, 1, (5000, 1))
        lhs = np.sum(eval_flux(restrict(op, ks), xi) * xi, axis=1)
        rhs = eval_A(restrict(op, ks), xi)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_A_matches_block_sum_of_powers(self):
        # eval_A is a . xi; this is its closed form sum_j g_j rho_j^(p/2),
        # written out here, on variable p and two blocks
        rng = seeded_rng(17, "block-powers")
        op = random_op(rng)
        ks = rng.integers(0, op.n_points, 5000)
        xi = rng.standard_normal((5000, 3)) * 10.0 ** rng.uniform(-2, 1, (5000, 1))
        p = op.exponent.values[ks]
        expected = (op.weights[0][ks] * (xi[:, 0] ** 2) ** (p / 2.0)
                    + op.weights[1][ks] * (xi[:, 1] ** 2 + xi[:, 2] ** 2) ** (p / 2.0))
        np.testing.assert_allclose(eval_A(restrict(op, ks), xi), expected, rtol=1e-12)


def exact_jacobian(op, k, xi):
    """Exact flux Jacobian at one point: the eps = 0 row of the batch the
    solver regularizes."""
    return flux_jacobian_batch(op, [k], np.asarray(xi, dtype=float)[None], eps=0.0)[0]


class TestFluxJacobian:
    def test_identity_at_p2(self):
        np.testing.assert_allclose(exact_jacobian(const_op(2.0), 0, [0.3, -0.7]),
                                   np.eye(2))

    def test_p4_closed_form(self):
        np.testing.assert_allclose(exact_jacobian(const_op(4.0), 0, [1.0, 0.0]),
                                   [[3.0, 0.0], [0.0, 1.0]])

    def test_p2_at_zero_is_weight_times_identity(self):
        # the flux is a = g xi, so the exact Jacobian at xi = 0 is g I
        np.testing.assert_array_equal(
            exact_jacobian(const_op(2.0, weight=2.0), 0, [0.0, 0.0]), 2.0 * np.eye(2))

    def test_p2_vanishing_block_is_its_weight_times_identity(self):
        exponent = ExponentField.constant(4, 2.0)
        op = LerayLionsOperator(exponent, (np.array([0]), np.array([1, 2])), [3.0, 0.5])
        jac = exact_jacobian(op, 0, [0.7, 0.0, 0.0])
        np.testing.assert_allclose(jac[1:, 1:], 0.5 * np.eye(2))
        np.testing.assert_allclose(jac[0, 0], 3.0)
        assert not np.any(jac[0, 1:]) and not np.any(jac[1:, 0])

    def test_matches_finite_differences(self):
        rng = seeded_rng(7, "fd-jacobian")
        op = random_op(rng)
        step = 1e-6
        for _ in range(40):
            k = int(rng.integers(0, op.n_points))
            xi = rng.standard_normal(3)
            jac = exact_jacobian(op, k, xi)
            np.testing.assert_allclose(jac, jac.T, atol=1e-12)
            at_k = restrict(op, [k])
            fd = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = step
                fd[:, i] = (eval_flux(at_k, [xi + e])[0]
                            - eval_flux(at_k, [xi - e])[0]) / (2 * step)
            np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-7)

    def test_eigenvalue_floor(self):
        rng = seeded_rng(13, "jac-floor")
        op = random_op(rng)
        for _ in range(200):
            k = int(rng.integers(0, op.n_points))
            xi = rng.standard_normal(3)
            jac = exact_jacobian(op, k, xi)
            floor = ellipticity_floor(op, k, xi)
            lam_min = np.linalg.eigvalsh(jac)[0]
            assert lam_min >= floor * (1.0 - 1e-10) - 1e-14


class TestIndexForms:
    """The library evaluates every point of an operator; an oracle's point
    index evaluates the operator restricted to its points, which must give
    the bits of the every-point evaluation there."""

    def cases(self):
        rng = seeded_rng(11, "index-forms")
        two_blocks = random_op(rng, n_points=16)
        xi = rng.standard_normal((16, 3))
        singular = LerayLionsOperator(
            ExponentField(rng.uniform(1.2, 1.9, 16)),
            (np.array([0]), np.array([1, 2])), [rng.uniform(0.5, 2.0, 16), 1.5])
        vanishing = xi.copy()
        vanishing[::3, 1:] = 0.0  # the p < 2 block vanishes at every third point
        return [(two_blocks, xi), (singular, vanishing)]

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_restriction_matches_every_point(self, eps):
        # index arrays with repeats, a strided slice and each single point
        ks_forms = [np.array([3, 3, 0, 15, 7]), slice(1, None, 4)]
        for op, xi in self.cases():
            flux, jac = eval_flux(op, xi), flux_jacobian_batch(op, slice(None), xi, eps=eps)
            energy = eval_A(op, xi)
            for ks in ks_forms + [[k] for k in range(op.n_points)]:
                sub = restrict(op, ks)
                np.testing.assert_array_equal(eval_flux(sub, xi[ks]), flux[ks])
                np.testing.assert_array_equal(eval_A(sub, xi[ks]), energy[ks])
                np.testing.assert_array_equal(
                    flux_jacobian_batch(op, ks, xi[ks], eps=eps), jac[ks])

    def test_scattered_block_matches_its_permuted_contiguous_twin(self):
        # a block on axes {0, 2} is indexed by its array, not a slice
        rng = seeded_rng(12, "scattered-block")
        exponent = ExponentField(rng.uniform(1.3, 3.5, 8))
        w = [rng.uniform(0.5, 2.0, 8), rng.uniform(0.5, 2.0, 8)]
        scattered = LerayLionsOperator(exponent, (np.array([0, 2]), np.array([1])), w)
        contiguous = LerayLionsOperator(exponent, (np.array([0, 1]), np.array([2])), w)
        assert not isinstance(scattered.axes[0], slice)
        assert contiguous.axes == (slice(0, 2), slice(2, 3))
        xi = rng.standard_normal((8, 3))
        swap = [0, 2, 1]
        np.testing.assert_array_equal(eval_flux(scattered, xi),
                                      eval_flux(contiguous, xi[:, swap])[:, swap])
        np.testing.assert_array_equal(
            flux_jacobian_batch(scattered, slice(None), xi, eps=1e-3),
            flux_jacobian_batch(contiguous, slice(None), xi[:, swap],
                                eps=1e-3)[:, swap][:, :, swap])


class TestMonotonicityGap:
    def test_linear_flux_exact(self):
        lhs, rhs = monotonicity_gap(const_op(2.0), 0, [1.0, 0.0], [0.0, 1.0],
                                    gamma0=1.0)
        assert lhs == pytest.approx(2.0)

    def test_degenerate_pair(self):
        lhs, rhs = monotonicity_gap(const_op(3.0), 0, [0.4, 0.2], [0.4, 0.2])
        assert lhs == 0.0 and rhs == 0.0

    def test_calibrated_bound_holds_on_fresh_samples(self):
        rng = seeded_rng(3, "monotonicity")
        op = random_op(rng)
        gamma0 = calibrate_gamma0(op, n_samples=200_000, seed=5)
        assert gamma0 > 0.0
        ks = rng.integers(0, op.n_points, 50_000)
        scale = 10.0 ** rng.uniform(-2, 1, (50_000, 1))
        xi = rng.standard_normal((50_000, 3)) * scale
        eta = rng.standard_normal((50_000, 3)) * scale
        lhs, rhs = monotonicity_gap(op, ks, xi, eta, gamma0=gamma0)
        assert np.all(lhs >= rhs - 1e-10 * np.maximum(1.0, np.abs(rhs)))


class TestPicone:
    def test_equal_functions_r1(self):
        op = const_op(2.6)
        g = np.array([0.3, -0.5])
        lhs, rhs = picone_gap(op, 0, g, g, g, r=1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_proportional_pair_r1(self):
        # v = 2u: ratio gradient doubles, both sides scale identically
        op = const_op(2.0)
        gu = np.array([0.4, 0.1])
        lhs, rhs = picone_gap(op, 0, gu, 2.0 * gu, 2.0 * gu, r=1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_r_at_p(self):
        with pytest.raises(ValueError):
            picone_gap(const_op(2.0), 0, [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], r=2.0)

    def test_sampled_inequality(self):
        # consistent triples built from explicit positive quadratics on (0, 1)
        rng = seeded_rng(17, "picone-op")
        op = random_op(rng, n_points=128, p_range=(1.6, 4.0))
        r = 1.3
        x = rng.uniform(0.05, 0.95, 20_000)
        ks = rng.integers(0, op.n_points, 20_000)
        u = 0.5 + x * (1.0 - x)
        du = 1.0 - 2.0 * x
        v = 0.8 + 0.3 * x ** 2
        dv = 0.6 * x
        grads_u = np.zeros((20_000, 3))
        grads_v = np.zeros((20_000, 3))
        grads_u[:, 0] = (1.0 / r) * u ** (1.0 / r - 1.0) * du
        grads_v[:, 0] = (1.0 / r) * v ** (1.0 / r - 1.0) * dv
        ratio = np.zeros((20_000, 3))
        ratio[:, 0] = (u ** (-(r - 1.0) / r) * dv
                       - ((r - 1.0) / r) * v * u ** (-(r - 1.0) / r - 1.0) * du)
        lhs, rhs = picone_gap(op, ks, grads_u, grads_v, ratio, r)
        assert np.all(lhs <= rhs + 1e-12 * np.maximum(1.0, np.abs(rhs)))


class TestPiconePairSum:
    def test_nonnegative_on_samples(self):
        rng = seeded_rng(23, "picone-pair-pt")
        op = random_op(rng, p_range=(1.5, 4.0))
        m = 20_000
        ks = rng.integers(0, op.n_points, m)
        w1 = rng.uniform(0.1, 2.0, m)
        w2 = rng.uniform(0.1, 2.0, m)
        g1 = rng.standard_normal((m, 3))
        g2 = rng.standard_normal((m, 3))
        val = picone_pair_sum(op, ks, w1, w2, g1, g2, r=1.4)
        sub = restrict(op, ks)
        scale = (np.abs(np.sum(eval_flux(sub, g1) * g1, axis=1))
                 + np.abs(np.sum(eval_flux(sub, g2) * g2, axis=1)))
        assert np.all(val >= -1e-12 * np.maximum(1.0, scale))

    def test_zero_when_equal(self):
        op = const_op(2.5)
        g = np.array([0.7, -0.2])
        assert picone_pair_sum(op, 0, 1.3, 1.3, g, g, r=1.2) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_nonpositive_values(self):
        op = const_op(2.5)
        with pytest.raises(ValueError):
            picone_pair_sum(op, 0, 0.0, 1.0, [1.0, 0.0], [1.0, 0.0], r=1.2)


class TestGrowthAndConvexity:
    def test_growth_envelope_samples(self):
        rng = seeded_rng(29, "growth")
        op = random_op(rng)
        ks = rng.integers(0, op.n_points, 20_000)
        xi = rng.standard_normal((20_000, 3)) * 10.0 ** rng.uniform(-1, 1, (20_000, 1))
        a = eval_A(restrict(op, ks), xi)
        lo, hi = growth_envelope(op, ks, xi)
        assert np.all(a >= lo - 1e-10 * np.maximum(1.0, a))
        assert np.all(a <= hi + 1e-10 * np.maximum(1.0, a))

    def test_convexity_samples(self):
        rng = seeded_rng(31, "convexity")
        op = random_op(rng)
        ks = rng.integers(0, op.n_points, 20_000)
        xi = rng.standard_normal((20_000, 3))
        eta = rng.standard_normal((20_000, 3))
        t = rng.uniform(0.0, 1.0, (20_000, 1))
        sub = restrict(op, ks)
        mid = eval_A(sub, t * xi + (1.0 - t) * eta)
        chord = t[:, 0] * eval_A(sub, xi) + (1.0 - t[:, 0]) * eval_A(sub, eta)
        assert np.all(mid <= chord + 1e-12 + 1e-12 * chord)

    def test_morawetz_constant_exponent(self):
        # Clarkson regime: asserted only for a constant-p single block
        for p in (1.6, 2.0, 3.0):
            op = const_op(p)
            rng = seeded_rng(37, f"morawetz-{p}")
            xi = rng.standard_normal((5000, 2))
            eta = rng.standard_normal((5000, 2))
            lhs, rhs = morawetz_gap(op, np.zeros(5000, dtype=int), xi, eta)
            assert np.all(lhs <= rhs + 1e-10 * np.maximum(1.0, rhs))


class TestSource:
    def make(self, beta=0.0, gamma=1.0, n=16):
        delta = np.linspace(0.01, 0.5, n)
        return SourceTerm(np.full(n, 1.0), delta, gamma=gamma, beta=beta)

    def test_zero_at_zero(self):
        assert np.all(eval_source(self.make(), np.zeros(16)) == 0.0)

    def test_linear_case(self):
        src = SourceTerm(np.full(4, 1.0), np.full(4, 1.0), gamma=0.0, beta=1.0)
        np.testing.assert_allclose(eval_source(src, np.full(4, 2.0)), 2.0)

    def test_rejects_negative_s(self):
        s = np.ones(16)
        s[5] = -1.0
        with pytest.raises(ValueError):
            eval_source(self.make(), s)

    def test_ratio_nonincreasing(self):
        # f/s^(q-1) for a q whose (f_1) holds at beta = 0.2
        src, q = self.make(beta=0.2), 1.5
        s1, s2 = 0.3, 1.7
        r1 = eval_source(src, np.full(16, s1)) / s1 ** (q - 1.0)
        r2 = eval_source(src, np.full(16, s2)) / s2 ** (q - 1.0)
        assert np.all(r1 >= r2)

    def test_delta_power_derived_once(self):
        # delta^gamma is derived at construction, out of repr and comparison,
        # and derived again by `dataclasses.replace`
        src = self.make(beta=0.1, gamma=0.7)
        assert src.delta_power.tobytes() == (src.delta ** 0.7).tobytes()
        assert "delta_power" not in repr(src)
        moved = replace(src, delta=2.0 * src.delta)
        assert moved.delta_power.tobytes() == ((2.0 * src.delta) ** 0.7).tobytes()
        scaled = replace(src, g=3.0 * src.g)
        assert scaled.delta_power.tobytes() == src.delta_power.tobytes()
        s = np.linspace(0.0, 2.0, src.g.size)
        expected = np.where(s > 0.0, src.g * src.delta ** 0.7 * s ** 0.1, 0.0)
        assert eval_source(src, s).tobytes() == expected.tobytes()



class TestPotential:
    def test_envelope_must_be_nontrivial(self):
        with pytest.raises(ValueError):
            PotentialField(per_time(lambda t: np.ones(4)), np.zeros(4), 1.0)

    def test_envelope_violation_detected(self):
        pot = PotentialField(per_time(lambda t: np.full(4, 0.5 - t)), np.full(4, 0.25), 0.5)
        pot.check_envelope([0.0, 0.25])
        with pytest.raises(ValueError):
            pot.check_envelope([0.5])

    def test_check_names_the_first_failing_time(self):
        # one evaluator call for every sampled time; the first time that
        # fails any check is named, by the first check it fails there
        calls = []

        def rows(times):
            calls.append(len(times))
            return np.array([np.full(4, 0.5 - t) if t < 0.9 else np.full(4, np.inf)
                             for t in times])

        pot = PotentialField(rows, np.full(4, 0.25), 0.5)
        with pytest.raises(ValidationError, match=r"envelope at t=0\.3$"):
            pot.check_envelope([0.0, 0.3, 0.6, 0.9])
        with pytest.raises(ValidationError, match=r"envelope at t=0\.6$"):
            pot.check_envelope([0.0, 0.6, 0.3])
        with pytest.raises(ValueError, match=r"not finite at t=0\.9$"):
            pot.check_envelope([0.9, 0.3])
        assert calls == [4, 3, 2]

    def test_rejects_infinite_values(self):
        # an infinite potential used to load and fail at the first solve
        with pytest.raises(ValueError, match="finite"):
            PotentialField.constant(np.full(4, np.inf))
        pot = PotentialField(per_time(lambda t: np.full(4, 1.0 if t == 0.0 else np.inf)),
                             np.ones(4), 1.0)
        with pytest.raises(ValueError, match="finite"):
            pot.check_envelope([0.0, 1.0])


class TestRegimeClassification:
    def test_slow(self):
        assert classify_regime(ExponentField.constant(4, 3.0), 1.2) is Regime.SLOW_DIFFUSION

    def test_fast(self):
        assert classify_regime(ExponentField.constant(4, 2.2), 1.5) is Regime.FAST_DIFFUSION

    def test_mixed(self):
        field = ExponentField(np.linspace(2.5, 3.5, 8))
        assert classify_regime(field, 1.5) is Regime.MIXED

    def test_rejects_q_outside_range(self):
        with pytest.raises(ValueError):
            classify_regime(ExponentField.constant(4, 3.0), 3.5)
        with pytest.raises(ValueError):
            classify_regime(ExponentField.constant(4, 3.0), 1.0)
