import numpy as np
import pytest

from dne.elliptic import EllipticProblem, PowerTerm, _energy_terms, _point
from dne.meshing import (DiscreteField, boundary_distance_field, interpolate,
                         interval_mesh, l2_norm_diff_power, rectangle_mesh)
from dne.operators import ExponentField, LerayLionsOperator

from oracles import (boundary_distance_reference, energy, eval_at_points,
                     positive_part_norm, rectangle_elements_reference, seeded_rng,
                     spacing_reference, zero_field)


def iso_op(mesh, p, weight=1.0):
    return LerayLionsOperator.isotropic(
        ExponentField.constant(mesh.n_elements, p), weight, ndim=mesh.dimension)


class TestExtents:
    def test_one_pair_per_axis(self, extent_mesh):
        mesh = extent_mesh
        assert mesh.dimension == len(mesh.bounds) == len(mesh.resolution)
        assert mesh.dimension == mesh.vertices.shape[1]
        for axis, (lo, hi) in enumerate(mesh.bounds):
            assert (lo, hi) == (mesh.vertices[:, axis].min(), mesh.vertices[:, axis].max())

    def test_spacing_and_distance_match_the_flat_formulas(self, extent_mesh):
        assert extent_mesh.spacing == spacing_reference(extent_mesh)
        distance = boundary_distance_field(extent_mesh)
        expected = boundary_distance_reference(extent_mesh)
        assert distance.shape == expected.shape == (extent_mesh.n_elements,)
        assert distance.tobytes() == expected.tobytes()


class TestMeshGeometry:
    def test_measures_sum_to_domain(self):
        m = interval_mesh(0.0, 1.0, 37)
        assert m.measures.sum() == pytest.approx(1.0, rel=1e-12)
        m2 = rectangle_mesh(0.0, 2.0, -1.0, 1.0, 9, 7)
        assert m2.measures.sum() == pytest.approx(4.0, rel=1e-12)
        assert np.all(m2.measures > 0.0)

    @pytest.mark.parametrize("build", [
        lambda: interval_mesh(1.0, 0.0, 4), lambda: interval_mesh(0.0, 0.0, 4),
        lambda: rectangle_mesh(0.0, 1.0, 1.0, 0.0, 4, 4),
        lambda: rectangle_mesh(1.0, 0.0, 0.0, 1.0, 4, 4)],
        ids=["interval-reversed", "interval-empty", "rectangle-y", "rectangle-x"])
    def test_rejects_nonincreasing_extents(self, build):
        # reversed bounds used to be accepted: in 1D they failed later, at the
        # boundary distance, and in 2D not at all
        with pytest.raises(ValueError, match="a < b|increasing extents"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: interval_mesh(0.0, np.inf, 4), lambda: interval_mesh(-np.inf, 0.0, 4),
        lambda: rectangle_mesh(0.0, np.inf, 0.0, 1.0, 4, 4),
        lambda: rectangle_mesh(0.0, 1.0, -np.inf, 1.0, 4, 4)],
        ids=["interval-b", "interval-a", "rectangle-x", "rectangle-y"])
    def test_rejects_infinite_extents(self, build):
        # an infinite extent used to give NaN vertices and NaN measures,
        # which the nonpositive-measure test let through
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_boundary_vertices_are_geometric_boundary(self):
        m = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 5, 5)
        on_edge = ((m.vertices[:, 0] in (0.0, 1.0)) if False else
                   (np.isin(m.vertices[:, 0], (0.0, 1.0))
                    | np.isin(m.vertices[:, 1], (0.0, 1.0))))
        np.testing.assert_array_equal(m.boundary_mask, on_edge)

    @pytest.mark.parametrize("nx, ny", [(12, 12), (48, 48), (6, 9), (2, 2), (3, 7)])
    def test_element_table_matches_the_cell_loop(self, nx, ny):
        m = rectangle_mesh(0.0, 1.0, 0.0, 1.5, nx, ny)
        expected = rectangle_elements_reference(nx, ny)
        assert m.elements.dtype == expected.dtype
        np.testing.assert_array_equal(m.elements, expected)

    def test_no_all_boundary_elements(self):
        for nx, ny in [(2, 2), (5, 3), (8, 8)]:
            m = rectangle_mesh(0.0, 1.0, 0.0, 1.0, nx, ny)
            assert not np.any(np.all(m.boundary_mask[m.elements], axis=1))


class TestDiscreteField:
    def test_boundary_values_enforced(self):
        m = interval_mesh(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            DiscreteField(m, np.ones(m.n_vertices))

    def test_rejects_nonfinite(self):
        m = interval_mesh(0.0, 1.0, 4)
        vals = np.zeros(m.n_vertices)
        vals[2] = np.nan
        with pytest.raises(ValueError):
            DiscreteField(m, vals)


class TestGradient:
    def test_chord_slope_1d(self):
        m = interval_mesh(0.0, 1.0, 10)
        v = interpolate(m, lambda x: x[:, 0] * (1.0 - x[:, 0]))
        g = m.gradient_of(v.values)[:, 0]
        xl = m.vertices[m.elements[:, 0], 0]
        xr = m.vertices[m.elements[:, 1], 0]
        np.testing.assert_allclose(g, 1.0 - xl - xr, atol=1e-14)

    def test_zero_field(self):
        m = interval_mesh(0.0, 1.0, 8)
        np.testing.assert_array_equal(m.gradient_of(zero_field(m).values), 0.0)

    def test_linear_exact_2d(self):
        m = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 6, 6)
        vals = 2.0 * m.vertices[:, 0] - 0.5 * m.vertices[:, 1]
        vals[m.boundary_mask] = 0.0
        f = DiscreteField(m, vals)
        interior_elems = np.all(~m.boundary_mask[m.elements], axis=1)
        got = m.gradient_of(f.values)[interior_elems]
        np.testing.assert_allclose(got, np.tile([2.0, -0.5], (got.shape[0], 1)),
                                   atol=1e-12)


class TestModular:
    """The modular int A(x, grad v)/p(x) is the energy of the bare problem."""

    @staticmethod
    def modular(v, op):
        return energy(EllipticProblem(v.mesh, op), v)

    def test_zero_field(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        assert self.modular(zero_field(mesh_1d), op) == 0.0

    def test_sixth_oracle(self):
        # exact value of int (1-2x)^2/2 dx on (0,1) is 1/6
        m = interval_mesh(0.0, 1.0, 200)
        v = interpolate(m, lambda x: x[:, 0] * (1.0 - x[:, 0]))
        assert self.modular(v, iso_op(m, 2.0)) == pytest.approx(1.0 / 6.0, abs=1e-4)

    def test_exact_for_piecewise_constant_gradient(self):
        # single hat at the middle node of a 4-cell mesh: slopes +-4 on the two
        # central elements, so the p=2 modular is 2 * (1/4) * 16 / 2 = 4 exactly
        m = interval_mesh(0.0, 1.0, 4)
        vals = np.zeros(m.n_vertices)
        vals[2] = 1.0
        assert self.modular(DiscreteField(m, vals), iso_op(m, 2.0)) == pytest.approx(
            4.0, rel=1e-14)

    def test_refinement_reduces_error(self):
        errs = []
        for n in (100, 200):
            m = interval_mesh(0.0, 1.0, n)
            v = interpolate(m, lambda x: x[:, 0] * (1.0 - x[:, 0]))
            errs.append(abs(self.modular(v, iso_op(m, 2.0)) - 1.0 / 6.0))
        assert errs[1] < errs[0]

    def test_power_scaling(self):
        m = interval_mesh(0.0, 1.0, 50)
        v = interpolate(m, lambda x: np.sin(np.pi * x[:, 0]))
        op = iso_op(m, 3.0)
        doubled = v.with_values(2.0 * v.values)
        assert self.modular(doubled, op) == pytest.approx(8.0 * self.modular(v, op),
                                                          rel=1e-12)

    def test_operator_mesh_mismatch(self):
        m = interval_mesh(0.0, 1.0, 10)
        other = interval_mesh(0.0, 1.0, 20)
        with pytest.raises(ValueError, match="operator does not match the mesh"):
            self.modular(zero_field(other), iso_op(m, 2.0))


class TestLqIntegral:
    """The weighted power integral int c (v+)^r, read from r times the power
    term int c (v+)^r / r of the energy."""

    @staticmethod
    def lq_integral(v, weight, exponent):
        mesh = v.mesh
        problem = EllipticProblem(mesh, iso_op(mesh, 2.0), terms=(
            PowerTerm(mesh, np.full(mesh.n_elements, weight), exponent),))
        return exponent * _energy_terms(problem, _point(mesh, problem.op, v.values))[1]

    def test_zero_field(self, mesh_1d):
        assert self.lq_integral(zero_field(mesh_1d), 1.0, 2.0) == 0.0

    def test_third_oracle(self):
        # int (2 min(x, 1-x))^2 dx on (0,1) is 1/3
        m = interval_mesh(0.0, 1.0, 200)
        v = interpolate(m, lambda x: 2.0 * np.minimum(x[:, 0], 1.0 - x[:, 0]))
        assert self.lq_integral(v, 1.0, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_negative_part_ignored(self):
        m = interval_mesh(0.0, 1.0, 20)
        vals = np.where(m.boundary_mask, 0.0, -1.0)
        assert self.lq_integral(DiscreteField(m, vals), 1.0, 1.25) == 0.0


class TestL2NormDiffPower:
    def test_equal_fields(self, mesh_1d):
        v = interpolate(mesh_1d, lambda x: np.sin(np.pi * x[:, 0]))
        assert l2_norm_diff_power(v, v, 1.25) == 0.0

    def test_ordered_positive_part(self, mesh_1d):
        u = interpolate(mesh_1d, lambda x: 2.0 * np.sin(np.pi * x[:, 0]))
        v = interpolate(mesh_1d, lambda x: np.sin(np.pi * x[:, 0]))
        full = l2_norm_diff_power(u, v, 1.5)
        pos = positive_part_norm(u, v, 1.5)
        assert pos == pytest.approx(full)
        assert positive_part_norm(v, u, 1.5) == 0.0

    def test_power_inequality_probe(self, mesh_1d):
        # quadrature version of |a-b|^(2q) <= (a^q - b^q)^2, q = 1.5
        rng = seeded_rng(41, "alg-fields")
        q = 1.5
        for _ in range(20):
            u = DiscreteField(mesh_1d, np.where(mesh_1d.boundary_mask, 0.0,
                                                rng.uniform(0.0, 2.0, mesh_1d.n_vertices)))
            v = DiscreteField(mesh_1d, np.where(mesh_1d.boundary_mask, 0.0,
                                                rng.uniform(0.0, 2.0, mesh_1d.n_vertices)))
            lhs = np.sum(mesh_1d.measures
                         * np.abs(u.barycenter_values() - v.barycenter_values()) ** (2 * q))
            rhs = l2_norm_diff_power(u, v, q) ** 2
            assert lhs <= rhs + 1e-12

    def test_mesh_mismatch(self):
        a = interval_mesh(0.0, 1.0, 10)
        b = interval_mesh(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="fields live on different meshes"):
            l2_norm_diff_power(zero_field(a), zero_field(b), 1.0)

    def test_non_integer_power_needs_nonnegative(self, mesh_1d):
        vals = np.where(mesh_1d.boundary_mask, 0.0, -1.0)
        f = DiscreteField(mesh_1d, vals)
        with pytest.raises(ValueError):
            l2_norm_diff_power(f, zero_field(mesh_1d), 1.5)


class TestBoundaryDistance:
    def test_interval_values(self):
        m = interval_mesh(0.0, 1.0, 10)
        d = boundary_distance_field(m)
        assert d.shape == (m.n_elements,)
        assert d[3] == pytest.approx(0.35)
        assert d[5] == pytest.approx(0.45)

    def test_rectangle_min_side(self):
        m = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 5, 5)
        d = boundary_distance_field(m)
        # barycenters nearest the left side and nearest the bottom side
        for point, dist in [((0.4 / 3, 1.4 / 3), 0.4 / 3), ((1.6 / 3, 0.2 / 3), 0.2 / 3)]:
            k = np.argmin(np.abs(m.barycenters - np.array(point)).sum(axis=1))
            np.testing.assert_allclose(m.barycenters[k], point, atol=1e-12)
            assert d[k] == pytest.approx(dist)


class TestEvalAtPoints:
    def test_1d_linear(self):
        m = interval_mesh(0.0, 1.0, 10)
        v = interpolate(m, lambda x: x[:, 0] * (1.0 - x[:, 0]))
        assert eval_at_points(v, np.array([[0.35]]))[0] == pytest.approx(
            0.5 * (v.values[3] + v.values[4]))
