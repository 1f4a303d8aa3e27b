from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dne import elliptic, evolution
from dne.elliptic import (EllipticProblem, NonConvergence, bump_seed,
                          make_subsolution, make_supersolution, solve,
                          solve_lambda_problem, solve_stationary)
from dne.meshing import (DiscreteField, boundary_distance_field, interpolate,
                         interval_mesh, l2_norm_diff_power, rectangle_mesh)
from dne.evolution import average_potential
from dne.operators import (ExponentField, LerayLionsOperator, SourceTerm,
                           ValidationError, _block_norms, _coefficient, _square_norm,
                           eval_A, eval_source)
from dne.scenario import load_scenario

from oracles import (blocks_reference, element_grads, energy, energy_gradient,
                     energy_terms_reference,
                     flux_jacobian_batch, gradient_values_reference,
                     hessian_band_reference, point_reference, positive_part_norm,
                     pure_load_solution, seeded_rng, zero_field)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def iso_op(mesh, p):
    return LerayLionsOperator.isotropic(
        ExponentField.constant(mesh.n_elements, p), 1.0, ndim=mesh.dimension)


# the standard cases keep their plain dimension ids
KIND_PARAMS = [
    pytest.param(dim, kind, id=str(dim) if kind == "standard" else f"{kind}-{dim}")
    for kind in ("standard", "stationary-load", "pure-load") for dim in (1, 2)]


def problem_of_kind(kind, mesh, op, q, h0, source):
    """A time-step, a stationary-with-load or a pure-load problem."""
    load = np.full(mesh.n_elements, 0.8)
    if kind == "standard":
        return EllipticProblem.standard(mesh, op, q, 1.0, h0, source)
    if kind == "stationary-load":
        return EllipticProblem.stationary(mesh, op, q, h0, source, load=load)
    return EllipticProblem(mesh, op, load=load)


def band_to_dense(band):
    """Dense symmetric matrix of a LAPACK upper band array, entry (i, j) with
    i <= j at [bw + i - j, j]."""
    bw, n = band.shape[0] - 1, band.shape[1]
    i, j = np.indices((n, n))
    upper = (i <= j) & (j - i <= bw)
    dense = np.zeros((n, n))
    dense[upper] = band[(bw + i - j)[upper], j[upper]]
    return dense + np.triu(dense, 1).T


def coo_interior_hessian(problem, vals, include_concave):
    """Reference: the interior Hessian block assembled over all vertices as a
    COO matrix with an einsum per element, then sliced to the interior."""
    mesh = problem.mesh
    nloc = mesh.elements.shape[1]
    grads = mesh.gradient_of(vals)
    # regularized by HESSIAN_EPS times the largest element gradient, or by
    # HESSIAN_EPS itself when every gradient is at most HESSIAN_SCALE_FLOOR
    largest = np.sqrt((grads ** 2).sum(axis=1)).max()
    eps = elliptic.HESSIAN_EPS * (largest if largest > elliptic.HESSIAN_SCALE_FLOOR
                                  else 1.0)
    jac = flux_jacobian_batch(problem.op, slice(None), grads, eps=eps)
    elem = problem.lam * mesh.measures[:, None, None] * np.einsum(
        "eld,edc,emc->elm", element_grads(mesh), jac, element_grads(mesh))
    vbp = np.maximum(mesh.element_means(vals), 0.0)
    dd = np.zeros(mesh.n_elements)
    for term in problem.terms:
        if include_concave or term.c.min() >= 0.0:
            dd += (term.r - 1.0) * term.c * elliptic._power(vbp, term.r - 2.0,
                                                             vbp.min() > 0.0)
    elem = elem + (mesh.measures * dd)[:, None, None] / nloc ** 2
    rows = np.repeat(mesh.elements, nloc, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nloc)).ravel()
    mat = sp.coo_matrix((elem.ravel(), (rows, cols)),
                        shape=(mesh.n_vertices, mesh.n_vertices)).tocsr()
    ii = mesh.interior
    return mat[ii][:, ii].toarray()


def lambda_closed_form(x, p, lam):
    exp = p / (p - 1.0)
    return lam ** (1.0 / (p - 1.0)) * (p - 1.0) / p * (0.5 ** exp
                                                       - np.abs(x - 0.5) ** exp)


class TestPower:
    def test_zero_with_negative_exponent_is_exact_zero_without_warning(self):
        # tier-1 turns a RuntimeWarning (here 0 ** -0.75) into an error
        vbp = np.array([0.0, 0.5, 0.0, 2.0])
        out = elliptic._power(vbp, -0.75, vbp.min() > 0.0)
        np.testing.assert_array_equal(out, [0.0, 0.5 ** -0.75, 0.0, 2.0 ** -0.75])
        assert not np.signbit(out).any()

    @pytest.mark.parametrize("s", [-0.75, 0.25, 1.5])
    def test_positive_input_is_the_plain_power(self, s):
        vbp = seeded_rng(3, "power").uniform(1e-12, 3.0, 64)
        np.testing.assert_array_equal(elliptic._power(vbp, s, vbp.min() > 0.0), vbp ** s)


class TestEnergy:
    def test_zero_field_zero_energy(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src)
        assert energy(prob, zero_field(mesh_1d)) == 0.0

    def test_nonnegative_without_potential(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0,
                                        np.zeros(mesh_1d.n_elements))
        v = interpolate(mesh_1d, lambda x: np.sin(np.pi * x[:, 0]))
        assert energy(prob, v) > 0.0
        assert energy(prob, zero_field(mesh_1d)) == 0.0

    def test_small_scaling_goes_negative(self, mesh_1d, data_1d):
        # with h0 nontrivial the energy dips below zero along t * phi
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src)
        phi = interpolate(mesh_1d, lambda x: np.sin(np.pi * x[:, 0]))
        values = [energy(prob, phi.with_values(2.0 ** (-k) * phi.values))
                  for k in range(40)]
        assert min(values) < 0.0

    def test_parts_scale_sums_absolute_terms(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        load = np.full(mesh_1d.n_elements, 0.8)
        prob = EllipticProblem.stationary(mesh_1d, op, 1.25, pot(0.0), src, load=load)
        v = interpolate(mesh_1d, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        j, s = elliptic._energy_parts(prob, elliptic._point(mesh_1d, op, v.values))
        assert j == energy(prob, v)
        # diffusion, potential, source and load, each integrated here
        m, vb = mesh_1d, mesh_1d.element_means(v.values)
        dens = eval_A(op, m.gradient_of(v.values))
        terms = ([np.sum(m.measures * dens / op.exponent.values)]
                 + [np.sum(m.measures * t.c * np.maximum(vb, 0.0) ** t.r) / t.r
                    for t in prob.terms]
                 + [-np.sum(m.measures * load * vb)])
        assert len(terms) == 4
        assert j == pytest.approx(sum(terms), rel=1e-12)
        assert s >= abs(j)
        assert s == pytest.approx(sum(abs(t) for t in terms), rel=1e-14)


class TestEnergyGradient:
    def test_zero_at_global_minimum(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0,
                                        np.zeros(mesh_1d.n_elements))
        g = energy_gradient(prob, zero_field(mesh_1d))
        np.testing.assert_array_equal(g.values, 0.0)

    @pytest.mark.parametrize("dim, kind", KIND_PARAMS)
    def test_matches_finite_differences(self, dim, kind, mesh_1d, mesh_2d,
                                        data_1d, data_2d):
        mesh = mesh_1d if dim == 1 else mesh_2d
        op, src, pot = data_1d if dim == 1 else data_2d
        q = 1.25 if dim == 1 else 1.3
        prob = problem_of_kind(kind, mesh, op, q, pot(0.0), src)
        rng = seeded_rng(43, f"fd-{dim}d")
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior] = rng.uniform(0.2, 1.2, mesh.interior.size)
        f = DiscreteField(mesh, vals)
        g = energy_gradient(prob, f).values
        idx = rng.choice(mesh.interior, size=min(30, mesh.interior.size),
                         replace=False)
        h = 1e-6
        fd = np.zeros(idx.size)
        for row, i in enumerate(idx):
            up, dn = vals.copy(), vals.copy()
            up[i] += h
            dn[i] -= h
            fd[row] = (energy(prob, DiscreteField(mesh, up))
                       - energy(prob, DiscreteField(mesh, dn))) / (2.0 * h)
        assert np.max(np.abs(fd - g[idx])) / np.max(np.abs(g[idx])) < 1e-5


class TestHessian:
    @pytest.mark.parametrize("beta", [0.0, 0.1])
    @pytest.mark.parametrize("dim, kind", KIND_PARAMS)
    def test_matches_gradient_differences(self, dim, kind, beta, mesh_1d, mesh_2d):
        # every power term, the load and the variable-exponent diffusion
        mesh = mesh_1d if dim == 1 else mesh_2d
        q = 1.25 if dim == 1 else 1.3
        xb = mesh.barycenters[:, 0]
        op = LerayLionsOperator.isotropic(ExponentField(2.2 + 0.5 * xb),
                                          1.0 + xb, ndim=dim)
        delta = boundary_distance_field(mesh)
        src = SourceTerm(np.ones(mesh.n_elements), delta, gamma=1.0, beta=beta)
        prob = problem_of_kind(kind, mesh, op, q, 0.5 + xb, src)
        rng = seeded_rng(47, f"hessian-{dim}d")
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior] = rng.uniform(0.2, 1.2, mesh.interior.size)
        ii = mesh.interior
        def grad_at(x):
            return elliptic._gradient_values(prob, elliptic._point(mesh, prob.op, x))

        point = elliptic._point(mesh, prob.op, vals)
        hess = band_to_dense(elliptic._hessian_matrix(prob, point, include_concave=True))
        h = 1e-6
        fd = np.zeros_like(hess)
        for col, i in enumerate(ii):
            up, dn = vals.copy(), vals.copy()
            up[i] += h
            dn[i] -= h
            fd[:, col] = (grad_at(up) - grad_at(dn))[ii] / (2.0 * h)
        assert np.max(np.abs(fd - hess)) / np.max(np.abs(hess)) < 1e-7


BANDED_MESHES = {"interval-20": lambda: interval_mesh(0.0, 1.0, 20),
                 "rectangle-6x9": lambda: rectangle_mesh(0.0, 1.0, 0.0, 1.5, 6, 9),
                 "rectangle-9x6": lambda: rectangle_mesh(0.0, 1.5, 0.0, 1.0, 9, 6)}


def banded_operator(mesh, kind, p_low=2.2, p_rise=0.6):
    """Variable-exponent operator, p rising in x from p_low by p_rise: one
    isotropic block, or the two axis blocks ([0], [1]) with different weights."""
    xb = mesh.barycenters[:, 0]
    exponent = ExponentField(p_low + p_rise * xb / xb.max())
    if kind == "isotropic":
        return LerayLionsOperator.isotropic(exponent, 1.0 + xb, ndim=mesh.dimension)
    yb = mesh.barycenters[:, 1]
    return LerayLionsOperator(exponent, ([0], [1]), [1.0 + xb, 2.0 - yb])


def banded_problem(mesh, op, beta=0.1):
    """A time-step problem with every power term: mass, potential, source
    (of exponent r = beta + 1)."""
    q = 1.25
    delta = boundary_distance_field(mesh)
    src = SourceTerm(np.ones(mesh.n_elements), delta, gamma=1.0, beta=beta)
    return EllipticProblem.standard(mesh, op, q, 0.3, 0.5 + mesh.barycenters[:, 0], src)


class TestBandedNewton:
    @pytest.mark.parametrize("include_concave", [True, False])
    @pytest.mark.parametrize("mesh_name, op_kind", [
        ("interval-20", "isotropic"), ("rectangle-6x9", "isotropic"),
        ("rectangle-9x6", "isotropic"), ("rectangle-6x9", "anisotropic"),
        ("rectangle-9x6", "anisotropic")])
    def test_matches_dense_solve_of_coo_hessian(self, mesh_name, op_kind,
                                                include_concave):
        mesh = BANDED_MESHES[mesh_name]()
        prob = banded_problem(mesh, banded_operator(mesh, op_kind))
        rng = seeded_rng(53, f"banded-{mesh_name}")
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior] = rng.uniform(0.2, 1.2, mesh.interior.size)
        point = elliptic._point(mesh, prob.op, vals)
        grad = elliptic._gradient_values(prob, point)
        ii = mesh.interior
        hess = coo_interior_hessian(prob, vals, include_concave)
        band = elliptic._hessian_matrix(prob, point, include_concave)
        np.testing.assert_allclose(band_to_dense(band), hess,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(hess)))
        expected = np.linalg.solve(hess, -grad[ii])
        d = elliptic._newton_direction(prob, point, grad, include_concave)
        assert d is not None
        assert np.all(d[mesh.boundary_mask] == 0.0)
        assert np.linalg.norm(d[ii] - expected) / np.linalg.norm(expected) < 1e-12

    @pytest.mark.parametrize("include_concave", [True, False])
    @pytest.mark.parametrize("mesh_name, op_kind", [
        ("interval-20", "isotropic"), ("rectangle-6x9", "isotropic"),
        ("rectangle-9x6", "anisotropic")])
    def test_rank_one_assembly_at_flat_elements_and_p_below_two(
            self, mesh_name, op_kind, include_concave):
        # p(x) from 1.6 to 2.4, and a patch of equal interior values: the
        # elements inside it are flat (grad v = 0), so every block norm there
        # sits at the eps^2 floor, where c is largest for p < 2
        mesh = BANDED_MESHES[mesh_name]()
        op = banded_operator(mesh, op_kind, p_low=1.6, p_rise=0.8)
        prob = banded_problem(mesh, op)
        rng = seeded_rng(59, f"rank-one-{mesh_name}")
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior] = rng.uniform(0.2, 1.2, mesh.interior.size)
        vals[mesh.interior[: mesh.interior.size // 2]] = 0.7
        point = elliptic._point(mesh, op, vals)
        flat = ~point.grads.any(axis=1)
        assert flat.any() and not flat.all()
        assert op.exponent.values[flat].min() < 2.0
        hess = coo_interior_hessian(prob, vals, include_concave)
        band = elliptic._hessian_matrix(prob, point, include_concave)
        np.testing.assert_allclose(band_to_dense(band), hess,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(hess)))

    @pytest.mark.parametrize("p, size", [(2.0, 1e-155), (2.0, 1e-160), (1.05, 1e-150),
                                         (1.5, 1e-155), (1.9, 1e-160), (2.05, 1e-160)])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_finite_band_and_direction_at_tiny_gradients(self, dimension, p, size):
        # every element gradient below 1e-149: a smoothing relative to it
        # squares to 0 below about 1e-154, so c / rho overflows there (and
        # (p - 2) c / rho is nan at p = 2); HESSIAN_EPS itself keeps it finite
        if dimension == 1:
            mesh = interval_mesh(0.0, 1.0, 20)
        else:
            mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, 6, 6)
        vals = size * np.prod(np.sin(np.pi * mesh.vertices) ** 2, axis=1)
        vals[mesh.boundary_mask] = 0.0
        op = LerayLionsOperator.isotropic(ExponentField.constant(mesh.n_elements, p),
                                          1.0, ndim=dimension)
        prob = EllipticProblem.standard(mesh, op, (1.0 + p) / 2.0, 1.0,
                                        np.full(mesh.n_elements, 0.5))
        point = elliptic._point(mesh, op, vals)
        assert 0.0 < np.sqrt(_square_norm(point.grads).max()) < 1e-149
        for include_concave in (True, False):
            band = elliptic._hessian_matrix(prob, point, include_concave)
            assert np.isfinite(band).all()
        grad = elliptic._gradient_values(prob, point)
        assert elliptic._newton_direction(prob, point, grad, False) is not None

    def test_bandwidth_is_measured_and_scatter_built_once(self):
        interval = BANDED_MESHES["interval-20"]()
        assert interval.band_scatter.shape[0] - 1 == 1
        for name in ("rectangle-6x9", "rectangle-9x6"):
            mesh = BANDED_MESHES[name]()
            scatter = mesh.band_scatter
            assert scatter.shape[0] - 1 == mesh.resolution[1]
            assert mesh.band_scatter is scatter
            # every interior pair (i, j) with i <= j that the elements couple,
            # and no other, is kept, each with its element, its two rows and
            # its per-axis gradient products
            nloc = mesh.elements.shape[1]
            pairs = np.stack([np.repeat(mesh.elements, nloc, axis=1).ravel(),
                              np.tile(mesh.elements, (1, nloc)).ravel()])
            interior = ~mesh.boundary_mask
            pos = np.cumsum(interior) - 1
            kept = np.flatnonzero(interior[pairs[0]] & interior[pairs[1]]
                                  & (pos[pairs[0]] <= pos[pairs[1]]))
            element, (l, m) = kept // nloc ** 2, np.divmod(kept % nloc ** 2, nloc)
            np.testing.assert_array_equal(scatter.element, element)
            ne = mesh.n_elements
            np.testing.assert_array_equal(scatter.rows, [l * ne + element, m * ne + element])
            grads = element_grads(mesh)
            np.testing.assert_array_equal(
                scatter.products, (grads[element, l] * grads[element, m]).T)

    @pytest.mark.parametrize("mesh_name", list(BANDED_MESHES))
    def test_band_layout_of_the_lapack_call(self, mesh_name):
        # a rectangle's band is Fortran-ordered, so `dpbsv` factors it in
        # place instead of a copy; an interval's two rows are the contiguous
        # diagonals `dptsv` reads
        mesh = BANDED_MESHES[mesh_name]()
        prob = banded_problem(mesh, banded_operator(mesh, "isotropic"))
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior] = seeded_rng(61, mesh_name).uniform(0.2, 1.2, mesh.interior.size)
        band = elliptic._hessian_matrix(prob, elliptic._point(mesh, prob.op, vals), False)
        if mesh.dimension == 1:
            assert band.flags.c_contiguous
            return
        factor, _, info = elliptic.dpbsv(band, np.ones(mesh.interior.size),
                                         overwrite_ab=1, overwrite_b=1)
        assert info == 0
        assert np.shares_memory(factor, band)

    @staticmethod
    def indefinite_case(mesh):
        """A strong potential at a tiny flat iterate: the concave potential
        term outweighs the diffusion, so the full Hessian is indefinite."""
        op = LerayLionsOperator.isotropic(
            ExponentField.constant(mesh.n_elements, 2.5), 1.0, ndim=mesh.dimension)
        prob = EllipticProblem.standard(mesh, op, 1.25, 1.0,
                                        np.full(mesh.n_elements, 5.0))
        vals = np.zeros(mesh.n_vertices)
        vals[mesh.interior] = 1e-3
        return prob, vals

    @pytest.mark.parametrize("mesh_name", ["interval-20", "rectangle-6x9"])
    def test_indefinite_hessian_falls_back_to_the_majorant(self, mesh_name):
        mesh = BANDED_MESHES[mesh_name]()
        prob, vals = self.indefinite_case(mesh)
        point = elliptic._point(mesh, prob.op, vals)
        grad = elliptic._gradient_values(prob, point)
        ii = mesh.interior
        assert np.linalg.eigvalsh(coo_interior_hessian(prob, vals, True)).min() < 0.0
        assert elliptic._newton_direction(prob, point, grad, include_concave=True) is None
        majorant = coo_interior_hessian(prob, vals, include_concave=False)
        expected = np.linalg.solve(majorant, -grad[ii])
        d = elliptic._newton_direction(prob, point, grad, include_concave=False)
        assert d is not None
        assert np.all(d[mesh.boundary_mask] == 0.0)
        assert np.linalg.norm(d[ii] - expected) / np.linalg.norm(expected) < 1e-12

    @pytest.mark.parametrize("mesh_name", ["interval-20", "rectangle-6x9"])
    def test_minimize_counts_majorant_directions(self, mesh_name):
        mesh = BANDED_MESHES[mesh_name]()
        prob, vals = self.indefinite_case(mesh)
        _, report, _ = elliptic._minimize(prob, vals)
        assert report.converged
        assert report.majorant_directions > 0


def assert_bitwise(actual, expected):
    """Equal arrays with equal signs of zero."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestElementPassReference:
    """The corner-major element pass, the flux from the block norms and
    coefficients (`_block_norms`, `_coefficient`) and the plain
    adds of the energy, gradient and Hessian reproduce numpy's reductions and
    `einsum` (`oracles.point_reference` and the rest) bit for bit, signs of
    zero included."""

    @staticmethod
    def signed_zero_values(mesh, seed):
        """Interior values in [0.2, 1.2] with a flat patch, runs of +0.0 and
        -0.0 (elements whose corners are all -0.0, and +0.0 next to -0.0)
        and a few negative values."""
        rng = seeded_rng(seed, f"signed-zeros-{mesh.n_vertices}")
        vals = np.zeros(mesh.n_vertices)
        ii = mesh.interior
        vals[ii] = rng.uniform(0.2, 1.2, ii.size)
        vals[ii[ii.size // 3: ii.size // 2]] = 0.7
        vals[ii[:ii.size // 3]] = -0.0
        vals[ii[1:ii.size // 3:4]] = 0.0
        vals[ii[-3:]] = -rng.uniform(0.1, 0.5, 3)
        return vals

    @staticmethod
    def operator(mesh, kind):
        if kind == "p=2":
            return iso_op(mesh, 2.0)
        if kind == "p<2":
            return banded_operator(mesh, "isotropic", p_low=1.6, p_rise=0.8)
        if kind == "anisotropic":
            return banded_operator(mesh, "anisotropic", p_low=1.6, p_rise=0.8)
        return banded_operator(mesh, "isotropic")

    CASES = [("interval-20", kind) for kind in ("p>2", "p=2", "p<2")] + [
        ("rectangle-6x9", kind) for kind in ("p>2", "p=2", "p<2", "anisotropic")]

    @pytest.mark.parametrize("mesh_name, op_kind", CASES)
    def test_point_of_one_and_of_stacked_iterates(self, mesh_name, op_kind):
        mesh = BANDED_MESHES[mesh_name]()
        op = self.operator(mesh, op_kind)
        vals = self.signed_zero_values(mesh, 61)
        assert np.signbit(vals).any() and (vals == 0.0).any()
        stacked = np.stack([vals, 0.5 * vals, np.abs(vals), -vals])
        for nodal in (vals, stacked):
            point = elliptic._point(mesh, op, nodal)
            expected = point_reference(mesh, op, nodal)
            for actual, reference in zip((point.means, point.grads, point.flux),
                                         expected, strict=True):
                assert_bitwise(actual, reference)
            assert_bitwise(mesh.element_means(nodal), expected[0])
            assert_bitwise(mesh.gradient_of(nodal), expected[1])
            # |grad v|^2, whose largest value scales the Hessian's smoothing
            assert_bitwise(_square_norm(point.grads),
                           np.einsum("...d,...d->...", expected[1], expected[1]))
            prob = banded_problem(mesh, op)
            for actual, reference in zip(elliptic._energy_terms(prob, point),
                                         energy_terms_reference(prob, expected)):
                assert_bitwise(actual, reference)
        # some elements have only -0.0 corners, where a left fold of adds
        # without the closing + 0.0 would give -0.0
        assert np.signbit(vals.take(mesh.elements, axis=-1)).all(axis=-1).any()

    @pytest.mark.parametrize("mesh_name, op_kind", CASES)
    def test_gradient_and_hessian_band(self, mesh_name, op_kind):
        mesh = BANDED_MESHES[mesh_name]()
        op = self.operator(mesh, op_kind)
        prob = banded_problem(mesh, op)
        vals = self.signed_zero_values(mesh, 67)
        point = elliptic._point(mesh, op, vals)
        expected = point_reference(mesh, op, vals)
        assert_bitwise(elliptic._gradient_values(prob, point),
                       gradient_values_reference(prob, expected))
        for include_concave in (True, False):
            assert_bitwise(elliptic._hessian_matrix(prob, point, include_concave),
                           hessian_band_reference(prob, expected, include_concave))

    @pytest.mark.parametrize("mesh_name, op_kind", CASES)
    def test_hessian_band_skips_terms_with_r_one(self, mesh_name, op_kind):
        # at beta = 0 the source term has r = 1, so its (r - 1) c v^(r-2)
        # adds only +-0.0 to the Hessian: the band that skips it is the
        # reference's, which adds it
        mesh = BANDED_MESHES[mesh_name]()
        op = self.operator(mesh, op_kind)
        prob = banded_problem(mesh, op, beta=0.0)
        assert prob.terms[-1].r == 1.0
        vals = self.signed_zero_values(mesh, 71)
        point = elliptic._point(mesh, op, vals)
        expected = point_reference(mesh, op, vals)
        assert_bitwise(elliptic._gradient_values(prob, point),
                       gradient_values_reference(prob, expected))
        for include_concave in (True, False):
            assert_bitwise(elliptic._hessian_matrix(prob, point, include_concave),
                           hessian_band_reference(prob, expected, include_concave))

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_blocks_at_vanishing_block_norm(self, p):
        # rho = 0 at +0.0 and -0.0 gradients: for p = 2 the guard is skipped
        # (p_- >= 2) and c = g; for p < 2 it sets c = 0
        mesh = BANDED_MESHES["rectangle-6x9"]()
        ops = [LerayLionsOperator.isotropic(ExponentField.constant(mesh.n_elements, p),
                                            1.5, ndim=2),
               LerayLionsOperator(ExponentField.constant(mesh.n_elements, p),
                                  ([0], [1]), [1.5, 0.5])]
        xi = seeded_rng(71, "vanishing-blocks").normal(size=(mesh.n_elements, 2))
        xi[::3] = 0.0
        xi[1::3, 0] = -0.0
        for op in ops:
            for eps in (0.0, 1e-8):
                blocks = zip(_block_norms(op, xi), blocks_reference(op, xi, eps))
                for j, (norm, (_, rho_ref, c_ref)) in enumerate(blocks):
                    # + 0.0 at eps = 0 changes no norm: no square is -0.0
                    rho = norm + eps ** 2
                    c = _coefficient(op, j, rho)
                    assert_bitwise(rho, rho_ref)
                    assert_bitwise(c, c_ref)
                    flat = rho == 0.0
                    assert flat.any() == (eps == 0.0)
                    np.testing.assert_array_equal(
                        c[flat], op.weights[j][flat] if p == 2.0 else 0.0)


class TestStateCache:
    """An element state caches each `PowerTerm`'s energy integral and gradient
    density by term; the start state of a run's step, handed over by the
    step before, serves the run-level mass and source terms from it."""

    @pytest.mark.parametrize("config", ["decaying_1d", "smoke_2d"])
    def test_new_potential_term_at_a_handed_state(self, config):
        setup = load_scenario(str(CONFIGS / f"{config}.cfg")).setup
        h1, h2 = average_potential(setup.potential, np.array([1, 2]), setup.dt)
        last = evolution.step(setup, setup.initial, h1)
        state, (mass, *sources) = last.state, setup.step_terms
        assert all(term in state._energies and term in state._densities
                   for term in setup.step_terms)
        potential = elliptic.potential_term(setup.mesh, setup.q,
                                            setup.dt * h2 + state.clipped ** setup.q)
        problem = EllipticProblem(setup.mesh, setup.op, setup.dt,
                                  (mass, potential, *sources))
        fresh = elliptic._point(setup.mesh, setup.op, last.field.values)
        for cached, computed in zip(elliptic._energy_terms(problem, state),
                                    elliptic._energy_terms(problem, fresh), strict=True):
            assert_bitwise(cached, computed)
        assert (elliptic._energy_parts(problem, state)
                == elliptic._energy_parts(problem, fresh))
        assert_bitwise(elliptic._gradient_values(problem, state),
                       elliptic._gradient_values(problem, fresh))
        for include_concave in (True, False):
            assert_bitwise(elliptic._hessian_matrix(problem, state, include_concave),
                           elliptic._hessian_matrix(problem, fresh, include_concave))

    def test_rebuilt_coefficients_are_never_served_stale(self, mesh_1d, data_1d):
        # each pass frees the previous pass's h0, terms and problem, so a
        # cache keyed by an array's address can meet a reused one; keyed by
        # the term, which the cache keeps alive, it never serves another's
        op, src, pot = data_1d
        v = interpolate(mesh_1d, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        state = elliptic._point(mesh_1d, op, v.values)
        energies = set()
        for k in range(60):
            problem = EllipticProblem.standard(mesh_1d, op, 1.25, 0.5,
                                               (1.0 + 0.01 * k) * pot(0.0), src)
            fresh = elliptic._point(mesh_1d, op, v.values)
            parts = elliptic._energy_parts(problem, state)
            assert parts == elliptic._energy_parts(problem, fresh)
            assert_bitwise(elliptic._gradient_values(problem, state),
                           elliptic._gradient_values(problem, fresh))
            energies.add(parts[0])
        assert len(energies) == 60

    def test_term_coefficients_are_a_read_only_copy(self, mesh_1d):
        c = np.ones(mesh_1d.n_elements)
        term = elliptic.PowerTerm(mesh_1d, c, 2.0)
        c[0] = 2.0
        assert term.c[0] == 1.0
        with pytest.raises(ValueError):
            term.c[0] = 2.0


class TestMinimize:
    def test_no_newton_direction_ends_the_solve(self, mesh_1d, data_1d, monkeypatch):
        # without a Newton direction the iteration has no direction at all:
        # the minimization stops at its projected start, trying no step
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src)
        start = bump_seed(mesh_1d).values - 0.02
        projected = elliptic._project(mesh_1d, start)
        assert not np.array_equal(projected, start)
        point = elliptic._point(mesh_1d, op, projected)
        tolerance = elliptic.DEFAULT_TOL[1]
        start_kkt = elliptic._kkt_norm(mesh_1d, projected,
                                       elliptic._gradient_values(prob, point))
        assert start_kkt > tolerance
        point_of, points = elliptic._point, []

        def counting_point(*args):
            points.append(1)
            return point_of(*args)

        monkeypatch.setattr(elliptic, "_newton_direction", lambda *args, **kwargs: None)
        monkeypatch.setattr(elliptic, "_point", counting_point)
        vals, report, final = elliptic._minimize(prob, start, point)
        assert report.iterations == 0 and not report.converged
        assert report.final_gradient_norm == start_kkt
        assert_bitwise(vals, projected)
        assert final is point
        assert points == []

    @staticmethod
    def line_search_case():
        # p = 2.5, q = 1.25, lam = 1, h0 = 1: the cold solve converges with
        # no failed search, so every failure below is the patch's
        mesh = interval_mesh(0.0, 1.0, 50)
        prob = EllipticProblem.standard(mesh, iso_op(mesh, 2.5), 1.25, 1.0,
                                        np.ones(mesh.n_elements))
        v, report = solve(prob)
        assert report.converged and report.line_search_failures == 0
        return mesh, prob, v

    def test_failed_line_search_takes_the_floor_test(self, monkeypatch):
        mesh, prob, v = self.line_search_case()
        point_of, points = elliptic._point, []

        def counting_point(mesh, op, vals):
            points.append(vals.tobytes())
            return point_of(mesh, op, vals)

        monkeypatch.setattr(elliptic, "_point", counting_point)
        # no trial passes Armijo: from near the solution each search halves
        # its step until the projected trial equals the iterate, and the
        # zero-step break ends it before MAX_BACKTRACKS; the floor test then
        # accepts the full step
        monkeypatch.setattr(elliptic, "ARMIJO_C", 1e30)
        vals, report, _ = elliptic._minimize(prob, 1.001 * v.values)
        assert report.converged
        assert report.iterations == report.line_search_failures == report.floor_steps == 2
        assert report.searches_skipped == 0
        assert len(points) < report.iterations * elliptic.MAX_BACKTRACKS
        # the floor test takes the full step's point and energy from the
        # search's first trial: one element pass per distinct trial
        assert len(points) == len(set(points))
        assert np.max(np.abs(vals - v.values)) <= 1e-12
        # with no backtracking at all every search fails at once (or is
        # skipped at the roundoff floor) and every iteration is a floor step
        monkeypatch.setattr(elliptic, "ARMIJO_C", 1e-4)
        monkeypatch.setattr(elliptic, "MAX_BACKTRACKS", 0)
        vals, report, _ = elliptic._minimize(prob, bump_seed(mesh).values)
        assert report.converged and report.line_search_failures >= 1
        assert (report.line_search_failures + report.searches_skipped
                == report.floor_steps == report.iterations)
        assert np.max(np.abs(vals - v.values)) <= 1e-12


class TestSolve:
    def test_zero_data_gives_zero(self, mesh_1d, data_1d, monkeypatch):
        op, _, _ = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0,
                                        np.zeros(mesh_1d.n_elements))
        minimize, energy_parts = elliptic._minimize, elliptic._energy_parts
        calls, inside, outside_evals = [], [], []

        def counting(*args):
            calls.append(1)
            inside.append(1)
            try:
                return minimize(*args)
            finally:
                inside.pop()

        def counting_energy(*args):
            if not inside:
                outside_evals.append(1)
            return energy_parts(*args)

        monkeypatch.setattr(elliptic, "_minimize", counting)
        monkeypatch.setattr(elliptic, "_energy_parts", counting_energy)
        v, report = solve(prob, bump_seed(mesh_1d))
        assert report.converged
        assert report.fallback
        assert v.sup_norm <= 1e-5
        # the bump guess only: with zero data no start has J < 0
        assert len(calls) == 1
        # J >= 0 on the whole cone, so no halving search for such a start
        assert len(outside_evals) <= 5

    def test_energy_descent_per_accepted_step(self, mesh_1d, data_1d, monkeypatch):
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src)
        start = bump_seed(mesh_1d)
        energies, skipped = [energy(prob, start)], []
        monkeypatch.setitem(elliptic.DEFAULT_TOL, 1, 1e-11)
        for k in range(1, 200):
            monkeypatch.setattr(elliptic, "MAX_ITERATIONS", k)
            _, report, _ = elliptic._minimize(prob, start.values)
            if report.iterations < k or report.floor_steps:
                break
            energies.append(report.energy)
            skipped.append(report.searches_skipped)
        assert len(energies) >= 4
        assert np.all(np.diff(energies) < 0.0)
        # far from the solution every line search runs
        assert skipped == [0] * len(skipped)

    def test_fixed_point_start_skips_the_line_search(self, mesh_1d, data_1d,
                                                     monkeypatch):
        # at the discrete fixed point the Newton step predicts a decrease
        # below the energy's roundoff: no backtracking, only the floor test
        # (running the search here takes 6 energy evaluations, 4 of them in
        # backtracking that fails)
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 2.0, pot(0.0), src)
        v, _ = solve(prob, bump_seed(mesh_1d))
        counts = {"_energy_parts": 0, "_gradient_values": 0}
        for name in counts:
            def counting(*args, _name=name, _f=getattr(elliptic, name)):
                counts[_name] += 1
                return _f(*args)
            monkeypatch.setattr(elliptic, name, counting)
        w, report, _ = elliptic._minimize(prob, v.values)
        assert report.converged
        assert report.searches_skipped >= 1
        assert counts["_energy_parts"] <= 2 and counts["_gradient_values"] <= 2
        assert np.max(np.abs(w - v.values)) <= 1e-10

    def test_converged_start_assembles_one_hessian(self, mesh_1d, data_1d,
                                                   monkeypatch):
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src)
        v, _ = solve(prob, bump_seed(mesh_1d))
        hessian, calls = elliptic._hessian_matrix, []

        def counting(*args):
            calls.append(args[2])
            return hessian(*args)

        monkeypatch.setattr(elliptic, "_hessian_matrix", counting)
        w, report = solve(prob, v)
        assert report.converged and not report.fallback
        assert calls == [True]
        assert np.max(np.abs(w.values - v.values)) <= 1e-10

    def test_singular_problem_finds_positive_solution(self, mesh_1d):
        # p < 2 without a source: descent from the bump used to end at v = 0
        prob = EllipticProblem.standard(mesh_1d, iso_op(mesh_1d, 1.5), 1.25, 1.0,
                                        np.ones(mesh_1d.n_elements))
        v, report = solve(prob, bump_seed(mesh_1d))
        assert report.converged and report.energy < 0.0
        assert np.all(v.values[mesh_1d.interior] > 0.0)

    def test_nontrivial_when_potential_nontrivial(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src)
        v, report = solve(prob, bump_seed(mesh_1d))
        assert v.sup_norm > 1e-2
        assert report.final_gradient_norm <= 1e-11
        assert np.all(v.values[mesh_1d.interior] > 0.0)

    def test_trivial_start_falls_back_to_positive_solution(self, mesh_1d, data_1d):
        # without a source v = 0 is a KKT point with J(0) = 0
        op, _, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0))
        v, report = solve(prob, zero_field(mesh_1d))
        assert report.fallback and report.converged
        assert report.energy < 0.0
        assert np.all(v.values[mesh_1d.interior] > 0.0)
        w, warm = solve(prob, bump_seed(mesh_1d))
        assert not warm.fallback
        assert np.max(np.abs(v.values - w.values)) <= 1e-8

    def test_converged_warm_start_still_steps(self, mesh_1d, data_1d, monkeypatch):
        # regression: a start inside the tolerance used to be returned as is,
        # freezing trajectories whose step residual starts below it
        op, src, pot = data_1d
        prob = EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src)
        v, _ = solve(prob, bump_seed(mesh_1d))
        start = v.with_values(v.values * (1.0 + 1e-7))
        start_kkt = np.max(np.abs(energy_gradient(prob, start).values))
        assert 0.0 < start_kkt <= 1e-6
        monkeypatch.setitem(elliptic.DEFAULT_TOL, 1, 1e-6)
        w, report = solve(prob, start)
        assert report.iterations >= 1 and not report.fallback
        assert report.final_gradient_norm < 1e-3 * start_kkt
        assert np.max(np.abs(w.values - v.values)) <= 1e-9

    def test_rejects_bad_q(self, mesh_1d, data_1d):
        op, _, pot = data_1d
        with pytest.raises(ValidationError, match=r"^\[q ∈ \(1, p_-\)\] "):
            EllipticProblem.standard(mesh_1d, op, 2.6, 1.0, pot(0.0))

    @pytest.mark.parametrize("beta, gamma, message", [
        (0.5, 1.0, "[(f_1)] beta = 0.5 must lie in [0, q-1) = [0, 0.25)"),
        (0.0, -0.5, "[(f_2)] beta + gamma = -0.5 must exceed q - 3/2 = -0.25"),
    ], ids=["f1", "f2"])
    def test_rejects_source_exponents_outside_the_q_bounds(self, mesh_1d, data_1d,
                                                           beta, gamma, message):
        # the source holds no q: a problem checks its exponents against its own
        op, _, pot = data_1d
        delta = boundary_distance_field(mesh_1d)
        src = SourceTerm(np.ones(mesh_1d.n_elements), delta, gamma, beta)
        for build in (lambda: EllipticProblem.standard(mesh_1d, op, 1.25, 1.0, pot(0.0), src),
                      lambda: EllipticProblem.stationary(mesh_1d, op, 1.25, pot(0.0), src)):
            with pytest.raises(ValidationError) as err:
                build()
            assert str(err.value) == message

    def test_tiny_solution_with_p_below_two_converges(self):
        # the positive solution is tiny, its gradients far below HESSIAN_EPS:
        # an absolute Jacobian regularization would swamp the p < 2 Hessian
        mesh = interval_mesh(0.0, 1.0, 50)
        prob = EllipticProblem.standard(mesh, iso_op(mesh, 1.5), 1.3, 1.0,
                                        np.full(mesh.n_elements, 0.2))
        v, report = solve(prob, bump_seed(mesh))
        assert report.converged and report.energy < 0.0
        assert np.all(v.values[mesh.interior] > 0.0)

    def test_nonconvergence_carries_report(self, data_1d, monkeypatch):
        mesh = interval_mesh(0.0, 1.0, 16)
        op, src, pot = (LerayLionsOperator.isotropic(
            ExponentField.constant(mesh.n_elements, 2.5), 1.0), None, None)
        xb = mesh.barycenters[:, 0]
        prob = EllipticProblem.standard(mesh, op, 1.25, 1.0, 4 * xb * (1 - xb))
        monkeypatch.setitem(elliptic.DEFAULT_TOL, 1, 0.0)
        monkeypatch.setattr(elliptic, "MAX_ITERATIONS", 5)
        with pytest.raises(NonConvergence) as err:
            solve(prob, bump_seed(mesh))
        assert err.value.report is not None
        assert err.value.report.final_gradient_norm > 0.0


class TestColdStart:
    @pytest.mark.parametrize("dim, kind", KIND_PARAMS)
    def test_no_guess_is_the_bump_seed(self, dim, kind, mesh_1d, mesh_2d,
                                       data_1d, data_2d):
        # `solve` picks its own cold start: bitwise the solve from bump_seed
        mesh = mesh_1d if dim == 1 else mesh_2d
        op, src, pot = data_1d if dim == 1 else data_2d
        prob = problem_of_kind(kind, mesh, op, 1.25 if dim == 1 else 1.3,
                               pot(0.0), src)
        cold, cold_report = solve(prob)
        seeded, seeded_report = solve(prob, bump_seed(mesh))
        assert cold.values.tobytes() == seeded.values.tobytes()
        assert cold_report == seeded_report

    def test_tiny_p_minus_q_says_the_positive_solution_is_out_of_range(self):
        # the step problem has exactly one positive solution, where J < 0; with
        # p - q = 0.0024 that needs J(t * bump) < 0, so t < ~1e-490, and no
        # double t gets there: the solve says so and does not accept the
        # near-zero point it reaches
        mesh = interval_mesh(0.0, 1.0, 100)
        op = LerayLionsOperator.isotropic(ExponentField.constant(mesh.n_elements, 2.3612),
                                          1.93)
        prob = EllipticProblem.standard(mesh, op, 2.3588, 0.5, np.ones(mesh.n_elements))
        with pytest.raises(NonConvergence, match="below double range") as failure:
            solve(prob)
        assert failure.value.report.fallback
        assert failure.value.report.energy >= 0.0


# The constant-exponent pure-load solves that stop short of the tolerance
# today, with the KKT residual where each stops: the absolute stopping rule
# rejects a solve at roundoff (ROADMAP B2), and the singular range p < 2
# oscillates to the iteration cap or stalls where its Newton step passes
# neither the Armijo nor the roundoff-floor test (ROADMAP M).  Every xfail is strict (`xfail_strict`), so a fix fails the
# suite until its case leaves this table.
PURE_LOAD_FAILURES = {(50, 1.2): "residual 3.3e-10 at roundoff (B2)",
                      (100, 1.2): "residual 4.1e-4, stalled (M)",
                      (200, 1.2): "residual 1.4e-3, stalled (M)",
                      (400, 1.2): "residual 2.4e-3, stalled (M)",
                      (400, 1.3): "residual 9.1e-10 at roundoff (B2)",
                      (400, 1.5): "residual 0.024 at the iteration cap (M)"}
PURE_LOAD_CASES = [
    pytest.param(n, p, id=f"n{n}-p{p}", marks=[pytest.mark.xfail(
        raises=NonConvergence, reason=PURE_LOAD_FAILURES[n, p])]
        if (n, p) in PURE_LOAD_FAILURES else [])
    for n, p in [(n, p) for n in (50, 100, 200, 400)
                 for p in (1.2, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0)] + [(400, 1.3)]]


class TestPureLoadOracle:
    """`solve_lambda_problem` against the exact discrete solution of the 1D
    pure-load problem, `oracles.pure_load_solution`."""

    @staticmethod
    def assert_exact(mesh, op):
        w = solve_lambda_problem(1.0, mesh, op)
        exact = pure_load_solution(mesh, op, 1.0)
        assert np.max(np.abs(w.values - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_oracle_is_nodally_exact_at_p2(self):
        # P1 elements are nodally exact for -w'' = lam in 1D
        mesh = interval_mesh(0.0, 1.0, 64)
        exact = lambda_closed_form(mesh.vertices[:, 0], 2.0, 1.0)
        np.testing.assert_allclose(pure_load_solution(mesh, iso_op(mesh, 2.0), 1.0),
                                   exact, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n, p", PURE_LOAD_CASES)
    def test_constant_exponent(self, n, p):
        mesh = interval_mesh(0.0, 1.0, n)
        self.assert_exact(mesh, iso_op(mesh, p))

    @pytest.mark.parametrize("n", [50, 100, 200, 400])
    def test_affine_exponent_and_weights(self, n):
        # the flux constant C is found by root finding
        mesh = interval_mesh(0.0, 1.0, n)
        p = 1.3 + 1.7 * mesh.barycenters[:, 0]
        g = seeded_rng(n, "pure-load-weights").uniform(0.5, 2.0, n)
        self.assert_exact(mesh, LerayLionsOperator.isotropic(ExponentField(p), g))


class TestPureLambda:
    def test_p2_closed_form(self):
        mesh = interval_mesh(0.0, 1.0, 200)
        w = solve_lambda_problem(1.0, mesh, iso_op(mesh, 2.0))
        exact = lambda_closed_form(mesh.vertices[:, 0], 2.0, 1.0)
        assert np.max(np.abs(w.values - exact)) < 1e-6
        assert w.sup_norm == pytest.approx(0.125, abs=1e-6)

    def test_p3_closed_form(self):
        mesh = interval_mesh(0.0, 1.0, 400)
        w = solve_lambda_problem(1.0, mesh, iso_op(mesh, 3.0))
        exact = lambda_closed_form(mesh.vertices[:, 0], 3.0, 1.0)
        assert np.max(np.abs(w.values - exact)) < 1e-3
        assert w.sup_norm == pytest.approx((2.0 / 3.0) * 0.5 ** 1.5, abs=1e-3)

    def test_vanishing_lambda_limit(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        sups = [solve_lambda_problem(lam, mesh_1d, op).sup_norm
                for lam in (1e-1, 1e-2, 1e-3)]
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 0.1 * sups[0]

    def test_doubling_ratio_constant_p(self):
        mesh = interval_mesh(0.0, 1.0, 400)
        for p in (2.0, 3.0):
            op = iso_op(mesh, p)
            r = (solve_lambda_problem(2.0, mesh, op).sup_norm
                 / solve_lambda_problem(1.0, mesh, op).sup_norm)
            assert r == pytest.approx(2.0 ** (1.0 / (p - 1.0)), rel=0.02)

    def test_nodal_monotonicity(self, mesh_1d, data_1d):
        op, _, _ = data_1d
        w1 = solve_lambda_problem(1.0, mesh_1d, op)
        w2 = solve_lambda_problem(2.0, mesh_1d, op)
        assert np.all(w1.values <= w2.values + 1e-10)


class TestSubSupersolutions:
    def test_subsolution_sits_below_v0(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w, mu = make_subsolution(mesh_1d, op, 1.25, src, pot.lower_envelope, v0)
        assert np.all(w.values <= v0.values)
        assert np.all(w.values[mesh_1d.interior] > 0.0)
        assert mu > 0.0

    def test_mu_monotonicity(self, mesh_1d, data_1d, monkeypatch):
        # the fit's trial solutions shrink nodally as mu halves
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.1 * np.sin(np.pi * x[:, 0]))
        trials = []
        stationary = elliptic.solve_stationary

        def recorded(*args, **kwargs):
            trials.append(stationary(*args, **kwargs))
            return trials[-1]

        monkeypatch.setattr(elliptic, "solve_stationary", recorded)
        _, mu = make_subsolution(mesh_1d, op, 1.25, src, pot.lower_envelope, v0)
        assert (mu, len(trials)) == (0.25, 3)
        for wb, wa in zip(trials, trials[1:]):
            assert np.all(wa.values <= wb.values + 1e-10)

    @pytest.mark.parametrize("kind", ["subsolution", "supersolution"])
    def test_subsolution_residual(self, kind, mesh_1d, data_1d):
        # the fitted field satisfies the frozen weak form at the fitted mu or
        # kappa to solver accuracy
        op, src, pot = data_1d
        if kind == "subsolution":
            v0 = interpolate(mesh_1d, lambda x: 0.1 * np.sin(np.pi * x[:, 0]))
            w, scale = make_subsolution(mesh_1d, op, 1.25, src, pot.lower_envelope, v0)
            b, kappa = pot.lower_envelope, 0.0
        else:
            v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
            w, kappa = make_supersolution(mesh_1d, op, 1.25, src, pot.sup_norm, v0)
            scale, b = 1.0, pot.sup_norm
        assert (scale, kappa) in [(0.25, 0.0), (1.0, 4.0)]
        wb = np.maximum(w.barycenter_values(), 0.0)
        load = scale * (b * wb ** 0.25 + eval_source(src, wb)) + kappa
        frozen = EllipticProblem(mesh_1d, op, load=load)
        res = energy_gradient(frozen, w)
        assert np.max(np.abs(res.values)) < 1e-8

    def test_one_minimization_per_fit_trial(self, mesh_1d, data_1d, monkeypatch):
        # each mu or kappa tried is one stationary solve: one minimization
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        calls = []
        minimize = elliptic._minimize

        def counted(*args, **kwargs):
            calls.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(elliptic, "_minimize", counted)
        _, mu = make_subsolution(mesh_1d, op, 1.25, src, pot.lower_envelope, v0)
        assert (mu, len(calls)) == (1.0, 1)
        calls.clear()
        _, kappa = make_supersolution(mesh_1d, op, 1.25, src, pot.sup_norm, v0)
        assert (kappa, len(calls)) == (4.0, 3)

    def test_subsolution_near_singular_exponents(self, mesh_1d, data_1d):
        # p = 1.6, q = 1.5, no source: the positive solution is tiny (sup
        # ~3e-9), close to where the absolute 1D tolerance is out of reach
        _, _, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.05 * np.sin(np.pi * x[:, 0]))
        w, mu = make_subsolution(mesh_1d, iso_op(mesh_1d, 1.6), 1.5, None,
                                 pot.lower_envelope, v0)
        assert mu == 1.0
        assert np.all(w.values <= v0.values)
        assert np.all(w.values[mesh_1d.interior] > 0.0)

    def test_supersolution_dominates(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v0 = interpolate(mesh_1d, lambda x: 0.5 * np.sin(np.pi * x[:, 0]))
        w_hi, kappa = make_supersolution(mesh_1d, op, 1.25, src, pot.sup_norm, v0)
        assert np.all(w_hi.values >= v0.values)
        w_lo, _ = make_subsolution(mesh_1d, op, 1.25, src, pot.lower_envelope, v0)
        assert np.all(w_lo.values <= w_hi.values)


class TestStationary:
    def test_unique_limit_from_different_starts(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        b = pot.limit
        v1 = solve_stationary(mesh_1d, op, 1.25, b, src)
        v2, _ = solve(EllipticProblem.stationary(mesh_1d, op, 1.25, b, src),
                      interpolate(mesh_1d, lambda x: 2.0 * np.sin(np.pi * x[:, 0])))
        assert l2_norm_diff_power(v1, v2, 1.0) < 1e-6

    def test_positive_interior(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v = solve_stationary(mesh_1d, op, 1.25, pot.limit, src)
        assert np.all(v.values[mesh_1d.interior] > 0.0)

    def test_residual_at_solution(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        v = solve_stationary(mesh_1d, op, 1.25, pot.limit, src)
        prob = EllipticProblem.stationary(mesh_1d, op, 1.25, pot.limit, src)
        g = energy_gradient(prob, v).values
        assert np.max(np.abs(g[mesh_1d.interior])) < 1e-10

    def test_rejects_trivial_potential(self, mesh_1d, data_1d):
        op, src, _ = data_1d
        with pytest.raises(ValidationError, match=r"^\[\(H_h\)\] "):
            solve_stationary(mesh_1d, op, 1.25, np.zeros(mesh_1d.n_elements), src)


class TestContractionInvariant:
    def test_one_sided_bound_with_discretization_slack(self, mesh_1d, data_1d):
        op, src, pot = data_1d
        h1 = pot(0.0)
        h2 = h1 + 0.1
        q = 1.25
        v1, _ = solve(EllipticProblem.standard(mesh_1d, op, q, 1.0, h1, src),
                      bump_seed(mesh_1d))
        v2, _ = solve(EllipticProblem.standard(mesh_1d, op, q, 1.0, h2, src),
                      bump_seed(mesh_1d))
        diff_norm = float(np.sqrt(np.sum(mesh_1d.measures * (h1 - h2) ** 2)))
        for a, b, ha, hb in ((v1, v2, h1, h2), (v2, v1, h2, h1)):
            lhs = positive_part_norm(a, b, q)
            rhs = float(np.sqrt(np.sum(mesh_1d.measures
                                       * np.maximum(ha - hb, 0.0) ** 2)))
            assert lhs <= rhs + 1e-3 * diff_norm
        assert np.all(v1.values <= v2.values + 1e-10)


class TestAdmissibleClass:
    """Seeded draws from the paper's admissible class, `(A_0)` through
    `(f_2)`, solved by `solve`: each must end at the positive solution."""

    @staticmethod
    def draw(seed):
        """One problem and guess (None: the cold start), and its description.
        p_- in [1.5, 4), constant or affine in x; q in (1, p_- - 0.1), which
        keeps the positive solution's scale within double range; weights in
        (0.5, 2), in two blocks in half the 2D draws; a source satisfying
        `(f_1)` and `(f_2)` in half the draws."""
        rng = np.random.default_rng(seed)
        if rng.random() < 0.5:
            mesh = interval_mesh(0.0, 1.0, int(rng.integers(10, 201)))
        else:
            nx, ny = rng.integers(4, 25, size=2)
            mesh = rectangle_mesh(0.0, 1.0, 0.0, 1.0, int(nx), int(ny))
        ne = mesh.n_elements
        slope = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else 0.0
        exponent = ExponentField(rng.uniform(1.5, 4.0) + slope * mesh.barycenters[:, 0])
        if mesh.dimension == 2 and rng.random() < 0.5:
            op = LerayLionsOperator(exponent, ([0], [1]), list(rng.uniform(0.5, 2.0, (2, ne))))
        else:
            op = LerayLionsOperator.isotropic(exponent, rng.uniform(0.5, 2.0, ne),
                                              ndim=mesh.dimension)
        q = rng.uniform(1.0, exponent.p_minus - 0.1)
        source = None
        if rng.random() < 0.5:
            beta = rng.uniform(0.0, q - 1.0)
            gamma = q - 1.5 - beta + rng.uniform(0.05, 1.0)
            source = SourceTerm(rng.uniform(0.5, 2.0, ne), boundary_distance_field(mesh),
                                gamma, beta)
        kind = ("step", "stationary", "pure-load")[int(rng.integers(3))]
        potential = rng.uniform(0.5, 2.0, ne)
        if kind == "step":
            problem = EllipticProblem.standard(mesh, op, q, rng.uniform(0.01, 1.0),
                                               potential, source)
        elif kind == "stationary":
            load = rng.uniform(0.5, 2.0, ne) if rng.random() < 0.5 else None
            problem = EllipticProblem.stationary(mesh, op, q, potential, source, load)
        else:
            problem = EllipticProblem(mesh, op, load=rng.uniform(0.5, 2.0, ne))
        guess = None
        if rng.random() < 0.5:
            bump = bump_seed(mesh)
            guess = bump.with_values(bump.values * rng.uniform(0.1, 10.0)
                                     * rng.uniform(0.5, 1.5, mesh.n_vertices))
        described = (f"seed {seed}: {kind}, {mesh.dimension}D, {ne} elements, "
                     f"p_- {exponent.p_minus:.4g}, slope {slope:.3g}, q {q:.4g}, "
                     f"{len(op.partition)} block(s), source {source is not None}, "
                     f"{'cold' if guess is None else 'warm'}")
        return problem, guess, described

    def test_draws_reach_the_positive_solution(self):
        failures = []
        for seed in range(120):
            problem, guess, described = self.draw(seed)
            mesh = problem.mesh
            try:
                v, report = solve(problem, guess)
            except NonConvergence as err:
                failures.append(f"{described}: {err}")
                continue
            if not (report.converged and report.energy < 0.0
                    and np.all(v.values[mesh.interior] > 0.0)
                    and report.final_gradient_norm <= elliptic.DEFAULT_TOL[mesh.dimension]):
                failures.append(f"{described}: {report}")
        assert failures == []
