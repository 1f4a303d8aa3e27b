import numpy as np
import pytest

from dne.evolution import EvolutionSetup
from dne.meshing import (DiscreteField, boundary_distance_field, interpolate,
                         interval_mesh, rectangle_mesh)
from dne.operators import (ExponentField, LerayLionsOperator, PotentialField,
                           SourceTerm)


@pytest.fixture(scope="session")
def mesh_1d():
    return interval_mesh(0.0, 1.0, 100)


@pytest.fixture(scope="session")
def mesh_2d():
    return rectangle_mesh(0.0, 1.0, 0.0, 1.0, 12, 12)


EXTENT_MESHES = {"interval": lambda: interval_mesh(-0.5, 2.0, 30),
                 "12x12": lambda: rectangle_mesh(0.0, 1.0, 0.0, 1.0, 12, 12),
                 "6x9": lambda: rectangle_mesh(0.0, 1.5, -0.5, 1.0, 6, 9)}


@pytest.fixture(scope="session", params=list(EXTENT_MESHES))
def extent_mesh(request):
    """An interval off the origin, the unit square and a rectangle with
    unequal, off-origin extents: the meshes the readers of `Mesh.bounds` are
    checked on."""
    return EXTENT_MESHES[request.param]()


def make_problem_data(mesh, p=2.5, beta=0.0, gamma=1.0):
    """Constant-exponent isotropic operator with the prototype source and a
    bump potential on the given mesh."""
    ne = mesh.n_elements
    exponent = ExponentField.constant(ne, p)
    op = LerayLionsOperator.isotropic(exponent, 1.0, ndim=mesh.dimension)
    delta = boundary_distance_field(mesh)
    source = SourceTerm(np.full(ne, 1.0), delta, gamma=gamma, beta=beta)
    xb = mesh.barycenters
    prof = np.ones(ne)
    for axis, (lo, hi) in enumerate(mesh.bounds):
        prof = prof * 4.0 * (xb[:, axis] - lo) * (hi - xb[:, axis]) / (hi - lo) ** 2
    potential = PotentialField.constant(prof)
    return op, source, potential


def make_setup(mesh, data, initial=0.5, q=1.25, horizon=1.0, steps=10):
    """The run of the `(op, source, potential)` data that `make_problem_data`
    returns on `mesh`, from `initial`: a field, or the height of the bump
    initial * sin(pi x) on a unit interval."""
    if not isinstance(initial, DiscreteField):
        scale = initial
        initial = interpolate(mesh, lambda x: scale * np.sin(np.pi * x[:, 0]))
    return EvolutionSetup(mesh, data[0], q, data[1], data[2], horizon, steps, initial)


@pytest.fixture(scope="session")
def data_1d(mesh_1d):
    return make_problem_data(mesh_1d)


@pytest.fixture(scope="session")
def data_2d(mesh_2d):
    return make_problem_data(mesh_2d, p=2.4)
