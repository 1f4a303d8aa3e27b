"""P1 finite element spaces on intervals and axis-aligned rectangles.

Elements are segments (1D) or right triangles from a uniform subdivision of
the rectangle (2D), with homogeneous Dirichlet boundary and one-point
barycentric quadrature: weight = element measure, so the gradient term of any
piecewise-linear field is integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class BandScatter:
    """Where the element-local matrix entries of a symmetric P1 assembly land
    in LAPACK upper band storage of the interior block, an array of shape
    (bandwidth + 1, n_interior) holding entry (i, j), i <= j, at
    [bandwidth + i - j, j], laid out in `order`: Fortran, which `dpbsv`
    factors in place, or at bandwidth 1 C, whose two rows are the contiguous
    diagonals `dptsv` reads (`assemble`).

    Pair k, an (element, l, m) whose vertices are interior with i <= j, lies
    at band position `index[k]`, in `element[k]`, at `rows[:, k]` = (l, m) *
    n_elements + element, its corners' places in a corner-major array;
    `products[d, k]` = G[l, d, element] G[m, d, element], so a block's sum
    over its axes d is its G_B G_B^T entry (`block_products`)."""

    shape: tuple
    order: str
    index: np.ndarray
    element: np.ndarray
    rows: np.ndarray
    products: np.ndarray
    _block_sums: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def assemble(self, pairs) -> np.ndarray:
        """The band that sums each pair's value at its place, in pair order."""
        band = np.bincount(self.index, weights=pairs, minlength=self.shape[0] * self.shape[1])
        return band.reshape(self.shape, order=self.order)

    def block_products(self, axes) -> np.ndarray:
        """G_B G_B^T at every pair for the operator block on `axes` (an entry
        of `LerayLionsOperator.axes`): a view of `products` for one axis, the
        sum over its axes, formed on first use, for several."""
        key = (axes.start, axes.stop) if isinstance(axes, slice) else tuple(axes.tolist())
        if key not in self._block_sums:
            rows = self.products[axes]
            self._block_sums[key] = rows[0] if len(rows) == 1 else rows.sum(axis=0)
        return self._block_sums[key]


class Mesh:
    """Immutable simplicial mesh of an interval or rectangle, one (lo, hi)
    pair per axis in `bounds`, with cached P1 shape-function gradients
    (`corner_grads`, in the corner-major layout of its element pass), a
    cached interior band scatter map (`band_scatter`) for Hessian assembly
    and cached coordinate text (`coordinate_text`) for field files."""

    def __init__(self, bounds, resolution, vertices, elements, boundary_mask):
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        self.dimension = len(self.bounds)
        self.resolution = tuple(int(r) for r in resolution)
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=int)
        self.boundary_mask = np.asarray(boundary_mask, dtype=bool)
        self.interior = np.flatnonzero(~self.boundary_mask)
        self.barycenters = self.vertices[self.elements].mean(axis=1)
        self._build_geometry()

    def _build_geometry(self):
        coords = self.vertices[self.elements]  # (ne, nloc, dim)
        nloc = self.elements.shape[1]
        if self.dimension == 1:
            h = coords[:, 1, 0] - coords[:, 0, 0]
            self.measures = np.abs(h)
            grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]
        else:
            a, b, c = coords[:, 0], coords[:, 1], coords[:, 2]
            jac = np.stack([b - a, c - a], axis=1)  # (ne, 2, 2)
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            self.measures = np.abs(det) / 2.0
            inv_t = np.empty_like(jac)
            inv_t[:, 0, 0] = jac[:, 1, 1]
            inv_t[:, 0, 1] = -jac[:, 1, 0]
            inv_t[:, 1, 0] = -jac[:, 0, 1]
            inv_t[:, 1, 1] = jac[:, 0, 0]
            inv_t /= det[:, None, None]
            ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
            grads = np.einsum("ld,edk->elk", ref, inv_t)
        if not np.all(self.measures > 0.0):
            raise ValueError("mesh has elements of nonpositive or undefined measure")
        # Corner-major layouts of the element pass: corner l's vertices, and
        # the weights of its nodal value in the element's corner sum (1) and
        # in each gradient component.  `corner_grads`, shape
        # (nloc, dim, n_elements), is a view of the latter: G[l, d, element].
        self._corner_vertices = self.elements.T.copy()
        self._corner_weights = np.ones((nloc, 1 + self.dimension, self.n_elements))
        self._corner_weights[:, 1:] = grads.transpose(1, 2, 0)
        self.corner_grads = self._corner_weights[:, 1:]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def spacing(self) -> float:
        return max((hi - lo) / n for (lo, hi), n in zip(self.bounds, self.resolution))

    @cached_property
    def band_scatter(self) -> BandScatter:
        """Upper band scatter map of the interior block, built once from the
        element table; the bandwidth is measured from the pattern (1 on an
        interval, ny on a rectangle in the vertex order of `rectangle_mesh`)."""
        n, nloc = self.interior.size, self.elements.shape[1]
        pos = np.full(self.n_vertices, -1)
        pos[self.interior] = np.arange(n)
        element, l, m = np.indices((self.n_elements, nloc, nloc)).reshape(3, -1)
        rows, cols = pos[self.elements[element, l]], pos[self.elements[element, m]]
        keep = (rows >= 0) & (cols >= rows)
        element, l, m, rows, cols = (a[keep] for a in (element, l, m, rows, cols))
        bandwidth = int(np.max(cols - rows, initial=0))
        shape, order = (bandwidth + 1, n), "C" if bandwidth == 1 else "F"
        index = np.ravel_multi_index((bandwidth + rows - cols, cols), shape, order=order)
        g = self.corner_grads
        return BandScatter(shape, order, index, element,
                           np.stack([l, m]) * self.n_elements + element,
                           (g[l, :, element] * g[m, :, element]).T.copy())

    @cached_property
    def coordinate_text(self) -> list[str]:
        """Each vertex's coordinates as field-file text, "x," or "x,y,", with
        full-precision `repr`; built once, since the coordinates of every
        field written on the mesh are the same."""
        return ["".join(f"{c!r}," for c in row) for row in self.vertices.tolist()]

    # The passes take nodal values of shape (..., n_vertices), read through
    # one gather per corner (`_corners`): a leading axis of iterates gives
    # one row of element values per iterate.

    def _corners(self, nodal_values) -> np.ndarray:
        """Nodal values at each corner, shape (..., nloc, n_elements)."""
        return np.asarray(nodal_values, dtype=float).take(self._corner_vertices, axis=-1)

    def means_and_gradients(self, nodal_values: np.ndarray) -> tuple:
        """Element means, shape (..., n_elements), and element gradients,
        shape (..., n_elements, dim), in one pass: the gradients are a view
        of axis-major memory, so each component `[..., d]` is contiguous."""
        terms = self._corners(nodal_values)[..., None, :] * self._corner_weights
        sums = _corner_sum(terms, -3)
        return sums[..., 0, :] / len(self._corner_weights), sums[..., 1:, :].swapaxes(-1, -2)

    # The element means keep their own arithmetic: the checks pass whole runs
    # as one array, and weighting them for the gradients too would hold
    # (1 + dim) times their corner values.

    def element_means(self, nodal_values: np.ndarray) -> np.ndarray:
        return _corner_sum(self._corners(nodal_values), -2) / len(self._corner_vertices)

    def gradient_of(self, nodal_values: np.ndarray) -> np.ndarray:
        """The element gradients of `means_and_gradients`."""
        return self.means_and_gradients(nodal_values)[1]


def _corner_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """The sum over the corner axis `axis`, an outer axis, which numpy adds
    corner by corner (a left fold), then + 0.0: the sums numpy's `sum` and
    `einsum` give over an inner corner axis, which start from 0.0 and so give
    0.0, not -0.0, when every term is -0.0."""
    total = np.add.reduce(values, axis=axis)
    total += 0.0
    return total


def interval_mesh(a: float, b: float, n: int) -> Mesh:
    if n < 2 or not -np.inf < a < b < np.inf:
        raise ValueError("interval mesh needs finite a < b and at least 2 "
                         "subdivisions")
    x = np.linspace(a, b, n + 1)
    vertices = x[:, None]
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    boundary = np.zeros(n + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return Mesh(((a, b),), (n,), vertices, elements, boundary)


def _cell_flipped(i, j, nx: int, ny: int):
    # flip the diagonal in the last column/row so no triangle has all three
    # vertices on the boundary (discrete fields would vanish identically there)
    return (i == nx - 1) != (j == ny - 1)


def rectangle_mesh(x0: float, x1: float, y0: float, y1: float,
                   nx: int, ny: int) -> Mesh:
    """Uniform right-triangle subdivision: each grid cell splits along a
    diagonal, oriented so that every triangle keeps an interior vertex."""
    if nx < 2 or ny < 2 or not (-np.inf < x0 < x1 < np.inf
                                and -np.inf < y0 < y1 < np.inf):
        raise ValueError("rectangle mesh needs finite increasing extents and at "
                         "least 2 subdivisions per axis")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=1)

    # cells (i, j) in row-major order, each with its corners v00 = (i, j),
    # v10 = (i + 1, j), v01 = (i, j + 1), v11 = (i + 1, j + 1) and its two
    # triangles in turn
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    v00 = (i * (ny + 1) + j).ravel()
    v10, v01 = v00 + ny + 1, v00 + 1
    v11 = v10 + 1
    flipped = _cell_flipped(i, j, nx, ny).ravel()[:, None]
    first = np.where(flipped, np.stack([v00, v10, v01], 1), np.stack([v00, v10, v11], 1))
    second = np.where(flipped, np.stack([v10, v11, v01], 1), np.stack([v00, v11, v01], 1))
    elements = np.stack([first, second], axis=1).reshape(-1, 3)
    boundary = ((vertices[:, 0] == x0) | (vertices[:, 0] == x1)
                | (vertices[:, 1] == y0) | (vertices[:, 1] == y1))
    return Mesh(((x0, x1), (y0, y1)), (nx, ny), vertices, elements, boundary)


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values of a P1 function with homogeneous Dirichlet boundary,
    read-only."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_vertices,):
            raise ValueError("nodal values do not match the mesh")
        if not np.isfinite(vals).all():
            raise ValueError("nodal values must be finite")
        if (vals[self.mesh.boundary_mask] != 0.0).any():
            raise ValueError("boundary nodal values must vanish")

    def with_values(self, values) -> "DiscreteField":
        return DiscreteField(self.mesh, values)

    def barycenter_values(self) -> np.ndarray:
        return self.mesh.element_means(self.values)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def interpolate(mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> DiscreteField:
    """Nodal interpolant of fn(points) with the boundary values forced to zero."""
    vals = np.asarray(fn(mesh.vertices), dtype=float).reshape(mesh.n_vertices)
    vals = vals.copy()
    vals[mesh.boundary_mask] = 0.0
    return DiscreteField(mesh, vals)


def _mean_powers(mesh: Mesh, nodal_values: np.ndarray, power: float) -> np.ndarray:
    """Element means of nonnegative nodal values of shape (..., n_vertices),
    raised to `power`; the means are never -0.0 (`_corner_sum`)."""
    if np.min(nodal_values) < 0.0:
        raise ValueError("powers require nonnegative fields")
    return mesh.element_means(nodal_values) ** power


def l2_norm_diff_power(u: DiscreteField, v: DiscreteField, power: float) -> float:
    """L2 norm of (u^power - v^power)."""
    if u.mesh is not v.mesh:
        raise ValueError("fields live on different meshes")
    diff = _mean_powers(u.mesh, u.values, power) - _mean_powers(v.mesh, v.values, power)
    return l2_norm_values(u.mesh, diff)


def l2_norm_values(mesh: Mesh, element_values):
    """L2 norm of a per-element sampled function, a float; values of shape
    (S, n_elements) give the list of the S rows' norms."""
    vals = np.asarray(element_values, dtype=float)
    vals = np.broadcast_to(vals, vals.shape[:-1] + (mesh.n_elements,))
    return np.sqrt((mesh.measures * vals ** 2).sum(axis=-1)).tolist()


def _distance(points: np.ndarray, mesh: Mesh) -> np.ndarray:
    return np.minimum.reduce([side for axis, (lo, hi) in enumerate(mesh.bounds)
                              for side in (points[:, axis] - lo, hi - points[:, axis])])


def _unit_bump(points: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Product over the axes of 4 (x - lo)(hi - x)/(hi - lo)^2, 1 at the centre."""
    out = np.ones(points.shape[0])
    for axis, (lo, hi) in enumerate(mesh.bounds):
        out = out * 4.0 * (points[:, axis] - lo) * (hi - points[:, axis]) / (hi - lo) ** 2
    return out


def boundary_distance_field(mesh: Mesh) -> np.ndarray:
    """Exact distance to the boundary of the interval/rectangle at each
    element's quadrature point (its barycenter)."""
    return _distance(mesh.barycenters, mesh)
