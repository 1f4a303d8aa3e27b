"""P1 finite element spaces on intervals and axis-aligned rectangles.

Elements are segments (1D) or right triangles from a uniform subdivision of
the rectangle (2D), with homogeneous Dirichlet boundary and one-point
barycentric quadrature: weight = element measure, so the gradient term of any
piecewise-linear field is integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class MeshMismatch(ValueError):
    pass


@dataclass(frozen=True)
class BandScatter:
    """Where the element-local matrix entries of a P1 assembly land in LAPACK
    band storage of the interior block, an array of shape
    (2 bandwidth + 1, n_interior) holding entry (i, j) at [bandwidth + i - j, j].

    `keep` masks the flattened (element, l, m) pairs whose two vertices are
    both interior; `index` is the flat band position of each kept pair."""

    bandwidth: int
    keep: np.ndarray
    index: np.ndarray


class Mesh:
    """Immutable simplicial mesh with cached P1 shape-function gradients and a
    cached interior band scatter map (`band_scatter`) for Hessian assembly."""

    def __init__(self, dimension, bounds, resolution, vertices, elements, boundary_mask):
        self.dimension = int(dimension)
        self.bounds = tuple(float(b) for b in bounds)  # (a, b) or (x0, x1, y0, y1)
        self.resolution = tuple(int(r) for r in resolution)
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=int)
        self.boundary_mask = np.asarray(boundary_mask, dtype=bool)
        self.interior = np.flatnonzero(~self.boundary_mask)
        self.barycenters = self.vertices[self.elements].mean(axis=1)
        self._build_geometry()

    def _build_geometry(self):
        coords = self.vertices[self.elements]  # (ne, nloc, dim)
        if self.dimension == 1:
            h = coords[:, 1, 0] - coords[:, 0, 0]
            self.measures = np.abs(h)
            self.grads = np.stack([-1.0 / h, 1.0 / h], axis=1)[:, :, None]
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
            self.grads = np.einsum("ld,edk->elk", ref, inv_t)
        if np.any(self.measures <= 0.0):
            raise ValueError("mesh has elements of nonpositive measure")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def spacing(self) -> float:
        if self.dimension == 1:
            return (self.bounds[1] - self.bounds[0]) / self.resolution[0]
        hx = (self.bounds[1] - self.bounds[0]) / self.resolution[0]
        hy = (self.bounds[3] - self.bounds[2]) / self.resolution[1]
        return max(hx, hy)

    @cached_property
    def band_scatter(self) -> BandScatter:
        """Interior band scatter map, built once from the element table; the
        bandwidth is measured from the pattern (1 on an interval, ny on a
        rectangle in the vertex order of `rectangle_mesh`)."""
        n = self.interior.size
        pos = np.full(self.n_vertices, -1)
        pos[self.interior] = np.arange(n)
        loc = pos[self.elements]
        rows = np.repeat(loc, loc.shape[1], axis=1).ravel()
        cols = np.tile(loc, (1, loc.shape[1])).ravel()
        keep = (rows >= 0) & (cols >= 0)
        rows, cols = rows[keep], cols[keep]
        bandwidth = int(np.max(np.abs(rows - cols), initial=0))
        return BandScatter(bandwidth, keep, (bandwidth + rows - cols) * n + cols)

    def element_means(self, nodal_values: np.ndarray) -> np.ndarray:
        return np.asarray(nodal_values, dtype=float)[self.elements].mean(axis=1)

    def gradient_of(self, nodal_values: np.ndarray) -> np.ndarray:
        vals = np.asarray(nodal_values, dtype=float)[self.elements]
        return np.einsum("el,eld->ed", vals, self.grads)


def interval_mesh(a: float, b: float, n: int) -> Mesh:
    if n < 2 or not a < b:
        raise ValueError("interval mesh needs a < b and at least 2 subdivisions")
    x = np.linspace(a, b, n + 1)
    vertices = x[:, None]
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    boundary = np.zeros(n + 1, dtype=bool)
    boundary[0] = boundary[-1] = True
    return Mesh(1, (a, b), (n,), vertices, elements, boundary)


def _cell_flipped(i, j, nx: int, ny: int):
    # flip the diagonal in the last column/row so no triangle has all three
    # vertices on the boundary (discrete fields would vanish identically there)
    return (i == nx - 1) != (j == ny - 1)


def rectangle_mesh(x0: float, x1: float, y0: float, y1: float,
                   nx: int, ny: int) -> Mesh:
    """Uniform right-triangle subdivision: each grid cell splits along a
    diagonal, oriented so that every triangle keeps an interior vertex."""
    if nx < 2 or ny < 2 or not (x0 < x1 and y0 < y1):
        raise ValueError("rectangle mesh needs increasing extents and at least "
                         "2 subdivisions per axis")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    elements = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if _cell_flipped(i, j, nx, ny):
                elements.append((v00, v10, v01))
                elements.append((v10, v11, v01))
            else:
                elements.append((v00, v10, v11))
                elements.append((v00, v11, v01))
    boundary = ((vertices[:, 0] == x0) | (vertices[:, 0] == x1)
                | (vertices[:, 1] == y0) | (vertices[:, 1] == y1))
    return Mesh(2, (x0, x1, y0, y1), (nx, ny), vertices, np.array(elements), boundary)


@dataclass(frozen=True)
class DiscreteField:
    """Nodal values of a P1 function with homogeneous Dirichlet boundary."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.mesh.n_vertices,):
            raise ValueError("nodal values do not match the mesh")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        if np.any(vals[self.mesh.boundary_mask] != 0.0):
            raise ValueError("boundary nodal values must vanish")

    def with_values(self, values) -> "DiscreteField":
        return DiscreteField(self.mesh, values)

    def barycenter_values(self) -> np.ndarray:
        return self.mesh.element_means(self.values)

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())


def zero_field(mesh: Mesh) -> DiscreteField:
    return DiscreteField(mesh, np.zeros(mesh.n_vertices))


def interpolate(mesh: Mesh, fn: Callable[[np.ndarray], np.ndarray]) -> DiscreteField:
    """Nodal interpolant of fn(points) with the boundary values forced to zero."""
    vals = np.asarray(fn(mesh.vertices), dtype=float).reshape(mesh.n_vertices)
    vals = vals.copy()
    vals[mesh.boundary_mask] = 0.0
    return DiscreteField(mesh, vals)


def gradient(field: DiscreteField) -> np.ndarray:
    """Exact per-element gradient of the piecewise-linear interpolant, (ne, dim)."""
    return field.mesh.gradient_of(field.values)


def l2_norm_diff_power(u: DiscreteField, v: DiscreteField, power: float,
                       positive_part: bool = False) -> float:
    """L2 norm of (u^power - v^power), or of its positive part."""
    if u.mesh is not v.mesh:
        raise MeshMismatch("fields live on different meshes")
    non_integer = abs(power - round(power)) > 1e-14
    if non_integer and (u.values.min() < 0.0 or v.values.min() < 0.0):
        raise ValueError("non-integer powers require nonnegative fields")
    ub = u.barycenter_values()
    vb = v.barycenter_values()
    if non_integer:
        ub, vb = np.maximum(ub, 0.0), np.maximum(vb, 0.0)
    diff = ub ** power - vb ** power
    if positive_part:
        diff = np.maximum(diff, 0.0)
    return float(np.sqrt(np.sum(u.mesh.measures * diff ** 2)))


def lr_norm_diff_power(u: DiscreteField, v: DiscreteField, power: float,
                       r: float) -> float:
    """L^r norm of (u^power - v^power) for r >= 1, by the same quadrature."""
    if u.mesh is not v.mesh:
        raise MeshMismatch("fields live on different meshes")
    diff = np.abs(np.maximum(u.barycenter_values(), 0.0) ** power
                  - np.maximum(v.barycenter_values(), 0.0) ** power)
    return float(np.sum(u.mesh.measures * diff ** r) ** (1.0 / r))


def l2_norm_values(mesh: Mesh, element_values) -> float:
    """L2 norm of a per-element sampled function."""
    vals = np.broadcast_to(np.asarray(element_values, dtype=float), (mesh.n_elements,))
    return float(np.sqrt(np.sum(mesh.measures * vals ** 2)))


@dataclass(frozen=True)
class BoundaryDistance:
    vertices: np.ndarray
    quadrature: np.ndarray


def _distance(points: np.ndarray, mesh: Mesh) -> np.ndarray:
    if mesh.dimension == 1:
        a, b = mesh.bounds
        return np.minimum(points[:, 0] - a, b - points[:, 0])
    x0, x1, y0, y1 = mesh.bounds
    return np.minimum.reduce([points[:, 0] - x0, x1 - points[:, 0],
                              points[:, 1] - y0, y1 - points[:, 1]])


def _axis_bounds(mesh: Mesh):
    if mesh.dimension == 1:
        return [(mesh.bounds[0], mesh.bounds[1])]
    return [(mesh.bounds[0], mesh.bounds[1]), (mesh.bounds[2], mesh.bounds[3])]


def _unit_bump(points: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Product over the axes of 4 (x - lo)(hi - x)/(hi - lo)^2, 1 at the centre."""
    out = np.ones(points.shape[0])
    for axis, (lo, hi) in enumerate(_axis_bounds(mesh)):
        out = out * 4.0 * (points[:, axis] - lo) * (hi - points[:, axis]) / (hi - lo) ** 2
    return out


def boundary_distance_field(mesh: Mesh) -> BoundaryDistance:
    """Exact distance to the boundary of the interval/rectangle."""
    return BoundaryDistance(_distance(mesh.vertices, mesh),
                            _distance(mesh.barycenters, mesh))


def eval_at_points(field: DiscreteField, points: np.ndarray) -> np.ndarray:
    """Evaluate the P1 interpolant at arbitrary interior points (structured meshes)."""
    mesh = field.mesh
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.dimension == 1:
        return np.interp(pts[:, 0], mesh.vertices[:, 0], field.values)
    x0, x1, y0, y1 = mesh.bounds
    nx, ny = mesh.resolution
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    i = np.clip(((pts[:, 0] - x0) / hx).astype(int), 0, nx - 1)
    j = np.clip(((pts[:, 1] - y0) / hy).astype(int), 0, ny - 1)
    sx = (pts[:, 0] - x0) / hx - i
    sy = (pts[:, 1] - y0) / hy - j
    stride = ny + 1
    v00 = field.values[i * stride + j]
    v10 = field.values[(i + 1) * stride + j]
    v01 = field.values[i * stride + j + 1]
    v11 = field.values[(i + 1) * stride + j + 1]
    flipped = _cell_flipped(i, j, nx, ny)
    plain = np.where(sx >= sy,  # triangle (v00, v10, v11) else (v00, v11, v01)
                     v00 * (1.0 - sx) + v10 * (sx - sy) + v11 * sy,
                     v00 * (1.0 - sy) + v11 * sx + v01 * (sy - sx))
    flip = np.where(sx + sy <= 1.0,  # triangle (v00, v10, v01) else (v10, v11, v01)
                    v00 * (1.0 - sx - sy) + v10 * sx + v01 * sy,
                    v10 * (1.0 - sy) + v11 * (sx + sy - 1.0) + v01 * (1.0 - sx))
    return np.where(flipped, flip, plain)
