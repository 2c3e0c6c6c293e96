"""Structured simplicial meshes of the unit square/cube and wavenumber-driven sizing rules.

Meshes are uniform: the unit square or cube is cut into m^d cells, and each
cell into the d! simplices of its Kuhn subdivision, which all share the
diagonal from the cell's lowest to its highest corner (two triangles in 2d,
six tetrahedra in 3d).  The pattern is nested under integer refinement, so a
coarse mesh with m_c | m_f is exactly contained in the fine one.  A mesh is
defined by (dim, m) alone; its vertices are derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SimplicialMesh",
    "build_uniform_mesh",
    "subdomains_per_dimension",
    "fine_resolution",
    "coarse_resolution",
    "interpolation_matrix",
]


def _permutation_parity(order) -> int:
    inversions = sum(
        1 for a in range(len(order)) for b in range(a + 1, len(order)) if order[a] > order[b]
    )
    return inversions % 2


def _kuhn_simplices(dim: int) -> np.ndarray:
    """The dim! Kuhn simplices of the unit cell as (dim!, dim+1, dim) 0/1 vertex offsets.

    Simplex pi walks from the origin to (1, ..., 1) one axis at a time in the
    order pi; odd permutations swap vertices 1 and 2, so every simplex of
    dimension >= 2 is positively oriented.
    """
    shapes = []
    for order in permutations(range(dim)):
        path = np.zeros((dim + 1, dim), dtype=np.int64)
        for step, axis in enumerate(order):
            path[step + 1:, axis] = 1
        if _permutation_parity(order):
            path[[1, 2]] = path[[2, 1]]
        shapes.append(path)
    return np.array(shapes)


def _lattice_points(lo, hi, strides) -> np.ndarray:
    """Ids sum_a c_a * strides[a] of the points lo <= c < hi, x fastest."""
    ids = np.zeros(1, dtype=np.int64)
    for axis in range(len(lo)):  # later axes vary slower
        coords = np.arange(lo[axis], hi[axis]) * strides[axis]
        ids = (coords[:, None] + ids[None, :]).ravel()
    return ids


@dataclass(frozen=True, eq=False)
class SimplicialMesh:
    """Uniform simplicial mesh of [0,1]^dim with m intervals per edge."""

    dim: int
    intervals_per_edge: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")
        m = self.intervals_per_edge
        if not isinstance(m, (int, np.integer)) or m < 1:
            raise ValueError(f"intervals_per_edge must be a positive integer, got {m}")

    @property
    def n_vertices(self) -> int:
        return (self.intervals_per_edge + 1) ** self.dim

    @property
    def vertices(self) -> np.ndarray:
        """(n_vertices, dim) coordinates; x varies fastest."""
        return self.grid_coordinates() / self.intervals_per_edge

    def grid_coordinates(self, vertex_ids=None) -> np.ndarray:
        """Integer lattice coordinates (ix, iy[, iz]) of vertices; x varies fastest."""
        m1 = self.intervals_per_edge + 1
        ids = np.arange(self.n_vertices) if vertex_ids is None else np.asarray(vertex_ids)
        coords = np.empty(ids.shape + (self.dim,), dtype=np.int64)
        rest = ids
        for axis in range(self.dim):
            coords[..., axis] = rest % m1
            rest = rest // m1
        return coords


def build_uniform_mesh(dim: int, intervals_per_edge: int) -> SimplicialMesh:
    """The uniform simplicial mesh of the unit square (dim=2) or cube (dim=3)."""
    return SimplicialMesh(dim, intervals_per_edge)


def subdomains_per_dimension(k: float, alpha: float) -> int:
    """Number of subdomain boxes per dimension for subdomain diameter ~ k^-alpha."""
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    n = int(math.floor(k**alpha + 1e-12))
    if n < 1:
        raise ValueError(f"k^alpha = {k**alpha:.3g} < 1 gives no subdomains")
    return n


def fine_resolution(k: float, n_subdomains_1d: int) -> int:
    """Smallest multiple of n_subdomains_1d with at least ceil(k^1.5) intervals.

    Rounding up to a multiple aligns subdomain boundaries with mesh lines, so
    every subdomain is a union of whole cells.
    """
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    if n_subdomains_1d < 1:
        raise ValueError(f"n_subdomains_1d must be >= 1, got {n_subdomains_1d}")
    target = math.ceil(k**1.5 - 1e-12)
    return n_subdomains_1d * max(1, -(-target // n_subdomains_1d))


def coarse_resolution(k: float, alpha_prime: float) -> int:
    """Coarse-mesh intervals per edge for coarse diameter ~ k^-alpha_prime."""
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    if not 0 < alpha_prime <= 1:
        raise ValueError(f"alpha_prime must be in (0, 1], got {alpha_prime}")
    mc = int(math.floor(k**alpha_prime + 1e-12))
    if mc < 1:
        raise ValueError(f"k^alpha_prime = {k**alpha_prime:.3g} < 1 gives an empty coarse mesh")
    return mc


def interpolation_matrix(coarse: SimplicialMesh, fine: SimplicialMesh) -> sp.csr_matrix:
    """Nodal P1 interpolation from the coarse space onto the fine vertices.

    Column j holds the values of coarse basis function j at every fine vertex,
    so rows sum to 1 and linear functions are reproduced exactly.  The meshes
    need not be nested; positions are resolved in exact integer arithmetic on
    the two lattices.
    """
    if coarse.dim != fine.dim:
        raise ValueError("meshes must have the same dimension")
    d = coarse.dim
    mc, mf = coarse.intervals_per_edge, fine.intervals_per_edge
    if mf < mc:
        raise ValueError(f"fine mesh (m={mf}) must be at least as fine as coarse (m={mc})")

    # a fine vertex lies in the Kuhn simplex of its coarse cell that walks the
    # axes by descending frac; its barycentric weights, times mf, are the gaps
    # between mf, the sorted frac and 0
    num = fine.grid_coordinates() * mc  # position times mf, in coarse-grid units
    cell = np.minimum(num // mf, mc - 1)
    frac = num - cell * mf  # integer in [0, mf]
    order = np.argsort(-frac, axis=1, kind="stable")  # ties keep axis order
    fsort = np.take_along_axis(frac, order, axis=1)
    nv = fine.n_vertices
    bounds = np.column_stack([np.full(nv, mf), fsort, np.zeros(nv, np.int64)])
    w = (-np.diff(bounds) / float(mf)).ravel()
    strides = (mc + 1) ** np.arange(d)
    walk = np.column_stack([np.zeros(nv, np.int64), np.cumsum(strides[order], axis=1)])
    cols = (cell @ strides)[:, None] + walk
    rows = np.repeat(np.arange(nv), d + 1)

    keep = w != 0.0
    Z = sp.csr_matrix((w[keep], (rows[keep], cols.ravel()[keep])), shape=(nv, (mc + 1) ** d))
    Z.sort_indices()
    return Z
