"""Structured simplicial meshes of the unit square/cube and wavenumber-driven sizing rules.

Meshes are uniform: the unit square is cut into m x m cells, each split into two
triangles along the (0,0)-(1,1) diagonal; the unit cube into m^3 cells, each split
into six tetrahedra sharing the main diagonal (Kuhn subdivision).  Both patterns
are nested under integer refinement, so a coarse mesh with m_c | m_f is exactly
contained in the fine one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

# The six coordinate-step orders of the Kuhn subdivision.  Each order pi yields
# the tetrahedron (c, c+e_{pi0}, c+e_{pi0}+e_{pi1}, c+(1,1,1)) inside a unit cell.
_KUHN_ORDERS = [
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
]


def _permutation_parity(order) -> int:
    inversions = sum(
        1 for a in range(len(order)) for b in range(a + 1, len(order)) if order[a] > order[b]
    )
    return inversions % 2


@dataclass(frozen=True, eq=False)
class SimplicialMesh:
    """Uniform simplicial mesh of [0,1]^dim with m intervals per edge."""

    dim: int
    intervals_per_edge: int
    vertices: np.ndarray  # (n_vertices, dim) float
    simplices: np.ndarray  # (n_simplices, dim+1) int, positively oriented
    boundary_facets: np.ndarray  # (n_facets, dim) int, vertex-sorted rows

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_simplices(self) -> int:
        return self.simplices.shape[0]

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
    """Build the uniform simplicial mesh of the unit square (dim=2) or cube (dim=3).

    Cells are enumerated with x fastest; cell c owns simplices 2c, 2c+1 (dim=2)
    or 6c..6c+5 (dim=3), which downstream code relies on when mapping cell boxes
    to element sets.
    """
    if dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    m = intervals_per_edge
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"intervals_per_edge must be a positive integer, got {m}")

    m1 = m + 1
    axes = [np.arange(m1) / m for _ in range(dim)]
    if dim == 2:
        gy, gx = np.meshgrid(axes[1], axes[0], indexing="ij")
        vertices = np.column_stack([gx.ravel(), gy.ravel()])
    else:
        gz, gy, gx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
        vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    if dim == 2:
        iy, ix = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
        v00 = (iy * m1 + ix).ravel()
        v10 = v00 + 1
        v01 = v00 + m1
        v11 = v01 + 1
        # diagonal split v00-v11, both triangles counterclockwise
        tris = np.empty((2 * m * m, 3), dtype=np.int64)
        tris[0::2] = np.column_stack([v00, v10, v11])
        tris[1::2] = np.column_stack([v00, v11, v01])
        simplices = tris
    else:
        iz, iy, ix = np.meshgrid(np.arange(m), np.arange(m), np.arange(m), indexing="ij")
        base = (iz * m1 * m1 + iy * m1 + ix).ravel()
        strides = np.array([1, m1, m1 * m1], dtype=np.int64)

        offsets = np.empty((6, 4), dtype=np.int64)
        for t, order in enumerate(_KUHN_ORDERS):
            o0 = 0
            o1 = o0 + strides[order[0]]
            o2 = o1 + strides[order[1]]
            o3 = int(strides.sum())
            if _permutation_parity(order) == 0:
                offsets[t] = (o0, o1, o2, o3)
            else:
                offsets[t] = (o0, o2, o1, o3)  # swap to keep positive orientation
        simplices = (base[:, None, None] + offsets[None, :, :]).reshape(-1, 4)

    mesh = SimplicialMesh(
        dim=dim,
        intervals_per_edge=m,
        vertices=vertices,
        simplices=simplices,
        boundary_facets=_boundary_facets(simplices),
    )
    return mesh


def _boundary_facets(simplices: np.ndarray) -> np.ndarray:
    """Facets (vertex-sorted) that belong to exactly one simplex, in lexicographic order."""
    q = simplices.shape[1]
    faces = np.concatenate([np.delete(simplices, i, axis=1) for i in range(q)])
    faces = np.sort(faces, axis=1)
    order = np.lexsort(faces.T[::-1])
    sf = faces[order]
    new_run = np.ones(len(sf), dtype=bool)
    new_run[1:] = (sf[1:] != sf[:-1]).any(axis=1)
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.append(starts, len(sf)))
    return sf[starts[lengths == 1]]


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
    mc1 = mc + 1

    gidx = fine.grid_coordinates()  # (nv, d) ints in [0, mf]
    num = gidx * mc  # position times mf, in coarse-grid units
    cell = np.minimum(num // mf, mc - 1)
    frac = num - cell * mf  # integer in [0, mf]
    den = float(mf)

    nv = fine.n_vertices
    if d == 2:
        c00 = cell[:, 1] * mc1 + cell[:, 0]
        c10 = c00 + 1
        c01 = c00 + mc1
        c11 = c01 + 1
        fx, fy = frac[:, 0], frac[:, 1]
        lower = fx >= fy
        cols = np.where(
            lower[:, None],
            np.column_stack([c00, c10, c11]),
            np.column_stack([c00, c11, c01]),
        )
        w_lower = np.column_stack([mf - fx, fx - fy, fy])
        w_upper = np.column_stack([mf - fy, fx, fy - fx])
        weights = np.where(lower[:, None], w_lower, w_upper) / den
        rows = np.repeat(np.arange(nv), 3)
    else:
        strides = np.array([1, mc1, mc1 * mc1], dtype=np.int64)
        c0 = cell @ strides
        order = np.argsort(-frac, axis=1, kind="stable")  # descending, ties keep axis order
        fsort = np.take_along_axis(frac, order, axis=1)
        weights = np.column_stack(
            [mf - fsort[:, 0], fsort[:, 0] - fsort[:, 1], fsort[:, 1] - fsort[:, 2], fsort[:, 2]]
        ) / den
        step = strides[order]  # (nv, 3)
        cols = np.empty((nv, 4), dtype=np.int64)
        cols[:, 0] = c0
        cols[:, 1] = c0 + step[:, 0]
        cols[:, 2] = cols[:, 1] + step[:, 1]
        cols[:, 3] = c0 + strides.sum()
        rows = np.repeat(np.arange(nv), 4)

    w = weights.ravel()
    keep = w != 0.0
    Z = sp.csr_matrix(
        (w[keep], (rows[keep], cols.ravel()[keep])),
        shape=(nv, mc1**d),
    )
    Z.sort_indices()
    return Z
