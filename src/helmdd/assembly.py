"""P1 finite-element assembly for the Helmholtz bilinear form with absorption.

The assembled operator is  K - (k^2 + i*eps) M - i*eta B  where K is the
stiffness matrix, M the domain mass matrix and B the boundary mass matrix of
the Robin term.  Element integrals are exact for P1, so K, M and B carry no
quadrature error; only the right-hand side uses (vertex-lumped) quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import SimplicialMesh

__all__ = [
    "AssemblyError",
    "HelmholtzParams",
    "SubdomainMatrices",
    "stiffness_matrix",
    "mass_matrix",
    "boundary_mass_matrix",
    "facet_mass_matrix",
    "assemble_global",
    "assemble_rhs",
    "assemble_subdomain",
]


class AssemblyError(Exception):
    pass


def _default_eta(k: float, epsilon: float) -> float:
    # eta = sign(eps) * k for eps != 0, eta = k for eps = 0
    if epsilon == 0.0:
        return k
    return math.copysign(k, epsilon)


@dataclass(frozen=True)
class HelmholtzParams:
    """Wavenumber, absorption shift and Robin coefficient (resolved at init)."""

    k: float
    epsilon: float = 0.0
    eta: float = None  # type: ignore[assignment]  # None -> default sign rule

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        if self.eta is None:
            object.__setattr__(self, "eta", _default_eta(self.k, self.epsilon))


@dataclass(frozen=True)
class SubdomainMatrices:
    """Local matrices of one subdomain, all in the subdomain's dof indexing.

    A_local carries the Robin term on the whole subdomain boundary (the ORAS
    local problem); A_neu carries it only on the physical-boundary part, so its
    interface block is of Neumann type; M_interface is the mass matrix of the
    interface facets (real symmetric, positive definite on the interface dofs).
    """

    A_local: sp.csr_matrix
    A_neu: sp.csr_matrix
    M_interface: sp.csr_matrix
    interface_facets: np.ndarray
    physical_facets: np.ndarray


def _edges_and_volumes(vertices: np.ndarray, simplices: np.ndarray, dim: int):
    """Edge vectors from the first vertex and volumes det(edges)/d! of each simplex."""
    pts = vertices[simplices]
    edges = pts[:, 1:, :] - pts[:, :1, :]  # (ne, d, d)
    vol = np.linalg.det(edges) / math.factorial(dim)
    bad = np.flatnonzero(vol <= 0)
    if bad.size:
        raise AssemblyError(f"degenerate simplex (non-positive volume) at index {bad[0]}")
    return edges, vol


def _element_geometry(vertices: np.ndarray, simplices: np.ndarray, dim: int):
    edges, vol = _edges_and_volumes(vertices, simplices, dim)
    inv = np.linalg.inv(edges)
    grads = np.empty((len(simplices), dim + 1, dim))
    grads[:, 1:, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return vol, grads


def _scatter(indices: np.ndarray, n: int, *element_matrices: np.ndarray) -> list:
    """Deterministic scatter-add of element matrices into global CSR matrices.

    Duplicates are summed with a stable sort + reduceat, so symmetric element
    matrices yield a bitwise-symmetric global matrix.  All element matrix sets
    share the connectivity indices, so the sort is done once for all of them.
    """
    idx = indices.astype(np.int64)
    key = (idx[:, :, None] * n + idx[:, None, :]).ravel()  # row * n + col, element-major
    order = np.argsort(key, kind="stable")
    ks = key[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(ks)) + 1])
    ukeys = ks[starts]
    out = []
    for em in element_matrices:
        sums = np.add.reduceat(em.ravel()[order], starts)
        A = sp.csr_matrix((sums, (ukeys // n, ukeys % n)), shape=(n, n))
        A.sort_indices()
        out.append(A)
    return out


def _mass_template(q: int) -> np.ndarray:
    """Exact P1 mass matrix of a q-vertex simplex of unit measure."""
    return (np.ones((q, q)) + np.eye(q)) / (q * (q + 1))


def _volume_matrices(vertices: np.ndarray, simplices: np.ndarray, dim: int, n: int):
    """The P1 element kernel: stiffness K and mass M from one geometry pass."""
    vol, grads = _element_geometry(vertices, simplices, dim)
    ke = np.einsum("e,eid,ejd->eij", vol, grads, grads)
    me = vol[:, None, None] * _mass_template(dim + 1)
    return _scatter(simplices, n, ke, me)


def stiffness_matrix(mesh: SimplicialMesh) -> sp.csr_matrix:
    return _volume_matrices(mesh.vertices, mesh.simplices, mesh.dim, mesh.n_vertices)[0]


def mass_matrix(mesh: SimplicialMesh) -> sp.csr_matrix:
    _, vol = _edges_and_volumes(mesh.vertices, mesh.simplices, mesh.dim)
    me = vol[:, None, None] * _mass_template(mesh.dim + 1)
    return _scatter(mesh.simplices, mesh.n_vertices, me)[0]


def _facet_measures(vertices: np.ndarray, facets: np.ndarray, dim: int) -> np.ndarray:
    pts = vertices[facets]
    if dim == 2:
        meas = np.linalg.norm(pts[:, 1, :] - pts[:, 0, :], axis=1)
    else:
        cr = np.cross(pts[:, 1, :] - pts[:, 0, :], pts[:, 2, :] - pts[:, 0, :])
        meas = 0.5 * np.linalg.norm(cr, axis=1)
    if np.any(meas <= 0):
        raise AssemblyError("degenerate boundary facet (zero measure)")
    return meas


def facet_mass_matrix(vertices: np.ndarray, facets: np.ndarray, dim: int, n: int) -> sp.csr_matrix:
    """Mass matrix of the (d-1)-dimensional facet set, scattered into n dofs."""
    if len(facets) == 0:
        return sp.csr_matrix((n, n))
    meas = _facet_measures(vertices, facets, dim)
    fe = meas[:, None, None] * _mass_template(dim)  # a facet has dim vertices
    return _scatter(np.asarray(facets), n, fe)[0]


def boundary_mass_matrix(mesh: SimplicialMesh) -> sp.csr_matrix:
    return facet_mass_matrix(mesh.vertices, mesh.boundary_facets, mesh.dim, mesh.n_vertices)


def assemble_global(mesh: SimplicialMesh, params: HelmholtzParams) -> sp.csr_matrix:
    """Assemble K - (k^2 + i*eps) M - i*eta B on the whole mesh (complex CSR).

    The operator is complex symmetric (A == A.T entrywise) but not Hermitian.
    """
    K, M = _volume_matrices(mesh.vertices, mesh.simplices, mesh.dim, mesh.n_vertices)
    A = K.astype(np.complex128) + (-(params.k**2) - 1j * params.epsilon) * M
    del K, M  # freed before the last sum allocates A, which keeps peak memory down
    A = A + (-1j * params.eta) * boundary_mass_matrix(mesh)
    A.sort_indices()
    return A


def _gauss2d(points: np.ndarray) -> np.ndarray:
    r2 = (points[:, 0] - 0.5) ** 2 + (points[:, 1] - 0.5) ** 2
    return -np.exp(-100.0 * r2)


def _gauss3d(points: np.ndarray) -> np.ndarray:
    r2 = ((points - 0.5) ** 2).sum(axis=1)
    return -np.exp(-400.0 * r2)


_NAMED_SOURCES = {"gauss2d": (2, _gauss2d), "gauss3d": (3, _gauss3d)}


def assemble_rhs(mesh: SimplicialMesh, source) -> np.ndarray:
    """Load vector (f)_v = f(x_v) * lumped_weight(v); deterministic vertex quadrature.

    The lumped weight of a vertex is its row sum of the mass matrix,
    vol(support of phi_v)/(d+1).

    source is either a registered name ("gauss2d", "gauss3d") or a callable
    mapping an (n, dim) point array to n values.
    """
    if isinstance(source, str):
        try:
            want_dim, fn = _NAMED_SOURCES[source]
        except KeyError:
            raise ValueError(f"unknown source {source!r}") from None
        if want_dim != mesh.dim:
            raise ValueError(f"source {source!r} is {want_dim}d but mesh is {mesh.dim}d")
    else:
        fn = source
    values = np.asarray(fn(mesh.vertices), dtype=np.complex128)
    if values.shape != (mesh.n_vertices,):
        raise ValueError("source must return one value per vertex")
    _, vol = _edges_and_volumes(mesh.vertices, mesh.simplices, mesh.dim)
    weights = np.zeros(mesh.n_vertices)
    np.add.at(weights, mesh.simplices.ravel(), np.repeat(vol / (mesh.dim + 1), mesh.dim + 1))
    return values * weights


def _facet_on_physical_boundary(mesh: SimplicialMesh, facets: np.ndarray) -> np.ndarray:
    """True where all facet vertices share a lattice coordinate 0 or m in some axis."""
    m = mesh.intervals_per_edge
    coords = mesh.grid_coordinates(facets.ravel()).reshape(facets.shape + (mesh.dim,))
    at_lo = (coords == 0).all(axis=1)
    at_hi = (coords == m).all(axis=1)
    return (at_lo | at_hi).any(axis=1)


def assemble_subdomain(mesh: SimplicialMesh, subdomain, params: HelmholtzParams) -> SubdomainMatrices:
    """Assemble the local Robin, Neumann-type and interface-mass matrices.

    All three share the subdomain's local dof indexing (subdomain.dofs order).
    """
    if len(subdomain.elements) == 0:
        raise AssemblyError(f"subdomain {subdomain.index} has no elements")
    dofs = subdomain.dofs
    n_loc = len(dofs)
    local_simplices = np.searchsorted(dofs, mesh.simplices[subdomain.elements])
    local_vertices = mesh.vertices[dofs]

    d = mesh.dim
    K, M = _volume_matrices(local_vertices, local_simplices, d, n_loc)

    from .mesh import _boundary_facets  # facet extraction shared with mesh construction

    local_bfacets = _boundary_facets(local_simplices)
    global_bfacets = dofs[local_bfacets]
    physical = _facet_on_physical_boundary(mesh, global_bfacets)
    phys_facets = local_bfacets[physical]
    intf_facets = local_bfacets[~physical]

    B_phys = facet_mass_matrix(local_vertices, phys_facets, d, n_loc)
    B_intf = facet_mass_matrix(local_vertices, intf_facets, d, n_loc)

    volume_part = K.astype(np.complex128) + (-(params.k**2) - 1j * params.epsilon) * M
    A_neu = volume_part + (-1j * params.eta) * B_phys
    A_local = A_neu + (-1j * params.eta) * B_intf
    A_local.sort_indices()
    A_neu.sort_indices()
    return SubdomainMatrices(
        A_local=A_local,
        A_neu=A_neu,
        M_interface=B_intf,
        interface_facets=intf_facets,
        physical_facets=phys_facets,
    )
