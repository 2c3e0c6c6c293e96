"""P1 finite-element assembly for the Helmholtz bilinear form with absorption.

The assembled operator is  K - (k^2 + i*eps) M - i*eta B  where K is the
stiffness matrix, M the domain mass matrix and B the boundary mass matrix of
the Robin term.  The mesh is a lattice, so one kernel builds every operator:
the P1 matrices of a box of cells with spacing h, from the element matrices
of the d! Kuhn shapes of the unit cell and the (d-1)-dimensional Kuhn
simplices of the box faces.  Element integrals are exact for P1, so K, M and
B carry no quadrature error; only the right-hand side uses (vertex-lumped)
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import SimplicialMesh, _kuhn_simplices, _lattice_simplices

__all__ = [
    "HelmholtzParams",
    "SubdomainMatrices",
    "assemble_global",
    "assemble_rhs",
    "assemble_subdomain",
]


@dataclass(frozen=True)
class HelmholtzParams:
    """Wavenumber, absorption shift and Robin coefficient (eta defaults to k)."""

    k: float
    epsilon: float = 0.0
    eta: float = None  # type: ignore[assignment]  # None -> k

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")
        if self.eta is None:
            object.__setattr__(self, "eta", self.k)


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


def _scatter(indices: np.ndarray, n: int, *kernels: np.ndarray) -> list:
    """Deterministic scatter-add of element matrices into global CSR matrices.

    Element e of indices gets the matrix kernel[e % len(kernel)], so a kernel
    holds one matrix per element shape, in the order the shapes repeat.
    Duplicates are summed with a stable sort + reduceat, so symmetric element
    matrices yield a bitwise-symmetric global matrix.  The sort is done once
    for all kernels.
    """
    idx = indices.astype(np.int64)
    key = (idx[:, :, None] * n + idx[:, None, :]).ravel()  # row * n + col, element-major
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    ukeys = key[starts]
    del key  # the sorted keys are as large as the element matrices; only ukeys is kept
    out = []
    for kernel in kernels:
        values = kernel.ravel()[order % kernel.size]
        A = sp.csr_matrix((np.add.reduceat(values, starts), (ukeys // n, ukeys % n)), shape=(n, n))
        A.sort_indices()
        out.append(A)
    return out


def _mass_template(q: int) -> np.ndarray:
    """Exact P1 mass matrix of a q-vertex simplex of unit measure."""
    return (np.ones((q, q)) + np.eye(q)) / (q * (q + 1))


def _mass_kernel(dim: int, h: float) -> np.ndarray:
    """Mass matrix of a dim-simplex of the lattice (measure h^dim/dim!), one shape."""
    return (_mass_template(dim + 1) * (h**dim / math.factorial(dim)))[None]


def _stiffness_kernel(dim: int, h: float) -> np.ndarray:
    """Stiffness matrices of the dim! Kuhn shapes with spacing h.

    The edge matrix of a Kuhn shape is an integer matrix of determinant 1, so
    its inverse, and with it every gradient, is exact.  Gradients scale with
    1/h and volumes with h^dim, so K scales with h^(dim-2).
    """
    shapes = _kuhn_simplices(dim).astype(float)
    grads = np.empty_like(shapes)
    grads[:, 1:, :] = np.transpose(np.linalg.inv(shapes[:, 1:] - shapes[:, :1]), (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    scale = h ** (dim - 2) / math.factorial(dim)
    return scale * np.einsum("sid,sjd->sij", grads, grads)


def _face_simplices(widths, axis: int, side: int) -> np.ndarray:
    """Facets on side 0 (lo) or 1 (hi) of axis: the Kuhn simplices of that box face."""
    strides = np.cumprod((1,) + tuple(w + 1 for w in widths[:-1]))
    keep = [a for a in range(len(widths)) if a != axis]
    facets = _lattice_simplices([widths[a] for a in keep], strides[keep])
    return facets + side * widths[axis] * strides[axis]


def _box_matrices(widths, h: float, physical) -> tuple:
    """K, M, B_phys and B_intf of a box of widths cells with spacing h.

    physical holds per axis whether the (lo, hi) sides lie on the physical
    boundary; B_phys is the boundary mass of those sides and B_intf that of
    the others.  Vertices are numbered in the box with x fastest.
    """
    d = len(widths)
    n = math.prod(w + 1 for w in widths)
    K, M = _scatter(_lattice_simplices(widths), n, _stiffness_kernel(d, h), _mass_kernel(d, h))
    facets = {True: [], False: []}
    for axis, sides in enumerate(physical):
        for side, is_physical in enumerate(sides):
            facets[bool(is_physical)].append(_face_simplices(widths, axis, side))
    face_mass = _mass_kernel(d - 1, h)
    B_phys, B_intf = (
        _scatter(np.concatenate(facets[flag]), n, face_mass)[0] if facets[flag]
        else sp.csr_matrix((n, n))
        for flag in (True, False)
    )
    return K, M, B_phys, B_intf


def _global_box(mesh: SimplicialMesh):
    """K, M, B and the (empty) interface mass of the whole mesh."""
    m = mesh.intervals_per_edge
    return _box_matrices((m,) * mesh.dim, 1.0 / m, ((True, True),) * mesh.dim)


def _volume_part(K, M, params: HelmholtzParams) -> sp.csr_matrix:
    return K.astype(np.complex128) + (-(params.k**2) - 1j * params.epsilon) * M


def assemble_global(mesh: SimplicialMesh, params: HelmholtzParams, *, with_mass: bool = False):
    """Assemble K - (k^2 + i*eps) M - i*eta B on the whole mesh (complex CSR).

    The operator is complex symmetric (A == A.T entrywise) but not Hermitian.
    With with_mass, returns (A, M): the mass matrix of the same pass, from
    which a shifted operator A - i*eps'*M is derived without a second sort.
    """
    K, M, B, _ = _global_box(mesh)
    A = _volume_part(K, M, params)
    kept = M if with_mass else None
    del K, M  # freed before the last sum allocates A, which keeps peak memory down
    A = A + (-1j * params.eta) * B
    A.sort_indices()
    return (A, kept) if with_mass else A


def _gauss2d(points: np.ndarray) -> np.ndarray:
    r2 = (points[:, 0] - 0.5) ** 2 + (points[:, 1] - 0.5) ** 2
    return -np.exp(-100.0 * r2)


def _gauss3d(points: np.ndarray) -> np.ndarray:
    r2 = ((points - 0.5) ** 2).sum(axis=1)
    return -np.exp(-400.0 * r2)


_NAMED_SOURCES = {"gauss2d": (2, _gauss2d), "gauss3d": (3, _gauss3d)}


def assemble_rhs(mesh: SimplicialMesh, source) -> np.ndarray:
    """Load vector (f)_v = f(x_v) * lumped_weight(v); deterministic vertex quadrature.

    The lumped weight of a vertex is its row sum of the mass matrix: the
    number of simplices that contain it times h^d / (d! (d+1)).

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
    d, h = mesh.dim, 1.0 / mesh.intervals_per_edge
    incidence = np.bincount(mesh.simplices.ravel(), minlength=mesh.n_vertices)
    return values * (incidence * (h**d / (math.factorial(d) * (d + 1))))


def assemble_subdomain(mesh: SimplicialMesh, subdomain, params: HelmholtzParams) -> SubdomainMatrices:
    """Assemble the local Robin, Neumann-type and interface-mass matrices.

    Only the subdomain's cell box (cell_lo, cell_hi) is read: a side is
    physical where it lies on the domain boundary, and the box numbers its
    vertices with x fastest, which is the order of subdomain.dofs.  Translated
    boxes therefore get bitwise the same matrices (see congruence_classes).
    """
    m = mesh.intervals_per_edge
    box = list(zip(subdomain.cell_lo, subdomain.cell_hi))
    K, M, B_phys, B_intf = _box_matrices(
        [hi - lo for lo, hi in box], 1.0 / m, [(lo == 0, hi == m) for lo, hi in box]
    )
    A_neu = _volume_part(K, M, params) + (-1j * params.eta) * B_phys
    A_local = A_neu + (-1j * params.eta) * B_intf
    A_local.sort_indices()
    A_neu.sort_indices()
    return SubdomainMatrices(A_local=A_local, A_neu=A_neu, M_interface=B_intf)
