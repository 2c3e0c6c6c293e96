"""P1 finite-element assembly for the Helmholtz bilinear form with absorption.

The assembled operator is  K - (k^2 + i*eps) M - i k B  where K is the
stiffness matrix, M the domain mass matrix and B the boundary mass matrix of
the Robin term, whose coefficient is k on every boundary, physical or local.
The mesh is a lattice, so one kernel builds every operator: the P1 matrices
of a box of cells with spacing h, as a stencil.  Every Kuhn edge joins a
vertex r to r + delta with delta in {0,1}^d or -{0,1}^d, so a row holds at
most 7 (2d) or 15 (3d) entries, at fixed vertex-id offsets.  The value at
each offset is summed from the element matrices of the d! Kuhn shapes of the
unit cell (for B, of the (d-1)-dimensional Kuhn simplices of the box faces)
by slice-adds over the box's vertex grid, and CSR is emitted offset by
offset: rows come out sorted, with no sort, and every matrix is bitwise
symmetric because its delta < 0 half mirrors the delta >= 0 half.
Element integrals are exact for P1, so K, M and B carry no quadrature error;
only the right-hand side uses (vertex-lumped) quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp

from .mesh import SimplicialMesh, _kuhn_simplices

__all__ = [
    "HelmholtzParams",
    "SubdomainMatrices",
    "assemble_global",
    "assemble_rhs",
    "assemble_subdomain",
]


@dataclass(frozen=True)
class HelmholtzParams:
    """Wavenumber k, which is also the Robin coefficient, and absorption shift epsilon."""

    k: float
    epsilon: float = 0.0

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"wavenumber must be positive, got {self.k}")


@dataclass(frozen=True)
class SubdomainMatrices:
    """Local matrices of one box, all in the box's vertex numbering.

    A_local carries the Robin term on the whole subdomain boundary (the ORAS
    local problem); A_neu carries it only on the physical-boundary part, so its
    interface block is of Neumann type; M_interface is the mass matrix of the
    interface facets (real symmetric, positive definite on the interface dofs).
    """

    A_local: sp.csr_matrix
    A_neu: sp.csr_matrix
    M_interface: sp.csr_matrix


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


def _offsets(widths) -> tuple:
    """The Kuhn edge directions of a box and their vertex-id offsets, ascending.

    A Kuhn simplex is a chain of cell corners, so each of its edges runs along
    some delta in {0,1}^d or in -{0,1}^d.  The 2^(d+1) - 1 offsets (7 in 2d,
    15 in 3d) are distinct, and offsets[-1 - c] == -offsets[c].
    """
    strides = np.cumprod((1,) + tuple(w + 1 for w in widths[:-1]))
    deltas = sorted(
        (c for c in product((-1, 0, 1), repeat=len(widths)) if min(c) >= 0 or max(c) <= 0),
        key=lambda c: int(np.dot(c, strides)),
    )
    return deltas, np.array(deltas) @ strides


def _half_stencil(kernel: np.ndarray) -> dict:
    """Entries (i, j) of the Kuhn element matrices with o_j - o_i >= 0, summed by (o_j - o_i, o_i).

    kernel holds one element matrix per Kuhn shape of the q-dimensional unit
    cell, or one for all shapes; o_i is the 0/1 cell corner of vertex i.
    """
    q = kernel.shape[-1] - 1
    sums: dict = {}
    for s, shape in enumerate(_kuhn_simplices(q)):
        for i, j in product(range(q + 1), repeat=2):
            delta = shape[j] - shape[i]
            if delta.min() >= 0:
                key = tuple(delta), tuple(shape[i])
                sums[key] = sums.get(key, 0.0) + kernel[s % len(kernel), i, j]
    return sums


def _stencil(widths, kernel: np.ndarray, faces=None) -> np.ndarray:
    """Values of the box operator of kernel, one row per offset of _offsets(widths).

    values[c, r] is the matrix entry (r, r + offsets[c]); it is 0 where no
    simplex holds both vertices.  Without faces, kernel holds the element
    matrices of the d-dimensional Kuhn shapes and covers every cell; with
    faces, it is the facet matrix and covers the (d-1)-dimensional Kuhn
    simplices of the box faces (axis, side), in the given order.  Each (delta,
    corner) sum of _half_stencil is slice-added over the cells of the box (or
    face) for delta >= 0, and the delta < 0 rows are the mirror image,
    entry (r + delta, r) = entry (r, r + delta), so the matrix is bitwise
    symmetric whatever the summation order.
    """
    d = len(widths)
    deltas, offsets = _offsets(widths)
    column = {delta: c for c, delta in enumerate(deltas)}
    grid = tuple(w + 1 for w in reversed(widths))  # x fastest: lattice axis a is array axis d-1-a
    values = np.zeros((len(offsets), math.prod(grid)))
    lattice = values.reshape((len(offsets),) + grid)
    if faces is None:
        spans = [(range(d), {})]
    else:  # a face spans the other axes at a fixed coordinate along its own
        spans = [
            ([b for b in range(d) if b != axis], {axis: side * widths[axis]})
            for axis, side in faces
        ]
    sums = _half_stencil(kernel)
    for axes, fixed in spans:
        for (delta_q, corner_q), value in sums.items():
            delta, where = [0] * d, [fixed.get(a) for a in range(d)]
            for a, step, o in zip(axes, delta_q, corner_q):
                delta[a], where[a] = step, slice(o, o + widths[a])
            lattice[column[tuple(delta)]][tuple(where[::-1])] += value
    n = values.shape[1]
    for c, offset in enumerate(offsets[: len(offsets) // 2]):  # offset < 0
        values[c, -offset:] = values[-1 - c, : n + offset]
    return values


def _csr(values: np.ndarray, mask: np.ndarray, widths) -> sp.csr_matrix:
    """The matrix with entry (r, r + offsets[c]) = values[c, r] wherever mask[c, r].

    A row's columns ascend with c, so every row comes out sorted.
    """
    offsets = _offsets(widths)[1]
    n = values.shape[1]
    keep = mask.T
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    indices = (np.arange(n)[:, None] + offsets)[keep]
    return sp.csr_matrix((values.T[keep], indices, indptr), shape=(n, n))


def _volume(widths, h: float) -> tuple:
    """Stencil values of K and M of a box, and their pattern.

    Mass entries are sums of positive terms, so M > 0 is exactly the set of
    vertex pairs that some simplex holds.
    """
    d = len(widths)
    M = _stencil(widths, _mass_kernel(d, h))
    return _stencil(widths, _stiffness_kernel(d, h)), M, M > 0


def _boundary(widths, h: float, faces) -> np.ndarray:
    """Stencil values of the boundary mass of the given box faces (axis, side)."""
    return _stencil(widths, _mass_kernel(len(widths) - 1, h), faces)


def _faces(physical, flag: bool | None = None) -> list:
    """The faces (axis, side) whose physical flag is flag, or every face when flag is None."""
    return [
        (axis, side)
        for axis, sides in enumerate(physical)
        for side, is_physical in enumerate(sides)
        if flag is None or bool(is_physical) == flag
    ]


def _volume_part(K, M, params: HelmholtzParams) -> np.ndarray:
    return K + (-(params.k**2) - 1j * params.epsilon) * M


def assemble_global(mesh: SimplicialMesh, params: HelmholtzParams, *, with_mass: bool = False):
    """Assemble K - (k^2 + i*eps) M - i k B on the whole mesh (complex CSR).

    The operator is complex symmetric (A == A.T entrywise) but not Hermitian.
    With with_mass, returns (A, M): the mass matrix of the same pass, from
    which a shifted operator A - i*eps'*M is derived.
    """
    m = mesh.intervals_per_edge
    widths, h = (m,) * mesh.dim, 1.0 / m
    K, M, pattern = _volume(widths, h)
    A = _volume_part(K, M, params)
    del K  # freed before the boundary term allocates, which keeps peak memory down
    A += (-1j * params.k) * _boundary(widths, h, _faces(((True, True),) * mesh.dim))
    A = _csr(A, pattern, widths)
    return (A, _csr(M, pattern, widths)) if with_mass else A


def assemble_rhs(mesh: SimplicialMesh) -> np.ndarray:
    """Load vector of the source -exp(-a |x - c|^2) centred at c = (0.5, ...),
    a = 100 in 2d and 400 in 3d: (f)_v = f(x_v) * lumped_weight(v).

    The lumped weight of a vertex is its row sum of the mass matrix: the
    number of simplices that contain it times h^d / (d! (d+1)).
    """
    d, m = mesh.dim, mesh.intervals_per_edge
    r2 = ((mesh.vertices - 0.5) ** 2).sum(axis=1)
    values = (-np.exp(-(100.0 if d == 2 else 400.0) * r2)).astype(np.complex128)
    return values * (_incidence(d, m) * ((1.0 / m) ** d / (math.factorial(d) * (d + 1))))


def _incidence(dim: int, m: int) -> np.ndarray:
    """Number of simplices of the mesh at each vertex, in exact integers.

    A cell corner o in {0,1}^dim lies on the |o|! (dim - |o|)! Kuhn simplices
    of the cell whose chain passes through it, so vertex v counts that over
    the corners o for which v - o is a cell.
    """
    counts = np.zeros((m + 1,) * dim, dtype=np.int64)
    for corner in product((0, 1), repeat=dim):
        ones = sum(corner)
        counts[tuple(slice(o, o + m) for o in corner)] += (
            math.factorial(ones) * math.factorial(dim - ones)
        )
    return counts.ravel()


def assemble_subdomain(mesh: SimplicialMesh, box, params: HelmholtzParams) -> SubdomainMatrices:
    """Assemble the local Robin, Neumann-type and interface-mass matrices of a box.

    Only box.cell_lo and box.cell_hi are read (a BoxClass holds them): a side
    is physical where it lies on the domain boundary, and the box numbers its
    vertices with x fastest, the order of a row of the class's dofs.  A_local
    is the volume part minus i k times the mass of the whole box boundary,
    so boxes of equal widths get bitwise the same A_local, and translated
    boxes bitwise the same matrices (see congruence_classes).
    """
    m = mesh.intervals_per_edge
    extents = list(zip(box.cell_lo, box.cell_hi))
    widths, h = [hi - lo for lo, hi in extents], 1.0 / m
    physical = [(lo == 0, hi == m) for lo, hi in extents]
    K, M, pattern = _volume(widths, h)
    volume = _volume_part(K, M, params)
    robin = -1j * params.k
    A_local = volume + robin * _boundary(widths, h, _faces(physical))
    A_neu = volume + robin * _boundary(widths, h, _faces(physical, True))
    B_intf = _boundary(widths, h, _faces(physical, False))
    return SubdomainMatrices(
        A_local=_csr(A_local, pattern, widths),
        A_neu=_csr(A_neu, pattern, widths),
        M_interface=_csr(B_intf, B_intf > 0, widths),
    )
