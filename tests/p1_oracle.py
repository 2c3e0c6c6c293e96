"""Reference P1 assembly on explicit element geometry, for checking the lattice kernel.

Every simplex gets its own float det and inverse, boundary facets are the
faces that belong to one simplex only, and a facet is physical when all its
vertices share the coordinate 0 or m on some axis.  stencil_box and
global_box give the same four matrices from the library's stencil kernel,
which assembly itself only returns combined into Helmholtz operators.
"""

import math

import numpy as np
import scipy.sparse as sp

from helmdd.assembly import _boundary, _csr, _faces, _volume
from helmdd.mesh import _kuhn_simplices, _lattice_points


def simplices(mesh):
    """(d! m^d, d+1) vertex ids of the Kuhn simplices, positively oriented.

    Vertices and cells are numbered with x fastest, and cell c owns the d!
    simplices d!*c .. d!*c + d! - 1.
    """
    d, m = mesh.dim, mesh.intervals_per_edge
    strides = (m + 1) ** np.arange(d)
    corners = _lattice_points((0,) * d, (m,) * d, strides)
    return (corners[:, None, None] + (_kuhn_simplices(d) @ strides)[None]).reshape(-1, d + 1)


def volumes_and_gradients(vertices, simplices):
    pts = vertices[simplices]
    edges = pts[:, 1:, :] - pts[:, :1, :]
    vol = np.linalg.det(edges) / math.factorial(vertices.shape[1])
    assert (vol > 0).all(), "degenerate or negatively oriented simplex"
    grads = np.empty(pts.shape)
    grads[:, 1:, :] = np.transpose(np.linalg.inv(edges), (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:, :].sum(axis=1)
    return vol, grads


def _scatter(cells, element_matrices, n):
    rows = np.repeat(cells, cells.shape[1], axis=1).ravel()
    cols = np.tile(cells, (1, cells.shape[1])).ravel()
    return sp.csr_matrix((element_matrices.ravel(), (rows, cols)), shape=(n, n))


def boundary_facets(simplices):
    faces = np.concatenate([np.delete(simplices, i, axis=1) for i in range(simplices.shape[1])])
    faces = np.sort(faces, axis=1)
    unique, counts = np.unique(faces, axis=0, return_counts=True)
    return unique[counts == 1]


def _mass(vol, q):
    return vol[:, None, None] * (np.ones((q, q)) + np.eye(q)) / (q * (q + 1))


def facet_mass(vertices, facets, n):
    pts = vertices[facets]
    spans = pts[:, 1:, :] - pts[:, :1, :]
    gram = spans @ np.transpose(spans, (0, 2, 1))
    meas = np.sqrt(np.linalg.det(gram)) / math.factorial(spans.shape[1])
    return _scatter(facets, _mass(meas, facets.shape[1]), n)


def box_matrices(mesh, lo, hi):
    """K, M, B_phys and B_intf of the cells in [lo, hi], in the box's ascending vertex order."""
    coords = mesh.grid_coordinates()
    inside = ((coords >= lo) & (coords <= hi)).all(axis=1)
    dofs = np.flatnonzero(inside)
    cells = simplices(mesh)
    local = np.searchsorted(dofs, cells[inside[cells].all(axis=1)])
    vertices, n = mesh.vertices[dofs], len(dofs)
    vol, grads = volumes_and_gradients(vertices, local)
    K = _scatter(local, np.einsum("e,eid,ejd->eij", vol, grads, grads), n)
    M = _scatter(local, _mass(vol, mesh.dim + 1), n)
    facets = boundary_facets(local)
    fc = coords[dofs][facets]
    physical = ((fc == 0).all(axis=1) | (fc == mesh.intervals_per_edge).all(axis=1)).any(axis=1)
    B_phys, B_intf = (facet_mass(vertices, facets[mask], n) for mask in (physical, ~physical))
    return K, M, B_phys, B_intf


def stencil_box(widths, h, physical):
    """K, M, B_phys and B_intf of a box of widths cells with spacing h, from the stencil kernel.

    physical holds per axis whether the (lo, hi) sides lie on the physical
    boundary; B_phys is the boundary mass of those sides and B_intf that of
    the others.  Vertices are numbered in the box with x fastest.
    """
    K, M, pattern = _volume(widths, h)
    B_phys, B_intf = (_boundary(widths, h, _faces(physical, flag)) for flag in (True, False))
    return (
        _csr(K, pattern, widths),
        _csr(M, pattern, widths),
        _csr(B_phys, B_phys > 0, widths),
        _csr(B_intf, B_intf > 0, widths),
    )


def global_box(mesh):
    """K, M, B and the (empty) interface mass of the whole mesh, from the stencil kernel."""
    m = mesh.intervals_per_edge
    return stencil_box((m,) * mesh.dim, 1.0 / m, ((True, True),) * mesh.dim)
