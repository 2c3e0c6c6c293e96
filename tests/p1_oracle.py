"""Reference P1 assembly on explicit element geometry, for checking the lattice kernel.

Every simplex gets its own float det and inverse, boundary facets are the
faces that belong to one simplex only, and a facet is physical when all its
vertices share the coordinate 0 or m on some axis.  stencil_box and
global_box give the same four matrices from the library's stencil kernel,
which assembly itself only returns combined into Helmholtz operators.

subdomains builds the decomposition one box at a time, and orbits groups
those boxes one at a time, for checking the per-class records of
helmdd.decomposition.
"""

import math
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from helmdd.assembly import _boundary, _csr, _faces, _volume
from helmdd.decomposition import _vertex_order
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


def subdomains(mesh, n1d, overlap):
    """The N_1d^d boxes of the decomposition, one record per box, x fastest.

    Each box gets its own dofs (ascending), its own ramp from its global
    coordinates, normalized by the sum of every box's ramp, and its interface
    dofs: local indices of the dofs on the box boundary but off the physical
    boundary.
    """
    d, m = mesh.dim, mesh.intervals_per_edge
    base = m // n1d
    strides = (m + 1) ** np.arange(d)
    boxes = []
    total = np.zeros(mesh.n_vertices)
    for index, combo in enumerate(product(range(n1d), repeat=d)):
        box = combo[::-1]
        lo = tuple(max(0, b * base - overlap) for b in box)
        hi = tuple(min(m, (b + 1) * base + overlap) for b in box)
        dofs = _lattice_points(lo, [h + 1 for h in hi], strides)
        coords = mesh.grid_coordinates(dofs)
        ramp = np.full(len(dofs), float(m + 1))  # distance to the faces inside the domain
        for axis in range(d):
            for side in (lo[axis], hi[axis]):
                if 0 < side < m:
                    ramp = np.minimum(ramp, np.abs(coords[:, axis] - side))
        total[dofs] += ramp
        on_box = ((coords == lo) | (coords == hi)).any(axis=1)
        on_physical = ((coords == 0) | (coords == m)).any(axis=1)
        interface = np.flatnonzero(on_box & ~on_physical)
        boxes.append(SimpleNamespace(index=index, cell_lo=lo, cell_hi=hi, dofs=dofs,
                                     interface_dofs=interface, ramp=ramp))
    for sub in boxes:
        sub.pou = sub.ramp / total[sub.dofs]
    return boxes


def orbits(mesh, subs, sides=True):
    """The boxes grouped under the lattice symmetries, one box at a time.

    Per orbit, in the order of its lowest box: its canonical key, its members
    (the lowest box whose own key is canonical first, then the others in
    index order), and per member its dofs and weights in the vertex order of
    the representative.
    """
    m = mesh.intervals_per_edge
    flips = (False, True) if sides else (False,)
    symmetries = [(p, flip) for flip in flips for p in permutations(range(mesh.dim))]
    groups = {}
    for sub in subs:
        box = zip(sub.cell_lo, sub.cell_hi)
        key = tuple((lo == 0, hi == m, hi - lo) if sides else (hi - lo,) for lo, hi in box)
        images = [
            tuple((axis[1], axis[0], axis[2]) if flip else axis for axis in (key[a] for a in p))
            for p, flip in symmetries
        ]
        canonical = min(images)
        p, flip = symmetries[images.index(canonical)]
        order = _vertex_order([axis[-1] for axis in key], p, flip)
        groups.setdefault(canonical, []).append((sub, order, key == canonical))
    out = []
    for canonical, entries in groups.items():
        rep = next(i for i, (_, _, is_canonical) in enumerate(entries) if is_canonical)
        entries.insert(0, entries.pop(rep))
        out.append(SimpleNamespace(
            key=canonical,
            rep=entries[0][0],
            members=[sub.index for sub, _, _ in entries],
            dofs=np.stack([sub.dofs[order] for sub, order, _ in entries]),
            pou=np.stack([sub.pou[order] for sub, order, _ in entries]),
        ))
    return out
