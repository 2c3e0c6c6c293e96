"""Overlapping box decompositions and their partition of unity.

Subdomains start from the non-overlapping partition of the cell grid into
N_1d^d equal boxes and grow by overlap_layers cell layers in every direction
(clipped at the domain boundary), so facing subdomains overlap in a strip of
2*overlap_layers cells.  Box j = sum_a b_a N_1d^a (x fastest) is the product
of one one-dimensional box b_a per axis.  Everything a box carries in its own
vertex numbering (its dofs relative to its origin, its ramp and its
interface) depends only on its translation key, per axis (touches lo,
touches hi, width), so the decomposition is built and kept per translation
class, never per box.  Dof classification is exact lattice arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .mesh import SimplicialMesh, _lattice_points

__all__ = [
    "BoxClass",
    "Decomposition",
    "build_decomposition",
    "congruence_classes",
    "nested_dissection",
]

# The nested-dissection order lists a box of at most this many vertices per
# axis as one leaf.
ND_LEAF = 4


@dataclass(frozen=True, eq=False)
class BoxClass:
    """Boxes that share one local numbering: a translation class or an orbit.

    members holds the subdomain indices, the representative first.  Row i of
    the (members, n_local) arrays dofs and pou holds member i's global dofs
    and partition-of-unity weights D_j in the vertex order of the
    representative's box, cells cell_lo to cell_hi, x fastest (or in the
    numbering given to congruence_classes).  interface holds the local
    indices of the representative's dofs that lie on its box boundary but not
    on the physical boundary.
    """

    key: tuple
    cell_lo: tuple
    cell_hi: tuple
    members: np.ndarray
    dofs: np.ndarray
    pou: np.ndarray
    interface: np.ndarray


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The boxes' translation classes, in the order of their lowest member."""

    mesh: SimplicialMesh
    n_subdomains_1d: int
    classes: list

    @property
    def n_subdomains(self) -> int:
        return self.n_subdomains_1d**self.mesh.dim


def _outer_sum(terms) -> np.ndarray:
    """terms[0][i_0] + terms[1][i_1] + ... over every index tuple, x fastest."""
    return sum(np.ix_(*terms[::-1])).ravel()


def build_decomposition(
    mesh: SimplicialMesh,
    n_subdomains_1d: int,
    overlap_layers: int = 2,
) -> Decomposition:
    """Regular overlapping decomposition into n_subdomains_1d^dim boxes.

    The partition of unity is the ramp: each box weighs a dof by its lattice
    distance to the box's interface faces, normalized by the sum over the
    boxes that hold the dof, so sum_j R_j^T D_j R_j = I.  The ramps are small
    integers, so their sums are exact in any order.
    """
    m, n1d, d = mesh.intervals_per_edge, n_subdomains_1d, mesh.dim
    if n1d < 1:
        raise ValueError(f"n_subdomains_1d must be >= 1, got {n1d}")
    if m % n1d != 0:
        raise ValueError(f"mesh intervals ({m}) must be divisible by n_subdomains_1d ({n1d})")
    if overlap_layers < 1:
        raise ValueError(f"overlap_layers must be >= 1, got {overlap_layers}")

    base = m // n1d
    axis_classes: dict = {}  # 1-D key -> [(box, lo)], in the order of the first box
    for b in range(n1d):
        lo, hi = max(0, b * base - overlap_layers), min(m, (b + 1) * base + overlap_layers)
        axis_classes.setdefault((lo == 0, hi == m, hi - lo), []).append((b, lo))
    strides = (m + 1) ** np.arange(d)
    classes = []
    total = np.zeros(mesh.n_vertices)
    for combo in product(axis_classes.items(), repeat=d):  # ascending lowest member
        key = tuple(axis_key for axis_key, _ in combo[::-1])
        axes = [np.array(entries) for _, entries in combo[::-1]]  # per axis: (box, lo) rows
        members = _outer_sum([e[:, 0] * n1d**a for a, e in enumerate(axes)])
        origins = _outer_sum([e[:, 1] * strides[a] for a, e in enumerate(axes)])
        lo = tuple(int(e[0, 1]) for e in axes)
        hi = tuple(l + w for l, (*_, w) in zip(lo, key))
        dofs = origins[:, None] + _lattice_points((0,) * d, [w + 1 for *_, w in key], strides)
        coords = mesh.grid_coordinates(dofs[0])
        # lattice distance to the box faces off the physical boundary (m + 1 if none)
        faces = [coords[:, a] - lo[a] for a in range(d) if lo[a] > 0]
        faces += [hi[a] - coords[:, a] for a in range(d) if hi[a] < m]
        ramp = np.min([np.full(len(coords), m + 1.0)] + faces, axis=0)
        ramps = np.tile(ramp, (len(members), 1))  # normalized below, once every box is summed
        total += np.bincount(dofs.ravel(), ramps.ravel(), mesh.n_vertices)
        on_box = ((coords == lo) | (coords == hi)).any(axis=1)
        on_physical = ((coords == 0) | (coords == m)).any(axis=1)
        interface = np.flatnonzero(on_box & ~on_physical)
        classes.append(BoxClass(key, lo, hi, members, dofs, ramps, interface))
    # the boxes cover every dof, and none only at interface distance 0 for overlap >= 1
    assert (total > 0).all()
    for cls in classes:
        cls.pou[...] /= total[cls.dofs]
    return Decomposition(mesh, n1d, classes)


def _vertex_order(widths, perm, flip: bool) -> np.ndarray:
    """Local vertex ids of a box of widths cells, listed in the order of its image.

    The image box has widths[perm[a]] cells along axis a; its vertex c comes
    from the box vertex with coordinate c[a] (or widths[perm[a]] - c[a] when
    flip) along axis perm[a].  Both boxes number their vertices x fastest.
    """
    strides = np.cumprod((1,) + tuple(w + 1 for w in widths[:-1]))
    image = [widths[a] + 1 for a in perm]
    order = _lattice_points((0,) * len(widths), image, strides[list(perm)])
    return order[-1] - order if flip else order


def nested_dissection(points) -> np.ndarray:
    """Local ids of a box of points[a] vertices per axis, x fastest, in nested-dissection order.

    Every Kuhn edge moves each lattice coordinate by at most one, so the
    vertices of a plane x_a = c separate those on its two sides (George, SIAM
    J. Numer. Anal. 10, 1973).  The box is split at the middle plane of its
    longest axis, both halves are ordered the same way and the plane follows
    them; a box of at most ND_LEAF vertices per axis is listed x fastest.
    """
    points = np.asarray(points)
    strides = np.cumprod(np.concatenate([[1], points[:-1]]))
    order = []

    def split(lo, hi):
        a = np.argmax(hi - lo)
        if hi[a] - lo[a] <= ND_LEAF:
            order.append(_lattice_points(lo, hi, strides))
            return
        mid, axis = (lo[a] + hi[a]) // 2, np.arange(len(lo)) == a
        split(lo, np.where(axis, mid, hi))
        split(np.where(axis, mid + 1, lo), hi)
        order.append(_lattice_points(np.where(axis, mid, lo), np.where(axis, mid + 1, hi), strides))

    split(np.zeros_like(points), points)
    return np.concatenate(order)


def congruence_classes(dec: Decomposition, *, sides: bool = True, numbering=None) -> list:
    """Merge the translation classes into orbits of one box under the lattice symmetries.

    A box's translation key holds, per axis, whether it touches the lo side
    and the hi side of the domain and its extent in cells; assemble_subdomain
    reads nothing else.  The Kuhn lattice is mapped onto itself by the dim!
    axis permutations and by the point reflection x -> 1 - x (which swaps the
    lo and hi sides of every axis), so boxes whose keys are images of one
    another under this group of order 2*dim! have the same local matrices up
    to a renumbering of their vertices.  There are 4 orbits in 2d and 6 in 3d
    when the base boxes are wider than the overlap (m / N_1d > overlap_layers)
    and N_1d >= 3.

    With sides=False the key holds the widths alone, (width,) per axis, and
    the boxes are grouped by their widths up to an axis permutation: A_local,
    which carries the Robin term on the whole box boundary, reads nothing
    else.  There are 3 such classes in 2d and 4 in 3d when N_1d >= 3.

    Returns a BoxClass per orbit, in the order of the orbit's lowest member.
    Its key is the canonical (smallest) image of the members' keys.  The
    representative, members[0], is the lowest member whose own key is the
    canonical one; the other members follow in index order.  For the
    representative, and for every member with its key, a row of dofs and pou
    is in the member's own (ascending) order.

    numbering, if given, maps the representative's vertices per axis to an
    order of its local ids (nested_dissection); every row of dofs and pou,
    and interface, then follows that order.  Each translation class's dofs
    and pou are read once, through one fancy index into the orbit's arrays.
    """
    flips = (False, True) if sides else (False,)  # the reflection fixes a width key
    symmetries = [(p, flip) for flip in flips for p in permutations(range(dec.mesh.dim))]
    orbits: dict = {}  # canonical key -> [(translation class, vertex order, own key canonical)]
    for tc in dec.classes:
        key = tc.key if sides else tuple((w,) for *_, w in tc.key)
        images = [
            tuple((axis[1], axis[0], axis[2]) if flip else axis for axis in (key[a] for a in p))
            for p, flip in symmetries
        ]
        canonical = min(images)
        p, flip = symmetries[images.index(canonical)]  # the identity when key is canonical
        order = _vertex_order([axis[-1] for axis in key], p, flip)
        orbits.setdefault(canonical, []).append((tc, order, key == canonical))
    out = []
    for canonical, parts in orbits.items():
        rep = min((tc for tc, _, own in parts if own), key=lambda tc: tc.members[0])
        members = np.concatenate([tc.members for tc, _, _ in parts])
        rank = np.lexsort((members, members != rep.members[0]))  # representative first
        rows = np.empty_like(rank)
        rows[rank] = np.arange(len(rank))  # the orbit row of each concatenated member
        local = np.arange(rep.dofs.shape[1])
        if numbering is not None:
            local = numbering([axis[-1] + 1 for axis in canonical])
        dofs, pou = np.empty((len(rank), len(local)), np.int64), np.empty((len(rank), len(local)))
        first = 0
        for tc, order, _ in parts:
            # column j of tc lands where order[local] lists it: one scatter, no temporary
            at = rows[first:first + len(tc.members), None], np.argsort(order[local])
            dofs[at], pou[at] = tc.dofs, tc.pou
            first += len(tc.members)
        interface = np.sort(np.argsort(local)[rep.interface])
        out.append(
            BoxClass(canonical, rep.cell_lo, rep.cell_hi, members[rank], dofs, pou, interface)
        )
    return out
