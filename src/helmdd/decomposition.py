"""Overlapping box decompositions and their partition of unity.

Subdomains start from the non-overlapping partition of the cell grid into
N_1d^d equal boxes and grow by overlap_layers cell layers in every direction
(clipped at the domain boundary), so facing subdomains overlap in a strip of
2*overlap_layers cells.  Dof classification is exact lattice arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .mesh import SimplicialMesh, _lattice_points

__all__ = [
    "Subdomain",
    "Decomposition",
    "build_decomposition",
    "congruence_classes",
]


@dataclass(frozen=True, eq=False)
class Subdomain:
    """One overlapping box of cells: its global dofs and interface.

    interface_dofs are local indices into dofs of the dofs that lie on the
    subdomain boundary but not on the physical boundary.  pou holds the
    partition-of-unity diagonal D_j aligned with dofs.
    """

    index: int
    cell_lo: tuple
    cell_hi: tuple
    dofs: np.ndarray
    interface_dofs: np.ndarray
    pou: np.ndarray

    @property
    def n_dofs(self) -> int:
        return len(self.dofs)


@dataclass(frozen=True, eq=False)
class Decomposition:
    mesh: SimplicialMesh
    subdomains: list

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)


def _box_ranges(m: int, n1d: int, box: tuple, overlap: int):
    base = m // n1d
    lo = tuple(max(0, b * base - overlap) for b in box)
    hi = tuple(min(m, (b + 1) * base + overlap) for b in box)
    return lo, hi


def _ramp(coords: np.ndarray, lo: tuple, hi: tuple, m: int) -> np.ndarray:
    """Lattice distance of each point to the box faces that are not on the physical boundary."""
    dist = np.full(len(coords), float(m + 1))
    for axis in range(coords.shape[1]):
        if lo[axis] > 0:
            dist = np.minimum(dist, coords[:, axis] - lo[axis])
        if hi[axis] < m:
            dist = np.minimum(dist, hi[axis] - coords[:, axis])
    return dist


def build_decomposition(
    mesh: SimplicialMesh,
    n_subdomains_1d: int,
    overlap_layers: int = 2,
) -> Decomposition:
    """Regular overlapping decomposition into n_subdomains_1d^dim boxes.

    The partition of unity is the ramp: each box weighs a dof by its lattice
    distance to the box's interface faces, normalized by the sum over the
    boxes that hold the dof, so sum_j R_j^T D_j R_j = I.
    """
    m = mesh.intervals_per_edge
    n1d = n_subdomains_1d
    d = mesh.dim
    if n1d < 1:
        raise ValueError(f"n_subdomains_1d must be >= 1, got {n1d}")
    if m % n1d != 0:
        raise ValueError(f"mesh intervals ({m}) must be divisible by n_subdomains_1d ({n1d})")
    if overlap_layers < 1:
        raise ValueError(f"overlap_layers must be >= 1, got {overlap_layers}")

    boxes = [combo[::-1] for combo in product(range(n1d), repeat=d)]  # x fastest
    ranges = [_box_ranges(m, n1d, box, overlap_layers) for box in boxes]
    strides = (m + 1) ** np.arange(d)
    dofs = [_lattice_points(lo, [h + 1 for h in hi], strides) for lo, hi in ranges]  # ascending

    ramps = [_ramp(mesh.grid_coordinates(ids), lo, hi, m) for (lo, hi), ids in zip(ranges, dofs)]
    total = np.zeros(mesh.n_vertices)
    for ids, ramp in zip(dofs, ramps):
        total[ids] += ramp
    # the boxes cover every dof, and none only at interface distance 0 for overlap >= 1
    assert (total > 0).all()
    weights = [ramp / total[ids] for ids, ramp in zip(dofs, ramps)]

    subdomains = []
    for index, ((lo, hi), ids, pou_weights) in enumerate(zip(ranges, dofs, weights)):
        coords = mesh.grid_coordinates(ids)
        on_box = ((coords == lo) | (coords == hi)).any(axis=1)
        on_physical = ((coords == 0) | (coords == m)).any(axis=1)
        interface = np.flatnonzero(on_box & ~on_physical)
        subdomains.append(Subdomain(index=index, cell_lo=lo, cell_hi=hi, dofs=ids,
                                    interface_dofs=interface, pou=pou_weights))
    return Decomposition(mesh=mesh, subdomains=subdomains)


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


def congruence_classes(dec: Decomposition, *, sides: bool = True) -> list:
    """Group the subdomains into orbits of one box under the lattice symmetries.

    A box's translation key holds, per axis, whether it touches the lo side
    and the hi side of the domain and its extent in cells; assemble_subdomain
    reads nothing else.  The Kuhn lattice is mapped onto itself by the dim!
    axis permutations and by the point reflection x -> 1 - x (which swaps the
    lo and hi sides of every axis), so boxes whose keys are images of one
    another under this group of order 2*dim! have the same local matrices up
    to a renumbering of their vertices.  There are 4 orbits in 2d and 6 in 3d
    when every box is at least overlap_layers cells wide and N_1d >= 3.

    With sides=False the key holds the widths alone, (width,) per axis, and
    the boxes are grouped by their widths up to an axis permutation: A_local,
    which carries the Robin term on the whole box boundary, reads nothing
    else.  There are 3 such classes in 2d and 4 in 3d when N_1d >= 3.

    Returns (key, members, dofs, pou) per orbit, in the order of the orbit's
    lowest subdomain index.  key is the canonical (smallest) image of the
    members' keys.  members[0] is the representative, the lowest-indexed
    member whose own key is the canonical one; the other members follow in
    index order.  Row i of the (members, n_local) arrays dofs and pou holds
    member i's global dofs and partition-of-unity weights in the vertex order
    of the representative box; for the representative, and for every member
    with its key, that is the member's own (ascending) order.
    """
    m = dec.mesh.intervals_per_edge
    flips = (False, True) if sides else (False,)  # the reflection fixes a width key
    symmetries = [(p, flip) for flip in flips for p in permutations(range(dec.mesh.dim))]
    by_key: dict = {}  # key -> (canonical key, vertex order)
    orbits: dict = {}
    for sub in dec.subdomains:
        box = zip(sub.cell_lo, sub.cell_hi)
        key = tuple((lo == 0, hi == m, hi - lo) if sides else (hi - lo,) for lo, hi in box)
        if key not in by_key:
            images = [
                tuple((axis[1], axis[0], axis[2]) if flip else axis for axis in (key[a] for a in p))
                for p, flip in symmetries
            ]
            canonical = min(images)
            p, flip = symmetries[images.index(canonical)]  # the identity when key is canonical
            by_key[key] = canonical, _vertex_order([axis[-1] for axis in key], p, flip)
        canonical, order = by_key[key]
        orbits.setdefault(canonical, []).append((sub.index, order, key == canonical))
    subs = dec.subdomains
    out = []
    for canonical, entries in orbits.items():  # entries are in index order
        rep = next(i for i, (_, _, is_canonical) in enumerate(entries) if is_canonical)
        entries.insert(0, entries.pop(rep))
        dofs = np.stack([subs[j].dofs[order] for j, order, _ in entries])
        pou = np.stack([subs[j].pou[order] for j, order, _ in entries])
        out.append((canonical, [j for j, _, _ in entries], dofs, pou))
    return out

