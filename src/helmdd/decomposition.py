"""Overlapping box decompositions, restriction operators and partitions of unity.

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
    "restrict",
    "prolongate_weighted",
]


@dataclass(frozen=True, eq=False)
class Subdomain:
    """One overlapping box of cells: its global dofs and dof classification.

    interior/interface/physical_boundary are local indices into dofs and
    partition it; interface dofs lie on the subdomain boundary but not on the
    physical boundary.  pou holds the partition-of-unity diagonal D_j aligned
    with dofs.
    """

    index: int
    cell_lo: tuple
    cell_hi: tuple
    dofs: np.ndarray
    interior_dofs: np.ndarray
    interface_dofs: np.ndarray
    physical_boundary_dofs: np.ndarray
    pou: np.ndarray

    @property
    def n_dofs(self) -> int:
        return len(self.dofs)


@dataclass(frozen=True, eq=False)
class Decomposition:
    mesh: SimplicialMesh
    n_subdomains_1d: int
    overlap_layers: int
    pou_kind: str
    subdomains: list
    multiplicity: np.ndarray

    @property
    def n_subdomains(self) -> int:
        return len(self.subdomains)


def _box_ranges(m: int, n1d: int, box: tuple, overlap: int):
    base = m // n1d
    lo = tuple(max(0, b * base - overlap) for b in box)
    hi = tuple(min(m, (b + 1) * base + overlap) for b in box)
    return lo, hi


def build_decomposition(
    mesh: SimplicialMesh,
    n_subdomains_1d: int,
    overlap_layers: int = 2,
    pou: str = "multiplicity",
) -> Decomposition:
    """Regular overlapping decomposition into n_subdomains_1d^dim boxes.

    pou selects the partition-of-unity weights: "multiplicity" (1/#covering
    subdomains, the default) or "ramp" (linear distance-to-interface weights,
    normalized so the algebraic identity still holds exactly).
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
    if pou not in ("multiplicity", "ramp"):
        raise ValueError(f"unknown partition-of-unity kind {pou!r}")

    boxes = []
    for combo in product(range(n1d), repeat=d):
        box = combo[::-1]  # x fastest
        boxes.append(box)

    raw = []
    for index, box in enumerate(boxes):
        lo, hi = _box_ranges(m, n1d, box, overlap_layers)
        dofs = _lattice_points(lo, [b + 1 for b in hi], (m + 1) ** np.arange(d))  # ascending
        raw.append((index, lo, hi, dofs))

    multiplicity = np.zeros(mesh.n_vertices, dtype=np.int64)
    for _, _, _, dofs in raw:
        multiplicity[dofs] += 1
    assert multiplicity.min() >= 1  # covering is guaranteed by construction

    if pou == "ramp":
        raw_weights = []
        total = np.zeros(mesh.n_vertices)
        for _, lo, hi, dofs in raw:
            coords = mesh.grid_coordinates(dofs)
            dist = np.full(len(dofs), float(m + 1))
            for axis in range(d):
                if lo[axis] > 0:
                    dist = np.minimum(dist, coords[:, axis] - lo[axis])
                if hi[axis] < m:
                    dist = np.minimum(dist, hi[axis] - coords[:, axis])
            raw_weights.append(dist)
            total[dofs] += dist
        # dofs covered only at interface distance 0 cannot occur for overlap >= 1
        assert (total[np.concatenate([r[3] for r in raw])] > 0).all()

    subdomains = []
    for slot, (index, lo, hi, dofs) in enumerate(raw):
        coords = mesh.grid_coordinates(dofs)
        on_box = np.zeros(len(dofs), dtype=bool)
        on_physical = np.zeros(len(dofs), dtype=bool)
        for axis in range(d):
            on_box |= (coords[:, axis] == lo[axis]) | (coords[:, axis] == hi[axis])
            on_physical |= (coords[:, axis] == 0) | (coords[:, axis] == m)
        local = np.arange(len(dofs))
        interface = local[on_box & ~on_physical]
        physical = local[on_physical]
        interior = local[~on_box & ~on_physical]
        if pou == "ramp":
            weights = raw_weights[slot] / total[dofs]
        else:
            weights = 1.0 / multiplicity[dofs]
        subdomains.append(
            Subdomain(
                index=index,
                cell_lo=lo,
                cell_hi=hi,
                dofs=dofs,
                interior_dofs=interior,
                interface_dofs=interface,
                physical_boundary_dofs=physical,
                pou=weights,
            )
        )

    return Decomposition(
        mesh=mesh,
        n_subdomains_1d=n1d,
        overlap_layers=overlap_layers,
        pou_kind=pou,
        subdomains=subdomains,
        multiplicity=multiplicity,
    )


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

    Returns (key, members, orders) per orbit, in the order of the orbit's
    lowest subdomain index.  key is the canonical (smallest) image of the
    members' keys.  members[0] is the representative, the lowest-indexed
    member whose own key is the canonical one; the other members follow in
    index order.  orders[i] lists member i's local dofs in the vertex order of
    the representative box, so sub.dofs[orders[i]] are its global dofs in that
    order; it is the identity for the representative and for every member
    with its key, and one array is shared by all members of a key.
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
    out = []
    for canonical, entries in orbits.items():  # entries are in index order
        rep = next(i for i, (_, _, is_canonical) in enumerate(entries) if is_canonical)
        entries.insert(0, entries.pop(rep))
        out.append((canonical, [j for j, _, _ in entries], [order for _, order, _ in entries]))
    return out


def restrict(sub: Subdomain, v: np.ndarray) -> np.ndarray:
    """Gather v at the subdomain's global dofs (R_j v)."""
    v = np.asarray(v)
    if v.shape[0] <= sub.dofs[-1]:
        raise ValueError(f"vector of size {v.shape[0]} too short for subdomain dofs")
    return v[sub.dofs]


def prolongate_weighted(sub: Subdomain, w: np.ndarray, accumulator: np.ndarray) -> np.ndarray:
    """Scatter-add the weighted local vector: accumulator += R_j^T D_j w."""
    w = np.asarray(w)
    if w.shape[0] != sub.n_dofs:
        raise ValueError(f"local vector has size {w.shape[0]}, expected {sub.n_dofs}")
    accumulator[sub.dofs] += sub.pou * w
    return accumulator
