import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p1_oracle
from helmdd.decomposition import ND_LEAF, build_decomposition, congruence_classes, nested_dissection
from helmdd.mesh import build_uniform_mesh


def pou_identity_error(mesh, dec):
    # sum_j R_j^T D_j R_j v for v = 1
    acc = np.zeros(mesh.n_vertices, dtype=complex)
    v = np.ones(mesh.n_vertices, dtype=complex)
    for cls in dec.classes:
        np.add.at(acc, cls.dofs, cls.pou * v[cls.dofs])
    return np.abs(acc - v).max()


def boxes(mesh, dec):
    """Per subdomain: (cell_lo, cell_hi, dofs, pou, interface) from its class row.

    A translation class lists every member's dofs in ascending order, so the
    first and the last dof are the box's lowest and highest corner.
    """
    out = {}
    for cls in dec.classes:
        for j, dofs, pou in zip(cls.members, cls.dofs, cls.pou):
            lo, hi = (tuple(int(c) for c in mesh.grid_coordinates(dofs[i])) for i in (0, -1))
            out[int(j)] = lo, hi, dofs, pou, cls.interface
    return out


def test_single_subdomain_is_whole_domain():
    mesh = build_uniform_mesh(2, 4)
    dec = build_decomposition(mesh, 1, 2)
    assert dec.n_subdomains == 1
    (cls,) = dec.classes
    assert cls.dofs.shape == (1, mesh.n_vertices)
    np.testing.assert_array_equal(cls.pou, 1.0)
    assert len(cls.interface) == 0
    assert (cls.cell_lo, cls.cell_hi) == ((0, 0), (4, 4))


def test_two_by_two_box_geometry_and_weights():
    # expected geometry enumerated by hand: base boxes of 4x4 cells grow by 2
    # layers and clip at the boundary, giving 6x6-cell boxes
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    expected_boxes = {
        0: ((0, 0), (6, 6)),
        1: ((2, 0), (8, 6)),
        2: ((0, 2), (6, 8)),
        3: ((2, 2), (8, 8)),
    }
    got = boxes(mesh, dec)
    assert {j: (lo, hi) for j, (lo, hi, *_) in got.items()} == expected_boxes

    # reference multiplicity and ramp from the boxes themselves: the ramp is the
    # lattice distance to the nearest box side inside the domain (0 < side < 8)
    mult = np.zeros(mesh.n_vertices, dtype=int)
    ramp = np.zeros((4, mesh.n_vertices))
    for j, (lo, hi) in expected_boxes.items():
        for iy in range(lo[1], hi[1] + 1):
            for ix in range(lo[0], hi[0] + 1):
                mult[iy * 9 + ix] += 1
                ramp[j, iy * 9 + ix] = min(abs(c - side) for a, c in enumerate((ix, iy))
                                           for side in (lo[a], hi[a]) if 0 < side < 8)
    for j, (_, _, dofs, pou, _) in got.items():
        np.testing.assert_allclose(pou, (ramp[j] / ramp.sum(axis=0))[dofs], rtol=1e-15)

    # dofs in the central overlap band (outside the 4-fold center square) are
    # held by two boxes; on the bottom edge the weights are the two ramps,
    # 3:1 at x = 3 and 1:1 at x = 4
    coords = mesh.grid_coordinates()
    band = (coords[:, 0] >= 2) & (coords[:, 0] <= 6) & (coords[:, 1] < 2)
    assert (mult[band] == 2).all()
    left, right = got[0], got[1]
    for x, weights in ((3, (0.75, 0.25)), (4, (0.5, 0.5))):
        got = [pou[np.searchsorted(dofs, x)] for _, _, dofs, pou, _ in (left, right)]
        assert got == list(weights)


@pytest.mark.parametrize("pou", ["ramp"])
def test_partition_of_unity_identity_exact(pou):
    mesh = build_uniform_mesh(2, 12)
    dec = build_decomposition(mesh, 3, 2)
    assert pou_identity_error(mesh, dec) < 1e-15


def test_partition_of_unity_3d():
    mesh = build_uniform_mesh(3, 6)
    dec = build_decomposition(mesh, 2, 2)
    assert pou_identity_error(mesh, dec) < 1e-15


def test_ramp_weights_vanish_on_interfaces():
    mesh = build_uniform_mesh(2, 12)
    dec = build_decomposition(mesh, 3, 2)
    for cls in dec.classes:
        assert np.all(cls.pou[:, cls.interface] == 0.0)
        assert np.all(cls.pou >= 0.0)


def test_overlap_strip_width():
    mesh = build_uniform_mesh(2, 12)
    for ov in (1, 2):
        dec = build_decomposition(mesh, 3, ov)
        got = boxes(mesh, dec)
        (left_lo, left_hi, *_), (mid_lo, mid_hi, *_) = got[0], got[1]
        strip = min(left_hi[0], mid_hi[0]) - max(left_lo[0], mid_lo[0])
        assert strip == 2 * ov


def multiplicity(mesh, dec):
    dofs = np.concatenate([cls.dofs.ravel() for cls in dec.classes])
    return np.bincount(dofs, minlength=mesh.n_vertices)


def test_interface_dofs_shared_with_neighbours():
    mesh = build_uniform_mesh(2, 12)
    dec = build_decomposition(mesh, 3, 2)
    mult = multiplicity(mesh, dec)
    for cls in dec.classes:
        if len(cls.interface):
            assert (mult[cls.dofs[:, cls.interface]] >= 2).all()


@settings(max_examples=15, deadline=None)
@given(n1d=st.sampled_from([1, 2, 3]), ov=st.integers(1, 2), factor=st.integers(2, 4))
def test_dof_classification_partitions(n1d, ov, factor):
    # every dof is interior, interface or physical; interface_dofs holds exactly
    # the dofs on the box boundary that are off the physical boundary
    m = n1d * factor
    mesh = build_uniform_mesh(2, m)
    dec = build_decomposition(mesh, n1d, ov)
    for lo, hi, dofs, _, interface_dofs in boxes(mesh, dec).values():
        interface = []
        for local, (x, y) in enumerate(mesh.grid_coordinates(dofs)):
            on_box = x in (lo[0], hi[0]) or y in (lo[1], hi[1])
            if on_box and not (x in (0, m) or y in (0, m)):
                interface.append(local)
        np.testing.assert_array_equal(interface_dofs, interface)
    # covering
    assert multiplicity(mesh, dec).min() >= 1


def test_build_decomposition_errors():
    mesh = build_uniform_mesh(2, 8)
    with pytest.raises(ValueError):
        build_decomposition(mesh, 3, 2)  # 8 not divisible by 3
    with pytest.raises(ValueError):
        build_decomposition(mesh, 2, 0)  # overlap must be >= 1
    with pytest.raises(ValueError):
        build_decomposition(mesh, 0, 2)
    tiny = build_uniform_mesh(2, 1)
    with pytest.raises(ValueError):
        build_decomposition(tiny, 2, 1)


@pytest.mark.parametrize(
    "dim,m,n1d,overlap", [(2, 18, 3, 2), (2, 24, 4, 2), (3, 9, 3, 1), (3, 12, 4, 1)]
)
def test_congruence_classes_count(dim, m, n1d, overlap):
    # the 3^dim translation classes fall into 4 (2d) or 6 (3d) orbits of the
    # axis permutations and the point reflection
    mesh = build_uniform_mesh(dim, m)
    dec = build_decomposition(mesh, n1d, overlap)
    subs = p1_oracle.subdomains(mesh, n1d, overlap)
    classes = congruence_classes(dec)
    assert len(classes) == {2: 4, 3: 6}[dim]
    members = sorted(j for cls in classes for j in cls.members)
    assert members == list(range(dec.n_subdomains))
    # the interior orbit holds every box that touches no side of the domain
    (interior,) = [c.members for c in classes if not any(lo or hi for lo, hi, _ in c.key)]
    assert len(interior) == (n1d - 2) ** dim
    for cls in classes:
        rep = subs[cls.members[0]]
        assert (cls.cell_lo, cls.cell_hi) == (rep.cell_lo, rep.cell_hi)
        box = zip(rep.cell_lo, rep.cell_hi)
        assert cls.key == tuple((lo == 0, hi == m, hi - lo) for lo, hi in box)
        assert_gathers_are_member_permutations(subs, cls)
    # by widths alone: corners, edges (and in 3d faces) and interior
    widths = congruence_classes(dec, sides=False)
    assert len(widths) == {2: 3, 3: 4}[dim]
    assert sorted(j for cls in widths for j in cls.members) == list(range(dec.n_subdomains))
    for cls in widths:
        rep = subs[cls.members[0]]
        assert cls.key == tuple((hi - lo,) for lo, hi in zip(rep.cell_lo, rep.cell_hi))
        assert_gathers_are_member_permutations(subs, cls)


def assert_gathers_are_member_permutations(subs, cls):
    """Row i of dofs and pou is member i's dofs and weights, reordered; the
    representative's rows are its own, in its own order."""
    group, dofs, pou = cls.members, cls.dofs, cls.pou
    assert dofs.shape == pou.shape == (len(group), len(subs[group[0]].dofs))
    for i, j in enumerate(group):
        sub = subs[j]
        order = np.searchsorted(sub.dofs, dofs[i])  # sub.dofs is ascending
        assert sorted(order) == list(range(len(sub.dofs)))
        np.testing.assert_array_equal(sub.dofs[order], dofs[i])
        np.testing.assert_array_equal(sub.pou[order], pou[i])
    np.testing.assert_array_equal(dofs[0], subs[group[0]].dofs)


def test_congruence_classes_two_per_axis_pair_mirrored_boxes():
    # with two boxes per axis every box touches one side per axis; in 2d the
    # point reflection pairs 0 with 3 and the axis swap pairs 1 with 2
    dec = build_decomposition(build_uniform_mesh(2, 8), 2, 2)
    classes = congruence_classes(dec)
    assert sorted(sorted(c.members.tolist()) for c in classes) == [[0, 3], [1, 2]]
    dec3 = build_decomposition(build_uniform_mesh(3, 8), 2, 1)
    classes3 = congruence_classes(dec3)
    assert sorted(len(c.members) for c in classes3) == [2, 6]
    assert sorted(sorted(c.members.tolist()) for c in classes3)[0] == [0, 7]


# (dim, N_1d, cells per base box, overlap): the benchmark's 2d k = 40 grid,
# single boxes, and boxes clipped at the boundary that are narrower than the
# overlap, so that several boxes of an axis touch the same side
ORACLE_CASES = [
    (2, 40, 7, 2), (2, 19, 14, 2), (3, 3, 11, 2), (2, 1, 5, 2), (2, 2, 3, 2), (2, 3, 1, 2),
    (2, 4, 2, 3), (3, 2, 4, 1), (3, 4, 2, 2), (3, 5, 3, 3), (2, 6, 5, 1), (3, 3, 1, 2),
]


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim,n1d,base,overlap", ORACLE_CASES)
def test_classes_match_the_per_subdomain_oracle(dim, n1d, base, overlap):
    # the per-class records hold bitwise what building every box on its own gives
    mesh = build_uniform_mesh(dim, n1d * base)
    m = mesh.intervals_per_edge
    dec = build_decomposition(mesh, n1d, overlap)
    subs = p1_oracle.subdomains(mesh, n1d, overlap)
    assert dec.n_subdomains == len(subs)
    # translation classes: in the order of their lowest member, ascending members
    lowest = [int(cls.members[0]) for cls in dec.classes]
    assert lowest == sorted(lowest)
    assert sorted(j for cls in dec.classes for j in cls.members) == list(range(len(subs)))
    for cls in dec.classes:
        assert (np.diff(cls.members) > 0).all()
        rep = subs[cls.members[0]]
        assert (cls.cell_lo, cls.cell_hi) == (rep.cell_lo, rep.cell_hi)
        for j, dofs, pou in zip(cls.members, cls.dofs, cls.pou):
            sub = subs[j]
            box = zip(sub.cell_lo, sub.cell_hi)
            assert cls.key == tuple((lo == 0, hi == m, hi - lo) for lo, hi in box)
            assert_bitwise(dofs, sub.dofs)
            assert_bitwise(pou, sub.pou)
            np.testing.assert_array_equal(cls.interface, sub.interface_dofs)
    # orbits and width classes: keys, member order and gathers
    for sides in (True, False):
        got, expected = congruence_classes(dec, sides=sides), p1_oracle.orbits(mesh, subs, sides)
        assert [cls.key for cls in got] == [orbit.key for orbit in expected]
        for cls, orbit in zip(got, expected):
            assert cls.members.tolist() == orbit.members
            assert (cls.cell_lo, cls.cell_hi) == (orbit.rep.cell_lo, orbit.rep.cell_hi)
            np.testing.assert_array_equal(cls.interface, orbit.rep.interface_dofs)
            assert_bitwise(cls.dofs, orbit.dofs)
            assert_bitwise(cls.pou, orbit.pou)
        # renumbered: the same gathers with their columns in the given order
        renumbered = congruence_classes(dec, sides=sides, numbering=nested_dissection)
        for cls, orbit in zip(renumbered, expected):
            order = nested_dissection([hi - lo + 1 for lo, hi in zip(cls.cell_lo, cls.cell_hi)])
            assert cls.members.tolist() == orbit.members
            assert_bitwise(cls.dofs, orbit.dofs[:, order])
            assert_bitwise(cls.pou, orbit.pou[:, order])
            assert (np.diff(cls.interface) > 0).all()
            np.testing.assert_array_equal(np.sort(order[cls.interface]), orbit.rep.interface_dofs)


def assert_nested_dissection(order, coords, lo, hi):
    """order lists the lattice points lo <= c < hi (coords[v] of each id v) as a
    leaf of at most ND_LEAF points per axis, or as two halves followed by a
    plane x_a = c that no Kuhn-lattice edge crosses, each half again so."""
    inside = np.all((coords >= lo) & (coords < hi), axis=1)
    assert sorted(order.tolist()) == np.flatnonzero(inside).tolist()
    extent = hi - lo
    if extent.max() <= ND_LEAF:
        return
    last = coords[order[-1]]
    # the axis whose plane through the last point ends the order
    for a in np.flatnonzero(extent > ND_LEAF):
        plane = int(np.prod(np.delete(extent, a)))
        if (coords[order[-plane:], a] == last[a]).all():
            break
    else:
        raise AssertionError(f"no separator plane ends the order of box {lo}-{hi}")
    c = last[a]
    assert lo[a] < c < hi[a] - 1, "both halves are non-empty"
    low = order[: int(np.sum(coords[order, a] < c))]
    high = order[len(low):-plane]
    assert (coords[low, a] < c).all() and (coords[high, a] > c).all()
    # every Kuhn-lattice edge runs along some delta in {0,1}^d or -{0,1}^d
    d = coords.shape[1]
    steps = np.array(list(np.ndindex(*(2,) * d))[1:])
    high_points = {tuple(p) for p in coords[high]}
    for delta in np.concatenate([steps, -steps]):
        assert not high_points & {tuple(p) for p in coords[low] + delta}
    assert_nested_dissection(low, coords, lo, np.where(np.arange(d) == a, c, hi))
    assert_nested_dissection(high, coords, np.where(np.arange(d) == a, c + 1, lo), hi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 14), min_size=2, max_size=3))
def test_nested_dissection_separates_every_lattice_edge(points):
    order = nested_dissection(points)
    n = int(np.prod(points))
    assert order.dtype == np.int64 and sorted(order.tolist()) == list(range(n))
    # local id v = sum_a c_a * prod(points[:a]), x fastest
    coords = np.stack(np.unravel_index(np.arange(n), points[::-1])[::-1], axis=1)
    assert_nested_dissection(order, coords, np.zeros(len(points), int), np.array(points))


def test_nested_dissection_of_a_3d_box():
    # the 3d k = 10 interior width class: 16^3 vertices, split to leaves of 4^3
    order = nested_dissection((16, 16, 16))
    n = 16**3
    coords = np.stack(np.unravel_index(np.arange(n), (16,) * 3)[::-1], axis=1)
    assert_nested_dissection(order, coords, np.zeros(3, int), np.full(3, 16))
    # the first plane splits x at 8 and comes last
    np.testing.assert_array_equal(coords[order[-256:], 0], 8)
