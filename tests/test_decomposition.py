import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdd.decomposition import build_decomposition, congruence_classes
from helmdd.mesh import build_uniform_mesh


def pou_identity_error(mesh, dec):
    # sum_j R_j^T D_j R_j v for v = 1
    acc = np.zeros(mesh.n_vertices, dtype=complex)
    v = np.ones(mesh.n_vertices, dtype=complex)
    for sub in dec.subdomains:
        acc[sub.dofs] += sub.pou * v[sub.dofs]
    return np.abs(acc - v).max()


def test_single_subdomain_is_whole_domain():
    mesh = build_uniform_mesh(2, 4)
    dec = build_decomposition(mesh, 1, 2)
    assert dec.n_subdomains == 1
    sub = dec.subdomains[0]
    assert sub.n_dofs == mesh.n_vertices
    np.testing.assert_array_equal(sub.pou, 1.0)
    assert len(sub.interface_dofs) == 0
    assert (sub.cell_lo, sub.cell_hi) == ((0, 0), (4, 4))


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
    for sub in dec.subdomains:
        assert (sub.cell_lo, sub.cell_hi) == expected_boxes[sub.index]

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
    for sub in dec.subdomains:
        np.testing.assert_allclose(sub.pou, (ramp[sub.index] / ramp.sum(axis=0))[sub.dofs],
                                   rtol=1e-15)

    # dofs in the central overlap band (outside the 4-fold center square) are
    # held by two boxes; on the bottom edge the weights are the two ramps,
    # 3:1 at x = 3 and 1:1 at x = 4
    coords = mesh.grid_coordinates()
    band = (coords[:, 0] >= 2) & (coords[:, 0] <= 6) & (coords[:, 1] < 2)
    assert (mult[band] == 2).all()
    left, right = dec.subdomains[0], dec.subdomains[1]
    for x, weights in ((3, (0.75, 0.25)), (4, (0.5, 0.5))):
        got = [sub.pou[np.searchsorted(sub.dofs, x)] for sub in (left, right)]
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
    for sub in dec.subdomains:
        assert np.all(sub.pou[sub.interface_dofs] == 0.0)
        assert np.all(sub.pou >= 0.0)


def test_overlap_strip_width():
    mesh = build_uniform_mesh(2, 12)
    for ov in (1, 2):
        dec = build_decomposition(mesh, 3, ov)
        left = next(s for s in dec.subdomains if s.index == 0)
        mid = next(s for s in dec.subdomains if s.index == 1)
        strip = min(left.cell_hi[0], mid.cell_hi[0]) - max(left.cell_lo[0], mid.cell_lo[0])
        assert strip == 2 * ov


def multiplicity(mesh, dec):
    return np.bincount(np.concatenate([s.dofs for s in dec.subdomains]), minlength=mesh.n_vertices)


def test_interface_dofs_shared_with_neighbours():
    mesh = build_uniform_mesh(2, 12)
    dec = build_decomposition(mesh, 3, 2)
    mult = multiplicity(mesh, dec)
    for sub in dec.subdomains:
        if len(sub.interface_dofs):
            assert (mult[sub.dofs[sub.interface_dofs]] >= 2).all()


@settings(max_examples=15, deadline=None)
@given(n1d=st.sampled_from([1, 2, 3]), ov=st.integers(1, 2), factor=st.integers(2, 4))
def test_dof_classification_partitions(n1d, ov, factor):
    # every dof is interior, interface or physical; interface_dofs holds exactly
    # the dofs on the box boundary that are off the physical boundary
    m = n1d * factor
    mesh = build_uniform_mesh(2, m)
    dec = build_decomposition(mesh, n1d, ov)
    for sub in dec.subdomains:
        interface = []
        for local, (x, y) in enumerate(mesh.grid_coordinates(sub.dofs)):
            on_box = x in (sub.cell_lo[0], sub.cell_hi[0]) or y in (sub.cell_lo[1], sub.cell_hi[1])
            if on_box and not (x in (0, m) or y in (0, m)):
                interface.append(local)
        np.testing.assert_array_equal(sub.interface_dofs, interface)
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
    dec = build_decomposition(build_uniform_mesh(dim, m), n1d, overlap)
    classes = congruence_classes(dec)
    assert len(classes) == {2: 4, 3: 6}[dim]
    members = sorted(j for _, group, _, _ in classes for j in group)
    assert members == list(range(dec.n_subdomains))
    # the interior orbit holds every box that touches no side of the domain
    (interior,) = [g for key, g, _, _ in classes if not any(lo or hi for lo, hi, _ in key)]
    assert len(interior) == (n1d - 2) ** dim
    for key, group, dofs, pou in classes:
        rep = dec.subdomains[group[0]]
        assert key == tuple((lo == 0, hi == m, hi - lo) for lo, hi in zip(rep.cell_lo, rep.cell_hi))
        assert_gathers_are_member_permutations(dec, group, dofs, pou)
    # by widths alone: corners, edges (and in 3d faces) and interior
    widths = congruence_classes(dec, sides=False)
    assert len(widths) == {2: 3, 3: 4}[dim]
    assert sorted(j for _, group, _, _ in widths for j in group) == list(range(dec.n_subdomains))
    for key, group, dofs, pou in widths:
        rep = dec.subdomains[group[0]]
        assert key == tuple((hi - lo,) for lo, hi in zip(rep.cell_lo, rep.cell_hi))
        assert_gathers_are_member_permutations(dec, group, dofs, pou)


def assert_gathers_are_member_permutations(dec, group, dofs, pou):
    """Row i of dofs and pou is member i's dofs and weights, reordered; the
    representative's rows are its own, in its own order."""
    assert dofs.shape == pou.shape == (len(group), dec.subdomains[group[0]].n_dofs)
    for i, j in enumerate(group):
        sub = dec.subdomains[j]
        order = np.searchsorted(sub.dofs, dofs[i])  # sub.dofs is ascending
        assert sorted(order) == list(range(sub.n_dofs))
        np.testing.assert_array_equal(sub.dofs[order], dofs[i])
        np.testing.assert_array_equal(sub.pou[order], pou[i])
    np.testing.assert_array_equal(dofs[0], dec.subdomains[group[0]].dofs)


def test_congruence_classes_two_per_axis_pair_mirrored_boxes():
    # with two boxes per axis every box touches one side per axis; in 2d the
    # point reflection pairs 0 with 3 and the axis swap pairs 1 with 2
    dec = build_decomposition(build_uniform_mesh(2, 8), 2, 2)
    classes = congruence_classes(dec)
    assert sorted(sorted(group) for _, group, _, _ in classes) == [[0, 3], [1, 2]]
    dec3 = build_decomposition(build_uniform_mesh(3, 8), 2, 1)
    classes3 = congruence_classes(dec3)
    assert sorted(len(group) for _, group, _, _ in classes3) == [2, 6]
    assert sorted(sorted(group) for _, group, _, _ in classes3)[0] == [0, 7]
