import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p1_oracle
from helmdd.mesh import (
    build_uniform_mesh,
    coarse_resolution,
    fine_resolution,
    interpolation_matrix,
    subdomains_per_dimension,
)


def simplex_volumes(mesh):
    # float element geometry of the reference assembly, apart from the lattice kernel
    return p1_oracle.volumes_and_gradients(mesh.vertices, p1_oracle.simplices(mesh))[0]


def test_smallest_square_mesh():
    mesh = build_uniform_mesh(2, 1)
    assert mesh.n_vertices == 4
    assert len(p1_oracle.simplices(mesh)) == 2
    np.testing.assert_array_equal(p1_oracle.simplices(mesh), [[0, 1, 3], [0, 3, 2]])


def test_two_by_two_square_mesh():
    mesh = build_uniform_mesh(2, 2)
    assert mesh.n_vertices == 9
    assert len(p1_oracle.simplices(mesh)) == 8
    np.testing.assert_allclose(simplex_volumes(mesh), 1 / 8)


def test_kuhn_split_unit_cube():
    mesh = build_uniform_mesh(3, 1)
    assert mesh.n_vertices == 8
    assert len(p1_oracle.simplices(mesh)) == 6
    np.testing.assert_allclose(simplex_volumes(mesh), 1 / 6)
    # one path from (0,0,0) to (1,1,1) per axis order; odd orders swap vertices 1 and 2
    expected = [[0, 1, 3, 7], [0, 5, 1, 7], [0, 3, 2, 7], [0, 2, 6, 7], [0, 4, 5, 7], [0, 6, 4, 7]]
    np.testing.assert_array_equal(p1_oracle.simplices(mesh), expected)


@pytest.mark.parametrize("dim,m", [(2, 0), (2, -3), (3, 0)])
def test_invalid_intervals(dim, m):
    with pytest.raises(ValueError):
        build_uniform_mesh(dim, m)


@pytest.mark.parametrize("dim", [0, 1, 4])
def test_invalid_dimension(dim):
    with pytest.raises(ValueError):
        build_uniform_mesh(dim, 2)


@pytest.mark.parametrize("dim,m", [(2, 1), (2, 3), (2, 8), (3, 1), (3, 2), (3, 4)])
def test_volumes_positive_and_conserved(dim, m):
    mesh = build_uniform_mesh(dim, m)
    vols = simplex_volumes(mesh)
    assert (vols > 0).all()
    assert abs(vols.sum() - 1.0) < 1e-12
    assert mesh.n_vertices == (m + 1) ** dim
    assert len(p1_oracle.simplices(mesh)) == (2 if dim == 2 else 6) * m**dim


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([2, 3]), m=st.integers(1, 4), r=st.integers(1, 3))
def test_refinement_contains_coarse_vertices_exactly(dim, m, r):
    coarse = build_uniform_mesh(dim, m)
    fine = build_uniform_mesh(dim, r * m)
    fine_set = {tuple(v) for v in fine.vertices}
    assert all(tuple(v) in fine_set for v in coarse.vertices)


def test_subdomains_per_dimension_reference_values():
    assert subdomains_per_dimension(40, 0.6) == 9
    assert subdomains_per_dimension(20, 0.8) == 10
    assert subdomains_per_dimension(10, 1.0) == 10


def test_subdomains_per_dimension_errors():
    with pytest.raises(ValueError):
        subdomains_per_dimension(0.5, 1.0)  # floor(k^alpha) = 0
    with pytest.raises(ValueError):
        subdomains_per_dimension(10, 0.0)
    with pytest.raises(ValueError):
        subdomains_per_dimension(-1, 0.5)


def test_fine_resolution_values():
    assert fine_resolution(10, 10) == 40
    assert fine_resolution(10, 3) == 33
    assert fine_resolution(4, 1) == 8


def test_coarse_resolution_values():
    assert coarse_resolution(10, 0.6) == 3
    assert coarse_resolution(20, 0.6) == 6
    assert coarse_resolution(10, 1.0) == 10
    with pytest.raises(ValueError):
        coarse_resolution(0.9, 1.0)


def test_interpolation_identity():
    mesh = build_uniform_mesh(2, 3)
    Z = interpolation_matrix(mesh, mesh)
    assert np.abs(Z.toarray() - np.eye(mesh.n_vertices)).max() == 0.0


def test_interpolation_one_level_refinement():
    coarse = build_uniform_mesh(2, 1)
    fine = build_uniform_mesh(2, 2)
    Z = interpolation_matrix(coarse, fine).toarray()
    assert Z.shape == (9, 4)
    # edge midpoints average the two edge endpoints
    for row, cols in [(1, (0, 1)), (3, (0, 2)), (5, (1, 3)), (7, (2, 3))]:
        assert sorted(np.flatnonzero(Z[row])) == sorted(cols)
        np.testing.assert_allclose(Z[row][list(cols)], 0.5)
    # the center vertex lies on the coarse diagonal: half from each diagonal end
    np.testing.assert_allclose(Z[4], [0.5, 0.0, 0.0, 0.5])


@settings(max_examples=25, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    mc=st.integers(1, 4),
    mf=st.integers(1, 14),
    data=st.data(),
)
def test_interpolation_reproduces_linears(dim, mc, mf, data):
    if mf < mc:
        mc, mf = mf, mc
    coarse = build_uniform_mesh(dim, mc)
    fine = build_uniform_mesh(dim, mf)
    Z = interpolation_matrix(coarse, fine)
    coeff = np.array([data.draw(st.floats(-2, 2)) for _ in range(dim)])
    shift = data.draw(st.floats(-1, 1))
    lc = coarse.vertices @ coeff + shift
    lf = fine.vertices @ coeff + shift
    assert np.abs(Z @ lc - lf).max() < 1e-12
    # partition of unity of the coarse basis
    assert np.abs(Z @ np.ones(coarse.n_vertices) - 1.0).max() < 1e-12


def hat_functions(coarse, points):
    """Coarse P1 hat functions at points, from barycentric coordinates on the coarse simplices.

    Each point takes the values of the first simplex that contains it; the hat
    functions are continuous, so any containing simplex gives the same ones.
    """
    cells = p1_oracle.simplices(coarse)
    corners = coarse.vertices[cells]
    edges_inv = np.linalg.inv(corners[:, 1:] - corners[:, :1])
    lam = np.einsum("spd,sde->spe", points[None] - corners[:, :1], edges_inv)
    bary = np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)
    inside = (bary >= -1e-12).all(axis=-1)
    assert inside.any(axis=0).all(), "a point lies in no coarse simplex"
    first = inside.argmax(axis=0)
    values = np.zeros((len(points), coarse.n_vertices))
    rows = np.arange(len(points))[:, None]
    values[rows, cells[first]] = bary[first, np.arange(len(points))]
    return values


@pytest.mark.parametrize(
    "dim,mc,mf", [(2, 3, 7), (2, 7, 20), (2, 7, 90), (2, 4, 8), (3, 3, 5), (3, 4, 11), (3, 2, 6)]
)
def test_interpolation_is_the_coarse_hat_functions(dim, mc, mf):
    # linear reproduction and unit row sums hold for barycentric weights on the
    # wrong Kuhn simplex of a coarse cell too, but those weights go negative;
    # (7, 90) is Table 2's forced grid at k = 20, alpha = 0.8
    coarse, fine = build_uniform_mesh(dim, mc), build_uniform_mesh(dim, mf)
    Z = interpolation_matrix(coarse, fine)
    assert ((Z.data >= 0.0) & (Z.data <= 1.0)).all()
    np.testing.assert_allclose(Z.toarray(), hat_functions(coarse, fine.vertices),
                               rtol=0, atol=1e-13)


def test_interpolation_rejects_coarser_fine_mesh():
    with pytest.raises(ValueError):
        interpolation_matrix(build_uniform_mesh(2, 4), build_uniform_mesh(2, 2))
    with pytest.raises(ValueError):
        interpolation_matrix(build_uniform_mesh(2, 2), build_uniform_mesh(3, 4))

