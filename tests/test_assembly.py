import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import p1_oracle
from helmdd.assembly import (
    HelmholtzParams,
    _incidence,
    _stiffness_kernel,
    assemble_global,
    assemble_rhs,
    assemble_subdomain,
)
from helmdd.decomposition import build_decomposition
from helmdd.mesh import build_uniform_mesh


def test_unit_right_triangle_stiffness():
    # the two Kuhn triangles of the unit cell: (0,0),(1,0),(1,1) and (0,0),(1,1),(0,1)
    lower = 0.5 * np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    upper = 0.5 * np.array([[1, 0, -1], [0, 1, -1], [-1, -1, 2]])
    np.testing.assert_array_equal(_stiffness_kernel(2, 0.25), [lower, upper])
    # vertices (0,0),(1,0),(0,1),(1,1)
    K = p1_oracle.global_box(build_uniform_mesh(2, 1))[0].toarray()
    expected = np.array([[2, -1, -1, 0], [-1, 2, 0, -1], [-1, 0, 2, -1], [0, -1, -1, 2]]) / 2
    np.testing.assert_array_equal(K, expected)
    # 3d: the six Kuhn tetrahedra against the element geometry of the oracle
    cube = build_uniform_mesh(3, 1)
    vol, grads = p1_oracle.volumes_and_gradients(cube.vertices, p1_oracle.simplices(cube))
    reference = np.einsum("e,eid,ejd->eij", vol, grads, grads) * 0.5
    np.testing.assert_allclose(_stiffness_kernel(3, 0.5), reference, rtol=0, atol=1e-15)


def test_zero_wavenumber_limit_is_pure_stiffness():
    mesh = build_uniform_mesh(2, 5)
    # k -> 0 limit: stiffness only; constants lie in the kernel
    K = p1_oracle.global_box(mesh)[0]
    assert np.abs(K @ np.ones(mesh.n_vertices)).max() < 1e-12
    assert not np.iscomplexobj(K.data)


@pytest.mark.parametrize("dim,m", [(2, 6), (3, 3)])
def test_mass_part_integrates_domain_measure(dim, m):
    mesh = build_uniform_mesh(dim, m)
    params = HelmholtzParams(k=3.0, epsilon=2.0)
    ones = np.ones(mesh.n_vertices)
    _, M, B, _ = p1_oracle.global_box(mesh)
    # 1^T M 1 = |Omega| = 1
    assert abs(ones @ (M @ ones) - 1.0) < 1e-12
    # K 1 = 0 and 1^T B 1 is the boundary measure, so the mass part -(k^2 + i eps) M
    # is all that remains of 1^T A 1 once the Robin part is taken out
    A = assemble_global(mesh, params)
    boundary = ones @ (B @ ones)
    total = ones @ (A @ ones) + 1j * params.k * boundary
    assert abs(total - (-(params.k**2) - 1j * params.epsilon)) < 1e-12


@pytest.mark.parametrize("dim,m", [(2, 8), (3, 3)])
def test_global_matrix_complex_symmetric_exactly(dim, m):
    mesh = build_uniform_mesh(dim, m)
    A = assemble_global(mesh, HelmholtzParams(k=7.0, epsilon=7.0))
    diff = A - A.T
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_absorption_linearity():
    mesh = build_uniform_mesh(2, 7)
    A_eps = assemble_global(mesh, HelmholtzParams(k=5.0, epsilon=12.5))
    params_0 = HelmholtzParams(k=5.0, epsilon=0.0)
    A_0, M = assemble_global(mesh, params_0, with_mass=True)
    # the pair is the plain operator and the M of the same box pass, to the last bit
    plain = assemble_global(mesh, params_0)
    for got, want in ((A_0, plain), (M, p1_oracle.global_box(mesh)[1])):
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)
    diff = (A_eps - A_0) - (-1j * 12.5) * M.astype(np.complex128)
    assert np.abs(diff.data).max() < 1e-12 if diff.nnz else True


def test_coercivity_proxy_imaginary_part():
    mesh = build_uniform_mesh(2, 6)
    k, eps = 4.0, 4.0
    A = assemble_global(mesh, HelmholtzParams(k=k, epsilon=eps))
    M = p1_oracle.global_box(mesh)[1]
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        quad = np.vdot(x, A @ x)
        mass_quad = np.real(np.vdot(x, M @ x))
        assert quad.imag <= -eps * mass_quad + 1e-10 * abs(quad)


def test_params_reject_nonpositive_wavenumber():
    for k in (0.0, -3.0):
        with pytest.raises(ValueError, match="wavenumber"):
            HelmholtzParams(k=k)


def test_rhs_constant_total():
    # the lumped weights are the row sums of M, so they integrate 1 exactly: |Omega| = 1
    for dim, m in [(2, 5), (3, 3)]:
        weights = _incidence(dim, m) * (1.0 / m) ** dim / (math.factorial(dim) * (dim + 1))
        assert abs(weights.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("dim,m", [(2, 1), (2, 4), (2, 5), (3, 1), (3, 3), (3, 5)])
def test_rhs_incidence_counts_the_simplices_at_each_vertex(dim, m):
    mesh = build_uniform_mesh(dim, m)
    expected = np.bincount(p1_oracle.simplices(mesh).ravel(), minlength=mesh.n_vertices)
    got = _incidence(dim, m)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_rhs_gaussian_sign_and_total():
    # -exp(-a |x - c|^2) with a = 100 (2d) or 400 (3d) integrates to -(pi / a)^(d/2) over
    # R^d; the vertex rule is the trapezoidal rule, spectrally accurate for a Gaussian
    # that is e^-25 (2d) or e^-100 (3d) at the boundary, so the total holds to 1e-9
    for dim, m, total in [(2, 64, -np.pi / 100), (3, 32, -((np.pi / 400) ** 1.5))]:
        mesh = build_uniform_mesh(dim, m)
        f = assemble_rhs(mesh)
        assert f.dtype == np.complex128 and not f.imag.any()
        center = np.flatnonzero(np.all(mesh.vertices == 0.5, axis=1))[0]
        assert f[center].real < 0 and np.argmin(f.real) == center
        assert f.sum().real == pytest.approx(total, rel=1e-9)


def test_single_subdomain_matches_global():
    mesh = build_uniform_mesh(2, 6)
    dec = build_decomposition(mesh, 1, 2)
    params = HelmholtzParams(k=5.0, epsilon=5.0)
    (cls,) = dec.classes
    mats = assemble_subdomain(mesh, cls, params)
    A = assemble_global(mesh, params)
    assert np.abs((mats.A_local - A).toarray()).max() < 1e-12
    assert mats.M_interface.nnz == 0  # boundary of the single subdomain is all physical


def test_subdomain_interface_mass_total_and_robin_difference():
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    params = HelmholtzParams(k=5.0, epsilon=5.0)
    sub = dec.classes[0]  # subdomain 0, box [0, 6) x [0, 6): interface = two sides of length 0.75
    assert sub.members.tolist() == [0]
    mats = assemble_subdomain(mesh, sub, params)
    ones = np.ones(sub.dofs.shape[1])
    assert abs(ones @ (mats.M_interface @ ones) - 1.5) < 1e-12
    # A_local - A_neu is exactly the interface Robin term
    diff = (mats.A_local - mats.A_neu) - (-1j * params.k) * mats.M_interface.astype(complex)
    assert np.abs(diff.data).max() < 1e-12 if diff.nnz else True
    # and is supported only on dofs of interface facets (which include the
    # junction vertices where the interface meets the physical boundary)
    support = mats.A_local - mats.A_neu
    rows = np.repeat(np.arange(sub.dofs.shape[1]), np.diff(support.indptr))
    touched = set(np.unique(rows[np.abs(support.data) > 0]))
    coords = mesh.grid_coordinates(sub.dofs[0])
    facet_dofs = set(np.flatnonzero((coords == 6).any(axis=1)))
    assert touched <= facet_dofs
    assert set(sub.interface) <= facet_dofs


def test_interface_mass_spd_on_interface_dofs():
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    sub = dec.classes[0]
    mats = assemble_subdomain(mesh, sub, HelmholtzParams(k=5.0, epsilon=5.0))
    Mg = mats.M_interface.toarray()[np.ix_(sub.interface, sub.interface)].real
    np.testing.assert_allclose(Mg, Mg.T, atol=1e-15)
    w = np.linalg.eigvalsh(Mg)
    assert w.min() > 0


def test_facet_mass_empty():
    # a box with no interface side has an empty interface mass, and vice versa
    all_physical = p1_oracle.stencil_box((2, 3), 0.5, [(True, True)] * 2)
    none_physical = p1_oracle.stencil_box((2, 3), 0.5, [(False, False)] * 2)
    for B in (all_physical[3], none_physical[2]):
        assert B.shape == (12, 12) and B.nnz == 0
    np.testing.assert_array_equal(all_physical[2].toarray(), none_physical[3].toarray())


def test_boundary_mass_total():
    mesh3 = build_uniform_mesh(3, 2)
    B = p1_oracle.global_box(mesh3)[2]
    ones = np.ones(mesh3.n_vertices)
    assert abs(ones @ (B @ ones) - 6.0) < 1e-12  # cube surface area



def assert_close(got, want):
    scale = abs(want).max()
    assert abs(got - want).max() <= 1e-14 * scale, (abs(got - want).max(), scale)


def assert_same_pattern(got, want):
    # the stored entries drive every LU's fill, and assert_close cannot see an
    # explicit zero or a missing entry
    want = want.tocsr()
    want.sort_indices()
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)


@pytest.mark.parametrize("dim,m", [(2, 8), (2, 40), (3, 6), (3, 12)])
def test_global_matrices_match_the_element_oracle(dim, m):
    # the oracle's B holds the facets that belong to one simplex only, so the
    # pattern of B_box checks that the box faces are exactly the boundary facets
    mesh = build_uniform_mesh(dim, m)
    K, M, B, empty = p1_oracle.box_matrices(mesh, (0,) * dim, (m,) * dim)
    assert empty.nnz == 0
    K_box, M_box, B_box, empty_box = p1_oracle.global_box(mesh)
    assert empty_box.nnz == 0
    for got, want in ((K_box, K), (M_box, M), (B_box, B)):
        assert_close(got, want)
        assert_same_pattern(got, want)
    params = HelmholtzParams(k=7.0, epsilon=3.0)  # k^2 != k tells the Robin term from M's
    A = assemble_global(mesh, params)
    assert_close(A, K - (49 + 3j) * M - 7j * B)
    assert_same_pattern(A, K)


@pytest.mark.parametrize("dim,m,n1d", [(2, 24, 4), (2, 8, 8), (3, 6, 3), (3, 6, 6)])
def test_subdomain_matrices_match_the_element_oracle(dim, m, n1d):
    mesh = build_uniform_mesh(dim, m)
    params = HelmholtzParams(k=7.0, epsilon=3.0)
    for sub in p1_oracle.subdomains(mesh, n1d, 2):
        oracle = p1_oracle.box_matrices(mesh, sub.cell_lo, sub.cell_hi)
        K, M, B_phys, B_intf = oracle
        A_neu = K - (49 + 3j) * M - 7j * B_phys
        mats = assemble_subdomain(mesh, sub, params)
        assert_close(mats.A_local, A_neu - 7j * B_intf)
        assert_close(mats.A_neu, A_neu)
        if B_intf.nnz:
            assert_close(mats.M_interface, B_intf)
        else:
            assert mats.M_interface.nnz == 0
        widths = [hi - lo for lo, hi in zip(sub.cell_lo, sub.cell_hi)]
        physical = [(lo == 0, hi == m) for lo, hi in zip(sub.cell_lo, sub.cell_hi)]
        for got, want in zip(p1_oracle.stencil_box(widths, 1.0 / m, physical), oracle):
            assert_same_pattern(got, want)
        for got in (mats.A_local, mats.A_neu):
            assert_same_pattern(got, K)
        assert_same_pattern(mats.M_interface, B_intf)


def assert_bitwise_symmetric(A):
    T = A.T.tocsr()
    T.sort_indices()
    np.testing.assert_array_equal(A.indptr, T.indptr)
    np.testing.assert_array_equal(A.indices, T.indices)
    np.testing.assert_array_equal(A.data.view(np.uint8), T.data.view(np.uint8))


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), m=st.integers(1, 5), data=st.data())
def test_box_kernel_properties(dim, m, data):
    # every box of a mesh with m <= 5: widths 1-5 per axis and all physical-side flags
    lo = tuple(data.draw(st.integers(0, m - 1)) for _ in range(dim))
    hi = tuple(data.draw(st.integers(a + 1, m)) for a in lo)
    widths = [b - a for a, b in zip(lo, hi)]
    physical = [(a == 0, b == m) for a, b in zip(lo, hi)]
    h = 1.0 / m
    K, M, B_phys, B_intf = p1_oracle.stencil_box(widths, h, physical)
    ones = np.ones(math.prod(w + 1 for w in widths))
    assert abs(K @ ones).max() <= 1e-13
    assert ones @ (M @ ones) == pytest.approx(math.prod(widths) * h**dim, rel=1e-13)
    face = [math.prod(widths) // w * h ** (dim - 1) for w in widths]  # one side of each axis
    for B, flag in ((B_phys, True), (B_intf, False)):
        expected = sum(f * sides.count(flag) for f, sides in zip(face, physical))
        assert ones @ (B @ ones) == pytest.approx(expected, rel=1e-13, abs=1e-15)

    mesh = build_uniform_mesh(dim, m)
    params = HelmholtzParams(k=4.0, epsilon=2.0)
    mats = assemble_subdomain(mesh, SimpleNamespace(cell_lo=lo, cell_hi=hi), params)
    diff = (mats.A_local - mats.A_neu) - (-4j) * mats.M_interface
    assert diff.nnz == 0 or abs(diff).max() <= 1e-15 * abs(mats.A_local).max()
    for A in (mats.A_local, mats.A_neu, mats.M_interface):
        assert_bitwise_symmetric(A)
    K_o, M_o, B_phys_o, B_intf_o = p1_oracle.box_matrices(mesh, lo, hi)
    assert_close(mats.A_neu, K_o - (16 + 2j) * M_o - 4j * B_phys_o)
    assert_close(mats.A_local, K_o - (16 + 2j) * M_o - 4j * (B_phys_o + B_intf_o))
