import numpy as np
import pytest

from helmdd.assembly import (
    AssemblyError,
    HelmholtzParams,
    assemble_global,
    assemble_rhs,
    assemble_subdomain,
    boundary_mass_matrix,
    facet_mass_matrix,
    mass_matrix,
    stiffness_matrix,
)
from helmdd.decomposition import build_decomposition
from helmdd.mesh import SimplicialMesh, build_uniform_mesh


def reference_triangle():
    return SimplicialMesh(
        dim=2,
        intervals_per_edge=1,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        simplices=np.array([[0, 1, 2]]),
        boundary_facets=np.empty((0, 2), dtype=np.int64),
    )


def test_unit_right_triangle_stiffness():
    K = stiffness_matrix(reference_triangle()).toarray()
    expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
    np.testing.assert_allclose(K, expected, atol=1e-15)


def test_zero_wavenumber_limit_is_pure_stiffness():
    mesh = build_uniform_mesh(2, 5)
    # k -> 0 limit: stiffness only; constants lie in the kernel
    K = stiffness_matrix(mesh)
    assert np.abs(K @ np.ones(mesh.n_vertices)).max() < 1e-12
    assert not np.iscomplexobj(K.data)


@pytest.mark.parametrize("dim,m", [(2, 6), (3, 3)])
def test_mass_part_integrates_domain_measure(dim, m):
    mesh = build_uniform_mesh(dim, m)
    params = HelmholtzParams(k=3.0, epsilon=2.0)
    ones = np.ones(mesh.n_vertices)
    # 1^T M 1 = |Omega| = 1
    assert abs(ones @ (mass_matrix(mesh) @ ones) - 1.0) < 1e-12
    # K 1 = 0 and 1^T B 1 is the boundary measure, so the mass part -(k^2 + i eps) M
    # is all that remains of 1^T A 1 once the Robin part is taken out
    A = assemble_global(mesh, params)
    boundary = ones @ (boundary_mass_matrix(mesh) @ ones)
    total = ones @ (A @ ones) + 1j * params.eta * boundary
    assert abs(total - (-(params.k**2) - 1j * params.epsilon)) < 1e-12


@pytest.mark.parametrize("dim,m", [(2, 8), (3, 3)])
def test_global_matrix_complex_symmetric_exactly(dim, m):
    mesh = build_uniform_mesh(dim, m)
    A = assemble_global(mesh, HelmholtzParams(k=7.0, epsilon=7.0))
    diff = A - A.T
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_absorption_linearity():
    mesh = build_uniform_mesh(2, 7)
    eta = 5.0
    A_eps = assemble_global(mesh, HelmholtzParams(k=5.0, epsilon=12.5, eta=eta))
    A_0 = assemble_global(mesh, HelmholtzParams(k=5.0, epsilon=0.0, eta=eta))
    M = mass_matrix(mesh)
    diff = (A_eps - A_0) - (-1j * 12.5) * M.astype(np.complex128)
    assert np.abs(diff.data).max() < 1e-12 if diff.nnz else True


def test_coercivity_proxy_imaginary_part():
    mesh = build_uniform_mesh(2, 6)
    k, eps = 4.0, 4.0
    A = assemble_global(mesh, HelmholtzParams(k=k, epsilon=eps))  # eta = k
    M = mass_matrix(mesh)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        quad = np.vdot(x, A @ x)
        mass_quad = np.real(np.vdot(x, M @ x))
        assert quad.imag <= -eps * mass_quad + 1e-10 * abs(quad)


def test_default_eta_sign_rule():
    assert HelmholtzParams(k=3.0, epsilon=0.0).eta == 3.0
    assert HelmholtzParams(k=3.0, epsilon=9.0).eta == 3.0
    assert HelmholtzParams(k=3.0, epsilon=-9.0).eta == -3.0
    assert HelmholtzParams(k=3.0, epsilon=9.0, eta=1.5).eta == 1.5
    with pytest.raises(ValueError):
        HelmholtzParams(k=0.0)


def test_rhs_constant_total():
    for dim, m in [(2, 5), (3, 3)]:
        mesh = build_uniform_mesh(dim, m)
        f = assemble_rhs(mesh, lambda points: np.ones(len(points)))
        assert abs(f.sum() - 1.0) < 1e-12


def test_rhs_gaussian_sign_and_total():
    mesh = build_uniform_mesh(2, 8)
    f = assemble_rhs(mesh, "gauss2d")
    center = np.flatnonzero(np.all(mesh.vertices == 0.5, axis=1))[0]
    assert f[center].real < 0
    fine = build_uniform_mesh(2, 64)
    total = assemble_rhs(fine, "gauss2d").sum().real
    assert abs(total - (-np.pi / 100)) < 0.02 * np.pi / 100


def test_rhs_source_dimension_mismatch():
    mesh = build_uniform_mesh(3, 2)
    with pytest.raises(ValueError):
        assemble_rhs(mesh, "gauss2d")
    with pytest.raises(ValueError):
        assemble_rhs(mesh, "nonexistent")


def test_single_subdomain_matches_global():
    mesh = build_uniform_mesh(2, 6)
    dec = build_decomposition(mesh, 1, 2)
    params = HelmholtzParams(k=5.0, epsilon=5.0)
    mats = assemble_subdomain(mesh, dec.subdomains[0], params)
    A = assemble_global(mesh, params)
    assert np.abs((mats.A_local - A).toarray()).max() < 1e-12
    assert mats.M_interface.nnz == 0  # boundary of the single subdomain is all physical
    assert len(mats.interface_facets) == 0


def test_subdomain_interface_mass_total_and_robin_difference():
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    params = HelmholtzParams(k=5.0, epsilon=5.0)
    sub = dec.subdomains[0]  # box [0, 6) x [0, 6): interface = two sides of length 0.75
    mats = assemble_subdomain(mesh, sub, params)
    ones = np.ones(sub.n_dofs)
    assert abs(ones @ (mats.M_interface @ ones) - 1.5) < 1e-12
    # A_local - A_neu is exactly the interface Robin term
    diff = (mats.A_local - mats.A_neu) - (-1j * params.eta) * mats.M_interface.astype(complex)
    assert np.abs(diff.data).max() < 1e-12 if diff.nnz else True
    # and is supported only on dofs of interface facets (which include the
    # junction vertices where the interface meets the physical boundary)
    support = mats.A_local - mats.A_neu
    rows = np.repeat(np.arange(sub.n_dofs), np.diff(support.indptr))
    touched = set(np.unique(rows[np.abs(support.data) > 0]))
    facet_dofs = set(np.unique(mats.interface_facets))
    assert touched <= facet_dofs
    assert set(sub.interface_dofs) <= facet_dofs


def test_interface_mass_spd_on_interface_dofs():
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    sub = dec.subdomains[0]
    mats = assemble_subdomain(mesh, sub, HelmholtzParams(k=5.0, epsilon=5.0))
    Mg = mats.M_interface.toarray()[np.ix_(sub.interface_dofs, sub.interface_dofs)].real
    np.testing.assert_allclose(Mg, Mg.T, atol=1e-15)
    w = np.linalg.eigvalsh(Mg)
    assert w.min() > 0


def test_degenerate_simplex_raises():
    mesh = SimplicialMesh(
        dim=2,
        intervals_per_edge=1,
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        simplices=np.array([[0, 1, 2]]),  # collinear
        boundary_facets=np.empty((0, 2), dtype=np.int64),
    )
    with pytest.raises(AssemblyError):
        stiffness_matrix(mesh)


def test_facet_mass_empty():
    mesh = build_uniform_mesh(2, 2)
    B = facet_mass_matrix(mesh.vertices, np.empty((0, 2), dtype=np.int64), 2, mesh.n_vertices)
    assert B.nnz == 0


def test_boundary_mass_total():
    mesh3 = build_uniform_mesh(3, 2)
    B = boundary_mass_matrix(mesh3)
    ones = np.ones(mesh3.n_vertices)
    assert abs(ones @ (B @ ones) - 6.0) < 1e-12  # cube surface area

