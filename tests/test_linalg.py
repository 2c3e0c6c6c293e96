import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdd import linalg
from helmdd.assembly import HelmholtzParams, assemble_global, assemble_rhs
from helmdd.linalg import (
    FactorizationError,
    factorize,
    generalized_eig,
    gmres,
    random_initial_guess,
)
from helmdd.mesh import build_uniform_mesh
from helmdd.solver import SolveConfig, SolverContext


def random_sparse(n, rng, density=0.3):
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)))
    A = A.astype(np.complex128)
    A.data += 1j * rng.standard_normal(A.nnz)
    return sp.csc_matrix(A + n * sp.eye(n))  # diagonally shifted: safely nonsingular


# --------------------------------------------------------------------------
# factorize


def test_factorize_identity():
    lu = factorize(sp.eye(5, format="csc", dtype=complex))
    b = np.arange(5) + 1j
    np.testing.assert_array_equal(lu.solve(b), b)


def test_factorize_permutation():
    A = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    x = factorize(A).solve(np.array([1.0, 2.0]))
    np.testing.assert_allclose(x, [2.0, 1.0])


def test_factorize_against_dense_lu_oracle():
    rng = np.random.default_rng(3)
    A = random_sparse(50, rng)
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    x = factorize(A).solve(b)
    x_oracle = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - x_oracle).max() <= 1e-10 * max(1.0, np.abs(x_oracle).max())


def test_factorize_round_trip_many():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(5, 40))
        A = random_sparse(n, rng)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = factorize(A).solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factorize_structurally_singular_names_index():
    A = sp.lil_matrix((4, 4), dtype=complex)
    A[0, 0] = A[1, 1] = A[3, 3] = 1.0  # row/col 2 empty
    with pytest.raises(FactorizationError, match="2"):
        factorize(A.tocsc())


def test_factorize_numerically_singular():
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(FactorizationError, match="singular"):
        factorize(A)


def test_factorize_rejects_rectangular():
    with pytest.raises(FactorizationError):
        factorize(sp.csc_matrix(np.ones((2, 3))))


# --------------------------------------------------------------------------
# random_initial_guess


def test_random_guess_deterministic():
    a = random_initial_guess(4, 0)
    b = random_initial_guess(4, 0)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, random_initial_guess(4, 1))


def test_random_guess_range_and_mean():
    x = random_initial_guess(10_000, 1)
    assert np.abs(x.real).max() <= 1.0 and np.abs(x.imag).max() <= 1.0
    assert abs(x.real.mean()) < 0.05
    single = random_initial_guess(1, 2)
    assert abs(single[0].real) <= 1.0 and abs(single[0].imag) <= 1.0


def test_random_guess_invalid_size():
    with pytest.raises(ValueError):
        random_initial_guess(0, 0)


# --------------------------------------------------------------------------
# gmres


def test_gmres_identity_converges_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0], dtype=complex)
    out = gmres(sp.eye(3, format="csr", dtype=complex), b, x0=np.zeros(3, complex))
    assert out.iterations == 1 and out.converged
    assert out.orthogonality_loss == 0.0  # one basis vector
    np.testing.assert_allclose(out.solution, b, atol=1e-12)


def test_gmres_perfect_preconditioner():
    A = sp.diags(np.arange(1.0, 11.0)).tocsr()
    lu = factorize(sp.csc_matrix(A))
    rng = np.random.default_rng(0)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    out = gmres(A, b, apply_M=lu.solve)
    assert out.iterations == 1 and out.converged


def test_gmres_matches_direct_solve_on_helmholtz():
    mesh = build_uniform_mesh(2, 12)
    A = assemble_global(mesh, HelmholtzParams(k=10.0))
    b = assemble_rhs(mesh, "gauss2d")
    out = gmres(A, b, tol=1e-9, max_iter=mesh.n_vertices + 5)
    x_direct = factorize(A).solve(b)
    assert out.converged
    rel = np.linalg.norm(out.solution - x_direct) / np.linalg.norm(x_direct)
    assert rel <= 1e-5


def test_gmres_residual_history_non_increasing_and_final():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)) + 10 * np.eye(30)
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    out = gmres(A, b, x0=random_initial_guess(30, 3), tol=1e-8, max_iter=60)
    hist = out.residual_history
    assert (np.diff(hist) <= 1e-12).all()
    assert out.converged and hist[-1] <= 1e-8
    assert len(hist) == out.iterations + 1


def test_gmres_finite_termination():
    rng = np.random.default_rng(9)
    n = 25
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 4 * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = gmres(A, b, tol=1e-12, max_iter=n + 5)
    assert out.converged and out.iterations <= n + 5


def test_gmres_zero_initial_residual():
    A = sp.eye(4, format="csr", dtype=complex)
    b = np.ones(4, dtype=complex)
    out = gmres(A, b, x0=b.copy())
    assert out.iterations == 0 and out.converged


def test_gmres_relative_to_initial():
    # The history starts at the initial residual, measured relative to ||b||.
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 12)) + 6 * np.eye(12)
    b = rng.standard_normal(12)
    x0 = random_initial_guess(12, 0)
    out = gmres(A, b, x0=x0, tol=1e-6)
    assert out.residual_history[0] == pytest.approx(np.linalg.norm(b - A @ x0) / np.linalg.norm(b))
    assert out.converged and out.residual_history[-1] <= 1e-6
    with pytest.raises(ValueError):
        gmres(A, b, tol=0.0)
    with pytest.raises(ValueError):  # tolerance is checked before the residual
        gmres(sp.eye(4, format="csr"), np.ones(4), x0=np.ones(4), tol=0.0)


def test_gmres_happy_breakdown_on_invariant_subspace():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    b = np.array([1.0, 0.0, 0.0], dtype=complex)  # span{e1} is A-invariant
    out = gmres(A, b, tol=1e-10)
    assert out.converged and out.iterations == 1
    np.testing.assert_allclose(out.solution, [1.0, 0.0, 0.0], atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_gmres_monotone_on_random_systems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 20))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 3 * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = gmres(A, b, x0=random_initial_guess(n, seed), tol=1e-10, max_iter=n + 5)
    assert (np.diff(out.residual_history) <= 1e-12).all()


def mgs_arnoldi_oracle(A, M, b, x0, tol, max_iter):
    """Right-preconditioned Arnoldi with a plain numpy modified Gram-Schmidt loop.

    Returns the unrotated Hessenberg matrix H ((m+1) x m), the m basis vectors and,
    after every step j, the least-squares residual min ||beta e1 - H_j y|| / ||b||
    with beta = ||b - A x0||.
    """
    r0 = b - A @ x0
    beta = np.linalg.norm(r0)
    V = [r0 / beta]
    H = np.zeros((max_iter + 1, max_iter), dtype=complex)
    history = [beta / np.linalg.norm(b)]
    for j in range(max_iter):
        w = A @ M(V[j])
        norm_w0 = np.linalg.norm(w)
        for _ in range(2):  # the second pass runs only after severe cancellation
            for i in range(j + 1):
                hij = np.vdot(V[i], w)
                H[i, j] += hij
                w -= hij * V[i]
            nw = np.linalg.norm(w)
            if nw >= norm_w0 / 100.0:
                break
        H[j + 1, j] = nw
        Hj = H[: j + 2, : j + 1]
        rhs = np.zeros(j + 2, dtype=complex)
        rhs[0] = beta
        y = np.linalg.lstsq(Hj, rhs, rcond=None)[0]
        history.append(np.linalg.norm(rhs - Hj @ y) / np.linalg.norm(b))
        if history[-1] <= tol:
            break
        V.append(w / nw)
    return H[: j + 2, : j + 1], np.array(V), np.array(history)


def test_gmres_matches_numpy_mgs_oracle_on_one_level_oras():
    ctx = SolverContext(SolveConfig(dim=2, k=10.0, alpha=1.0, precon="one_level"))
    # x0 = 0 keeps the history within [tol, 1]: a least-squares residual is exact only
    # to rounding of the initial one, about 5e4 ||b|| for a random guess here
    x0 = np.zeros(ctx.n, dtype=complex)
    seen = []  # M is applied to each basis vector v_j as soon as it is complete

    def apply_M(v):
        seen.append(v.copy())
        return ctx.precon.apply(v)

    out = gmres(ctx.A0, ctx.f, apply_M=apply_M, x0=x0, tol=1e-6, max_iter=200)
    H, V, history = mgs_arnoldi_oracle(ctx.A0, ctx.precon.apply, ctx.f, x0, 1e-6, 200)
    m = out.iterations
    assert out.converged and m == H.shape[1] == len(V) > 30
    np.testing.assert_allclose(out.residual_history, history, rtol=1e-9, atol=0)
    basis = np.array(seen[:m])
    np.testing.assert_allclose(basis, V, rtol=0, atol=1e-8)
    # the diagnostic is max_i |<v_i, v_{m-1}>| of the basis gmres built; the oracle
    # rounds differently, so its basis gives another value of the same (tiny) size
    loss = np.abs(basis[:-1].conj() @ basis[-1]).max()
    assert out.orthogonality_loss == pytest.approx(loss, rel=0, abs=1e-12)
    assert 0 < out.orthogonality_loss < 1e-8
    assert np.abs(V[:-1].conj() @ V[-1]).max() < 1e-8


def test_gmres_second_pass_on_a_near_identity_operator(monkeypatch):
    # w = A v_j is v_j plus 1e-3 of new direction: the first pass cancels more
    # than two orders of magnitude of ||w|| and the second pass must run
    passes = []
    mgs_pass = linalg._mgs_pass
    monkeypatch.setattr(linalg, "_mgs_pass", lambda V, w, h: passes.append(1) or mgs_pass(V, w, h))
    rng = np.random.default_rng(12)
    n = 50
    A = np.eye(n) + 1e-3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = gmres(A, b, tol=1e-12, max_iter=n)
    assert out.converged and len(passes) > out.iterations >= 2
    assert (np.diff(out.residual_history) <= 0).all()
    assert out.orthogonality_loss <= 1e-12
    np.testing.assert_allclose(A @ out.solution, b, atol=1e-10 * np.linalg.norm(b))


def test_gmres_accepts_a_strided_operator_result():
    rng = np.random.default_rng(6)
    n = 40
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + 8 * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = random_initial_guess(n, 1)

    def strided(v):  # every other entry of a larger buffer: not contiguous
        buf = np.zeros(2 * n, dtype=complex)
        buf[::2] = A @ v
        return buf[::2]

    ref = gmres(A, b, x0=x0, tol=1e-10, max_iter=n)
    out = gmres(strided, b, x0=x0, tol=1e-10, max_iter=n)
    assert out.converged and out.iterations == ref.iterations
    np.testing.assert_allclose(out.residual_history, ref.residual_history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(out.solution, ref.solution, rtol=1e-12)
    assert out.orthogonality_loss == pytest.approx(ref.orthogonality_loss, abs=1e-15)


# --------------------------------------------------------------------------
# generalized_eig


def test_generalized_eig_equal_matrices():
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = Q @ Q.conj().T + 6 * np.eye(6)
    pairs = generalized_eig(M, M)
    np.testing.assert_allclose(pairs.values, 1.0, atol=1e-10)


def test_generalized_eig_diagonal_sorted():
    pairs = generalized_eig(np.diag([3.0, 1.0, 2.0]), np.eye(3))
    np.testing.assert_allclose(pairs.values.real, [1.0, 2.0, 3.0], atol=1e-12)


def test_generalized_eig_characteristic_polynomial_oracle():
    rng = np.random.default_rng(4)
    S = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    Q = rng.standard_normal((8, 8))
    M = Q @ Q.T + 8 * np.eye(8)
    pairs = generalized_eig(S, M)
    bound = 1e-6 * np.linalg.norm(S) ** 8
    for lam in pairs.values:
        assert abs(np.linalg.det(S - lam * M)) <= bound


def test_generalized_eig_residual_invariant():
    rng = np.random.default_rng(8)
    S = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    Q = rng.standard_normal((10, 10))
    M = Q @ Q.T + 10 * np.eye(10)
    pairs = generalized_eig(S, M)
    for lam, v in zip(pairs.values, pairs.vectors.T):
        resid = np.linalg.norm(S @ v - lam * (M @ v))
        assert resid <= 1e-8 * (np.linalg.norm(S) + abs(lam) * np.linalg.norm(M))


def test_generalized_eig_rejects_bad_mass():
    S = np.eye(3, dtype=complex)
    with pytest.raises(ValueError):
        generalized_eig(S, np.diag([1.0, -1.0, 1.0]))  # indefinite
    with pytest.raises(ValueError):
        M = np.eye(3) + np.triu(np.ones((3, 3)), 1)  # not Hermitian
        generalized_eig(S, M)
    with pytest.raises(ValueError):
        generalized_eig(S, np.eye(4))


def test_gmres_refuses_a_krylov_basis_larger_than_memory():
    # (max_iter+1) * n * 16 bytes is about 64 TB here; nothing of it is allocated
    A = sp.eye(4, format="csr", dtype=complex)
    with pytest.raises(MemoryError, match="Krylov basis"):
        gmres(A, np.ones(4, dtype=complex), max_iter=10**12)
