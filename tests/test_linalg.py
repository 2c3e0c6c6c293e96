import io
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helmdd import linalg, pool
from helmdd.assembly import HelmholtzParams, assemble_global, assemble_rhs, assemble_subdomain
from helmdd.decomposition import build_decomposition
from helmdd.linalg import (
    FactorizationError,
    factorize,
    generalized_eig,
    gmres,
    random_initial_guess,
)
from helmdd.mesh import build_uniform_mesh, fine_resolution
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
    # a saddle-point matrix [[H, C], [C^T, 0]]: 10 zero diagonal entries, so the
    # symmetric-mode factorization must take off-diagonal pivots there
    rng = np.random.default_rng(5)
    H = sp.random(20, 20, density=0.2, random_state=np.random.RandomState(5))
    H = H + H.T + 4 * sp.eye(20)
    C = sp.random(20, 10, density=0.3, random_state=np.random.RandomState(6)) + sp.eye(20, 10)
    A = sp.bmat([[H, C], [C.T, None]], format="csc").astype(np.complex128)
    assert (A.diagonal()[20:] == 0).all()
    b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    lu = factorize(A)
    assert (lu._lu.perm_r != lu._lu.perm_c).any()  # rows and columns permuted apart
    x = lu.solve(b)
    x_oracle = np.linalg.solve(A.toarray(), b)
    assert np.abs(x - x_oracle).max() <= 1e-10 * np.abs(x_oracle).max()


def _dense_oracle_error(A, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    x_oracle = np.linalg.solve(A.toarray(), b)
    return np.abs(factorize(A).solve(b) - x_oracle).max() / np.abs(x_oracle).max()


def test_factorize_class_robin_matrix_against_dense_solve():
    # the largest class of a 3d k = 6 decomposition: an interior box, Robin on every side
    k = 6.0
    mesh = build_uniform_mesh(3, fine_resolution(k, 3))
    sub = max(build_decomposition(mesh, 3).classes, key=lambda c: c.dofs.shape[1])
    A = assemble_subdomain(mesh, sub, HelmholtzParams(k=k, epsilon=k)).A_local
    assert A.shape == (1000, 1000)
    assert _dense_oracle_error(A, 0) <= 1e-10


def test_factorize_dtn_coarse_matrix_against_dense_solve():
    ctx = SolverContext(SolveConfig(dim=2, k=10.0, alpha=1.0, precon="two_level_dtn"))
    Z = ctx.precon.coarse.Z
    E = (Z.conj().T @ (ctx.precon.A_eps @ Z)).tocsc()
    # E = Z* A_eps Z has A_eps's symmetric pattern but not symmetric values
    pattern = (E != 0).astype(np.int8)
    assert (pattern != pattern.T).nnz == 0
    assert abs(E - E.T).max() > 1e-3 * abs(E).max()
    assert _dense_oracle_error(E, 1) <= 1e-10


class _PerturbedLU:
    """A SuperLU handle whose solutions are off by a relative delta.

    It has no L or U: factorize must not read them, since SciPy then keeps a
    CSC copy of both factors alive with the handle.
    """

    def __init__(self, lu, delta):
        self._lu, self._delta = lu, delta
        self.nnz = lu.nnz

    def solve(self, b):
        return self._lu.solve(b) * (1 + self._delta)


@pytest.mark.parametrize("delta,raises", [(1e-8, True), (1e-13, False)])
def test_factorize_guard_checks_the_backward_error(monkeypatch, delta, raises):
    splu = linalg.spla.splu
    monkeypatch.setattr(linalg.spla, "splu", lambda *a, **kw: _PerturbedLU(splu(*a, **kw), delta))
    A = random_sparse(30, np.random.default_rng(4))
    if raises:
        with pytest.raises(FactorizationError, match="backward error"):
            factorize(A)
    else:
        factorize(A)


def test_factorize_fill_counts_the_factors(monkeypatch):
    mesh = build_uniform_mesh(2, 12)
    A = assemble_global(mesh, HelmholtzParams(k=8.0, epsilon=8.0))
    handles = []
    splu = linalg.spla.splu

    def keep(*args, **kwargs):
        handles.append(splu(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(linalg.spla, "splu", keep)
    first, second = factorize(A), factorize(A)
    assert first.fill == handles[0].L.nnz + handles[0].U.nnz
    assert second.fill == first.fill > A.nnz


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        random_initial_guess(3, -1)


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
    b = assemble_rhs(mesh)
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
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            gmres(A, b, x0=x0, max_iter=max_iter)


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


def test_gmres_matches_numpy_mgs_oracle_on_one_level_oras(monkeypatch):
    monkeypatch.setattr(linalg, "S_STEP_PREFIX", 200)  # single steps only, up to max_iter
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
    # the diagnostic is max_i |<v_i, v_{m-1}>| of the basis gmres built: measured 7e-17
    # for its CGS2 steps, where the oracle's MGS basis has lost 7e-10
    loss = np.abs(basis[:-1].conj() @ basis[-1]).max()
    assert out.orthogonality_loss == pytest.approx(loss, rel=0, abs=1e-12)
    assert 0 < out.orthogonality_loss < 1e-12
    assert np.abs(V[:-1].conj() @ V[-1]).max() < 1e-8


def test_gmres_single_steps_keep_the_basis_orthogonal(monkeypatch):
    # the first 64 steps of the 87-step 2d k = 20, alpha = 0.8 one_level solve, all of them
    # single steps; modified Gram-Schmidt with a reorthogonalization threshold lost 1.7e-7 here
    monkeypatch.setattr(linalg, "S_STEP_PREFIX", 64)
    ctx = SolverContext(SolveConfig(dim=2, k=20.0, alpha=0.8, precon="one_level"))
    x0 = random_initial_guess(ctx.n, 0)
    out = gmres(ctx.A0, ctx.f, apply_M=ctx.precon.apply, x0=x0, tol=1e-6, max_iter=64)
    assert not out.converged and out.iterations == 64
    assert out.orthogonality_loss <= 1e-12


def test_gmres_second_pass_on_a_near_identity_operator():
    # w = A v_j is v_j plus 1e-3 of new direction: the first pass cancels more
    # than two orders of magnitude of ||w||, and the second pass restores the rest
    rng = np.random.default_rng(12)
    n = 50
    A = np.eye(n) + 1e-3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = gmres(A, b, tol=1e-12, max_iter=n)
    assert out.converged and out.iterations >= 2
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
# gmres after the prefix of single steps: s-step blocks


def record_single_steps(monkeypatch):
    """Basis sizes j+1 of the one-row projections gmres makes from now on (two per
    single step); every projection, one row or a block, must sweep the basis in
    chunks of 8,192 columns."""
    sizes, cuts = [], []
    project_out, blocks = linalg._project_out, pool.blocks

    def recorded(basis, block):
        cuts.clear()
        coef = project_out(basis, block)
        n = basis.shape[1]
        assert [[c.stop - c.start for c in cut] for cut in cuts] == [
            [min(8192, n - lo) for lo in range(0, n, 8192)]
        ]
        if len(block) == 1:
            sizes.append(len(basis))
        return coef

    def recorded_blocks(count, item_bytes):
        cuts.append(blocks(count, item_bytes))
        return cuts[-1]

    monkeypatch.setattr(linalg, "_project_out", recorded)
    monkeypatch.setattr(pool, "blocks", recorded_blocks)
    return sizes


def circle_spectrum(distinct, radius, repeats=1):
    """Diagonal of a normal operator: `distinct` points evenly on |z - 1| = radius."""
    points = 1.0 + radius * np.exp(2j * np.pi * np.arange(distinct) / distinct)
    return np.repeat(points, repeats)


def test_gmres_blocks_match_the_numpy_mgs_oracle_on_one_level_oras(monkeypatch):
    ctx = SolverContext(SolveConfig(dim=2, k=20.0, alpha=0.8, precon="one_level"))
    x0 = random_initial_guess(ctx.n, 0)  # the solver's guess: 87 steps, 7 blocks
    single_steps = record_single_steps(monkeypatch)
    out = gmres(ctx.A0, ctx.f, apply_M=ctx.precon.apply, x0=x0, tol=1e-6, max_iter=200)
    H, V, history = mgs_arnoldi_oracle(ctx.A0, ctx.precon.apply, ctx.f, x0, 1e-6, 200)
    m = out.iterations
    assert out.converged and m == H.shape[1] == 87
    assert max(single_steps) == linalg.S_STEP_PREFIX  # every later step came from a block
    # kappa_1 of its 7 blocks is measured at 73 for the second, 110 to 406 for the others
    assert out.s_step_blocks == {"one_projection": 1, "two_projections": 6, "dropped": 0}
    # at most 7 products past the last step, plus the initial residual's
    assert m + 1 <= out.operator_applies <= m + 8
    # the history falls from 2.4e5 to 1e-6 of ||b||: measured 1.8e-7 relative at most
    np.testing.assert_allclose(out.residual_history, history, rtol=1e-6, atol=0)
    beta_e1 = np.zeros(m + 1, dtype=complex)
    beta_e1[0] = np.linalg.norm(ctx.f - ctx.A0 @ x0)
    y = np.linalg.lstsq(H, beta_e1, rcond=None)[0]
    x = x0 + ctx.precon.apply(y @ V)
    # measured 3.4e-11; the oracle's own MGS basis has lost orthogonality to 1.7e-4
    assert np.linalg.norm(out.solution - x) <= 1e-9 * np.linalg.norm(x)
    assert out.orthogonality_loss <= 1e-12


def test_block_sweeps_over_column_chunks_match_the_dense_products(monkeypatch):
    # 1,037 columns in chunks of 100 (BLOCK_BYTES = 16 * 8 * 100): ten full chunks and
    # one of 37 for a block of 8 rows and for the one row of a single step alike,
    # summed in the same order for any worker count
    monkeypatch.setattr(pool, "BLOCK_BYTES", 16 * 8 * 100)
    rng = np.random.default_rng(8)
    n, rows, s = 1037, 30, 8
    V = rng.standard_normal((rows + s, n)) + 1j * rng.standard_normal((rows + s, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    basis = V[:rows]
    oracle = basis.conj() @ V[rows:].T  # C = V^H P with the basis vectors as columns
    results = {}
    plan, plans = pool._plan, []

    def recorded_plan(work, workers):
        plans.append((work, plan(work, workers)))
        return plans[-1][1]

    monkeypatch.setattr(pool, "_plan", recorded_plan)
    for workers in (1, 2, 3):
        monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", workers)
        for p in (s, 1):
            block = V[rows : rows + p].copy()
            plans.clear()
            coef = linalg._project_out(basis, block)
            assert len(plans) == 2  # one plan for each product
            for work, shares in plans:
                assert work == [100] * 10 + [37]
                assert len(shares) == workers and sorted(sum(shares, [])) == list(range(11))
            np.testing.assert_allclose(coef, oracle[:, :p], rtol=0, atol=1e-13)
            expected = V[rows : rows + p] - oracle[:, :p].T @ basis
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-13)
            results.setdefault(p, []).append(coef.tobytes() + block.tobytes())
    assert all(r[1] == r[0] and r[2] == r[0] for r in results.values())


@pytest.mark.parametrize("split", [0.0, 1e-9])
def test_gmres_drops_a_block_its_cholesky_qr_cannot_take(monkeypatch, split):
    # with the prefix pinned at 64 steps, split 0: 68 distinct eigenvalues, so the Krylov
    # space stops growing at dimension 68, the block at step 64 has only 3 new directions for
    # 8 vectors and its Cholesky factorization fails.  split 1e-9: 136 distinct eigenvalues
    # in 68 close pairs; the block's Cholesky factor exists but its condition number, about
    # 2e8, is over the bound.  (After a 32-step prefix both blocks fail their Cholesky.)
    monkeypatch.setattr(linalg, "S_STEP_PREFIX", 64)
    points = circle_spectrum(68, 0.9)
    d = np.concatenate([points, points + split])
    rng = np.random.default_rng(3)
    b = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    single_steps = record_single_steps(monkeypatch)
    out = gmres(lambda v: d * v, b, max_iter=100)
    assert out.converged and out.iterations == 68 and len(out.residual_history) == 69
    assert {s for s in single_steps if s > linalg.S_STEP_PREFIX} == {65, 66, 67, 68}  # steps 64..67
    assert out.s_step_blocks == {"one_projection": 0, "two_projections": 0, "dropped": 1}
    # the dropped block reuses its first product for step 64 and wastes the other 7
    assert out.operator_applies == 1 + 68 + 7
    # from the fallback on, the steps are single steps: the same bits as a solve without blocks
    monkeypatch.setattr(linalg, "S_STEP_PREFIX", 10**6)
    single = gmres(lambda v: d * v, b, max_iter=100)
    assert single.operator_applies == 1 + 68
    assert sum(single.s_step_blocks.values()) == 0
    np.testing.assert_array_equal(out.residual_history, single.residual_history)
    np.testing.assert_array_equal(out.solution, single.solution)


def test_gmres_stops_at_max_iter_inside_a_block(monkeypatch):
    d = circle_spectrum(200, 0.95)  # residual about 0.95^j: far from 1e-6 at step 70
    rng = np.random.default_rng(4)
    b = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
    single_steps = record_single_steps(monkeypatch)
    out = gmres(lambda v: d * v, b, max_iter=70)
    assert not out.converged and out.iterations == 70 and len(out.residual_history) == 71
    assert max(single_steps) == linalg.S_STEP_PREFIX  # the last block, steps 64..69, has 6
    assert out.operator_applies == 1 + 70
    assert out.orthogonality_loss <= 1e-12
    true_residual = np.linalg.norm(b - d * out.solution) / np.linalg.norm(b)
    assert true_residual == pytest.approx(out.residual_history[-1], rel=1e-8)


def test_gmres_blocks_accept_a_strided_operator_result(monkeypatch):
    rng = np.random.default_rng(6)
    n = 160
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = 1.15 * np.eye(n) + G / np.sqrt(2 * n)  # 79 steps to 1e-10
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x0 = random_initial_guess(n, 1)

    def strided(v):  # every other entry of a larger buffer: not contiguous
        buf = np.zeros(2 * n, dtype=complex)
        buf[::2] = A @ v
        return buf[::2]

    single_steps = record_single_steps(monkeypatch)
    ref = gmres(A, b, x0=x0, tol=1e-10, max_iter=n)
    assert ref.converged and ref.iterations > linalg.S_STEP_PREFIX + linalg.S_STEP_BLOCK
    assert max(single_steps) == linalg.S_STEP_PREFIX
    out = gmres(strided, b, x0=x0, tol=1e-10, max_iter=n)
    assert out.converged and out.iterations == ref.iterations
    assert out.operator_applies == ref.operator_applies
    np.testing.assert_allclose(out.residual_history, ref.residual_history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(out.solution, ref.solution, rtol=1e-12)
    assert out.orthogonality_loss == pytest.approx(ref.orthogonality_loss, abs=1e-15)


def random_operator(n, s, seed):
    """A random n x n operator and the first s Leja points of its spectrum."""
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2 * n)
    return rng, A, linalg._leja_order(np.linalg.eigvals(A))[:s]


def counted_operator(A):
    """x -> A x, and the list its calls append to."""
    calls = []

    def apply(x):
        calls.append(1)
        return A @ x

    return apply, calls


@pytest.mark.parametrize("near", [None, 1e-5])
def test_newton_block_projects_a_second_time_only_a_block_near_the_basis(monkeypatch, near):
    # a random operator, shifted at the Leja points of its spectrum: kappa_1 =
    # sqrt(8) / sigma_min(R_1) is about 16 and one projection keeps the block orthogonal to
    # the basis.  With p_3 inside span(V) but for `near` of its norm, kappa_1 is about 3e5:
    # one projection alone would leave about 4e-11 of the basis in the block
    n, j, s = 300, 12, linalg.S_STEP_BLOCK
    rng, A, shifts = random_operator(n, s, 21)
    raw = rng.standard_normal((j + 1, n)) + 1j * rng.standard_normal((j + 1, n))
    v = raw[j] / np.linalg.norm(raw[j])
    if near is not None:
        p = v
        for theta in shifts[:3]:  # p_3 of the Newton basis from v
            p = A @ p - theta * p
            p /= np.linalg.norm(p)
        raw[0] = p + near * raw[0] / np.linalg.norm(raw[0])
    Q = np.linalg.qr(np.vstack([v, raw[:j]]).T)[0].T  # orthonormal rows, Q[0] = v up to phase
    V = np.zeros((j + s + 1, n), dtype=complex)
    V[:j], V[j] = Q[1:], Q[0]
    calls = []
    project_out = linalg._project_out

    def counted(basis, block):
        calls.append(block.shape)
        return project_out(basis, block)

    monkeypatch.setattr(linalg, "_project_out", counted)
    H = np.zeros((j + s + 1, j + s), dtype=complex)
    apply, applies = counted_operator(A)
    w = A @ V[j]
    first = w.copy()
    projections = linalg._newton_block(apply, V, H, j, w, shifts)
    expected = 1 if near is None else 2
    assert projections == expected and calls == [(s, n)] * expected
    assert len(applies) == s - 1  # the first product is the caller's, and it is left as it was
    np.testing.assert_array_equal(w, first)
    basis, block = V[: j + 1], V[j + 1 :]
    assert np.linalg.norm(basis.conj() @ block.T, 2) <= 1e-13
    assert np.linalg.norm(block.conj() @ block.T - np.eye(s), 2) <= 1e-13


def test_newton_block_writes_columns_that_satisfy_the_arnoldi_relation():
    # V[:j+1] and H[:j+1, :j] from j CGS2 Arnoldi steps of the same operator, so that
    # A V[:j]^T = V[:j+1]^T H[:j+1, :j] holds for the columns before the block
    n, j, s = 300, 12, linalg.S_STEP_BLOCK
    rng, A, shifts = random_operator(n, s, 22)
    V = np.zeros((j + s + 1, n), dtype=complex)
    H = np.zeros((j + s + 1, j + s), dtype=complex)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V[0] = v0 / np.linalg.norm(v0)
    for k in range(j):
        w = A @ V[k]
        for _ in range(2):
            c = V[: k + 1].conj() @ w
            H[: k + 1, k] += c
            w -= c @ V[: k + 1]
        H[k + 1, k] = np.linalg.norm(w)
        V[k + 1] = w / H[k + 1, k]
    prefix = H[:, :j].copy()
    apply, applies = counted_operator(A)
    assert linalg._newton_block(apply, V, H, j, A @ V[j], shifts) in (1, 2)
    assert len(applies) == s - 1
    np.testing.assert_array_equal(H[:, :j], prefix)  # only the block's s columns are written
    lhs = A @ V[j : j + s].T
    rhs = V[: j + s + 1].T @ H[: j + s + 1, j : j + s]
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)
    assert np.linalg.norm(V.conj() @ V.T - np.eye(j + s + 1), 2) <= 1e-13


def test_newton_block_drops_a_block_without_writing_a_column():
    # A = I with a first shift of 1: p_1 = (A - 1) v_j = 0, so sigma_1 = 0 and the block is
    # dropped.  GMRES's single step then adds its projections into the same column j of H
    n, j, s = 50, 4, linalg.S_STEP_BLOCK
    V = np.linalg.qr(np.random.default_rng(23).standard_normal((n, j + s + 1)))[0].T.astype(complex)
    H = np.zeros((j + s + 1, j + s), dtype=complex)
    shifts = np.concatenate([[1.0], np.linspace(2.0, 3.0, s - 1)])
    apply, applies = counted_operator(np.eye(n))
    assert linalg._newton_block(apply, V, H, j, V[j].copy(), shifts) == 0
    assert not applies and not H.any()


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


def assert_eig_matches_qz(S, M, k):
    """generalized_eig against QZ on the pencil itself (scipy.linalg.eigvals(S, M)):
    sorted eigenvalues within 1e-10 of the largest, and the same count below Re = k."""
    ours = generalized_eig(S, M).values
    qz = scipy.linalg.eigvals(S, M)
    qz = qz[np.lexsort((qz.imag, qz.real))]
    assert np.abs(ours - qz).max() <= 1e-10 * np.abs(qz).max()
    assert (ours.real < k).sum() == (qz.real < k).sum()


def test_generalized_eig_matches_qz():
    rng = np.random.default_rng(12)
    n = 40
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q = rng.standard_normal((n, n))
    M = Q @ Q.T + n * np.eye(n)  # dense SPD
    assert_eig_matches_qz(S, M, k=0.0)


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
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < linalg._available_memory() <= physical


def fake_memory(monkeypatch, available_kb, meminfo=True):
    """4 GiB of physical memory of which available_kb are available, read from
    a fake /proc/meminfo or, without one, from the free pages of sysconf."""
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**20, "SC_AVPHYS_PAGES": available_kb // 4}
    monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])
    if meminfo:
        fake = (f"MemTotal:       4194304 kB\nMemFree:        4000000 kB\n"
                f"MemAvailable:   {available_kb} kB\n")
        monkeypatch.setattr(linalg, "open", lambda *a, **kw: io.StringIO(fake), raising=False)
    else:

        def missing(*args, **kwargs):
            raise FileNotFoundError("/proc/meminfo")

        monkeypatch.setattr(linalg, "open", missing, raising=False)


def circle_solve(distinct, radius, n):
    """A normal operator with `distinct` eigenvalues on |z - 1| = radius, repeated
    to size n, and a random right-hand side: the residual falls like radius^j."""
    d = circle_spectrum(distinct, radius, n // distinct)
    rng = np.random.default_rng(7)
    return (lambda v: d * v), rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("meminfo", [True, False])
def test_gmres_runs_a_basis_larger_than_the_available_memory_whose_stretches_fit(
    monkeypatch, meminfo
):
    # 1 MiB available: the full basis (n = 1000, max_iter = 99) is 1.6 MB, but the
    # solve's 20 steps commit 3 stretches of 8 rows, 128 KiB each, one at a time
    fake_memory(monkeypatch, 1024, meminfo)
    assert linalg._available_memory() == 2**20
    A, b = circle_solve(20, 0.5, 1000)
    assert 99 * 1000 * 16 > 2**20
    out = gmres(A, b, max_iter=99)
    assert out.converged and 16 < out.iterations <= 20


@pytest.mark.parametrize(
    "checks, steps, distinct",
    [(2, 16, 20), (9, 64, 200)],  # the third stretch of single steps; the block at step 64
)
def test_gmres_stops_where_a_stretch_of_the_basis_does_not_fit(
    monkeypatch, checks, steps, distinct
):
    # the memory shrinks to 64 KiB after `checks` stretches of 128 KiB: the solve
    # raises after `steps` steps and writes no row of V past the last stretch checked
    n, max_iter, calls = 1000, 99, []

    def available():
        calls.append(1)
        return 2**20 if len(calls) <= checks else 2**16

    monkeypatch.setattr(linalg, "_available_memory", available)
    bases, empty = [], np.empty

    def marked(*args, **kwargs):  # the basis comes filled with 0xFF bytes
        a = empty(*args, **kwargs)
        if a.shape == (max_iter + 1, n):
            a.view(np.uint8).fill(0xFF)
            bases.append(a)
        return a

    monkeypatch.setattr(np, "empty", marked)
    A, b = circle_solve(distinct, 0.5 if distinct == 20 else 0.95, n)
    rows = 8 * checks
    stop = f"after {steps} of {max_iter} steps.* rows {rows}..{rows + 7} "
    with pytest.raises(MemoryError, match=stop):
        gmres(A, b, max_iter=max_iter)
    (V,) = bases
    written = (V.view(np.uint8) != 0xFF).any(axis=1)
    assert written[:steps].all() and not written[rows:].any()
