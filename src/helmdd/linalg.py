"""Numerical kernels: sparse LU, right-preconditioned GMRES, dense generalized eig.

Every sparse LU goes through ``factorize``: SuperLU in symmetric mode, with a
minimum-degree ordering of the pattern of A + A^T (or the caller's own order,
the 3d local problems' nested dissection) and threshold pivoting that prefers
the diagonal (``diag_pivot_thresh`` 0.1).  All matrices factorized here
(local Robin problems, DtN interior blocks, Galerkin coarse matrices) have a
symmetric sparsity pattern.  Threshold pivoting is weaker than partial
pivoting, so each factorization checks its own backward error on one solve
with a fixed right-hand side and raises ``FactorizationError`` above 1e-10.

GMRES is unrestarted (full Krylov basis up to max_iter) and s-step after a
prefix.  Its first S_STEP_PREFIX = 64 steps are modified Gram-Schmidt (MGS)
Arnoldi steps, with a single reorthogonalization pass when the candidate basis
vector loses more than two orders of magnitude in norm.  Each Gram-Schmidt row
is one BLAS-1 ``zdotc`` and one in-place ``zaxpy`` on the preallocated basis.
A solve of at most 64 steps is therefore exactly the MGS solve.  Later steps
come in blocks of S_STEP_BLOCK = 8 (Hoemmen, *Communication-avoiding Krylov
subspace methods*, PhD thesis, UC Berkeley 2010):

- the 8 block vectors are a Newton basis p_i = (A M^{-1} - theta_i) p_{i-1} /
  sigma_i from p_0 = v_j, written straight into the basis's next rows.  The
  shifts theta_i are the first 8 Leja points of the Ritz values of the
  prefix's Hessenberg matrix (Bai, Hu & Reichel, IMA J. Numer. Anal. 14,
  1994);
- the block is projected off the basis twice, C = V^H P and P -= V C by
  in-place ``zgemm``, and made orthonormal by a Cholesky QR after each
  projection, an in-place ``ztrsm`` (BCGS2 with CholQR2; Barlow &
  Smoktunowicz, Numer. Math. 123, 2013);
- the block's 8 Hessenberg columns are recovered from the change of basis
  and fed one at a time through the same Givens update and residual test as
  an MGS step, so the solve stops at the step the residual says.

A block reads the basis 4 times where 8 MGS steps read it 16 times, and
makes at most 7 products with A M^{-1} beyond the last step.  If a block's
Cholesky QR fails (a rank-deficient or ill-conditioned block), the block is
dropped and the solve ends with MGS steps.  The residual history is the exact
least-squares residual of the Arnoldi problem, which for right
preconditioning equals the true residual of the original system, reported
relative to ||b||.  The diagnostic ``GmresOutcome.orthogonality_loss`` is
max_i |<v_i, v_{m-1}>| over the m basis vectors that form the solution, one
matrix-vector product at exit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import zaxpy, zdotc, zgemm, ztrsm

__all__ = [
    "FactorizationError",
    "SparseFactorization",
    "GmresOutcome",
    "EigenPairs",
    "factorize",
    "gmres",
    "random_initial_guess",
    "generalized_eig",
]


class FactorizationError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class SparseFactorization:
    """LU factorization handle; immutable and safe for concurrent solves.

    fill is SuperLU's count of stored entries of the factors.  On every
    factorization this package makes (symmetric patterns) it equals
    L.nnz + U.nnz; it is read from the handle because reading L and U makes
    SciPy keep a CSC copy of both factors for the handle's lifetime.
    """

    fill: int
    _lu: object

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.complex128))


BACKWARD_ERROR_TOL = 1e-10


def factorize(A, *, keep_order: bool = False) -> SparseFactorization:
    """Sparse LU of a square complex matrix with a checked backward error.

    SuperLU runs in symmetric mode: minimum degree on the pattern of A + A^T
    (``MMD_AT_PLUS_A``), or with keep_order the order A is given in
    (``NATURAL``), and a diagonal pivot unless an off-diagonal entry is ten
    times larger.  The factors then solve A x = b for b = A x_t with a
    fixed x_t; a relative residual ||A x - b|| / ||b|| above 1e-10 raises
    FactorizationError.
    """
    A = sp.csc_matrix(A, dtype=np.complex128)
    if A.shape[0] != A.shape[1]:
        raise FactorizationError(f"matrix must be square, got shape {A.shape}")
    nnz_per_row = np.diff(A.tocsr().indptr)
    empty = np.flatnonzero(nnz_per_row == 0)
    if empty.size:
        raise FactorizationError(f"structurally singular: row {empty[0]} is empty")
    empty_col = np.flatnonzero(np.diff(A.indptr) == 0)
    if empty_col.size:
        raise FactorizationError(f"structurally singular: column {empty_col[0]} is empty")
    try:
        lu = spla.splu(
            A,
            permc_spec="NATURAL" if keep_order else "MMD_AT_PLUS_A",
            diag_pivot_thresh=0.1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise FactorizationError(f"singular pivot during factorization: {exc}") from exc
    b = A @ random_initial_guess(A.shape[0], 0)
    error = np.linalg.norm(A @ lu.solve(b) - b) / np.linalg.norm(b)
    if not error <= BACKWARD_ERROR_TOL:  # also catches a NaN from a breakdown
        raise FactorizationError(
            f"backward error {error:.2e} of the LU solve exceeds {BACKWARD_ERROR_TOL:g}"
        )
    return SparseFactorization(fill=int(lu.nnz), _lu=lu)


def random_initial_guess(n: int, seed: int) -> np.ndarray:
    """Complex vector with re/im parts i.i.d. uniform on [-1, 1], from PCG64(seed)."""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    re = rng.uniform(-1.0, 1.0, n)
    im = rng.uniform(-1.0, 1.0, n)
    return re + 1j * im


@dataclass
class GmresOutcome:
    solution: np.ndarray
    iterations: int
    residual_history: np.ndarray
    converged: bool
    breakdown: bool = False
    orthogonality_loss: float = 0.0  # max_i |<v_i, v_{m-1}>|; 0.0 when m <= 1
    operator_applies: int = 0  # products with A, the initial residual's included


def _as_operator(op):
    if callable(op):
        return op
    return lambda v: op @ v


def _mgs_pass(V: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Orthogonalize w against the rows of V by modified Gram-Schmidt, adding the
    coefficients to h; w is updated in place when it is a contiguous complex vector."""
    for i in range(V.shape[0]):
        c = zdotc(V[i], w)
        h[i] += c
        w = zaxpy(V[i], w, a=-c)
    return w


S_STEP_PREFIX = 64  # MGS steps before the first block; their Ritz values give the shifts
S_STEP_BLOCK = 8  # Krylov vectors per block
# A block whose Cholesky QR factor is worse conditioned than this is dropped.  Below it the
# first Cholesky QR leaves at most about eps * cond^2 = 1e-4 of orthogonality for the second
# to remove.  The largest measured on the 2d k <= 40 solves is 1.7e5 (grid, alpha = 0.6).
CHOLQR_MAX_COND = 1e6


def _leja_order(points: np.ndarray) -> np.ndarray:
    """points in Leja order: the largest in modulus first, then each time the point
    with the largest product of distances to those already taken."""
    order = [int(np.argmax(np.abs(points)))]
    log_distance = np.zeros(len(points))
    for _ in range(len(points) - 1):
        with np.errstate(divide="ignore"):  # a point taken is at distance 0 of itself
            log_distance += np.log(np.abs(points - points[order[-1]]))
        order.append(int(np.argmax(log_distance)))
    return points[order]


def _newton_block(A, M, V: np.ndarray, H: np.ndarray, j: int, shifts: np.ndarray):
    """One s-step Arnoldi block after v_j = V[j], with s = len(shifts).

    Writes the Newton basis p_i = (A M^{-1} - theta_i) p_{i-1} / sigma_i,
    p_0 = v_j, into V[j+1 : j+s+1] and makes it orthonormal to V[:j+1] and
    within itself in place: two passes of C = V^H P, P -= V C, each followed by
    a Cholesky QR.  So [v_j, p_1..p_s] = V[:j+s+1] R, where R's first column is
    e_j and its rows j.. are upper triangular, and A M^{-1} [v_j, p_1..p_{s-1}]
    = [v_j, p_1..p_s] N with N bidiagonal (theta_i on the diagonal, sigma_i
    below).  With H the unrotated Hessenberg matrix of steps 0..j-1, the new
    columns j..j+s-1 are (R N - [H[:j+1, :j] R[:j, :s]; 0]) R[j:j+s, :s]^{-1}.

    Returns those (j+s+1) x s columns, or None when a Cholesky factorization
    fails, a factor's condition number exceeds CHOLQR_MAX_COND or a sigma_i is
    0, and the first product A M^{-1} v_j either way.
    """
    s = len(shifts)
    sigma = np.empty(s)
    for i in range(s):
        z = M(V[j + i]) if M is not None else V[j + i].copy()
        w = np.asarray(A(z), dtype=np.complex128)
        if i == 0:
            first = w
        p = V[j + i + 1]
        np.multiply(V[j + i], -shifts[i], out=p)
        p += w
        sigma[i] = np.linalg.norm(p)
        if not 0.0 < sigma[i] < math.inf:
            return None, first
        p /= sigma[i]

    basis = V[: j + 1].T  # n x (j+1) and n x s in Fortran order: no BLAS call copies them
    P = V[j + 1 : j + s + 1].T
    C = np.zeros((j + 1, s), dtype=np.complex128)
    R_S = np.eye(s, dtype=np.complex128)
    for _ in range(2):
        coef = zgemm(1.0, basis, P, trans_a=2)
        zgemm(-1.0, basis, coef, beta=1.0, c=P, overwrite_c=1)
        try:
            R = scipy.linalg.cholesky(zgemm(1.0, P, P, trans_a=2))
        except np.linalg.LinAlgError:
            return None, first
        if not np.linalg.cond(R) <= CHOLQR_MAX_COND:
            return None, first
        ztrsm(1.0, R, P, side=1, overwrite_b=1)
        C += coef @ R_S
        R_S = R @ R_S

    Rhat = np.zeros((j + s + 1, s + 1), dtype=np.complex128)
    Rhat[j, 0] = 1.0
    Rhat[: j + 1, 1:] = C
    Rhat[j + 1 :, 1:] = R_S
    N = np.zeros((s + 1, s), dtype=np.complex128)
    steps = np.arange(s)
    N[steps, steps] = shifts
    N[steps + 1, steps] = sigma
    Y = Rhat @ N
    Y[: j + 1] -= H[: j + 1, :j] @ Rhat[:j, :s]
    columns = scipy.linalg.solve_triangular(Rhat[j : j + s, :s], Y.T, trans="T").T
    return columns, first


def _available_memory() -> int:
    """Bytes of memory the process can still get without swapping.

    MemAvailable of /proc/meminfo (free memory plus the page cache the kernel
    can reclaim); where that is missing, the free pages of sysconf.
    """
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_AVPHYS_PAGES")


def gmres(
    apply_A,
    b: np.ndarray,
    apply_M=None,
    x0: np.ndarray | None = None,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> GmresOutcome:
    """Unrestarted right-preconditioned GMRES on A M^{-1}, returning x = M^{-1} y.

    apply_A / apply_M are callables (or matrices) applying A and the
    preconditioner M^{-1}.  Iteration count is the number of Arnoldi steps;
    residuals are relative to ||b||.  Steps past S_STEP_PREFIX come from s-step
    blocks (see the module docstring).  The Krylov basis takes (max_iter+1) * n * 16
    bytes; a basis larger than the memory still available (_available_memory)
    is refused with MemoryError before anything is allocated.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    operator = _as_operator(apply_A)
    M = _as_operator(apply_M) if apply_M is not None else None
    applies = 0

    def A(v):
        nonlocal applies
        applies += 1
        return operator(v)

    b = np.asarray(b, dtype=np.complex128)
    n = b.size
    basis_bytes = (max_iter + 1) * n * 16
    available = _available_memory()
    if basis_bytes > available:
        raise MemoryError(
            f"GMRES Krylov basis of (max_iter+1) x n = {max_iter + 1} x {n} complex vectors "
            f"needs {basis_bytes / 2**30:.3g} GiB, more than the {available / 2**30:.3g} GiB "
            f"of memory available; lower max_iter"
        )
    x0 = np.zeros(n, dtype=np.complex128) if x0 is None else np.asarray(x0, dtype=np.complex128)
    if x0.size != n:
        raise ValueError(f"x0 has size {x0.size}, expected {n}")

    norm_b = np.linalg.norm(b)
    r0 = b - A(x0)
    beta = np.linalg.norm(r0)
    ref = norm_b if norm_b > 0 else 1.0

    history = [beta / ref]
    if history[0] <= tol:
        return GmresOutcome(x0.copy(), 0, np.asarray(history), True, operator_applies=applies)

    H = np.zeros((max_iter + 1, max_iter), dtype=np.complex128)
    H_arnoldi = np.zeros_like(H)  # H before the Givens rotations, for the shifts and the blocks
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter, dtype=np.complex128)
    g = np.zeros(max_iter + 1, dtype=np.complex128)
    g[0] = beta

    V = np.empty((max_iter + 1, n), dtype=np.complex128)  # rows are touched as used
    V[0] = r0 / beta

    m = 0
    converged = False
    breakdown = False
    shifts = None
    s_step = True  # until a block's Cholesky QR fails
    block_start = block_end = 0  # steps whose columns the current block holds
    for j in range(max_iter):
        w = None
        if s_step and j >= max(block_end, S_STEP_PREFIX):
            if shifts is None:  # Ritz values: the eigenvalues of the pencil (H, I)
                H_prefix = H_arnoldi[:S_STEP_PREFIX, :S_STEP_PREFIX]
                ritz = generalized_eig(H_prefix, np.eye(S_STEP_PREFIX)).values
                shifts = _leja_order(ritz)[:S_STEP_BLOCK]
            block, w = _newton_block(A, M, V, H_arnoldi, j, shifts[: max_iter - j])
            if block is None:  # w = A M^{-1} v_j starts the MGS steps
                s_step = False
            else:
                block_start, block_end = j, j + block.shape[1]
        if j < block_end:
            H[: j + 2, j] = block[: j + 2, j - block_start]
            nw = H[j + 1, j].real
        else:
            if w is None:
                z = M(V[j]) if M is not None else V[j].copy()
                w = np.asarray(A(z), dtype=np.complex128)
            norm_w0 = np.linalg.norm(w)
            w = _mgs_pass(V[: j + 1], w, H[: j + 1, j])
            nw = np.linalg.norm(w)
            if nw < norm_w0 / 100.0:  # severe cancellation: one more MGS pass
                w = _mgs_pass(V[: j + 1], w, H[: j + 1, j])
                nw = np.linalg.norm(w)
            H[j + 1, j] = nw
        H_arnoldi[: j + 2, j] = H[: j + 2, j]
        m = j + 1

        for i in range(j):
            t = H[i, j]
            H[i, j] = cs[i] * t + sn[i] * H[i + 1, j]
            H[i + 1, j] = -np.conj(sn[i]) * t + cs[i] * H[i + 1, j]
        f = H[j, j]
        gg = nw
        denom = math.hypot(abs(f), gg)
        if denom == 0.0:  # A produced the zero vector: cannot extend the basis
            m = j
            breakdown = True
            break
        if f == 0:
            cs[j], sn[j] = 0.0, 1.0
        else:
            cs[j] = abs(f) / denom
            sn[j] = (f / abs(f)) * (gg / denom)
        H[j, j] = cs[j] * f + sn[j] * gg
        H[j + 1, j] = 0.0
        g[j + 1] = -np.conj(sn[j]) * g[j]
        g[j] = cs[j] * g[j]

        res = abs(g[j + 1]) / ref
        history.append(res)
        if res <= tol:
            converged = True
            break
        if nw == 0.0:  # exact breakdown: Krylov space is invariant
            breakdown = True
            converged = res <= tol
            break
        if j >= block_end:  # a block's vectors are in V already
            np.divide(w, nw, out=V[j + 1])

    if m == 0:
        return GmresOutcome(
            x0.copy(), 0, np.asarray(history), converged, breakdown, operator_applies=applies
        )
    y = scipy.linalg.solve_triangular(H[:m, :m], g[:m])
    u = y @ V[:m]
    loss = float(np.abs(V[: m - 1] @ V[m - 1].conj()).max()) if m > 1 else 0.0
    x = x0 + (M(u) if M is not None else u)
    if breakdown and not converged:
        # residual cannot shrink further; report the verified true residual
        true_res = np.linalg.norm(b - A(x)) / ref
        history.append(true_res)
        converged = true_res <= tol
    return GmresOutcome(x, m, np.asarray(history), converged, breakdown, loss, applies)


@dataclass
class EigenPairs:
    """Eigenpairs of S v = lambda M v, sorted by ascending real part."""

    values: np.ndarray
    vectors: np.ndarray


def generalized_eig(S: np.ndarray, M: np.ndarray) -> EigenPairs:
    """All eigenpairs of the dense pencil (S, M) with M Hermitian positive definite.

    With the Cholesky factor M = L L^H the pencil has the eigenvalues of the
    standard problem C = L^{-1} S L^{-H}, and an eigenvector y of C maps back
    to v = L^{-H} y (Golub & Van Loan, Matrix Computations, sec. 8.7): three
    triangular solves and one eig of C instead of QZ on the pencil.  Vectors
    have unit 2-norm.  Pairs are sorted by ascending real part, ties broken by
    imaginary part then original index, so the output is deterministic.
    """
    S = np.asarray(S, dtype=np.complex128)
    M = np.asarray(M, dtype=np.complex128)
    if S.shape != M.shape or S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"S and M must be square and of equal shape, got {S.shape}, {M.shape}")
    herm_defect = np.linalg.norm(M - M.conj().T)
    if herm_defect > 1e-10 * max(np.linalg.norm(M), 1.0):
        raise ValueError("M must be Hermitian")
    try:
        L = np.linalg.cholesky((M + M.conj().T) / 2)
    except np.linalg.LinAlgError:
        raise ValueError("M must be positive definite") from None

    half = scipy.linalg.solve_triangular(L, S, lower=True)  # L^{-1} S
    C = scipy.linalg.solve_triangular(L, half.conj().T, lower=True).conj().T
    values, Y = scipy.linalg.eig(C)
    vectors = scipy.linalg.solve_triangular(L, Y, lower=True, trans="C")
    vectors /= np.linalg.norm(vectors, axis=0)
    order = np.lexsort((np.arange(len(values)), values.imag, values.real))
    return EigenPairs(values=values[order], vectors=vectors[:, order])
