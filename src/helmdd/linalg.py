"""Numerical kernels: sparse LU, right-preconditioned GMRES, dense generalized eig.

GMRES is unrestarted (full Krylov basis up to max_iter) with modified
Gram-Schmidt orthogonalization and a single reorthogonalization pass when the
candidate basis vector loses more than two orders of magnitude in norm.  Each
Gram-Schmidt row is one BLAS-1 ``zdotc`` and one in-place ``zaxpy`` on the
preallocated basis, so a step streams the basis without per-row temporaries.
The residual history is the exact least-squares residual of the Arnoldi
problem, which for right preconditioning equals the true residual of the
original system, reported relative to ||b||.  The diagnostic
``GmresOutcome.orthogonality_loss`` is max_i |<v_i, v_{m-1}>| over the m basis
vectors that form the solution, one matrix-vector product at exit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import zaxpy, zdotc

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
    """LU factorization handle; immutable and safe for concurrent solves."""

    shape: tuple
    _lu: object

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=np.complex128))


def factorize(A) -> SparseFactorization:
    """Sparse LU (SuperLU with COLAMD ordering) of a square complex matrix."""
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
        lu = spla.splu(A)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise FactorizationError(f"singular pivot during factorization: {exc}") from exc
    return SparseFactorization(shape=A.shape, _lu=lu)


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
    residuals are relative to ||b||.  The Krylov basis takes (max_iter+1) * n * 16
    bytes of address space; a basis larger than physical memory is refused
    with MemoryError before anything is allocated.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    A = _as_operator(apply_A)
    M = _as_operator(apply_M) if apply_M is not None else None
    b = np.asarray(b, dtype=np.complex128)
    n = b.size
    basis_bytes = (max_iter + 1) * n * 16
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if basis_bytes > physical:
        raise MemoryError(
            f"GMRES Krylov basis of (max_iter+1) x n = {max_iter + 1} x {n} complex vectors "
            f"needs {basis_bytes / 2**30:.3g} GiB, more than the {physical / 2**30:.3g} GiB "
            f"of physical memory; lower max_iter"
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
        return GmresOutcome(x0.copy(), 0, np.asarray(history), True)

    H = np.zeros((max_iter + 1, max_iter), dtype=np.complex128)
    cs = np.zeros(max_iter)
    sn = np.zeros(max_iter, dtype=np.complex128)
    g = np.zeros(max_iter + 1, dtype=np.complex128)
    g[0] = beta

    V = np.empty((max_iter + 1, n), dtype=np.complex128)  # rows are touched as used
    V[0] = r0 / beta

    m = 0
    converged = False
    breakdown = False
    for j in range(max_iter):
        z = M(V[j]) if M is not None else V[j].copy()
        w = np.asarray(A(z), dtype=np.complex128)
        norm_w0 = np.linalg.norm(w)
        w = _mgs_pass(V[: j + 1], w, H[: j + 1, j])
        nw = np.linalg.norm(w)
        if nw < norm_w0 / 100.0:  # severe cancellation: one more MGS pass
            w = _mgs_pass(V[: j + 1], w, H[: j + 1, j])
            nw = np.linalg.norm(w)
        H[j + 1, j] = nw
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
        np.divide(w, nw, out=V[j + 1])

    if m == 0:
        return GmresOutcome(x0.copy(), 0, np.asarray(history), converged, breakdown)
    y = scipy.linalg.solve_triangular(H[:m, :m], g[:m])
    u = y @ V[:m]
    loss = float(np.abs(V[: m - 1] @ V[m - 1].conj()).max()) if m > 1 else 0.0
    x = x0 + (M(u) if M is not None else u)
    if breakdown and not converged:
        # residual cannot shrink further; report the verified true residual
        true_res = np.linalg.norm(b - A(x)) / ref
        history.append(true_res)
        converged = true_res <= tol
    return GmresOutcome(x, m, np.asarray(history), converged, breakdown, loss)


@dataclass
class EigenPairs:
    """Eigenpairs of S v = lambda M v, sorted by ascending real part."""

    values: np.ndarray
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def generalized_eig(S: np.ndarray, M: np.ndarray) -> EigenPairs:
    """All eigenpairs of the dense pencil (S, M) with M Hermitian positive definite.

    Pairs are sorted by ascending real part, ties broken by imaginary part then
    original index, so the output is deterministic.
    """
    S = np.asarray(S, dtype=np.complex128)
    M = np.asarray(M, dtype=np.complex128)
    if S.shape != M.shape or S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"S and M must be square and of equal shape, got {S.shape}, {M.shape}")
    herm_defect = np.linalg.norm(M - M.conj().T)
    if herm_defect > 1e-10 * max(np.linalg.norm(M), 1.0):
        raise ValueError("M must be Hermitian")
    try:
        np.linalg.cholesky((M + M.conj().T) / 2)
    except np.linalg.LinAlgError:
        raise ValueError("M must be positive definite") from None

    values, vectors = scipy.linalg.eig(S, M)
    order = np.lexsort((np.arange(len(values)), values.imag, values.real))
    return EigenPairs(values=values[order], vectors=vectors[:, order])
