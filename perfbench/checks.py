"""Correctness checks made apart from helmdd: sizes from the paper's rules,
an own residual, and a sparse direct solve of the assembled system.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RESIDUAL_TOL = 1e-5
ORACLE_TOL = 1e-4
ORACLE_SELF_RESIDUAL = 1e-10


def expected_n(dim, k, alpha):
    """(m+1)^d with m = ceil(k^1.5) rounded up to a multiple of N_1d = floor(k^alpha)."""
    n1d = math.floor(k**alpha + 1e-9)
    m = math.ceil(math.ceil(k**1.5 - 1e-9) / n1d) * n1d
    return (m + 1) ** dim


def expected_grid_n_cs(dim, k, alpha_prime):
    return (math.floor(k**alpha_prime + 1e-9) + 1) ** dim


def check_sizes(workload, n, n_cs):
    cfg = workload.config
    failures = []
    want_n = expected_n(cfg["dim"], cfg["k"], cfg["alpha"])
    if n != want_n:
        failures.append(f"n = {n}, expected (m+1)^d = {want_n}")
    if cfg["precon"] == "two_level_grid":
        want = expected_grid_n_cs(cfg["dim"], cfg["k"], cfg["alpha_prime"])
        if n_cs != want:
            failures.append(f"grid n_CS = {n_cs}, expected {want}")
    if cfg["precon"] == "two_level_dtn":
        ref = workload.dtn_n_cs
        if abs(n_cs - ref) > 0.25 * ref:
            failures.append(f"DtN n_CS = {n_cs} outside +-25% of {ref}")
    return failures


def check_converged(max_iter, iterations, converged):
    if converged and iterations <= max_iter:
        return []
    return [f"not converged within max_iter = {max_iter} ({iterations} iterations)"]


def check_band(band, iterations):
    lo, hi = band
    return [] if lo <= iterations <= hi else [f"{iterations} iterations outside [{lo}, {hi}]"]


def check_residual(x, A, f):
    residual = relative_residual(x, A, f)
    return [] if residual <= RESIDUAL_TOL else [f"residual {residual:.3e} > {RESIDUAL_TOL:g}"]


def check_oracle(x, x_ref):
    error = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
    if error <= ORACLE_TOL:
        return []
    return [f"relative distance {error:.3e} to the direct solve > {ORACLE_TOL:g}"]


def check_solve(workload, max_iter, iterations, converged, x, A, f, x_ref):
    return (check_converged(max_iter, iterations, converged)
            + check_band(workload.iteration_band, iterations)
            + check_residual(x, A, f)
            + check_oracle(x, x_ref))


def _nested_dissection(coords):
    """Geometric nested dissection of lattice points; returns an elimination order.

    P1 couplings on the uniform simplicial mesh join vertices at most one
    lattice step apart, so a coordinate plane separates the points on its two
    sides.  Any partition is a valid order; this one keeps the 3d LU fill at
    about 24 M instead of 35-61 M for SuperLU's own orderings.
    """
    order = []

    def split(idx):
        pts = coords[idx]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        axis = int(np.argmax(hi - lo))
        if len(idx) <= 64 or hi[axis] - lo[axis] <= 2:
            order.append(idx)
            return
        mid = (lo[axis] + hi[axis]) // 2
        c = pts[:, axis]
        split(idx[c < mid])
        split(idx[c > mid])
        order.append(idx[c == mid])

    split(np.arange(len(coords)))
    return np.concatenate(order)


def relative_residual(x, A, f):
    return np.linalg.norm(f - A @ x) / np.linalg.norm(f)


def direct_solve(A, f, vertices):
    """Sparse LU solve of A x = f in a nested-dissection order; returns x and the LU fill."""
    spacing = min(np.diff(np.unique(vertices[:, 0])))
    coords = np.rint(vertices / spacing).astype(np.int64)
    p = _nested_dissection(coords)
    Ap = sp.csc_matrix(A)[p][:, p].tocsc()
    lu = spla.splu(Ap, permc_spec="NATURAL", diag_pivot_thresh=0.1,
                   options={"SymmetricMode": True})
    x = np.empty(len(f), dtype=np.complex128)
    x[p] = lu.solve(np.asarray(f, dtype=np.complex128)[p])
    return x, lu.L.nnz + lu.U.nnz


def reference_solution(A, f, vertices, cache):
    """x_ref with a relative residual of at most 1e-10 on this A and f.

    x_ref does not depend on the solve seed, so it is kept in `cache` (an .npy
    file) and reused by later runs while it still meets the residual bound on
    the system they assemble; a changed system gets a fresh direct solve.
    Returns x_ref and a note on where it came from.
    """
    if cache.is_file():
        x = np.load(cache)
        if x.shape == f.shape and relative_residual(x, A, f) <= ORACLE_SELF_RESIDUAL:
            return x, f"reused {cache.name}"
    x, fill = direct_solve(A, f, vertices)
    residual = relative_residual(x, A, f)
    if not residual <= ORACLE_SELF_RESIDUAL:
        raise RuntimeError(f"direct solve residual {residual:.3e} > {ORACLE_SELF_RESIDUAL:g}")
    cache.parent.mkdir(exist_ok=True)
    np.save(cache, x)
    return x, f"direct solve, LU fill {fill}"
