"""One-level ORAS and two-level (grid / DtN coarse space) preconditioners.

The one-level operator is sum_j R~_j^T A_{j,eps}^{-1} R_j with local Robin
solves built from the shifted problem.  Two-level variants add a coarse
correction Xi = Z E^{-1} Z* with E = Z* A_eps Z, either additively or in
hybrid (balancing) form Q M1 P + Xi with P = I - A_eps Xi, Q = I - Xi A_eps.

Subdomains whose boxes are images of one another under the lattice
symmetries (axis permutations and the point reflection, see
congruence_classes) have the same local matrices up to a renumbering of their
vertices, so each orbit shares one local assembly and one DtN eigenproblem,
made on its representative.  The Robin matrix A_local carries the Robin term
on the whole box boundary and so depends on the box widths alone: the
one-level part shares one assembly and one LU per width class (boxes of equal
widths up to an axis permutation), 3 in 2d and 4 in 3d.  Every member is
gathered from and prolonged to its dofs in the representative's vertex order
(in 3d its nested-dissection order), the class gathers of congruence_classes;
a member with the representative's key has bitwise its matrix, a mirrored or
axis-swapped one its matrix to rounding (about 1e-16).  The class LUs run on
pool.run, and so do the local solves, in blocks cut by pool.blocks.  A class
of at most DENSE_LOCAL_DOFS dofs per box is solved through its dense inverse,
one matmul per block; larger ones through their LU.  The hybrid form reads
the Galerkin products A_eps Z and Z* A_eps that the coarse space keeps.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
import scipy.sparse as sp

from . import linalg, pool
from .assembly import HelmholtzParams, assemble_subdomain
from .decomposition import Decomposition, congruence_classes, nested_dissection
from .linalg import SparseFactorization, factorize, generalized_eig
from .mesh import SimplicialMesh, interpolation_matrix

__all__ = [
    "PreconditionerError",
    "SelectionPolicy",
    "OneLevelORAS",
    "CoarseSpace",
    "TwoLevelPreconditioner",
    "build_one_level",
    "build_grid_cs",
    "build_dtn_cs",
]

EIG_RESIDUAL_TOL = 1e-8
# A width class of at most this many dofs per box keeps its dense A_local^{-1} (1 MiB at
# 256) and applies it by matmul.  Per column, SuperLU against the dense product measured
# 5.2 against 2.9 us at 144 dofs and 15.7 against 18.1 us at 361 dofs (2d k = 40).
DENSE_LOCAL_DOFS = 256
# n_G x n_G complex arrays a DtN orbit holds at once: A_GG, M_GG, S, and in generalized_eig
# and its residual check L, C, eig's copy of C, its vectors and the mapped vectors
DTN_SQUARE_ARRAYS = 8


class PreconditionerError(Exception):
    pass


@dataclass(frozen=True)
class SelectionPolicy:
    """Which interface eigenvectors enter the coarse space.

    automatic keeps all eigenvalues with real part below the wavenumber;
    fixed(m) keeps the m smallest by real part; capped(m) applies automatic
    then truncates to the m smallest.  Eigenvalues arrive sorted ascending by
    (real, imag, index), so selection is deterministic.
    """

    kind: str
    count: int | None = None

    def __post_init__(self):
        if self.kind == "automatic":
            if self.count is not None:
                raise ValueError(f"automatic selection takes no m, got {self.count}")
        elif self.kind in ("fixed", "capped"):
            if self.count is None or self.count < 1:
                raise ValueError(f"{self.kind} selection needs m >= 1, got {self.count}")
        else:
            raise ValueError(f"unknown selection kind {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> SelectionPolicy:
        """automatic (or auto), fixedM or cappedM (also fixed:M, capped:M)."""
        if text in ("automatic", "auto"):
            return cls("automatic")
        for kind in ("fixed", "capped"):
            if text.startswith(kind):
                return cls(kind, int(text[len(kind):].lstrip(":")))
        raise ValueError(f"cannot parse selection policy {text!r}")

    def select(self, eigenvalues: np.ndarray, k: float) -> np.ndarray:
        if self.kind == "fixed":
            return np.arange(min(self.count, len(eigenvalues)))
        return np.flatnonzero(eigenvalues.real < k)[: self.count]

    def label(self) -> str:
        return self.kind if self.count is None else f"{self.kind}{self.count}"


class OneLevelORAS:
    """sum_j R~_j^T A_{j,eps}^{-1} R_j; immutable after construction.

    classes[c] is width class c, whose (members, n_local) arrays dofs and pou
    hold its members' global dofs and partition-of-unity weights, each row in
    the representative's numbering (see congruence_classes), and
    factorizations[c] is their shared LU.  A class of at most
    DENSE_LOCAL_DOFS dofs per box is solved through A_local^{-T}, its LU
    applied to the identity and transposed, kept in inverses[c] (None for a
    larger class).  Each class is cut by pool.blocks into fixed blocks of
    members, at most pool.BLOCK_BYTES of right-hand sides each; apply stacks
    R_j v of a block as the rows of one matmul with A_local^{-T}, or as the
    columns of one multi-right-hand-side LU solve, and scatters every result
    back through the weighted prolongation [R~_j^T ...], an n x sum_j n_j
    sparse matrix built once.  pool.run solves the blocks concurrently, by
    work n_local^2 (dense) or fill (LU) x columns.  They do not depend on the
    worker count, so neither does the result.
    """

    def __init__(self, n: int, classes: list, factorizations: list):
        self.factorizations = factorizations
        rows = np.concatenate([cls.dofs.ravel() for cls in classes])
        weights = np.concatenate([cls.pou.ravel() for cls in classes])
        self._prolong = sp.csr_matrix(
            (weights.astype(np.complex128), (rows, np.arange(len(rows)))),
            shape=(n, len(rows)),
        )
        self.inverses = [
            lu.solve(np.eye(cls.dofs.shape[1])).T.copy()
            if cls.dofs.shape[1] <= DENSE_LOCAL_DOFS
            else None
            for lu, cls in zip(factorizations, classes)
        ]
        # (A_local^{-T} or LU, gather, start, stop) per block: v[gather] stacks its R_j v
        # as rows and its solutions fill out[start:stop]
        self._tasks = []
        self._work = []
        start = 0
        for lu, inverse, cls in zip(factorizations, self.inverses, classes):
            members, n_local = cls.dofs.shape
            kernel, cost = (lu, lu.fill) if inverse is None else (inverse, n_local**2)
            for block in pool.blocks(members, 16 * n_local):
                dofs = cls.dofs[block]
                self._tasks.append((kernel, dofs, start, start + dofs.size))
                self._work.append(cost * len(dofs))
                start += dofs.size

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.empty(self._prolong.shape[1], dtype=np.complex128)

        def solve(t):
            kernel, dofs, start, stop = self._tasks[t]
            if isinstance(kernel, np.ndarray):  # row j of the product: member j's solution
                np.matmul(v[dofs], kernel, out=out[start:stop].reshape(dofs.shape))
            else:
                out[start:stop] = kernel.solve(v[dofs].T).ravel(order="F")

        pool.run(solve, self._work)
        return self._prolong @ out


def _class_lu(mesh: SimplicialMesh, cls, params: HelmholtzParams, numbering):
    A = assemble_subdomain(mesh, cls, params).A_local
    if numbering is not None:  # the numbering of the class gathers
        order = numbering([hi - lo + 1 for lo, hi in zip(cls.cell_lo, cls.cell_hi)])
        A = A[order][:, order]
    try:
        return factorize(A, keep_order=numbering is not None)
    except Exception as exc:
        raise PreconditionerError(
            f"local matrix of subdomain {cls.members[0]} could not be factorized: {exc}"
        ) from exc


def build_one_level(
    mesh: SimplicialMesh,
    decomposition: Decomposition,
    k: float,
    epsilon_prec: float,
) -> OneLevelORAS:
    """Factorize the local Robin problem A_{j,eps_prec} (eta = k) of every width class.

    In 3d each class is numbered in nested-dissection order, its gathers and
    A_local alike, and SuperLU keeps that order; it fills less there than
    minimum degree, which 2d keeps (see README).  The classes are assembled
    and factorized concurrently by pool.run, by expected work n_local^2.
    """
    params = HelmholtzParams(k=k, epsilon=epsilon_prec)
    numbering = nested_dissection if mesh.dim == 3 else None
    classes = congruence_classes(decomposition, sides=False, numbering=numbering)
    factorizations = pool.run(
        lambda c: _class_lu(mesh, classes[c], params, numbering),
        [cls.dofs.shape[1] ** 2 for cls in classes],
    )
    return OneLevelORAS(mesh.n_vertices, classes, factorizations)


@dataclass(eq=False)
class CoarseSpace:
    """Coarse basis Z, the Galerkin products AZ = A_eps Z and ZhA = Z* A_eps of
    the shifted operator A_eps, and the LU of E = Z* (A_eps Z).

    A CSR copy of Z* forms ZhA and E and is then dropped: Z* v is formed from
    Z's rows as conj(conj(v) Z), measured bitwise equal to the product with
    that copy on the DtN and grid coarse spaces of the benchmark, at 9.2 MB
    less memory for the 2d k = 40 DtN space.
    """

    kind: str
    Z: sp.csr_matrix
    A_eps: InitVar[sp.spmatrix]
    # one record per orbit (dtn): canonical key, number of members, count and
    # [re, im] of the selected eigenvalues, and min |Re(lambda) - k| / k over
    # the whole computed spectrum
    selection_margin: list | None = None

    AZ: sp.csr_matrix = field(init=False)
    ZhA: sp.csr_matrix = field(init=False)
    E_fact: SparseFactorization = field(init=False)

    def __post_init__(self, A_eps):
        Zh = self.Z.conj().T.tocsr()
        self.AZ = (A_eps @ self.Z).tocsr()
        self.ZhA = Zh @ A_eps
        try:
            self.E_fact = factorize((Zh @ self.AZ).tocsc())
        except Exception as exc:
            raise PreconditionerError(f"coarse matrix E is singular: {exc}") from exc

    @property
    def n_cs(self) -> int:
        return self.Z.shape[1]

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        """Z* v."""
        return (v.conj() @ self.Z).conj()

    def coarse_apply(self, v: np.ndarray) -> np.ndarray:
        """Xi v = Z E^{-1} Z* v, the additive form's coarse correction."""
        return self.Z @ self.E_fact.solve(self.adjoint_apply(v))

    def summary(self) -> dict:
        out = {"kind": self.kind, "n_cs": int(self.n_cs)}
        if self.selection_margin is not None:
            out["selection_margin"] = self.selection_margin
        return out


def build_grid_cs(
    coarse_mesh: SimplicialMesh, fine_mesh: SimplicialMesh, A_eps: sp.spmatrix
) -> CoarseSpace:
    """Coarse space spanned by the P1 basis of a coarser mesh (nodal interpolation).

    E = Z* A_eps Z then coincides with the coarse discretization of the shifted
    problem (boundary term through the Galerkin product).
    """
    Z = interpolation_matrix(coarse_mesh, fine_mesh).astype(np.complex128)
    return CoarseSpace(kind="grid", Z=Z, A_eps=A_eps)


def build_dtn_cs(
    mesh: SimplicialMesh,
    decomposition: Decomposition,
    k: float,
    epsilon_prec: float,
    selection: SelectionPolicy,
    A_eps: sp.spmatrix,
) -> CoarseSpace:
    """Coarse space from subdomain interface eigenvectors of the discrete DtN map.

    Per symmetry orbit, on its representative: form the Schur complement
    S = A_GG - A_GI A_II^{-1} A_IG of the Neumann-type matrix (I = all
    non-interface dofs), solve the generalized eigenproblem against the
    interface mass matrix, select eigenvectors and extend each into the
    subdomain by the discrete Helmholtz extension W = [G; -A_II^{-1} A_IG G].
    Every member then contributes W at its dofs in the representative's
    vertex order, scaled by its own partition of unity (the class gathers of
    congruence_classes); eigenvalues and selection are shared by the orbit.
    Columns of Z live in exactly one subdomain block, in subdomain order; rows
    are shared across overlapping blocks.  The subdomain matrices are those of
    the shifted problem (epsilon_prec, eta = k).

    Before an orbit is assembled, the bytes of its dense arrays (A_IG and X,
    n_I x n_G each, and DTN_SQUARE_ARRAYS n_G x n_G ones, all complex) are
    compared with the memory still available (linalg._available_memory); a
    shortfall raises MemoryError naming the orbit's key.
    """
    params = HelmholtzParams(k=k, epsilon=epsilon_prec)
    classes = congruence_classes(decomposition)
    counts = np.zeros(decomposition.n_subdomains, dtype=np.int64)  # modes per subdomain
    blocks = []  # (class, unscaled W) of every orbit that selects a mode
    records = []
    for cls in classes:
        gamma = cls.interface
        if gamma.size == 0:
            continue
        n_local = cls.dofs.shape[1]
        inner = np.setdiff1d(np.arange(n_local), gamma, assume_unique=True)
        key = [list(axis) for axis in cls.key]
        dense = 16 * gamma.size * (2 * inner.size + DTN_SQUARE_ARRAYS * gamma.size)
        available = linalg._available_memory()
        if dense > available:
            raise MemoryError(
                f"DtN orbit {key}: its dense A_IG, X, S and pencil need {dense:,} bytes, "
                f"more than the {available:,} bytes of memory available"
            )

        mats = assemble_subdomain(mesh, cls, params)
        A = mats.A_neu.tocsc()
        A_II = A[inner][:, inner]
        A_IG = np.asarray(A[inner][:, gamma].todense())
        A_GI = A_IG.T  # A_neu is exactly symmetric
        A_GG = np.asarray(A[gamma][:, gamma].todense())
        M_GG = np.asarray(mats.M_interface.tocsc()[gamma][:, gamma].todense()).real

        try:
            lu = factorize(A_II)
        except Exception as exc:
            raise PreconditionerError(
                f"interior block of subdomain {cls.members[0]} could not be factorized: {exc}"
            ) from exc
        X = lu.solve(A_IG)
        S = A_GG - A_GI @ X

        pairs = generalized_eig(S, M_GG)
        resid = np.linalg.norm(S @ pairs.vectors - (M_GG @ pairs.vectors) * pairs.values, axis=0)
        bound = EIG_RESIDUAL_TOL * (
            np.linalg.norm(S) + np.abs(pairs.values) * np.linalg.norm(M_GG)
        )
        worst = np.flatnonzero(resid > bound)
        if worst.size:
            raise PreconditionerError(
                f"eigenresidual {resid[worst[0]]:.2e} exceeds tolerance on subdomain "
                f"{cls.members[0]}"
            )
        chosen = selection.select(pairs.values, k)
        counts[cls.members] = len(chosen)
        records.append(
            {
                "key": key,
                "members": len(cls.members),
                "count": len(chosen),
                "margin": float(np.abs(pairs.values.real - k).min() / k),
                "selected_eigenvalues": [[v.real, v.imag] for v in pairs.values[chosen].tolist()],
            }
        )
        if len(chosen):
            G = pairs.vectors[:, chosen]
            norms = np.sqrt(np.real(np.einsum("ij,ij->j", G.conj(), M_GG @ G)))
            G = G / norms
            W = np.zeros((n_local, len(chosen)), dtype=np.complex128)
            W[gamma] = G
            W[inner] = -X @ G
            blocks.append((cls, W))

    n_cs = int(counts.sum())
    if n_cs == 0:
        raise PreconditionerError("selection produced an empty coarse space")
    offsets = np.cumsum(counts) - counts  # first column of each subdomain's block
    rows, cols, vals = [], [], []
    for cls, W in blocks:  # axes: member, local dof, mode
        block = cls.pou[:, :, None] * W
        first = offsets[cls.members][:, None, None]
        vals.append(block.ravel())
        rows.append(np.broadcast_to(cls.dofs[:, :, None], block.shape).ravel())
        cols.append(np.broadcast_to(first + np.arange(W.shape[1]), block.shape).ravel())
    Z = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_vertices, n_cs),
    )
    Z.eliminate_zeros()
    col_nnz = np.diff(Z.tocsc().indptr)
    if (col_nnz == 0).any():
        raise PreconditionerError("DtN coarse space contains a zero column")
    return CoarseSpace(kind="dtn", Z=Z, A_eps=A_eps, selection_margin=records)


class TwoLevelPreconditioner:
    """Additive (M1 + Xi) or hybrid (Q M1 P + Xi) two-level composition.

    The hybrid form Q M1 P v + Xi v, with P = I - A_eps Xi and Q = I - Xi A_eps,
    is t + Z (c_1 - c_2) for c_1 = E^{-1} Z* v, t = M1 (v - (A_eps Z) c_1) and
    c_2 = E^{-1} (Z* A_eps) t, from the coarse space's Galerkin products: four
    sparse products and two E solves per apply.
    """

    def __init__(self, one_level: OneLevelORAS, coarse: CoarseSpace, mode: str):
        if mode not in ("additive", "hybrid"):
            raise PreconditionerError(f"mode must be 'additive' or 'hybrid', got {mode!r}")
        self.one_level = one_level
        self.coarse = coarse
        self.mode = mode

    def apply(self, v: np.ndarray) -> np.ndarray:
        coarse = self.coarse
        if self.mode == "additive":
            return self.one_level.apply(v) + coarse.coarse_apply(v)
        c1 = coarse.E_fact.solve(coarse.adjoint_apply(v))
        t = self.one_level.apply(v - coarse.AZ @ c1)
        c2 = coarse.E_fact.solve(coarse.ZhA @ t)
        return t + coarse.Z @ (c1 - c2)
