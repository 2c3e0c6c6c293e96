import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import p1_oracle
from test_linalg import assert_eig_matches_qz
from helmdd import harness, linalg, pool, preconditioner
from helmdd.assembly import (
    HelmholtzParams,
    assemble_global,
    assemble_subdomain,
)
from helmdd.decomposition import build_decomposition, congruence_classes, nested_dissection
from helmdd.linalg import gmres, random_initial_guess
from helmdd.mesh import (
    build_uniform_mesh,
    fine_resolution,
    interpolation_matrix,
    subdomains_per_dimension,
)
from helmdd.pool import BLOCK_BYTES
from helmdd.preconditioner import (
    PreconditionerError,
    SelectionPolicy,
    TwoLevelPreconditioner,
    build_dtn_cs,
    build_grid_cs,
    OneLevelORAS,
    build_one_level,
)
from helmdd.solver import SolveConfig


def dense_one_level(mesh, subs, k, eps):
    """Independent oracle: assemble sum_j R~_j^T A_j^{-1} R_j as a dense matrix
    from the boxes of p1_oracle.subdomains, one at a time."""
    n = mesh.n_vertices
    M1 = np.zeros((n, n), dtype=complex)
    params = HelmholtzParams(k=k, epsilon=eps)
    for sub in subs:
        A_loc = assemble_subdomain(mesh, sub, params).A_local.toarray()
        A_inv = np.linalg.inv(A_loc)
        R = np.zeros((len(sub.dofs), n))
        R[np.arange(len(sub.dofs)), sub.dofs] = 1.0
        M1 += R.T @ (np.diag(sub.pou) @ (A_inv @ R))
    return M1


def toy_setup(k=6.0, eps=None):
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    eps = k if eps is None else eps
    A_eps = assemble_global(mesh, HelmholtzParams(k=k, epsilon=eps))
    return mesh, dec, A_eps


def sharing_setup(k=10.0):
    """m = 24, N_1d = 4: 16 subdomains in 4 orbits (corners, edges, interior and
    the two corners that touch one lo and one hi side)."""
    mesh = build_uniform_mesh(2, 24)
    dec = build_decomposition(mesh, 4, 2)
    A_eps = assemble_global(mesh, HelmholtzParams(k=k, epsilon=k))
    return mesh, dec, A_eps


def dtn_pencil(mesh, sub, params):
    """Dense DtN pencil (S, M_GG) of one subdomain from its own assembly, with
    X = A_II^{-1} A_IG for the Helmholtz extension."""
    mats = assemble_subdomain(mesh, sub, params)
    gamma = sub.interface_dofs
    inner = np.setdiff1d(np.arange(len(sub.dofs)), gamma)
    A = mats.A_neu.toarray()
    X = np.linalg.solve(A[np.ix_(inner, inner)], A[np.ix_(inner, gamma)])
    S = A[np.ix_(gamma, gamma)] - A[np.ix_(gamma, inner)] @ X
    M = mats.M_interface.toarray()[np.ix_(gamma, gamma)].real
    return S, M, gamma, inner, X


# --------------------------------------------------------------------------
# selection policies


def test_selection_policies():
    k = 10.0
    lams = np.array([0.5 * k, 0.9 * k, 1.1 * k], dtype=complex)
    assert list(SelectionPolicy("automatic").select(lams, k)) == [0, 1]
    assert list(SelectionPolicy("fixed", 1).select(lams, k)) == [0]
    assert list(SelectionPolicy("capped", 1).select(lams, k)) == [0]
    assert list(SelectionPolicy("capped", 5).select(lams, k)) == [0, 1]
    assert list(SelectionPolicy("fixed", 5).select(lams, k)) == [0, 1, 2]


@pytest.mark.parametrize(
    "args", [("fixed",), ("capped",), ("fixed", 0), ("capped", -1), ("automatic", 3), ("nope",)]
)
def test_selection_policy_rejects_invalid_construction(args):
    # the constructor validates, so an invalid policy cannot reach setup
    with pytest.raises(ValueError):
        SelectionPolicy(*args)


# --------------------------------------------------------------------------
# one-level ORAS


def test_one_level_single_subdomain_is_exact_inverse():
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 1, 2)
    one = build_one_level(mesh, dec, 6.0, 0.0)
    A0 = assemble_global(mesh, HelmholtzParams(k=6.0, epsilon=0.0))
    b = np.ones(mesh.n_vertices, dtype=complex)
    out = gmres(A0, b, apply_M=one.apply, tol=1e-6)
    assert out.converged and out.iterations <= 2


def test_one_level_linearity_and_zero():
    mesh, dec, _ = toy_setup()
    one = build_one_level(mesh, dec, 6.0, 6.0)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
    v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
    lhs = one.apply(2.0 * u + (1 - 3j) * v)
    rhs = 2.0 * one.apply(u) + (1 - 3j) * one.apply(v)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())
    assert np.all(one.apply(np.zeros(mesh.n_vertices, dtype=complex)) == 0.0)


def test_one_level_matches_dense_oracle():
    mesh, dec, _ = toy_setup()
    one = build_one_level(mesh, dec, 6.0, 6.0)
    M1 = dense_one_level(mesh, p1_oracle.subdomains(mesh, 2, 2), 6.0, 6.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        assert np.abs(one.apply(v) - M1 @ v).max() <= 1e-10 * np.abs(M1 @ v).max()


# 2d k = 10 and 20 at alpha = 0.8 (N_1d = floor(k^0.8) = 6 and 10), and 3d m = 9 with N_1d = 3
SPLIT_SETUPS = [
    (2, fine_resolution(10.0, 6), 6, 10.0),
    (2, fine_resolution(20.0, 10), 10, 20.0),
    (3, 9, 3, 6.0),
]


def serial_one_level(mesh, dec, one):
    """The apply made in the caller, class after class: one LU solve of the class's
    gathers, lu.solve(v[g].T), or for a class kept as a dense inverse one product
    v[g[b]] @ A_local^{-T} per block b of pool.blocks; then _prolong @ the solutions."""
    numbering = nested_dissection if mesh.dim == 3 else None  # that of build_one_level
    classes = congruence_classes(dec, sides=False, numbering=numbering)

    def apply(v):
        parts = []
        for lu, inverse, cls in zip(one.factorizations, one.inverses, classes, strict=True):
            g = cls.dofs
            if inverse is None:
                parts.append(lu.solve(v[g].T).ravel(order="F"))
            else:
                blocks = pool.blocks(len(g), 16 * g.shape[1])
                parts.extend((v[g[b]] @ inverse).ravel() for b in blocks)
        return one._prolong @ np.concatenate(parts)

    return apply


@pytest.mark.parametrize("dim, m, n1d, k", SPLIT_SETUPS)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_one_level_apply_is_bitwise_the_serial_class_solves(monkeypatch, dim, m, n1d, k, workers):
    # every column is solved on its own, so no split over shares changes a bit
    monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", workers)
    mesh = build_uniform_mesh(dim, m)
    dec = build_decomposition(mesh, n1d, 2 if dim == 2 else 1)
    one = build_one_level(mesh, dec, k, k)
    assert 1 <= len(pool._plan(one._work, pool.LOCAL_SOLVE_WORKERS)) <= workers
    serial = serial_one_level(mesh, dec, one)
    rng = np.random.default_rng(workers)
    for _ in range(3):
        v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        assert np.array_equal(one.apply(v), serial(v))


@pytest.mark.parametrize("dim, m, n1d, k", SPLIT_SETUPS)
def test_class_lus_keep_the_nested_dissection_order_in_3d(dim, m, n1d, k):
    # 3d gathers and A_local come in nested-dissection order and SuperLU keeps
    # it (perm_c is the identity); 2d keeps SuperLU's minimum degree
    mesh = build_uniform_mesh(dim, m)
    dec = build_decomposition(mesh, n1d, 2 if dim == 2 else 1)
    for lu in build_one_level(mesh, dec, k, k).factorizations:
        natural = np.array_equal(lu._lu.perm_c, np.arange(lu._lu.shape[0]))
        assert natural == (dim == 3)


@pytest.mark.parametrize("dim, m, n1d, k", SPLIT_SETUPS)
def test_concurrent_class_lus_solve_bitwise_as_serial_ones(monkeypatch, dim, m, n1d, k):
    # each width class is assembled and factorized on its own, so the share it
    # lands in, the caller's or a pool thread's, changes no bit of its LU
    mesh = build_uniform_mesh(dim, m)
    dec = build_decomposition(mesh, n1d, 2 if dim == 2 else 1)
    threads = {}
    original = preconditioner._class_lu

    def recording(mesh, cls, params, numbering):
        threads.setdefault(workers, set()).add(threading.current_thread().name)
        return original(mesh, cls, params, numbering)

    monkeypatch.setattr(preconditioner, "_class_lu", recording)
    built = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):  # shares beyond the pool's threads wait in its queue
            monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", workers)
            built[workers] = build_one_level(mesh, dec, k, k).factorizations
    finally:
        sys.setswitchinterval(interval)
    assert threads[1] == {threading.current_thread().name}
    assert len(threads[2]) == 2  # the caller's share and a pool thread's
    rng = np.random.default_rng(5)
    for c, serial in enumerate(built[1]):
        n = serial._lu.shape[0]
        B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        for workers in (2, 3):
            lu = built[workers][c]
            assert lu.fill == serial.fill
            assert lu.solve(B).tobytes() == serial.solve(B).tobytes()


def synthetic_one_level(fills, shapes):
    """OneLevelORAS over stand-in LUs, whose solve is the identity, and classes: the
    dofs of class c count up from the end of class c - 1, so they are the columns
    of the stacked solution."""
    lus = [SimpleNamespace(fill=fill, solve=lambda b: b) for fill in fills]
    offsets = np.cumsum([0] + [members * n_local for members, n_local in shapes])
    classes = [
        SimpleNamespace(dofs=np.arange(lo, hi).reshape(shape), pou=np.ones(shape))
        for lo, hi, shape in zip(offsets, offsets[1:], shapes)
    ]
    return OneLevelORAS(int(offsets[-1]), classes, lus)


@pytest.mark.parametrize(
    "fills, shapes",
    [
        ([1516, 1950, 2516], [(4, 100), (152, 120), (1444, 144)]),  # 2d k = 40, alpha = 1
        ([6488, 7694, 8720], [(4, 289), (68, 323), (289, 361)]),  # 2d k = 40, alpha = 0.8
        ([587342, 775272, 888812, 1140290], [(8, 2744), (12, 3136), (6, 3584), (1, 4096)]),  # 3d
        ([5], [(1, 7)]),
    ],
)
@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
def test_local_solve_plan_covers_every_member_once(monkeypatch, fills, shapes, workers):
    def tasks_at(count):
        monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", count)
        one = synthetic_one_level(fills, shapes)
        plan = pool._plan(one._work, count)
        assert 1 <= len(plan) <= count and all(plan)
        return one, plan, [one._tasks[t] for share in plan for t in share]

    one, plan, tasks = tasks_at(workers)
    # a class of at most DENSE_LOCAL_DOFS dofs solves by its dense inverse, of work
    # n_local^2 per member, a larger one by its LU, of work fill per member
    dense = [n_local <= preconditioner.DENSE_LOCAL_DOFS for _, n_local in shapes]
    assert [inverse is not None for inverse in one.inverses] == dense
    # the blocks are cut per class, the same as with one worker
    cut = sorted((start, stop) for _, _, start, stop in tasks)
    assert cut == sorted((start, stop) for _, _, start, stop in tasks_at(1)[2])
    # every member lies in exactly one block (the first dof of row j names member j)
    firsts = sorted(int(dofs[j, 0]) for _, dofs, _, _ in tasks for j in range(len(dofs)))
    n_local = [n for members, n in shapes for _ in range(members)]
    assert firsts == np.cumsum([0] + n_local[:-1]).tolist()
    for _, dofs, _, _ in tasks:
        assert len(dofs) == 1 or dofs.size * 16 <= BLOCK_BYTES
    # LPT: no share exceeds its quota by more than the largest task
    work = [[one._work[t] for t in share] for share in plan]
    cost = [n_local**2 if d else fill for d, fill, (_, n_local) in zip(dense, fills, shapes)]
    total = sum(c * members for c, (members, _) in zip(cost, shapes))
    assert sum(map(sum, work)) == total
    assert max(map(sum, work)) <= total / workers + max(map(max, work))


@pytest.mark.parametrize("k", [10.0, 20.0, 40.0])
def test_dense_local_inverses_match_the_class_lus(k):
    # every 2d width class of at most DENSE_LOCAL_DOFS dofs at alpha = 0.6, 0.8 and 1
    # (49 to 256 dofs) against its SuperLU solve on the gathers of a random vector:
    # measured 9.5e-16 relative at most
    dense = 0
    for alpha in (0.6, 0.8, 1.0):
        n1d = subdomains_per_dimension(k, alpha)
        mesh = build_uniform_mesh(2, fine_resolution(k, n1d))
        dec = build_decomposition(mesh, n1d, 2)
        one = build_one_level(mesh, dec, k, k)
        classes = congruence_classes(dec, sides=False)
        v = random_initial_guess(mesh.n_vertices, int(k))
        for lu, inverse, cls in zip(one.factorizations, one.inverses, classes, strict=True):
            assert (inverse is None) == (cls.dofs.shape[1] > preconditioner.DENSE_LOCAL_DOFS)
            if inverse is not None:
                dense += 1
                expected = lu.solve(v[cls.dofs].T).T
                error = np.abs(v[cls.dofs] @ inverse - expected).max() / np.abs(expected).max()
                assert error <= 1e-13
    assert dense == {10.0: 9, 20.0: 6, 40.0: 3}[k]


def test_one_level_tasks_fill_the_stacked_solution_once(monkeypatch):
    # the output slices of all tasks tile the member-major vector of local solutions
    monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", 3)
    monkeypatch.setattr(pool, "BLOCK_BYTES", 1 << 14)  # 1 MiB holds a whole class here
    mesh = build_uniform_mesh(2, fine_resolution(20.0, 10))
    dec = build_decomposition(mesh, 10, 2)
    one = build_one_level(mesh, dec, 20.0, 20.0)
    tasks = sorted(
        ((start, stop, dofs) for _, dofs, start, stop in one._tasks), key=lambda task: task[0]
    )
    assert len(tasks) > len(one.factorizations)  # the interior class is split
    assert tasks[0][0] == 0 and tasks[-1][1] == one._prolong.shape[1]
    assert all(a[1] == b[0] for a, b in zip(tasks, tasks[1:]))
    assert all(stop - start == dofs.size for start, stop, dofs in tasks)
    rows = np.concatenate([dofs.ravel() for _, _, dofs in tasks])
    assert np.array_equal(rows, one._prolong.tocsc().indices)


def test_one_level_concurrent_applies_match_serial(monkeypatch):
    # two threads share one preconditioner (and the pool) and get the serial results
    monkeypatch.setattr(pool, "LOCAL_SOLVE_WORKERS", 2)
    mesh = build_uniform_mesh(2, fine_resolution(20.0, 10))
    dec = build_decomposition(mesh, 10, 2)
    one = build_one_level(mesh, dec, 20.0, 20.0)
    serial = serial_one_level(mesh, dec, one)
    rng = np.random.default_rng(11)
    vs = [rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
          for _ in range(2)]
    expected = [serial(v) for v in vs]
    mismatches = []

    def run(i):
        for _ in range(20):
            if not np.array_equal(one.apply(vs[i]), expected[i]):
                mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


# --------------------------------------------------------------------------
# grid coarse space


def test_grid_cs_identity_when_coarse_equals_fine():
    mesh, dec, A_eps = toy_setup()
    cs = build_grid_cs(mesh, mesh, A_eps)
    one = build_one_level(mesh, dec, 6.0, 6.0)
    two = TwoLevelPreconditioner(one, cs, "hybrid")
    b = np.ones(mesh.n_vertices, dtype=complex)
    out = gmres(A_eps, b, apply_M=two.apply, tol=1e-8)
    assert out.converged and out.iterations <= 2


def test_grid_cs_equals_direct_coarse_assembly():
    k = 10.0
    coarse = build_uniform_mesh(2, 3)
    fine = build_uniform_mesh(2, 33)
    params = HelmholtzParams(k=k, epsilon=k)
    A_eps = assemble_global(fine, params)
    cs = build_grid_cs(coarse, fine, A_eps)
    Z = interpolation_matrix(coarse, fine)
    # stiffness+mass Galerkin products equal the direct coarse assembly (nested
    # meshes); the Robin part is compared through the Galerkin product itself
    K_c, M_c, _, _ = (X.toarray() for X in p1_oracle.global_box(coarse))
    B_gal = (Z.T @ (p1_oracle.global_box(fine)[2] @ Z)).toarray()
    expected = K_c - (k**2 + 1j * k) * M_c - 1j * k * B_gal
    E = (cs.Z.conj().T @ (A_eps @ cs.Z)).toarray()
    assert np.abs(E - expected).max() < 1e-10
    # E_fact factorizes that Galerkin matrix
    e = np.random.default_rng(3).standard_normal(cs.n_cs) + 0j
    assert np.abs(E @ cs.E_fact.solve(e) - e).max() < 1e-10


def test_grid_cs_sizes_and_rank():
    k = 10.0
    fine = build_uniform_mesh(2, 33)
    coarse = build_uniform_mesh(2, 3)  # floor(10^0.6) = 3 -> n_CS = 16
    A_eps = assemble_global(fine, HelmholtzParams(k=k, epsilon=k))
    cs = build_grid_cs(coarse, fine, A_eps)
    assert cs.n_cs == 16
    sv = np.linalg.svd(cs.Z.toarray(), compute_uv=False)
    assert sv.min() > 1e-8
    # E_fact solves with E = Z* A_eps Z, recomputed from its factors
    recomputed = (cs.Z.conj().T @ (A_eps @ cs.Z)).toarray()
    x = np.random.default_rng(4).standard_normal(cs.n_cs) + 0j
    assert np.abs(cs.E_fact.solve(recomputed @ x) - x).max() < 1e-10


# --------------------------------------------------------------------------
# DtN coarse space


def subdomain_counts(cs, dec):
    """Modes per subdomain, from the per-orbit records of build_dtn_cs."""
    counts = np.zeros(dec.n_subdomains, dtype=int)
    for entry, cls in zip(cs.selection_margin, congruence_classes(dec), strict=True):
        assert entry["key"] == [list(axis) for axis in cls.key]
        assert entry["members"] == len(cls.members)
        counts[cls.members] = entry["count"]
    return counts.tolist()


def test_dtn_columns_supported_on_their_subdomain():
    mesh, dec, A_eps = toy_setup()
    cs = build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("fixed", 2), A_eps)
    counts = subdomain_counts(cs, dec)
    assert counts == [2, 2, 2, 2]
    Z = cs.Z.tocsc()
    col = 0
    for sub in p1_oracle.subdomains(mesh, 2, 2):
        for _ in range(counts[sub.index]):
            rows = Z.indices[Z.indptr[col]:Z.indptr[col + 1]]
            assert set(rows) <= set(sub.dofs)
            col += 1


def test_dtn_fixed_selection_size_is_combinatorial():
    # floor(20^0.6) = 6 subdomains per dimension: 36 subdomains x 2 vectors
    k = 20.0
    mesh = build_uniform_mesh(2, 90)
    dec = build_decomposition(mesh, 6, 2)
    A_eps = assemble_global(mesh, HelmholtzParams(k=k, epsilon=k))
    cs = build_dtn_cs(mesh, dec, k, k, SelectionPolicy("fixed", 2), A_eps)
    assert cs.n_cs == 72


def test_dtn_rejects_empty_selection(monkeypatch):
    # on the small pencils here every valid policy keeps the lowest DtN mode
    # (its Re lambda lies below k for k from 1e-3 to 20), so a policy that
    # selects nothing is made by replacing select
    mesh, dec, A_eps = toy_setup()
    monkeypatch.setattr(SelectionPolicy, "select", lambda self, values, k: np.arange(0))
    with pytest.raises(PreconditionerError, match="empty"):
        build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("automatic"), A_eps)


def test_dtn_checks_each_orbits_dense_bytes_before_assembling_it(monkeypatch):
    # the toy's two orbits, each with n_G = 11 and n_I = 38: A_IG and X, n_I x n_G, and 8
    # n_G x n_G arrays of 16 bytes.  The first orbit finds its bytes exactly, the second one
    # byte fewer, and the build stops before the second assembly
    mesh, dec, A_eps = toy_setup()
    first, second = congruence_classes(dec)
    dense = 16 * 11 * (2 * 38 + 8 * 11)
    assert [c.interface.size for c in (first, second)] == [11, 11]
    assert [c.dofs.shape[1] for c in (first, second)] == [49, 49]
    available = iter([dense, dense - 1])
    monkeypatch.setattr(linalg, "_available_memory", lambda: next(available))
    assembled = []
    assemble = preconditioner.assemble_subdomain

    def counted(mesh, cls, params):
        assembled.append(cls.key)
        return assemble(mesh, cls, params)

    monkeypatch.setattr(preconditioner, "assemble_subdomain", counted)
    key = re.escape(str([list(axis) for axis in second.key]))
    with pytest.raises(MemoryError, match=f"DtN orbit {key}: .* need {dense:,} bytes"):
        build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("fixed", 2), A_eps)
    assert assembled == [first.key]
    # a sweep keeps the cell: each seed a failure row, with the error named
    monkeypatch.setattr(linalg, "_available_memory", lambda: 0)
    config = SolveConfig(dim=2, k=10.0, precon="two_level_dtn")
    rows, error = harness.run_config_group(config, [0, 1])
    assert [row["iterations"] for row in rows] == [-1, -1]
    assert error.startswith("MemoryError: DtN orbit")


def test_dtn_eigenvalues_nonnegative_for_laplacian_dominated_problem():
    k = 1e-3
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    A_eps = assemble_global(mesh, HelmholtzParams(k=k, epsilon=0.0))
    cs = build_dtn_cs(mesh, dec, k, 0.0, SelectionPolicy("fixed", 4), A_eps)
    for entry in cs.selection_margin:
        assert all(re > -1e-6 for re, _ in entry["selected_eigenvalues"])


def test_dtn_summary_contents():
    mesh, dec, A_eps = toy_setup()
    cs = build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("fixed", 1), A_eps)
    info = cs.summary()
    assert info["kind"] == "dtn" and info["n_cs"] == 4
    # the eigenvalue lists of all 4 subdomains, one per orbit member
    orbits = info["selection_margin"]
    assert sum(entry["members"] for entry in orbits) == 4
    assert all(entry["count"] == len(entry["selected_eigenvalues"]) == 1 for entry in orbits)


# --------------------------------------------------------------------------
# two-level composition


def test_two_level_hybrid_matches_dense_oracle():
    mesh, dec, A_eps = toy_setup()
    one = build_one_level(mesh, dec, 6.0, 6.0)
    cs = build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("fixed", 2), A_eps)
    two = TwoLevelPreconditioner(one, cs, "hybrid")

    M1 = dense_one_level(mesh, p1_oracle.subdomains(mesh, 2, 2), 6.0, 6.0)
    Z = cs.Z.toarray()
    A = A_eps.toarray()
    Xi = Z @ np.linalg.solve(Z.conj().T @ (A @ Z), Z.conj().T)
    n = mesh.n_vertices
    P = np.eye(n) - A @ Xi
    Q = np.eye(n) - Xi @ A
    M2 = Q @ M1 @ P + Xi

    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = M2 @ v
        assert np.abs(two.apply(v) - ref).max() <= 1e-10 * np.abs(ref).max()


def test_two_level_additive_is_one_level_plus_coarse():
    mesh, dec, A_eps = toy_setup()
    one = build_one_level(mesh, dec, 6.0, 6.0)
    cs = build_grid_cs(build_uniform_mesh(2, 2), mesh, A_eps)
    two = TwoLevelPreconditioner(one, cs, "additive")
    rng = np.random.default_rng(3)
    v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
    assert two.apply(v).tobytes() == (one.apply(v) + cs.coarse_apply(v)).tobytes()
    # Z* v from Z's rows is bitwise the product with a CSR copy of Z*
    xi_v = cs.Z @ cs.E_fact.solve(cs.Z.conj().T.tocsr() @ v)
    assert two.apply(v).tobytes() == (one.apply(v) + xi_v).tobytes()


@pytest.mark.parametrize("kind", ["dtn", "grid"])
def test_hybrid_from_the_galerkin_products_matches_the_projector_form(kind):
    # t + Z (c_1 - c_2) from the cached A_eps Z and Z* A_eps against Q M1 P v + Xi v with
    # P and Q applied through A_eps and coarse_apply: measured 2.1e-15 (dtn) and 8.1e-16
    # (grid) relative, on the dense local path
    k = 10.0
    mesh, dec, A_eps = sharing_setup(k)
    one = build_one_level(mesh, dec, k, k)
    if kind == "dtn":
        cs = build_dtn_cs(mesh, dec, k, k, SelectionPolicy("automatic"), A_eps)
    else:
        cs = build_grid_cs(build_uniform_mesh(2, 6), mesh, A_eps)
    two = TwoLevelPreconditioner(one, cs, "hybrid")
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        xi_v = cs.coarse_apply(v)
        t = one.apply(v - A_eps @ xi_v)
        expected = t - cs.coarse_apply(A_eps @ t) + xi_v
        error = np.abs(two.apply(v) - expected).max() / np.abs(expected).max()
        assert error <= 1e-13


def test_two_level_rejects_unknown_mode():
    mesh, dec, A_eps = toy_setup()
    one = build_one_level(mesh, dec, 6.0, 6.0)
    cs = build_grid_cs(build_uniform_mesh(2, 2), mesh, A_eps)
    with pytest.raises(PreconditionerError):
        TwoLevelPreconditioner(one, cs, "deflated")


def test_hybrid_projection_annihilates_coarse_residual():
    mesh, dec, A_eps = toy_setup()
    cs = build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("fixed", 2), A_eps)
    Z = cs.Z.toarray()
    A = A_eps.toarray()
    P = np.eye(mesh.n_vertices) - A @ (Z @ np.linalg.solve(Z.conj().T @ (A @ Z), Z.conj().T))
    rng = np.random.default_rng(4)
    for _ in range(20):
        w = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        assert np.linalg.norm(Z.conj().T @ (P @ w)) <= 1e-10 * np.linalg.norm(w)


def test_two_level_apply_linearity():
    mesh, dec, A_eps = toy_setup()
    one = build_one_level(mesh, dec, 6.0, 6.0)
    cs = build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("fixed", 2), A_eps)
    for mode in ("additive", "hybrid"):
        two = TwoLevelPreconditioner(one, cs, mode)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        lhs = two.apply((0.5 + 2j) * u - 3.0 * v)
        rhs = (0.5 + 2j) * two.apply(u) - 3.0 * two.apply(v)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_dtn_z_full_column_rank():
    mesh, dec, A_eps = toy_setup()
    cs = build_dtn_cs(mesh, dec, 6.0, 6.0, SelectionPolicy("automatic"), A_eps)
    sv = np.linalg.svd(cs.Z.toarray(), compute_uv=False)
    assert sv.min() > 1e-8


# --------------------------------------------------------------------------
# symmetry orbits: shared assembly, factorization and eigenproblem


def assert_members_match_representative(mesh, dec, subs, params, sides=True):
    """Every member's own matrices are the representative's in its vertex order:
    bitwise for translated copies (identity order), to 1e-14 relative otherwise.
    A width class (sides=False) shares A_local alone, also across boxes that
    touch different sides of the domain."""
    classes = congruence_classes(dec, sides=sides)
    names = ("A_local", "A_neu", "M_interface") if sides else ("A_local",)
    for cls in classes:
        ref = assemble_subdomain(mesh, cls, params)
        for j, member_dofs in zip(cls.members, cls.dofs):
            sub = subs[j]
            order = np.searchsorted(sub.dofs, member_dofs)  # sub.dofs is ascending
            own = assemble_subdomain(mesh, sub, params)
            for name in names:
                a, b = getattr(own, name), getattr(ref, name)
                if np.array_equal(order, np.arange(len(order))):
                    np.testing.assert_array_equal(a.indptr, b.indptr)
                    np.testing.assert_array_equal(a.indices, b.indices)
                    np.testing.assert_array_equal(a.data.view(np.uint8), b.data.view(np.uint8))
                else:
                    diff = (a[order][:, order] - b).toarray()
                    assert np.abs(diff).max() <= 1e-14 * np.abs(b.data).max()
    return classes


def test_class_members_share_the_local_matrix():
    # each member's own assembly is the matrix its orbit is solved with
    mesh, dec, _ = sharing_setup()
    subs = p1_oracle.subdomains(mesh, 4, 2)
    classes = assert_members_match_representative(
        mesh, dec, subs, HelmholtzParams(k=10.0, epsilon=10.0)
    )
    assert len(classes) == 4
    assert sorted(len(cls.members) for cls in classes) == [2, 2, 4, 8]
    # corners, edges and interior by width: the one-level part needs 3 LUs
    widths = assert_members_match_representative(
        mesh, dec, subs, HelmholtzParams(k=10.0, epsilon=10.0), sides=False
    )
    assert [len(cls.members) for cls in widths] == [4, 8, 4]


@pytest.mark.parametrize(
    "dim,m,n1d,overlap,orbits",
    [
        (2, 8, 8, 2, 16),  # clipped: 7 translation keys per axis, 49 classes
        (2, 8, 2, 2, 2),
        (3, 9, 3, 1, 6),
        (3, 8, 2, 1, 2),
    ],
)
def test_orbit_members_match_the_representative(dim, m, n1d, overlap, orbits):
    mesh = build_uniform_mesh(dim, m)
    dec = build_decomposition(mesh, n1d, overlap)
    subs = p1_oracle.subdomains(mesh, n1d, overlap)
    classes = assert_members_match_representative(
        mesh, dec, subs, HelmholtzParams(k=6.0, epsilon=6.0)
    )
    assert len(classes) == orbits


@pytest.mark.parametrize(
    "dim,m,n1d,overlap,width_classes",
    [
        (2, 8, 8, 2, 6),  # clipped: widths 3, 4 and 5 per axis
        (2, 8, 2, 2, 1),
        (3, 9, 3, 1, 4),
        (3, 8, 2, 1, 1),
    ],
)
def test_width_class_members_match_the_representative(dim, m, n1d, overlap, width_classes):
    # boxes of equal widths up to an axis permutation share A_local, whichever
    # sides of the domain they touch
    mesh = build_uniform_mesh(dim, m)
    dec = build_decomposition(mesh, n1d, overlap)
    subs = p1_oracle.subdomains(mesh, n1d, overlap)
    classes = assert_members_match_representative(
        mesh, dec, subs, HelmholtzParams(k=6.0, epsilon=6.0), sides=False
    )
    assert len(classes) == width_classes


def test_one_level_with_shared_classes_matches_dense_oracle():
    mesh, dec, _ = sharing_setup()
    one = build_one_level(mesh, dec, 10.0, 10.0)
    assert len(one.factorizations) == 3
    M1 = dense_one_level(mesh, p1_oracle.subdomains(mesh, 4, 2), 10.0, 10.0)
    rng = np.random.default_rng(6)
    for _ in range(5):
        v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        assert np.abs(one.apply(v) - M1 @ v).max() <= 1e-10 * np.abs(M1 @ v).max()


def test_one_level_3d_orbits_match_dense_oracle():
    # 27 subdomains on 4 LUs, one per width class: mirrored and axis-swapped
    # members are solved and extended in their own numbering
    mesh = build_uniform_mesh(3, 9)
    dec = build_decomposition(mesh, 3, 1)
    one = build_one_level(mesh, dec, 6.0, 6.0)
    assert len(one.factorizations) == 4
    M1 = dense_one_level(mesh, p1_oracle.subdomains(mesh, 3, 1), 6.0, 6.0)
    rng = np.random.default_rng(8)
    for _ in range(3):
        v = rng.standard_normal(mesh.n_vertices) + 1j * rng.standard_normal(mesh.n_vertices)
        assert np.abs(one.apply(v) - M1 @ v).max() <= 1e-10 * np.abs(M1 @ v).max()


def test_one_level_with_clipped_boxes_matches_dense_oracle():
    # boxes one cell wide grow by two layers, so several touch the same side of
    # the domain with different extents; they must land in different orbits
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 8, 2)
    one = build_one_level(mesh, dec, 6.0, 6.0)
    M1 = dense_one_level(mesh, p1_oracle.subdomains(mesh, 8, 2), 6.0, 6.0)
    v = np.random.default_rng(7).standard_normal(mesh.n_vertices) + 0j
    assert np.abs(one.apply(v) - M1 @ v).max() <= 1e-10 * np.abs(M1 @ v).max()


def assert_dtn_blocks_match_per_member(mesh, dec, subs, k, A_eps):
    cs = build_dtn_cs(mesh, dec, k, k, SelectionPolicy("automatic"), A_eps)
    params = HelmholtzParams(k=k, epsilon=k)
    Z = cs.Z.tocsc()
    counts = subdomain_counts(cs, dec)
    col = 0
    for sub in subs:
        S, M, gamma, inner, X = dtn_pencil(mesh, sub, params)
        lams, vecs = scipy.linalg.eig(S, M)
        chosen = np.flatnonzero(lams.real < k)
        assert counts[sub.index] == len(chosen) > 0
        W = np.zeros((len(sub.dofs), len(chosen)), dtype=complex)
        W[gamma] = vecs[:, chosen]
        W[inner] = -X @ vecs[:, chosen]
        W *= sub.pou[:, None]
        block = Z[:, col:col + len(chosen)].toarray()
        col += len(chosen)
        outside = np.setdiff1d(np.arange(mesh.n_vertices), sub.dofs)
        assert not block[outside].any()
        Q, _ = np.linalg.qr(block[sub.dofs])
        assert np.linalg.norm(W - Q @ (Q.conj().T @ W)) <= 1e-8 * np.linalg.norm(W)
    assert col == cs.n_cs


def test_dtn_blocks_match_per_member_construction():
    mesh, dec, A_eps = sharing_setup(10.0)
    assert_dtn_blocks_match_per_member(mesh, dec, p1_oracle.subdomains(mesh, 4, 2), 10.0, A_eps)


def test_dtn_blocks_match_per_member_construction_3d():
    k = 6.0
    mesh = build_uniform_mesh(3, 9)
    dec = build_decomposition(mesh, 3, 1)
    A_eps = assemble_global(mesh, HelmholtzParams(k=k, epsilon=k))
    assert_dtn_blocks_match_per_member(mesh, dec, p1_oracle.subdomains(mesh, 3, 1), k, A_eps)


def test_dtn_selection_margin_matches_dense_eig():
    k = 6.0
    mesh = build_uniform_mesh(2, 12)
    dec = build_decomposition(mesh, 3, 2)
    A_eps = assemble_global(mesh, HelmholtzParams(k=k, epsilon=k))
    cs = build_dtn_cs(mesh, dec, k, k, SelectionPolicy("automatic"), A_eps)
    margins = cs.summary()["selection_margin"]
    params = HelmholtzParams(k=k, epsilon=k)
    classes = congruence_classes(dec)
    subs = p1_oracle.subdomains(mesh, 3, 2)
    assert len(margins) == len(classes) == 4
    for entry, cls in zip(margins, classes):
        assert entry["key"] == [list(axis) for axis in cls.key]
        assert entry["members"] == len(cls.members)
        for j in cls.members:
            S, M, *_ = dtn_pencil(mesh, subs[j], params)
            lams = scipy.linalg.eigvals(S, M)
            expected = np.abs(lams.real - k).min() / k
            assert entry["margin"] == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("dim,m,n1d,k", [(2, 100, 20, 20.0), (3, 9, 3, 6.0)])
def test_orbit_pencils_match_qz(dim, m, n1d, k):
    # the Cholesky reduction of generalized_eig against QZ on every DtN orbit
    # pencil: 2d k = 20 at alpha = 1 (m = 100, N_1d = 20) and 3d m = 9, N_1d = 3
    mesh = build_uniform_mesh(dim, m)
    overlap = 2 if dim == 2 else 1
    dec = build_decomposition(mesh, n1d, overlap)
    subs = p1_oracle.subdomains(mesh, n1d, overlap)
    params = HelmholtzParams(k=k, epsilon=k)
    for cls in congruence_classes(dec):
        S, M, *_ = dtn_pencil(mesh, subs[cls.members[0]], params)
        assert_eig_matches_qz(S, M, k)


def test_dtn_context_assembles_each_class_once(monkeypatch):
    import helmdd.preconditioner as precond
    from helmdd.solver import SolveConfig, SolverContext

    calls = []
    original = precond.assemble_subdomain

    def counting(mesh, box, params):
        calls.append(box.members[0])
        return original(mesh, box, params)

    monkeypatch.setattr(precond, "assemble_subdomain", counting)
    ctx = SolverContext(SolveConfig(k=10.0, alpha=1.0, precon="two_level_dtn"))
    assert ctx.n_subdomains == 100
    # build_one_level assembles once per width class (concurrently, so in any
    # order) and build_dtn_cs once per orbit, each on its representative
    width_reps, orbit_reps = (
        [cls.members[0] for cls in congruence_classes(ctx.decomposition, sides=sides)]
        for sides in (False, True)
    )
    assert (len(width_reps), len(orbit_reps)) == (3, 4)
    assert sorted(calls[:3]) == sorted(width_reps) and calls[3:] == orbit_reps
