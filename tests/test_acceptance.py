"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The heavy iteration-count sweeps are computed once in module-scoped fixtures
and shared between criteria.  Reference iteration counts and coarse-space
sizes are the published desk-scale values; tolerance bands are stated inline.
"""

import statistics
import time

import numpy as np
import pytest
import scipy.sparse as sp

import p1_oracle
from helmdd.assembly import HelmholtzParams, assemble_global, assemble_subdomain
from helmdd.decomposition import build_decomposition
from helmdd.linalg import factorize, generalized_eig, gmres
from helmdd.mesh import build_uniform_mesh
from helmdd.preconditioner import SelectionPolicy, TwoLevelPreconditioner, build_dtn_cs, build_one_level
from helmdd.solver import SolveConfig, SolverContext

SEEDS = (0, 1, 2)

# reference values (desk scale) --------------------------------------------

REFERENCE_ITERS_BETA1 = {
    # (k, alpha): (one_level, grid, dtn)
    (10, 0.6): (22, 19, 11),
    (20, 0.6): (48, 46, 26),
    (40, 0.6): (78, 98, 37),
    (10, 0.8): (35, 19, 10),
    (20, 0.8): (71, 35, 13),
    (40, 0.8): (158, 88, 22),
    (10, 1.0): (65, 26, 11),
    (20, 1.0): (122, 26, 14),
    (40, 1.0): (286, 33, 20),
}
REFERENCE_GRID_NCS = {
    (10, 0.6): 16, (20, 0.6): 49, (40, 0.6): 100,
    (10, 0.8): 49, (20, 0.8): 121, (40, 0.8): 400,
    (10, 1.0): 121, (20, 1.0): 441, (40, 1.0): 1681,
}
REFERENCE_DTN_NCS = {
    (10, 0.6): 39, (20, 0.6): 204, (40, 0.6): 531,
    (10, 0.8): 122, (20, 0.8): 394, (40, 0.8): 1440,
    (10, 1.0): 324, (20, 1.0): 1120, (40, 1.0): 4640,
}
PRECONS = ("one_level", "two_level_grid", "two_level_dtn")


def _verdict(criterion, ok, detail=""):
    print(f"\nACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def _band(reference):
    return max(0.5 * reference, 5.0)


def _run_group(config):
    ctx = SolverContext(config)
    runs = [ctx.run(seed) for seed in SEEDS]
    return {
        "median": statistics.median(r.iterations for r in runs),
        "iterations": [r.iterations for r in runs],
        "converged": [r.converged for r in runs],
        "n_CS": runs[0].n_CS,
        "n": runs[0].n,
        "N_sub": runs[0].N_sub,
        "final_residuals": [r.final_residual for r in runs],
        "solutions": [r.solution for r in runs],
    }


@pytest.fixture(scope="module")
def table1_results():
    out = {"groups": {}, "elapsed_beta1": 0.0}
    t0 = time.perf_counter()
    for (k, alpha) in REFERENCE_ITERS_BETA1:
        for precon in PRECONS:
            cfg = SolveConfig(dim=2, k=float(k), alpha=alpha, beta=1.0, precon=precon,
                              mode="hybrid")
            out["groups"][(k, alpha, 1.0, precon)] = _run_group(cfg)
    out["elapsed_beta1"] = time.perf_counter() - t0
    for precon in ("two_level_grid", "two_level_dtn"):
        cfg = SolveConfig(dim=2, k=40.0, alpha=1.0, beta=2.0, precon=precon, mode="hybrid")
        out["groups"][(40, 1.0, 2.0, precon)] = _run_group(cfg)
    return out


@pytest.fixture(scope="module")
def table2_results():
    out = {}
    for k in (10.0, 20.0):
        base = dict(dim=2, k=k, alpha=0.8, beta=1.0, mode="hybrid")
        grid_auto = _run_group(SolveConfig(precon="two_level_grid", **base))
        dtn_fixed = _run_group(SolveConfig(precon="two_level_dtn", selection="fixed2", **base))
        dtn_auto = _run_group(SolveConfig(precon="two_level_dtn", **base))
        mc = max(1, round(dtn_auto["n_CS"] ** 0.5) - 1)
        grid_forced = _run_group(SolveConfig(precon="two_level_grid", coarse_m=mc, **base))
        out[k] = {
            "grid_auto": grid_auto,
            "dtn_fixed2": dtn_fixed,
            "dtn_auto": dtn_auto,
            "grid_forced": grid_forced,
            "forced_mc": mc,
        }
    return out


@pytest.fixture(scope="module")
def table3d_results():
    out = {"groups": {}}
    t0 = time.perf_counter()
    for precon in ("one_level", "two_level_grid"):
        cfg = SolveConfig(dim=3, k=10.0, alpha=0.5, alpha_prime=1.0, beta=1.0,
                          precon=precon, mode="hybrid")
        out["groups"][precon] = _run_group(cfg)
    out["elapsed"] = time.perf_counter() - t0
    return out


# --------------------------------------------------------------------------
# criterion 1: exact algebraic identities at d=2, m <= 40, under 10 s


def test_criterion_1_exact_identities():
    t0 = time.perf_counter()
    failures = []

    mesh = build_uniform_mesh(2, 40)
    v = np.ones(mesh.n_vertices, dtype=complex)
    dec = build_decomposition(mesh, 10, 2)
    acc = np.zeros(mesh.n_vertices, dtype=complex)
    for cls in dec.classes:  # sum_j R_j^T D_j R_j v
        np.add.at(acc, cls.dofs, cls.pou * v[cls.dofs])
    err = np.abs(acc - v).max()
    if err > 1e-15:
        failures.append(f"partition of unity error {err:.2e}")

    k = 10.0
    A_eps = assemble_global(mesh, HelmholtzParams(k=k, epsilon=k))
    asym = A_eps - A_eps.T
    if asym.nnz and np.abs(asym.data).max() != 0.0:
        failures.append(f"A_eps not exactly complex-symmetric: {np.abs(asym.data).max():.2e}")

    # hybrid coarse annihilation Z* P w = 0 for the DtN coarse space at m=8
    toy = build_uniform_mesh(2, 8)
    toy_dec = build_decomposition(toy, 2, 2)
    A_toy = assemble_global(toy, HelmholtzParams(k=6.0, epsilon=6.0))
    cs = build_dtn_cs(toy, toy_dec, 6.0, 6.0, SelectionPolicy("fixed", 2), A_toy)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.standard_normal(toy.n_vertices) + 1j * rng.standard_normal(toy.n_vertices)
        pw = w - A_toy @ cs.coarse_apply(w)
        if np.linalg.norm(cs.Z.conj().T @ pw) > 1e-10 * np.linalg.norm(w):
            failures.append("hybrid coarse annihilation violated")
            break

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    _verdict(1, not failures, f"(identities at m<=40, {elapsed:.1f} s)" if not failures else "; ".join(failures))
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 2: dense oracles at toy scale (d=2, m=8, N_1d=2)


def test_criterion_2_oracle_equivalence():
    failures = []
    k = 6.0
    mesh = build_uniform_mesh(2, 8)
    dec = build_decomposition(mesh, 2, 2)
    n = mesh.n_vertices
    params = HelmholtzParams(k=k, epsilon=k)
    A_eps = assemble_global(mesh, params)

    M1 = np.zeros((n, n), dtype=complex)
    for sub in p1_oracle.subdomains(mesh, 2, 2):
        A_loc = assemble_subdomain(mesh, sub, params).A_local.toarray()
        R = np.zeros((len(sub.dofs), n))
        R[np.arange(len(sub.dofs)), sub.dofs] = 1.0
        M1 += R.T @ (np.diag(sub.pou) @ np.linalg.solve(A_loc, R))

    one = build_one_level(mesh, dec, k, k)
    cs = build_dtn_cs(mesh, dec, k, k, SelectionPolicy("fixed", 2), A_eps)
    two = TwoLevelPreconditioner(one, cs, "hybrid", A_eps)
    Z = cs.Z.toarray()
    A = A_eps.toarray()
    Xi = Z @ np.linalg.solve(Z.conj().T @ (A @ Z), Z.conj().T)
    M2 = (np.eye(n) - Xi @ A) @ M1 @ (np.eye(n) - A @ Xi) + Xi

    rng = np.random.default_rng(1)
    for trial in range(10):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        e1 = np.abs(one.apply(v) - M1 @ v).max() / np.abs(M1 @ v).max()
        e2 = np.abs(two.apply(v) - M2 @ v).max() / np.abs(M2 @ v).max()
        if e1 > 1e-10:
            failures.append(f"one-level oracle mismatch {e1:.2e}")
        if e2 > 1e-10:
            failures.append(f"two-level oracle mismatch {e2:.2e}")

    # dense-LU oracle for the sparse factorization
    rng = np.random.default_rng(2)
    S = sp.random(50, 50, density=0.3, random_state=np.random.RandomState(7)).astype(complex)
    S.data += 1j * rng.standard_normal(S.nnz)
    S = sp.csc_matrix(S + 50 * sp.eye(50))
    b = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    dx = np.abs(factorize(S).solve(b) - np.linalg.solve(S.toarray(), b)).max()
    if dx > 1e-10:
        failures.append(f"factorize vs dense LU {dx:.2e}")

    # characteristic-polynomial oracle for the generalized eigensolver
    Sd = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    Q = rng.standard_normal((8, 8))
    Md = Q @ Q.T + 8 * np.eye(8)
    pairs = generalized_eig(Sd, Md)
    bound = 1e-6 * np.linalg.norm(Sd) ** 8
    for lam in pairs.values:
        if abs(np.linalg.det(Sd - lam * Md)) > bound:
            failures.append(f"charpoly oracle violated at lambda={lam:.3f}")

    _verdict(2, not failures, "" if not failures else "; ".join(failures))
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 3: Table-1 iteration reproduction (beta=1, hybrid, 3-seed medians)


def test_criterion_3_table1_reproduction(table1_results):
    groups = table1_results["groups"]
    failures = []
    for (k, alpha), reference in REFERENCE_ITERS_BETA1.items():
        meds = [groups[(k, alpha, 1.0, p)]["median"] for p in PRECONS]
        for med, ref, p in zip(meds, reference, PRECONS):
            if abs(med - ref) > _band(ref):
                failures.append(f"(k={k}, a={alpha}) {p}: {med} vs reference {ref}")
        one, grid, dtn = meds
        if alpha == 0.6:
            if not dtn <= one:
                failures.append(f"(k={k}, a={alpha}) ordering dtn<=one_level: {dtn} vs {one}")
        else:
            if not (dtn <= grid <= one):
                failures.append(f"(k={k}, a={alpha}) ordering dtn<=grid<=one_level: {meds}")
    elapsed = table1_results["elapsed_beta1"]
    if elapsed > 900:
        failures.append(f"runtime {elapsed:.0f} s > 15 min")
    _verdict(3, not failures,
             f"(27 medians within bands, {elapsed:.0f} s)" if not failures else "; ".join(failures))
    assert not failures, failures


def test_one_level_needs_the_coarse_space_at_k40(table1_results):
    # solver invariant: at (d=2, k=40, alpha=1) the one-level preconditioner
    # takes at least 3x the iterations of the grid coarse-space variant
    groups = table1_results["groups"]
    one = groups[(40, 1.0, 1.0, "one_level")]["median"]
    grid = groups[(40, 1.0, 1.0, "two_level_grid")]["median"]
    assert one >= 3 * grid


# --------------------------------------------------------------------------
# criterion 4: absorption beta=2 degrades both two-level variants at k=40


def test_criterion_4_beta_degradation(table1_results):
    groups = table1_results["groups"]
    failures = []
    for precon in ("two_level_grid", "two_level_dtn"):
        b1 = groups[(40, 1.0, 1.0, precon)]["median"]
        b2 = groups[(40, 1.0, 2.0, precon)]["median"]
        if not b2 > b1:
            failures.append(f"{precon}: beta=2 median {b2} not worse than beta=1 {b1}")
    detail = ", ".join(
        f"{p.split('_')[-1]}: {groups[(40, 1.0, 2.0, p)]['median']:g} > {groups[(40, 1.0, 1.0, p)]['median']:g}"
        for p in ("two_level_grid", "two_level_dtn")
    )
    _verdict(4, not failures, f"({detail})" if not failures else "; ".join(failures))
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 5: coarse-space sizes


def test_criterion_5_coarse_space_sizes(table1_results):
    groups = table1_results["groups"]
    failures = []
    for (k, alpha), expected in REFERENCE_GRID_NCS.items():
        got = groups[(k, alpha, 1.0, "two_level_grid")]["n_CS"]
        if got != expected:
            failures.append(f"grid n_CS (k={k}, a={alpha}): {got} != {expected}")
    for (k, alpha), expected in REFERENCE_DTN_NCS.items():
        got = groups[(k, alpha, 1.0, "two_level_dtn")]["n_CS"]
        if abs(got - expected) > 0.25 * expected:
            failures.append(
                f"dtn n_CS (k={k}, a={alpha}): {got} outside +-25% of {expected}"
                f" (ratio {got / expected:.3f})"
            )
    _verdict(5, not failures,
             "(grid sizes exact, DtN within 25%)" if not failures else "; ".join(failures))
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 6: forced coarse-space sizes reverse the comparison


def test_criterion_6_forced_sizes(table2_results):
    failures = []
    for k, res in table2_results.items():
        if not res["grid_auto"]["median"] <= res["dtn_fixed2"]["median"]:
            failures.append(
                f"k={k} left block: grid {res['grid_auto']['median']} vs"
                f" dtn(m_i=2) {res['dtn_fixed2']['median']}"
            )
        if not res["dtn_auto"]["median"] <= res["grid_forced"]["median"]:
            failures.append(
                f"k={k} right block: dtn {res['dtn_auto']['median']} vs"
                f" grid(m_c={res['forced_mc']}) {res['grid_forced']['median']}"
            )
        expected_fixed = 2 * res["dtn_fixed2"]["N_sub"]  # m_i = 2 per subdomain
        if res["dtn_fixed2"]["n_CS"] != expected_fixed:
            failures.append(
                f"k={k}: dtn fixed-2 size {res['dtn_fixed2']['n_CS']} != {expected_fixed}"
            )
    _verdict(6, not failures, "" if not failures else "; ".join(failures))
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 7: 3d smoke test at k=10


def test_criterion_7_3d_smoke(table3d_results):
    groups = table3d_results["groups"]
    failures = []
    if groups["one_level"]["n"] != 39304:
        failures.append(f"system size {groups['one_level']['n']} != 39304")
    if not all(groups["two_level_grid"]["converged"]):
        failures.append("grid run did not converge")
    if groups["two_level_grid"]["median"] > 30:
        failures.append(f"grid median {groups['two_level_grid']['median']} > 30")
    if groups["one_level"]["median"] > 60:
        failures.append(f"one-level median {groups['one_level']['median']} > 60")
    if table3d_results["elapsed"] > 600:
        failures.append(f"runtime {table3d_results['elapsed']:.0f} s > 10 min")
    detail = (f"(one-level {groups['one_level']['median']:g}, grid"
              f" {groups['two_level_grid']['median']:g} iterations,"
              f" {table3d_results['elapsed']:.0f} s)")
    _verdict(7, not failures, detail if not failures else "; ".join(failures))
    assert not failures, failures


# --------------------------------------------------------------------------
# criterion 8: solution correctness across preconditioner variants


def _pairwise_check(groups_by_precon, label, failures):
    converged = {
        name: g for name, g in groups_by_precon.items() if all(g["converged"])
    }
    for name, g in converged.items():
        for seed_idx, resid in enumerate(g["final_residuals"]):
            if resid > 1e-5:
                failures.append(f"{label} {name} seed {SEEDS[seed_idx]}: residual {resid:.2e}")
    names = sorted(converged)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = converged[names[i]], converged[names[j]]
            for seed_idx in range(len(SEEDS)):
                xa, xb = a["solutions"][seed_idx], b["solutions"][seed_idx]
                rel = np.linalg.norm(xa - xb) / max(np.linalg.norm(xa), np.linalg.norm(xb))
                if rel > 1e-4:
                    failures.append(
                        f"{label} {names[i]} vs {names[j]} seed {SEEDS[seed_idx]}:"
                        f" solutions differ by {rel:.2e}"
                    )


def test_criterion_8_solution_correctness(table1_results, table2_results, table3d_results):
    failures = []
    for (k, alpha) in REFERENCE_ITERS_BETA1:
        per_precon = {
            p: table1_results["groups"][(k, alpha, 1.0, p)] for p in PRECONS
        }
        _pairwise_check(per_precon, f"(k={k}, a={alpha})", failures)
    for k, res in table2_results.items():
        per_precon = {name: res[name] for name in ("grid_auto", "dtn_fixed2", "dtn_auto", "grid_forced")}
        _pairwise_check(per_precon, f"table2 k={k}", failures)
    _pairwise_check(table3d_results["groups"], "3d k=10", failures)
    _verdict(8, not failures, "" if not failures else "; ".join(failures[:4]))
    assert not failures, failures
