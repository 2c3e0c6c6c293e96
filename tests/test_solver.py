import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helmdd import linalg, solver
from helmdd.assembly import HelmholtzParams, assemble_global, assemble_rhs
from helmdd.linalg import factorize
from helmdd.mesh import build_uniform_mesh
from helmdd.solver import SolveConfig, SolverContext, solve, verify_solution


def test_config_validation_and_defaults():
    cfg = SolveConfig(k=10.0, alpha=0.8)
    assert cfg.coarse_alpha == 0.8
    assert cfg.epsilon_prec == 10.0
    cfg2 = SolveConfig(k=10.0, beta=2.0)
    assert cfg2.epsilon_prec == 100.0
    assert SolveConfig(k=10.0, beta=None).epsilon_prec == 0.0
    with pytest.raises(ValueError):
        SolveConfig(dim=4)
    with pytest.raises(ValueError):
        SolveConfig(precon="multigrid")
    with pytest.raises(ValueError):
        SolveConfig(mode="bogus")
    with pytest.raises(ValueError):
        SolveConfig(selection="almost")


def test_alpha_prime_follows_alpha_after_replace():
    # alpha_prime = None is resolved where it is read, so a replaced alpha moves
    # the grid coarse space too: (floor(10^0.6) + 1)^2 = 16 coarse vertices
    moved = replace(SolveConfig(k=10.0, precon="two_level_grid"), alpha=0.6)
    assert moved.alpha_prime is None and moved.to_dict()["alpha_prime"] == 0.6
    for config in (moved, SolveConfig(k=10.0, alpha=0.6, precon="two_level_grid")):
        assert SolverContext(config).n_cs == 16


@pytest.mark.parametrize(
    "field,value",
    [
        ("overlap_layers", 0),
        ("tol", 0.0),
        ("tol", -1e-6),
        ("max_iter", 0),
        ("seed", -1),
        ("coarse_m", 0),
    ],
)
def test_config_rejects_invalid_value(field, value):
    with pytest.raises(ValueError, match=field):
        SolveConfig(**{field: value})


def test_selection_string_parsing():
    assert SolveConfig(selection="automatic").selection.kind == "automatic"
    cfg = SolveConfig(selection="fixed2")
    assert cfg.selection.kind == "fixed" and cfg.selection.count == 2
    cfg = SolveConfig(selection="capped:20")
    assert cfg.selection.kind == "capped" and cfg.selection.count == 20


def test_seed_determinism():
    cfg = SolveConfig(dim=2, k=10.0, alpha=0.6, beta=1.0, precon="two_level_dtn", seed=3)
    r1 = solve(cfg)
    r2 = solve(cfg)
    assert r1.iterations == r2.iterations
    np.testing.assert_array_equal(r1.residual_history, r2.residual_history)


def test_forced_single_subdomain_exact_preconditioner():
    cfg = SolveConfig(
        dim=2, k=10.0, beta=None, precon="one_level", n_subdomains_1d=1, seed=0
    )
    report = solve(cfg)
    assert report.converged and report.iterations <= 2
    assert report.N_sub == 1 and report.n_CS == 0


def test_solver_reuses_context_across_seeds():
    ctx = SolverContext(SolveConfig(dim=2, k=10.0, alpha=0.6, precon="two_level_grid"))
    r0 = ctx.run(0)
    r1 = ctx.run(1)
    assert r0.seed == 0 and r1.seed == 1
    assert r0.n == r1.n and r0.n_CS == r1.n_CS
    assert not np.array_equal(r0.residual_history, r1.residual_history)


def test_verify_solution_cases():
    mesh = build_uniform_mesh(2, 12)
    A0 = assemble_global(mesh, HelmholtzParams(k=10.0))
    f = assemble_rhs(mesh)
    x_exact = factorize(A0).solve(f)
    assert verify_solution(x_exact, A0, f) <= 1e-10
    assert abs(verify_solution(np.zeros(mesh.n_vertices), A0, f) - 1.0) < 1e-14

    ctx = SolverContext(SolveConfig(dim=2, k=10.0, alpha=0.6, precon="two_level_dtn"))
    report = ctx.run(0)
    assert report.converged
    assert verify_solution(report.solution, ctx.A0, ctx.f) <= 1e-5


def test_final_residual_consistent_with_history():
    report = solve(SolveConfig(dim=2, k=10.0, alpha=0.6, precon="two_level_grid", seed=1))
    assert report.converged
    # right-preconditioned GMRES tracks the true residual: recomputed value
    # agrees with the last history entry within a factor of 10
    assert report.final_residual <= 10 * report.residual_history[-1]
    assert report.final_residual <= 1e-5


def test_reference_counts_at_k10():
    # anchors: 65 / 26 / 11 iterations for one-level / grid / DtN at k=10, alpha=1
    results = {}
    for precon in ("one_level", "two_level_grid", "two_level_dtn"):
        report = solve(SolveConfig(dim=2, k=10.0, alpha=1.0, beta=1.0, precon=precon, seed=0))
        assert report.converged
        results[precon] = report
    assert abs(results["one_level"].iterations - 65) <= max(0.5 * 65, 5)
    assert abs(results["two_level_grid"].iterations - 26) <= max(0.5 * 26, 5)
    assert abs(results["two_level_dtn"].iterations - 11) <= max(0.5 * 11, 5)
    assert results["two_level_grid"].n_CS == 121
    assert abs(results["two_level_dtn"].n_CS - 324) <= 0.25 * 324
    its = [results[p].iterations for p in ("two_level_dtn", "two_level_grid", "one_level")]
    assert its == sorted(its)


def test_report_serialization(tmp_path):
    ctx = SolverContext(SolveConfig(dim=2, k=10.0, alpha=0.6, precon="two_level_dtn", seed=0))
    report = ctx.run()
    data = report.to_dict()
    assert data["n_CS"] == report.n_CS
    assert "solution" not in data
    assert data["coarse_info"]["kind"] == "dtn"
    path = tmp_path / "report.json"
    report.to_json(path)
    parsed = json.loads(path.read_text())
    assert parsed["iterations"] == report.iterations
    assert parsed["residual_history"][-1] <= 1e-6
    assert 0 < report.orthogonality_loss < 1e-12  # CGS2 keeps the basis orthogonal
    assert parsed["orthogonality_loss"] == data["orthogonality_loss"] == report.orthogonality_loss
    # a solve of at most S_STEP_PREFIX = 32 steps makes one product per step and the
    # initial residual's
    assert parsed["operator_applies"] == report.operator_applies == report.iterations + 1
    # LU fill: the class Robin LUs of the one-level part and the coarse E
    local = sum(lu.fill for lu in ctx.precon.one_level.factorizations)
    coarse = ctx.precon.coarse.E_fact.fill
    assert parsed["lu_fill_nnz"] == data["lu_fill_nnz"] == {"local": local, "coarse": coarse}
    Z = ctx.precon.coarse.Z
    assert local > 0 and coarse >= (Z.conj().T @ (ctx.precon.A_eps @ Z)).nnz
    one_level = solve(SolveConfig(dim=2, k=10.0, alpha=0.6, precon="one_level")).to_dict()
    assert one_level["lu_fill_nnz"] == {"local": local, "coarse": 0}
    # one Robin LU per width class of the 3 x 3 boxes, and one margin entry per orbit
    assert report.N_sub == 9
    assert parsed["local_factorizations"] == one_level["local_factorizations"] == 3
    # the local solves run on the threads of the CPU affinity set
    workers = len(os.sched_getaffinity(0))
    assert parsed["local_solve_workers"] == one_level["local_solve_workers"] == workers
    assert len(ctx.precon.one_level.factorizations) == 3
    margins = parsed["coarse_info"]["selection_margin"]
    assert [entry["members"] for entry in margins] == [2, 4, 2, 1]
    assert all(len(entry["key"]) == 2 and entry["margin"] >= 0 for entry in margins)


# Runs the solve of the SolveConfig fields in argv[1] with 1, 2 and 3 workers
# in one process and prints, per worker count, its iterations, its local LU
# fill and the SHA-256 of its solution and residual history.
WORKER_COUNT_CHILD = """
import hashlib, json, sys
from helmdd import pool
from helmdd.solver import SolveConfig, SolverContext
config = SolveConfig(**json.loads(sys.argv[1]))
out = []
for workers in (1, 2, 3):
    pool.LOCAL_SOLVE_WORKERS = workers
    r = SolverContext(config).run(0)
    digest = [hashlib.sha256(a.tobytes()).hexdigest() for a in (r.solution, r.residual_history)]
    out.append([r.iterations, r.lu_fill_nnz["local"]] + digest)
print(json.dumps(out))
"""


def solve_with_1_2_and_3_workers(config: dict, blas_threads: str) -> list:
    src = str(Path(solver.__file__).resolve().parents[1])
    threads = {name: blas_threads for name in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, **threads)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    child = subprocess.run(
        [sys.executable, "-c", WORKER_COUNT_CHILD, json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("blas_threads", ["1", "2"])
@pytest.mark.parametrize(
    "precon, alpha_prime, iterations", [("one_level", None, 30), ("two_level_grid", 1.0, 14)]
)
def test_3d_solves_are_bitwise_the_same_for_any_worker_count(
    precon, alpha_prime, iterations, blas_threads
):
    # the nested-dissection LUs factorized and solved in 1, 2 or 3 shares (the
    # grid at alpha' = 1, as in criterion 7), with one BLAS thread or two.  A
    # threaded BLAS makes SuperLU's solution of a column depend on the columns
    # solved with it (see README); the column blocks of each class do not
    # depend on the worker count, so every solve call sees the same columns.
    config = {"dim": 3, "k": 10.0, "alpha": 0.5, "alpha_prime": alpha_prime, "precon": precon}
    runs = solve_with_1_2_and_3_workers(config, blas_threads)
    assert [run[0] for run in runs] == [iterations] * 3
    assert runs[0][1] < 3_391_716  # the fill of SuperLU's minimum-degree order
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_block_solve_is_bitwise_the_same_for_any_worker_count(blas_threads):
    # 87 steps: 32 single steps and 7 s-step blocks, all of whose projections run their
    # fixed column chunks in 1, 2 or 3 shares and sum them in chunk order
    config = {"dim": 2, "k": 20.0, "alpha": 0.8, "precon": "one_level"}
    runs = solve_with_1_2_and_3_workers(config, blas_threads)
    assert [run[0] for run in runs] == [87] * 3
    assert all(run == runs[0] for run in runs)


def test_unpreconditioned_solve_path():
    report = solve(
        SolveConfig(dim=2, k=4.0, precon="none", n_subdomains_1d=1, max_iter=200, seed=0)
    )
    assert report.converged and report.N_sub == 0 and report.n_CS == 0
    assert report.to_dict()["local_factorizations"] == 0
    assert report.to_dict()["local_solve_workers"] == 0
    assert report.final_residual <= 1e-5


REPORT_KEYS = [
    "iterations", "converged", "n", "N_sub", "n_CS", "residual_history", "timings", "config",
    "seed", "final_residual", "orthogonality_loss", "lu_fill_nnz", "local_factorizations",
    "local_solve_workers", "operator_applies", "s_step_blocks", "coarse_info",
]


def _json_typed(value) -> bool:
    """True when value is built of JSON's own Python types only (no numpy)."""
    if type(value) is dict:
        return all(type(k) is str and _json_typed(v) for k, v in value.items())
    if type(value) is list:
        return all(_json_typed(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


@pytest.mark.parametrize(
    "precon, extra",
    [("none", {"k": 4.0, "n_subdomains_1d": 1}), ("one_level", {}),
     ("two_level_grid", {}), ("two_level_dtn", {})],
)
def test_report_schema(precon, extra):
    report = solve(SolveConfig(**{"dim": 2, "k": 10.0, "precon": precon, **extra}))
    d = report.to_dict()
    assert list(d) == REPORT_KEYS
    assert all(_json_typed(v) for v in d.values())
    assert type(d["iterations"]) is int and type(d["converged"]) is bool
    assert type(d["final_residual"]) is float and type(d["config"]) is dict
    assert len(d["residual_history"]) == d["iterations"] + 1
    if precon in ("none", "one_level"):
        assert d["coarse_info"] is None and d["n_CS"] == 0
    else:
        assert d["coarse_info"]["n_cs"] == d["n_CS"] > 0
    if precon == "none":
        assert d["lu_fill_nnz"] == {"local": 0, "coarse": 0}
    blocks = d["s_step_blocks"]
    assert list(blocks) == ["one_projection", "two_projections", "dropped"]
    if blocks["dropped"] == 0:  # every step past the prefix came from a block
        past_prefix = max(d["iterations"] - linalg.S_STEP_PREFIX, 0)
        assert sum(blocks.values()) == -(-past_prefix // linalg.S_STEP_BLOCK)
    assert json.loads(json.dumps(d)) == d


@pytest.mark.parametrize(
    "precon,builder", [("two_level_grid", "build_grid_cs"), ("two_level_dtn", "build_dtn_cs")]
)
def test_shifted_operator_is_derived_from_the_solved_one(monkeypatch, precon, builder):
    # A_eps = A_0 - i eps_prec M is handed to the coarse space and the two-level
    # composition; it must be the assembled shifted problem to the last bit, and
    # the context must assemble a global operator only once
    calls, handed = [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_global(*args, **kwargs)

    build = getattr(solver, builder)

    def spy(*args, **kwargs):
        handed.append(inspect.signature(build).bind(*args, **kwargs).arguments["A_eps"])
        return build(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble_global", counted)
    monkeypatch.setattr(solver, builder, spy)
    config = SolveConfig(dim=2, k=10.0, alpha=0.6, precon=precon)
    ctx = SolverContext(config)
    assert len(calls) == 1

    shifted = HelmholtzParams(k=10.0, epsilon=config.epsilon_prec)
    expected = assemble_global(ctx.mesh, shifted)
    assert len(handed) == 1
    for A_eps in (handed[0].tocsr(), ctx.precon.A_eps):
        np.testing.assert_array_equal(A_eps.indptr, expected.indptr)
        np.testing.assert_array_equal(A_eps.indices, expected.indices)
        # compared as raw bits, so a signed zero counts as a difference
        np.testing.assert_array_equal(A_eps.data.view(np.int64), expected.data.view(np.int64))
