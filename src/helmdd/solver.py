"""Single Helmholtz solve: assemble, decompose, precondition, run GMRES.

The solved system always has zero absorption (eta = k on the physical
boundary); absorption eps_prec = k^beta enters only through the preconditioner,
which is built from the shifted operator A_eps = A_0 - i*eps_prec*M.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import mesh as meshmod
from .assembly import HelmholtzParams, assemble_global, assemble_rhs
from .decomposition import build_decomposition
from .linalg import gmres, random_initial_guess
from .preconditioner import (
    LOCAL_SOLVE_WORKERS,
    SelectionPolicy,
    TwoLevelPreconditioner,
    build_dtn_cs,
    build_grid_cs,
    build_one_level,
)

__all__ = ["SolveConfig", "SolveReport", "SolverContext", "solve", "verify_solution"]

PRECONDITIONERS = ("none", "one_level", "two_level_grid", "two_level_dtn")


@dataclass
class SolveConfig:
    """Full description of one experiment run.

    n_subdomains_1d and coarse_m override the k-driven defaults (floor(k^alpha)
    and floor(k^alpha')); beta = None disables absorption in the preconditioner.
    """

    dim: int = 2
    k: float = 10.0
    alpha: float = 1.0
    alpha_prime: float | None = None  # defaults to alpha
    beta: float | None = 1.0  # eps_prec = k^beta; None -> 0
    precon: str = "two_level_dtn"
    mode: str = "hybrid"
    selection: SelectionPolicy = field(default_factory=lambda: SelectionPolicy("automatic"))
    tol: float = 1e-6
    max_iter: int = 500
    seed: int = 0
    overlap_layers: int = 2
    n_subdomains_1d: int | None = None
    coarse_m: int | None = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.precon not in PRECONDITIONERS:
            raise ValueError(f"precon must be one of {PRECONDITIONERS}, got {self.precon!r}")
        if self.mode not in ("additive", "hybrid"):
            raise ValueError(f"mode must be additive or hybrid, got {self.mode!r}")
        if self.overlap_layers < 1:
            raise ValueError(f"overlap_layers must be >= 1, got {self.overlap_layers}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.alpha_prime is None:
            self.alpha_prime = self.alpha
        if isinstance(self.selection, str):
            self.selection = SelectionPolicy.parse(self.selection)

    @property
    def epsilon_prec(self) -> float:
        return 0.0 if self.beta is None else self.k**self.beta

    def to_dict(self) -> dict:
        d = asdict(self)
        d["selection"] = self.selection.label()
        return d


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    n: int
    N_sub: int
    n_CS: int
    residual_history: np.ndarray
    timings: dict
    config: dict
    seed: int
    final_residual: float  # independently recomputed ||f - A0 x|| / ||f||
    orthogonality_loss: float  # GMRES basis: max_i |<v_i, v_{m-1}>|
    # L.nnz + U.nnz: "local" summed over the width-class LUs, "coarse" of E (0 where absent)
    lu_fill_nnz: dict
    local_factorizations: int  # one-level LUs, one per subdomain width class
    local_solve_workers: int  # threads the local solves may use (CPU affinity set); 0 if none
    operator_applies: int  # products with A0 in GMRES, the initial residual's included
    coarse_info: dict | None = None
    solution: np.ndarray | None = None  # not serialized

    def to_dict(self) -> dict:
        return {
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "n": int(self.n),
            "N_sub": int(self.N_sub),
            "n_CS": int(self.n_CS),
            "residual_history": [float(r) for r in self.residual_history],
            "timings": {k: float(v) for k, v in self.timings.items()},
            "config": self.config,
            "seed": int(self.seed),
            "final_residual": float(self.final_residual),
            "orthogonality_loss": float(self.orthogonality_loss),
            "lu_fill_nnz": {k: int(v) for k, v in self.lu_fill_nnz.items()},
            "local_factorizations": int(self.local_factorizations),
            "local_solve_workers": int(self.local_solve_workers),
            "operator_applies": int(self.operator_applies),
            "coarse_info": self.coarse_info,
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


class SolverContext:
    """Assembled system and preconditioner, reusable across seeds."""

    def __init__(self, config: SolveConfig):
        self.config = config
        k = config.k
        t0 = time.perf_counter()
        n1d = config.n_subdomains_1d
        if n1d is None:
            n1d = meshmod.subdomains_per_dimension(k, config.alpha)
        m = meshmod.fine_resolution(k, n1d)
        self.mesh = meshmod.build_uniform_mesh(config.dim, m)
        params = HelmholtzParams(k=k, eta=k)
        if config.precon in ("two_level_grid", "two_level_dtn"):  # A_eps needs M
            self.A0, M = assemble_global(self.mesh, params, with_mass=True)
        else:
            self.A0 = assemble_global(self.mesh, params)
        self.f = assemble_rhs(self.mesh, "gauss2d" if config.dim == 2 else "gauss3d")
        t1 = time.perf_counter()

        self.decomposition = None
        self.precon = None
        self.n_cs = 0
        self.coarse_info = None
        self.lu_fill_nnz = {"local": 0, "coarse": 0}
        self.local_factorizations = 0
        self.local_solve_workers = 0
        if config.precon != "none":
            self.decomposition = build_decomposition(self.mesh, n1d, config.overlap_layers)
            one_level = build_one_level(self.mesh, self.decomposition, k, config.epsilon_prec)
            self.lu_fill_nnz["local"] = sum(lu.fill for lu in one_level.factorizations)
            self.local_factorizations = len(one_level.factorizations)
            self.local_solve_workers = LOCAL_SOLVE_WORKERS
            if config.precon == "one_level":
                self.precon = one_level
            else:
                A_eps = self.A0 + (-1j * config.epsilon_prec) * M
                if config.precon == "two_level_grid":
                    mc = config.coarse_m
                    if mc is None:
                        mc = meshmod.coarse_resolution(k, config.alpha_prime)
                    coarse_mesh = meshmod.build_uniform_mesh(config.dim, mc)
                    cs = build_grid_cs(coarse_mesh, self.mesh, A_eps)
                else:
                    cs = build_dtn_cs(
                        self.mesh,
                        self.decomposition,
                        k,
                        config.epsilon_prec,
                        config.selection,
                        A_eps,
                    )
                self.n_cs = cs.n_cs
                self.lu_fill_nnz["coarse"] = cs.E_fact.fill
                self.coarse_info = cs.summary()
                self.precon = TwoLevelPreconditioner(one_level, cs, config.mode, A_eps)
        t2 = time.perf_counter()
        self.timings = {"assembly": t1 - t0, "setup": t2 - t1}

    @property
    def n(self) -> int:
        return self.mesh.n_vertices

    @property
    def n_subdomains(self) -> int:
        return 0 if self.decomposition is None else self.decomposition.n_subdomains

    def run(self, seed: int | None = None) -> SolveReport:
        config = self.config
        seed = config.seed if seed is None else seed
        x0 = random_initial_guess(self.n, seed)
        apply_M = self.precon.apply if self.precon is not None else None
        t0 = time.perf_counter()
        outcome = gmres(
            self.A0,
            self.f,
            apply_M=apply_M,
            x0=x0,
            tol=config.tol,
            max_iter=config.max_iter,
        )
        solve_seconds = time.perf_counter() - t0
        final = verify_solution(outcome.solution, self.A0, self.f)
        timings = dict(self.timings)
        timings["solve"] = solve_seconds
        return SolveReport(
            iterations=outcome.iterations,
            converged=outcome.converged,
            n=self.n,
            N_sub=self.n_subdomains,
            n_CS=self.n_cs,
            residual_history=outcome.residual_history,
            timings=timings,
            config=config.to_dict(),
            seed=seed,
            final_residual=final,
            orthogonality_loss=outcome.orthogonality_loss,
            lu_fill_nnz=dict(self.lu_fill_nnz),
            local_factorizations=self.local_factorizations,
            local_solve_workers=self.local_solve_workers,
            operator_applies=outcome.operator_applies,
            coarse_info=self.coarse_info,
            solution=outcome.solution,
        )


def solve(config: SolveConfig) -> SolveReport:
    """Assemble, precondition and solve one configuration (see SolverContext.run)."""
    return SolverContext(config).run()


def verify_solution(x, A0, f) -> float:
    """Recompute ||f - A0 x|| / ||f|| independently of the GMRES internals."""
    norm_f = np.linalg.norm(f)
    if norm_f == 0:
        return float(np.linalg.norm(A0 @ x))
    return float(np.linalg.norm(f - A0 @ x) / norm_f)
