"""Helmholtz solves with one- and two-level overlapping Schwarz (ORAS) preconditioners.

The pure Helmholtz system is solved by right-preconditioned GMRES; the
preconditioners are built from the shifted (absorptive) problem, with either a
coarse-mesh (grid) or a Dirichlet-to-Neumann spectral coarse space.
"""

from .assembly import HelmholtzParams, assemble_global, assemble_rhs, assemble_subdomain
from .decomposition import BoxClass, Decomposition, build_decomposition
from .harness import SweepSpec, run_sweep, table1_desk, table3_desk
from .linalg import factorize, generalized_eig, gmres, random_initial_guess
from .mesh import (
    SimplicialMesh,
    build_uniform_mesh,
    coarse_resolution,
    fine_resolution,
    subdomains_per_dimension,
)
from .preconditioner import (
    CoarseSpace,
    OneLevelORAS,
    SelectionPolicy,
    TwoLevelPreconditioner,
    build_dtn_cs,
    build_grid_cs,
    build_one_level,
)
from .solver import SolveConfig, SolveReport, SolverContext, solve, verify_solution

__all__ = [
    "HelmholtzParams",
    "assemble_global",
    "assemble_rhs",
    "assemble_subdomain",
    "BoxClass",
    "Decomposition",
    "build_decomposition",
    "SweepSpec",
    "run_sweep",
    "table1_desk",
    "table3_desk",
    "factorize",
    "generalized_eig",
    "gmres",
    "random_initial_guess",
    "SimplicialMesh",
    "build_uniform_mesh",
    "coarse_resolution",
    "fine_resolution",
    "subdomains_per_dimension",
    "CoarseSpace",
    "OneLevelORAS",
    "SelectionPolicy",
    "TwoLevelPreconditioner",
    "build_dtn_cs",
    "build_grid_cs",
    "build_one_level",
    "SolveConfig",
    "SolveReport",
    "SolverContext",
    "solve",
    "verify_solution",
]

__version__ = "0.1.0"
