"""Show that every correctness check of the benchmark fires on a perturbed input.

    python3 perfbench/selftest.py

Solves a small 2d problem (k = 10, about 1 s), then feeds each check the true
result, which must pass, and a deliberately perturbed one, which must fail.
The size checks use the three workloads' own specifications.  Exits 1 if a
check passes a perturbed input or fails a true one.
"""

from __future__ import annotations

import sys

import numpy as np

import checks
from run import WORKLOADS, load_helmdd


def main():
    helmdd = load_helmdd()
    config = helmdd.SolveConfig(dim=2, k=10.0, alpha=1.0, precon="two_level_grid")
    ctx = helmdd.SolverContext(config)
    report = ctx.run(0)
    A, f, x = ctx.A0, ctx.f, report.solution
    x_ref, _ = checks.direct_solve(A, f, ctx.mesh.vertices)
    if not checks.relative_residual(x_ref, A, f) <= checks.ORACLE_SELF_RESIDUAL:
        sys.exit("selftest: the direct solve itself is inaccurate")
    rng = np.random.default_rng(0)
    noise = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    x_bad = x + 1e-3 * np.linalg.norm(x) * noise / np.linalg.norm(noise)
    its, max_iter = report.iterations, config.max_iter

    cases = [  # (check, on the true result, on a perturbed one)
        ("converged", lambda: checks.check_converged(max_iter, its, True),
         lambda: checks.check_converged(max_iter, its, False)),
        ("converged within max_iter", lambda: checks.check_converged(max_iter, its, True),
         lambda: checks.check_converged(max_iter, max_iter + 1, True)),
        ("residual", lambda: checks.check_residual(x, A, f),
         lambda: checks.check_residual(x_bad, A, f)),
        ("direct solve", lambda: checks.check_oracle(x, x_ref),
         lambda: checks.check_oracle(x_bad, x_ref)),
    ]
    true_sizes = {"oras1-2d-k40": (71289, 0), "dtn-2d-k40": (78961, 4640),
                  "grid-3d-k10": (39304, 1331)}
    for name, workload in WORKLOADS.items():
        n, n_cs = true_sizes[name]
        lo, hi = workload.iteration_band
        cases += [
            (f"{name} n", lambda w=workload, n=n, c=n_cs: checks.check_sizes(w, n, c),
             lambda w=workload, n=n, c=n_cs: checks.check_sizes(w, n + 1, c)),
            (f"{name} iteration band", lambda b=(lo, hi): checks.check_band(b, sum(b) // 2),
             lambda b=(lo, hi): checks.check_band(b, b[1] + 1)),
        ]
        if n_cs:
            bad = n_cs + 1 if workload.dtn_n_cs is None else int(n_cs * 1.3)
            cases.append((f"{name} n_CS",
                          lambda w=workload, n=n, c=n_cs: checks.check_sizes(w, n, c),
                          lambda w=workload, n=n, c=bad: checks.check_sizes(w, n, c)))

    broken = 0
    for name, good, bad in cases:
        passes, fires = not good(), bool(bad())
        broken += not (passes and fires)
        print(f"{'ok ' if passes and fires else 'BAD'} {name}: true result "
              f"{'passes' if passes else 'FAILS'}, perturbed {'fails' if fires else 'PASSES'}")
    print(f"{len(cases) - broken} of {len(cases)} checks behave")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
