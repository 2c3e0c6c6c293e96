"""Solve benchmark for helmdd.

    python3 perfbench/run.py --workload oras1-2d-k40 --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each run is a closed loop of rounds in one
process; a round is `SolverContext(config)` followed by a few `ctx.run(seed)`
calls, as the table sweeps do.  Rounds repeat until --seconds have passed and
the workload's minimum number of rounds (two in a traced run) is reached.
The solve seeds come from --seed alone.  After the timed rounds every solve
is checked (see checks.py), also against a direct solve of the assembled
system that is kept in perfbench/out/; a solve that raised or failed a check
counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced rounds, reports the per-layer metrics of
BENCHMARK.json from the traced ones (per round), prints the tracing overhead
and writes the spans to perfbench/out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread: a run occupies one core, so its timings depend less on
# whatever else the machine is running.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass(frozen=True)
class Workload:
    config: dict  # SolveConfig keyword arguments
    min_rounds: int
    solves_per_round: int
    iteration_band: tuple  # published band for every solve, inclusive
    dtn_n_cs: int | None = None  # published DtN coarse size


WORKLOADS = {
    # Table 1 one-level cell (k=40, alpha=0.8): 158 +- 79 iterations.
    "oras1-2d-k40": Workload(
        dict(dim=2, k=40.0, alpha=0.8, beta=1.0, precon="one_level"),
        min_rounds=2, solves_per_round=1, iteration_band=(79, 237)),
    # Table 1 DtN cell (k=40, alpha=1): 20 +- 10 iterations, n_CS 4640.
    "dtn-2d-k40": Workload(
        dict(dim=2, k=40.0, alpha=1.0, beta=1.0, precon="two_level_dtn", mode="hybrid",
             selection="automatic"),
        min_rounds=1, solves_per_round=4, iteration_band=(10, 30), dtn_n_cs=4640),
    # Acceptance criterion 7: 3d grid (alpha, alpha') = (0.5, 1), at most 30 iterations.
    "grid-3d-k10": Workload(
        dict(dim=3, k=10.0, alpha=0.5, alpha_prime=1.0, beta=1.0, precon="two_level_grid",
             mode="hybrid"),
        min_rounds=2, solves_per_round=2, iteration_band=(1, 30)),
}


@dataclass
class Round:
    traced: bool
    setup_s: float = 0.0
    time_to_solution_s: float | None = None
    solves: list = field(default_factory=list)  # dicts: seed, solve_s, iterations, ...
    error: str | None = None
    system: tuple | None = None  # (A0, f, vertices, max_iter)
    n: int = 0
    n_cs: int = 0


def load_helmdd():
    """Import helmdd from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "helmdd" / "__init__.py").is_file():
        sys.exit(f"run.py: no helmdd sources at {src / 'helmdd'}")
    sys.path.insert(0, str(src))
    import helmdd

    if Path(helmdd.__file__).resolve().parent != (src / "helmdd").resolve():
        sys.exit(f"run.py: imported helmdd from {helmdd.__file__}, not from {src}")
    return helmdd


def run_round(helmdd, workload, seeds, tracer):
    rnd = Round(traced=tracer is not None)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            ctx = helmdd.SolverContext(helmdd.SolveConfig(**workload.config))
        except Exception:  # setup failed: every solve of the round counts as failed
            rnd.error = traceback.format_exc()
            rnd.solves = [{"seed": seed, "error": rnd.error} for seed in seeds]
            return rnd
        rnd.setup_s = time.perf_counter() - t0
        rnd.system = (ctx.A0, ctx.f, ctx.mesh.vertices, ctx.config.max_iter)
        rnd.n, rnd.n_cs = ctx.n, ctx.n_cs
        for seed in seeds:
            start = time.perf_counter()
            try:
                report = ctx.run(seed)
            except Exception:  # a failed solve is counted, the run goes on
                rnd.solves.append({"seed": seed, "error": traceback.format_exc()})
                continue
            end = time.perf_counter()
            if seed == seeds[0]:
                rnd.time_to_solution_s = end - t0
            rnd.solves.append({
                "seed": seed, "solve_s": end - start, "iterations": int(report.iterations),
                "converged": bool(report.converged), "x": report.solution,
            })
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rnd


def check_rounds(name, workload, rounds):
    """Attach failure lists to every solve; returns a note on the reference solution."""
    first = next(r for r in rounds if r.system is not None)
    A, f, vertices, _ = first.system
    t0 = time.perf_counter()
    x_ref, source = checks.reference_solution(A, f, vertices, HERE / "out" / f"x_ref-{name}.npy")
    note = f"reference solution: {source}, {time.perf_counter() - t0:.2f} s"
    for rnd in rounds:
        if rnd.system is None:
            continue
        A, f, _, max_iter = rnd.system
        size_failures = checks.check_sizes(workload, rnd.n, rnd.n_cs)
        for solve in rnd.solves:
            if "error" in solve:
                continue
            solve["failures"] = size_failures + checks.check_solve(
                workload, max_iter, solve["iterations"], solve["converged"],
                solve.pop("x"), A, f, x_ref)
        rnd.system = None
    return note


def per_layer(spec, tracer, traced_rounds):
    """Per-layer metrics of BENCHMARK.json, per traced round."""
    total, self_s, calls = tracer.aggregate()
    n = len(traced_rounds)
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "preconditioner.n_cs":
            value = statistics.median(r.n_cs for r in traced_rounds)
        elif name.endswith("_calls"):
            c = calls.get(name[: -len("_calls")], 0)
            value = c // n if c % n == 0 else c / n
        elif name.endswith("_self_s"):
            value = self_s.get(name[: -len("_self_s")], 0.0) / n
        elif name.endswith("_s"):
            value = total.get(name[: -len("_s")], 0.0) / n
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def end_to_end(rounds, peak_rss_mb):
    """End-to-end figures of the given rounds; None where no solve succeeded."""
    def median(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    done = [s for r in rounds for s in r.solves if "solve_s" in s]
    return {
        "setup_s": median(r.setup_s for r in rounds if r.error is None),
        "solve_s": median(s["solve_s"] for s in done),
        "time_to_solution_s": median(r.time_to_solution_s for r in rounds),
        "iterations": median(s["iterations"] for s in done),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    helmdd = load_helmdd()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    log = sys.stderr
    tracer = spans.Tracer() if args.trace else None

    rounds = []
    t_start = time.perf_counter()
    min_rounds = 2 if args.trace else workload.min_rounds  # traced runs need one of each kind
    while len(rounds) < min_rounds or time.perf_counter() - t_start < args.seconds:
        traced = args.trace and len(rounds) % 2 == 1
        # A traced round repeats the seeds of the untraced round before it.
        first = args.seed * 1000 + len(rounds) // (1 + args.trace) * workload.solves_per_round
        rnd = run_round(helmdd, workload, list(range(first, first + workload.solves_per_round)),
                        tracer if traced else None)
        rounds.append(rnd)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(rounds) == 1:
            # Later rounds reuse a heap that glibc keeps after the first context is
            # freed, so their peak RSS would measure the allocator, not the program.
            peak_rss_mb = rss_mb
        print(f"round {len(rounds)}{' traced' if traced else ''}: setup {rnd.setup_s:.3f} s, "
              f"solves {[round(s['solve_s'], 3) for s in rnd.solves if 'solve_s' in s]} s, "
              f"iterations {[s.get('iterations') for s in rnd.solves]}, peak RSS {rss_mb:.0f} MB",
              file=log, flush=True)

    if any(r.system is not None for r in rounds):
        print(check_rounds(args.workload, workload, rounds), file=log)

    attempted = failed = 0
    wrong = False
    for solve in (s for r in rounds for s in r.solves):
        attempted += 1
        if "error" in solve:
            failed += 1
            print(f"seed {solve['seed']} raised:\n{solve['error']}", file=log)
        elif solve["failures"]:
            failed += 1
            wrong = True
            print(f"seed {solve['seed']} failed: {'; '.join(solve['failures'])}", file=log)

    untraced = end_to_end([r for r in rounds if not r.traced], peak_rss_mb)
    if args.trace:
        traced_rounds = [r for r in rounds if r.traced]
        metrics = per_layer(spec, tracer, traced_rounds)
        if tracer.absent:
            print(f"absent, reported as 0: {', '.join(sorted(set(tracer.absent)))}")
        with_tracing = end_to_end(traced_rounds, None)
        for key in ("setup_s", "solve_s"):
            if with_tracing[key] is not None and untraced[key] is not None:
                gap = with_tracing[key] - untraced[key]
                print(f"tracing overhead {key}: {gap:+.4f} s "
                      f"({100 * gap / untraced[key]:+.1f}% of untraced {untraced[key]:.4f} s)")
        write_spans(args, tracer, metrics)
    else:
        metrics = {m["name"]: {"value": untraced[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"] if untraced.get(m["name"]) is not None}

    correct = not wrong and len(metrics) == len(spec["per_layer" if args.trace else "end_to_end"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_spans(args, tracer, metrics):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "absent": tracer.absent, "columns": ["name", "start_s", "end_s", "parent"],
                   "spans": tracer.spans}, fh)
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
