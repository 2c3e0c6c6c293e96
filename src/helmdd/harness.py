"""Experiment CLI and sweep driver: batch solves, CSV/JSON output, desk presets.

The desk presets mirror the structure of the reference iteration-count tables
at workstation scale (k <= 40 in 2d, k = 10 in 3d); the full wavenumber ranges
stay available behind --full with a runtime warning.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .solver import SolveConfig, SolverContext

__all__ = [
    "SweepSpec",
    "run_sweep",
    "load_sweep_spec",
    "table1_desk",
    "run_table2_desk",
    "table3_desk",
    "cli_main",
    "main",
]

CSV_COLUMNS = [
    "k", "d", "alpha", "alpha_prime", "beta", "precon", "mode",
    "N_sub", "n", "n_CS", "iterations", "converged", "solve_seconds",
]

SUMMARY_COLUMNS = [
    "k", "d", "alpha", "alpha_prime", "beta", "precon", "mode",
    "N_sub", "n", "n_CS", "median_iterations", "n_seeds", "all_converged",
    "median_solve_seconds",
]

_PRECON_ALIASES = {
    "none": "none",
    "one-level": "one_level",
    "one_level": "one_level",
    "1-level": "one_level",
    "grid": "two_level_grid",
    "two_level_grid": "two_level_grid",
    "dtn": "two_level_dtn",
    "two_level_dtn": "two_level_dtn",
}


def canonical_precon(name: str) -> str:
    try:
        return _PRECON_ALIASES[name]
    except KeyError:
        raise ValueError(f"unknown preconditioner {name!r}") from None


@dataclass
class SweepSpec:
    """Cartesian sweep over wavenumbers, exponent pairs, absorptions, preconditioners."""

    dim: int = 2
    ks: tuple = (10.0,)
    alphas: tuple = ((1.0, None),)  # (alpha, alpha_prime-or-None) pairs
    betas: tuple = (1.0,)
    precons: tuple = ("one_level", "two_level_grid", "two_level_dtn")
    mode: str = "hybrid"
    selection: str = "automatic"
    seeds: tuple = (0, 1, 2)
    tol: float = 1e-6
    max_iter: int = 500
    overlap_layers: int = 2
    out: str | None = None

    def configs(self) -> list:
        out = []
        for k in self.ks:
            for alpha, alpha_prime in self.alphas:
                for beta in self.betas:
                    for precon in self.precons:
                        name, sel = _split_precon(precon, self.selection)
                        out.append(
                            SolveConfig(
                                dim=self.dim,
                                k=float(k),
                                alpha=float(alpha),
                                alpha_prime=None if alpha_prime is None else float(alpha_prime),
                                beta=None if beta is None else float(beta),
                                precon=name,
                                mode=self.mode,
                                selection=sel,
                                tol=self.tol,
                                max_iter=self.max_iter,
                                overlap_layers=self.overlap_layers,
                            )
                        )
        return out


def _split_precon(entry: str, default_selection: str):
    """'dtn:fixed2' -> ('two_level_dtn', 'fixed2'); plain names use the default."""
    if ":" in entry:
        name, sel = entry.split(":", 1)
        return canonical_precon(name), sel
    return canonical_precon(entry), default_selection


def _row_from_report(report) -> dict:
    cfg = report.config
    return {
        "k": cfg["k"],
        "d": cfg["dim"],
        "alpha": cfg["alpha"],
        "alpha_prime": cfg["alpha_prime"],
        "beta": "" if cfg["beta"] is None else cfg["beta"],
        "precon": _precon_label(cfg),
        "mode": cfg["mode"],
        "N_sub": report.N_sub,
        "n": report.n,
        "n_CS": report.n_CS,
        "iterations": report.iterations,
        "converged": report.converged,
        "solve_seconds": report.timings["solve"],
    }


def _precon_label(cfg: dict) -> str:
    name = cfg["precon"]
    if name == "two_level_dtn" and cfg["selection"] != "automatic":
        return f"{name}:{cfg['selection']}"
    if name == "two_level_grid" and cfg.get("coarse_m") is not None:
        return f"{name}:m{cfg['coarse_m']}"
    return name


def _failure_row(config: SolveConfig, ctx: SolverContext | None = None) -> dict:
    return {
        "k": config.k,
        "d": config.dim,
        "alpha": config.alpha,
        "alpha_prime": config.alpha_prime,
        "beta": "" if config.beta is None else config.beta,
        "precon": _precon_label(config.to_dict()),
        "mode": config.mode,
        "N_sub": 0 if ctx is None else ctx.n_subdomains,
        "n": 0 if ctx is None else ctx.n,
        "n_CS": 0 if ctx is None else ctx.n_cs,
        "iterations": -1,
        "converged": False,
        "solve_seconds": 0.0,
    }


def run_config_group(config: SolveConfig, seeds) -> tuple:
    """Build one solver context and run it for every seed; returns (rows, reports, error).

    A failed setup fails every seed; a failed solve fails only its seed.  Each
    failure keeps its row (iterations = -1) and error is the failures' text,
    one line per failed seed, or None.
    """
    try:
        ctx = SolverContext(config)
    except Exception as exc:  # record and continue with the rest of the sweep
        return [_failure_row(config) for _ in seeds], [], f"{type(exc).__name__}: {exc}"
    rows, reports, failures = [], [], []
    for seed in seeds:
        try:
            report = ctx.run(seed)
        except Exception as exc:  # record and continue with the next seed
            rows.append(_failure_row(config, ctx))
            failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            continue
        rows.append(_row_from_report(report))
        reports.append(report)
    return rows, reports, "\n".join(failures) or None


def run_sweep(spec: SweepSpec, jobs: int = 1, echo=None):
    """Execute every (config, seed) pair; returns (rows, summary_rows, errors).

    Writes rows to spec.out (and the median summary to <out>_summary.csv) when
    an output path is set.  Failures are recorded per row (iterations = -1) and
    collected in the error list; the sweep always continues.
    """
    configs = spec.configs()
    results = [None] * len(configs)

    def work(i):
        results[i] = run_config_group(configs[i], spec.seeds)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(work, range(len(configs))))
    else:
        for i in range(len(configs)):
            work(i)
            if echo is not None:
                rows = results[i][0]
                for row in rows:
                    echo(_format_progress(row))

    rows, errors = [], []
    for (group_rows, _, err), config in zip(results, configs):
        rows.extend(group_rows)
        if err is not None:
            errors.append({"config": config.to_dict(), "error": err})
    return _summarize_and_write(rows, errors, spec.out)


def _summarize_and_write(rows, errors, out) -> tuple:
    """Summarize the rows; with an output path, write the rows CSV, the summary
    CSV next to it and, when anything failed, <out>.errors.json."""
    summary = summarize(rows)
    if out:
        _write_csv(rows, CSV_COLUMNS, out)
        _write_csv(summary, SUMMARY_COLUMNS, _summary_path(out))
        if errors:
            with open(str(out) + ".errors.json", "w", encoding="utf-8") as fh:
                json.dump(errors, fh, indent=2)
    return rows, summary, errors


def _format_progress(row: dict) -> str:
    its = row["iterations"]
    its = ">fail" if its < 0 else its
    return (
        f"k={row['k']:<5g} alpha={row['alpha']:<4g} beta={row['beta'] or 0:<3g} "
        f"{row['precon']:<24s} n_CS={row['n_CS']:<6d} iterations={its}"
    )


def _summary_path(out: str) -> str:
    text = str(out)
    if text.endswith(".csv"):
        return text[:-4] + "_summary.csv"
    return text + "_summary.csv"


def _group_key(row: dict) -> tuple:
    return tuple(row[c] for c in ("k", "d", "alpha", "alpha_prime", "beta", "precon", "mode"))


def summarize(rows) -> list:
    """Median-over-seeds summary, one row per config group, deterministic order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(_group_key(row), []).append(row)
    summary = []
    for key in sorted(groups, key=lambda t: tuple(str(x) for x in t)):
        members = groups[key]
        ok = [r for r in members if r["iterations"] >= 0]
        summary.append(
            {
                "k": key[0], "d": key[1], "alpha": key[2], "alpha_prime": key[3],
                "beta": key[4], "precon": key[5], "mode": key[6],
                "N_sub": members[0]["N_sub"],
                "n": members[0]["n"],
                "n_CS": members[0]["n_CS"],
                "median_iterations": statistics.median(r["iterations"] for r in ok) if ok else -1,
                "n_seeds": len(members),
                "all_converged": all(r["converged"] for r in members),
                "median_solve_seconds": statistics.median(r["solve_seconds"] for r in ok) if ok else 0.0,
            }
        )
    return summary


def _write_csv(rows, columns, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def write_residuals_csv(report, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "relative_residual"])
        for i, r in enumerate(report.residual_history):
            writer.writerow([i, repr(float(r))])


def format_table(summary) -> str:
    """Text table in the layout of the reference results: one row per k, one
    column pair per preconditioner."""
    para_keys = sorted({(r["d"], r["beta"], r["alpha"], r["alpha_prime"]) for r in summary},
                       key=str)
    lines = []
    for d, beta, alpha, alpha_prime in para_keys:
        block = [r for r in summary
                 if (r["d"], r["beta"], r["alpha"], r["alpha_prime"]) == (d, beta, alpha, alpha_prime)]
        precons = sorted({r["precon"] for r in block})
        lines.append(f"d={d}  beta={beta}  alpha={alpha}  alpha'={alpha_prime}")
        header = f"{'k':>6} {'N_sub':>7} {'n':>9}"
        for p in precons:
            header += f" {p:>24} {'n_CS':>7}"
        lines.append(header)
        for k in sorted({r["k"] for r in block}):
            cells = [r for r in block if r["k"] == k]
            any_cell = cells[0]
            line = f"{k:>6g} {any_cell['N_sub']:>7d} {any_cell['n']:>9d}"
            for p in precons:
                match = [r for r in cells if r["precon"] == p]
                if match:
                    r = match[0]
                    its = r["median_iterations"]
                    text = f"{its:g}" if r["all_converged"] else f">{its:g}*"
                    line += f" {text:>24} {r['n_CS']:>7d}"
                else:
                    line += f" {'-':>24} {'-':>7}"
            lines.append(line)
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------------
# Desk presets

_FULL_WARNING = (
    "warning: --full selects the complete wavenumber range; "
    "expect hours of runtime and several GB of memory\n"
)


def table1_desk(kmax=40.0, alphas=(0.6, 0.8, 1.0), betas=(1.0, 2.0),
                seeds=(0, 1, 2), full=False, dim=2, **kw) -> SweepSpec:
    ks = (10.0, 20.0, 40.0, 60.0, 80.0) if full else (10.0, 20.0, 40.0)
    ks = tuple(k for k in ks if k <= kmax)
    return SweepSpec(
        dim=dim,
        ks=ks,
        alphas=tuple((a, None) for a in alphas),
        betas=tuple(betas),
        precons=("one_level", "two_level_grid", "two_level_dtn"),
        seeds=tuple(seeds),
        **kw,
    )


def run_table2_desk(kmax=20.0, alphas=(0.6, 0.8, 1.0), seeds=(0, 1, 2), full=False,
                    out=None, echo=None, tol=1e-6, max_iter=500):
    """Forced coarse-space-size comparison: DtN shrunk to m_i = 2 per subdomain
    (left block), then the grid coarse space grown to the size the automatic DtN
    selection produced (right block).  Sequential by construction: the right
    block depends on the automatic DtN size of the same configuration."""
    ks = (10.0, 20.0, 40.0, 60.0, 80.0) if full else (10.0, 20.0, 40.0)
    ks = tuple(k for k in ks if k <= kmax)
    rows, errors = [], []

    def run_one(config):
        group_rows, reports, err = run_config_group(config, seeds)
        rows.extend(group_rows)
        if err:
            errors.append({"config": config.to_dict(), "error": err})
        if echo is not None:
            for row in group_rows:
                echo(_format_progress(row))
        return reports

    for alpha in alphas:
        for k in ks:
            base = SolveConfig(dim=2, k=k, alpha=alpha, beta=1.0, tol=tol, max_iter=max_iter)
            # left block: grid at its natural size vs DtN forced small
            run_one(replace(base, precon="two_level_grid"))
            run_one(replace(base, precon="two_level_dtn", selection="fixed2"))
            # right block: automatic DtN, then grid forced to the same size
            reports = run_one(replace(base, precon="two_level_dtn", selection="automatic"))
            if reports:
                n_cs = reports[0].n_CS
                mc = max(1, round(n_cs ** 0.5) - 1)
                run_one(replace(base, precon="two_level_grid", coarse_m=mc))

    return _summarize_and_write(rows, errors, out)


def table3_desk(with_dtn=False, pairs=((0.5, 1.0), (0.6, 0.9), (0.7, 0.8), (0.8, 0.7)),
                seeds=(0, 1, 2), full=False, **kw) -> SweepSpec:
    ks = (10.0, 20.0) if full else (10.0,)
    precons = ["one_level", "two_level_grid"]
    if with_dtn:
        precons.append("two_level_dtn:capped20")
    return SweepSpec(
        dim=3,
        ks=ks,
        alphas=tuple(pairs),
        betas=(1.0,),
        precons=tuple(precons),
        seeds=tuple(seeds),
        **kw,
    )


# ----------------------------------------------------------------------------
# Sweep spec files: one "key = value" pair per line, '#' comments, lists are
# comma separated, alpha entries may be "alpha:alpha_prime" pairs.

def load_sweep_spec(path) -> SweepSpec:
    spec = SweepSpec()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            spec = _apply_spec_key(spec, key, value, f"{path}:{lineno}")
    return spec


def _apply_spec_key(spec: SweepSpec, key: str, value: str, where: str) -> SweepSpec:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if key == "dim":
        return replace(spec, dim=int(value))
    if key == "ks":
        return replace(spec, ks=tuple(float(v) for v in items))
    if key == "alphas":
        pairs = []
        for item in items:
            if ":" in item:
                a, ap = item.split(":", 1)
                pairs.append((float(a), float(ap)))
            else:
                pairs.append((float(item), None))
        return replace(spec, alphas=tuple(pairs))
    if key == "betas":
        return replace(spec, betas=tuple(None if v == "none" else float(v) for v in items))
    if key == "precons":
        return replace(spec, precons=tuple(items))
    if key == "mode":
        return replace(spec, mode=value)
    if key == "selection":
        return replace(spec, selection=value)
    if key == "seeds":
        return replace(spec, seeds=tuple(int(v) for v in items))
    if key == "tol":
        return replace(spec, tol=float(value))
    if key == "max_iter":
        return replace(spec, max_iter=int(value))
    if key == "overlap_layers":
        return replace(spec, overlap_layers=int(value))
    if key == "out":
        return replace(spec, out=value)
    raise ValueError(f"{where}: unknown key {key!r}")


# ----------------------------------------------------------------------------
# CLI

def _add_common(parser):
    parser.add_argument("--tol", type=float, default=1e-6)
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--out", type=str, default=None, help="CSV/JSON output path")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="helmdd",
        description="Helmholtz solves with one- and two-level overlapping Schwarz preconditioners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a single configuration")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--k", type=float, default=10.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--alpha-prime", type=float, default=None)
    p.add_argument("--beta", type=str, default="1",
                   help="absorption exponent (eps_prec = k^beta) or 'none'")
    p.add_argument("--precon", type=str, default="dtn",
                   help="none | one-level | grid | dtn")
    p.add_argument("--mode", type=str, default="hybrid", choices=("additive", "hybrid"))
    p.add_argument("--selection", type=str, default="automatic",
                   help="automatic | fixed:M | capped:M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overlap-layers", type=int, default=2)
    p.add_argument("--pou", type=str, default="ramp", choices=("multiplicity", "ramp"))
    p.add_argument("--n1d", type=int, default=None, help="override subdomains per dimension")
    p.add_argument("--coarse-m", type=int, default=None, help="force the grid coarse resolution")
    p.add_argument("--residuals", type=str, default=None, help="write residual history CSV here")
    _add_common(p)

    p = sub.add_parser("sweep", help="run a sweep described by a key=value spec file")
    p.add_argument("specfile", type=str)
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)

    for name in ("table1-desk", "table2-desk", "table3-desk"):
        p = sub.add_parser(name, help=f"desk-scale preset mirroring {name.split('-')[0]}")
        p.add_argument("--kmax", type=float, default=None)
        p.add_argument("--full", action="store_true",
                       help="full wavenumber range (slow; prints a warning)")
        p.add_argument("--seeds", type=str, default="0,1,2")
        p.add_argument("--jobs", type=int, default=1)
        if name == "table1-desk":
            p.add_argument("--alphas", type=str, default="0.6,0.8,1.0")
            p.add_argument("--betas", type=str, default="1,2")
        if name == "table2-desk":
            p.add_argument("--alphas", type=str, default="0.6,0.8,1.0")
        if name == "table3-desk":
            p.add_argument("--with-dtn", action="store_true",
                           help="include the DtN coarse space (slow 3d eigenproblems)")
        _add_common(p)
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        return _dispatch(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "solve":
        beta = None if args.beta in ("none", "None") else float(args.beta)
        config = SolveConfig(
            dim=args.dim,
            k=args.k,
            alpha=args.alpha,
            alpha_prime=args.alpha_prime,
            beta=beta,
            precon=canonical_precon(args.precon),
            mode=args.mode,
            selection=args.selection,
            tol=args.tol,
            max_iter=args.max_iter,
            seed=args.seed,
            overlap_layers=args.overlap_layers,
            pou=args.pou,
            n_subdomains_1d=args.n1d,
            coarse_m=args.coarse_m,
        )
        t0 = time.perf_counter()
        ctx = SolverContext(config)
        report = ctx.run()
        elapsed = time.perf_counter() - t0
        status = "converged" if report.converged else "NOT converged"
        print(f"n={report.n}  N_sub={report.N_sub}  n_CS={report.n_CS}")
        print(f"iterations={report.iterations}  {status}  "
              f"final_residual={report.final_residual:.3e}  ({elapsed:.2f} s)")
        if args.out:
            report.to_json(args.out)
        if args.residuals:
            write_residuals_csv(report, args.residuals)
        return 0

    if args.command == "sweep":
        spec = load_sweep_spec(args.specfile)
        if args.out:
            spec = replace(spec, out=args.out)
        spec = replace(spec, tol=args.tol, max_iter=args.max_iter)
        _, summary, errors = run_sweep(spec, jobs=args.jobs, echo=print)
        print(format_table(summary))
        _report_errors(errors)
        return 0

    seeds = tuple(int(s) for s in args.seeds.split(","))
    if args.full:
        sys.stderr.write(_FULL_WARNING)

    if args.command == "table1-desk":
        spec = table1_desk(
            kmax=args.kmax if args.kmax is not None else (80.0 if args.full else 40.0),
            alphas=tuple(float(a) for a in args.alphas.split(",")),
            betas=tuple(float(b) for b in args.betas.split(",")),
            seeds=seeds,
            full=args.full,
            tol=args.tol,
            max_iter=args.max_iter,
            out=args.out,
        )
        _, summary, errors = run_sweep(spec, jobs=args.jobs, echo=print)
        print(format_table(summary))
        _report_errors(errors)
        return 0

    if args.command == "table2-desk":
        _, summary, errors = run_table2_desk(
            kmax=args.kmax if args.kmax is not None else (80.0 if args.full else 20.0),
            alphas=tuple(float(a) for a in args.alphas.split(",")),
            seeds=seeds,
            full=args.full,
            out=args.out,
            echo=print,
            tol=args.tol,
            max_iter=args.max_iter,
        )
        print(format_table(summary))
        _report_errors(errors)
        return 0

    if args.command == "table3-desk":
        spec = table3_desk(
            with_dtn=args.with_dtn,
            seeds=seeds,
            full=args.full,
            tol=args.tol,
            max_iter=args.max_iter,
            out=args.out,
        )
        if args.kmax is not None:
            spec = replace(spec, ks=tuple(k for k in spec.ks if k <= args.kmax))
        if args.with_dtn:
            sys.stderr.write("note: 3d DtN eigenproblems are dense and take minutes per run\n")
        _, summary, errors = run_sweep(spec, jobs=args.jobs, echo=print)
        print(format_table(summary))
        _report_errors(errors)
        return 0

    raise ValueError(f"unhandled command {args.command!r}")


def _report_errors(errors) -> None:
    for entry in errors:
        cfg = entry["config"]
        print(
            f"FAILED k={cfg['k']} alpha={cfg['alpha']} precon={cfg['precon']}: {entry['error']}",
            file=sys.stderr,
        )


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
