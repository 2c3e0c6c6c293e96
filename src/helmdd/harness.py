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
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from itertools import product

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

GROUP_COLUMNS = ["k", "d", "alpha", "alpha_prime", "beta", "precon", "mode"]

CSV_COLUMNS = GROUP_COLUMNS + [
    "N_sub", "n", "n_CS", "iterations", "converged", "solve_seconds",
]

SUMMARY_COLUMNS = GROUP_COLUMNS + [
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
    """Cartesian sweep of a base config over wavenumbers, exponent pairs,
    absorptions and preconditioners, each run for every seed.

    A precons entry "name:selection" overrides the base config's selection.
    """

    base: SolveConfig = field(default_factory=SolveConfig)
    ks: tuple = (10.0,)
    alphas: tuple = ((1.0, None),)  # (alpha, alpha_prime-or-None) pairs
    betas: tuple = (1.0,)
    precons: tuple = ("one_level", "two_level_grid", "two_level_dtn")
    seeds: tuple = (0, 1, 2)
    out: str | None = None

    def __post_init__(self):
        _require_values(ks=self.ks, alphas=self.alphas, betas=self.betas,
                        precons=self.precons, seeds=self.seeds)

    def configs(self) -> list:
        out = []
        for k, (alpha, alpha_prime), beta, precon in product(
            self.ks, self.alphas, self.betas, self.precons
        ):
            name, _, selection = precon.partition(":")
            out.append(replace(
                self.base, k=float(k), alpha=float(alpha),
                alpha_prime=None if alpha_prime is None else float(alpha_prime),
                beta=None if beta is None else float(beta),
                precon=canonical_precon(name), selection=selection or self.base.selection,
            ))
        return out


def _require_values(**axes) -> None:
    for name, values in axes.items():
        if len(values) == 0:
            raise ValueError(f"sweep axis {name} is empty")


def _row(cfg: dict, N_sub=0, n=0, n_CS=0, iterations=-1, converged=False, solve_seconds=0.0) -> dict:
    """One CSV row of a solve; the defaults describe a failed one."""
    return {
        "k": cfg["k"],
        "d": cfg["dim"],
        "alpha": cfg["alpha"],
        "alpha_prime": cfg["alpha_prime"],
        "beta": "" if cfg["beta"] is None else cfg["beta"],
        "precon": _precon_label(cfg),
        "mode": cfg["mode"],
        "N_sub": N_sub,
        "n": n,
        "n_CS": n_CS,
        "iterations": iterations,
        "converged": converged,
        "solve_seconds": solve_seconds,
    }


def _row_from_report(report) -> dict:
    return _row(report.config, report.N_sub, report.n, report.n_CS, report.iterations,
                report.converged, report.timings["solve"])


def _failure_row(config: SolveConfig, ctx: SolverContext | None = None) -> dict:
    sizes = () if ctx is None else (ctx.n_subdomains, ctx.n, ctx.n_cs)
    return _row(config.to_dict(), *sizes)


def _precon_label(cfg: dict) -> str:
    name = cfg["precon"]
    if name == "two_level_dtn" and cfg["selection"] != "automatic":
        return f"{name}:{cfg['selection']}"
    if name == "two_level_grid" and cfg.get("coarse_m") is not None:
        return f"{name}:m{cfg['coarse_m']}"
    return name


def run_config_group(config: SolveConfig, seeds) -> tuple:
    """Build one solver context and run it for every seed; returns (rows, error).

    A failed setup fails every seed; a failed solve fails only its seed.  Each
    failure keeps its row (iterations = -1) and error is the failures' text,
    one line per failed seed, or None.
    """
    try:
        ctx = SolverContext(config)
    except Exception as exc:  # record and continue with the rest of the sweep
        return [_failure_row(config) for _ in seeds], f"{type(exc).__name__}: {exc}"
    rows, failures = [], []
    for seed in seeds:
        try:
            report = ctx.run(seed)
        except Exception as exc:  # record and continue with the next seed
            rows.append(_failure_row(config, ctx))
            failures.append(f"seed {seed}: {type(exc).__name__}: {exc}")
            continue
        rows.append(_row_from_report(report))
    return rows, "\n".join(failures) or None


def run_sweep(spec: SweepSpec, jobs: int = 1, echo=None):
    """Execute every (config, seed) pair; returns (rows, summary_rows, errors).

    With jobs > 1 the config groups run on that many threads; jobs < 1 is a
    ValueError.  Progress lines go to echo in config order either way.
    Writes rows to spec.out (and the median summary to <out>_summary.csv)
    when an output path is set.  Failures are recorded per row (iterations =
    -1) and collected in the error list; the sweep always continues.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    configs = spec.configs()
    rows, errors = [], []
    with ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(lambda c: run_config_group(c, spec.seeds), configs)
        for config, result in zip(configs, results):
            _collect(config, result, rows, errors, echo)
    return _summarize_and_write(rows, errors, spec.out)


def _collect(config, result, rows, errors, echo) -> None:
    """Add one run_config_group result to the rows and errors, echoing its progress."""
    group_rows, err = result
    rows.extend(group_rows)
    if err is not None:
        errors.append({"config": config.to_dict(), "error": err})
    if echo is not None:
        for row in group_rows:
            echo(_format_progress(row))


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
    beta = "none" if row["beta"] == "" else f"{row['beta']:g}"  # "" is beta = None
    return (
        f"k={row['k']:<5g} alpha={row['alpha']:<4g} beta={beta:<3s} "
        f"{row['precon']:<24s} n_CS={row['n_CS']:<6d} iterations={its}"
    )


def _summary_path(out: str) -> str:
    return str(out).removesuffix(".csv") + "_summary.csv"


def summarize(rows) -> list:
    """Median-over-seeds summary, one row per config group, deterministic order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in GROUP_COLUMNS), []).append(row)
    summary = []
    for key in sorted(groups, key=lambda t: tuple(str(x) for x in t)):
        members = groups[key]
        ok = [r for r in members if r["iterations"] >= 0]
        summary.append(
            {
                **dict(zip(GROUP_COLUMNS, key)),
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
        beta = "none" if beta == "" else beta  # "" is beta = None
        lines.append(f"d={d}  beta={beta}  alpha={alpha}  alpha'={alpha_prime}")
        header = f"{'k':>6} {'N_sub':>7} {'n':>9}"
        for p in precons:
            header += f" {p:>24} {'n_CS':>7}"
        lines.append(header)
        for k in sorted({r["k"] for r in block}):
            cells = [r for r in block if r["k"] == k]
            sized = next((r for r in cells if r["n"] > 0), cells[0])  # a cell that set up
            line = f"{k:>6g} {sized['N_sub']:>7d} {sized['n']:>9d}"
            for p in precons:
                match = [r for r in cells if r["precon"] == p]
                if match:
                    r = match[0]
                    its = r["median_iterations"]
                    text = ("fail" if its < 0  # no seed solved
                            else f"{its:g}" if r["all_converged"] else f">{its:g}*")
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


def _preset_ks(full, kmax, desk=(10.0, 20.0, 40.0), extra=(60.0, 80.0)) -> tuple:
    """The desk wavenumbers, with --full also the extra ones, up to kmax if given."""
    ks = desk + (extra if full else ())
    kept = tuple(k for k in ks if kmax is None or k <= kmax)
    if not kept:
        raise ValueError(f"kmax {kmax:g} excludes every wavenumber of this preset {ks}")
    return kept


def _pair(alpha) -> tuple:
    """An alphas entry, alpha or (alpha, alpha_prime), as a pair."""
    return alpha if isinstance(alpha, tuple) else (alpha, None)


def table1_desk(kmax=None, alphas=(0.6, 0.8, 1.0), betas=(1.0, 2.0),
                seeds=(0, 1, 2), full=False, **kw) -> SweepSpec:
    """kw goes to SweepSpec: base (the SolveConfig the table varies) and out."""
    return SweepSpec(
        ks=_preset_ks(full, kmax),
        alphas=tuple(map(_pair, alphas)),
        betas=tuple(betas),
        precons=("one_level", "two_level_grid", "two_level_dtn"),
        seeds=tuple(seeds),
        **kw,
    )


def run_table2_desk(kmax=None, alphas=(0.6, 0.8, 1.0), seeds=(0, 1, 2), full=False,
                    out=None, echo=None, base=None):
    """Forced coarse-space-size comparison: DtN shrunk to m_i = 2 per subdomain
    (left block), then the grid coarse space grown to the size the automatic DtN
    selection produced (right block).  Sequential by construction: the right
    block depends on the automatic DtN size of the same configuration.  Without
    kmax the desk range stops at k = 20 and the full range runs to k = 80.
    Every run is base (default SolveConfig()) at the table's k, alpha and
    preconditioner."""
    _require_values(alphas=alphas, seeds=seeds)
    if kmax is None and not full:
        kmax = 20.0
    base = base or SolveConfig()
    rows, errors = [], []

    def run_one(config):
        result = run_config_group(config, seeds)
        _collect(config, result, rows, errors, echo)
        return result[0]

    for alpha, alpha_prime in map(_pair, alphas):
        for k in _preset_ks(full, kmax):
            config = replace(base, k=k, alpha=alpha, alpha_prime=alpha_prime)
            # left block: grid at its natural size vs DtN forced small
            run_one(replace(config, precon="two_level_grid"))
            run_one(replace(config, precon="two_level_dtn", selection="fixed2"))
            # right block: automatic DtN, then grid forced to the same size
            dtn_rows = run_one(replace(config, precon="two_level_dtn", selection="automatic"))
            solved = [row for row in dtn_rows if row["iterations"] >= 0]
            if solved:
                mc = max(1, round(solved[0]["n_CS"] ** 0.5) - 1)
                run_one(replace(config, precon="two_level_grid", coarse_m=mc))

    return _summarize_and_write(rows, errors, out)


def table3_desk(with_dtn=False, pairs=((0.5, 1.0), (0.6, 0.9), (0.7, 0.8), (0.8, 0.7)),
                seeds=(0, 1, 2), full=False, kmax=None, base=None, **kw) -> SweepSpec:
    precons = ["one_level", "two_level_grid"]
    if with_dtn:
        precons.append("two_level_dtn:capped20")
    return SweepSpec(
        base=replace(base or SolveConfig(), dim=3),
        ks=_preset_ks(full, kmax, desk=(10.0,), extra=(20.0,)),
        alphas=tuple(pairs),
        betas=(1.0,),
        precons=tuple(precons),
        seeds=tuple(seeds),
        **kw,
    )


# ----------------------------------------------------------------------------
# Run settings: one parser per setting, shared by the spec-file keys and the CLI
# flags.  Lists are comma separated, alpha entries may be "alpha:alpha_prime"
# pairs and a beta of "none" (or "None") switches the absorption off.

def _list(parse):
    """Parser of a comma-separated list of parse's values."""
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


def _beta(text: str) -> float | None:
    return None if text in ("none", "None") else float(text)


def _alpha_pair(item: str) -> tuple:
    alpha, _, alpha_prime = item.partition(":")
    return float(alpha), float(alpha_prime) if alpha_prime else None


def _precon_entry(item: str) -> str:
    """'dtn:fixed2' -> 'two_level_dtn:fixed2'."""
    name, colon, selection = item.partition(":")
    return canonical_precon(name) + colon + selection


_PARSERS = {  # setting -> parser of its text
    **dict.fromkeys(("dim", "max_iter", "seed", "overlap_layers", "n_subdomains_1d", "coarse_m"), int),
    **dict.fromkeys(("k", "alpha", "alpha_prime", "tol"), float),
    **dict.fromkeys(("mode", "selection", "out"), str),
    "beta": _beta,
    "precon": canonical_precon,
    "ks": _list(float),
    "alphas": _list(_alpha_pair),
    "betas": _list(_beta),
    "precons": _list(_precon_entry),
    "seeds": _list(int),
}

_CONFIG_FIELDS = frozenset(f.name for f in fields(SolveConfig))

_SPEC_KEYS = ("dim", "ks", "alphas", "betas", "precons", "mode", "selection", "seeds",
              "tol", "max_iter", "overlap_layers", "out")


def load_sweep_spec(path) -> SweepSpec:
    """Read a spec file of "key = value" lines (keys: _SPEC_KEYS) with '#'
    comments.  A setting the file leaves out keeps SolveConfig's default."""
    base, axes = SolveConfig(), {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _SPEC_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                value = _PARSERS[key](text)
                if key in _CONFIG_FIELDS:
                    base = replace(base, **{key: value})
                else:
                    axes[key] = value
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return SweepSpec(base=base, **axes)


# ----------------------------------------------------------------------------
# CLI

def _setting(name, flag=None, **options) -> tuple:
    """(flag, argparse options) of a run setting, read by the setting's parser."""
    def parse(text):
        try:
            return _PARSERS[name](text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag or "--" + name.replace("_", "-"), {"dest": name, "type": parse, **options}


def _sweep_preset(build):
    """A runner that builds the preset's SweepSpec and runs it on jobs threads."""
    def run(jobs=1, echo=None, **kw):
        return run_sweep(build(**kw), jobs=jobs, echo=echo)
    return run


_JOBS = ("--jobs", {"type": int})
_ALPHAS = _setting("alphas", help="comma-separated alpha or alpha:alpha' values")

# CLI name -> (runner, its own flags); a runner takes the preset's keywords, base
# (the SolveConfig of --tol and --max-iter) and echo, and returns (rows,
# summary_rows, errors).
_PRESETS = {
    "table1-desk": (_sweep_preset(table1_desk), [
        _JOBS, _ALPHAS, _setting("betas", help="comma-separated beta values or 'none'"),
    ]),
    "table2-desk": (run_table2_desk, [_ALPHAS]),
    "table3-desk": (_sweep_preset(table3_desk), [
        _JOBS,
        ("--with-dtn", {"action": "store_true",
                        "help": "include the DtN coarse space (3-30 s of setup per k = 10 context)"}),
    ]),
}

_SOLVE_FLAGS = [_setting(name) for name in ("dim", "k", "alpha", "alpha_prime")] + [
    _setting("beta", help="absorption exponent (eps_prec = k^beta) or 'none'"),
    _setting("precon", help="none | one-level | grid | dtn"),
    _setting("mode", help="additive | hybrid"),
    _setting("selection", help="automatic | fixed:M | capped:M"),
    _setting("seed"), _setting("overlap_layers"),
    _setting("n_subdomains_1d", "--n1d", metavar="N1D", help="override subdomains per dimension"),
    _setting("coarse_m", help="force the grid coarse resolution"),
    ("--residuals", {"help": "write residual history CSV here"}),
]

_COMMON_FLAGS = [_setting("tol"), _setting("max_iter"), _setting("out", help="CSV/JSON output path")]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="helmdd",
        description="Helmholtz solves with one- and two-level overlapping Schwarz preconditioners",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag left unset stays out of the namespace, so the value of the config,
    # the spec file or the preset stands
    commands = {
        "solve": ("run a single configuration", _SOLVE_FLAGS),
        "sweep": ("run a sweep described by a key=value spec file",
                  [("specfile", {}), _JOBS]),
    }
    for name, (_, flags) in _PRESETS.items():
        commands[name] = (f"desk-scale preset mirroring {name.split('-')[0]}", [
            ("--kmax", {"type": float}),
            ("--full", {"action": "store_true",
                        "help": "full wavenumber range (slow; prints a warning)"}),
            _setting("seeds"),
            *flags,
        ])
    for name, (text, flags) in commands.items():
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for flag, options in flags + _COMMON_FLAGS:
            p.add_argument(flag, **options)
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
    given = vars(args)  # the command and the flags that were set
    command = given.pop("command")
    settings = {key: given.pop(key) for key in _CONFIG_FIELDS & given.keys()}
    if command == "solve":
        t0 = time.perf_counter()
        report = SolverContext(SolveConfig(**settings)).run()
        elapsed = time.perf_counter() - t0
        status = "converged" if report.converged else "NOT converged"
        print(f"n={report.n}  N_sub={report.N_sub}  n_CS={report.n_CS}")
        print(f"iterations={report.iterations}  {status}  "
              f"final_residual={report.final_residual:.3e}  ({elapsed:.2f} s)")
        if given.get("out"):
            report.to_json(given["out"])
        if given.get("residuals"):
            write_residuals_csv(report, given["residuals"])
        return 0
    if command == "sweep":
        spec = load_sweep_spec(given.pop("specfile"))
        spec = replace(spec, base=replace(spec.base, **settings), out=given.pop("out", spec.out))
        _, summary, errors = run_sweep(spec, echo=print, **given)
    else:
        if given.get("full"):
            sys.stderr.write(_FULL_WARNING)
        if given.get("with_dtn"):
            sys.stderr.write("note: 3d DtN eigenproblems are dense; at k = 10 each context's "
                             "setup takes 3-30 s\n")
        _, summary, errors = _PRESETS[command][0](base=SolveConfig(**settings), echo=print, **given)
    print(format_table(summary))
    _report_errors(errors)
    return 0


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
