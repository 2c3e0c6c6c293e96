import csv
import json
from types import SimpleNamespace

import pytest

from helmdd.harness import (
    SweepSpec,
    canonical_precon,
    cli_main,
    format_table,
    load_sweep_spec,
    run_sweep,
    run_table2_desk,
    summarize,
    table1_desk,
    table3_desk,
)
from helmdd.solver import SolveConfig


def small_spec(tmp_path, **kw):
    defaults = dict(
        base=SolveConfig(dim=2),
        ks=(10.0,),
        alphas=((0.6, None),),
        betas=(1.0,),
        precons=("two_level_grid",),
        seeds=(0, 1),
        out=str(tmp_path / "rows.csv"),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_precon_aliases():
    assert canonical_precon("dtn") == "two_level_dtn"
    assert canonical_precon("grid") == "two_level_grid"
    assert canonical_precon("one-level") == "one_level"
    with pytest.raises(ValueError):
        canonical_precon("amg")


def test_spec_expansion_count():
    spec = SweepSpec(
        ks=(10.0, 20.0), alphas=((0.6, None), (1.0, None)), betas=(1.0, 2.0),
        precons=("one_level", "two_level_grid", "two_level_dtn"),
    )
    assert len(spec.configs()) == 2 * 2 * 2 * 3


def test_run_sweep_rows_summary_and_roundtrip(tmp_path):
    spec = small_spec(tmp_path)
    rows, summary, errors = run_sweep(spec)
    assert errors == []
    assert len(rows) == 2  # one per seed
    assert len(summary) == 1
    assert summary[0]["n_seeds"] == 2 and summary[0]["all_converged"]

    with open(spec.out) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 2
    for raw, row in zip(parsed, rows):
        assert float(raw["k"]) == row["k"]
        assert int(raw["n"]) == row["n"]
        assert int(raw["n_CS"]) == row["n_CS"]
        assert int(raw["iterations"]) == row["iterations"]
        assert float(raw["solve_seconds"]) == row["solve_seconds"]
        assert raw["converged"] == str(row["converged"])

    with open(str(tmp_path / "rows_summary.csv")) as fh:
        summary_parsed = list(csv.DictReader(fh))
    assert float(summary_parsed[0]["median_iterations"]) == summary[0]["median_iterations"]


def test_table2_desk_writes_the_sweep_outputs(tmp_path):
    out = tmp_path / "table2.csv"
    rows, summary, errors = run_table2_desk(kmax=10.0, alphas=(0.6,), seeds=(0,), out=str(out))
    assert errors == [] and not (tmp_path / "table2.csv.errors.json").exists()
    # grid, DtN forced to 2 per subdomain, automatic DtN, grid grown to its size
    precons = [r["precon"] for r in rows]
    assert precons[:3] == ["two_level_grid", "two_level_dtn:fixed2", "two_level_dtn"]
    assert len(precons) == 4 and precons[3].startswith("two_level_grid:m")
    with open(out) as fh:
        assert [int(r["n_CS"]) for r in csv.DictReader(fh)] == [r["n_CS"] for r in rows]
    with open(tmp_path / "table2_summary.csv") as fh:
        assert len(list(csv.DictReader(fh))) == len(summary) == 4


def test_summary_median_deterministic():
    rows = [
        {"k": 10.0, "d": 2, "alpha": 1.0, "alpha_prime": 1.0, "beta": 1.0,
         "precon": "one_level", "mode": "hybrid", "N_sub": 4, "n": 100, "n_CS": 0,
         "iterations": it, "converged": True, "solve_seconds": 0.1}
        for it in (7, 5, 6)
    ]
    assert summarize(rows)[0]["median_iterations"] == 6
    assert format_table(summarize(rows))  # renders without error


def test_run_sweep_records_failures(tmp_path):
    # a DtN coarse space over a single subdomain has no interface: setup fails,
    # the row is recorded and the sweep continues
    spec = SweepSpec(
        ks=(10.0,), alphas=((1.0, None),), betas=(1.0,),
        precons=("two_level_dtn", "two_level_grid"), seeds=(0,),
        out=str(tmp_path / "rows.csv"),
    )
    configs = spec.configs()
    for cfg in configs:
        cfg.n_subdomains_1d = 1
    import helmdd.harness as harness

    rows, errors = [], []
    results = [harness.run_config_group(cfg, spec.seeds) for cfg in configs]
    for group_rows, err in results:
        rows.extend(group_rows)
        if err:
            errors.append(err)
    assert len(errors) == 1
    assert "empty" in errors[0] or "interface" in errors[0]
    failed = [r for r in rows if r["iterations"] < 0]
    assert len(failed) == 1 and failed[0]["converged"] is False
    ok = [r for r in rows if r["iterations"] >= 0]
    assert len(ok) == 1  # the grid run of the same sweep still completed


def test_run_sweep_keeps_rows_when_one_seed_fails(tmp_path, monkeypatch):
    import helmdd.harness as harness

    original = harness.SolverContext.run

    def run(self, seed=None):
        if seed == 1:
            raise RuntimeError("boom")
        return original(self, seed)

    monkeypatch.setattr(harness.SolverContext, "run", run)
    spec = small_spec(tmp_path, seeds=(0, 1, 2))
    rows, summary, errors = run_sweep(spec)
    assert [r["iterations"] >= 0 for r in rows] == [True, False, True]
    assert rows[1]["converged"] is False and rows[1]["n"] == rows[0]["n"] > 0
    assert len(errors) == 1 and "seed 1: RuntimeError: boom" in errors[0]["error"]
    with open(spec.out) as fh:
        parsed = list(csv.DictReader(fh))
    assert [int(r["iterations"]) for r in parsed] == [r["iterations"] for r in rows]
    with open(spec.out + ".errors.json") as fh:
        assert "boom" in json.load(fh)[0]["error"]
    assert summary[0]["n_seeds"] == 3


def test_load_sweep_spec(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        """
        # sweep over two wavenumbers
        dim = 2
        ks = 10, 20
        alphas = 0.6, 0.5:1.0
        betas = 1
        precons = one_level, dtn:fixed2
        seeds = 0, 1, 2
        tol = 1e-7
        max_iter = 400
        """
    )
    spec = load_sweep_spec(path)
    assert spec.ks == (10.0, 20.0)
    assert spec.alphas == ((0.6, None), (0.5, 1.0))
    assert spec.base.tol == 1e-7 and spec.base.max_iter == 400
    configs = spec.configs()
    assert len(configs) == 2 * 2 * 1 * 2
    dtn = [c for c in configs if c.precon == "two_level_dtn"]
    assert all(c.selection.kind == "fixed" and c.selection.count == 2 for c in dtn)


def test_load_sweep_spec_bad_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("wavenumbers = 10\n")
    with pytest.raises(ValueError):
        load_sweep_spec(path)
    path.write_text("just a line\n")
    with pytest.raises(ValueError):
        load_sweep_spec(path)
    # a value error names the file, the line and the key
    path.write_text("dim = x\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1: dim: invalid literal for int"):
        load_sweep_spec(path)
    for line, key in (("dim = 4", "dim"), ("betas = 1, x", "betas"), ("precons = amg", "precons"),
                      ("selection = fixed", "selection"), ("alphas = 0.6:y", "alphas")):
        path.write_text(f"ks = 10\n{line}\n")
        with pytest.raises(ValueError, match=rf"bad\.txt:2: {key}: "):
            load_sweep_spec(path)


def test_run_sweep_jobs_gives_the_rows_of_one_job(tmp_path):
    spec = small_spec(tmp_path, precons=("one_level", "two_level_grid"), seeds=(0,), out=None)
    runs = []
    for jobs in (1, 2):
        progress = []
        rows, summary, errors = run_sweep(spec, jobs=jobs, echo=progress.append)
        assert errors == []
        runs.append(([{k: v for k, v in r.items() if k != "solve_seconds"} for r in rows], progress))
    (rows1, progress1), (rows2, progress2) = runs
    assert [r["precon"] for r in rows1] == ["one_level", "two_level_grid"]
    assert rows2 == rows1
    assert progress2 == progress1 and len(progress1) == 2  # config order with threads too


def test_progress_lines_tell_beta_none_from_beta_zero(tmp_path):
    # beta = none is eps_prec = 0, beta = 0 is eps_prec = k^0 = 1: different runs
    spec = small_spec(tmp_path, betas=(None, 0.0), seeds=(0,), out=None)
    progress = []
    run_sweep(spec, echo=progress.append)
    assert [line.split()[2] for line in progress] == ["beta=none", "beta=0"]


def test_table_headers_tell_beta_none_from_beta_zero(tmp_path):
    spec = small_spec(tmp_path, betas=(None, 0.0), seeds=(0,), out=None)
    _, summary, _ = run_sweep(spec)
    headers = [line for line in format_table(summary).splitlines() if line.startswith("d=")]
    assert sorted(line.split()[1] for line in headers) == ["beta=0.0", "beta=none"]


def _record_configs(monkeypatch):
    """Stub run_config_group to record the configs instead of solving them;
    each returns one solved row with n_CS = 100."""
    import helmdd.harness as harness

    calls = []

    def fake(config, seeds):
        calls.append(config)
        return [harness._row(config.to_dict(), n_CS=100, iterations=1, converged=True)], None

    monkeypatch.setattr(harness, "run_config_group", fake)
    return calls


def test_full_runs_the_whole_range_in_the_library(monkeypatch):
    assert table1_desk().ks == (10.0, 20.0, 40.0)
    assert table1_desk(full=True).ks == (10.0, 20.0, 40.0, 60.0, 80.0)
    assert table3_desk().ks == (10.0,) and table3_desk(full=True).ks == (10.0, 20.0)
    calls = _record_configs(monkeypatch)
    run_table2_desk(alphas=(1.0,), seeds=(0,))
    assert sorted({c.k for c in calls}) == [10.0, 20.0]
    calls.clear()
    run_table2_desk(alphas=(1.0,), seeds=(0,), full=True)
    assert sorted({c.k for c in calls}) == [10.0, 20.0, 40.0, 60.0, 80.0]


@pytest.mark.parametrize(
    "argv,ks,count",
    [
        (["table1-desk"], [10.0, 20.0, 40.0], 54),
        (["table1-desk", "--full"], [10.0, 20.0, 40.0, 60.0, 80.0], 90),
        (["table2-desk"], [10.0, 20.0], 24),
        (["table2-desk", "--full"], [10.0, 20.0, 40.0, 60.0, 80.0], 60),
        (["table2-desk", "--kmax", "40"], [10.0, 20.0, 40.0], 36),
        (["table3-desk"], [10.0], 8),
        (["table3-desk", "--full", "--with-dtn"], [10.0, 20.0], 24),
    ],
)
def test_cli_preset_wavenumbers_and_config_counts(monkeypatch, capsys, argv, ks, count):
    calls = _record_configs(monkeypatch)
    assert cli_main(argv) == 0
    assert sorted({c.k for c in calls}) == ks
    assert len(calls) == count


@pytest.mark.parametrize(
    "argv,listed",
    [
        (["table1-desk", "--kmax", "5"], "(10.0, 20.0, 40.0)"),
        (["table2-desk", "--kmax", "5"], "(10.0, 20.0, 40.0)"),
        (["table3-desk", "--kmax", "5"], "(10.0,)"),
        (["table3-desk", "--kmax", "5", "--full"], "(10.0, 20.0)"),
    ],
)
def test_cli_preset_kmax_excluding_every_wavenumber_exits_2(monkeypatch, capsys, argv, listed):
    calls = _record_configs(monkeypatch)
    assert cli_main(argv) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "kmax 5 excludes every wavenumber" in err and listed in err
    with pytest.raises(ValueError, match="excludes every wavenumber"):
        run_table2_desk(kmax=5.0, alphas=(1.0,), seeds=(0,))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_is_a_usage_error(tmp_path, monkeypatch, capsys, jobs):
    calls = _record_configs(monkeypatch)
    spec = tmp_path / "spec.txt"
    spec.write_text("dim = 2\nks = 10\nalphas = 0.6\nprecons = one_level\nseeds = 0\n")
    for argv in (["sweep", str(spec)], ["table1-desk"], ["table3-desk"]):
        assert cli_main(argv + ["--jobs", jobs]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
    assert calls == []
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_sweep(load_sweep_spec(spec), jobs=int(jobs))


def test_cli_table2_desk_has_no_jobs_flag(capsys):
    # table2 runs in order by construction: its right block needs the left's DtN size
    assert cli_main(["table2-desk", "--jobs", "2"]) == 2


def test_table_presets():
    spec = table1_desk(kmax=20.0)
    ks = {c.k for c in spec.configs()}
    assert ks == {10.0, 20.0}
    assert len(spec.configs()) == 2 * 3 * 2 * 3
    spec3 = table3_desk(with_dtn=True)
    assert spec3.base.dim == 3
    assert any(c.precon == "two_level_dtn" for c in spec3.configs())
    assert all(c.selection.count == 20 for c in spec3.configs()
               if c.precon == "two_level_dtn")


# --------------------------------------------------------------------------
# CLI


def test_cli_solve_prints_and_writes(tmp_path, capsys):
    out = tmp_path / "report.json"
    resid = tmp_path / "resid.csv"
    code = cli_main([
        "solve", "--dim", "2", "--k", "10", "--alpha", "0.6", "--beta", "1",
        "--precon", "dtn", "--mode", "hybrid",
        "--out", str(out), "--residuals", str(resid),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "iterations=" in captured.out and "n_CS=" in captured.out
    report = json.loads(out.read_text())
    assert report["converged"] is True
    lines = resid.read_text().splitlines()
    assert lines[0] == "iteration,relative_residual"
    assert len(lines) == report["iterations"] + 2


def test_cli_unknown_flag_exits_2(capsys):
    assert cli_main(["solve", "--frobnicate"]) == 2
    assert cli_main(["solve", "--pou", "ramp"]) == 2  # the ramp is the only partition of unity
    assert cli_main(["conquer"]) == 2


def test_cli_missing_sweep_file(capsys):
    code = cli_main(["sweep", "missing.toml"])
    captured = capsys.readouterr()
    assert code == 2
    assert "not found" in captured.err


def test_cli_sweep_runs_file(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("ks = 10\nalphas = 0.6\nbetas = 1\nprecons = grid\nseeds = 0\n")
    out = tmp_path / "rows.csv"
    code = cli_main(["sweep", str(spec), "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["precon"] == "two_level_grid"


def test_cli_sweep_keeps_the_spec_files_tol_and_max_iter(tmp_path, monkeypatch, capsys):
    # --tol and --max-iter override the file only when given
    spec = tmp_path / "spec.txt"
    spec.write_text("ks = 10\nalphas = 0.6\nprecons = grid\nseeds = 0\ntol = 1e-9\nmax_iter = 7\n")
    calls = _record_configs(monkeypatch)
    assert cli_main(["sweep", str(spec)]) == 0
    assert cli_main(["sweep", str(spec), "--tol", "1e-8"]) == 0
    assert cli_main(["sweep", str(spec), "--max-iter", "9"]) == 0
    assert [(c.tol, c.max_iter) for c in calls] == [(1e-9, 7), (1e-8, 7), (1e-9, 9)]
    monkeypatch.undo()
    spec.write_text("ks = 10\nalphas = 0.6\nprecons = grid\nseeds = 0\nmax_iter = 3\n")
    assert cli_main(["sweep", str(spec)]) == 0
    assert ">3*" in capsys.readouterr().out  # stopped at the file's 3 iterations


def test_cli_table1_desk_kmax_filter(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    code = cli_main([
        "table1-desk", "--kmax", "10", "--alphas", "0.6", "--betas", "1",
        "--seeds", "0", "--out", str(out),
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # three preconditioners, one k, one alpha, one seed
    assert all(float(r["k"]) == 10.0 for r in rows)
    captured = capsys.readouterr()
    assert "one_level" in captured.out


def test_cli_solve_bad_precon(capsys):
    assert cli_main(["solve", "--precon", "amg"]) == 2


def _record_solve_configs(monkeypatch):
    """Stub the solver context of `helmdd solve` to record its config instead of solving."""
    import helmdd.harness as harness

    calls = []

    class Context:
        def __init__(self, config):
            calls.append(config)

        def run(self):
            return SimpleNamespace(n=9, N_sub=1, n_CS=0, iterations=1, converged=True,
                                   final_residual=0.0)

    monkeypatch.setattr(harness, "SolverContext", Context)
    return calls


def test_beta_none_is_parsed_the_same_everywhere(tmp_path, monkeypatch, capsys):
    solves = _record_solve_configs(monkeypatch)
    for text in ("none", "None"):
        assert cli_main(["solve", "--beta", text]) == 0
    assert [c.beta for c in solves] == [None, None]

    calls = _record_configs(monkeypatch)
    spec = tmp_path / "spec.txt"
    for text in ("none", "None"):
        spec.write_text(f"ks = 10\nalphas = 0.6\nbetas = {text}\nprecons = grid\nseeds = 0\n")
        assert cli_main(["sweep", str(spec)]) == 0
    argv = ["table1-desk", "--kmax", "10", "--alphas", "1", "--betas", "none", "--seeds", "0"]
    assert cli_main(argv) == 0
    assert len(calls) == 2 + 3 and all(c.beta is None for c in calls)


def test_unset_flags_keep_the_solve_config_defaults(tmp_path, monkeypatch, capsys):
    default = SolveConfig()
    solves = _record_solve_configs(monkeypatch)
    assert cli_main(["solve"]) == 0
    assert cli_main(["solve", "--alpha", "0.6", "--n1d", "3", "--mode", "additive"]) == 0
    assert solves[0] == default
    assert solves[1] == SolveConfig(alpha=0.6, n_subdomains_1d=3, mode="additive")
    assert solves[1].coarse_alpha == 0.6  # follows alpha, as in the library

    calls = _record_configs(monkeypatch)
    for preset in ("table1-desk", "table2-desk", "table3-desk"):
        calls.clear()
        assert cli_main([preset, "--kmax", "10", "--seeds", "0"]) == 0
        assert {(c.tol, c.max_iter, c.overlap_layers, c.mode) for c in calls} == {
            (default.tol, default.max_iter, default.overlap_layers, default.mode)}
        calls.clear()
        assert cli_main([preset, "--kmax", "10", "--seeds", "0", "--tol", "1e-8",
                         "--max-iter", "9"]) == 0
        assert {(c.tol, c.max_iter) for c in calls} == {(1e-8, 9)}
    assert {c.dim for c in calls} == {3}


@pytest.mark.parametrize(
    "argv",
    [
        ["table1-desk", "--alphas", ""],
        ["table1-desk", "--betas", ""],
        ["table1-desk", "--seeds", ""],
        ["table2-desk", "--alphas", ""],
        ["table2-desk", "--seeds", ""],
        ["table3-desk", "--seeds", ""],
    ],
)
def test_empty_preset_axis_is_a_usage_error(monkeypatch, capsys, argv):
    calls = _record_configs(monkeypatch)
    assert cli_main(argv) == 2
    assert calls == []
    assert f"sweep axis {argv[1][2:]} is empty" in capsys.readouterr().err


def test_empty_spec_axis_is_a_usage_error(tmp_path, monkeypatch, capsys):
    calls = _record_configs(monkeypatch)
    spec = tmp_path / "spec.txt"
    spec.write_text("ks =\nalphas = 0.6\nprecons = grid\nseeds = 0\n")
    assert cli_main(["sweep", str(spec)]) == 2
    assert calls == [] and "sweep axis ks is empty" in capsys.readouterr().err
    with pytest.raises(ValueError, match="sweep axis precons is empty"):
        SweepSpec(precons=())
    with pytest.raises(ValueError, match="sweep axis seeds is empty"):
        run_table2_desk(kmax=10.0, seeds=())


def test_format_table_takes_the_sizes_from_a_cell_that_ran():
    # k = 1.5 gives a single subdomain: the DtN setup fails (no interface), the grid solves
    spec = SweepSpec(ks=(1.5,), alphas=((1.0, None),), precons=("two_level_dtn", "two_level_grid"),
                     seeds=(0,))
    _, summary, errors = run_sweep(spec)
    assert len(errors) == 1 and summary[0]["median_iterations"] == -1
    grid = summary[1]
    assert grid["N_sub"] == 1 and grid["n"] > 0 and grid["median_iterations"] > 0
    row = format_table(summary).splitlines()[2].split()
    assert row == ["1.5", "1", str(grid["n"]), "fail", "0",
                   f"{grid['median_iterations']:g}", str(grid["n_CS"])]
