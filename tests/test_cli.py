"""Command-line interface: subcommands, config handling, file outputs."""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from leapssn import Metric, cli
from leapssn.cli import main
from leapssn.driver import TRACE_HEADER, leap_ssn
from leapssn.suite import quadratic, read_pgm, read_svm_data
from leapssn.suite.registry import DEFAULT_SEEDS, build_problem, default_tol

SUMMARY_KEYS = {"problem", "solver", "seed", "status", "iterations",
                "linear_solves", "final_F", "final_grad_dual_norm",
                "wall_time_seconds", "exit_code", "environment"}


def _run(*argv):
    return main(list(argv))


def test_run_writes_trace_and_summary(tmp_path):
    out = tmp_path / "run"
    code = _run("run", "--problem", "partial_smooth", "--tol", "1e-10",
                "--seed", "7", "--out", str(out))
    assert code == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == TRACE_HEADER
    assert float(lines[-1].split(",")[5]) <= 1e-10

    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == SUMMARY_KEYS
    assert summary["status"] == "converged"
    assert summary["exit_code"] == 0
    assert summary["solver"] == "leapssn"
    assert summary["seed"] is None          # partial_smooth reads no seed

    # unset, the seed is the one the instance was built with
    out = tmp_path / "seeded"
    assert _run("run", "--problem", "quadratic", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == SUMMARY_KEYS
    assert summary["seed"] == DEFAULT_SEEDS["quadratic"]


@pytest.mark.parametrize("command,name", [("run", "summary.json"),
                                          ("verify", "report.json")])
def test_outputs_record_the_environment(tmp_path, monkeypatch, command, name):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / command
    assert _run(command, "--problem", "quadratic", "--out", str(out)) == 0
    env = json.loads((out / name).read_text())["environment"]
    assert env["numpy"] == np.__version__
    assert env["scipy"] == scipy.__version__
    assert isinstance(env["blas"], str) and env["blas"]
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "3"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    assert set(env["blas_threads"]) == set(cli.BLAS_THREAD_VARS)


def test_environment_without_a_blas_build_config(monkeypatch):
    monkeypatch.setattr(np, "show_config", lambda mode="stdout": {})
    assert cli.environment()["blas"] == "unknown"


def test_run_rejects_unknown_problem_without_writing(tmp_path):
    out = tmp_path / "nope"
    code = _run("run", "--problem", "belongs_to_no_suite", "--out", str(out))
    assert code == 1
    assert not out.exists()


def test_run_rejects_unknown_solver(tmp_path):
    code = _run("run", "--problem", "quadratic", "--solver", "bfgs",
                "--out", str(tmp_path / "x"))
    assert code == 1


def test_run_rejects_the_removed_l2_solver(tmp_path, capsys):
    code = _run("run", "--problem", "quadratic", "--solver", "l2",
                "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown solver 'l2'" in err
    assert "('leapssn', 'plain', 'backtracking')" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ("run", "--problem", "quadratic"),
    ("run", "--problem", "quadratic", "--solver", "plain"),
    ("run", "--problem", "quadratic", "--solver", "backtracking"),
    ("compare", "--problem", "quadratic", "--gamma", "1"),
    ("verify", "--problem", "quadratic"),
])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_is_a_usage_error(tmp_path, capsys, argv, budget):
    out = tmp_path / "o"
    assert _run(*argv, "--budget", budget, "--out", str(out)) == 1
    assert "--budget must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("run", "--problem", "quadratic"),
    ("run", "--problem", "quadratic", "--solver", "plain"),
    ("run", "--problem", "quadratic", "--solver", "backtracking"),
    ("compare", "--problem", "quadratic", "--gamma", "1"),
    ("verify", "--problem", "quadratic"),
])
@pytest.mark.parametrize("tol", ["0", "-1"])
def test_nonpositive_tol_is_a_usage_error(tmp_path, capsys, argv, tol):
    out = tmp_path / "o"
    assert _run(*argv, "--tol", tol, "--out", str(out)) == 1
    assert "--tol must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_tol_in_config_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "t.cfg"
    config.write_text("problem = quadratic\ntol = -1\n")
    out = tmp_path / "o"
    assert _run("run", "--config", str(config), "--out", str(out)) == 1
    assert "--tol must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_budget_below_one_in_config_is_a_usage_error(tmp_path):
    config = tmp_path / "b.cfg"
    config.write_text("problem = quadratic\nsolver = plain\nbudget = 0\n")
    out = tmp_path / "o"
    assert _run("run", "--config", str(config), "--out", str(out)) == 1
    assert not out.exists()


def test_run_baseline_solver(tmp_path):
    out = tmp_path / "plain"
    code = _run("run", "--problem", "quadratic", "--solver", "plain",
                "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["solver"] == "plain"
    assert summary["linear_solves"] == 1


def test_run_x0_presets(tmp_path):
    out = tmp_path / "ones"
    code = _run("run", "--problem", "quadratic", "--x0", "ones",
                "--out", str(out))
    assert code == 0
    # an x0 file with the wrong length must be refused
    bad = tmp_path / "x0.txt"
    np.savetxt(bad, np.ones(3))
    code = _run("run", "--problem", "quadratic", "--x0", str(bad),
                "--out", str(tmp_path / "y"))
    assert code == 1


def test_run_x0_zeros_starts_at_the_origin(tmp_path):
    # partial_smooth's own start is (1, 1)
    out = tmp_path / "zeros"
    assert _run("run", "--problem", "partial_smooth", "--x0", "zeros",
                "--out", str(out)) == 0
    prob, tol = build_problem("partial_smooth"), default_tol("partial_smooth")
    trace = leap_ssn(prob, np.zeros(2), grad_tol=tol).trace.csv()
    assert (out / "trace.csv").read_text() == trace
    assert trace != leap_ssn(prob, grad_tol=tol).trace.csv()


def test_run_is_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run("run", "--problem", "svm", "--n", "2", "--seed", "1",
                    "--tol", "1e-6", "--out", str(out)) == 0
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = quadratic\n"
                   "tol = 1e-2      # deliberately loose\n")
    out1 = tmp_path / "from_file"
    assert _run("run", "--config", str(cfg), "--out", str(out1)) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    assert s1["problem"] == "quadratic"
    assert s1["final_grad_dual_norm"] <= 1e-2

    # explicit flag beats the file
    out2 = tmp_path / "flag_wins"
    assert _run("run", "--config", str(cfg), "--tol", "1e-10",
                "--out", str(out2)) == 0
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s2["final_grad_dual_norm"] <= 1e-10
    assert s2["linear_solves"] > s1["linear_solves"]


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a run\n\n   \nproblem = quadratic\n  # tol = 1\n"
                   "n = 4\n")
    assert cli.parse_config_file(str(cfg)) == {"problem": "quadratic", "n": 4}


@pytest.mark.parametrize("line, message", [
    ("tol 1e-3", "expected 'key = value'"),
    ("n = five", "bad value for 'n': 'five'"),
], ids=["no_equals", "wrong_type"])
def test_config_file_bad_line_is_a_usage_error(tmp_path, capsys, line,
                                               message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"problem = quadratic\n{line}\n")
    out = tmp_path / "o"
    assert _run("run", "--config", str(cfg), "--out", str(out)) == 1
    assert f"bad.cfg:2: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_without_a_problem_is_a_usage_error(tmp_path, capsys):
    assert _run("compare", "--gamma", "1e2", "--out", str(tmp_path)) == 1
    assert "compare needs --problem" in capsys.readouterr().err


def test_an_out_path_that_is_a_file_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert _run("run", "--problem", "quadratic", "--out", str(out)) == 1
    assert "cannot write outputs" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["shenanigans = 3", "m = 2"],
                         ids=["shenanigans", "m"])
def test_config_file_unknown_key_is_an_error(tmp_path, line):
    # m, the theory's trial factor, is a driver constant, not a setting
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"problem = quadratic\n{line}\n")
    assert _run("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1


@pytest.mark.parametrize("command,alpha", [("verify", "0.7"), ("run", "0"),
                                           ("compare", "0.9")])
def test_bad_solver_constant_in_config_exits_one(tmp_path, capsys, command,
                                                 alpha):
    # the driver validates the constants; an explicit 0 is not the default,
    # and compare checks them once instead of printing a column of "-"
    cfg = tmp_path / "bad_alpha.cfg"
    cfg.write_text(f"problem = quadratic\ngamma = 1\nalpha = {alpha}\n")
    out = tmp_path / "o"
    assert _run(command, "--config", str(cfg), "--out", str(out)) == 1
    assert "alpha must lie in (0, 1/2]" in capsys.readouterr().err
    assert not out.exists()


def test_compare_table_and_csv(tmp_path):
    out = tmp_path / "cmp"
    code = _run("compare", "--problem", "membrane", "--n", "17",
                "--gamma", "1e2,1e3", "--solvers", "leapssn,plain",
                "--out", str(out))
    assert code == 0
    csv_lines = (out / "compare.csv").read_text().strip().splitlines()
    assert csv_lines[0].split(",")[0] == "gamma"
    assert len(csv_lines) == 3
    assert (out / "compare.txt").exists()


def test_compare_and_gen_data_build_each_instance_once(tmp_path,
                                                       monkeypatch):
    # compare builds each (gamma, n) instance once for all its solvers,
    # and gen-data builds none for the SVM data and one for the TV image
    built = []
    build = cli.build_problem

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_problem", counted)
    assert _run("compare", "--problem", "svm", "--n", "5,8",
                "--gamma", "1e1,1e2", "--solvers", "leapssn,plain,backtracking",
                "--out", str(tmp_path / "compare")) == 0
    assert sorted(built) == [("svm", gamma, n, None)
                             for gamma in (10.0, 100.0) for n in (5, 8)]
    built.clear()
    assert _run("gen-data", "--problem", "svm", "--n", "3",
                "--out", str(tmp_path / "svm")) == 0
    assert built == []
    assert _run("gen-data", "--problem", "tv", "--n", "16",
                "--out", str(tmp_path / "tv")) == 0
    assert built == [("tv", 1e4, 16, 5)]


@pytest.mark.parametrize("flag,flags", [
    ("--gamma", ("--gamma", "")),
    ("--n", ("--gamma", "1e2", "--n", "")),
    ("--solvers", ("--gamma", "1e2", "--solvers", ",")),
    ("--solvers", ("--gamma", "1e2", "--solvers", "")),
], ids=["gamma", "n", "solvers", "solvers-blank"])
def test_compare_empty_sweep_fails(tmp_path, capsys, flag, flags):
    out = tmp_path / "c"
    assert _run("compare", "--problem", "membrane", *flags,
                "--out", str(out)) == 1
    assert f"compare needs a nonempty {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_takes_gamma_from_config(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("problem = quadratic\ngamma = 1e3\n")
    out = tmp_path / "c"
    assert _run("compare", "--config", str(config), "--out", str(out)) == 0
    csv_lines = (out / "compare.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "gamma,leapssn,plain"
    gamma, *cells = csv_lines[1].split(",")
    assert len(csv_lines) == 2 and gamma == "1000"
    assert all(cell.isdigit() for cell in cells)     # both converged


def test_compare_marks_failed_cells(tmp_path):
    # "-" for a solver that cannot take the problem and for a run that
    # does not converge within the budget; the command still succeeds
    out = tmp_path / "c"
    assert _run("compare", "--problem", "partial_smooth", "--gamma", "1",
                "--solvers", "leapssn,plain", "--out", str(out)) == 0
    leapssn, plain = (out / "compare.csv").read_text().splitlines()[1].split(",")[1:]
    assert leapssn.isdigit() and plain == "-"
    assert _run("compare", "--problem", "rosenbrock", "--gamma", "1",
                "--budget", "1", "--out", str(out)) == 0
    assert (out / "compare.csv").read_text().splitlines()[1] == "1,-,-"


@pytest.mark.parametrize("argv, message", [
    (["compare", "--problem", "membrane", "--n", "0,17", "--gamma", "1e2"],
     "n must be at least 3"),
    (["run", "--problem", "svm", "--n", "0"], "n_features >= 1"),
    (["run", "--problem", "svm", "--n", "-1"], "n_features >= 1"),
], ids=["compare-membrane-n0", "run-svm-n0", "run-svm-n-1"])
def test_nonpositive_n_is_refused_by_the_builder(tmp_path, capsys, argv,
                                                 message):
    # n = 0 is a size, not "unset": it must not solve the default size
    out = tmp_path / "o"
    assert _run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("leapssn: error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["run", "--problem", "quadratic"], "lambda0 = nan",
     "lambda0 must be positive and finite, got nan"),
    (["run", "--problem", "quadratic"], "lambda0 = inf",
     "lambda0 must be positive and finite, got inf"),
    (["run", "--problem", "svm", "--gamma", "nan"], None,
     "gamma must be finite and positive, got nan"),
    (["run", "--problem", "svm", "--gamma", "inf"], None,
     "gamma must be finite and positive, got inf"),
    (["run", "--problem", "membrane", "--gamma", "nan"], None,
     "gamma must be finite and nonnegative, got nan"),
    (["run", "--problem", "plate", "--gamma", "inf"], None,
     "gamma must be finite and nonnegative, got inf"),
    (["run", "--problem", "tv", "--n", "8", "--gamma", "nan"], None,
     "gamma must be finite and positive, got nan"),
    (["run", "--problem", "quadratic", "--x0", "x0.txt"], None,
     "F or f' is not finite at the start point (F = nan)"),
], ids=["lambda0-nan", "lambda0-inf", "svm-gamma-nan", "svm-gamma-inf",
        "membrane-gamma-nan", "plate-gamma-inf", "tv-gamma-nan", "x0-nan"])
def test_nonfinite_input_is_a_one_line_error(tmp_path, capsys, monkeypatch,
                                             argv, config, message):
    monkeypatch.chdir(tmp_path)
    np.savetxt("x0.txt", np.r_[np.zeros(7), np.nan])
    if config is not None:
        (tmp_path / "c.cfg").write_text(config + "\n")
        argv = argv + ["--config", "c.cfg"]
    out = tmp_path / "o"
    assert _run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == f"leapssn: error: {message}\n"
    assert not out.exists()


def test_verify_clean_problem(tmp_path):
    out = tmp_path / "v"
    code = _run("verify", "--problem", "partial_smooth", "--tol", "1e-10",
                "--out", str(out))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == []
    assert report["manifold_index"] is not None
    assert report["audit"]["superlinear_detected"] is True


def test_verify_flags_broken_gradient(tmp_path):
    out = tmp_path / "vb"
    code = _run("verify", "--problem", "broken_gradient", "--out", str(out))
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["violations"]
    kinds = {v[1] for v in report["violations"]}
    assert "grad_check" in kinds


def test_verify_flags_a_hess_apply_that_ignores_column_bases(tmp_path,
                                                           monkeypatch):
    # hess_symmetry_check applies the hook to one block spanning its
    # sample points, each column with its own base point; a hook that
    # takes column 0's base point for all of them must fail verify
    build = cli.build_problem

    def first_base(*args):
        prob = build(*args)
        hook = prob.hess_apply
        return dataclasses.replace(prob, hess_apply=lambda X, V: hook(
            np.repeat(X[:, :1], V.shape[1], axis=1), V))

    monkeypatch.setattr(cli, "build_problem", first_base)
    out = tmp_path / "v"
    assert _run("verify", "--problem", "svm", "--out", str(out)) == 3
    report = json.loads((out / "report.json").read_text())
    assert "hess_symmetry" in {v[1] for v in report["violations"]}


def test_verify_flags_a_model_error_bound_that_is_too_small(tmp_path,
                                                          monkeypatch):
    # plate at n = 17 and gamma = 1e5 crosses kinks; its certified L
    # declared 1e3 times too small fails verify on the run's iterate
    # pairs, and the report names the source of L
    out = tmp_path / "v"
    args = ("verify", "--problem", "plate", "--n", "17", "--gamma", "1e5")
    assert _run(*args, "--out", str(out)) == 0
    assert json.loads((out / "report.json").read_text())["audit"][
        "L_source"] == "certified"
    build = cli.build_problem

    def too_small(*knobs):
        prob = build(*knobs)
        bound = prob.model_error_bound
        return dataclasses.replace(
            prob, model_error_bound=lambda metric: bound(metric) / 1e3)

    monkeypatch.setattr(cli, "build_problem", too_small)
    assert _run(*args, "--out", str(out)) == 3
    report = json.loads((out / "report.json").read_text())
    assert "model_error_bound" in {v[1] for v in report["violations"]}
    assert report["audit"]["lambda_bound_ok"] is False


def test_verify_samples_l_without_a_certified_bound(tmp_path):
    out = tmp_path / "v"
    assert _run("verify", "--problem", "rosenbrock", "--out", str(out)) == 0
    assert json.loads((out / "report.json").read_text())["audit"][
        "L_source"] == "sampled"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_uncertified_metric_is_a_one_line_error(tmp_path, capsys,
                                                monkeypatch, command):
    # the first dual norm raises NumericalError; it must not escape main
    indefinite = Metric(sp.diags(np.r_[1.0, -1.0, np.ones(6)]).tocsr())
    monkeypatch.setattr(cli, "build_problem", lambda *args: dataclasses.replace(
        quadratic(), metric=indefinite))
    out = tmp_path / "o"
    assert _run(command, "--problem", "quadratic", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("leapssn: error: metric is not positive definite")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_gen_data_svm(tmp_path):
    out = tmp_path / "d"
    code = _run("gen-data", "--problem", "svm", "--n", "3", "--seed", "9",
                "--out", str(out))
    assert code == 0
    files = list(out.glob("svm_l*_n3_s9.txt"))
    assert len(files) == 1
    X, y = read_svm_data(files[0])
    assert X.shape[1] == 3
    assert set(np.unique(y)) == {-1.0, 1.0}


def test_gen_data_tv(tmp_path):
    out = tmp_path / "d"
    code = _run("gen-data", "--problem", "tv", "--n", "16", "--seed", "4",
                "--out", str(out))
    assert code == 0
    img = read_pgm(out / "tv_n16_s4.pgm")
    assert img.data.shape == (16, 16)


def test_gen_data_writes_the_image_run_solves(tmp_path):
    # without --seed both take the registry's default tv seed
    assert _run("gen-data", "--problem", "tv", "--n", "16",
                "--out", str(tmp_path / "d")) == 0
    assert _run("run", "--problem", "tv", "--n", "16", "--gamma", "1e2",
                "--budget", "120", "--out", str(tmp_path / "r")) == 0
    (generated,) = (tmp_path / "d").glob("tv_n16_s*.pgm")
    assert generated.read_bytes() == (tmp_path / "r" / "noisy.pgm").read_bytes()


def test_gen_data_rejects_problems_without_datasets(tmp_path):
    assert _run("gen-data", "--problem", "rosenbrock",
                "--out", str(tmp_path / "d")) == 1


def test_tv_run_writes_images(tmp_path):
    out = tmp_path / "tv"
    code = _run("run", "--problem", "tv", "--n", "16", "--gamma", "1e2",
                "--budget", "120", "--out", str(out))
    assert code == 0
    assert read_pgm(out / "restored.pgm").data.shape == (16, 16)
    assert read_pgm(out / "noisy.pgm").data.shape == (16, 16)


def test_run_tv_uses_the_declared_constants(tmp_path, monkeypatch):
    # tv_dual_problem declares alpha = 1e-4 and no beta, which keeps the
    # driver's 1/4; a set constant still wins
    results = []

    def spy(*args, **kwargs):
        results.append(leap_ssn(*args, **kwargs))
        return results[-1]

    monkeypatch.setitem(cli.SOLVERS, "leapssn", spy)
    args = ("run", "--problem", "tv", "--n", "16", "--gamma", "1e2",
            "--budget", "120")
    assert _run(*args, "--out", str(tmp_path / "declared")) == 0
    config = tmp_path / "alpha.cfg"
    config.write_text("alpha = 0.25\n")
    assert _run(*args, "--config", str(config),
                "--out", str(tmp_path / "set")) == 0
    declared, set_alpha = (r.trace.config for r in results)
    assert (declared["alpha"], declared["beta"]) == (1e-4, 0.25)
    assert (set_alpha["alpha"], set_alpha["beta"]) == (0.25, 0.25)


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--tol"])          # missing value
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("run", "--problem", "quadratic", "--gamma", "abc"),
    ("compare", "--problem", "membrane", "--gamma", "1e2", "--n", "3,x"),
    ("compare", "--problem", "membrane", "--gamma", "1e2,y"),
    ("verify", "--problem", "quadratic", "--n", "1.5"),
])
def test_bad_numeric_flag_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 1
    assert "invalid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(shutil.which("leapssn") is None,
                    reason="console script not on PATH")
def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        ["leapssn", "run", "--problem", "quadratic", "--out",
         str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "leapssn.cli", "run", "--problem",
         "quadratic", "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
