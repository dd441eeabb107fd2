"""Command-line front end: run solvers, sweep penalties, verify theory.

Subcommands
-----------
run       solve one problem instance with one solver (leapssn, or the
          plain / backtracking Newton baseline), writing trace.csv +
          summary.json (+ restored.pgm for the image problem)
compare   sweep a penalty parameter, tabulating linear-solve counts per
          solver ("-" marks a run that did not converge, or a baseline
          given a composite problem), written as CSV and aligned text
verify    run the derivative checks and the trace audit on one problem,
          writing report.json; exits 0 iff no violations
gen-data  write seeded synthetic inputs (SVM text file / noisy PGM),
          the data of the instance ``run`` solves with the same flags

Exit codes (stable contract): 0 converged / success, 2 budget exhausted,
3 persistent subproblem failure, 1 usage or I/O error or a metric solve
that fails certification (a one-line message, no traceback).

summary.json and report.json also carry ``environment``: the numpy and
scipy versions, the BLAS name and version, and the BLAS thread variables
the run saw, so that a result can be read against where it was computed.

Configuration: flags may also be given in a ``--config`` file of plain
``key = value`` lines ('#' starts a comment).  Built-in defaults are
overridden by the file, which is overridden by explicit flags.  The file
may additionally set solver constants (alpha, beta, lambda0) that
have no dedicated flag.  ``--tol`` must be positive.  ``--budget`` (max
linear solves) must be at least 1; unset, ``run`` sets no solve budget
(every run stops at ``driver.MAX_OUTER`` = 500 iterations, for a
baseline 500 solves), and every solver gets 300 in ``compare`` and
``verify``.  Unset ``--gamma``, ``--n``, ``--seed`` and ``--tol`` take the
problem's defaults from ``suite.registry``, the same in every subcommand.
A ``--gamma`` or ``--n`` that is not a number (in ``compare``, a comma
list of numbers) is an argparse usage error (exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import scipy

from .baselines import backtracking_newton, plain_newton
from .driver import BLAS_THREAD_VARS, EXIT_CODES, blas_threads, leap_ssn
from .hilbert import NumericalError
from .suite.imaging import write_pgm
from .suite.registry import (PROBLEM_NAMES, SVM_SAMPLES, build_problem,
                             default_tol, problem_knobs)
from .suite.svm import svm_data, write_svm_data
from .verify import (assumption2_sample, audit_trace, dm_condition_sample,
                     grad_check, hess_symmetry_check, manifold_check,
                     sample_points)

SOLVERS = {"leapssn": leap_ssn, "plain": plain_newton,
           "backtracking": backtracking_newton}
SOLVER_NAMES = tuple(SOLVERS)
GRAD_CHECK_TOL = 1e-5
HESS_SYM_TOL = 1e-9

_CONFIG_KEYS = {
    "problem": str, "solver": str, "gamma": float, "n": int, "seed": int,
    "tol": float, "budget": int, "out": str, "x0": str,
    "alpha": float, "beta": float, "lambda0": float,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 (the documented code)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fail(message: str) -> int:
    print(f"leapssn: error: {message}", file=sys.stderr)
    return 1


def parse_config_file(path: str) -> dict:
    """Plain ``key = value`` lines with '#' comments; values are typed."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}")
    return out


def _settings(ns: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, checked; an unset tol
    takes the problem's registry default."""
    settings = dict.fromkeys(_CONFIG_KEYS)
    if ns.config:
        settings.update(parse_config_file(ns.config))
    for key in _CONFIG_KEYS:
        val = getattr(ns, key, None)
        if val is not None:
            settings[key] = val
    if settings["budget"] is not None and settings["budget"] < 1:
        raise ValueError(f"--budget must be at least 1, got {settings['budget']}")
    if settings["tol"] is not None and not settings["tol"] > 0:
        raise ValueError(f"--tol must be positive, got {settings['tol']}")
    if settings["problem"] is None:
        raise ValueError(f"{ns.command} needs --problem")
    if settings["tol"] is None:
        settings["tol"] = default_tol(settings["problem"])
    settings["out"] = settings["out"] or "."
    return settings


def _problem(settings):
    """Build the instance; unset gamma, n and seed in ``settings`` take
    the registry defaults it is built with."""
    settings.update(problem_knobs(settings["problem"], settings["gamma"],
                                  settings["n"], settings["seed"]))
    return build_problem(settings["problem"], settings["gamma"],
                         settings["n"], settings["seed"])


def _write(out: str, files: dict) -> None:
    """Create ``out`` and write each file into it; a value is the text
    or a ``write(path)`` callable."""
    try:
        os.makedirs(out, exist_ok=True)
        for name, content in files.items():
            path = os.path.join(out, name)
            if callable(content):
                content(path)
            else:
                with open(path, "w") as fh:
                    fh.write(content)
    except OSError as e:
        raise OSError(f"cannot write outputs: {e}") from None


def environment() -> dict:
    """The numerical environment a result was computed in: the numpy and
    scipy versions, the BLAS numpy was built with ("unknown" where its
    build config does not say) and the BLAS thread variables (None where
    unset), since the last bits of a run may depend on all of them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": blas_threads()}


def _resolve_x0(spec, problem):
    if spec is None or spec == "default":
        return None
    if spec == "zeros":
        return np.zeros(problem.dim)
    if spec == "ones":
        return np.ones(problem.dim)
    return np.loadtxt(spec).ravel()


def _run_solver(solver, problem, x0, budget, settings):
    # leapssn gets only the set constants; the driver holds the defaults
    keys = ("alpha", "beta", "lambda0") if solver == "leapssn" else ()
    constants = {k: settings[k] for k in keys if settings[k] is not None}
    return SOLVERS[solver](problem, x0, grad_tol=settings["tol"],
                           max_solves=budget, **constants)


def _check_solvers(solvers) -> None:
    for s in solvers:
        if s not in SOLVER_NAMES:
            raise ValueError(f"unknown solver {s!r}; choose from {SOLVER_NAMES}")


# ----------------------------------------------------------------------
# subcommands


def cmd_run(ns) -> int:
    settings = _settings(ns)
    name = settings["problem"]
    solver = settings["solver"] or "leapssn"
    _check_solvers([solver])
    problem = _problem(settings)
    x0 = _resolve_x0(settings["x0"], problem)

    t0 = time.perf_counter()
    result = _run_solver(solver, problem, x0, settings["budget"], settings)
    wall = time.perf_counter() - t0

    summary = {
        "problem": name,
        "solver": solver,
        "seed": settings["seed"],
        "status": result.status,
        "iterations": result.iterations,
        "linear_solves": result.solves,
        "final_F": result.F,
        "final_grad_dual_norm": result.grad_dual_norm,
        "wall_time_seconds": wall,
        "exit_code": EXIT_CODES[result.status],
        "environment": environment(),
    }
    files = {"trace.csv": result.trace.write_csv,
             "summary.json": json.dumps(summary, indent=2) + "\n"}
    if hasattr(problem, "reconstruct"):
        files["restored.pgm"] = lambda path: write_pgm(
            problem.reconstruct(result.x), path)
        if hasattr(problem, "noisy_image"):
            files["noisy.pgm"] = lambda path: write_pgm(problem.noisy_image,
                                                        path)
    _write(settings["out"], files)
    print(f"{name} [{solver}]: {result.status}, {result.iterations} iterations, "
          f"{result.solves} linear solves, F = {result.F:.6e}, "
          f"grad norm = {result.grad_dual_norm:.3e}")
    return EXIT_CODES[result.status]


def _compare_cell(solver, problem, budget, settings):
    if solver != "leapssn" and not problem.smooth:
        return "-"      # the baselines take smooth problems only
    res = _run_solver(solver, problem, None, budget, settings)
    return str(res.solves) if res.converged else "-"


def cmd_compare(ns) -> int:
    settings = _settings(ns)
    name = settings["problem"]
    # the flags are comma lists; a config file gives single values
    if ns.gamma is not None:
        sweep = ns.gamma
    else:
        sweep = [] if settings["gamma"] is None else [settings["gamma"]]
    if not sweep:
        raise ValueError("compare needs a nonempty --gamma sweep")
    sizes = [settings["n"]] if ns.n is None else ns.n
    if not sizes:
        raise ValueError("compare needs a nonempty --n list")
    listed = "leapssn,plain" if ns.solvers is None else ns.solvers
    solvers = [s.strip() for s in listed.split(",") if s.strip()]
    if not solvers:
        raise ValueError("compare needs a nonempty --solvers list")
    _check_solvers(solvers)
    budget = settings["budget"] or 300

    columns = [(s, nv) for s in solvers for nv in sizes]
    multi_n = len(sizes) > 1
    header = ["gamma"] + [f"{s}@n={nv}" if multi_n else s for s, nv in columns]
    rows = []
    for gamma in sweep:
        cells = {}      # one instance per (gamma, n) serves every solver
        for nv in sizes:
            problem = build_problem(name, gamma, nv, settings["seed"])
            for s in solvers:
                cells[s, nv] = _compare_cell(s, problem, budget, settings)
        rows.append([f"{gamma:g}"] + [cells[col] for col in columns])

    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths))
             for r in [header] + rows]
    table = "\n".join(lines) + "\n"
    print(table, end="")
    _write(settings["out"], {
        "compare.csv": "".join(",".join(r) + "\n" for r in [header] + rows),
        "compare.txt": table,
    })
    return 0


def cmd_verify(ns) -> int:
    settings = _settings(ns)
    name = settings["problem"]
    problem = _problem(settings)
    result = _run_solver("leapssn", problem, None, settings["budget"] or 300,
                         settings)
    points = sample_points(problem, 4)
    grad_err = grad_check(problem, points)
    hess_err = hess_symmetry_check(problem, points)
    L_hat = assumption2_sample(problem)
    report = audit_trace(result.trace, problem, L_hat=L_hat)

    violations = list(report.to_dict()["violations"])
    if grad_err > GRAD_CHECK_TOL:
        violations.append([0, "grad_check", grad_err, GRAD_CHECK_TOL])
    if hess_err > HESS_SYM_TOL:
        violations.append([0, "hess_symmetry", hess_err, HESS_SYM_TOL])

    doc = {
        "problem": name,
        "dim": problem.dim,
        "solver_status": result.status,
        "iterations": result.iterations,
        "linear_solves": result.solves,
        "final_grad_dual_norm": result.grad_dual_norm,
        "grad_check_max_rel_error": grad_err,
        "hess_symmetry_max_rel_error": hess_err,
        "audit": report.to_dict(),
        "dm_ratios": dm_condition_sample(result.trace, problem),
        "manifold_index": (None if problem.smooth
                           else manifold_check(result.trace)),
        "violations": violations,
        "environment": environment(),
    }
    _write(settings["out"], {"report.json": json.dumps(doc, indent=2) + "\n"})
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"{name}: {status}; solver {result.status} after "
          f"{result.solves} solves; L_hat = {report.L_hat:.4g} "
          f"({report.L_source})")
    return 0 if not violations else 3


def cmd_gen_data(ns) -> int:
    settings = _settings(ns)
    name = settings["problem"]
    if name not in ("svm", "tv"):
        raise ValueError(f"gen-data supports 'svm' and 'tv', not {name!r}")
    # the data ``run`` builds its instance from with the same settings
    settings.update(problem_knobs(name, settings["gamma"], settings["n"],
                                  settings["seed"]))
    n, seed = settings["n"], settings["seed"]
    if name == "svm":
        X, y = svm_data(SVM_SAMPLES, n, seed)
        files = {f"svm_l{SVM_SAMPLES}_n{n}_s{seed}.txt":
                 lambda path: write_svm_data(path, X, y)}
    else:
        noisy = build_problem(name, settings["gamma"], n, seed).noisy_image
        files = {f"tv_n{n}_s{seed}.pgm": lambda path: write_pgm(noisy, path)}
    _write(settings["out"], files)
    print(os.path.join(settings["out"], *files))
    return 0


# ----------------------------------------------------------------------


def _comma_list(kind):
    """argparse type: a comma-separated list of ``kind`` values."""
    def parse(text):
        return [kind(p) for p in text.split(",") if p.strip()]
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _add_common(sub, *, gamma_help, sweep=False):
    sub.add_argument("--problem", help=f"one of {', '.join(PROBLEM_NAMES)}")
    sub.add_argument("--gamma", type=_comma_list(float) if sweep else float,
                     help=gamma_help)
    sub.add_argument("--n", type=_comma_list(int) if sweep else int,
                     help="problem size parameter")
    sub.add_argument("--seed", type=int, help="seed for synthetic data")
    sub.add_argument("--tol", type=float, help="gradient dual-norm tolerance")
    sub.add_argument("--budget", type=int,
                     help="max linear solves, at least 1")
    sub.add_argument("--out", help="output directory (default: .)")
    sub.add_argument("--config", help="file of 'key = value' overrides")


def main(argv=None) -> int:
    parser = _Parser(
        prog="leapssn",
        description="Adaptive regularised proximal Newton solver benchmark.",
        epilog="exit codes: 0 converged/success, 2 budget exhausted, "
               "3 subproblem failure or verify violations, 1 usage/I-O error "
               "or uncertified metric",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="solve one instance",
                            description="Run one solver on one problem; "
                            "writes trace.csv and summary.json to --out.")
    _add_common(p_run, gamma_help="penalty parameter")
    p_run.add_argument("--solver", help=f"one of {', '.join(SOLVER_NAMES)}")
    p_run.add_argument("--x0", help="zeros | ones | default | file path")
    p_run.set_defaults(func=cmd_run)

    p_cmp = subs.add_parser("compare", help="penalty sweep table",
                            description="Sweep --gamma values per solver; "
                            "writes compare.csv and compare.txt to --out.")
    _add_common(p_cmp, gamma_help="comma-separated sweep, e.g. 1e2,1e3,1e4",
                sweep=True)
    p_cmp.add_argument("--solvers", help="comma-separated list from "
                       f"{', '.join(SOLVER_NAMES)} (default: leapssn,plain)")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = subs.add_parser("verify", help="derivative checks + trace audit",
                            description="Check gradients, take the model-"
                            "error constant from its certified bound, else a "
                            "sample, audit a run; writes report.json.")
    _add_common(p_ver, gamma_help="penalty parameter")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = subs.add_parser("gen-data", help="write seeded synthetic inputs",
                            description="Write an SVM text file or a noisy "
                            "PGM image generated from --seed.")
    _add_common(p_gen, gamma_help="(unused)")
    p_gen.set_defaults(func=cmd_gen_data)

    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except KeyboardInterrupt:
        return 1
    except KeyError as e:           # str() would quote the message
        return _fail(str(e.args[0]) if e.args else repr(e))
    except (ValueError, OSError, NumericalError) as e:
        # NumericalError: e.g. a metric that fails certification
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
