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
gen-data  write seeded synthetic inputs (SVM text file / noisy PGM)

Exit codes (stable contract): 0 converged / success, 2 budget exhausted,
3 persistent subproblem failure, 1 usage or I/O error or a metric solve
that fails certification (a one-line message, no traceback).

Configuration: flags may also be given in a ``--config`` file of plain
``key = value`` lines ('#' starts a comment).  Built-in defaults are
overridden by the file, which is overridden by explicit flags.  The file
may additionally set solver constants (alpha, beta, m, lambda0) that
have no dedicated flag.  ``--tol`` must be positive.  ``--budget`` (max
linear solves) must be at least 1; unset, leapssn is unbounded and the
baselines stop at 10000 in ``run``, and every solver gets 300 in
``compare`` and ``verify``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .baselines import backtracking_newton, plain_newton
from .driver import EXIT_CODES, leap_ssn, solver_constants
from .hilbert import NumericalError
from .suite.imaging import write_pgm
from .suite.registry import (PROBLEM_NAMES, SVM_SAMPLES, TV_SIGMA,
                             build_problem, default_tol)
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
    "alpha": float, "beta": float, "m": float, "lambda0": float,
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


def _merge_settings(ns: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    settings = dict.fromkeys(_CONFIG_KEYS)
    if getattr(ns, "config", None):
        settings.update(parse_config_file(ns.config))
    for key in _CONFIG_KEYS:
        val = getattr(ns, key, None)
        if val is not None:
            settings[key] = val
    if settings["budget"] is not None and settings["budget"] < 1:
        raise ValueError(f"--budget must be at least 1, got {settings['budget']}")
    if settings["tol"] is not None and not settings["tol"] > 0:
        raise ValueError(f"--tol must be positive, got {settings['tol']}")
    return settings


def _resolve_x0(spec, problem):
    if spec is None or spec == "default":
        return None
    if spec == "zeros":
        return np.zeros(problem.dim)
    if spec == "ones":
        return np.ones(problem.dim)
    x0 = np.loadtxt(spec).ravel()
    if x0.shape != (problem.dim,):
        raise ValueError(f"start point file has {x0.size} entries, "
                         f"problem needs {problem.dim}")
    return x0


def _constants(settings) -> dict:
    # pass on only what was set; the driver holds the defaults
    return {key: settings[key] for key in ("alpha", "beta", "m", "lambda0")
            if settings[key] is not None}


def _run_solver(solver, problem, x0, tol, budget, settings):
    options = {} if budget is None else {"max_solves": budget}
    if solver == "leapssn":
        options.update(_constants(settings))
    return SOLVERS[solver](problem, x0, grad_tol=tol, **options)


def _parse_list(text: str, kind):
    return [kind(p) for p in text.split(",") if p.strip()]


# ----------------------------------------------------------------------
# subcommands


def cmd_run(ns) -> int:
    try:
        settings = _merge_settings(ns)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    name = settings["problem"]
    if name is None:
        return _fail("run needs --problem")
    solver = settings["solver"] or "leapssn"
    if solver not in SOLVER_NAMES:
        return _fail(f"unknown solver {solver!r}; choose from {SOLVER_NAMES}")
    try:
        problem = build_problem(name, settings["gamma"], settings["n"],
                                settings["seed"])
    except (KeyError, ValueError) as e:
        return _fail(str(e.args[0]) if e.args else repr(e))
    tol = settings["tol"] if settings["tol"] is not None else default_tol(name)

    try:
        x0 = _resolve_x0(settings["x0"], problem)
    except (OSError, ValueError) as e:
        return _fail(str(e))

    t0 = time.perf_counter()
    try:
        result = _run_solver(solver, problem, x0, tol, settings["budget"],
                             settings)
    except ValueError as e:
        return _fail(str(e))
    wall = time.perf_counter() - t0

    out = settings["out"] or "."
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
    }
    try:
        os.makedirs(out, exist_ok=True)
        result.trace.write_csv(os.path.join(out, "trace.csv"))
        with open(os.path.join(out, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        if hasattr(problem, "reconstruct"):
            write_pgm(problem.reconstruct(result.x),
                      os.path.join(out, "restored.pgm"))
            if hasattr(problem, "noisy_image"):
                write_pgm(problem.noisy_image, os.path.join(out, "noisy.pgm"))
    except OSError as e:
        return _fail(f"cannot write outputs: {e}")
    print(f"{name} [{solver}]: {result.status}, {result.iterations} iterations, "
          f"{result.solves} linear solves, F = {result.F:.6e}, "
          f"grad norm = {result.grad_dual_norm:.3e}")
    return EXIT_CODES[result.status]


def _compare_cell(solver, problem, tol, budget, settings):
    try:
        res = _run_solver(solver, problem, None, tol, budget, settings)
    except ValueError:      # a baseline refuses the problem or its settings
        return None
    return res.solves if res.status == "converged" else None


def cmd_compare(ns) -> int:
    try:
        settings = _merge_settings(ns)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    name = settings["problem"]
    if name is None:
        return _fail("compare needs --problem")
    try:
        # the flag is a comma list; a config file gives a single value
        if ns.gamma is not None:
            sweep = _parse_list(ns.gamma, float)
        else:
            sweep = [] if settings["gamma"] is None else [settings["gamma"]]
    except ValueError:
        return _fail(f"bad sweep {ns.gamma!r}")
    if not sweep:
        return _fail("compare needs a nonempty --gamma sweep")
    solvers = [s.strip() for s in (ns.solvers or "leapssn,plain").split(",")
               if s.strip()]
    for s in solvers:
        if s not in SOLVER_NAMES:
            return _fail(f"unknown solver {s!r}; choose from {SOLVER_NAMES}")
    try:
        ns_list = _parse_list(ns.n, int) if ns.n else [settings["n"]]
    except ValueError:
        return _fail(f"bad --n list {ns.n!r}")
    tol = settings["tol"] if settings["tol"] is not None else default_tol(name)
    budget = settings["budget"] or 300
    if "leapssn" in solvers:
        # bad solver constants are a usage error, not a column of failures
        try:
            solver_constants(build_problem(name, sweep[0], ns_list[0],
                                           settings["seed"]),
                             **_constants(settings))
        except (KeyError, ValueError) as e:
            return _fail(str(e.args[0]) if e.args else repr(e))

    columns = [(s, nv) for s in solvers for nv in ns_list]
    multi_n = len(ns_list) > 1
    header = ["gamma"] + [f"{s}@n={nv}" if multi_n else s for s, nv in columns]
    rows = []
    for gamma in sweep:
        row = [f"{gamma:g}"]
        for s, nv in columns:
            try:
                problem = build_problem(name, gamma, nv, settings["seed"])
            except (KeyError, ValueError) as e:
                return _fail(str(e.args[0]) if e.args else repr(e))
            cell = _compare_cell(s, problem, tol, budget, settings)
            row.append("-" if cell is None else str(cell))
        rows.append(row)

    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths))
             for r in [header] + rows]
    table = "\n".join(lines) + "\n"
    print(table, end="")

    out = settings["out"] or "."
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "compare.csv"), "w") as fh:
            fh.write(",".join(header) + "\n")
            for r in rows:
                fh.write(",".join(r) + "\n")
        with open(os.path.join(out, "compare.txt"), "w") as fh:
            fh.write(table)
    except OSError as e:
        return _fail(f"cannot write outputs: {e}")
    return 0


def cmd_verify(ns) -> int:
    try:
        settings = _merge_settings(ns)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    name = settings["problem"]
    if name is None:
        return _fail("verify needs --problem")
    try:
        problem = build_problem(name, settings["gamma"], settings["n"],
                                settings["seed"])
    except (KeyError, ValueError) as e:
        return _fail(str(e.args[0]) if e.args else repr(e))
    tol = settings["tol"] if settings["tol"] is not None else default_tol(name)
    budget = settings["budget"] or 300

    try:
        result = _run_solver("leapssn", problem, None, tol, budget, settings)
    except ValueError as e:
        return _fail(str(e))
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

    dm = dm_condition_sample(result.trace, problem)
    manifold = None if problem.smooth else manifold_check(result.trace)

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
        "dm_ratios": dm,
        "manifold_index": manifold,
        "violations": violations,
    }
    out = settings["out"] or "."
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as e:
        return _fail(f"cannot write outputs: {e}")
    status = "clean" if not violations else f"{len(violations)} violation(s)"
    print(f"{name}: {status}; solver {result.status} after "
          f"{result.solves} solves; L_hat = {report.L_hat:.4g}")
    return 0 if not violations else 3


def cmd_gen_data(ns) -> int:
    try:
        settings = _merge_settings(ns)
    except (OSError, ValueError) as e:
        return _fail(str(e))
    name = settings["problem"]
    if name is None:
        return _fail("gen-data needs --problem")
    seed = settings["seed"] if settings["seed"] is not None else 1
    out = settings["out"] or "."
    try:
        os.makedirs(out, exist_ok=True)
        if name == "svm":
            n = settings["n"] or 2
            X, y = svm_data(SVM_SAMPLES, n, seed)
            path = os.path.join(out, f"svm_l{SVM_SAMPLES}_n{n}_s{seed}.txt")
            write_svm_data(path, X, y)
        elif name == "tv":
            from .suite.imaging import add_noise, phantom
            n = settings["n"] or 64
            noisy = add_noise(phantom(n), TV_SIGMA, seed)
            path = os.path.join(out, f"tv_n{n}_s{seed}.pgm")
            write_pgm(noisy, path)
        else:
            return _fail(f"gen-data supports 'svm' and 'tv', not {name!r}")
    except OSError as e:
        return _fail(f"cannot write outputs: {e}")
    print(path)
    return 0


# ----------------------------------------------------------------------


def _add_common(sub, *, gamma_help):
    sub.add_argument("--problem", help=f"one of {', '.join(PROBLEM_NAMES)}")
    sub.add_argument("--gamma", help=gamma_help)
    sub.add_argument("--n", help="problem size parameter")
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
    p_run.set_defaults(func=cmd_run, gamma=None)

    p_cmp = subs.add_parser("compare", help="penalty sweep table",
                            description="Sweep --gamma values per solver; "
                            "writes compare.csv and compare.txt to --out.")
    _add_common(p_cmp, gamma_help="comma-separated sweep, e.g. 1e2,1e3,1e4")
    p_cmp.add_argument("--solvers", help="comma-separated list from "
                       f"{', '.join(SOLVER_NAMES)} (default: leapssn,plain)")
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = subs.add_parser("verify", help="derivative checks + trace audit",
                            description="Check gradients, sample the model-"
                            "error constant, audit a run; writes report.json.")
    _add_common(p_ver, gamma_help="penalty parameter")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = subs.add_parser("gen-data", help="write seeded synthetic inputs",
                            description="Write an SVM text file or a noisy "
                            "PGM image generated from --seed.")
    _add_common(p_gen, gamma_help="(unused)")
    p_gen.set_defaults(func=cmd_gen_data)

    ns = parser.parse_args(argv)

    # --gamma/--n are scalars everywhere except compare (comma lists there)
    if ns.command != "compare":
        try:
            if ns.gamma is not None:
                ns.gamma = float(ns.gamma)
            if ns.n is not None:
                ns.n = int(ns.n)
        except ValueError:
            return _fail(f"bad numeric flag value "
                         f"(gamma={ns.gamma!r}, n={ns.n!r})")

    try:
        return ns.func(ns)
    except KeyboardInterrupt:
        return 1
    except NumericalError as e:     # e.g. a metric that fails certification
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
