"""leapssn benchmark: solve + audit workloads with optional layer tracing.

Usage (from the repository root):

    python3 bench/run.py --workload sparse_contact --seed 0 --seconds 30 --trace 0

One run executes one workload in this (fresh, single) process: it sets up
the workload's problems several times, then repeats passes over its job
list -- solve every job, audit every ``leap_ssn`` trace, check every
result -- until ``--seconds`` would be exceeded by another pass (at least
one pass is always made).  A time is the sum over jobs of each job's
median over passes.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` (job
runs), ``failed`` (job runs failing the correctness check) and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
passes and also writes its spans to ``.bench_out/``.

``--workload all`` runs every benchmark workload, each in a fresh
process.  BLAS and OpenMP run with one thread; the thread variables are
set here before numpy is first imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_WORKLOADS = ("sparse_contact", "svm_dense", "composite_l1")
WORKLOAD_NAMES = (*BENCHMARK_WORKLOADS, "smoke")   # keys of workloads.WORKLOADS
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "solve_s": "s", "audit_s": "s", "setup_s": "s",
    "linear_solves": "count", "outer_iterations": "count",
    "converged_jobs": "count", "peak_rss_mb": "MB",
}


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def audit(problem, result, call) -> Counter:
    """The ``leapssn verify`` pass over one finished run; returns violations."""
    from leapssn import verify
    from leapssn.cli import GRAD_CHECK_TOL, HESS_SYM_TOL

    points = call("verify.sample_points", verify.sample_points, problem, 4)
    grad_err = call("verify.grad_check", verify.grad_check, problem, points)
    hess_err = call("verify.hess_symmetry_check", verify.hess_symmetry_check,
                    problem, points)
    L_hat = call("verify.assumption2_sample", verify.assumption2_sample, problem)
    report = call("verify.audit_trace", verify.audit_trace, result.trace,
                  problem, L_hat=L_hat)
    names = Counter(v[1] for v in report.violations)
    if grad_err > GRAD_CHECK_TOL:
        names["grad_check"] += 1
    if hess_err > HESS_SYM_TOL:
        names["hess_symmetry"] += 1
    call("verify.dm_condition_sample", verify.dm_condition_sample,
         result.trace, problem)
    if not problem.smooth:
        call("verify.manifold_check", verify.manifold_check, result.trace)
    return names


def run_pass(jobs, problems, offset, references, tracer=None) -> list:
    """Solve, audit and check every job once; one row per job."""
    from checks import check_job
    from leapssn import backtracking_newton, leap_ssn

    call = tracer.call if tracer is not None else _direct
    rows = []
    for job, problem in zip(jobs, problems):
        if tracer is not None:
            tracer.job, tracer.phase = job.name, "solve"
            tracer.instrument_problem(problem)
        if job.solver == "leap_ssn":
            name, solver = "driver.leap_ssn", leap_ssn
        else:
            name, solver = "baselines.backtracking_newton", backtracking_newton
        t0 = time.perf_counter()
        result = call(name, solver, problem, grad_tol=job.tol, **job.options)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.phase = "audit"
        violations = Counter()
        if job.solver == "leap_ssn":
            violations = audit(problem, result, call)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.phase = "check"
        failed = check_job(job, problem, result,
                           references.get(job.reference_key(offset)))
        rows.append({
            "job": job.name, "solver": job.solver, "status": result.status,
            "solves": result.solves, "iterations": result.iterations,
            "F": result.F, "solve_s": t1 - t0, "audit_s": t2 - t1,
            "violations": dict(sorted(violations.items())),
            "trace_sha256": hashlib.sha256(
                result.trace.csv().encode()).hexdigest(),
            "failed": failed,
        })
    return rows


def _outcome(row):
    """The deterministic part of a row: must repeat exactly across passes."""
    return (row["status"], row["solves"], row["iterations"],
            row["trace_sha256"], tuple(row["violations"].items()))


def layer_metrics(tracer, rows) -> dict:
    """Per-layer metrics of one traced pass (name -> (value, unit))."""
    calls, total = tracer.calls, tracer.total_s
    out = {}
    for name in ("hilbert.solve_posdef", "hilbert.factor",
                 "hilbert.metric_solve", "subsolver.smooth_step",
                 "subsolver.composite_step",
                 *(f"problem.{p}" for p in ("f_value", "f_grad", "hess",
                                            "f_decrease", "prox", "psi"))):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (total[name], "s")
    for name in ("hilbert.solve_posdef.none", "hilbert.lu_fill_nnz",
                 "subsolver.noncomputable", "subsolver.inner_iters"):
        out[name] = (tracer.counters[name], "count")
    for layer in ("hilbert", "problem", "subsolver"):
        for phase in ("solve", "audit"):
            out[f"{layer}.{phase}_self_s"] = (
                tracer.phase_self_s[phase, layer], "s")
    for layer in ("driver", "baselines", "verify"):
        out[f"{layer}.self_s"] = (
            sum(s for (_, name), s in tracer.phase_self_s.items()
                if name == layer), "s")
    leap = [r for r in rows if r["solver"] == "leap_ssn"]
    out["driver.accept_ratio"] = (
        sum(r["iterations"] for r in leap) / max(1, sum(r["solves"] for r in leap)),
        "ratio")
    out["baselines.backtracking_newton.s"] = (
        total["baselines.backtracking_newton"], "s")
    out["baselines.backtracking_newton.solves"] = (
        sum(r["solves"] for r in rows if r["solver"] != "leap_ssn"), "count")
    for name in ("assumption2_sample", "audit_trace", "grad_check",
                 "hess_symmetry_check", "dm_condition_sample",
                 "manifold_check"):
        out[f"verify.{name}.s"] = (total[f"verify.{name}"], "s")
    out["jobs.unconverged"] = (
        sum(r["status"] != "converged" for r in rows), "count")
    out["verify.violations"] = (
        sum(sum(r["violations"].values()) for r in rows), "count")
    return out


def median_total(passes, key):
    """Sum over jobs of each job's median over passes."""
    return sum(statistics.median(p[i][key] for p in passes)
               for i in range(len(passes[0])))


def print_breakdown(rows_by_pass):
    """Per-job table: outcome of the first pass, median times over passes."""
    print(f"{'job':<24} {'solver':<20} {'status':<13} {'solves':>6} "
          f"{'iters':>5} {'solve_s':>8} {'audit_s':>8}  violations / check")
    for i, row in enumerate(rows_by_pass[0]):
        solve_s = statistics.median(p[i]["solve_s"] for p in rows_by_pass)
        audit_s = statistics.median(p[i]["audit_s"] for p in rows_by_pass)
        notes = [f"{k}x{v}" for k, v in row["violations"].items()]
        notes += [f"FAILED {f}" for f in row["failed"]]
        print(f"{row['job']:<24} {row['solver']:<20} {row['status']:<13} "
              f"{row['solves']:>6} {row['iterations']:>5} {solve_s:>8.3f} "
              f"{audit_s:>8.3f}  {', '.join(notes) or '-'}")


def run_workload(args) -> int:
    import leapssn

    if Path(leapssn.__file__).resolve().parent != SRC / "leapssn":
        print(f"leapssn imported from {leapssn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from checks import load_references
    from spans import Tracer, instrumented
    from workloads import SEED_PERIOD, WORKLOADS

    env = fingerprint()
    print("# env " + json.dumps(env, sort_keys=True))
    jobs = WORKLOADS[args.workload]
    offset = args.seed % SEED_PERIOD
    references = load_references()

    setup_s = []

    def setup():
        t0 = time.perf_counter()
        problems = [job.build(job.data_seed(offset)) for job in jobs]
        setup_s.append(time.perf_counter() - t0)
        return problems

    for _ in range(SETUP_REPEATS - 1):
        setup()

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        problems = setup()
        t0 = time.perf_counter()
        if args.trace and len(plain) > len(traced):
            tracer = Tracer()
            with instrumented(tracer):
                traced.append(run_pass(jobs, problems, offset, references, tracer))
            tracers.append(tracer)
        else:
            plain.append(run_pass(jobs, problems, offset, references))
        last = time.perf_counter() - t0
        enough = not args.trace or traced
        if enough and time.perf_counter() - start + last > args.seconds:
            break

    all_passes = plain + traced
    first = [_outcome(r) for r in all_passes[0]]
    failed = 0
    for rows in all_passes:
        for row, expected in zip(rows, first):
            if _outcome(row) != expected:
                row["failed"].append("nondeterministic")
            failed += bool(row["failed"])
    attempted = sum(len(rows) for rows in all_passes)

    print(f"# workload {args.workload}  seed {args.seed} (offset {offset})  "
          f"passes {len(plain)} untraced + {len(traced)} traced  "
          f"setup samples {len(setup_s)}")
    print_breakdown(plain)

    rows0 = plain[0]
    metrics = {
        "solve_s": median_total(plain, "solve_s"),
        "audit_s": median_total(plain, "audit_s"),
        "setup_s": statistics.median(setup_s),
        "linear_solves": sum(r["solves"] for r in rows0),
        "outer_iterations": sum(r["iterations"] for r in rows0),
        "converged_jobs": sum(r["status"] == "converged" for r in rows0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("# sums  " + "  ".join(
        f"{k}={v:.6g}" for k, v in metrics.items())
        + f"  unconverged_jobs={len(rows0) - metrics['converged_jobs']}"
        + f"  audit_violations={sum(sum(r['violations'].values()) for r in rows0)}"
        + f"  failed_checks={failed}")
    out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    if args.trace:
        per_pass = [layer_metrics(t, rows) for t, rows in zip(tracers, traced)]
        out = {name: {"value": statistics.median(p[name][0] for p in per_pass),
                      "unit": unit}
               for name, (_, unit) in per_pass[0].items()}
        out["trace.overhead_s"] = {
            "value": median_total(traced, "solve_s") - metrics["solve_s"],
            "unit": "s"}
        span_dir = ROOT / ".bench_out"
        span_dir.mkdir(exist_ok=True)
        span_path = span_dir / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracers[-1].write(span_path)
        print(f"# spans of the last traced pass: {span_path.relative_to(ROOT)}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "env": env, "passes": all_passes, "metrics": out},
                      fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Each benchmark workload in its own fresh process, one after another."""
    code = 0
    for name in BENCHMARK_WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the suite's seeds")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "leapssn").is_dir():
        print(f"cannot find the leapssn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
