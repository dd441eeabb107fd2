"""Record the reference objectives that the correctness check compares to.

Usage (from the repository root; takes several minutes):

    python3 bench/record_references.py

For every instance of every workload -- each seed offset below
``SEED_PERIOD`` for seeded instances, once for pinned ones -- solve the
instance with the solver of its first job that must converge, with a
3000-solve budget, at the tightest gradient tolerance among 100x, 10x and
1x the job's that the solver reaches, and store the final objective in
``references.json``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leapssn import backtracking_newton, leap_ssn  # noqa: E402

from checks import REFERENCES  # noqa: E402
from workloads import CONVERGED_ONLY, SEED_PERIOD, WORKLOADS  # noqa: E402

TIGHTEN = (100.0, 10.0, 1.0)
BUDGET = 3000


def reference_jobs():
    """First must-converge job per instance, in workload order."""
    seen = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            if job.allowed == CONVERGED_ONLY:
                seen.setdefault(job.instance, job)
    return list(seen.values())


def solve(job, problem, tol):
    options = {k: v for k, v in job.options.items() if k != "max_solves"}
    solver = leap_ssn if job.solver == "leap_ssn" else backtracking_newton
    return solver(problem, grad_tol=tol, max_solves=BUDGET, **options)


def main() -> int:
    refs = {}
    for job in reference_jobs():
        offsets = range(SEED_PERIOD) if job.seeded else (0,)
        for offset in offsets:
            problem = job.build(job.data_seed(offset))
            key = job.reference_key(offset)
            for factor in TIGHTEN:
                result = solve(job, problem, job.tol / factor)
                if result.converged:
                    break
            if not result.converged:
                print(f"{key}: {result.status} at tol {job.tol:g}",
                      file=sys.stderr)
                return 1
            refs[key] = result.F
            print(f"{key}: F = {result.F!r} (tol {job.tol / factor:g}, "
                  f"{result.solves} solves)", flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump({"F": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
