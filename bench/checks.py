"""Correctness check behind ``failed_checks``.

A job passes when

* its status is one the job allows (``converged``; tracked hard cells
  may also end ``solve_budget``, which is counted in ``unconverged_jobs``
  and is not an error);
* its trace is monotone: every recorded objective is no larger than the
  one before it, starting from F(x0);
* when converged, the certified gradient stored for the final iterate has
  dual norm at most the job's tolerance, recomputed here through the
  problem's metric;
* when converged, the final objective lies within ``REL_TOL`` (relative)
  of the reference in ``references.json``, which was recorded by solving
  the same instance to a tolerance 100x tighter (see
  ``record_references.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")
REL_TOL = 1e-8


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["F"]


def check_job(job, problem, result, reference) -> list:
    """Return the list of failed check names (empty when the job passes)."""
    failed = []
    if result.status not in job.allowed:
        failed.append(f"status:{result.status}")
    trace = result.trace
    prev = trace.F0
    for rec in trace.records:
        if not rec.F <= prev:
            failed.append(f"monotone:k={rec.k}")
            break
        prev = rec.F
    if result.status != "converged":
        return failed
    if not trace.grads:
        return failed + ["no_certified_gradient"]
    gnorm = problem.metric.dual_norm(trace.grads[-1])
    if not gnorm <= job.tol:
        failed.append(f"grad_dual_norm:{gnorm:.3e}")
    if reference is None:
        failed.append("no_reference")
    elif not abs(result.F - reference) <= REL_TOL * max(1.0, abs(reference)):
        failed.append(f"F:{result.F!r}!={reference!r}")
    return failed
