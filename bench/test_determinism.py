"""Determinism test for the benchmark at the pinned BLAS thread count.

Runs the short ``smoke`` job list twice, each in a fresh traced process,
and requires identical counters and identical trace.csv hashes.  Run it
from the repository root with either of

    python3 bench/test_determinism.py
    python3 -m pytest bench/test_determinism.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"
COUNTERS = ("subsolver.inner_iters", "hilbert.lu_fill_nnz",
            "verify.violations")


def _run(tag):
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"determinism-{tag}.json"
    subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                    "--workload", "smoke", "--seed", "0", "--seconds", "0",
                    "--trace", "1", "--out", str(out)],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(out) as fh:
        return json.load(fh)


def _fingerprint(doc):
    rows = [r for p in doc["passes"] for r in p]
    return {
        "linear_solves": sum(r["solves"] for r in rows),
        "outer_iterations": sum(r["iterations"] for r in rows),
        **{name: doc["metrics"][name]["value"] for name in COUNTERS},
        "jobs": [(r["job"], r["status"], r["solves"], r["iterations"],
                  r["violations"], r["trace_sha256"], r["failed"])
                 for r in rows],
    }


def test_two_runs_agree():
    first, second = _run("a"), _run("b")
    assert first["env"]["threads"] == second["env"]["threads"]
    a, b = _fingerprint(first), _fingerprint(second)
    assert a == b
    assert a["hilbert.lu_fill_nnz"] > 0 and a["subsolver.inner_iters"] > 0
    assert not any(job[-1] for job in a["jobs"]), "a smoke job failed its check"


if __name__ == "__main__":
    test_two_runs_agree()
    print("determinism: two runs agree")
