#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py [--seconds S] [WORKLOAD ...]

For each workload (all three by default) it makes two traced runs with
the same seed and checks that

  * the ledger adds up: the per-layer self times plus `unattributed`
    equal the traced wall time;
  * the counts later changes may claim repeat exactly across the two
    runs: compiled.artifact_kb, typed.rewrites, analysis.transfers,
    lower.instructions and compiled.recompiles_per_edit (where the
    workload has edits);
  * every output check passed (`correct` is true, `failed` is 0).

Run it from the root of a checkout.  Exits 1 on any failure.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("run-figs", "build-project", "serve-mixed")
EXACT = ("compiled.artifact_kb", "typed.rewrites", "analysis.transfers",
         "lower.instructions", "compiled.recompiles_per_edit")
SEED = 7


def traced_run(workload, seconds):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, universal_newlines=True, timeout=600)
    if r.returncode != 0:
        raise SystemExit("%s: traced run failed (exit %d)" % (workload, r.returncode))
    result = json.loads(r.stdout.strip().split("\n")[-1])
    path = os.path.join(".bench_build", "reports", "%s-seed%d-trace.json" % (workload, SEED))
    with open(path) as f:
        ledger = {k: v[0] for k, v in json.load(f).items()}
    return result, ledger


def check(workload, seconds):
    errors = []
    runs = [traced_run(workload, seconds) for _ in range(2)]
    for i, (result, ledger) in enumerate(runs):
        if not result["correct"] or result["failed"]:
            errors.append("run %d: %d failed operations" % (i, result["failed"]))
        wall = ledger["traced_wall_ms"]
        parts = sum(v for k, v in ledger.items() if k.startswith("self_ms.")) + ledger["unattributed_ms"]
        if abs(parts - wall) > 1e-6 * wall:
            errors.append("run %d: self times + unattributed = %.6f ms, traced wall %.6f ms"
                          % (i, parts, wall))
    (_, a), (_, b) = runs
    for k in EXACT:
        if k in a or k in b:
            if a.get(k) != b.get(k):
                errors.append("%s differs across runs: %r vs %r" % (k, a.get(k), b.get(k)))
    for e in errors:
        print("FAIL %s: %s" % (workload, e))
    if not errors:
        print("ok   %s: ledger adds up; %s repeat exactly"
              % (workload, ", ".join(k for k in EXACT if k in a)))
    return not errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    a = ap.parse_args()
    ok = all([check(w, a.seconds) for w in a.workloads])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
