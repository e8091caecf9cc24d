#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save DIR]

Run it from the root of a checkout.  It builds liblang and perfbench.exe
from source (a release build under .bench_build/), runs one workload, and
passes perfbench.exe's report through; the last line of standard output
is its JSON result.  It exits non-zero, without
printing a result, when the checkout cannot be built or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ("run-figs", "build-project", "serve-mixed")
REQUIRED = ("dune-project", "lib", os.path.join("bench", "programs.ml"),
            os.path.join("perfbench", "dune"))


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not at the root of a liblang checkout (missing %s)" % ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    # one build at a time per checkout: a second dune started on a build
    # directory another dune holds can wait on it indefinitely
    with open(os.path.join(os.path.dirname(BUILD_DIR), "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            r = subprocess.run(
                ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
                 "--profile", "release", "./perfbench/perfbench.exe"],
                stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--save", metavar="DIR",
                    help="also write the JSON result to DIR (input of compare.py)")
    a = ap.parse_args()
    build()
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=175,
                           universal_newlines=True)
    except subprocess.TimeoutExpired:
        fail("the %s run did not finish within 175 s" % a.workload)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if r.returncode != 0 or not ok:
        sys.stderr.write(r.stdout)
        fail("the %s run failed (exit %d)" % (a.workload, r.returncode))
    if a.save:
        os.makedirs(a.save, exist_ok=True)
        name = "%s-trace%d-seed%d.json" % (a.workload, a.trace, a.seed)
        with open(os.path.join(a.save, name), "w") as f:
            f.write(lines[-1] + "\n")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
