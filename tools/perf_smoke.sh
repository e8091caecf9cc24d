#!/bin/sh
# Hygiene-engine perf smoke gate (CI): the fast path must stay *wired*,
# not just fast.  Three checks, each needing bench subprocesses
# (docs/architecture.md "Hygiene internals", docs/observability.md
# metric catalogue):
#
#   1. the expansion stress family (bench --expand --smoke) expands and
#      its closed-form checksums hold -- the bench driver exits 1 on any
#      mismatch, same contract as the cross-variant checksum gate;
#   2. BENCH_fig6.json actually carries the expansion_stress rows with
#      ok:true (guards against the bench wiring silently dropping them);
#   3. the stress family re-runs alone (--filter stx-: no fig6 rows, no
#      parallel projects, hence no domain pool) -- the single-domain
#      regression gate for the parallelism work: the gated locks must
#      not change any checksum when no pool is active.
#
# The in-process counter canaries live in the test suite: the resolver
# cache and 0CFA cases in test/test_observe.ml, the VM's vm.instructions
# case in test/test_backend.ml.
#
# Timings are noise in CI and are not asserted; correctness of the perf
# machinery is what this gate pins down.
#
# Usage: tools/perf_smoke.sh [path/to/bench/main.exe]
# (from the repo root; the script cd's there itself when invoked from
# elsewhere).  With PERF_SMOKE_REUSE_JSON=1 and a BENCH_fig6.json already
# present, step 1 is skipped and the existing file is checked instead --
# CI uses this so the artifact it uploads keeps the --cached series from
# its own bench step rather than being overwritten here.

set -u
cd "$(dirname "$0")/.." || exit 2

BENCH=${1:-_build/default/bench/main.exe}
if [ ! -x "$BENCH" ]; then
  echo "perf_smoke: $BENCH not built (dune build first)" >&2
  exit 2
fi

if command -v timeout >/dev/null 2>&1; then RUN="timeout 300"; else RUN=""; fi

fail=0

# -- 1. expansion stress family + checksum gate ------------------------------
if [ "${PERF_SMOKE_REUSE_JSON:-0}" = 1 ] && [ -f BENCH_fig6.json ]; then
  echo "== perf_smoke: reusing existing BENCH_fig6.json (PERF_SMOKE_REUSE_JSON=1) =="
else
  echo "== perf_smoke: bench --expand --smoke =="
  if ! $RUN "$BENCH" --expand --smoke; then
    echo "perf_smoke: FAIL: bench --expand --smoke exited nonzero (checksum gate?)" >&2
    fail=1
  fi
fi

# -- 2. expansion_stress rows present and ok in BENCH_fig6.json --------------
if [ ! -f BENCH_fig6.json ]; then
  echo "perf_smoke: FAIL: BENCH_fig6.json not written" >&2
  fail=1
else
  rows=$(grep -c '"expand_ms"' BENCH_fig6.json || true)
  if [ "$rows" -lt 3 ]; then
    echo "perf_smoke: FAIL: expected >=3 expand_ms rows in BENCH_fig6.json, got $rows" >&2
    fail=1
  fi
  if grep -q '"ok": false' BENCH_fig6.json; then
    echo "perf_smoke: FAIL: expansion stress checksum row not ok in BENCH_fig6.json" >&2
    fail=1
  fi
  if ! grep -q '"expansion_stress"' BENCH_fig6.json; then
    echo "perf_smoke: FAIL: no expansion_stress section in BENCH_fig6.json" >&2
    fail=1
  fi
fi

# -- 3. single-domain regression gate: stx checksums with no pool ------------
# Re-run the stress family alone in a scratch directory.  `--filter stx-`
# skips the fig6 rows and the parallel projects entirely, so no domain
# pool ever activates: this pins the stress checksums on the pure
# single-domain path, where the parallelism gate must be a no-op (its
# locks sit off the intern-hit fast path -- docs/architecture.md,
# "Parallelism & domain-safety").  Gate on checksums, never wall time.
echo "== perf_smoke: single-domain stx stress (--expand --smoke --filter stx-) =="
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
BENCH_ABS=$(cd "$(dirname "$BENCH")" && pwd)/$(basename "$BENCH")
if ! (cd "$WORK" && $RUN "$BENCH_ABS" --expand --smoke --filter "stx-" >/dev/null); then
  echo "perf_smoke: FAIL: single-domain stx stress exited nonzero (checksum gate?)" >&2
  fail=1
elif [ ! -f "$WORK/BENCH_fig6.json" ]; then
  echo "perf_smoke: FAIL: single-domain stx stress wrote no BENCH_fig6.json" >&2
  fail=1
else
  srows=$(grep -c '"expand_ms"' "$WORK/BENCH_fig6.json" || true)
  if [ "$srows" -lt 3 ]; then
    echo "perf_smoke: FAIL: expected >=3 single-domain stress rows, got $srows" >&2
    fail=1
  fi
  if grep -q '"ok": false' "$WORK/BENCH_fig6.json"; then
    echo "perf_smoke: FAIL: single-domain stx checksum row not ok" >&2
    fail=1
  else
    echo "perf_smoke: single-domain stx checksums hold ($srows rows)"
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "perf_smoke: FAILED" >&2
  exit 1
fi
echo "perf_smoke: OK"
