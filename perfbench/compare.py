#!/usr/bin/env python3
"""Compare two sets of benchmark results and name the layers that moved.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON results that `run.py --save DIR` writes:
untraced runs (end-to-end metrics) and traced runs (per-layer metrics) of
one commit, several seeds each.  For every workload and end-to-end metric
it prints both medians and quartile spreads.  When a metric is worse than
the base by more than its bound in BENCHMARK.json, it lists the per-layer
metrics of that workload whose medians moved by more than their own
spread (the larger of the two sides' quartile distances), largest relative
move first.  Exits 1 when any end-to-end metric passed its bound.
"""

import glob
import json
import os
import statistics
import sys


def load(d):
    runs = {}
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        name = os.path.basename(path)
        workload, trace = name.split("-trace")[0], name.split("-trace")[1][0]
        with open(path) as f:
            r = json.loads(f.read())
        for k, v in r["metrics"].items():
            runs.setdefault((workload, trace), {}).setdefault(k, []).append(v["value"])
    return runs


def summary(vals):
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, 0.0
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return med, q[2] - q[0]


def worse(better, base, new):
    return new - base if better == "lower" else base - new


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    layer_dir = {m["name"]: m["better"] for m in spec["per_layer"]}
    regressed = False
    for w in [w["name"] for w in spec["workloads"]]:
        b, n = base.get((w, "0"), {}), new.get((w, "0"), {})
        if not b or not n:
            print("%s: no untraced results on one side" % w)
            continue
        print("== %s ==" % w)
        for m in spec["end_to_end"]:
            k = m["name"]
            if k not in b or k not in n:
                continue
            (bm, bs), (nm, ns) = summary(b[k]), summary(n[k])
            share = worse(m["better"], bm, nm) / bm
            flag = share > m["bound"]
            regressed |= flag
            print("%-14s base %12.4f (iqr %.4f)  new %12.4f (iqr %.4f)  %+6.1f%%%s"
                  % (k, bm, bs, nm, ns, 100 * (nm - bm) / bm,
                     "  REGRESSED (bound %.0f%%)" % (100 * m["bound"]) if flag else ""))
            if not flag:
                continue
            lb, ln = base.get((w, "1"), {}), new.get((w, "1"), {})
            moved = []
            for lk in sorted(set(lb) & set(ln)):
                (lbm, lbs), (lnm, lns) = summary(lb[lk]), summary(ln[lk])
                if abs(lnm - lbm) > max(lbs, lns) and lbm != 0:
                    d = layer_dir.get(lk, "lower")
                    moved.append((abs(lnm - lbm) / abs(lbm), lk, lbm, lnm,
                                  "worse" if worse(d, lbm, lnm) > 0 else "better"))
            if not moved:
                print("    no per-layer metric moved beyond its spread (traced runs: %d base, %d new)"
                      % (len(next(iter(lb.values()), [])), len(next(iter(ln.values()), []))))
            for rel, lk, lbm, lnm, how in sorted(moved, reverse=True):
                print("    %-32s %12.4f -> %12.4f  %+6.1f%% %s" % (lk, lbm, lnm, 100 * (lnm - lbm) / abs(lbm), how))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
