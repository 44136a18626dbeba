#!/usr/bin/env python3
"""Compare two result sets of the benchmark: a parent and a change.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the lines run.py --out appended, any number of runs per
workload. For every (workload, end-to-end metric) pair it prints the
median and quartiles of each side, the metric's bound from
BENCHMARK.json and a verdict: improved, no worse, regressed, or
unresolved when the run-to-run spread exceeds the bound. Traced runs'
per-layer metrics are printed side by side without a verdict (they have
no bound). Runs of different program shapes (run.py --shape) are
compared shape by shape. Last comes a fingerprint diff per workload,
shape and seed: a speed-only change must leave every fingerprint
unchanged.

Exits 1 when any pair regressed or a fingerprint changed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def shape(r):
    return r.get("shape", 1)


def values(rows, workload, trace, shp):
    out = {}
    for r in rows:
        if r["workload"] == workload and r["trace"] == trace and shape(r) == shp:
            for k, v in r["metrics"].items():
                out.setdefault(k, []).append(v["value"])
    return out


def fmt(xs):
    if not xs:
        return "-"
    lo, hi = ledger.quartiles(xs)
    return f"{ledger.median(xs):.6g} [{lo:.6g}, {hi:.6g}] n={len(xs)}"


def fingerprint_diff(old, new):
    """Fingerprints of (workload, shape, seed) runs both sides made: the
    number compared and [(workload, shape, seed, key, old, new)]
    differences."""
    fo = {(r["workload"], shape(r), r["seed"]): r["fingerprint"] for r in old}
    fn = {(r["workload"], shape(r), r["seed"]): r["fingerprint"] for r in new}
    common = sorted(set(fo) & set(fn))
    diffs = []
    for key in common:
        a, b = fo[key], fn[key]
        for k in sorted(set(a) | set(b)):
            if a.get(k) != b.get(k):
                diffs.append((*key, k, a.get(k), b.get(k)))
    return len(common), diffs


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCH) as f:
        bench = json.load(f)
    old, new = load(argv[1]), load(argv[2])
    bad = False
    shapes = sorted({shape(r) for r in old} | {shape(r) for r in new})
    for w in [x["name"] for x in bench["workloads"]]:
        for sh in shapes:
            tag = w if sh == 1 else f"{w}@{sh}"
            vo, vn = values(old, w, 0, sh), values(new, w, 0, sh)
            for m in bench["end_to_end"]:
                a, b = vo.get(m["name"], []), vn.get(m["name"], [])
                if not a or not b:
                    continue
                v = ledger.verdict(a, b, m["bound"], m["better"])
                bad |= v == "regressed"
                print(f"{tag:14s} {m['name']:22s} {m['unit']:9s} old {fmt(a):44s} "
                      f"new {fmt(b):44s} bound {m['bound']:<5} {v}")
            to, tn = values(old, w, 1, sh), values(new, w, 1, sh)
            for m in bench["per_layer"]:
                a, b = to.get(m["name"], []), tn.get(m["name"], [])
                if a or b:
                    print(f"{tag:14s} {m['name']:38s} {m['unit']:14s} old {fmt(a):44s} "
                          f"new {fmt(b)}")
    compared, diffs = fingerprint_diff(old, new)
    if diffs:
        bad = True
        print("fingerprint changed:")
        for w, sh, seed, k, a, b in diffs:
            print(f"  {w} shape {sh} seed {seed}: {k}: {a} -> {b}")
    elif compared:
        print(f"fingerprints: unchanged ({compared} workload/shape/seed runs)")
    else:
        print("fingerprints: no workload/shape/seed run in both sets; run the same seeds")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
