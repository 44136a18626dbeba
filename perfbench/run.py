#!/usr/bin/env python3
"""Run one benchmark measurement and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--shape K] [--out FILE]

Run from the root of a source checkout. Builds perfbench/perf.exe with
dune, then starts it as a child process once per measured run, one at a
time. With --trace 0 it measures the end-to-end metrics: a fixed number
of measured runs that fill about --seconds (at least two; more if fewer
than 200 per-operation samples exist) and each metric is the median over
them; set-up is then timed repeatedly in one set-up-only child. With
--trace 1 it makes one untraced and one traced run of the same seed plus
the per-layer replays, and prints the per-layer metrics.

The seed picks the inputs' content; --shape picks the program (the
rsync text and stale positions, the GUPS address stream). The ledger
uses the default shape, 1; a claim is confirmed on the held-out shape
2007 as well, for parent and change alike.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the simulated
statistics fingerprint. --out appends both, with the workload and seed,
to FILE as one JSON line, for compare.py.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ledger  # noqa: E402

WORKLOADS = ("rsync-detail", "rsync-sampled", "gups-sweep")
EXE = os.path.join("_build", "default", "perfbench", "perf.exe")
CACHE = ".perfbench"
CHILD_TIMEOUT = 170
# Every run must end well inside 180 s: stop starting children after this.
RUN_BUDGET = 150
# Nominal seconds of one child's measured run on a 2-core Xeon host;
# --seconds divided by this gives the run's number of children.
CHILD_SECONDS = {"rsync-detail": 8, "rsync-sampled": 5, "gups-sweep": 7}
# Host seconds the set-up-only child spends repeating set-up.
SETUP_SECONDS = 1.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perf.exe"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0 or not os.path.exists(EXE):
        raise SystemExit("perfbench: build failed (run from a source checkout)")


def exe_digest():
    with open(EXE, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def child(*args):
    """Run perf.exe with args; return its JSON output."""
    r = subprocess.run([EXE, *map(str, args)], capture_output=True, text=True,
                       timeout=CHILD_TIMEOUT)
    if r.returncode != 0:
        raise RuntimeError(f"perf.exe {' '.join(map(str, args))} exited "
                           f"{r.returncode}: {r.stderr.strip()[-2000:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def reference(workload, seed, shape, fingerprint):
    """The untimed accuracy reference. It depends only on the simulated
    program, so it is kept per binary, workload, shape and fingerprint:
    a seed whose first child printed the fingerprint of one already
    referenced ran the same instruction stream and reuses its reference."""
    fp = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()[:16]
    path = os.path.join(CACHE, f"ref-{workload}-{shape}-{fp}-{exe_digest()}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    ref = child("reference", workload, seed, shape)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ref, f)
    os.replace(tmp, path)
    return ref


def store_dir():
    return os.path.join(CACHE, f"store-{os.getpid()}")


def planned_children(workload, seconds):
    """How many measured children fill --seconds: a fixed count, not one
    decided by the clock, so every run of a workload pools the same
    number of children and replay samples whatever the host's speed.
    Two at least, so check() compares fingerprints."""
    return max(2, math.ceil(seconds / CHILD_SECONDS[workload]))


def measure(workload, seed, shape, seconds, started):
    """The planned measured children (more if the pooled per-operation
    samples fall short of what p95 needs), then one set-up-only child.
    The reference is computed after the first child, so a run's children
    are spread over a longer stretch of host time."""
    children = []
    plan = planned_children(workload, seconds)
    need = ledger.min_samples(95)
    ref = None
    while True:
        t0 = time.monotonic()
        c = child("run", workload, seed, shape, store_dir())
        children.append(c)
        samples = sum(len(x["fields"]["replay_ns"]) for x in children)
        last = time.monotonic() - t0
        if ref is None:
            ref = reference(workload, seed, shape, c["fingerprint"])
        # the budget only cuts a run short on a host far slower than usual
        room = time.monotonic() - started + last < RUN_BUDGET
        if not room or (len(children) >= plan and samples >= need):
            break
    # set-up is repeated in one process from a compacted heap: a fresh
    # process's first set-up carries page-fault and heap-growth noise
    # larger than a fast set-up itself. It repeats for about
    # SETUP_SECONDS, as a few repeats of rsync's 12 ms set-up would rest
    # on the host's speed over a moment
    once = children[0]["setup_ns"] / 1e9
    reps = max(3, min(100, round(SETUP_SECONDS / once)))
    setups = [x / 1e9 for x in
              child("setup", workload, seed, shape, store_dir(), reps)["setup_ns"]]
    return children, setups, ref


def check(children):
    """Correctness across a run's children: each child's own output
    checks, and identical fingerprints (same code and seed)."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = [p for c in children for p in c["problems"]]
    fp = children[0]["fingerprint"]
    for c in children[1:]:
        if c["fingerprint"] != fp:
            problems.append("fingerprints differ between runs of one seed")
            failed += c["attempted"]
    return attempted, failed, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", type=int, default=1,
                    help="program shape (default 1, the ledger's; 2007 is held out)")
    ap.add_argument("--out", help="append the result as one JSON line")
    a = ap.parse_args()
    started = time.monotonic()

    build()
    os.makedirs(CACHE, exist_ok=True)
    problems = []
    try:
        if a.trace == 0:
            children, setups, ref = measure(a.workload, a.seed, a.shape, a.seconds,
                                           started)
            attempted, failed, problems = check(children)
            metrics, nsamples = ledger.end_to_end(a.workload, children, setups, ref)
            if metrics["replay_ms.p95"][0] is None:
                problems.append(f"only {nsamples} replay samples; p95 needs "
                                f"{ledger.min_samples(95)}")
                failed += 1
            fingerprint = children[0]["fingerprint"]
            info = {"children": len(children), "setups": len(setups),
                    "replay_samples": nsamples,
                    "child_wall_s": [c["wall_ns"] / 1e9 for c in children]}
        else:
            untraced = child("run", a.workload, a.seed, a.shape, store_dir())
            traced = child("run", a.workload, a.seed, a.shape, store_dir(), "traced")
            layers = child("layers", a.workload, a.seed, a.shape)
            attempted, failed, problems = check([untraced, traced])
            # spans must not change the simulation; if they did, the
            # replica's stage split is not the real step's
            split_ok = untraced["fingerprint"] == traced["fingerprint"]
            metrics = ledger.per_layer(untraced, traced, layers, split_ok)
            fingerprint = untraced["fingerprint"]
            info = {"untraced_wall_s": untraced["wall_ns"] / 1e9,
                    "traced_wall_s": traced["wall_ns"] / 1e9}
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(store_dir(), ignore_errors=True)

    for p in problems:
        log(f"perfbench: check failed: {p}")
    for name, (value, unit) in metrics.items():
        log(f"{a.workload:14s} {name:40s} {value!s:>24s} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v if v is not None else 0.0, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    fp_line = {"fingerprint": fingerprint, "workload": a.workload,
               "seed": a.seed, "shape": a.shape, "trace": a.trace, **info}
    if a.out:
        with open(a.out, "a") as f:
            f.write(json.dumps({**fp_line, **result}) + "\n")
    print(json.dumps(fp_line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
