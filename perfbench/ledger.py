"""The benchmark's arithmetic: medians and quartiles, the percentile
rule, span self time, the metric definitions, and compare verdicts.

Pure functions over the JSON the child processes print, so the unit
tests in test_ledger.py can check them on hand-made fixtures.
"""

import math
import statistics

# ---------------------------------------------------------------------------
# Order statistics
# ---------------------------------------------------------------------------


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First and third quartile as the driver takes them:
    statistics.quantiles(n=4), which needs two or more values."""
    if len(xs) < 2:
        return (xs[0], xs[0])
    q = statistics.quantiles(xs, n=4)
    return (q[0], q[2])


def spread(xs):
    """Interquartile distance as a share of the median."""
    lo, hi = quartiles(xs)
    m = median(xs)
    return (hi - lo) / abs(m) if m else math.inf


def min_samples(p):
    """Fewest samples for which percentile p has at least ten beyond it."""
    return math.ceil(10 / (1 - p / 100) - 1e-9)


def percentile(xs, p):
    """Nearest-rank percentile p of xs, or None when fewer than ten
    samples lie beyond it (the value would rest on a handful of runs)."""
    n = len(xs)
    if n < min_samples(p):
        return None
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * n) - 1)]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    spans: [id, parent, name, dur_ns, words, calls] lists, as printed by
    the child. Returns {id: self_ns}."""
    own = {s[0]: s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[3]
    return own


def span_by_name(spans, name):
    for s in spans:
        if s[2] == name:
            return s
    return None


def span_ns(spans, name):
    s = span_by_name(spans, name)
    return s[3] if s else 0


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------


def ratio(a, b):
    return a / b if b else 0.0


def cpi_error_pct(workload, child, ref):
    """|estimated - full-detail| / full-detail cycles, in percent.

    rsync-sampled: the sampled run's estimate against the reference
    full-detail run. rsync-detail: this full-detail run against the
    reference sampled estimate of the same program. gups-sweep: the mean
    per-interval CPI error of the base leg's checkpoint replays against
    the same windows of the reference full-detail run."""
    f = child["fields"]
    if workload == "rsync-sampled":
        return 100 * abs(f["est_cycles"] - ref["full_cycles"]) / ref["full_cycles"]
    if workload == "rsync-detail":
        return 100 * abs(ref["est_cycles"] - f["full_cycles"]) / f["full_cycles"]
    full = ref["interval_cpi"]
    errs = [abs(cpi - full[i]) / full[i]
            for i, cpi in f["interval_cpi"] if i < len(full)]
    return 100 * sum(errs) / len(errs)


def cpi_ci95_pct(workload, child, ref):
    src = ref if workload == "rsync-detail" else child["fields"]
    return 100 * ratio(src["ci95"], src["cpi"])


def end_to_end(workload, children, setups, ref):
    """Every end-to-end metric of one run from its measured children
    (medians across children; replay latencies pooled)."""
    med = lambda f: median([f(c) for c in children])
    wall = lambda c: c["wall_ns"] / 1e9
    replays = [x / 1e6 for c in children for x in c["fields"]["replay_ns"]]
    return {
        "wall_s": (med(wall), "s"),
        "setup_s": (median(setups), "s"),
        "insns_per_s": (med(lambda c: c["insns"] / wall(c)), "insns/s"),
        "cycles_per_s": (med(lambda c: c["core_cycles"] / wall(c)), "cycles/s"),
        "alloc_words_per_insn": (med(lambda c: c["words"] / c["insns"]), "words"),
        "peak_heap_mb": (med(lambda c: c["gc"]["top_heap_words"] * 8 / 1e6), "MB"),
        "cpi_error_pct": (med(lambda c: cpi_error_pct(workload, c, ref)), "%"),
        "cpi_ci95_pct": (med(lambda c: cpi_ci95_pct(workload, c, ref)), "%"),
        "replay_ms.p50": (percentile(replays, 50), "ms"),
        "replay_ms.p95": (percentile(replays, 95), "ms"),
    }, len(replays)


# ---------------------------------------------------------------------------
# Per-layer metrics (the traced run)
# ---------------------------------------------------------------------------

STAGES = ["commit", "writeback", "issue", "rename", "fetch"]


def per_layer(untraced, traced, layers, split_ok):
    """Per-layer metrics from one untraced child, one traced child of the
    same seed, and the layer replays. split_ok is False when the traced
    run's fingerprint differs from the untraced one: the stage split is
    then unavailable and reads 0."""
    f = traced["fields"]
    spans = traced["spans"]
    m = {}
    steps = f.get("steps", 0)
    for st in ["step"] + STAGES:
        stage = f.get("stages", {}).get(st, {"ns": 0, "words": 0})
        ok = split_ok or st == "step"
        m[f"ooo.{st}.ns_per_cycle"] = (ratio(stage["ns"], steps) if ok else 0.0, "ns/cycle")
        m[f"ooo.{st}.words_per_cycle"] = (ratio(stage["words"], steps) if ok else 0.0,
                                          "words/cycle")
    # both counted by the replica over the cycles it stepped; the stats
    # below cover a sampled run's measure windows only
    m["ooo.issued_per_committed_uop"] = (
        ratio(f.get("issued", 0), f.get("committed", 0)) if split_ok else 0.0, "uops/uop")
    uops = f["ooo_commit_uops"]
    m["ooo.replays_per_kuop"] = (1000 * ratio(f["ooo_replays"], uops), "replays/kuop")

    run = span_by_name(spans, "run")
    run_ns = run[3] if run else 0
    m["native.ff.ns_per_insn"] = (ratio(f.get("ff_ns", 0), f.get("ff_insns", 0)), "ns/insn")
    m["native.ff.words_per_insn"] = (ratio(f.get("ff_words", 0), f.get("ff_insns", 0)),
                                     "words/insn")
    m["sample.ff.share"] = (ratio(span_ns(spans, "native.ff"), run_ns), "share")

    bb, ex, vm = layers["bbcache"], layers["exec"], layers["vmem"]
    hi, tlb = layers["hierarchy"], layers["tlb"]
    m["uop.bbcache.build.us_per_block"] = (ratio(bb["build_ns"], bb["blocks_built"]) / 1000,
                                           "us/block")
    m["uop.bbcache.lookup.ns_per_hit"] = (ratio(bb["lookup_ns"], bb["lookups"]), "ns/hit")
    m["uop.bbcache.hit_ratio"] = (ratio(f["bbcache_hits"],
                                        f["bbcache_hits"] + f["bbcache_misses"]), "share")
    m["uop.exec.ns_per_uop"] = (ratio(ex["ns"], ex["uops"]), "ns/uop")
    m["uop.exec.words_per_uop"] = (ratio(ex["words"], ex["uops"]), "words/uop")
    m["arch.vmem.translate.ns_per_call"] = (ratio(vm["ns"], vm["calls"]), "ns/call")
    m["mem.hierarchy.warm.ns_per_access"] = (ratio(hi["warm_ns"], hi["accesses"]), "ns/access")
    m["mem.hierarchy.access.ns_per_access"] = (ratio(hi["access_ns"], hi["accesses"]),
                                               "ns/access")
    kinsns = f["ooo_commit_insns"] / 1000
    m["mem.l1d.mpki"] = (ratio(f["l1d_misses"], kinsns), "misses/kinsn")
    m["mem.l2.mpki"] = (ratio(f["l2_misses"], kinsns), "misses/kinsn")
    m["mem.dtlb.mpki"] = (ratio(f["dtlb_misses"], kinsns), "misses/kinsn")
    m["mem.tlb.lookup.ns_per_call"] = (ratio(tlb["ns"], tlb["calls"]), "ns/call")
    m["mem.pwc.hit_ratio"] = (ratio(f["pwc_hits"], f["pwc_hits"] + f["pwc_misses"]), "share")

    m["sample.capture.ns_per_insn"] = (ratio(span_ns(spans, "sample.capture"),
                                             f.get("capture_insns", 0)), "ns/insn")
    restore = span_by_name(spans, "checkpoint.restore")
    m["checkpoint.restore.ms_per_interval"] = (
        ratio(restore[3], restore[5]) / 1e6 if restore else 0.0, "ms/interval")
    m["checkpoint.delta_bytes_per_interval"] = (
        ratio(f.get("delta_bytes", 0), f.get("intervals", 0)), "bytes/interval")
    m["store.write.mb_per_s"] = (
        ratio(f.get("store_bytes", 0) / 1e6, span_ns(spans, "store.write") / 1e9), "MB/s")
    m["store.read.ms_per_interval"] = (
        ratio(f.get("store_read_ns", 0), f.get("intervals", 0)) / 1e6, "ms/interval")
    legs = f.get("legs", [])
    for kind, cold in (("cold", True), ("exact", False)):
        ns = [leg["ns"] for leg in legs if leg["cold"] == cold]
        m[f"sweep.leg_s.{kind}"] = (ratio(sum(ns), len(ns)) / 1e9, "s")

    own = self_times(spans)
    m["domain.self.share"] = (ratio(own.get(run[0], 0), run_ns) if run else 0.0, "share")

    g = untraced["gc"]
    m["gc.minor_collections_per_minsn"] = (ratio(g["run_minor_collections"],
                                                 untraced["insns"] / 1e6), "1/Minsn")
    m["gc.major_collections"] = (g["major_collections"], "count")
    m["trace.overhead_pct"] = (
        100 * ratio(traced["wall_ns"] - untraced["wall_ns"], untraced["wall_ns"]), "%")
    return m


# ---------------------------------------------------------------------------
# Compare verdicts
# ---------------------------------------------------------------------------


def verdict(old, new, bound, better):
    """Verdict on one (workload, metric) pair from the parent's values
    (old) and the change's (new), one value per run.

    - unresolved: either side's spread exceeds the bound, unless every
      new run reads better than every old run;
    - improved: new wins at least nine tenths of the pairs and the
      medians differ by more than the parent's own spread;
    - regressed: the new median is worse than the old by more than the
      bound;
    - no worse: otherwise."""
    sign = 1 if better == "lower" else -1
    worse = lambda a, b: sign * (a - b) > 0  # a worse than b
    m_old, m_new = median(old), median(new)
    all_better = all(worse(o, n) for o in old for n in new)
    if (spread(old) > bound or spread(new) > bound) and not all_better:
        return "unresolved"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if worse(o, n))
    lo, hi = quartiles(old)
    if wins >= 0.9 * len(pairs) and abs(m_new - m_old) > hi - lo and worse(m_old, m_new):
        return "improved"
    if worse(m_new, m_old) and abs(m_new - m_old) > bound * abs(m_old):
        return "regressed"
    return "no worse"
