"""Unit tests for the benchmark's arithmetic (ledger.py) and for the
agreement between BENCHMARK.json and the metrics the ledger computes.

    python3 -m unittest perfbench/test_ledger.py
"""

import json
import os
import unittest

import compare
import ledger

HERE = os.path.dirname(os.path.abspath(__file__))


def span(id_, parent, name, dur, calls=1):
    return [id_, parent, name, dur, 0.0, calls]


class SelfTime(unittest.TestCase):
    def test_span_minus_children(self):
        spans = [span(0, -1, "run", 100), span(1, 0, "ooo.step", 60, calls=500),
                 span(2, 0, "native.ff", 25), span(3, 1, "inner", 10)]
        own = ledger.self_times(spans)
        self.assertEqual(own[0], 15)
        self.assertEqual(own[1], 50)
        self.assertEqual(own[2], 25)
        self.assertEqual(own[3], 10)

    def test_leaf_keeps_its_duration(self):
        self.assertEqual(ledger.self_times([span(7, -1, "setup", 42)]), {7: 42})


class Percentile(unittest.TestCase):
    def test_ten_beyond_rule(self):
        self.assertEqual(ledger.min_samples(95), 200)
        self.assertEqual(ledger.min_samples(50), 20)
        self.assertEqual(ledger.min_samples(99), 1000)

    def test_refuses_too_few_samples(self):
        self.assertIsNone(ledger.percentile(list(range(199)), 95))
        self.assertIsNone(ledger.percentile(list(range(19)), 50))

    def test_nearest_rank(self):
        xs = list(range(1, 201))  # 1..200
        self.assertEqual(ledger.percentile(xs, 95), 190)
        self.assertEqual(sum(1 for x in xs if x > 190), 10)
        self.assertEqual(ledger.percentile(list(reversed(xs)), 50), 100)


class Verdict(unittest.TestCase):
    OLD = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def test_no_worse(self):
        new = [x * 1.03 for x in self.OLD]
        self.assertEqual(ledger.verdict(self.OLD, new, 0.1, "lower"), "no worse")

    def test_regressed(self):
        new = [x * 1.2 for x in self.OLD]
        self.assertEqual(ledger.verdict(self.OLD, new, 0.1, "lower"), "regressed")

    def test_improved(self):
        new = [x * 0.8 for x in self.OLD]
        self.assertEqual(ledger.verdict(self.OLD, new, 0.1, "lower"), "improved")

    def test_direction_follows_better(self):
        new = [x * 1.2 for x in self.OLD]
        self.assertEqual(ledger.verdict(self.OLD, new, 0.1, "higher"), "improved")
        new = [x * 0.8 for x in self.OLD]
        self.assertEqual(ledger.verdict(self.OLD, new, 0.1, "higher"), "regressed")

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        self.assertEqual(ledger.verdict(self.OLD, noisy, 0.1, "lower"), "unresolved")

    def test_disjoint_runs_resolve_despite_spread(self):
        old = [20.0, 30.0, 25.0, 21.0, 29.0]
        new = [5.0, 9.0, 7.0, 6.0, 8.0]
        self.assertEqual(ledger.verdict(old, new, 0.05, "lower"), "improved")

    def test_small_win_inside_parent_spread_is_not_a_gain(self):
        new = [x - 0.05 for x in self.OLD]
        self.assertEqual(ledger.verdict(self.OLD, new, 0.1, "lower"), "no worse")


class FingerprintDiff(unittest.TestCase):
    def row(self, seed, **fp):
        return {"workload": "gups-sweep", "seed": seed, "fingerprint": fp}

    def test_reports_changed_keys_of_common_seeds(self):
        old = [self.row(1, insns=10, cycles=20), self.row(2, insns=5)]
        new = [self.row(1, insns=10, cycles=21), self.row(3, insns=7)]
        n, diffs = compare.fingerprint_diff(old, new)
        self.assertEqual(n, 1)
        self.assertEqual(diffs, [("gups-sweep", 1, 1, "cycles", 20, 21)])

    def test_shapes_are_not_mixed(self):
        old = [self.row(1, insns=10)]
        new = [dict(self.row(1, insns=12), shape=2007)]
        self.assertEqual(compare.fingerprint_diff(old, new), (0, []))

    def test_no_common_seed_compares_nothing(self):
        n, diffs = compare.fingerprint_diff([self.row(1, a=1)], [self.row(2, a=2)])
        self.assertEqual((n, diffs), (0, []))


def fixture():
    z = {"ns": 2, "words": 3}
    fields = {
        "steps": 1, "issued": 3, "committed": 2, "ff_ns": 1, "ff_insns": 1, "ff_words": 1,
        "stages": {k: z for k in ["step"] + ledger.STAGES},
        "ooo_commit_uops": 1, "ooo_replays": 1, "ooo_commit_insns": 1000,
        "l1d_misses": 1, "l2_misses": 1, "dtlb_misses": 1, "pwc_hits": 3,
        "pwc_misses": 1, "bbcache_hits": 1, "bbcache_misses": 1,
        "replay_ns": [1] * 200, "est_cycles": 110.0, "full_cycles": 100,
        "cpi": 2.0, "ci95": 0.5,
        "legs": [{"name": "a", "ns": 2e9, "cold": True},
                 {"name": "b", "ns": 1e9, "cold": False}],
    }
    child = {"fields": fields, "spans": [span(0, -1, "run", 10)],
             "wall_ns": 10**9, "setup_ns": 1, "insns": 100, "core_cycles": 300,
             "words": 50.0, "gc": {"run_minor_collections": 1,
                                   "major_collections": 1, "top_heap_words": 1}}
    layers = {"bbcache": {"build_ns": 1, "blocks_built": 1, "lookup_ns": 1, "lookups": 1},
              "exec": {"ns": 1, "uops": 1, "words": 1},
              "vmem": {"ns": 1, "calls": 1},
              "hierarchy": {"warm_ns": 1, "access_ns": 1, "accesses": 1},
              "tlb": {"ns": 1, "calls": 1}}
    return child, layers


class Metrics(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_end_to_end_names_and_units_match(self):
        child, _ = fixture()
        m, n = ledger.end_to_end("rsync-sampled", [child], [0.5], {"full_cycles": 100})
        self.assertEqual(n, 200)
        self.assertEqual({k: u for k, (_, u) in m.items()},
                         {e["name"]: e["unit"] for e in self.bench["end_to_end"]})
        self.assertAlmostEqual(m["cpi_error_pct"][0], 10.0)
        self.assertAlmostEqual(m["cpi_ci95_pct"][0], 25.0)
        self.assertAlmostEqual(m["insns_per_s"][0], 100.0)

    def test_per_layer_names_and_units_match(self):
        child, layers = fixture()
        m = ledger.per_layer(child, child, layers, True)
        self.assertEqual({k: u for k, (_, u) in m.items()},
                         {e["name"]: e["unit"] for e in self.bench["per_layer"]})
        self.assertAlmostEqual(m["mem.pwc.hit_ratio"][0], 0.75)
        self.assertAlmostEqual(m["sweep.leg_s.cold"][0], 2.0)
        self.assertAlmostEqual(m["mem.l1d.mpki"][0], 1.0)
        self.assertAlmostEqual(m["ooo.issued_per_committed_uop"][0], 1.5)

    def test_stage_split_withheld_when_fingerprints_differ(self):
        child, layers = fixture()
        m = ledger.per_layer(child, child, layers, False)
        self.assertEqual(m["ooo.issue.ns_per_cycle"][0], 0.0)
        self.assertEqual(m["ooo.issued_per_committed_uop"][0], 0.0)
        self.assertEqual(m["ooo.step.ns_per_cycle"][0], 2.0)

    def test_gups_error_is_mean_interval_error(self):
        child, _ = fixture()
        child["fields"]["interval_cpi"] = [[0, 11.0], [1, 9.0], [5, 1.0]]
        ref = {"interval_cpi": [10.0, 10.0]}
        self.assertAlmostEqual(ledger.cpi_error_pct("gups-sweep", child, ref), 10.0)


if __name__ == "__main__":
    unittest.main()
