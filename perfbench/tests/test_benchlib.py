"""Tests of the perfbench benchmark's own code.

  python3 -m unittest discover -s perfbench/tests

The smoke test builds the driver (about a minute from clean) and runs
every workload at toy size, untraced and traced.
"""

import copy
import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import benchlib  # noqa: E402
import run  # noqa: E402


def case(subseed=1, placed=10, tx=100, events=1000, covered=True, **kw):
    c = {
        "subseed": subseed, "cut": False, "setup_s": 0.001, "wall_s": 0.5,
        "events": events, "sim_s": 10.0, "tx": tx, "rx": 400,
        "dropped": 0, "collisions": 0, "placed": placed, "seeded": 0,
        "originated": 0, "delivered": 0, "bytes": 0, "end_time_s": 10.0,
        "arq_sent": 5, "arq_retx": 0, "arq_acks": 9, "arq_gave_up": 0,
        "arq_dup_drops": 0, "arq_queued": 0, "dp_forwarded": 0,
        "dp_no_route_drops": 0, "dp_ttl_drops": 0, "dp_duplicates": 0,
        "discs": 20, "polls": 20, "choices": 10,
        "phases": [{"kind": "deploy", "covered": covered,
                    "duration_s": 10.0, "proof_ok": True,
                    "proof_detail": ""}],
    }
    c.update(kw)
    return c


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        q1, med, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_value(self):
        self.assertEqual(benchlib.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.quartiles([])


class NameTest(unittest.TestCase):
    def test_valid_names(self):
        for n in ("wall_s", "sim.dispatch_ns", "telemetry.publish_ns.otlp",
                  "a-b", "9lives"):
            self.assertTrue(benchlib.valid_name(n), n)

    def test_invalid_names(self):
        for n in ("", "has space", "slash/name", "_lead", ".lead",
                  "x" * 65, "é", None):
            self.assertFalse(benchlib.valid_name(n), n)

    def test_every_metric_name_and_unit_is_valid(self):
        for table in (benchlib.END_TO_END, benchlib.PER_LAYER):
            for name, unit in table.items():
                self.assertTrue(benchlib.valid_name(name), name)
                self.assertTrue(benchlib.valid_unit(unit), unit)

    def test_benchmark_json_matches_the_tables(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(benchlib.validate_benchmark(spec), [])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         benchlib.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         benchlib.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_validator_rejects_bad_specs(self):
        spec = {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "bad name", "unit": "s",
                                "better": "lower", "bound": 0.5}],
                "per_layer": [{"name": "w", "unit": "??", "better": "up"}]}
        problems = benchlib.validate_benchmark(spec)
        self.assertTrue(any("bad name" in p for p in problems))
        self.assertTrue(any("bound" in p for p in problems))
        self.assertTrue(any("unit" in p for p in problems))
        self.assertTrue(any("twice" in p for p in problems))


class CheckerTest(unittest.TestCase):
    def test_accepts_consistent_cases(self):
        cases = [case(1), case(2, placed=12), case(1)]
        self.assertEqual(benchlib.check_cases(cases), (0, []))

    def test_rejects_a_contradicted_coverage_verdict(self):
        bad = case(1)
        bad["phases"][0]["proof_ok"] = False
        bad["phases"][0]["proof_detail"] = "deploy: 1999 of 2000"
        failed, problems = benchlib.check_cases([case(2), bad])
        self.assertEqual(failed, 1)
        self.assertIn("1999 of 2000", problems[0])

    def test_rejects_a_broken_determinism_witness(self):
        for key in benchlib.WITNESSES:
            corrupted = case(1)
            corrupted[key] += 1
            failed, problems = benchlib.check_cases([case(1), corrupted])
            self.assertEqual(failed, 1, key)
            self.assertIn(key, problems[0])

    def test_rejects_more_deliveries_than_readings(self):
        failed, _ = benchlib.check_cases([case(1, originated=5, delivered=6)])
        self.assertEqual(failed, 1)

    def test_trace_must_not_perturb_the_run(self):
        doc = trace_doc()
        cases = doc["untraced"] + [doc["traced"]]
        self.assertEqual(benchlib.check_cases(cases), (0, []))
        doc["traced"]["events"] += 1
        self.assertEqual(benchlib.check_cases(cases)[0], 1)


def trace_doc():
    traced = case(1, wall_s=0.8, bytes=500, originated=10, delivered=5)
    untraced = copy.deepcopy(traced)
    untraced["wall_s"] = 0.5
    return {
        "untraced": [untraced, copy.deepcopy(untraced)],
        "traced": traced,
        "liveness_observes": 300,
        "telemetry": {"events": 0, "bytes": 0, "jsonl_events": 0,
                      "dtlm_events": 0, "otlp_events": 0,
                      "record_events": 0, "jsonl_ns": 0, "dtlm_ns": 0,
                      "otlp_ns": 0, "record_ns": 0},
        "probes": {"dispatch_ns": 100.0, "deliver_ns": 150.0,
                   "observe_ns": 400.0, "arq_ns": 300.0, "disc_ns": 200.0,
                   "poll_ns": 50.0, "choose_ns": 1000.0,
                   "points_s": 1e-4, "index_s": 5e-5},
    }


class MetricTest(unittest.TestCase):
    def test_end_to_end(self):
        doc = {"distinct_cases": 2, "peak_rss_mb": 20.0,
               "setups": [{"s": 0.001}, {"s": 0.003}, {"s": 0.002}],
               "cases": [case(1, wall_s=1.0, placed=10, tx=100),
                         case(2, wall_s=3.0, placed=30, tx=100,
                              covered=False),
                         case(1, wall_s=2.0, placed=10, tx=100)]}
        m = benchlib.end_to_end(doc)
        self.assertEqual(set(m), set(benchlib.END_TO_END))
        self.assertEqual(m["wall_s"], 2.25)  # mean of seed medians 1.5, 3
        self.assertEqual(m["setup_s"], 0.002)
        self.assertEqual(m["events_per_s"], 2000 / 4.5)
        self.assertEqual(m["converged_frac"], 0.5)
        self.assertEqual(m["converge_s"], 10.0)
        self.assertEqual(m["placed_nodes"], 20.0)
        self.assertEqual(m["msgs_per_placement"], 200 / 40)

    def test_calibration_divides_by_the_probed_slowdown(self):
        nominal = benchlib.PROBE_NOMINAL_S
        slow = case(1, wall_s=2.1, probe_s=0.1, probes=[2 * nominal] * 3)
        self.assertAlmostEqual(benchlib.calibrated_wall(slow, 5.0), 1.0)
        # Too few probes of its own: the run's slowdown applies.
        few = case(1, wall_s=2.1, probe_s=0.1, probes=[nominal])
        self.assertAlmostEqual(benchlib.calibrated_wall(few, 4.0), 0.5)
        doc = {"distinct_cases": 1, "peak_rss_mb": 20.0,
               "setups": [{"s": 0.004}], "cases": [slow]}
        m = benchlib.end_to_end(doc)
        self.assertAlmostEqual(m["wall_s"], 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.002)
        self.assertAlmostEqual(benchlib.end_to_end(doc, calibrate=False)
                               ["wall_s"], 2.0)

    def test_peak_rss_leaves_cut_cases_out(self):
        doc = {"distinct_cases": 3, "peak_rss_mb": 99.0,
               "setups": [{"s": 0.001}],
               "cases": [case(1, peak_rss_mb=20.0),
                         case(2, peak_rss_mb=80.0, cut=True),
                         case(3, peak_rss_mb=25.0),
                         case(1, peak_rss_mb=30.0)]}
        self.assertEqual(benchlib.end_to_end(doc)["peak_rss_mb"], 22.5)
        for c in doc["cases"]:
            del c["peak_rss_mb"]
        self.assertEqual(benchlib.end_to_end(doc)["peak_rss_mb"], 99.0)

    def test_a_cut_case_counts_as_not_converged(self):
        doc = {"distinct_cases": 2, "peak_rss_mb": 20.0,
               "setups": [{"s": 0.001}],
               "cases": [case(1), case(2, cut=True)]}
        self.assertEqual(benchlib.end_to_end(doc)["converged_frac"], 0.5)

    def test_trimmed_mean_drops_the_tails(self):
        values = [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 50.0]
        self.assertEqual(benchlib.trimmed_mean(values), 2.0)
        self.assertEqual(benchlib.trimmed_mean([1.0, 4.0]), 2.5)

    def test_shares_sum_to_one(self):
        m = benchlib.per_layer(trace_doc())
        self.assertEqual(set(m), set(benchlib.PER_LAYER))
        total = sum(m[s] for s in benchlib.SHARES)
        self.assertAlmostEqual(total + m["protocol.unattributed_share"], 1.0)
        self.assertEqual(m["telemetry.share"], 0.0)
        self.assertAlmostEqual(m["sim.dispatch_share"], 1000 * 100e-9 / 0.5)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.6)
        self.assertEqual(m["goodput_Bps"], 50.0)
        self.assertEqual(m["delivery_ratio"], 0.5)


class SmokeTest(unittest.TestCase):
    """Every workload at toy size, untraced and traced."""

    def run_bench(self, *args):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--seconds", "0",
             "--toy", *args], capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_all_workloads(self):
        for w in run.WORKLOADS:
            for trace, table in ((0, benchlib.END_TO_END),
                                 (1, benchlib.PER_LAYER)):
                with self.subTest(workload=w, trace=trace):
                    res = self.run_bench("--workload", w, "--seed", "3",
                                         "--trace", str(trace))
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), set(table))
                    if trace:
                        m = {k: v["value"] for k, v in res["metrics"].items()}
                        shares = sum(m[s] for s in benchlib.SHARES)
                        self.assertAlmostEqual(
                            shares + m["protocol.unattributed_share"], 1.0)
                        if w != "grid_observed":
                            self.assertEqual(m["telemetry.share"], 0.0)
                        else:
                            self.assertGreater(m["telemetry.share"], 0.0)


if __name__ == "__main__":
    unittest.main()
