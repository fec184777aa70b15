"""Unit tests of the benchmark runner's helpers: the percentile (with
its sample counts), self-time computation, the schedule of an untraced
run's processes, pooling of measured runs, and the contract's schema
checks.

    python3 perfbench/run.py --self-test
    python3 -m unittest discover perfbench/tests
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchlib  # noqa: E402


class Percentile(unittest.TestCase):
    def test_nearest_rank_with_counts(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), (50, 100, 50))
        self.assertEqual(benchlib.percentile(values, 90), (90, 100, 10))
        self.assertEqual(benchlib.percentile(values, 99), (99, 100, 1))
        self.assertEqual(benchlib.percentile(values, 100), (100, 100, 0))

    def test_order_does_not_matter(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3], 60), (3, 5, 2))

    def test_rank_rounds_up(self):
        # ceil(0.9 * 15) = 14: the 14th smallest, one sample beyond.
        self.assertEqual(benchlib.percentile(list(range(15)), 90), (13, 15, 1))

    def test_single_sample(self):
        self.assertEqual(benchlib.percentile([7.5], 99), (7.5, 1, 0))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1], 0)
        with self.assertRaises(ValueError):
            benchlib.percentile([1], 101)

    def test_declared_tails_leave_ten_beyond_at_their_size(self):
        # p90 needs 100 samples for ten beyond it, p99 needs 1000.
        self.assertEqual(benchlib.percentile(list(range(100)), 90)[2], 10)
        self.assertEqual(benchlib.percentile(list(range(1000)), 99)[2], 10)


def span(i, start, end, parent=-1, name="x"):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "unit": -1}


class SelfTime(unittest.TestCase):
    def test_leaf_is_its_duration(self):
        self.assertAlmostEqual(benchlib.self_times([span(0, 1.0, 3.5)])[0], 2.5)

    def test_children_are_subtracted(self):
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 3.0, 0), span(2, 5.0, 6.0, 0)]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[0], 7.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 3.0, 6.0, 0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 5.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, 2.0, 4.0), span(1, 1.0, 3.0, 0), span(2, 3.5, 9.0, 0)]
        self.assertAlmostEqual(benchlib.self_times(spans)[0], 0.5)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, 0.0, 10.0), span(1, 0.0, 4.0, 0), span(2, 1.0, 2.0, 1)]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[0], 6.0)
        self.assertAlmostEqual(selfs[1], 3.0)

    def test_layer_table_sums_by_name(self):
        spans = [span(0, 0.0, 10.0, name="unit"),
                 span(1, 0.0, 4.0, 0, name="kernel.run"),
                 span(2, 5.0, 6.0, 0, name="kernel.run")]
        self.assertEqual(benchlib.layer_table(spans),
                         [("unit", (1, 5.0)), ("kernel.run", (2, 5.0))])


def raw_record(rounds, units, rss_kb, counts=None):
    return {"workload": "multitask", "units_ms": units, "rounds": rounds,
            "peak_rss_kb": rss_kb, "setup_s": 1.0,
            "native_bytes": 100, "naturalized_bytes": 250,
            "kernel_cycles": 300, "native_cycles": 200,
            "counts": counts or {}, "info": {}}


class Schedule(unittest.TestCase):
    def test_one_slice_is_the_last_set_up(self):
        self.assertEqual(benchlib.schedule(3, 1),
                         [(True, False), (True, False), (True, True)])

    def test_slices_spread_over_the_set_ups(self):
        self.assertEqual(benchlib.schedule(5, 3),
                         [(True, True), (True, False), (True, True),
                          (True, False), (True, True)])
        self.assertEqual(benchlib.schedule(3, 3), [(True, True)] * 3)

    def test_extra_slices_follow_each_set_up(self):
        steps = benchlib.schedule(3, 8)
        self.assertEqual(steps, [(True, True), (False, True),
                                 (True, True), (False, True), (False, True),
                                 (True, True), (False, True), (False, True)])

    def test_counts(self):
        for setups in range(1, 8):
            for slices in range(1, 40):
                steps = benchlib.schedule(setups, slices)
                self.assertEqual(sum(c for c, _ in steps), setups)
                self.assertEqual(sum(m for _, m in steps), slices)
                self.assertTrue(steps[0][0])


class EndToEnd(unittest.TestCase):
    def test_runs_are_pooled(self):
        # rounds: [units, wall s, insns, cycles]; units: [kind, ms, ...]
        a = raw_record([[2, 1.0, 30e6, 7372800]], [["s", 10.0, 0, 0]] * 2,
                       2048)
        b = raw_record([[4, 3.0, 10e6, 7372800]], [["s", 30.0, 0, 0]] * 4,
                       1024)
        m = benchlib.end_to_end([a, b], [3.0, 1.0, 2.0])
        self.assertAlmostEqual(m["setup_s"], 2.0)
        self.assertAlmostEqual(m["sim_mips"], 10.0)  # 40e6 insns in 4 s
        self.assertAlmostEqual(m["sim_speed_x"], 0.5)
        self.assertAlmostEqual(m["jobs_per_s"], 1.5)
        self.assertAlmostEqual(m["unit_p50_ms"], 30.0)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["code_inflation_permille"], 2500.0)
        self.assertAlmostEqual(m["kernel_overhead_permille"], 1500.0)

    def test_deterministic_outputs_ignore_timings(self):
        a = raw_record([], [], 1, {"kernel.traps": 5, "service.job_busy_s": 1.0})
        b = raw_record([], [], 2, {"kernel.traps": 5, "service.job_busy_s": 2.0})
        c = raw_record([], [], 1, {"kernel.traps": 6, "service.job_busy_s": 1.0})
        self.assertEqual(benchlib.deterministic_outputs(a),
                         benchlib.deterministic_outputs(b))
        self.assertNotEqual(benchlib.deterministic_outputs(a),
                            benchlib.deterministic_outputs(c))


def load_repo_spec():
    path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                        "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


class BenchmarkSchema(unittest.TestCase):
    def setUp(self):
        self.spec = load_repo_spec()

    def rejects(self, spec, field):
        with self.assertRaises(benchlib.SchemaError) as cm:
            benchlib.check_benchmark(spec)
        self.assertIn(field, str(cm.exception))

    def test_repository_file_is_valid(self):
        benchlib.check_benchmark(self.spec)

    def test_extra_top_level_key(self):
        self.spec["extra"] = 1
        self.rejects(self.spec, "BENCHMARK.json")

    def test_bad_metric_name(self):
        self.spec["per_layer"][0]["name"] = "kernel run"
        self.rejects(self.spec, "per_layer[0].name")

    def test_duplicate_metric_name(self):
        self.spec["per_layer"][1]["name"] = self.spec["per_layer"][0]["name"]
        self.rejects(self.spec, "per_layer[1].name")

    def test_bad_unit(self):
        self.spec["end_to_end"][1]["unit"] = "insns per second"
        self.rejects(self.spec, "end_to_end[1].unit")

    def test_bound_too_loose(self):
        self.spec["end_to_end"][0]["bound"] = 0.3
        self.rejects(self.spec, "end_to_end[0].bound")

    def test_setup_metric_required(self):
        self.spec["end_to_end"] = [m for m in self.spec["end_to_end"]
                                   if m["name"] != "setup_s"]
        self.rejects(self.spec, "end_to_end")

    def test_multi_line_why(self):
        self.spec["workloads"][0]["why"] = "two\nlines"
        self.rejects(self.spec, "workloads[0].why")

    def test_path_leaving_the_repository(self):
        self.spec["paths"] = ["../elsewhere"]
        self.rejects(self.spec, "paths[0]")

    def test_oversized_file(self):
        with self.assertRaises(benchlib.SchemaError):
            benchlib.check_benchmark(self.spec, size=65 * 1024)


class ResultSchema(unittest.TestCase):
    def setUp(self):
        self.spec = load_repo_spec()
        self.result = {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in self.spec["end_to_end"]},
        }

    def rejects(self, result, field, traced=False):
        with self.assertRaises(benchlib.SchemaError) as cm:
            benchlib.check_result(result, self.spec, traced)
        self.assertIn(field, str(cm.exception))

    def test_valid_record(self):
        benchlib.check_result(self.result, self.spec, False)

    def test_traced_record_needs_the_per_layer_set(self):
        self.rejects(self.result, "result.metrics", traced=True)

    def test_missing_metric(self):
        del self.result["metrics"]["sim_mips"]
        self.rejects(self.result, "result.metrics")

    def test_undeclared_metric(self):
        self.result["metrics"]["made_up"] = {"value": 1, "unit": "s"}
        self.rejects(self.result, "result.metrics")

    def test_wrong_unit(self):
        self.result["metrics"]["setup_s"]["unit"] = "ms"
        self.rejects(self.result, "result.metrics.setup_s.unit")

    def test_non_finite_value(self):
        self.result["metrics"]["sim_mips"]["value"] = float("nan")
        self.rejects(self.result, "result.metrics.sim_mips.value")

    def test_two_values_for_one_metric(self):
        self.result["metrics"]["sim_mips"]["median"] = 2.0
        self.rejects(self.result, "result.metrics.sim_mips")

    def test_fractional_attempts(self):
        bad = copy.deepcopy(self.result)
        bad["attempted"] = 2.5
        self.rejects(bad, "result.attempted")

    def test_extra_key(self):
        self.result["host"] = {}
        self.rejects(self.result, "result")


if __name__ == "__main__":
    unittest.main()
