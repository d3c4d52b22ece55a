"""Tests of the benchmark's statistics code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_reported_when_ten_samples_lie_beyond(self):
        samples = list(range(1, 1001))  # p99 rank 990: 10 samples beyond.
        self.assertEqual(stats.percentile(samples, 99), (990, 99, 1000))

    def test_falls_back_to_highest_qualifying_percentile(self):
        samples = list(range(1, 501))  # p99 rank 495 leaves only 5 beyond.
        value, reported, n = stats.percentile(samples, 99)
        self.assertEqual((value, n), (490, 500))
        self.assertAlmostEqual(reported, 98.0)
        self.assertEqual(n - value, stats.MIN_BEYOND)

    def test_median_needs_ten_beyond_too(self):
        self.assertIsNone(stats.percentile(list(range(10)), 50))
        self.assertEqual(stats.percentile(list(range(1, 12)), 50),
                         (1, 100.0 / 11, 11))
        self.assertEqual(stats.percentile(list(range(1, 101)), 50),
                         (50, 50, 100))

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(stats.percentile(samples, 50)[0], 3.0)

    def test_plain_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        self.assertIsNone(stats.median([]))


class AccountingTest(unittest.TestCase):
    def test_split_by_operation_type(self):
        by_type = stats.split_by_type(
            [("query", 1.0), ("batch", 9.0), ("query", 2.0), ("faultin", 7.0)])
        self.assertEqual(by_type, {"query": [1.0, 2.0], "batch": [9.0],
                                   "faultin": [7.0]})

    def test_batch_of_n_counts_n_queries(self):
        # Two single queries, a correct BATCH of 7, a failed BATCH of 7.
        outcomes = [(1, True), (1, True), (7, True), (7, False)]
        self.assertEqual(stats.queries_answered(outcomes), 9)

    def test_failed_ratio_counts_errors_refusals_and_mismatches(self):
        self.assertEqual(stats.failed_ratio(2, 1, 1, 40), 0.1)
        self.assertEqual(stats.failed_ratio(0, 0, 0, 5), 0.0)
        with self.assertRaises(ValueError):
            stats.failed_ratio(0, 0, 0, 0)


class SubwindowTest(unittest.TestCase):
    def test_split_chunks_is_contiguous_and_near_equal(self):
        self.assertEqual(stats.split_chunks(list(range(7)), 3),
                         [[0, 1, 2], [3, 4], [5, 6]])
        self.assertEqual(stats.split_chunks([1, 2], 5), [[1], [2]])

    def test_group_runs(self):
        self.assertEqual(stats.group_runs([1, 1, 2, 1], key=lambda x: x),
                         [[1, 1], [2], [1]])

    def test_subwindows_hold_enough_singles_and_whole_rounds(self):
        query = run.Op("QUERY", "doc", [0], ["//a"])
        flat = [(query, 0, i, 1.0, "ok") for i in range(3500)]
        self.assertEqual([len(p) for p in run.subwindows(flat, False)],
                         [1167, 1167, 1166])
        # 10 rounds of 300 singles: 4 rounds reach 1000, so 2 sub-windows.
        rounds = [(query, i // 300, i, 1.0, "ok") for i in range(3000)]
        parts = run.subwindows(rounds, True)
        self.assertEqual([len(p) for p in parts], [1500, 1500])
        self.assertEqual({s[1] for s in parts[1]}, {5, 6, 7, 8, 9})


class ReplyCheckTest(unittest.TestCase):
    ORACLE = {"doc": [3, 5]}

    def op(self, kind, qids):
        return run.Op(kind, "doc", qids, ["//a", "//b"][:len(qids)])

    def test_query_reply_checked_against_oracle(self):
        query = self.op("QUERY", [1])
        self.assertEqual(run.check_reply(
            query, ["OK dag=2 tree=5 splits=0 label_s=0 eval_s=0"],
            self.ORACLE), ("ok", 0))
        self.assertEqual(run.check_reply(
            query, ["OK dag=2 tree=4 splits=1 label_s=0 eval_s=0"],
            self.ORACLE), ("mismatch", 1))
        self.assertEqual(run.check_reply(
            query, ["ERR NotFound: no such document"], self.ORACLE),
            ("err", 0))

    def test_every_batch_line_is_checked(self):
        batch = self.op("BATCH", [0, 1])
        good = ["OK 2", "0 dag=1 tree=3 splits=0", "1 dag=1 tree=5 splits=0"]
        bad = ["OK 2", "0 dag=1 tree=3 splits=0", "1 dag=1 tree=6 splits=0"]
        self.assertEqual(run.check_reply(batch, good, self.ORACLE)[0], "ok")
        self.assertEqual(run.check_reply(batch, bad, self.ORACLE)[0],
                         "mismatch")
        self.assertEqual(run.check_reply(batch, good[:2], self.ORACLE)[0],
                         "mismatch")

    def test_summary_splits_types_and_counts_batches(self):
        query, batch = self.op("QUERY", [0]), self.op("BATCH", [0, 1])
        samples = [(query, 0, 0.05 * i, 1.0 + i, ["OK dag=1 tree=3 splits=0"])
                   for i in range(30)]
        samples.append((batch, 0, 1.9, 50.0, ["OK 2", "0 tree=3", "1 tree=5"]))
        samples.append((query, 0, 2.0, 99.0, ["ERR Internal: boom"]))
        figures, counts, defects = run.summarize(samples, self.ORACLE,
                                                 steady=True)
        self.assertEqual(defects, [])
        self.assertEqual(figures["throughput_qps"][0], (30 + 2) / 2.0)
        self.assertEqual(figures["failed_ratio"][0], 1 / 32)
        # The BATCH is its own latency mode; the single-QUERY median
        # includes the failed request's latency.
        self.assertEqual(figures["latency_p50_ms"][:2], (16.0, 31))
        self.assertEqual(counts["subwindows"], 1)
        self.assertNotIn("batch_p50_ms", figures)  # One sample: too few.
        self.assertEqual(counts["n_batch"], 1)

    def test_summary_reports_mismatch_and_splits_as_defects(self):
        query = self.op("QUERY", [0])
        samples = [(query, 0, 0.1 * i, 1.0, ["OK dag=1 tree=4 splits=2"])
                   for i in range(1, 13)]
        _, counts, defects = run.summarize(samples, self.ORACLE, steady=True)
        self.assertEqual(counts["mismatches"], 12)
        self.assertTrue(any("steady state" in d for d in defects))
        self.assertTrue(any("oracle mismatch" in d for d in defects))


if __name__ == "__main__":
    unittest.main()
