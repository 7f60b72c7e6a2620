"""Tests of the benchmark's own statistics and checks.

    python3 -m unittest discover -s perfbench
"""

import os
import tempfile
import unittest

import stats


class Medians(unittest.TestCase):
    def test_odd_and_even_counts(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        # statistics.quantiles(n=4), 'exclusive' method: positions
        # (n+1)/4 and 3(n+1)/4 of the sorted samples.
        values = [7.0, 1.0, 3.0, 5.0, 9.0, 11.0, 13.0]
        self.assertEqual(stats.quartiles(values), (3.0, 11.0))
        self.assertAlmostEqual(stats.spread(values), (11.0 - 3.0) / 7.0)

    def test_single_sample(self):
        self.assertEqual(stats.quartiles([2.5]), (2.5, 2.5))
        self.assertEqual(stats.spread([2.5]), 0.0)


class TailPercentile(unittest.TestCase):
    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(stats.tail_percentile([float(i) for i in range(12)]))
        self.assertNotIn("tail", stats.summary([1.0, 2.0, 3.0]))

    def test_forty_samples_allow_p75(self):
        # p75 of 1..40 is the 30th value; 10 samples lie beyond it. p90
        # would leave only 4.
        values = [float(i) for i in range(1, 41)]
        self.assertEqual(stats.tail_percentile(values), (75.0, 30.0))

    def test_highest_percentile_is_chosen(self):
        values = [float(i) for i in range(1, 1001)]
        # p99 leaves exactly 10 beyond; p99.9 leaves 1.
        self.assertEqual(stats.tail_percentile(values), (99.0, 990.0))
        self.assertEqual(stats.tail_percentile(values[:999]), (95.0, 950.0))

    def test_ties_at_the_percentile_are_not_beyond_it(self):
        values = [1.0] * 35 + [2.0] * 9
        self.assertIsNone(stats.tail_percentile(values))
        self.assertEqual(stats.tail_percentile(values + [3.0]), (75.0, 1.0))

    def test_summary_reports_count_and_tail(self):
        s = stats.summary([float(i) for i in range(1, 41)])
        self.assertEqual(s["n"], 40)
        self.assertEqual(s["median"], 20.5)
        self.assertEqual(s["mean"], 20.5)
        self.assertEqual(s["tail"], {"percentile": 75.0, "value": 30.0})


class ReferenceSpeed(unittest.TestCase):
    def test_each_sample_takes_the_calibrations_around_its_op(self):
        # Op 0 ran between calibrations 0 and 1, op 1 between 1 and 2.
        scaled = stats.at_reference_speed([(2.0, 1), (3.0, 2)], [0.05, 0.1, 0.05], 0.05)
        self.assertEqual([round(v, 12) for v in scaled], [1.333333333333, 2.0])

    def test_a_uniformly_slower_host_reads_the_same(self):
        samples = [(2.0, 1), (3.0, 2), (2.5, 3)]
        cals = [0.05, 0.06, 0.04, 0.05]
        slow = [(2 * v, after) for v, after in samples]
        self.assertEqual(stats.at_reference_speed(slow, [2 * c for c in cals], 0.05),
                         stats.at_reference_speed(samples, cals, 0.05))


class Digests(unittest.TestCase):
    def test_tampered_artifact_fails_its_pinned_digest(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "report.json")
            with open(path, "w") as f:
                f.write('{"runs": 165, "events": 69887995}\n')
            book = stats.DigestBook({"sweep_txn": stats.sha256_file(path)})
            self.assertIsNone(book.check("sweep_txn", stats.sha256_file(path)))
            with open(path, "w") as f:
                f.write('{"runs": 165, "events": 69887996}\n')
            reason = book.check("sweep_txn", stats.sha256_file(path))
            self.assertIn("sweep_txn digest", reason)

    def test_unpinned_kind_takes_the_first_digest_as_reference(self):
        book = stats.DigestBook()
        first = stats.sha256_text("records: 49995")
        self.assertIsNone(book.check("analytics", first))
        self.assertIsNone(book.check("analytics", first))
        self.assertIsNotNone(book.check("analytics", stats.sha256_text("records: 49994")))


class ErrorAccounting(unittest.TestCase):
    def test_failed_ops_count_against_attempted(self):
        ops = stats.OpLog()
        self.assertEqual(ops.error_rate, 0.0)
        self.assertTrue(ops.record("campaign", []))
        self.assertTrue(ops.record("campaign", []))
        self.assertFalse(ops.record("campaign", ["exit 2", "no runs:/events: line"]))
        self.assertTrue(ops.record("analytics", []))
        self.assertEqual((ops.attempted, ops.failed), (4, 1))
        self.assertEqual(ops.error_rate, 0.25)
        self.assertEqual(ops.failures, ["campaign: exit 2; no runs:/events: line"])


if __name__ == "__main__":
    unittest.main()
