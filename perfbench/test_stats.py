"""Tests for the benchmark's arithmetic (``stats.py``) and for the
tracer's self-time accounting.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class TestPercentiles(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(stats.percentile([3, 1, 2, 4], 50), 2.5)
        self.assertEqual(stats.percentile([10, 20], 25), 12.5)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_beyond_counts_samples_past_the_rank(self):
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertEqual(stats.beyond(999, 99), 10)
        self.assertEqual(stats.beyond(100, 99), 1)
        self.assertEqual(stats.beyond(21, 50), 10)
        self.assertEqual(stats.beyond(0, 50), 0)

    def test_tail_percentile_refuses_fewer_than_ten_beyond(self):
        samples = list(range(1000))
        self.assertAlmostEqual(stats.tail_percentile(samples, 99), 989.01)
        with self.assertRaisesRegex(ValueError, "9 beyond"):
            stats.tail_percentile(list(range(900)), 99)
        with self.assertRaisesRegex(ValueError, "need 10"):
            stats.tail_percentile(list(range(19)), 50)
        self.assertEqual(stats.tail_percentile(list(range(21)), 50), 10)

    def test_censored_latency_counts_a_missing_op_at_the_horizon(self):
        lat = stats.censored_latencies([0.0, 1.0, 2.0], [0.5, None, 2.25], horizon=10.0)
        self.assertEqual(lat, [0.5, 9.0, 0.25])
        # Committing a censored op can only lower a percentile.
        before = stats.percentile(lat, 99)
        after = stats.percentile(
            stats.censored_latencies([0.0, 1.0, 2.0], [0.5, 8.0, 2.25], horizon=10.0), 99
        )
        self.assertLessEqual(after, before)

    def test_censoring_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.censored_latencies([0.0], [], horizon=1.0)
        with self.assertRaises(ValueError):
            stats.censored_latencies([2.0], [None], horizon=1.0)

    def test_censored_tail_with_too_few_samples_beyond(self):
        # 500 ops, 20 never complete: p99 sits among the censored ones,
        # but 500 samples put only 5 beyond p99, so it is not reported.
        due = [i * 1e-3 for i in range(500)]
        done = [None if i % 25 == 0 else d + 1e-4 for i, d in enumerate(due)]
        lat = stats.censored_latencies(due, done, horizon=2.0)
        self.assertAlmostEqual(stats.percentile(lat, 50), 1e-4)
        with self.assertRaisesRegex(ValueError, "5 beyond"):
            stats.tail_percentile(lat, 99)


class TestFailureShare(unittest.TestCase):
    def test_fraction(self):
        self.assertEqual(stats.fail_frac(1200, 828), 0.69)
        self.assertEqual(stats.fail_frac(10, 0), 0.0)
        self.assertEqual(stats.fail_frac(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            stats.fail_frac(5, 6)
        with self.assertRaises(ValueError):
            stats.fail_frac(5, -1)

    def test_packet_failures(self):
        # 100 sent: 90 reached a server, 6 were dropped by the firewall.
        self.assertEqual(stats.packet_failures(100, 90, 6), 4)
        self.assertEqual(stats.fail_frac(100, stats.packet_failures(100, 90, 6)), 0.04)
        self.assertEqual(stats.packet_failures(100, 100, 0), 0)
        with self.assertRaises(ValueError):
            stats.packet_failures(100, 95, 6)

    def test_ratio_of_no_work_is_zero(self):
        self.assertEqual(stats.ratio(3, 4), 0.75)
        self.assertEqual(stats.ratio(0, 0), 0.0)


class TestSelfTime(unittest.TestCase):
    def test_leaf_and_nested(self):
        # root [0, 10] > a [1, 6] > b [2, 3]
        starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 6.0, 3.0], [-1, 0, 1]
        self.assertEqual(list(stats.self_times(starts, ends, parents)), [5.0, 4.0, 1.0])

    def test_back_to_back_children(self):
        # root [0, 10] with children [1, 3] and [3, 6]: 5 s covered.
        starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 3.0, 6.0], [-1, 0, 0]
        self.assertEqual(list(stats.self_times(starts, ends, parents)), [5.0, 2.0, 3.0])

    def test_overlapping_children_count_once(self):
        starts, ends, parents = [0.0, 1.0, 2.0, 8.0], [10.0, 4.0, 5.0, 12.0], [-1, 0, 0, 0]
        self.assertEqual(stats.self_times(starts, ends, parents)[0], 4.0)

    def test_self_times_sum_to_root_durations(self):
        starts = [0.0, 0.5, 0.6, 2.0, 5.0, 5.5]
        ends = [4.0, 1.5, 1.0, 3.5, 7.0, 6.0]
        parents = [-1, 0, 1, 0, -1, 4]
        total = sum(stats.self_times(starts, ends, parents))
        self.assertAlmostEqual(total, 4.0 + 2.0)

    def test_children_are_clipped_to_the_parent_and_may_come_unordered(self):
        # root [0, 10]; children [9, 12] and [-1, 2] cover 1 + 2 inside it.
        starts, ends, parents = [0.0, 9.0, -1.0], [10.0, 12.0, 2.0], [-1, 0, 0]
        self.assertEqual(stats.self_times(starts, ends, parents)[0], 7.0)


class TestOverhead(unittest.TestCase):
    def test_overhead(self):
        self.assertAlmostEqual(stats.overhead_frac(3.0, 2.0), 0.5)
        self.assertAlmostEqual(stats.overhead_frac(2.0, 2.0), 0.0)
        with self.assertRaises(ValueError):
            stats.overhead_frac(1.0, 0.0)


class TestTracerAccounting(unittest.TestCase):
    """The tracer's fold arithmetic on a scripted clock."""

    def test_root_and_boundary_spans(self):
        import tracing

        # dispatch [0, 12] > op [1, 9] > send [2, 4]; then send [10, 11]
        ticks = iter([0.0, 1.0, 2.0, 4.0, 9.0, 10.0, 11.0, 12.0])
        tracer = tracing.LayerTracer(clock=lambda: next(ticks))
        net = tracing.LAYERS.index("net")
        core = tracing.LAYERS.index("core")
        send_id = tracer.add_name("Fake.send", net)
        op_id = tracer.add_name("Fake.op", core)
        send = tracer._wrap(lambda: None, send_id, net, False)
        inner = tracer._wrap(lambda: send(), op_id, core, False)
        op = tracer._wrap(lambda: inner(), op_id, core, False)

        class Event:
            args = ()

            @staticmethod
            def callback():
                op()  # calls inner: same layer, so counted but not spanned
                send()

        tracer.active = True
        tracer.dispatch(Event)
        tracer.active = False
        self.assertEqual(tracer.fold(), 4)
        selfs = tracer.layer_self(traced_wall=13.0)
        self.assertEqual(selfs["core"], 6.0)  # [1, 9] minus [2, 4]
        self.assertEqual(selfs["net"], 3.0)  # [2, 4] and [10, 11]
        self.assertEqual(selfs["sim"], 3.0 + 1.0)  # root self + loop outside
        self.assertEqual(sum(selfs.values()), 13.0)
        self.assertEqual(tracer.calls[op_id], 2)  # op, then inner (same layer)
        self.assertEqual(tracer.entries("core"), 1)


if __name__ == "__main__":
    unittest.main()
