"""The chaos workload is the F3 soak: same faults, same outcome.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), ROOT]

from benchmarks.bench_chaos_soak import run_chaos_soak  # noqa: E402
from workloads import WORKLOADS, ChaosSoakEpisode  # noqa: E402


class TestChaosEpisodeIsF3(unittest.TestCase):
    def test_same_history_as_run_chaos_soak(self):
        seed = 2001
        episode = ChaosSoakEpisode(seed)
        episode.run()
        outcome = episode.finish()
        f3 = run_chaos_soak(
            seed, duration=ChaosSoakEpisode.DURATION, controller_chaos=True
        )
        self.assertEqual(len(episode.suite.commit_times), f3.commits)
        self.assertEqual(episode.nemesis.counters(), f3.nemesis_counters)
        self.assertEqual(episode.dep.controller.leader_changes, f3.leader_changes)
        self.assertEqual(
            outcome.samples["unavail"], [window for _, window in f3.unavailability]
        )
        self.assertEqual(outcome.errors == [], f3.invariant_ok)


class TestKnownSoakDefects(unittest.TestCase):
    """Invariant violations of the F3 soak with controller chaos, found
    while sizing this benchmark: 1 of 384 seeds scanned at the default
    0.12 s length (10008) and 3 of 500 at the ``--quick`` 0.08 s length
    (1004, 2197, 2263).  The plain soak, without controller chaos, also
    loses a committed write on 1 of 400 seeds scanned.  They are program
    defects, pinned here until fixed; a benchmark run whose episodes
    include such a seed fails its correctness check."""

    def soak(self, seed, duration):
        result = run_chaos_soak(seed, duration=duration, controller_chaos=True)
        self.assertTrue(result.invariant_ok, result.invariant_violations)

    @unittest.expectedFailure
    def test_seed_10008_removes_a_detected_failed_switch(self):
        # config_consistent: detected-failed s2 still in the chain at 44 ms.
        self.soak(10008, 0.12)

    @unittest.expectedFailure
    def test_quick_seed_1004_keeps_every_committed_write(self):
        # no_lost_write: s4 ends holding 50 for k2, committed 114 at seq 4.
        self.soak(1004, 0.08)

    @unittest.expectedFailure
    def test_plain_soak_keeps_every_committed_write(self):
        # Without controller chaos: no_lost_write, s1 applied seq 10 of
        # slots 51 and 137 after seq 11 was committed (1 of 400 seeds).
        result = run_chaos_soak(1179652910869)
        self.assertTrue(result.invariant_ok, result.invariant_violations)


class TestEpisodeSeeds(unittest.TestCase):
    def test_seed_fixes_the_episode_list(self):
        for workload in WORKLOADS.values():
            seeds = workload.episode_seeds(3)
            self.assertEqual(seeds, workload.episode_seeds(3))
            self.assertEqual(len(set(seeds)), workload.episodes)
            self.assertTrue(set(seeds).isdisjoint(workload.episode_seeds(4)))
            self.assertLessEqual(workload.traced, workload.episodes)


if __name__ == "__main__":
    unittest.main()
