#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_bench.py          # from the repository root

The statistics helpers are tested directly. The input test builds the
workload harness with dune and checks that one seed generates
byte-identical inputs twice while another seed generates different ones.
"""

import filecmp
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0.5), 50)
        self.assertEqual(stats.percentile(xs, 0.9), 90)
        self.assertEqual(stats.percentile(list(reversed(xs)), 0.9), 90)
        self.assertEqual(stats.percentile([7.0], 0.9), 7.0)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.beyond(100, 0.9), 10)
        self.assertTrue(stats.tail_supported(100, 0.9))
        self.assertEqual(stats.beyond(99, 0.9), 9)
        self.assertFalse(stats.tail_supported(99, 0.9))
        self.assertTrue(stats.tail_supported(1000, 0.99))
        self.assertFalse(stats.tail_supported(999, 0.99))
        # the paper suite's 42 cells leave only 4 beyond their p90
        self.assertEqual(stats.beyond(42, 0.9), 4)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class GeometricMean(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([1, 100]), 10)
        self.assertAlmostEqual(stats.geomean([2, 8]), 4)
        self.assertAlmostEqual(stats.geomean([3.5]), 3.5)

    def test_scale_invariant(self):
        xs = [0.3, 2.0, 17.0, 900.0]
        self.assertAlmostEqual(stats.geomean([10 * x for x in xs]),
                               10 * stats.geomean(xs))

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class ObjectiveRatio(unittest.TestCase):
    def test_best_is_one(self):
        self.assertEqual(stats.obj_ratio(5.0, 5.0, maximize=True), 1.0)
        self.assertEqual(stats.obj_ratio(5.0, 5.0, maximize=False), 1.0)

    def test_maximize(self):
        best = stats.best_objective([80.0, 100.0], maximize=True)
        self.assertEqual(best, 100.0)
        self.assertAlmostEqual(stats.obj_ratio(80.0, best, True), 1.25)

    def test_minimize_flips(self):
        best = stats.best_objective([80.0, 100.0], maximize=False)
        self.assertEqual(best, 80.0)
        # a worse (larger) MINIMIZE objective reads above 1.0
        self.assertAlmostEqual(stats.obj_ratio(100.0, best, False), 1.25)
        self.assertGreater(stats.obj_ratio(100.0, best, False), 1.0)

    def test_non_positive_objectives(self):
        self.assertAlmostEqual(stats.obj_ratio(-3.0, -2.0, True), 1.5)
        self.assertAlmostEqual(stats.obj_ratio(-2.0, -3.0, False), 1 + 1 / 3)
        self.assertGreater(stats.obj_ratio(0.0, 1.0, True), 1.0)


class Inputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        subprocess.run(["dune", "build", "--root", ".", "perfbench/harness.exe"],
                       cwd=ROOT, check=True)
        cls.exe = os.path.join(ROOT, "_build", "default", "perfbench",
                               "harness.exe")

    def generate(self, seed, into):
        subprocess.run([self.exe, "gen", "--seed", str(seed), "--dir", into],
                       check=True, stdout=subprocess.DEVNULL)
        return sorted(os.listdir(into))

    def test_seed_determines_inputs(self):
        workdir = os.path.join(ROOT, ".perfbench")
        os.makedirs(workdir, exist_ok=True)

        def tmp():
            return tempfile.TemporaryDirectory(dir=workdir)

        with tmp() as a, tmp() as b, tmp() as c:
            files = self.generate(5, a)
            self.assertTrue(files)
            self.assertEqual(self.generate(5, b), files)
            match, mismatch, errors = filecmp.cmpfiles(a, b, files,
                                                       shallow=False)
            self.assertEqual((mismatch, errors), ([], []))
            self.assertEqual(self.generate(6, c), files)
            _, differ, _ = filecmp.cmpfiles(a, c, files, shallow=False)
            self.assertEqual(sorted(differ), files)


if __name__ == "__main__":
    unittest.main()
