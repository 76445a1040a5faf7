"""Tests of the benchmark's statistics, reference diff and paper-gap metric.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import hashlib
import os
import tempfile
import unittest

import benchlib


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


class Statistics(unittest.TestCase):
    def test_spread_is_interquartile_range_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        # statistics.quantiles (exclusive method): q1 = 2.75, q3 = 8.25.
        self.assertAlmostEqual(benchlib.spread(values), (8.25 - 2.75) / 5.5)

    def test_spread_ignores_order_and_scale(self):
        values = [3.0, 1.0, 2.0, 5.0, 4.0]
        self.assertAlmostEqual(benchlib.spread(values), benchlib.spread([10 * v for v in sorted(values)]))

    def test_spread_of_identical_or_single_values_is_zero(self):
        self.assertEqual(benchlib.spread([4.2] * 10), 0.0)
        self.assertEqual(benchlib.spread([4.2]), 0.0)


class ReferenceDiff(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.run_root = os.path.join(self.tmp.name, "run")
        self.reference = os.path.join(self.tmp.name, "reference")
        write(self.reference, "fig2/00_a.csv", "x,y\n1,2\n")
        write(self.reference, "fig2/01_b.csv", "x\n3\n")
        write(self.reference, "ablations/01_orphan.csv", "x\n")
        write(self.reference, "ablations/00_kept.csv", "k\n")
        write(self.reference, "ext/sample.ibpt", "not a table")

    def tearDown(self):
        self.tmp.cleanup()

    def test_identical_tables_pass_and_caches_are_ignored(self):
        write(self.run_root, "fig2/00_a.csv", "x,y\n1,2\n")
        write(self.run_root, "fig2/01_b.csv", "x\n3\n")
        write(self.run_root, ".cache/v1/engine.tsv", "anything")
        write(self.run_root, "manifest.csv", "experiment\n")
        checked, bad, orphans = benchlib.diff_against_tree(self.run_root, self.reference, ["fig2"])
        self.assertEqual(checked, ["fig2/00_a.csv", "fig2/01_b.csv"])
        self.assertEqual(bad, [])
        self.assertEqual(orphans, [])

    def test_changed_and_unknown_tables_mismatch(self):
        write(self.run_root, "fig2/00_a.csv", "x,y\n1,3\n")
        write(self.run_root, "fig2/01_b.csv", "x\n3\n")
        write(self.run_root, "fig2/02_new.csv", "z\n")
        _, bad, _ = benchlib.diff_against_tree(self.run_root, self.reference, ["fig2"])
        self.assertEqual(bad, ["fig2/00_a.csv", "fig2/02_new.csv"])

    def test_known_orphans_are_reported_not_failed(self):
        write(self.run_root, "ablations/00_kept.csv", "k\n")
        checked, bad, orphans = benchlib.diff_against_tree(
            self.run_root, self.reference, ["ablations"], {"ablations/01_orphan.csv"})
        self.assertEqual(checked, ["ablations/00_kept.csv"])
        self.assertEqual(bad, [])
        self.assertEqual(orphans, ["ablations/01_orphan.csv"])

    def test_other_reference_tables_not_emitted_mismatch(self):
        write(self.run_root, "ablations/00_kept.csv", "k\n")
        write(self.run_root, "fig2/00_a.csv", "x,y\n1,2\n")
        _, bad, orphans = benchlib.diff_against_tree(
            self.run_root, self.reference, ["ablations", "fig2"], {"ablations/01_orphan.csv"})
        self.assertEqual(bad, ["fig2/01_b.csv"])
        self.assertEqual(orphans, ["ablations/01_orphan.csv"])
        # Without the listing, the dead table fails the check too.
        _, bad, orphans = benchlib.diff_against_tree(
            self.run_root, self.reference, ["ablations"], frozenset())
        self.assertEqual(bad, ["ablations/01_orphan.csv"])
        self.assertEqual(orphans, [])

    def test_digests_match_changed_and_missing(self):
        write(self.run_root, "fig9/00_t.csv", "p,AVG\n0,28.6668\n")
        digest = hashlib.sha256(b"p,AVG\n0,28.6668\n").hexdigest()
        self.assertEqual(benchlib.table_digests(self.run_root), {"fig9/00_t.csv": digest})
        ok = benchlib.diff_against_digests(self.run_root, {"fig9/00_t.csv": digest})
        self.assertEqual(ok, (["fig9/00_t.csv"], [], []))
        _, bad, _ = benchlib.diff_against_digests(
            self.run_root, {"fig9/00_t.csv": "0" * 64, "fig2/00_gone.csv": digest})
        self.assertEqual(bad, ["fig9/00_t.csv", "fig2/00_gone.csv"])


class PaperGap(unittest.TestCase):
    def test_summary_table_is_preferred(self):
        with tempfile.TemporaryDirectory() as root:
            write(root, "summary/00_headline.csv",
                  "predictor,measured,paper\nbtb,28.0,24.0\n\"a, b\",9.0,10.0\n")
            write(root, "fig2/00_f.csv", "benchmark,BTB,BTB-2bc\nAVG,0,0\n")
            self.assertAlmostEqual(benchlib.paper_gap_pp(root), 2.5)

    def test_figure_anchors_when_no_summary(self):
        with tempfile.TemporaryDirectory() as root:
            write(root, "fig2/00_f.csv", "benchmark,BTB,BTB-2bc\nidl,1,1\nAVG,30.1,25.9\n")
            write(root, "fig9/00_f.csv", "p,AVG\n0,24.9\n3,8.8\n6,5.8\n")
            # |30.1-28.1| + |25.9-24.9| + 0 + |8.8-7.8| + 0 over five anchors.
            self.assertAlmostEqual(benchlib.paper_gap_pp(root), 4.0 / 5)

    def test_no_anchor_means_no_value(self):
        with tempfile.TemporaryDirectory() as root:
            write(root, "fig11/00_f.csv", "size,p=0\n32,1\n")
            self.assertIsNone(benchlib.paper_gap_pp(root))


if __name__ == "__main__":
    unittest.main()
