"""Tests of the benchmark's own checks.

usage: python3 perfbench/selfcheck.py   (from the root of a checkout)

* Each rule in ``rules.py``, and the vectorised brute force over all
  subsets, matches the benchmark's union-find brute force at small orders.
* Real wcds output at small sizes passes its check, and a single changed
  count in it makes the check fail.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

import checks
import rules
from workloads import Command, edge_list_text, random_connected, verify_command

ROOT = Path(__file__).resolve().parent.parent


def wcds(*argv: str) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "wcds", *argv], capture_output=True, text=True, env=env, cwd=ROOT)
    return proc.stdout, proc.returncode


def problems(cmd, out, status):
    return checks.check(cmd, out, status, random.Random(0))


def bump_cells(text: str):
    """Every variant of a markdown count table with one cell changed by one
    (a blank cell becomes 1)."""
    lines = text.splitlines(keepends=True)
    for li in range(2, len(lines)):
        cells = lines[li].split("|")
        for ci in range(2, len(cells) - 1):
            cell = cells[ci].strip()
            new = cells[:ci] + [f" {int(cell) + 1 if cell else 1} "] + cells[ci + 1:]
            yield "".join(lines[:li] + ["|".join(new)] + lines[li + 1:])


def bump_number(value):
    """An int plus one, or a printed tuple with one entry plus one."""
    if isinstance(value, int):
        return value + 1
    nums = re.findall(r"\d+", value)
    k = len(nums) // 2
    return "(" + ", ".join(str(int(x) + (j == k)) for j, x in enumerate(nums)) + ("" if len(nums) > 1 else ",") + ")"


class RulesMatchBruteForce(unittest.TestCase):
    def test_family_rows(self):
        for n in range(1, 11):
            self.assertEqual(rules.path_row(n), rules.count_row(rules.path(n)), f"path {n}")
            self.assertEqual(rules.cycle_row(n), rules.count_row(rules.cycle(n)), f"cycle {n}")
            self.assertEqual(rules.star_row(n), rules.count_row(rules.star(n)), f"star {n}")
            self.assertEqual(rules.complete_row(n), rules.count_row(rules.complete(n)), f"complete {n}")
            if n >= 3:
                self.assertEqual(rules.cycle_dominating_row(n), rules.dominating_row(rules.cycle(n)), f"C{n}")
            if n >= 4:
                self.assertEqual(rules.wheel_row(n), rules.count_row(rules.wheel(n)), f"wheel {n}")

    def test_wheel_of_order_four_is_complete(self):
        self.assertEqual(rules.wheel_row(4), [4, 6, 4, 1])

    def test_corrected_join_rule(self):
        parts = [rules.by_label(x) for x in ("P1", "P2", "P3", "P4", "C4", "K3", "S3")]
        rng = random.Random(3)
        parts += [random_connected(rng, 5, 6), random_connected(rng, 4, 4)]
        for g in parts:
            for h in parts:
                want = rules.count_row(rules.join(g, h))
                got = rules.join_row(rules.dominating_row(g), rules.dominating_row(h))
                self.assertEqual(got, want, f"{g} + {h}")

    def test_path_cycle_domination_number(self):
        for n in range(1, 11):
            for g in (rules.path(n), rules.cycle(n)):
                self.assertEqual(rules.path_cycle_domination_number(n), rules.minimum_size(g, rules.dominates))

    def test_connected_labeled_graph_counts(self):
        for k in range(1, 6):
            pairs = list(combinations(range(1, k + 1), 2))
            connected = sum(
                rules.is_connected((k, tuple(p for b, p in enumerate(pairs) if mask >> b & 1)))
                for mask in range(1 << len(pairs))
            )
            self.assertEqual(connected, rules.CONNECTED_LABELED[k - 1], f"order {k}")

    def test_full_rows_match_union_find(self):
        rng = random.Random(7)
        graphs = [f(n) for n in range(1, 10) for f in (rules.path, rules.cycle, rules.star)]
        graphs += [random_connected(rng, n, rng.randint(n - 1, n * (n - 1) // 2)) for n in rng.choices(range(2, 11), k=40)]
        for g in graphs:
            self.assertEqual(rules.full_rows(g), (rules.count_row(g), rules.dominating_row(g)), f"{g}")

    def test_union_find_matches_definition(self):
        # kept edges touch S and connect everything; S dominates as a consequence
        rng = random.Random(5)
        for _ in range(30):
            g = random_connected(rng, 7, rng.randint(6, 15))
            nb = rules.neighbours(g)
            for size in range(1, 8):
                for s in combinations(range(7), size):
                    if rules.is_wcds(nb, s):
                        self.assertTrue(rules.dominates(nb, s))


class ChecksCatchOneChangedCount(unittest.TestCase):
    def assert_caught(self, cmd, out, status, variants):
        self.assertEqual(problems(cmd, out, status), [], "genuine output rejected")
        n = 0
        for bad in variants:
            n += 1
            self.assertNotEqual(problems(cmd, bad, status), [], f"missed:\n{bad}")
        self.assertGreater(n, 0)

    def test_tables(self):
        for fam, top, start in (("path", 9, 1), ("cycle", 9, 1), ("star", 8, 1), ("wheel", 9, 4)):
            cmd = Command(["table", "--family", fam, "--max-n", str(top)], "table", info={"family": fam, "start": start, "max_n": top})
            out, status = wcds(*cmd.argv)
            self.assert_caught(cmd, out, status, bump_cells(out))

    def test_count_family_and_random(self):
        cmd = Command(["count", "--family", "path", "--n", "9"], "count", rules.path(9), {"row": rules.path_row(9)})
        out, status = wcds(*cmd.argv)
        self.assert_caught(cmd, out, status, bump_cells(out))
        for n, m, i in ((9, 18, 4), (16, 60, 8)):
            with self.subTest(order=n):
                self.check_random_graph(random_connected(random.Random(n), n, m), i)

    def check_random_graph(self, g, i):
        """count, gamma and enumerate on a graph no rule covers. At order 16
        the middle cells hold thousands of sets each."""
        with tempfile.NamedTemporaryFile("w", suffix=".edges", delete=False) as fh:
            fh.write(edge_list_text(g))
        try:
            cmd = Command(["count", "--input", fh.name], "count", g)
            out, status = wcds(*cmd.argv)
            self.assert_caught(cmd, out, status, bump_cells(out))
            cmd = Command(["gamma", "--input", fh.name, "--with-gamma"], "gamma", g)
            out, status = wcds(*cmd.argv)
            lines = out.splitlines(keepends=True)
            variants = [re.sub(r"\d+", lambda m: str(int(m.group()) + 1), ln) for ln in lines]
            variants = ["".join(lines[:k] + [v] + lines[k + 1:]) for k, v in enumerate(variants)]
            self.assert_caught(cmd, out, status, variants)
            # one set dropped, so the listing is one short
            cmd = Command(["enumerate", "--input", fh.name, "--i", str(i)], "enumerate", g, {"i": i})
            out, status = wcds(*cmd.argv)
            lines = out.splitlines(keepends=True)
            drops = random.Random(i).sample(range(len(lines)), min(6, len(lines)))
            self.assert_caught(cmd, out, status, ("".join(lines[:k] + lines[k + 1:]) for k in drops))
        finally:
            os.unlink(fh.name)

    def test_verify_suites(self):
        small = {
            "path_table": {"max_n": 10}, "cycle_table": {"max_n": 14}, "complete": {"max_n": 6},
            "star": {"max_n": 6}, "wheel": {"max_n": 8}, "join": {"max_n": 3, "random_count": 2},
            "join_gamma": {"max_n": 3, "random_count": 2}, "corona_gamma": {},
            "gamma_path_cycle": {"max_n": 10}, "boxes": {"max_n": 6},
            "structural": {"max_n": 5}, "edge_deletion_bounds": {"max_n": 5},
            "extension_recurrence": {"random_count": 1}, "extension_constructive": {"random_count": 1},
            "extension_gamma": {"random_count": 1},
        }
        for suite, sizes in small.items():
            cmd = verify_command(suite, 1729, sizes)
            out, status = wcds(*cmd.argv)
            records = json.loads(out)["records"]
            # records the benchmark cannot recount (outside the brute-force
            # sample, or on the program's random instances) are caught through
            # the passed flag, which a changed count flips for passing records
            eligible = sorted(checks.sampled_records(suite, records, random.Random(0)) | {
                i for i, r in enumerate(records)
                if r["passed"] or (suite in checks.RULE_TRUTH and not r["key"].startswith("random"))
            })
            variants = []
            for idx in random.Random(suite).sample(eligible, min(8, len(eligible))):
                bad = json.loads(out)
                rec = bad["records"][idx]
                rec["oracle_value"] = bump_number(rec["oracle_value"])
                variants.append(json.dumps(bad))
            # one passing record dropped, the summary adjusted to match
            bad = json.loads(out)
            drop = next(i for i, r in enumerate(bad["records"]) if r["passed"] and not r["key"].startswith("random"))
            del bad["records"][drop]
            bad["passes"] -= 1
            variants.append(json.dumps(bad))
            with self.subTest(suite=suite):
                self.assert_caught(cmd, out, status, variants)


if __name__ == "__main__":
    unittest.main()
