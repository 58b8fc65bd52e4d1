#!/usr/bin/env python3
"""Unit tests for the table scraping in bench_to_json.py: the pure
parse_tables function only, no subprocess. Run directly or via ctest
(registered as a tier1 test)."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_to_json import parse_tables

# Two tables as a figure bench prints them with --csv: the aligned
# table, then its CSV mirror. Both titles contain commas.
STDOUT = """\
== Steady state: 4 nodes, JSQ(2), 20k requests ==
  policy  p99 ms
  ------------------
  jsq2    1.25

policy,p99 ms
jsq2,1.25

== Node failure at 200 ms, node 1 of 4, no retries ==
  policy  shed  failovers
  ---------------------------
  rr      12    0

policy,shed,failovers
rr,12,0

"""


class ParseTables(unittest.TestCase):
    def test_comma_titles_pair_with_their_own_tables(self):
        tables = parse_tables(STDOUT)
        self.assertEqual(len(tables), 2)
        self.assertEqual(tables[0]["title"],
                         "Steady state: 4 nodes, JSQ(2), 20k requests")
        self.assertEqual(tables[0]["header"], ["policy", "p99 ms"])
        self.assertEqual(tables[0]["rows"], [["jsq2", "1.25"]])
        self.assertEqual(tables[1]["title"],
                         "Node failure at 200 ms, node 1 of 4, no retries")
        self.assertEqual(tables[1]["header"],
                         ["policy", "shed", "failovers"])
        self.assertEqual(tables[1]["rows"], [["rr", "12", "0"]])


if __name__ == "__main__":
    unittest.main()
