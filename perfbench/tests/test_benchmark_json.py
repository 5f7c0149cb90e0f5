"""Checks BENCHMARK.json against the benchmark contract and against the
metric lists perfbench/run.py prints.

    python3 -m unittest discover -s perfbench/tests
"""

import importlib.util
import json
import re
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_run():
    spec = importlib.util.spec_from_file_location("run", HERE.parent / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runner = load_run()

    def test_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_matches_runner(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                         self.runner.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]},
                         self.runner.PER_LAYER)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(self.runner.WORKLOADS))
        self.assertEqual(self.bench["paths"], ["perfbench"])


if __name__ == "__main__":
    unittest.main()
