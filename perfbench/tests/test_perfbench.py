"""Tests of the node benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Checks BENCHMARK.json against its format rules, checks that the
program emits every metric the file names, and builds and runs the C++
self-test of the pure helpers (percentile selection, the seeded
open-loop schedule, windowed summaries, the stage table).
"""

import json
import os
import re
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_benchmark()

    def test_keys(self):
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"})
        self.assertIn(self.spec["run_seconds"], range(1, 61))
        for path in self.spec["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue(os.path.isdir(os.path.join(ROOT, path)))

    def test_names_are_valid_and_unique(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[group]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_metric_fields(self):
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         ["ingest", "resolve", "failover"])
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_program_emits_every_metric(self):
        # Each metric reaches the JSON result through Report::metric with
        # its name as a string literal.
        sources = ""
        for name in os.listdir(os.path.join(BENCH, "src")):
            with open(os.path.join(BENCH, "src", name)) as f:
                sources += f.read()
        emitted = set(re.findall(r'metric\(\s*"([^"]+)"', sources))
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertIn(m["name"], emitted, m["name"])


class SelfTest(unittest.TestCase):
    def test_helpers(self):
        out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        out = out if os.path.isabs(out) else os.path.join(ROOT, out)
        subprocess.run(["cmake", "-S", BENCH, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run(["cmake", "--build", out, "--target",
                        "perfbench_selftest"],
                       check=True, stdout=subprocess.DEVNULL)
        res = subprocess.run([os.path.join(out, "perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(res.returncode, 0, res.stdout)


if __name__ == "__main__":
    unittest.main()
