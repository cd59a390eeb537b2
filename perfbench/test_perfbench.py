#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

- every workload's work grows with its size parameters and repeats exactly
  at a fixed seed (the binary's --selftest);
- a run prints exactly the metric names BENCHMARK.json defines, for both
  --trace 0 and --trace 1, with every op verified;
- the benchmark refuses to run with INDAAS_CHAOS set.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, env=None):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          env=env)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.definition = json.load(f)

    def test_work_scales_and_repeats(self):
        proc = run(["--selftest", "--seed", "5"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = [line for line in proc.stdout.splitlines() if line.strip()]
        # One repeat check and two growth checks per workload.
        self.assertEqual(len(lines), 3 * len(self.definition["workloads"]), proc.stdout)
        for line in lines:
            self.assertTrue(line.startswith("PASS "), line)

    def test_result_names_match_definition(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", "svc_mixed", "--seed", "2", "--seconds", "1",
                        "--trace", str(trace)])
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = {m["name"]: m["unit"] for m in self.definition[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected)

    def test_refuses_chaos(self):
        env = dict(os.environ, INDAAS_CHAOS="seed=1")
        proc = run(["--workload", "svc_mixed", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
