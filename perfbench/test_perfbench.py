"""The benchmark's own test.

Runs every workload at a tiny scale on two seeds, in both modes, through
the command in BENCHMARK.json, and checks that no iteration fails, that
the printed metric names are exactly those BENCHMARK.json lists (in its
order, with its units), and that every name uses only letters, digits,
`_`, `.` and `-`.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py
"""

import json
import re
import subprocess
import unittest

SEEDS = (1, 2)
SCALE = "0.01"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open("BENCHMARK.json", encoding="utf-8") as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    out = subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=600, check=False,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    def test_names_are_well_formed(self):
        for group in ("workloads", "end_to_end", "per_layer"):
            names = [m["name"] for m in SPEC[group]]
            self.assertEqual(len(names), len(set(names)), group)
            for name in names:
                self.assertRegex(name, NAME)

    def test_every_workload_runs_clean_on_two_seeds(self):
        for spec in SPEC["workloads"]:
            for seed in SEEDS:
                for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=spec["name"], seed=seed, trace=trace):
                        prov, result = run(spec["name"], seed, trace)
                        self.assertEqual(
                            sorted(result), ["attempted", "correct", "failed", "metrics"])
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertTrue(prov["smoke"])
                        self.assertEqual(prov["seed"], seed)
                        printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
                        listed = [(m["name"], m["unit"]) for m in SPEC[group]]
                        self.assertEqual(printed, listed)


if __name__ == "__main__":
    unittest.main()
