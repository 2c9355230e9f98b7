#!/usr/bin/env python3
"""Consistency tests of the SYRK benchmark itself.

    python3 syrkbench/test_bench.py

Runs the benchmark with short windows from the root of the checkout and
checks that
  * every run is correct and prints exactly the metrics BENCHMARK.json names,
    and every per-layer time is measured (positive);
  * on each direct workload the layer times plus core.unattributed_us add up
    to core.syrk_us, the traced run's median core::syrk latency;
  * the count metrics repeat exactly across two runs on one seed;
  * simmpi.words_max equals the busiest rank's words that
    `parsyrk --op syrk --n1 <n1> --n2 <n2> --procs 4` prints for the shape;
  * the benchmark fails, without a result line, in a directory that holds
    only BENCHMARK.json and the benchmark's own files.
"""
import json
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SECONDS = "2"
SEED = "7"
SHAPES = {"small_1d": (64, 64), "square_1d": (1024, 1024),
          "tall_2d": (4096, 64)}
LAYERS = ["planner.resolve_us", "simmpi.dispatch_us", "simmpi.collective_us",
          "matrix.kernel_us", "core.assembly_us", "core.unattributed_us"]
COUNTS_TRACED = ["simmpi.words_max", "simmpi.messages_max",
                 "matrix.pack_bytes"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_cache = {}


def run_bench(workload, trace, seed=SEED, repeat=0):
    """Result line of one run (cached per argument tuple)."""
    key = (workload, trace, seed, repeat)
    if key not in _cache:
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", seed, "--seconds", SECONDS, "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        if p.returncode != 0:
            raise AssertionError(f"{workload} trace={trace} exited "
                                 f"{p.returncode}:\n{p.stderr[-3000:]}")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        _cache[key] = {k: v["value"] for k, v in result["metrics"].items()}
        _cache[key]["_result"] = result
    return _cache[key]


class BenchmarkTest(unittest.TestCase):
    def test_runs_are_correct_and_complete(self):
        for spec_key, trace in (("end_to_end", 0), ("per_layer", 1)):
            names = {m["name"] for m in SPEC[spec_key]}
            for w in SPEC["workloads"]:
                r = run_bench(w["name"], trace)["_result"]
                self.assertTrue(r["correct"], (w["name"], trace))
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.assertEqual(set(r["metrics"]), names, (w["name"], trace))

    def test_traced_times_are_measured(self):
        for w in SPEC["workloads"]:
            m = run_bench(w["name"], 1)
            for spec in SPEC["per_layer"]:
                if spec["unit"] == "us" and spec["name"] != "core.unattributed_us":
                    self.assertGreater(m[spec["name"]], 0, (w["name"], spec))

    def test_layers_add_up_to_the_call(self):
        for w in SHAPES:
            m = run_bench(w, 1)
            total = sum(m[name] for name in LAYERS)
            self.assertAlmostEqual(total, m["core.syrk_us"],
                                   delta=1e-6 * m["core.syrk_us"], msg=w)

    def test_counts_repeat_on_one_seed(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            for metric in COUNTS_TRACED:
                self.assertEqual(run_bench(name, 1)[metric],
                                 run_bench(name, 1, repeat=1)[metric],
                                 (name, metric))
            self.assertEqual(run_bench(name, 0)["comm_words_ratio"],
                             run_bench(name, 0, repeat=1)["comm_words_ratio"],
                             name)

    def test_words_match_the_cli(self):
        cli = bench.build("parsyrk")
        for w, (n1, n2) in SHAPES.items():
            out = subprocess.run(
                [str(cli), "--op", "syrk", "--n1", str(n1), "--n2", str(n2),
                 "--procs", "4"], capture_output=True, text=True, check=True,
                timeout=300).stdout
            total = re.search(r"^\|\s*total\s*\|\s*(\d+)\s*\|", out, re.M)
            self.assertIsNotNone(total, out)
            self.assertEqual(float(total.group(1)),
                             run_bench(w, 1)["simmpi.words_max"], w)

    def test_fails_without_the_repository(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        cmd = [sys.executable, *SPEC["command"][1:], "--workload", "small_1d",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        p = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                           timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
