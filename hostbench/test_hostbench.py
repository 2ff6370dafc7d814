"""Tests of the host-time benchmark's own code.

Run from the repository root (builds on first use; about two minutes,
most of it in fig5_p16's checked passes):

    python3 -m unittest discover -s hostbench -p 'test_*.py' -v
"""

import copy
import json
import math
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

PHASES = ("make_s", "create_s", "configure_s", "run_s", "stats_s",
          "teardown_s")


def run_bench(*args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] +
                       list(args), cwd=run.ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    return p.returncode, p.stdout, p.stderr


def fake_pass(wall, setup, run_s, events, probe):
    return {"pass": {"wall_s": wall}, "probe_s": probe,
            "configs": [{"make_s": setup, "create_s": 0.0,
                         "configure_s": 0.0, "run_s": run_s,
                         "counts": {"dsm.sim_events": events}}]}


class ProbeFitTest(unittest.TestCase):
    def test_fit_recovers_power_law_exponents(self):
        # Fastest-pass metrics that follow the median probe exactly:
        # wall ~ probe^0.8, setup ~ probe^0.5, rate ~ probe^-1.2.
        windows = []
        for i in range(12):
            probe = 0.1 * (1 + 0.05 * i)
            passes = [fake_pass(2.0 * probe ** 0.8 * (1 + 0.1 * k),
                                0.3 * probe ** 0.5 * (1 + 0.1 * k),
                                1.0, 5e6 * probe ** -1.2 / (1 + 0.1 * k),
                                probe)
                      for k in range(4)]
            windows.append(run.fit_window([probe] * 4, {"w": passes}))
        exponents, spreads = run.fit_exponents(windows, ["w"])
        self.assertAlmostEqual(exponents["w"]["wall_s"], 0.8, places=3)
        self.assertAlmostEqual(exponents["w"]["setup_s"], 0.5, places=3)
        self.assertAlmostEqual(exponents["w"]["events_per_s"], 1.2,
                               places=3)
        for k in run.SCALED:
            self.assertGreater(spreads["w"][k]["unscaled"], 0.1)
            self.assertLess(spreads["w"][k]["scaled"], 1e-3)


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = run.benchmark_spec()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]
        cls.goldens = run.load_goldens()

    def test_split_path_matches_run_experiment(self):
        # Elapsed, messages, checksum bits and service statistics of
        # every config equal runExperiment's, checked or not.
        cases = [(w, []) for w in self.workloads]
        cases.append((run.CHECK_LAYER_WORKLOAD, ["--checked"]))
        for w, extra in cases:
            with self.subTest(workload=w, extra=extra):
                out = run.job(self.binary, ["--workload", w, "--seed", "1",
                                            "--verify-split"] + extra)
                self.assertEqual(out["mismatches"], 0)
                self.assertGreater(out["configs"], 0)

    def test_corrupted_golden_is_a_failure_naming_the_field(self):
        p = run.job(self.binary, ["--workload", "scale512", "--seed", "1"])
        self.assertEqual(run.check_digests(p["configs"], self.goldens[1]), [])
        for field in run.DIGEST_FIELDS:
            with self.subTest(field=field):
                golden = copy.deepcopy(self.goldens[1])
                key = p["configs"][3]["config"]
                v = golden[key][field]
                golden[key][field] = (v + 1 if isinstance(v, int)
                                      else "0x" + "f" * 16)
                failures = run.check_digests(p["configs"], golden)
                self.assertEqual(len(failures), 1)
                self.assertIn(key, failures[0])
                self.assertIn(field, failures[0])

    def test_every_metric_is_emitted_for_every_workload(self):
        for w in self.workloads:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    # --seed names the run; the inputs stay app seed 1.
                    rc, out, err = run_bench("--workload", w, "--seed", "7",
                                             "--seconds", "1", "--trace",
                                             str(trace))
                    self.assertEqual(rc, 0, err)
                    self.assertIn("seed 7 (app seed 1)", out)
                    result = json.loads(out.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    got = result["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, unit in want.items():
                        self.assertEqual(got[name]["unit"], unit)
                        self.assertTrue(math.isfinite(got[name]["value"]))
                    if kind == "end_to_end":
                        for name in want:
                            self.assertGreater(got[name]["value"], 0, name)

    def test_phase_spans_sum_to_pass_wall(self):
        for w in ("scale512", "fig5_p16"):
            with self.subTest(workload=w):
                p = run.job(self.binary, ["--workload", w, "--seed", "1",
                                          "--trace", "1"])
                wall = p["pass"]["wall_s"]
                phases = sum(c[k] for c in p["configs"] for k in PHASES)
                self.assertLess(abs(wall - phases) / wall, 0.03)
                spans = p["spans"]
                root = [s for s in spans if s["parent"] < 0]
                self.assertEqual([s["name"] for s in root], ["pass"])
                configs = [s for s in spans if s["name"] == "config"]
                self.assertEqual(len(configs), len(p["configs"]))
                span_sum = sum(s["end_s"] - s["start_s"] for s in configs)
                self.assertLess(abs(wall - span_sum) / wall, 0.03)

    def test_bad_input_exits_2_with_a_message(self):
        cases = [
            ["--workload", "nope"],
            ["--workload", "scale512", "--seed", "abc"],
            ["--workload", "scale512", "--frob", "1"],
            ["--workload", "scale512", "--app-seed", "99"],
            ["--workload", "scale512", "--trace", "2"],
        ]
        for args in cases:
            with self.subTest(args=args):
                rc, out, err = run_bench(*args)
                self.assertEqual(rc, 2)
                self.assertEqual(out, "")
                self.assertNotEqual(err.strip(), "")
        for args in (["--workload", "nope"], ["--seed", "1", "--frob"],
                     ["--workload", "scale512", "--seed", "-1"]):
            with self.subTest(binary_args=args):
                p = subprocess.run([self.binary] + args,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
                self.assertEqual(p.returncode, 2)
                self.assertEqual(p.stdout, "")
                self.assertIn("hostbench:", p.stderr)


if __name__ == "__main__":
    unittest.main()
