#!/usr/bin/env python3
"""Self-checks of the session benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then runs a short, fixed-length form
of each workload (a fixed number of updates rather than a time budget):

* exact repeat: two runs with one seed give identical messages, kill
  messages, wire bytes and operator state, plus identical BDD unique-table
  probes on the 1-shard workloads;
* layer mix: churn_dred makes no BDD probes and churn_absorption some;
* the metric names match BENCHMARK.json, and a traced run writes a Chrome
  trace whose Apply spans carry the BDD and network counter deltas.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own runner: build() and paths)

SEED = 7
UPDATES = {"churn_absorption": 60, "churn_dred": 60, "multiview_ttl": 48}
ONE_SHARD = ("churn_absorption", "churn_dred")


def short_run(binary, workload, trace_out=None):
    with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as work_dir:
        command = [binary, "--workload", workload, "--seed", str(SEED),
                   "--updates", str(UPDATES[workload]),
                   "--work-dir", work_dir]
        if trace_out:
            command += ["--trace-out", trace_out]
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              universal_newlines=True, timeout=170)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


class PerfbenchSelfCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.BUILD_DIR, exist_ok=True)
        cls.binary = run.build()
        cls.results = {}
        for workload in run.WORKLOADS:
            cls.results[workload] = [short_run(cls.binary, workload)
                                     for _ in range(2)]

    def test_runs_are_correct(self):
        for workload, runs in self.results.items():
            for code, result in runs:
                self.assertEqual(code, 0, workload)
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0, workload)
                self.assertGreater(result["attempted"], 0, workload)

    def test_exact_repeat(self):
        for workload, ((_, first), (_, second)) in self.results.items():
            keys = ["messages", "kill_messages", "bytes", "state_mb"]
            if workload in ONE_SHARD:
                keys.append("bdd_unique_probes")
            for key in keys:
                self.assertEqual(first["counters"][key],
                                 second["counters"][key],
                                 "%s: %s differs between two runs" %
                                 (workload, key))
            self.assertGreater(first["counters"]["messages"], 0, workload)

    def test_layer_mix(self):
        dred = self.results["churn_dred"][0][1]["counters"]
        absorption = self.results["churn_absorption"][0][1]["counters"]
        self.assertEqual(dred["bdd_unique_probes"], 0)
        self.assertGreater(absorption["bdd_unique_probes"], 0)

    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        for workload, ((_, result), _) in self.results.items():
            for section, end_to_end in (("end_to_end", True),
                                        ("per_layer", False)):
                want = {(m["name"], m["unit"]) for m in spec[section]}
                got = {(name, m["unit"])
                       for name, m in result["metrics"].items()
                       if m["end_to_end"] == end_to_end}
                self.assertEqual(got, want, "%s %s" % (workload, section))

    def test_trace_spans_carry_counter_deltas(self):
        trace = os.path.join(run.BUILD_DIR, "selfcheck-trace.json")
        code, result = short_run(self.binary, "churn_absorption", trace)
        self.assertEqual(code, 0)
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        os.remove(trace)
        self.assertEqual(len(events), result["metrics"]["trace.spans"]["value"])
        applies = [e for e in events
                   if e["name"] == "Apply" and e["cat"] == "engine"]
        self.assertTrue(applies)
        for event in applies:
            self.assertIn("bdd_probes", event["args"])
            self.assertIn("messages", event["args"])
        layers = {e["cat"] for e in events}
        self.assertTrue({"datalog", "engine", "views", "persist"} <= layers)


if __name__ == "__main__":
    unittest.main()
