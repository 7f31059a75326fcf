#!/usr/bin/env python3
"""Tests of the pipeline benchmark itself.

    python3 pipebench/tests/test_pipebench.py

Builds pipebench through run.py (into .bench_build/ unless
CARGO_TARGET_DIR says otherwise) and runs every workload on a tiny fleet
in both modes. A run fails the tests when its outputs are wrong, when a
metric BENCHMARK.json names is missing or has another unit, when a
per-layer metric the workload claims has no samples, or when a
percentile lacks ten samples beyond it.
"""

import fnmatch
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

sys.path.insert(0, BENCH_DIR)
import run as pipebench_run  # noqa: E402  (pipebench/run.py)

# Tiny fleets: every workload finishes in a few seconds.
MIX = ["montage=16:2,64:1", "chain=16:2", "forkjoin=16:2", "dart=16:1"]
HISTORY = ["history_montage=16:2", "history_chain=16:1", "history_forkjoin=16:1",
           "history_dart=16:1"]
TINY = {
    "fleet_replay": MIX + HISTORY,
    "live_monitor": MIX,
    "dashboard_read": MIX,
    "cluster_replay": MIX + HISTORY,
}


def run(workload, trace, seconds="1", extra=(), cwd=ROOT, timeout=900):
    cmd = [sys.executable, os.path.join(cwd, "pipebench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", seconds,
           "--trace", str(trace)]
    for item in list(TINY[workload]) + list(extra):
        cmd += ["--set", item]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class WorkloadSmokeTest(unittest.TestCase):
    def check_run(self, workload, trace, extra=()):
        bench = load_bench()
        proc = run(workload, trace, extra=extra)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(meta["problems"], [], meta["problems"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
            if trace and not pipebench_run.claims(workload, m["name"]):
                # A layer the workload does not exercise reads 0.
                self.assertIn(m["name"], meta["idle_layers"])
                self.assertEqual(got["value"], 0, m["name"])
                continue
            self.assertNotIn(m["name"], meta["idle_layers"])
            self.assertGreater(meta["samples"].get(m["name"], 0), 0, m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        for key in ("hardware_concurrency", "build_type", "compiler", "seed",
                    "params", "fleet_lines"):
            self.assertIn(key, meta["meta"])
        if trace:
            spans = os.path.join(ROOT, ".bench_out", "spans-%s-7.jsonl" % workload)
            with open(spans) as f:
                first = json.loads(f.readline())
            self.assertEqual(set(first), {"name", "start_s", "end_s", "parent"})

    def test_fleet_replay(self):
        self.check_run("fleet_replay", 0)
        self.check_run("fleet_replay", 1)

    def test_live_monitor(self):
        self.check_run("live_monitor", 0)
        self.check_run("live_monitor", 1)

    def test_dashboard_read(self):
        self.check_run("dashboard_read", 0)
        self.check_run("dashboard_read", 1)

    def test_cluster_replay(self):
        self.check_run("cluster_replay", 0)
        self.check_run("cluster_replay", 1)

    def test_cluster_replay_replicated(self):
        # The hand-run variant: every primary replicates to a follower.
        self.check_run("cluster_replay", 1, extra=["replicate=1"])

    def test_every_workload_claims_its_layers(self):
        # A claim that matches no listed metric is a stale LAYERS entry.
        names = [m["name"] for m in load_bench()["per_layer"]]
        for workload, patterns in pipebench_run.LAYERS.items():
            for pattern in patterns:
                self.assertTrue(any(fnmatch.fnmatchcase(n, pattern)
                                    for n in names), (workload, pattern))
        claimed = {n for n in names
                   if any(pipebench_run.claims(w, n) for w in pipebench_run.LAYERS)}
        self.assertEqual(claimed, set(names))


class GuardTest(unittest.TestCase):
    def test_percentile_without_ten_samples_beyond_fails_the_run(self):
        # A millisecond of pages leaves no ten samples beyond p90.
        proc = run("dashboard_read", 0, seconds="0.001")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])
        self.assertFalse(result["correct"])
        self.assertTrue(any("samples beyond" in p for p in meta["problems"]))

    def test_unacked_events_fail_the_run_without_a_crash(self):
        # Two milliseconds of sending and of waiting: the lanes commit
        # only after the pump has been idle for longer, so events are
        # still unacked when the wait ends and the system is torn down.
        proc = run("live_monitor", 0, seconds="0.002")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("events acked after commit" in p for p in meta["problems"]),
                        meta["problems"])

    def test_fails_without_repository_sources(self):
        # A checkout holding only BENCHMARK.json and pipebench/ cannot
        # build, so the benchmark must fail without printing a result.
        bare = os.path.join(ROOT, ".bench_tmp", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "pipebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run(
            [sys.executable, "pipebench/run.py", "--workload", "fleet_replay",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
