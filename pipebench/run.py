#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
pipebench (and the repository libraries it drives) into .bench_build/;
later runs reuse that build. Workload parameters come from
pipebench/workloads.json; `--set key=value` overrides one for this run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics BENCHMARK.json lists; with --trace 1 they are
its per-layer metrics, and the spans of the run are written to
.bench_out/. A workload measures the per-layer metrics LAYERS claims for
it; the others read 0, as the layers it does not exercise. The line
before the result carries the run's metadata, the sample count behind
every metric, the per-layer metrics filled with 0 (idle_layers), and the
measured metrics the list leaves out (the latency percentiles of an
untraced run).
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "pipebench")
WORK_DIR = os.path.join(ROOT, ".bench_tmp")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The per-layer metrics each workload measures (fnmatch patterns).
LAYERS = {
    "fleet_replay": [
        "netlogger.*", "yang.*", "loader.*", "orm.*", "db.commit_ms_p50",
        "db.wal_bytes_per_event", "db.recover_s", "bench.*"],
    "live_monitor": [
        "netlogger.*", "yang.*", "loader.dispatch_cpu_ns_per_event",
        "loader.backpressure_wait_ns_per_event", "loader.lane_cpu_us_per_event",
        "loader.queue_to_commit_ms_p50", "loader.ack_ms_*", "loader.events_*",
        "loader.replay_deduped", "orm.*", "db.commit_ms_p50",
        "db.wal_bytes_per_event", "db.recover_s", "view.*", "bus.*", "net.*",
        "generator.*", "bench.error_frac"],
    "dashboard_read": [
        "db.recover_s", "db.compact_s", "db.plan_*", "db.segment_*", "query.*",
        "bench.error_frac"],
    "cluster_replay": [
        "netlogger.*", "yang.*", "cluster.*", "loader.ack_ms_*", "loader.events_*",
        "loader.replay_deduped", "orm.*", "db.wal_bytes_per_event", "bench.error_frac"],
}


def claims(workload, metric):
    """Whether `workload` measures the per-layer metric `metric`."""
    return any(fnmatch.fnmatchcase(metric, p) for p in LAYERS[workload])


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds pipebench; a no-op when it is up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("repository sources (src/) not found next to pipebench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "pipebench", "-j", jobs],
        check=True, stdout=sys.stderr)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a workload parameter")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    if args.workload not in workloads or args.workload not in LAYERS:
        fail("unknown workload " + args.workload)
    params = dict(workloads[args.workload])
    for item in args.set:
        key, sep, value = item.partition("=")
        if not sep:
            fail("--set wants KEY=VALUE, got " + item)
        params[key] = value

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    for key, value in sorted(params.items()):
        cmd += ["--set", "%s=%s" % (key, value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail("pipebench exited with %d" % proc.returncode)
    meta = json.loads(lines[-2])
    raw = json.loads(lines[-1])

    # Exactly the metrics BENCHMARK.json lists for this mode, in its order.
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    idle = []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        measured = not args.trace or claims(args.workload, m["name"])
        if measured and got is None:
            fail("metric %s missing from the %s run" % (m["name"], args.workload))
        if not measured:
            if got is not None:
                fail("the %s run reports %s, which LAYERS does not claim"
                     % (args.workload, m["name"]))
            idle.append(m["name"])
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            continue
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    # Metrics the program measured beyond this mode's list (the latency
    # percentiles of an untraced run) stay visible in the metadata line.
    meta["other_metrics"] = {name: m for name, m in raw["metrics"].items()
                             if name not in metrics}
    meta["idle_layers"] = idle
    for line in lines[:-2]:
        print(line)
    print(json.dumps(meta))
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
