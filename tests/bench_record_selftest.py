#!/usr/bin/env python3
"""Self-test of tools/bench-record, with no server and no build.

Two temporary checkouts each hold a stub perfbench/run.py that prints a
canned detail line and result line derived from its side and the seed,
and logs each call. bench-record records three seeds of two workloads
from them; the test checks the pairing order, the recorded runs, the
medians, that a run printing no result makes bench-record exit 1 while
the others are kept, and that tools/bench-diff reads the record.
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics scale with the side's factor and the seed, so the medians over
# seeds 1-3 are the seed-2 values.
STUB = r'''#!/usr/bin/env python3
import argparse, json, os, sys
FACTOR = %(factor)d
here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
p = argparse.ArgumentParser()
p.add_argument("--workload"); p.add_argument("--seed", type=int)
p.add_argument("--seconds", type=float); p.add_argument("--trace", type=int)
a = p.parse_args()
with open(os.path.join(os.path.dirname(here), "calls.log"), "a") as log:
    log.write("%%s %%s %%d %%g %%d\n" %% (os.path.basename(here), a.workload,
                                       a.seed, a.seconds, a.trace))
if FACTOR == 2 and a.workload == "post" and a.seed == 2:
    sys.exit(1)  # a failed build or run prints no result
detail = {"workload": a.workload, "seed": a.seed,
          "machine": {"nproc": 4, "cpu_model": "stub cpu", "kernel": "stub 1.0",
                      "cpu_split": "generator=0 server=1-3"},
          "host_steal_share": 0.01 * a.seed,
          "server_counters_delta": {"gc_commits": 10 * FACTOR * a.seed,
                                    "db_stall_hard": a.seed}}
metrics = {"tput_ops_s": ("ops/s", 100.0 * FACTOR * a.seed),
           "p50_ms": ("ms", 1.0 * a.seed), "cpu_us_per_op": ("us", 50.0 * FACTOR),
           "server_rss_mb": ("MiB", 20.0), "setup_s": ("s", 0.5)}
result = {"correct": True, "attempted": 100, "failed": 0,
          "metrics": {name: {"value": value, "unit": unit}
                      for name, (unit, value) in metrics.items()}}
print("perfbench: stub", file=sys.stderr)
print(json.dumps({"perfbench_detail": detail}))
print(json.dumps(result))
'''


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for side, factor in (("old", 1), ("new", 2)):
            os.makedirs(os.path.join(tmp, side, "perfbench"))
            with open(os.path.join(tmp, side, "perfbench", "run.py"), "w") as f:
                f.write(STUB % {"factor": factor})
        out = os.path.join(tmp, "record.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "bench-record"),
             "--out", out, "--side", "parent=" + os.path.join(tmp, "old"),
             "--side", "change=" + os.path.join(tmp, "new"),
             "--workloads", "timeline,post", "--seeds", "1-3", "--seconds", "7"],
            capture_output=True, text=True)
        print(proc.stdout + proc.stderr)
        check(proc.returncode == 1, "a run with no result must make it exit 1")
        check("change post seed 2 printed no result" in proc.stderr,
              "the missing run is not named")

        with open(os.path.join(tmp, "calls.log")) as f:
            calls = f.read().split("\n")[:-1]
        check(calls == ["old timeline 1 7 0", "new timeline 1 7 0",
                        "new timeline 2 7 0", "old timeline 2 7 0",
                        "old timeline 3 7 0", "new timeline 3 7 0",
                        "old post 1 7 0", "new post 1 7 0",
                        "new post 2 7 0", "old post 2 7 0",
                        "old post 3 7 0", "new post 3 7 0"],
              "runs are not alternating pairs: %r" % calls)

        with open(out) as f:
            record = json.load(f)
        check(record["machine"] == {"nproc": 4, "kernel": "stub 1.0",
                                    "cpu": "stub cpu",
                                    "cpu_split": "generator=0 server=1-3"},
              "machine: %r" % record["machine"])
        parent = record["sides"]["parent"]
        change = record["sides"]["change"]
        check(parent["commit"] == "unknown", "commit of a non-git checkout")
        timeline = parent["workloads"]["timeline"]
        check([r["seed"] for r in timeline["runs"]] == [1, 2, 3], "seeds")
        check(timeline["runs"][1] == {
            "seed": 2, "host_steal_share": 0.02, "correct": True, "failed": 0,
            "metrics": {"tput_ops_s": 200.0, "p50_ms": 2.0,
                        "cpu_us_per_op": 50.0, "server_rss_mb": 20.0,
                        "setup_s": 0.5}}, "run: %r" % timeline["runs"][1])
        check(timeline["medians"]["tput_ops_s"] == 200.0, "parent median")
        check(timeline["server_counters_delta_medians"] ==
              {"db_stall_hard": 2, "gc_commits": 20}, "parent counter medians")
        check(change["workloads"]["timeline"]["medians"]["tput_ops_s"] == 400.0,
              "change median")
        post = change["workloads"]["post"]
        check([r["seed"] for r in post["runs"]] == [1, 3],
              "the failed run must be left out, the others kept")
        check(post["medians"]["tput_ops_s"] == 400.0, "median of two runs")
        check(post["server_counters_delta_medians"]["gc_commits"] == 40,
              "counter median of two runs")

        diff = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "bench-diff"),
             out + ":parent", out + ":change"], capture_output=True, text=True)
        check(diff.returncode == 0, "bench-diff failed: " + diff.stderr)
        rows = {tuple(line.split()[:2]): line.split()
                for line in diff.stdout.splitlines()}
        check(rows.get(("timeline", "tput_ops_s"), [])[2:4] == ["200.00", "400.00"],
              "bench-diff row: %r" % rows.get(("timeline", "tput_ops_s")))
        check(rows.get(("post", "cpu_us_per_op"), [])[-3:] == ["WORSE", ">", "bound"],
              "bench-diff verdict: %r" % rows.get(("post", "cpu_us_per_op")))
        check(diff.stdout == proc.stdout[proc.stdout.index("workload "):],
              "bench-record must end by printing bench-diff's table")
    print("bench-record self-test passed")


if __name__ == "__main__":
    main()
