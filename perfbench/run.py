#!/usr/bin/env python3
"""One run of the ReTwis benchmark against the real lambdastore-server.

    python3 perfbench/run.py --workload timeline|post|mix --seed N \
        --seconds S --trace 0|1 [--graph-seed 42]

Run from the repository root. Builds the server and the driver from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, then runs perfbench-driver, which prints a detail line
and, as the last line of standard output, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(it adds the traced run). Results and span files go to .bench_out/.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170  # the driver's own run; the build is separate


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures on first use, then builds incrementally. Output goes to
    a log file so standard output carries only the result."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_driver", "lambdastore_server", "-j", jobs])
    with open(log_path, "a") as out:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=out,
                               stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                log("build failed (full log: %s)" % log_path)
                return False
    return True


def stop_group(proc):
    """Kills whatever is left of the driver's session and waits until
    every process in it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["timeline", "post", "mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--graph-seed", type=int, default=42,
                        help="seed of the social graph the server is seeded with")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 1
    work_dir = os.path.join(build_dir, "run")
    out_dir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(out_dir, exist_ok=True)

    command = [
        os.path.join(build_dir, "perfbench-driver"),
        "--server-bin=" + os.path.join(build_dir, "lambdastore-server"),
        "--work-dir=" + work_dir,
        "--out-dir=" + out_dir,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--graph-seed=%d" % args.graph_seed,
    ]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    signal.signal(signal.SIGTERM, lambda *_: (stop_group(proc), sys.exit(1)))
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        stop_group(proc)
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("driver failed with exit code %d" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("driver printed no result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
