#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload sim_apps --seed 1 --seconds 30 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt: the repo's
libraries and cash_serviced from source, plus the perfbench binary)
into .bench_build/perfbench, runs the workload, and prints the
binary's report. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end-to-end
metric of BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1 (a layer the workload does not reach reads 0). Traces and
per-layer tables go to .bench_build/out. Before a svc_* workload it
runs the driver's tests (perfbench_tests).

Exit status: 0 when every correctness check held, 1 when one failed,
2 when the benchmark could not be built or run.
"""

import argparse
import ctypes
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "out")
WORKLOADS = ("sim_apps", "svc_mixed")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def die_with_parent():
    """In the child: get SIGKILL when this script dies, so no run
    outlives it (prctl PR_SET_PDEATHSIG; Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def build():
    """Configure once, then build (a no-op when nothing changed)."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                      "perfbench", "cash_serviced", "perfbench_tests"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def driver_tests():
    """The driver's own tests (mix, latency from due time, lateness,
    exactly-once): a daemon workload's latencies mean nothing if the
    driver mis-times them."""
    log_path = os.path.join(BUILD, "driver_tests.log")
    with open(log_path, "w") as log:
        rc = subprocess.call([os.path.join(BUILD, "perfbench_tests")],
                             stdout=log, stderr=subprocess.STDOUT,
                             preexec_fn=die_with_parent)
    if rc != 0:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail("driver tests failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    if args.workload.startswith("svc_"):
        driver_tests()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(BUILD, "cash_serviced"),
           "--golden", os.path.join("perfbench", "golden_sim_apps.json"),
           "--out", OUT]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=die_with_parent)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # Every listed metric, each finite and in its declared unit. A
    # per-layer metric the workload does not reach reads 0.
    got = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(got) - names)
    if extra:
        fail("metrics not in BENCHMARK.json: %s" % ", ".join(extra))
    metrics = {}
    for m in wanted:
        v = got.get(m["name"])
        if v is None:
            if not args.trace:
                fail("end-to-end metric %s missing" % m["name"])
            v = {"value": 0, "unit": m["unit"]}
        if v["unit"] != m["unit"]:
            fail("%s reported in %s, declared %s"
                 % (m["name"], v["unit"], m["unit"]))
        if not math.isfinite(v["value"]):
            fail("%s is not finite" % m["name"])
        if not args.trace and v["value"] <= 0:
            fail("end-to-end metric %s is %r" % (m["name"], v["value"]))
        metrics[m["name"]] = v
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
