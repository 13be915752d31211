#!/bin/sh
# Performance trajectory: measure the numbers that gate the repo's
# usefulness — simulated instructions per host second and the host
# time of a reconfiguration round trip (bench_sim_speed,
# google-benchmark JSON), and service responses per host second
# (bench_service stderr) — and compare them against the committed
# baselines at the repo root:
#
#   BENCH_sim_speed.json   one row per benchmark
#   BENCH_service.json     one row per (sessions x pacing x shards)
#
# Every row is {"value": v, "unit": u, "better": "higher"|"lower"}.
# A benchmark that reports items per second is a throughput (higher
# is better); one that does not (BM_Reconfiguration) is recorded as
# host microseconds per iteration (lower is better).
#
# The bench_service cells run one at a time (CASH_BENCH_THREADS=1):
# concurrent cells would time each other's daemons and sessions.
#
# The comparison is SOFT by default: host variance between CI
# runners dwarfs real regressions, so a drop only warns. Set
# CASH_PERF_STRICT=1 to turn warnings into failures (for controlled
# hosts). A row whose value is zero or missing, in the baseline or in
# this run, always fails: it could never register a regression. Run
# with --update to rewrite the baselines from this run (commit the
# result to move the trajectory).
#
#   tools/perf_trajectory.sh <build-dir> [--update]
set -eu

BUILD=${1:?usage: perf_trajectory.sh <build-dir> [--update]}
UPDATE=${2:-}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# --- Measure ----------------------------------------------------

"$BUILD/bench/bench_sim_speed" \
    --benchmark_out="$DIR/sim_speed.json" \
    --benchmark_format=json \
    --benchmark_min_time=0.2 > /dev/null 2>&1

CASH_BENCH_FAST=1 CASH_BENCH_THREADS=1 "$BUILD/bench/bench_service" \
    > /dev/null 2> "$DIR/service.err"

python3 - "$DIR" <<'EOF'
import json, re, sys
d = sys.argv[1]

# google-benchmark output -> rows. Time units to microseconds.
US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}
raw = json.load(open(f"{d}/sim_speed.json"))
sim = {}
for b in raw["benchmarks"]:
    if "items_per_second" in b:
        sim[b["name"]] = {"value": round(b["items_per_second"], 1),
                          "unit": "inst/s", "better": "higher"}
    else:
        sim[b["name"]] = {
            "value": round(b["real_time"] * US[b["time_unit"]], 3),
            "unit": "us/iteration", "better": "lower"}
json.dump({"benchmarks": sim},
          open(f"{d}/BENCH_sim_speed.json", "w"), indent=1)

# bench_service reports host throughput per grid cell on stderr:
#   "service <N> sessions <pacing> x<S> shards: <R> req/s, ..."
cells = {}
pat = re.compile(r"service (\d+) sessions (\S+) x(\d+) shards: "
                 r"(\d+) req/s")
for line in open(f"{d}/service.err"):
    m = pat.search(line)
    if m:
        key = f"{m.group(1)}-sessions/{m.group(2)}/{m.group(3)}-shards"
        cells[key] = {"value": int(m.group(4)), "unit": "responses/s",
                      "better": "higher"}
json.dump({"cells": cells},
          open(f"{d}/BENCH_service.json", "w"), indent=1)
EOF

# --- Compare against the committed baselines (soft) -------------

python3 - "$DIR" "$ROOT" <<'EOF'
import json, os, sys
d, root = sys.argv[1], sys.argv[2]
strict = os.environ.get("CASH_PERF_STRICT") == "1"
# Below this fraction of the baseline (of its speed, for a time)
# counts as a regression.
THRESHOLD = 0.6
regressed, broken = [], []

def compare(name, new_map, old_map):
    for key, row in new_map.items():
        if not row["value"] > 0:
            broken.append(f"{name}: '{key}' measured {row['value']}")
    for key, old in old_map.items():
        new = new_map.get(key)
        if not old["value"] > 0:
            broken.append(f"{name}: '{key}' has a zero baseline")
        elif new is None:
            regressed.append(f"{name}: '{key}' disappeared")
        elif new["value"] > 0:
            speed = new["value"] / old["value"]
            if old["better"] == "lower":
                speed = 1.0 / speed
            if speed < THRESHOLD:
                regressed.append(
                    f"{name}: '{key}' {new['value']:g} vs baseline "
                    f"{old['value']:g} {old['unit']} "
                    f"({100 * speed:.0f}% of its speed)")

for fname, field in (("BENCH_sim_speed.json", "benchmarks"),
                     ("BENCH_service.json", "cells")):
    new = json.load(open(os.path.join(d, fname)))
    base = os.path.join(root, fname)
    old = json.load(open(base)) if os.path.exists(base) else None
    if old is None:
        print(f"perf_trajectory: no baseline {fname} (first run)")
    compare(fname, new[field], old[field] if old else {})

for b in broken:
    print(f"perf_trajectory: ERROR {b}")
for r in regressed:
    print(f"perf_trajectory: REGRESSION {r}")
if broken:
    sys.exit(1)
if regressed:
    if strict:
        sys.exit(1)
    print("perf_trajectory: soft mode, not failing "
          "(set CASH_PERF_STRICT=1 to enforce)")
else:
    print("perf_trajectory: within the trajectory envelope")
EOF

if [ "$UPDATE" = "--update" ]; then
    cp "$DIR/BENCH_sim_speed.json" "$ROOT/BENCH_sim_speed.json"
    cp "$DIR/BENCH_service.json" "$ROOT/BENCH_service.json"
    echo "perf_trajectory: baselines updated at $ROOT"
fi
