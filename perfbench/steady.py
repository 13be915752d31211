#!/usr/bin/env python3
"""Record how steady the benchmark is at the current checkout.

    python3 perfbench/steady.py --out perfbench/baseline.json
        [--workloads sim_apps ...]

Runs every workload untraced with seeds 1-10 for the run_seconds of
BENCHMARK.json, then once traced with seed 1. For each end-to-end
metric it records every value, the median, the quartiles
(statistics.quantiles, n=4), IQR/median and CV; for the traced run, its
value minus the untraced median (the tracing overhead) and the
per-layer self-time table. It prints one line per metric and flags a
spread wider than a third of the metric's bound. Run-to-run agreement
is checked with

    python3 perfbench/compare.py --parent . --change . --pairs 10
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import failed_share, run_once, summary  # noqa: E402

SEEDS = list(range(1, 11))
NOTE = ("Not comparable with the BENCH_sim_speed.json and "
        "BENCH_service.json rows: bench_sim_speed times x264 alone in "
        "0.2 s windows; bench_service runs 12 cells at once with up to "
        "64 loadgen threads on 4 cores, times latency from the actual "
        "send, and its op mix is mostly steps (the loadgen drawRequest "
        "bug).")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="*")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    record = {"note": NOTE, "runs": len(SEEDS), "seconds": seconds,
              "seeds": SEEDS, "workloads": {}}
    for w in workloads:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(root, w, seed, seconds, 0))
            print("%s seed %d: %s" % (w, seed, ", ".join(
                "%s %.5g" % (k, v["value"])
                for k, v in runs[-1]["metrics"].items())), file=sys.stderr)
        entry = {"metrics": {}, "failed_share": failed_share(runs),
                 "all_correct": all(r["correct"] and r["exit"] == 0
                                    for r in runs)}
        for m in spec["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r in runs])
            s["unit"] = m["unit"]
            s["bound"] = m["bound"]
            entry["metrics"][m["name"]] = s
        t = run_once(root, w, SEEDS[0], seconds, 1)
        entry["trace_overhead"] = {
            m["name"]: t["metrics"]["trace." + m["name"]]["value"]
            - entry["metrics"][m["name"]]["median"]
            for m in spec["end_to_end"]}
        entry["self_time"] = [line for line in t["output"]
                              if line.startswith("  ")
                              or line.startswith("layer self time")]
        entry["trace_correct"] = t["correct"] and t["exit"] == 0
        record["workloads"][w] = entry

        print("\n%s (%d runs, failed share %.4f, all correct %s)"
              % (w, len(runs), entry["failed_share"], entry["all_correct"]))
        for name, s in entry["metrics"].items():
            print("  %-12s median %12.6g %-5s iqr/median %6.3f cv %6.3f"
                  "  bound %.2f%s"
                  % (name, s["median"], s["unit"], s["iqr_frac"], s["cv"],
                     s["bound"],
                     "" if s["iqr_frac"] < s["bound"] / 3 else "  WIDE"))
        for line in entry["self_time"]:
            print("  " + line)
        sys.stdout.flush()
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
