#!/usr/bin/env python3
"""Compare two builds of the repo on the benchmark.

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10]
        [--workloads sim_apps svc_mixed] [--json out.json]

--parent and --change are checkouts (each with its own perfbench/ and
sources; each builds itself on its first run). Pair i runs seed i on
both sides, alternating which side runs first; every run lasts the
run_seconds of the change's BENCHMARK.json. For every workload and
end-to-end metric it reports each side's median and quartiles, the
change's win share (ties count for neither side), the failed-operation
share of each side, and a verdict under the metric's bound:

  improved    the change wins at least 9/10 of the pairs, and its median
              beats the parent's by more than the parent's quartile
              spread and by more than the bound
  regressed   the change's median is worse than the parent's by more
              than the bound
  unresolved  neither, and the parent's own quartile spread is wider
              than the bound, unless every change run beats every
              parent run
  no worse    otherwise

Passing the same checkout as both sides measures run-to-run agreement:
it should give no "improved" and no "regressed" verdict. Exit status 1
when any verdict is "regressed".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(side, workload, seed, seconds, trace):
    """One run of one workload in checkout `side`; its JSON result."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=side, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("%s: %s seed %d printed nothing (exit %d)"
                         % (side, workload, seed, proc.returncode))
    res = json.loads(lines[-1])
    if proc.returncode != 0 or not res.get("correct"):
        print("warning: %s %s seed %d: exit %d, correct=%s"
              % (side, workload, seed, proc.returncode, res.get("correct")),
              file=sys.stderr)
    res["exit"] = proc.returncode
    res["output"] = lines[:-1]
    return res


def summary(values):
    """Median, quartiles (statistics.quantiles, n=4), IQR/median, CV."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    mean = statistics.fmean(values)
    cv = statistics.pstdev(values) / mean if mean else 0.0
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else 0.0, "cv": cv,
            "values": values}


def failed_share(runs):
    return (sum(r["failed"] for r in runs)
            / max(1, sum(r["attempted"] for r in runs)))


def verdict(metric, parent, change):
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p, c = parent["values"], change["values"]
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
    win_share = wins / len(p)
    pm, cm = parent["median"], change["median"]
    gain = sign * (cm - pm)
    if (win_share >= 0.9 and gain > parent["q3"] - parent["q1"]
            and gain > bound * abs(pm)):
        v = "improved"
    elif -gain > bound * abs(pm):
        v = "regressed"
    elif parent["iqr_frac"] > bound and not (
            min(sign * x for x in c) > max(sign * x for x in p)):
        v = "unresolved"
    else:
        v = "no worse"
    return win_share, v


def live_values(args, spec, workload, seconds):
    """Alternating pairs; per side, each metric's values and the
    failed-operation share."""
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ["parent", "change"] if i % 2 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], workload, i, seconds, 0))
        print("%s pair %d/%d done" % (workload, i, args.pairs),
              file=sys.stderr)
    values = {side: {m["name"]: [r["metrics"][m["name"]]["value"]
                                 for r in runs[side]]
                     for m in spec["end_to_end"]} for side in runs}
    return values, {side: failed_share(runs[side]) for side in runs}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--json")
    args = ap.parse_args()
    if args.pairs < 10:
        print("warning: fewer than 10 pairs", file=sys.stderr)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    report = {"pairs": args.pairs, "seconds": seconds, "workloads": {}}
    regressed = False
    for w in workloads:
        values, failed = live_values(args, spec, w, seconds)
        rows = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            s = {side: summary(values[side][name]) for side in values}
            win_share, v = verdict(m, s["parent"], s["change"])
            regressed |= v == "regressed"
            rows[name] = {"unit": m["unit"], "better": m["better"],
                          "bound": m["bound"], "parent": s["parent"],
                          "change": s["change"], "win_share": win_share,
                          "verdict": v}
        report["workloads"][w] = {"metrics": rows, "failed_share": failed}

        print("\n%s (failed share: parent %.4f, change %.4f)"
              % (w, failed["parent"], failed["change"]))
        print("  %-12s %-5s %12s %11s %12s %11s %6s %5s  %s"
              % ("metric", "unit", "parent p50", "parent iqr",
                 "change p50", "change iqr", "bound", "wins", "verdict"))
        for name, r in rows.items():
            print("  %-12s %-5s %12.6g %10.1f%% %12.6g %10.1f%% %6.2f %5.2f"
                  "  %s"
                  % (name, r["unit"], r["parent"]["median"],
                     100 * r["parent"]["iqr_frac"], r["change"]["median"],
                     100 * r["change"]["iqr_frac"], r["bound"],
                     r["win_share"], r["verdict"]))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
