#!/usr/bin/env python3
"""Check that ExperimentEngine ran at most `threads` cells at once.

Each argument is a <bench>_engine.json summary written under
CASH_BENCH_CSV: {"threads": N, "wall_ms": W, "cells": [{"ms": m}, ...]}.
Every cell's wall clock falls inside a run() call, and wall_ms sums
those calls, so with at most N cells in flight the sum of the cell
times cannot exceed N * W. The 1% slack covers clock granularity.

    tools/check_cell_concurrency.py bench_csv_*/*_engine.json
"""
import json
import sys

SLACK = 1.01

if len(sys.argv) < 2:
    sys.exit("usage: check_cell_concurrency.py <engine.json>...")
failed = False
for path in sys.argv[1:]:
    with open(path) as f:
        summary = json.load(f)
    threads = summary["threads"]
    wall = summary["wall_ms"]
    busy = sum(cell["ms"] for cell in summary["cells"])
    ratio = busy / wall if wall > 0 else 0.0
    ok = busy <= threads * wall * SLACK
    failed |= not ok
    print(f"{path}: {len(summary['cells'])} cells, {busy:.0f} ms over "
          f"{wall:.0f} ms wall = {ratio:.2f} cells at once on "
          f"{threads} thread(s): {'ok' if ok else 'TOO MANY'}")
sys.exit(1 if failed else 0)
