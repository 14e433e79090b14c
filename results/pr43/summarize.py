#!/usr/bin/env python3
"""Median [quartiles] per side and pairs won-lost by the change, for every
end-to-end metric in pairs files written by pairs.sh.

Usage: summarize.py FILE...
"""
import json
import re
import statistics
import sys

LOWER = {"setup_s", "ready_s", "op_ms", "rss_mb", "disk_bytes_per_attr"}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


for path in sys.argv[1:]:
    runs = {}
    for line in open(path):
        m = re.match(r"(\S+) (parent|change) pair (\d+): (.*)", line)
        if not m or not m.group(4).startswith("{"):
            continue
        runs.setdefault(int(m.group(3)), {})[m.group(2)] = json.loads(m.group(4))
    pairs = [r for _, r in sorted(runs.items()) if len(r) == 2]
    workload = line.split()[0]
    failed = {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")}
    attempted = {s: sum(p[s]["attempted"] for p in pairs) for s in ("parent", "change")}
    correct = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
    print(f"## {workload}: {len(pairs)} pairs, correct={correct}, failed "
          f"{failed['parent']}/{attempted['parent']} parent, {failed['change']}/{attempted['change']} change")
    for metric in pairs[0]["parent"]["metrics"]:
        p = [r["parent"]["metrics"][metric]["value"] for r in pairs]
        c = [r["change"]["metrics"][metric]["value"] for r in pairs]
        sign = -1 if metric in LOWER else 1
        won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        move = 100 * (cm - pm) / pm if pm else float("nan")
        print(f"| {metric} | {pm:.4g} [{p1:.4g}, {p3:.4g}] | {cm:.4g} [{c1:.4g}, {c3:.4g}] "
              f"| {move:+.1f} % | {won}–{lost} | parent IQR {p3 - p1:.4g}, |Δmedian| {abs(cm - pm):.4g} |")
    print()
