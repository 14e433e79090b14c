#!/usr/bin/env python3
"""Summarizes pairs.sh output: per workload and metric, the parent's and the
change's median [first, third quartile], the change's relative difference,
and the pairs won-lost by the change (ties count for neither).

    results/pr38/summarize.py FILE...
"""
import json
import re
import statistics
import sys

LOWER = {"setup_s", "ready_s", "op_ms", "rss_mb", "disk_bytes_per_attr"}
LINE = re.compile(r"^(\S+) (parent|change) pair (\d+): (.*)$")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


runs = {}
for path in sys.argv[1:]:
    for line in open(path):
        m = LINE.match(line.strip())
        if not m:
            continue
        workload, side, pair, payload = m.groups()
        try:
            result = json.loads(payload)
        except json.JSONDecodeError:
            print(f"# unparsable: {line.strip()[:120]}")
            continue
        runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = result

for workload, pairs in runs.items():
    full = {p: r for p, r in pairs.items() if "parent" in r and "change" in r}
    if not full:
        continue
    failed = sum(r[s]["failed"] for r in full.values() for s in r)
    wrong = sum(not r[s]["correct"] for r in full.values() for s in r)
    print(f"{workload}: {len(full)} pairs, failed operations {failed}, incorrect runs {wrong}")
    metrics = next(iter(full.values()))["parent"]["metrics"].keys()
    for metric in metrics:
        p = [r["parent"]["metrics"][metric]["value"] for r in full.values()]
        c = [r["change"]["metrics"][metric]["value"] for r in full.values()]
        lower = metric in LOWER
        won = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        lost = sum((cv > pv) if lower else (cv < pv) for pv, cv in zip(p, c))
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        print(
            f"  {metric:20s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {delta:+.1f} %  won-lost {won}-{lost}"
        )
