#!/usr/bin/env python3
"""Alternating parent/change timings of `tind all-pairs` on the paths a
user runs by default: with progress lines (no `--quiet`: one line per
|D|/10 queries) and with `--checkpoint FILE --checkpoint-every 256`.

    results/pr42/allpairs-paths.py PARENT_TIND CHANGE_TIND DATA.tind PAIRS [THREADS]

Each pair runs the parent first, then the change, once per path. Prints
one line per run (wall seconds of the process, discovery seconds from the
timing line) and, per path, the medians, quartiles and the change's wins.
"""
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

parent, change, data, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
threads = sys.argv[5] if len(sys.argv) > 5 else "2"
scratch = Path(tempfile.mkdtemp(prefix="allpairs-paths-"))
paths = {
    "progress": [],
    "checkpoint256": ["--checkpoint", str(scratch / "run.tcp"), "--checkpoint-every", "256"],
}


def discovery_seconds(out):
    m = re.search(r"discovery ([0-9.]+)(ms|s)", out)
    return float(m.group(1)) / (1000 if m.group(2) == "ms" else 1)


def run(binary, extra):
    (scratch / "run.tcp").unlink(missing_ok=True)
    cmd = [binary, "all-pairs", "--data", data, "--threads", threads, *extra]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, discovery_seconds(done.stdout)


results = {(p, side): [] for p in paths for side in ("parent", "change")}
for i in range(1, pairs + 1):
    for path, extra in paths.items():
        for side, binary in (("parent", parent), ("change", change)):
            wall, disc = run(binary, extra)
            results[(path, side)].append((wall, disc))
            print(f"{path} {side} pair {i}: wall {wall:.4f} s, discovery {disc:.4f} s", flush=True)


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return f"{statistics.median(xs):.4f} [{q[0]:.4f}, {q[2]:.4f}]"


for path in paths:
    for k, name in ((0, "wall_s"), (1, "discovery_s")):
        p = [r[k] for r in results[(path, "parent")]]
        c = [r[k] for r in results[(path, "change")]]
        wins = sum(ci < pi for pi, ci in zip(p, c))
        delta = (statistics.median(c) / statistics.median(p) - 1) * 100
        print(f"{path} {name}: parent {quartiles(p)}  change {quartiles(c)}  "
              f"{delta:+.1f} %  change faster in {wins}/{len(p)} pairs")
