#!/usr/bin/env python3
"""Alternating parent/change timing pairs: wall time and peak RSS.

Usage: pairs.py PAIRS PARENT_TIND CHANGE_TIND VERB ARGS...

Runs `TIND VERB ARGS...` PAIRS times for each binary, alternating parent
and change, with `{out}` in ARGS replaced by a per-run output path. Each
run's peak RSS and user CPU time are its own `ru_maxrss` and `ru_utime`
(from `wait4`). Prints one line per run, the medians of each side, and in
how many pairs the change was faster.
"""
import os
import statistics
import subprocess
import sys
import time


def run(argv):
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if status != 0:
        sys.exit(f"{argv} exited with status {status}")
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime


def main():
    pairs, parent, change, verb = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
    args = sys.argv[5:]
    samples = {"parent": [], "change": []}
    for i in range(pairs):
        for side, tind in (("parent", parent), ("change", change)):
            argv = [tind, verb] + [a.replace("{out}", f"pairs-{side}.tind") for a in args]
            wall, rss, user = run(argv)
            samples[side].append((wall, rss, user))
            print(
                f"pair {i} {side}: wall {wall:.3f} s, user {user:.3f} s, peak RSS {rss:.1f} MiB",
                flush=True,
            )
    medians = {}
    for side, runs in samples.items():
        walls, rss, user = zip(*runs)
        medians[side] = [statistics.median(v) for v in (walls, rss, user)]
        print(
            f"{side}: median wall {medians[side][0]:.3f} s "
            f"(min {min(walls):.3f}, max {max(walls):.3f}), "
            f"median user {medians[side][2]:.3f} s, median peak RSS {medians[side][1]:.1f} MiB"
        )
    wins = sum(c[0] < p[0] for p, c in zip(samples["parent"], samples["change"]))
    ratio = [c / p for p, c in zip(medians["parent"], medians["change"])]
    print(
        f"change/parent medians: wall {ratio[0]:.3f}, user {ratio[2]:.3f}, "
        f"peak RSS {ratio[1]:.3f}; change faster in {wins} of {pairs} pairs"
    )


main()
