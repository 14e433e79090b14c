#!/usr/bin/env bash
# Byte-identity of the hash-free reverse index build against a parent build.
#
#   results/pr39/identity.sh PARENT_TIND CHANGE_TIND WORKDIR [N...]
#
# For each attribute count N (default 5000 10000 20000) it generates one
# `--preset paper --seed 39` dataset with the parent binary, then with
# both binaries at `--build-threads 1` and `2`:
#   * `tind index` (the forward index exactly as `Engine::build` sizes it),
#   * `tind index --reverse true --m 512` (Engine::build's reverse index),
#   * `tind store pack` (forward, auto shard count),
# and `cmp`s every file. One line per comparison; exit 1 on any mismatch.
set -euo pipefail
parent=$1 change=$2 work=$3
shift 3
sizes=("${@:-5000 10000 20000}")
mkdir -p "$work"
fail=0
for n in ${sizes[@]}; do
    data="$work/d$n.tind"
    [ -f "$data" ] || "$parent" generate --preset paper --seed 39 --attributes "$n" \
        --out "$data" >/dev/null
    for t in 1 2; do
        for side in parent change; do
            bin=${!side}
            "$bin" index --data "$data" --out "$work/$side-fwd.idx" --build-threads $t >/dev/null 2>&1
            "$bin" index --data "$data" --out "$work/$side-rev.idx" --reverse true --m 512 \
                --build-threads $t >/dev/null 2>&1
            rm -rf "$work/$side-store"
            "$bin" store pack --data "$data" --out "$work/$side-store" --build-threads $t \
                >/dev/null 2>&1
        done
        for what in fwd.idx rev.idx; do
            if cmp -s "$work/parent-$what" "$work/change-$what"; then r=identical; else r=DIFFER; fail=1; fi
            echo "D$n threads=$t index $what: $r ($(stat -c %s "$work/change-$what") bytes)"
        done
        if diff -r -q "$work/parent-store" "$work/change-store" >/dev/null; then r=identical; else r=DIFFER; fail=1; fi
        echo "D$n threads=$t store pack: $r ($(ls "$work/change-store" | wc -l) files)"
    done
done
exit $fail
