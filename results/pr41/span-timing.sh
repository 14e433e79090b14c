#!/usr/bin/env bash
# Alternating fresh-process span totals of two `tind` binaries.
#
#   results/pr41/span-timing.sh PARENT_TIND CHANGE_TIND WORKDIR [ROUNDS=8]
#
# Generates `--preset paper --seed 11` datasets at 20 000 and 5 000
# attributes with the parent binary and a default forward index of the
# 5 000 one. Each round runs, parent first, then change:
#   * `tind index` forward at `--build-threads 1` on D20k,
#   * `tind index --reverse true --m 512` at `--build-threads 1` on D20k,
#   * `tind search --index` of query 0 on D5k (reads the 44 MB index file),
# and prints the `core.index.tile` / `core.index.build` span totals (ms)
# of the builds and the `phase.index_build` total (ms) of the search,
# read from each run's `--report`.
set -u
P=$1 C=$2 W=$3 rounds=${4:-8}
mkdir -p "$W"
[ -f "$W/d20k.tind" ] || "$P" generate --preset paper --seed 11 --attributes 20000 \
    --out "$W/d20k.tind" >/dev/null
[ -f "$W/d5k.tind" ] || "$P" generate --preset paper --seed 11 --attributes 5000 \
    --out "$W/d5k.tind" >/dev/null
"$P" index --data "$W/d5k.tind" --out "$W/d5k.idx" >/dev/null 2>&1
span() { python3 -c "
import json,sys
d=json.load(open('$1'))['payload']
t={s['name']:s['total_ns'] for s in d['spans']}
print(' '.join('%s=%.1f' % (n, t.get(n,0)/1e6) for n in sys.argv[1:]))" "${@:2}"; }
for round in $(seq 1 "$rounds"); do
    for side in P C; do
        bin=${!side}
        "$bin" index --data "$W/d20k.tind" --out "$W/o.idx" --build-threads 1 \
            --report "$W/r.json" >/dev/null 2>&1
        echo "fwd D20k t=1 $side $(span "$W/r.json" core.index.tile core.index.build)"
        "$bin" index --data "$W/d20k.tind" --out "$W/o.idx" --reverse true --m 512 \
            --build-threads 1 --report "$W/r.json" >/dev/null 2>&1
        echo "rev D20k t=1 $side $(span "$W/r.json" core.index.tile core.index.build)"
        "$bin" search --data "$W/d5k.tind" --index "$W/d5k.idx" --query 0 \
            --report "$W/r.json" >/dev/null 2>&1
        echo "load-index D5k $side $(span "$W/r.json" phase.index_build)"
    done
done
rm -f "$W/o.idx"
