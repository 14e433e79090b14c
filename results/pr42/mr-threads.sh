#!/usr/bin/env bash
# Summed `core.index.tile` span time (ms) of a D10k reverse build
# (`tind index --reverse true --m 512`) at 1 and 2 build threads, for two
# `tind` binaries alternating in fresh processes: whether the required
# values of `M_R` still slow down when two workers render them at once.
#
#   results/pr42/mr-threads.sh PARENT_TIND CHANGE_TIND WORKDIR [ROUNDS=6]
set -eu
P=$1 C=$2 W=$3 rounds=${4:-6}
mkdir -p "$W"
[ -f "$W/d10k.tind" ] || "$C" generate --preset paper --seed 11 --attributes 10000 \
    --out "$W/d10k.tind" >/dev/null
span() { python3 -c "
import json,sys
d=json.load(open('$1'))['payload']
t={s['name']:s['total_ns'] for s in d['spans']}
print(' '.join('%s=%.1f' % (n, t.get(n,0)/1e6) for n in sys.argv[1:]))" "${@:2}"; }
for round in $(seq 1 "$rounds"); do
    for threads in 1 2; do
        for side in P C; do
            "${!side}" index --data "$W/d10k.tind" --out "$W/o.idx" --reverse true --m 512 \
                --build-threads "$threads" --report "$W/r.json" >/dev/null 2>&1
            echo "rev D10k t=$threads $side $(span "$W/r.json" core.index.tile core.index.build)"
        done
    done
done
rm -f "$W/o.idx"
