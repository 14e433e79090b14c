#!/usr/bin/env bash
# All-pairs of two tind binaries at 5 k, 20 k and 80 k generated
# attributes (`tind generate --seed 7`, paper preset), `--threads 2`,
# with a TINDRR report each. Prints per size and binary: pairs, the
# validations and valid pairs of the search funnel, M_T load, the forward
# index's heap bytes, `core.index.build` and the summed
# `core.search.stage1` span time, and the all-pairs wall; then whether the
# checkpoints' pair sections are byte-equal.
#
# Usage: results/pr43/scale.sh PARENT_TIND CHANGE_TIND SCRATCH_DIR [SIZES...]
set -euo pipefail
P="$1" C="$2" DIR="$3"
shift 3
SIZES=("${@:-5000 20000 80000}")
mkdir -p "$DIR"
for n in ${SIZES[@]}; do
    D="$DIR/d$n.tind"
    [ -e "$D" ] || "$C" generate --attributes "$n" --seed 7 --out "$D" >/dev/null
    for b in P C; do
        rm -f "$DIR/$b-$n.tcp"
        "${!b}" all-pairs --data "$D" --threads 2 --quiet --checkpoint "$DIR/$b-$n.tcp" \
            --report "$DIR/$b-$n.json" >"$DIR/$b-$n.out"
        python3 - "$DIR/$b-$n.json" "$b" "$n" <<'PY'
import json, sys
p = json.loads(open(sys.argv[1]).read())["payload"]
m = p["metrics"]
g = {x["name"]: x["value"] for x in m["gauges"]}
c = {x["name"]: x["total"] for x in m["counters"]}
s = {x["name"]: x["total_ns"] / 1e6 for x in p["spans"]}
side = {"P": "parent", "C": "change"}[sys.argv[2]]
print(f"n={sys.argv[3]} {side}: m={g['index.m']:.0f} pairs={c['allpairs.pairs']} "
      f"validations={c['search.validations']} pairs_valid={c['search.pairs_valid']} "
      f"false={c['search.validations'] - c['search.pairs_valid']} "
      f"m_t.load={100 * g['index.m_t.load']:.2f}% slices.mean_load={100 * g['index.slices.mean_load']:.2f}% "
      f"bloom_bytes={g['index.bloom_bytes']:.0f} "
      f"core.index.build={s.get('core.index.build', 0):.1f}ms "
      f"core.search.stage1={s.get('core.search.stage1', 0):.1f}ms "
      f"wall={p['wall_ns'] / 1e6:.1f}ms")
PY
    done
    python3 - "$DIR/P-$n.tcp" "$DIR/C-$n.tcp" "$n" <<'PY'
import sys
def tail(path):
    b = open(path, "rb").read()
    i = 24
    for _ in range(2):  # total_queries, validations_run
        while b[i] >= 0x80: i += 1
        i += 1
    return b[i:-4]
same = tail(sys.argv[1]) == tail(sys.argv[2])
print(f"n={sys.argv[3]}: checkpoint pair sections {'byte-equal' if same else 'DIFFER'}")
PY
done
