#!/usr/bin/env bash
# Alternating benchmark pairs on one seed per pair: the parent runs first
# in odd pairs, the change in even ones.
# Usage: pairs.sh PARENT_TREE CHANGE_TREE WORKLOAD PAIRS FIRST_SEED OUT
# Each line of OUT is "<workload> <side> pair <i>: <result JSON>".
set -euo pipefail
parent="$1" change="$2" workload="$3" pairs="$4" seed0="$5" out="$6"
for i in $(seq 1 "$pairs"); do
    seed=$((seed0 + i - 1))
    order="parent change"
    [ $((i % 2)) = 0 ] && order="change parent"
    for side in $order; do
        tree=$parent
        [ "$side" = change ] && tree=$change
        json=$(cd "$tree" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
            --seconds 21 --trace 0 2>/dev/null | tail -1)
        echo "$workload $side pair $i: $json" >>"$out"
    done
done
