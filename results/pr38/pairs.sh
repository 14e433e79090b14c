#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload.
#
#   results/pr38/pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT WORKLOAD PAIRS SEED0 [TRACE]
#
# Pair i runs `benchmark/run.sh --workload WORKLOAD --seed SEED0+i
# --seconds 21 --trace TRACE` (TRACE defaults to 0) first in the parent
# checkout, then in the change checkout, and prints one line per run:
# "<workload> <side> pair <i>: <the run's JSON result line>".
set -euo pipefail
parent=$1 change=$2 workload=$3 pairs=$4 seed0=$5 trace=${6:-0}
for i in $(seq 1 "$pairs"); do
    for side in parent change; do
        dir=${!side}
        line=$(cd "$dir" && bash benchmark/run.sh --workload "$workload" \
            --seed $((seed0 + i)) --seconds 21 --trace "$trace" 2>/dev/null | tail -n 1)
        echo "$workload $side pair $i: $line"
    done
done
