#!/usr/bin/env bash
# Alternating hot boots of two `tind` binaries on one dataset.
#
#   results/pr45/boot-ab.sh PARENT_TIND CHANGE_TIND DATA N
#
# Each of N rounds boots `serve --data DATA --port 0 --cache 4096
# --plan-cache 4096` once per binary (parent first in odd rounds), polls
# `/search` until it answers 200, SIGINTs the server and reads the span
# totals of its `--report`. One line per boot:
#   <side> ready_ms=<spawn to first 200> cli.load.decode=<ms> core.index.build=<ms>
# `core.index.build` sums both directions' builds. Needs curl and python3.
set -euo pipefail
parent=$1 change=$2 data=$3 rounds=$4
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
boot() {
    local bin=$1 port_file=$work/port report=$work/report.json
    rm -f "$port_file"
    local start end pid
    start=$(date +%s%N)
    "$bin" serve --data "$data" --port 0 --port-file "$port_file" --cache 4096 \
        --plan-cache 4096 --report "$report" --quiet >/dev/null 2>&1 &
    pid=$!
    until [ -s "$port_file" ]; do sleep 0.005; done
    until curl -sf -o /dev/null -X POST "http://127.0.0.1:$(cat "$port_file")/search" \
        -d '{"query":"0"}'; do sleep 0.005; done
    end=$(date +%s%N)
    kill -INT "$pid"
    wait "$pid" || true
    python3 - "$report" "$(( (end - start) / 1000000 ))" <<'EOF'
import json, sys
spans = {s["name"]: s["total_ns"] / 1e6 for s in json.load(open(sys.argv[1]))["payload"]["spans"]}
print(f"ready_ms={sys.argv[2]} cli.load.decode={spans['cli.load.decode']:.1f} "
      f"core.index.build={spans['core.index.build']:.1f}")
EOF
}
for i in $(seq 1 "$rounds"); do
    order="parent change"
    [ $((i % 2)) = 0 ] && order="change parent"
    for side in $order; do
        echo "$side $(boot "${!side}")"
    done
done
