#!/usr/bin/env bash
# End-to-end smoke for the crash-safe sharded index store: pack a store,
# simulate a pack killed mid-commit (orphan temp + uncommitted
# generation), prove reopening sweeps and recovers, corrupt a shard's
# header, boot `tind serve --store` degraded (zero-copy from mmap, plan
# cache on) over raw TCP, repair the store out-of-band, watch the daemon
# promote back to serving, and drain.
#
# Usage: devtools/store-smoke.sh path/to/tind [scratch-dir]

set -euo pipefail
cd "$(dirname "$0")/.."

TIND="$1"
SCRATCH="${2:-$(dirname "$TIND")}"
DATA="$SCRATCH/store-smoke.tind"
STORE="$SCRATCH/store-smoke.store"
PORT_FILE="$SCRATCH/store-smoke-port.txt"
rm -rf "$STORE"
rm -f "$PORT_FILE"

fail() { echo "store-smoke: $1" >&2; exit 1; }

# 200 attributes → four 64-column blocks → four shards; shard 1 covers
# attribute ids 64..128.
"$TIND" generate --attributes 200 --preset small --seed 7 \
    --out "$DATA" >/dev/null

"$TIND" store pack --data "$DATA" --out "$STORE" --shards 4 \
    | grep -q 'packed generation 1' || fail "pack did not commit generation 1"
"$TIND" store verify "$STORE" | grep -q '4 shard(s) verified' \
    || fail "freshly packed store failed verification"

# --- Kill mid-pack: plant exactly the debris an interrupted writer
# leaves (an orphan temp and an uncommitted next-generation shard), then
# prove a reader recovers: the committed generation still answers and
# the sweep disposes of the debris.
printf 'torn' > "$STORE/g2-s0.shard.tmp"
cp "$STORE/g1-s0.shard" "$STORE/g2-s0.shard"
"$TIND" search --data "$DATA" --store "$STORE" --query 5 --limit 3 >/dev/null \
    || fail "store with crash debris did not open"
[ ! -e "$STORE/g2-s0.shard.tmp" ] || fail "orphan temp survived the sweep"
[ ! -e "$STORE/g2-s0.shard" ] || fail "uncommitted generation survived the sweep"

# --- Corrupt shard 1's header (two adjacent bytes, so at least one
# changes; an open checks the header CRC, never the matrix words) and
# confirm quarantine: verify names the shard, a masked query is refused.
SHARD="$STORE/g1-s1.shard"
"$TIND" verify "$SHARD" | grep -q 'store shard: .* container intact' \
    || fail "verify did not recognise a pristine shard file"
printf '\xff\x00' | dd of="$SHARD" bs=1 seek=12 conv=notrunc 2>/dev/null
"$TIND" store verify "$STORE" >/dev/null 2>&1 \
    && fail "verification passed on a corrupt shard"
"$TIND" search --data "$DATA" --store "$STORE" --query 70 >/dev/null 2>&1 \
    && fail "a query over the lost shard must be refused"

# --- Serve degraded: the daemon still boots, flags itself, answers live
# attributes, and 503s the lost range with a typed code.
"$TIND" serve --data "$DATA" --store "$STORE" --store-backing mmap \
    --plan-cache 8 --port 0 --port-file "$PORT_FILE" --reverify-ms 100 --quiet &
PID=$!
trap 'kill -9 "$PID" 2>/dev/null || true' EXIT

PORT=""
for _ in $(seq 1 200); do
    kill -0 "$PID" 2>/dev/null || fail "daemon died during startup"
    if [ -s "$PORT_FILE" ]; then
        PORT=$(tr -d '[:space:]' <"$PORT_FILE")
        [ -n "$PORT" ] && break
    fi
    sleep 0.05
done
[ -n "$PORT" ] || fail "no port published within 10s"

http() { # method path body
    local body="${3:-}"
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf '%s %s HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s' \
        "$1" "$2" "${#body}" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
}

for _ in $(seq 1 200); do
    http GET /healthz | grep -q '"degraded"' && break
    sleep 0.05
done
http GET /healthz | grep -q '"degraded"' || fail "daemon never reported degraded"
http GET /healthz | grep -q '"live_shard_fraction":0.75' \
    || fail "healthz missing the live-shard fraction"
http GET /metrics | grep -q '"name":"store.shards.quarantined","value":1' \
    || fail "metrics missing store.shards.quarantined=1"
http POST /search '{"query":"5","limit":3}' | grep -q '"partial":true' \
    || fail "live-range search must answer (marked partial)"
http POST /search '{"query":"70"}' | grep -q '"shard_unavailable"' \
    || fail "lost-range search must 503 with shard_unavailable"

# --- Repair out-of-band; the daemon's re-verify loop promotes.
"$TIND" store repair --store "$STORE" --data "$DATA" \
    | grep -q 'rebuilt shard(s) \[1\]' || fail "repair did not rebuild shard 1"
for _ in $(seq 1 200); do
    http GET /healthz | grep -q '"serving"' && break
    sleep 0.05
done
http GET /healthz | grep -q '"serving"' || fail "repair never promoted to serving"
http POST /search '{"query":"70","limit":3}' | grep -q '"results"' \
    || fail "restored attribute must answer after promotion"
http POST /search '{"query":"70","limit":3}' | grep -q '"results"' \
    || fail "repeat query failed"
http GET /metrics | grep -q '"name":"serve.plans.hits","total":[1-9]' \
    || fail "plan cache recorded no hit on a repeated query"

kill -INT "$PID"
EXIT=0
wait "$PID" || EXIT=$?
trap - EXIT
[ "$EXIT" = 130 ] || fail "expected exit 130 after SIGINT, got $EXIT"

"$TIND" verify "$STORE" | grep -q 'OK' || fail "repaired store failed final verify"

echo "store-smoke: passed (port $PORT, quarantined, repaired, promoted)"
