#!/usr/bin/env bash
# End-to-end smoke for `tind serve`: boot the daemon on an ephemeral
# port, query it over raw TCP (no curl dependency — bash /dev/tcp), drain
# it with SIGINT, assert the 130 exit code, and schema-verify the flushed
# TINDRR report. Then the same stop on a second daemon that has been left
# idle: its acceptor is blocked in `accept` with nobody connecting, so it
# exits only if the drain wakes it — within 2 s, or the smoke fails.
#
# Usage: devtools/serve-smoke.sh path/to/tind [scratch-dir]

set -euo pipefail
cd "$(dirname "$0")/.."

TIND="$1"
SCRATCH="${2:-$(dirname "$TIND")}"
DATA="$SCRATCH/serve-smoke.tind"
PORT_FILE="$SCRATCH/serve-smoke-port.txt"
REPORT="$SCRATCH/serve-smoke-report.json"
rm -f "$PORT_FILE" "$REPORT"

"$TIND" generate --attributes 80 --preset small --seed 7 \
    --out "$DATA" >/dev/null

fail() { echo "serve-smoke: $1" >&2; exit 1; }

# One HTTP exchange over /dev/tcp; the server closes the connection after
# each response, so reading to EOF captures the whole reply.
http() { # method path body
    local body="${3:-}"
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf '%s %s HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s' \
        "$1" "$2" "${#body}" "$body" >&3
    cat <&3
    exec 3<&- 3>&-
}

# Boots a daemon and waits until /healthz says `serving`; sets PID, PORT.
boot() {
    rm -f "$PORT_FILE" "$REPORT"
    "$TIND" serve --data "$DATA" --port 0 --port-file "$PORT_FILE" \
        --report "$REPORT" --quiet &
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
    for _ in $(seq 1 200); do
        http GET /healthz | grep -q '"serving"' && return
        sleep 0.05
    done
    fail "daemon never reached serving"
}

# SIGINTs the daemon, gives it 2 s to be gone, and checks what it left.
drain() {
    kill -INT "$PID"
    for _ in $(seq 1 40); do
        kill -0 "$PID" 2>/dev/null || break
        sleep 0.05
    done
    kill -0 "$PID" 2>/dev/null && fail "$1 daemon still running 2 s after SIGINT"
    EXIT=0
    wait "$PID" || EXIT=$?
    trap - EXIT
    [ "$EXIT" = 130 ] || fail "expected exit 130 after SIGINT, got $EXIT ($1 daemon)"
    [ -s "$REPORT" ] || fail "report was not flushed on drain ($1 daemon)"
    "$TIND" verify "$REPORT" --schema devtools/report-schema.json
}

boot
http POST /search '{"query":"source-1","limit":5}' \
    | grep -q '"result_count"' || fail "search response malformed"
http GET /metrics | grep -q 'serve\.' || fail "metrics missing serve.* family"
drain busy

boot
drain idle

echo "serve-smoke: passed (port $PORT, exit $EXIT, reports verified, idle daemon woke to stop)"
