#!/usr/bin/env bash
# Format compatibility of the one ingestion driver against the parent
# build: the same dumps through both binaries must give cmp-equal
# datasets and checkpoints, and the change must resume TINDIC and TINDUC
# checkpoints the parent wrote (`--deadline 0`, then `--resume`).
#
# Usage: format-compat.sh PARENT_TIND CHANGE_TIND BASE.xml DELTA.xml SCRATCH
set -uo pipefail
P="$1" C="$2" BASE_XML="$3" DELTA_XML="$4" S="$5"
mkdir -p "$S"
check() { # label, then a command that must succeed
    local label="$1"; shift
    if "$@" >/dev/null 2>&1; then echo "ok    $label"; else echo "FAIL  $label"; fi
}
run() { "$@" >/dev/null 2>&1 || true; }

for side in p c; do
    T=$P; [ $side = c ] && T=$C
    rm -f "$S"/*-$side.tic "$S"/*-$side.tuc
    run "$T" ingest --dump "$BASE_XML" --out "$S/base-$side.tind" --quiet
    run "$T" ingest --dump "$BASE_XML" --out "$S/sink-$side.tind" --quiet \
        --checkpoint "$S/zero-$side.tic" --deadline 0
    run "$T" ingest --dump "$BASE_XML" --out "$S/sink-$side.tind" --quiet \
        --checkpoint "$S/done-$side.tic" --checkpoint-every 3
    run "$T" update --dump "$DELTA_XML" --data "$S/base-p.tind" --out "$S/merged-$side.tind" --quiet
    run "$T" update --dump "$DELTA_XML" --data "$S/base-p.tind" --out "$S/sink-$side.tind" \
        --quiet --checkpoint "$S/zero-$side.tuc" --deadline 0
    run "$T" update --dump "$DELTA_XML" --data "$S/base-p.tind" --out "$S/sink-$side.tind" \
        --quiet --checkpoint "$S/done-$side.tuc" --checkpoint-every 3
done
check "ingest: dataset cmp-equal" cmp "$S/base-p.tind" "$S/base-c.tind"
check "update: merged dataset cmp-equal" cmp "$S/merged-p.tind" "$S/merged-c.tind"
check "TINDIC at page 0 cmp-equal" cmp "$S/zero-p.tic" "$S/zero-c.tic"
check "TINDIC at completion cmp-equal" cmp "$S/done-p.tic" "$S/done-c.tic"
check "TINDUC at page 0 cmp-equal" cmp "$S/zero-p.tuc" "$S/zero-c.tuc"
check "TINDUC at completion cmp-equal" cmp "$S/done-p.tuc" "$S/done-c.tuc"
check "change verifies the parent's TINDIC" "$C" verify "$S/zero-p.tic"
check "change verifies the parent's TINDUC" "$C" verify "$S/zero-p.tuc"
run "$C" ingest --dump "$BASE_XML" --out "$S/resumed-ingest.tind" --quiet \
    --checkpoint "$S/zero-p.tic" --resume
check "change resumes the parent's TINDIC to the same dataset" \
    cmp "$S/resumed-ingest.tind" "$S/base-p.tind"
run "$C" update --dump "$DELTA_XML" --data "$S/base-p.tind" --out "$S/resumed-update.tind" \
    --quiet --checkpoint "$S/zero-p.tuc" --resume
check "change resumes the parent's TINDUC to the same merged dataset" \
    cmp "$S/resumed-update.tind" "$S/merged-p.tind"
run "$C" update --dump "$DELTA_XML" --data "$S/base-p.tind" --out "$S/resumed-done.tind" \
    --quiet --checkpoint "$S/done-p.tuc" --resume
check "change resumes the parent's completed TINDUC to the same merged dataset" \
    cmp "$S/resumed-done.tind" "$S/merged-p.tind"
