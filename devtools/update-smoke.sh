#!/usr/bin/env bash
# End-to-end smoke for live updates (`tind update`): ingest a base dump,
# build an index, apply a delta dump (two revised pages with their full
# extended histories + one brand-new page) with in-place semi-naive index
# maintenance, and assert two pins:
#  - update ≡ cold ingest: the merged dataset is byte-identical to `tind
#    ingest` of the combined stream (the delta's re-staged pages plus the
#    untouched base pages, in base order, then the new page);
#  - the delta oracle: the maintained index is byte-identical to a cold
#    rebuild over the merged dataset.
# One page holds two tables under the same caption, whose columns must
# stay two attributes across the update. Also walks the TINDUC checkpoint
# path (deadline interrupt → exit 130 → `tind verify` sniffs the
# checkpoint → resume → byte-identical dataset) and schema-verifies the
# TINDRR run report the update flushes, and cross-checks its quarantine
# gauge.
#
# Usage: devtools/update-smoke.sh path/to/tind [scratch-dir]

set -euo pipefail
cd "$(dirname "$0")/.."

TIND="$1"
SCRATCH="${2:-$(dirname "$TIND")}"
BASE_XML="$SCRATCH/update-smoke-base.xml"
DELTA_XML="$SCRATCH/update-smoke-delta.xml"
BASE="$SCRATCH/update-smoke-base.tind"
MERGED="$SCRATCH/update-smoke-merged.tind"
RESUMED="$SCRATCH/update-smoke-resumed.tind"
SINK="$SCRATCH/update-smoke-sink.tind"
IDX="$SCRATCH/update-smoke-base.tidx"
IDX_INCR="$SCRATCH/update-smoke-incr.tidx"
IDX_COLD="$SCRATCH/update-smoke-cold.tidx"
CKPT="$SCRATCH/update-smoke.tuc"
REPORT="$SCRATCH/update-smoke-report.json"
QUARANTINE="$SCRATCH/update-smoke.tqr"
COMBINED_XML="$SCRATCH/update-smoke-combined.xml"
COLD="$SCRATCH/update-smoke-cold.tind"
rm -f "$CKPT"

fail() { echo "update-smoke: $1" >&2; exit 1; }

GAMES=(Red Blue Gold Silver Crystal Ruby Sapphire Emerald Pearl Diamond)

# One table's values in revision $1: six growing revisions, then
# revisions that drop values from the front. No revision repeats an
# earlier one, and every value is one of GAMES, so the delta interns no
# new value: the merged dataset's dictionary (base values, then the
# delta's) and a cold ingest's (in stream order) come out in the same
# order, which is what lets the two files be compared with `cmp`.
table() { # revision [reversed] — one wikitext table
    local i="$1" from=0 len g
    if ((i < 6)); then len=$((5 + i)); else from=$((i - 5)); len=$((10 - from)); fi
    local vals=("${GAMES[@]:from:len}")
    if [ "${2:-}" = reversed ]; then
        vals=(); for ((g = 9 - from; g > 9 - from - len; g--)); do vals+=("${GAMES[g]}"); done
    fi
    printf '{|\n|+ Games\n! Game\n'
    for g in "${vals[@]}"; do printf -- '|-\n| %s\n' "$g"; done
    printf '|}\n'
}

page() { # title id revisions [two] — a page's FULL history, one table per
    # revision, or two under the same caption with "two"
    local title="$1" id="$2" revs="$3" i
    printf '<page><title>%s</title><id>%s</id>' "$title" "$id"
    for ((i = 0; i < revs; i++)); do
        printf '<revision><timestamp>2001-0%s-01T00:00:00Z</timestamp><text>' "$((i + 2))"
        table "$i"
        if [ "${4:-}" = two ]; then table "$i" reversed; fi
        printf '</text></revision>'
    done
    printf '</page>'
}

# --- Day 0: base dump → dataset → index.
{ echo '<mediawiki>'; page Alpha 1 6; page Beta 2 6; page Duo 4 6 two; echo '</mediawiki>'; } \
    >"$BASE_XML"
"$TIND" ingest --dump "$BASE_XML" --out "$BASE" --quiet >/dev/null \
    || fail "base ingest failed"
"$TIND" index --data "$BASE" --out "$IDX" --m 256 >/dev/null || fail "base index failed"

# --- Day 1: delta dump = full history of the changed pages (Alpha and
# Duo grew two revisions) plus a new page (Gamma). Untouched Beta is absent.
{ echo '<mediawiki>'; page Alpha 1 8; page Gamma 3 6; page Duo 4 8 two; echo '</mediawiki>'; } \
    >"$DELTA_XML"
OUT=$("$TIND" update --dump "$DELTA_XML" --data "$BASE" --out "$MERGED" \
    --index "$IDX" --index-out "$IDX_INCR" --report "$REPORT" \
    --quarantine-report "$QUARANTINE" --quiet) \
    || fail "update failed"
echo "$OUT" | grep -q '4 attribute(s) touched' || fail "expected 4 touched attributes: $OUT"
echo "$OUT" | grep -q 'dataset written to' || fail "no merged dataset reported: $OUT"

# --- Update ≡ cold ingest of the combined stream.
{ echo '<mediawiki>'; page Alpha 1 8; page Beta 2 6; page Duo 4 8 two; page Gamma 3 6
    echo '</mediawiki>'; } >"$COMBINED_XML"
"$TIND" ingest --dump "$COMBINED_XML" --out "$COLD" --quiet >/dev/null \
    || fail "cold ingest of the combined stream failed"
cmp -s "$MERGED" "$COLD" \
    || fail "merged dataset differs from a cold ingest of the combined stream"

# --- The delta-oracle pin: the incrementally maintained index is
# byte-identical to a cold rebuild over the merged dataset.
"$TIND" index --data "$MERGED" --out "$IDX_COLD" --m 256 >/dev/null \
    || fail "cold rebuild failed"
cmp -s "$IDX_INCR" "$IDX_COLD" \
    || fail "maintained index differs from the cold rebuild (delta oracle violated)"
"$TIND" verify "$IDX_INCR" --data "$MERGED" | grep -q 'OK' \
    || fail "maintained index failed verification"
"$TIND" verify "$REPORT" --schema devtools/report-schema.json >/dev/null \
    || fail "update run report failed schema verification"
"$TIND" verify "$REPORT" --quarantine "$QUARANTINE" >/dev/null \
    || fail "update run report failed the quarantine cross-check"

# --- Kill/resume through the TINDUC checkpoint: a zero deadline
# interrupts with exit 130 before the first page, `tind verify` sniffs
# the checkpoint format, and the resumed run merges byte-identically.
EXIT=0
"$TIND" update --dump "$DELTA_XML" --data "$BASE" --out "$SINK" \
    --checkpoint "$CKPT" --deadline 0 --quiet >/dev/null 2>&1 || EXIT=$?
[ "$EXIT" = 130 ] || fail "expected exit 130 from a zero deadline, got $EXIT"
"$TIND" verify "$CKPT" | grep -q 'update checkpoint:' \
    || fail "verify did not sniff the TINDUC checkpoint"
"$TIND" update --dump "$DELTA_XML" --data "$BASE" --out "$RESUMED" \
    --checkpoint "$CKPT" --resume --quiet >/dev/null || fail "resumed update failed"
cmp -s "$MERGED" "$RESUMED" \
    || fail "resumed update produced a different merged dataset"

echo "update-smoke: passed (4 attrs touched, update ≡ cold ingest, maintained index byte-identical, resume clean)"
