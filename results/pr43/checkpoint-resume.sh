#!/usr/bin/env bash
# A TINDCP all-pairs checkpoint written by one tind binary resumes under
# another to the same pairs. PARENT writes a partial checkpoint (stopped
# by --deadline, exit 130) and CHANGE resumes it. The finished checkpoint
# must hold the same completed queries, poisoned queries and pairs —
# byte for byte — as an uninterrupted run of each binary, with the same
# pair-count line. Its validation count may differ: it counts the
# validations each binary's index let through, and a change of m moves
# it. The params digest binds ε, δ and w only, so the resume is accepted.
#
# Usage: results/pr43/checkpoint-resume.sh PARENT_TIND CHANGE_TIND SCRATCH_DIR
set -euo pipefail
P="$1" C="$2" DIR="$3"
mkdir -p "$DIR"
D="$DIR/d5k.tind"
"$P" generate --attributes 5000 --seed 7 --out "$D" >/dev/null

# TINDCP: magic, fingerprint and params digest (24 bytes), then varints
# total_queries and validations_run, then completed, poisoned and pairs,
# then the 4-byte CRC trailer. Prints "<validations> <sha256 of the rest>".
fields() {
    python3 - "$1" <<'PY'
import hashlib, sys
b = open(sys.argv[1], "rb").read()
def varint(i):
    v = s = 0
    while True:
        c = b[i]; i += 1; v |= (c & 0x7F) << s; s += 7
        if c < 0x80: return v, i
_, i = varint(24)
validations, i = varint(i)
print(validations, hashlib.sha256(b[i:-4]).hexdigest())
PY
}

for t in 1 2; do
    rm -f "$DIR/full-P.tcp" "$DIR/full-C.tcp" "$DIR/resumed.tcp"
    for b in P C; do
        "${!b}" all-pairs --data "$D" --threads "$t" --quiet \
            --checkpoint "$DIR/full-$b.tcp" >"$DIR/full-$b.out"
    done
    code=0
    "$P" all-pairs --data "$D" --threads "$t" --quiet --checkpoint "$DIR/resumed.tcp" \
        --checkpoint-every 50 --deadline 0.05 >/dev/null 2>&1 || code=$?
    [ "$code" = 130 ] || { echo "the parent's run was not interrupted (exit $code)"; exit 1; }
    partial=$("$C" verify "$DIR/resumed.tcp" | grep -o '[0-9]*/[0-9]* queries')
    "$C" all-pairs --data "$D" --threads "$t" --quiet --checkpoint "$DIR/resumed.tcp" \
        --resume >"$DIR/resumed.out"
    read -r vp hp < <(fields "$DIR/full-P.tcp")
    read -r vc hc < <(fields "$DIR/full-C.tcp")
    read -r vr hr < <(fields "$DIR/resumed.tcp")
    [ "$hp" = "$hr" ] && [ "$hc" = "$hr" ] || { echo "$t thread(s): pair sections differ"; exit 1; }
    diff <(head -1 "$DIR/full-P.out") <(head -1 "$DIR/resumed.out")
    echo "$t thread(s): parent stopped at $partial, change resumed; completed, poisoned" \
        "and pairs byte-equal to both full runs; $(head -1 "$DIR/resumed.out");" \
        "validations parent $vp, change $vc, resumed $vr"
done
