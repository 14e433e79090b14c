#!/usr/bin/env bash
# Byte identity of all-pairs between two tind binaries: the TINDCP
# checkpoint (`--checkpoint-every 1`, and the default interval) and the
# pair count line, at 1 and 2 threads, on a generated D5k dataset.
# Timing fields are left out of the output comparison; the worker-thread
# count of the timing line is compared.
#
# Usage: results/pr42/identity.sh PARENT_TIND CHANGE_TIND SCRATCH_DIR
set -euo pipefail
P="$1" C="$2" DIR="$3"
mkdir -p "$DIR"
"$C" generate --attributes 5000 --seed 7 --out "$DIR/d5k.tind" >/dev/null
for every in 1 256; do
    for t in 1 2; do
        for b in P C; do
            rm -f "$DIR/$b.tcp"
            "${!b}" all-pairs --data "$DIR/d5k.tind" --threads "$t" --quiet \
                --checkpoint "$DIR/$b.tcp" --checkpoint-every "$every" >"$DIR/$b.out"
        done
        cmp "$DIR/P.tcp" "$DIR/C.tcp"
        diff <(head -1 "$DIR/P.out") <(head -1 "$DIR/C.out")
        diff <(grep -o '[0-9]* worker thread' "$DIR/P.out") <(grep -o '[0-9]* worker thread' "$DIR/C.out")
        echo "checkpoint-every $every, $t thread(s): TINDCP cmp-equal, $(grep -o '[0-9]* worker thread' "$DIR/C.out")(s) each; $(head -1 "$DIR/C.out")"
    done
done
for t in 1 2; do
    for b in P C; do "${!b}" all-pairs --data "$DIR/d5k.tind" --threads "$t" --progress 500 >"$DIR/$b.out" 2>"$DIR/$b.err"; done
    diff <(head -1 "$DIR/P.out") <(head -1 "$DIR/C.out")
    diff <(sed 's/queries,.*//' "$DIR/P.err") <(sed 's/queries,.*//' "$DIR/C.err")
    echo "progress every 500, $t thread(s): pair line and progress counts equal ($(wc -l <"$DIR/C.err") lines)"
done
