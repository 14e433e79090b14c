#!/usr/bin/env bash
# One build entry for the benchmark: the `tind` binary under test plus the
# harness, optimised, into one directory whose path is printed on stdout
# (everything else goes to stderr).
#
# Same fallback rule as ci.sh: when `cargo metadata` resolves, build with
# `cargo build --release`; otherwise (no registry, nothing vendored) build
# with `rustc -C opt-level=3` against devtools/offline-check/shims. The
# offline-check harness itself builds unoptimised, so its binaries are
# never reused. The shim RNG is a different stream than the real StdRng:
# datasets, and therefore numbers, are only comparable within one
# build mode — which is why the mode is stamped into build-info.txt.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -d crates ] || [ ! -d devtools/offline-check/shims ]; then
    echo "benchmark/build.sh: no tind sources next to benchmark/ — nothing to build" >&2
    exit 1
fi

TARGET="${CARGO_TARGET_DIR:-target}"
SHIM_OUT="$TARGET/benchmark"
STAMP="$SHIM_OUT/.built"
SOURCES="crates devtools/offline-check/shims benchmark/src benchmark/build.sh"

# An up-to-date rustc + shims build is reused without asking cargo again:
# with no registry `cargo metadata` takes ~10 s to give up, on every run.
# shellcheck disable=SC2086
if [ -f "$STAMP" ] && [ -z "$(find $SOURCES -newer "$STAMP" -print -quit)" ]; then
    echo "$SHIM_OUT"
    exit 0
fi

if cargo metadata --format-version 1 >/dev/null 2>&1 &&
    cargo metadata --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null 2>&1; then
    MODE=cargo
    OUT="$TARGET/release"
    export CARGO_TARGET_DIR="$TARGET"
    cargo build --release -p tind-cli --bin tind >&2
    cargo build --release --manifest-path benchmark/Cargo.toml >&2
else
    MODE=rustc-shims
    OUT="$SHIM_OUT"
    mkdir -p "$OUT"
    echo "benchmark/build.sh: cargo cannot resolve dependencies; building with rustc + shims" >&2
    RUSTC="rustc --edition 2021 -C opt-level=3 --cap-lints allow -L dependency=$OUT"
    DEPS="bytes rand parking_lot crossbeam tind_obs tind_model tind_bloom tind_core \
        tind_serve tind_baseline tind_wiki tind_datagen tind_eval tind_cli"
    externs() {
        local flags=""
        for dep in $DEPS; do
            [ -f "$OUT/lib$dep.rlib" ] && flags="$flags --extern $dep=$OUT/lib$dep.rlib"
        done
        echo "$flags"
    }
    rm -f "$OUT"/*.rlib
    for shim in bytes rand parking_lot crossbeam; do
        $RUSTC --crate-name "$shim" --crate-type rlib -o "$OUT/lib$shim.rlib" \
            "devtools/offline-check/shims/$shim.rs" >&2
    done
    # Dependency order; the CLI pulls in every library crate.
    for crate in obs model bloom core serve baseline wiki datagen eval cli; do
        # shellcheck disable=SC2046
        $RUSTC --crate-name "tind_$crate" --crate-type rlib $(externs) \
            -o "$OUT/libtind_$crate.rlib" "crates/$crate/src/lib.rs" >&2
    done
    # shellcheck disable=SC2046
    $RUSTC --crate-name tind_bin --crate-type bin $(externs) \
        -o "$OUT/tind" crates/cli/src/main.rs >&2
    # shellcheck disable=SC2046
    $RUSTC --crate-name tind_benchmark --crate-type bin $(externs) \
        -o "$OUT/tind-benchmark" benchmark/src/main.rs >&2
fi

{
    echo "build_mode=$MODE"
    echo "rustc=$(rustc -V)"
    echo "nproc=$(nproc)"
    echo "git_revision=$(git rev-parse HEAD 2>/dev/null || echo unknown)"
} >"$OUT/build-info.txt"
[ "$MODE" = rustc-shims ] && touch "$STAMP"

echo "$OUT"
