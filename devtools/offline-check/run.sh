#!/usr/bin/env bash
# Offline typecheck + test harness.
#
# This workspace's external dependencies (bytes, rand, crossbeam,
# parking_lot, proptest, criterion) come from crates.io; in an air-gapped
# container with an empty registry cache `cargo build` cannot even start.
# This script compiles the workspace with plain `rustc` against the
# minimal shims in ./shims so the code can still be typechecked and the
# unit/integration tests run without network access.
#
# Coverage gaps vs. a real `cargo test`:
#   - `proptest!` blocks expand to nothing (plain #[test]s still run), and
#     tests/proptests.rs (module-level strategy combinators) is skipped;
#   - criterion benches compile against a one-shot shim and are smoke-run
#     (one iteration at TIND_BENCH_ATTRS=200 scale), not measured;
#   - the shim StdRng is a different (still deterministic) stream than the
#     real rand::StdRng, so seed-sensitive expectations can differ.
#
# Usage: devtools/offline-check/run.sh [--check-only]

set -euo pipefail

cd "$(dirname "$0")/../.."
OUT=target/offline-check
mkdir -p "$OUT"

CHECK_ONLY=0
[ "${1:-}" = "--check-only" ] && CHECK_ONLY=1

RUSTC="rustc --edition 2021 -L dependency=$OUT"

shim() { # name
    echo "shim $1"
    $RUSTC --crate-name "$1" --crate-type rlib \
        -o "$OUT/lib$1.rlib" "devtools/offline-check/shims/$1.rs"
}

shim bytes
shim rand
shim parking_lot
shim crossbeam
shim proptest
shim criterion

# Every shim and workspace rlib, so each crate (and its tests, which may
# pull in dev-dependencies) can just receive the full set.
externs() {
    local flags=""
    for dep in bytes rand parking_lot crossbeam proptest criterion \
        tind_obs tind_model tind_bloom tind_core tind_serve tind_baseline \
        tind_wiki tind_datagen tind_eval tind_cli tind_bench tind; do
        [ -f "$OUT/lib$dep.rlib" ] && flags="$flags --extern $dep=$OUT/lib$dep.rlib"
    done
    echo "$flags"
}

lib() { # crate_name path
    echo "check $1"
    # shellcheck disable=SC2046
    $RUSTC --crate-name "$1" --crate-type rlib $(externs) \
        -o "$OUT/lib$1.rlib" "$2"
}

test_bin() { # crate_name path [extra libtest args...]
    local name="$1" path="$2"
    shift 2
    echo "test  $name"
    # shellcheck disable=SC2046
    $RUSTC --test --crate-name "${name}_tests" $(externs) \
        -o "$OUT/${name}_tests" "$path"
    if [ "$CHECK_ONLY" = 0 ]; then
        "$OUT/${name}_tests" --quiet "$@"
    fi
}

# Dependency order.
lib tind_obs crates/obs/src/lib.rs
lib tind_model crates/model/src/lib.rs
lib tind_bloom crates/bloom/src/lib.rs
lib tind_core crates/core/src/lib.rs
lib tind_serve crates/serve/src/lib.rs
lib tind_baseline crates/baseline/src/lib.rs
lib tind_wiki crates/wiki/src/lib.rs
lib tind_datagen crates/datagen/src/lib.rs
lib tind_eval crates/eval/src/lib.rs
lib tind_cli crates/cli/src/lib.rs
lib tind_bench crates/bench/src/lib.rs
lib tind src/lib.rs

echo "check tind (bin)"
# shellcheck disable=SC2046
$RUSTC --crate-name tind_bin --crate-type bin $(externs) \
    -o "$OUT/tind" crates/cli/src/main.rs

# The obs-off feature must keep every instrumented crate compiling: spans
# and metrics become no-ops, so this is a metadata-only typecheck pass.
echo "check tind_obs (obs-off)"
# shellcheck disable=SC2046
$RUSTC --crate-name tind_obs --crate-type rlib --emit=metadata \
    --cfg 'feature="obs-off"' $(externs) \
    -o "$OUT/libtind_obs_off.rmeta" crates/obs/src/lib.rs

# Unit tests, crate by crate.
test_bin tind_obs crates/obs/src/lib.rs
test_bin tind_model crates/model/src/lib.rs
test_bin tind_bloom crates/bloom/src/lib.rs
test_bin tind_core crates/core/src/lib.rs
test_bin tind_serve crates/serve/src/lib.rs
test_bin tind_baseline crates/baseline/src/lib.rs
test_bin tind_wiki crates/wiki/src/lib.rs
test_bin tind_datagen crates/datagen/src/lib.rs
test_bin tind_eval crates/eval/src/lib.rs
test_bin tind_cli crates/cli/src/lib.rs

# Crate-level integration tests. crates/wiki/tests/parser_props.rs uses
# strategy combinators at module level and needs real proptest (cargo
# runs it); ingest_adversarial and blocked_kernels keep proptest inside
# `proptest!` blocks, so their plain #[test]s run here too.
test_bin it_ingest_adversarial crates/wiki/tests/ingest_adversarial.rs
test_bin it_blocked_kernels crates/bloom/tests/blocked_kernels.rs

# The serve CLI tests exercise the real binary's signal path (SIGINT /
# SIGTERM → drain → exit 130); point them at the rustc-built binary.
export TIND_BIN="$OUT/tind"
test_bin it_serve_cli crates/cli/tests/serve_cli.rs

# Workspace integration tests (tests/proptests.rs needs real proptest).
# sigma_partial_search_recovers_renamed_pairs asserts on how much material
# a specific rand::StdRng seed generates; the shim RNG is a different
# stream, so that one statistical test only runs under real `cargo test`.
for t in tests/*.rs; do
    name=$(basename "$t" .rs)
    [ "$name" = proptests ] && continue
    if [ "$name" = partial_recovery ]; then
        test_bin "it_$name" "$t" --skip sigma_partial_search_recovers_renamed_pairs
    else
        test_bin "it_$name" "$t"
    fi
done

# Criterion benches against the one-shot shim: every bench target must
# compile; batch_search and validate_kernel are also smoke-run (one
# iteration per bench point, reduced dataset) to exercise the parallel
# build / batched search / plan-based validation kernels end to end. Real
# measurements still need `cargo bench`.
for b in crates/bench/benches/*.rs; do
    name=$(basename "$b" .rs)
    echo "bench $name"
    # shellcheck disable=SC2046
    $RUSTC --crate-name "bench_$name" --crate-type bin $(externs) \
        -o "$OUT/bench_$name" "$b"
done
if [ "$CHECK_ONLY" = 0 ]; then
    echo "smoke bench_batch_search (TIND_BENCH_ATTRS=200)"
    TIND_BENCH_ATTRS=200 "$OUT/bench_batch_search"
    echo "smoke bench_validate_kernel (TIND_BENCH_ATTRS=200)"
    TIND_BENCH_ATTRS=200 "$OUT/bench_validate_kernel"
    echo "smoke bench_obs_overhead (TIND_BENCH_ATTRS=200)"
    TIND_BENCH_ATTRS=200 TIND_BENCH_OBS_OUT="$OUT/BENCH_obs.json" \
        "$OUT/bench_obs_overhead"
    "$OUT/tind" verify "$OUT/BENCH_obs.json" \
        --schema devtools/report-schema.json
    # Run-report smoke: an all-pairs run must emit a TINDRR report that
    # passes checksum + schema verification end to end through the CLI.
    echo "smoke run report (all-pairs --report)"
    "$OUT/tind" generate --attributes 120 --preset small --seed 5 \
        --out "$OUT/report-smoke.tind" >/dev/null
    "$OUT/tind" all-pairs --data "$OUT/report-smoke.tind" --threads 2 \
        --quiet --report "$OUT/report-smoke.json" >/dev/null
    "$OUT/tind" verify "$OUT/report-smoke.json" \
        --schema devtools/report-schema.json

    # Serve smoke: boot the daemon, query it, SIGINT-drain it, and verify
    # the flushed report (see devtools/serve-smoke.sh).
    echo "smoke tind serve (ephemeral port, SIGINT drain)"
    devtools/serve-smoke.sh "$OUT/tind" "$OUT"

    # Trace smoke: force-sample a /search trace, export it via
    # /debug/trace, render + checksum-verify it with the CLI, and check
    # the one-shot `search --trace` path (see devtools/trace-smoke.sh).
    echo "smoke request tracing (forced sample, TINDTF export, waterfall)"
    devtools/trace-smoke.sh "$OUT/tind" "$OUT"

    # Store smoke: pack a sharded store, recover from simulated crash
    # debris, corrupt a shard, serve degraded, repair out-of-band, and
    # watch the daemon promote back (see devtools/store-smoke.sh).
    echo "smoke sharded store (pack, crash debris, degraded serve, repair)"
    devtools/store-smoke.sh "$OUT/tind" "$OUT"

    # Update smoke: delta ingest with in-place index maintenance, pinned
    # byte-identical to a cold rebuild; TINDUC interrupt → verify →
    # resume (see devtools/update-smoke.sh).
    echo "smoke live updates (delta ingest, maintained index vs cold rebuild)"
    devtools/update-smoke.sh "$OUT/tind" "$OUT"

    # Benchmark gate: the load generator's self-test, then every workload
    # at 1 000 attributes with all of the harness's oracles on (numbers
    # not recorded). Builds its own binaries under target/benchmark.
    echo "smoke benchmark (loadgen self-test, all workloads at 1000 attributes)"
    benchmark/run.sh --self-test
    benchmark/run.sh --smoke
fi

echo "offline check passed"
