#!/usr/bin/env bash
# Tier-1 CI gate. The workspace depends on nothing outside the repository,
# so every step runs offline with an empty registry.

set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
# The model's decoders once failed differently with overflow checks (debug)
# and with wrapping arithmetic (release); their tests run under both.
cargo test --release -q -p tind-model
# The dataset decoder splits its work over two threads; run the model's
# tests again with both on one core. A missing taskset fails the gate.
command -v taskset >/dev/null || { echo "ci: taskset not found" >&2; exit 1; }
taskset -c 0 cargo test --release -q -p tind-model
# Build, batch search, all-pairs and pair refresh share one parallel driver
# (core::par); seven workers on one core interleave its claims every way the
# scheduler can, in the build that ships.
taskset -c 0 cargo test --release -q --test parallel_equivalence
# The Bloom kernels' tiling-equivalence tests, with debug_assert! compiled
# out as in production.
cargo test --release -q -p tind-bloom
# Delta maintenance (the touched-column refresh probe, column retargets)
# and its cold-rebuild oracle, with debug_assert! compiled out too.
cargo test --release -q -p tind-core
cargo test --release -q --test delta_equivalence
# Store repair renders shards through the build's tile renderer; its
# byte-identity oracles run as that renderer ships.
cargo test --release -q --test store_roundtrip
# Every container is framed by the streaming binio::Writer and published
# by binio::publish; the byte pins and the corruption matrix over every
# format `tind verify` knows run against them as they ship.
cargo test --release -q --test fault_tolerance
# The one validator's differential suites as it ships: release builds
# count window underflows instead of asserting on them.
cargo test --release -q --test validation_kernel --test search_equivalence
cargo clippy --workspace --all-targets -- -D warnings
# Doc links left dangling by a rename or a deletion fail here, not in a
# reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib
# The obs-off feature must keep every instrumented crate compiling.
cargo check --features obs-off
# The obs overhead gate: asserts span/metric/trace cost <2% of the
# validate kernel.
cargo run --release --example obs_overhead
# The delta walkthrough asserts maintained index == cold rebuild.
cargo run --release --example evolving_dataset >/dev/null
# Every other example must keep running to completion (exit 0).
for example in quickstart pokemon_tables wiki_pipeline interactive_exploration \
    genuine_inds nary_discovery store_degraded; do
    cargo run --release --example "$example" >/dev/null
done
# Run-report smoke: emit a TINDRR report through the real CLI and
# validate it against the checked-in schema.
target/release/tind generate --attributes 120 --preset small --seed 5 \
    --out target/report-smoke.tind >/dev/null
target/release/tind all-pairs --data target/report-smoke.tind \
    --threads 2 --quiet --report target/report-smoke.json >/dev/null
target/release/tind verify target/report-smoke.json --schema devtools/report-schema.json
# Serve smoke: boot the query daemon, hit it over TCP, SIGINT-drain
# it, and schema-verify the report it flushes on the way down.
devtools/serve-smoke.sh target/release/tind target
# Trace smoke: force-sample a /search trace, export it through
# /debug/trace, and render + checksum-verify it with the CLI.
devtools/trace-smoke.sh target/release/tind target
# Store smoke: pack a sharded store, recover from simulated crash
# debris, corrupt a shard, serve degraded, repair, promote.
devtools/store-smoke.sh target/release/tind target
# Update smoke: ingest a base dump, apply a delta dump with in-place
# index maintenance, and pin the result byte-identical to a cold
# rebuild (plus TINDUC kill/resume and the TINDRR report).
devtools/update-smoke.sh target/release/tind target
# Benchmark gate: load-generator self-test, then every workload at
# 1 000 attributes with the harness's oracles on (numbers not recorded).
benchmark/run.sh --self-test
benchmark/run.sh --smoke
echo "ci: gate passed"
