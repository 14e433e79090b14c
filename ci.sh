#!/usr/bin/env bash
# Tier-1 CI gate.
#
# Networked path: release build, full test suite, and clippy with warnings
# denied (scoped to the workspace's own code; `--no-deps` keeps registry
# crates out of the lint run).
#
# Offline caveat: this container may have no route to the crates.io
# registry (nor a vendored copy or populated `$CARGO_HOME`), in which case
# cargo cannot resolve external dependencies at all and every cargo step
# fails before compiling a single workspace crate. When that happens we
# fall back to `devtools/offline-check/run.sh`, which typechecks the whole
# workspace and runs the unit/integration tests with plain rustc against
# minimal in-repo shims (see that script's header for its coverage gaps:
# proptest! blocks expand to nothing, criterion benches are only
# smoke-run, and the shim RNG is a different stream). To make the full
# path work offline, vendor the registry once while networked:
# `cargo vendor` + the printed `.cargo/config.toml` stanza.

set -euo pipefail
cd "$(dirname "$0")"

if cargo metadata --format-version 1 >/dev/null 2>&1; then
    cargo build --release
    cargo test -q
    cargo clippy --workspace --all-targets --no-deps -- -D warnings
    # Smoke the parallel-build/batched-search bench in Criterion's test
    # mode (one iteration per point) so the bench targets can't rot.
    TIND_BENCH_ATTRS=200 cargo bench -p tind-bench --bench batch_search -- --test
    TIND_BENCH_ATTRS=200 cargo bench -p tind-bench --bench validate_kernel -- --test
    # The obs overhead guard (plain binary, asserts <2% span cost) doubles
    # as the BENCH_obs.json emitter.
    # (absolute path: cargo bench runs the binary from the package dir)
    TIND_BENCH_ATTRS=200 TIND_BENCH_OBS_OUT="$PWD/target/BENCH_obs.json" \
        cargo bench -p tind-bench --bench obs_overhead
    # Run-report smoke: emit a TINDRR report through the real CLI and
    # validate it against the checked-in schema.
    cargo run --release -q -p tind-cli -- generate --attributes 120 --preset small \
        --seed 5 --out target/report-smoke.tind >/dev/null
    cargo run --release -q -p tind-cli -- all-pairs --data target/report-smoke.tind \
        --threads 2 --quiet --report target/report-smoke.json >/dev/null
    cargo run --release -q -p tind-cli -- verify target/report-smoke.json \
        --schema devtools/report-schema.json
    cargo run --release -q -p tind-cli -- verify target/BENCH_obs.json \
        --schema devtools/report-schema.json
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
    # 1 000 attributes with the harness's oracles on (numbers not
    # recorded). The offline branch runs the same two from run.sh.
    benchmark/run.sh --self-test
    benchmark/run.sh --smoke
    echo "ci: full cargo gate passed"
else
    echo "ci: cargo cannot reach a registry (offline, nothing vendored);"
    echo "ci: falling back to the shim-based offline check."
    devtools/offline-check/run.sh
fi
