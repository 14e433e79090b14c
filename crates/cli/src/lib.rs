//! # tind-cli
//!
//! The `tind` command-line tool: dataset generation, interactive tIND
//! search, all-pairs discovery, the wiki extraction pipeline, and the full
//! experiment suite.
//!
//! ```text
//! tind generate --attributes 5000 --seed 1 --out data.tind
//! tind stats --data data.tind
//! tind search --data data.tind --query source-3 --eps 3 --delta 7
//! tind reverse-search --data data.tind --query source-3
//! tind all-pairs --data data.tind --threads 8
//! tind store pack --data data.tind --out data.store --shards 4
//! tind serve --data data.tind --port 0 --port-file port.txt
//! tind pipeline --demo --attributes 200
//! tind experiment fig7 --scale quick
//! tind experiment all --scale standard
//! tind list-experiments
//! ```

pub mod args;
pub mod commands;

pub use commands::{dispatch, CliError};

/// Usage text shown by `tind help`.
pub const USAGE: &str = "\
tind — temporal inclusion dependency discovery (EDBT 2024 reproduction)

USAGE:
  tind <command> [options]

COMMANDS:
  generate          generate a synthetic Wikipedia-shaped dataset
                      --attributes N  (default 1000)
                      --seed S        (default 42)
                      --preset small|paper (default paper)
                      --out FILE      (required)
                      [--truth-out FILE]  export genuine pairs as CSV
  stats             print dataset statistics
                      --data FILE
  search            tIND search for one query attribute
                      --data FILE --query NAME-OR-ID
                      [--eps DAYS=3] [--delta DAYS=7] [--decay A] [--limit K=20]
                      [--batch A,B,C]   search many queries in one batched
                                        index walk instead of --query
                      [--threads T=0]   batch worker threads (0 = all cores)
                      [--build-threads T=0]  index build workers (0 = all cores;
                                        output is identical at any count)
                      [--report FILE]   write a TINDRR run report (see below)
                      [--trace FILE]    write a TINDTF trace of the query's
                                        stage 1–4 timeline (render: tind trace)
  reverse-search    reverse tIND search (who is contained in the query)
                      --data FILE --query NAME-OR-ID
                      [--eps DAYS=3] [--delta DAYS=7] [--decay A] [--limit K=20]
                      [--build-threads T=0] [--report FILE]
  partial-search    σ-partial tIND search (future-work extension: only a
                    fraction σ of the LHS must be δ-contained per timestamp)
                      --data FILE --query NAME-OR-ID [--sigma S=0.8]
                      [--eps DAYS=3] [--delta DAYS=7] [--decay A] [--limit K=20]
  explain           show where and why a candidate (in)validates
                      --data FILE --lhs NAME-OR-ID --rhs NAME-OR-ID
                      [--eps DAYS=3] [--delta DAYS=7] [--decay A]
  top-k             rank right-hand sides by violation weight
                      --data FILE --query NAME-OR-ID [--k K=5] [--delta D=7] [--decay A]
                      [--build-threads T=0]
                    (no --eps: the ranking is by violation weight)
  all-pairs         discover all tINDs
                      --data FILE [--eps DAYS=3] [--delta DAYS=7] [--threads T]
                      [--checkpoint FILE]    periodically persist progress
                      [--checkpoint-every N=256]  queries per worker between checkpoints
                      [--resume]             continue from --checkpoint FILE
                      [--deadline SECS]      stop gracefully after a wall-clock budget
                      [--memory-limit BYTES] degrade parallelism under a memory budget
                      [--quiet]              suppress periodic progress lines
                      [--progress N]         progress line every N queries
                      [--report FILE]        write a TINDRR run report
                      [--trace FILE]         write a TINDTF trace of the run
                    (Ctrl-C checkpoints and exits 130; resumed runs produce
                    byte-identical results)
  verify            check a persisted artifact's magic and checksum
                      <FILE> [--data FILE]   dataset, index, checkpoint,
                                             ingest/update checkpoint, quarantine,
                                             store manifest/shard, or
                                             TINDRR run-report file
                      <DIR>                  a store directory: verifies the
                                             manifest and every shard digest
                                             (TINDTF trace files verify too)
                      [--schema FILE]        validate a run report against a
                                             JSON schema (devtools/report-schema.json)
                      [--quarantine FILE]    cross-check a run report's
                                             ingest.quarantined_total gauge
                                             against a quarantine artifact
  index             build and persist an index file
                      --data FILE --out FILE [--m M=512] [--eps E=3] [--delta D=7]
                      [--decay A] [--reverse true] [--build-threads T=0] [--report FILE]
                    (search/reverse-search/top-k/explore accept --index FILE)
  store             crash-safe sharded index store (atomic commits, CRC-bound
                    arena shards that open zero-copy, corrupt-shard quarantine
                    and repair); a cache of the dataset — re-pack to regenerate
                      pack    --data FILE --out DIR [--shards N=auto] [--m M=512]
                              [--eps E=3] [--delta D=7] [--decay A] [--reverse true]
                              [--index FILE]  re-shard a monolithic index file
                      verify  <DIR> (or --store DIR) — manifest + shard digests
                      repair  --store DIR --data FILE — rebuild quarantined
                              shards byte-identical to the manifest digests
                    (search/reverse-search/serve accept --store DIR; a store
                    with quarantined shards opens degraded: live attributes
                    stay exact, masked ones are excluded until repair)
  explore           interactive query loop on stdin
                      --data FILE [--index FILE] [--build-threads T=0]
  serve             fault-contained HTTP query daemon on a hot index
                      --data FILE [--host H=127.0.0.1] [--port P=7171]
                      [--store DIR]        load the index from a sharded store;
                                           quarantined shards serve degraded
                                           (typed shard_unavailable 503s) and a
                                           background re-verify promotes back
                      [--reverify-ms MS=500]  degraded re-verify poll interval
                      [--port-file FILE]   write the bound port (0 = ephemeral)
                      [--eps E=3] [--delta D=7] [--decay A]  index sizing defaults
                      [--workers N=0] [--readers N=0] [--queue N=64]
                      [--coalesce N=16]    max searches batched into one wave
                      [--deadline-ms MS=2000] [--max-deadline-ms MS=30000]
                      [--read-timeout-ms MS=2000] [--write-timeout-ms MS=2000]
                      [--max-body-bytes B=1048576] [--memory-limit BYTES]
                      [--drain-grace-ms MS=5000] [--build-threads T=0]
                      [--cache N=0]        result-cache capacity in entries (0 = off);
                                           Engine::apply_delta invalidates only the
                                           entries a delta affected
                      [--plan-cache N=0]   validation-plan LRU keyed by
                                           (attribute, eps, delta, weights); delta
                                           ingestion evicts touched entries
                      [--store-backing mmap|windowed]
                                           how --store shards back the index:
                                           mmap (default) borrows zero-copy, windowed
                                           preads sections on demand under --memory-limit
                      [--trace-last N=4]   tail-sample N slowest + N most recent
                                           request traces for GET /debug/trace
                                           (0 = retain none)
                      [--metrics-tick-ms MS=1000]  metrics-history snapshot
                                           period (0 = off); GET /metrics/history
                      [--quiet] [--report FILE]
                    (POST /search /reverse-search /explain, GET /healthz /metrics
                    /metrics/history /debug/trace?last=N&format=json|tindtf;
                    request header `X-Tind-Trace: 1` force-samples a trace and
                    returns its id in X-Tind-Trace-Id; overload sheds with 429 +
                    retry_after_ms, deadlines return 504, panics are quarantined
                    as 500; SIGINT/SIGTERM drains, flushes --report, and exits 130)
  pipeline          run the wiki extraction pipeline on a synthetic revision
                    stream rendered from a generated dataset
                      --demo [--attributes N=200] [--seed S]
                    (MediaWiki XML exports go through `tind ingest`)
  ingest            resilient streaming ingestion of a MediaWiki XML export
                    (quarantine + resume, vandalism filtering): the update of
                    an empty dataset by the whole dump
                      --dump FILE --out FILE [--timeline N=6148] [--epoch YYYY-MM-DD]
                      [--max-page-bytes B=8388608]  skip (quarantine) larger pages
                      [--max-error-rate F=0.05]     abort above this quarantine rate
                      [--memory-limit BYTES]        bound held page bytes
                      [--checkpoint FILE]           persist page-granular progress
                      [--checkpoint-every N=512]    pages between checkpoints
                      [--resume]                    continue from --checkpoint FILE
                      [--deadline SECS] [--quarantine-report FILE] [--quiet]
                      [--progress N=1000] [--report FILE]
                    (Ctrl-C checkpoints (TINDIC) and exits 130; resumed runs
                    produce byte-identical datasets; bad pages are quarantined,
                    not fatal; a page repeated in the dump replaces its earlier
                    copy; a page's columns get unique names, a repeated
                    caption + header taking a ` (2)`, ` (3)`, ... suffix)
  update            the same ingestion on top of an existing dataset, with
                    semi-naive index maintenance (no cold rebuild)
                      --dump FILE --data BASE --out FILE
                      [--index FILE]      update this index in place via
                                          core::delta (refused when the delta
                                          touches a quarantined store shard)
                      [--index-out FILE]  write the updated index here instead
                      [--compact]         cold-rebuild the index after applying
                                          the delta (realigns drifted slices)
                      [--epoch YYYY-MM-DD] [--max-page-bytes B] [--max-error-rate F]
                      [--memory-limit BYTES] [--checkpoint FILE] [--checkpoint-every N=512]
                      [--resume] [--deadline SECS] [--quarantine-report FILE]
                      [--quiet] [--progress N=1000] [--report FILE]
                    (delta pages carry the FULL revision history of changed or
                    new pages, which replace their columns in place, ids kept;
                    Ctrl-C checkpoints (TINDUC) and exits 130; kill/resume is
                    byte-identical; a base holding an attribute name twice,
                    written before names were unique, is refused (exit 3):
                    re-ingest it)
  trace             render a TINDTF trace file as a span waterfall
                      <FILE> (or --file FILE)
                      [--chrome OUT]  export Chrome trace_event JSON
                                      (load in chrome://tracing or Perfetto)
                      [--diff FILE2]  per-span-name duration comparison
                    (produce traces with search/all-pairs --trace FILE, or from
                    a daemon via GET /debug/trace?format=tindtf)
  experiment        run a paper experiment (or 'all')
                      <id|all> [--scale quick|standard|full] [--seed S]
                      [--threads T] [--attributes N] [--queries Q] [--csv-dir DIR]
  list-experiments  list experiment ids and descriptions
  help              show this message

OBSERVABILITY:
  Commands accepting --report FILE write a one-line checksummed JSON run
  report (magic TINDRR1): phase timings, span aggregates, and the full
  metrics registry. `tind verify report.json --schema devtools/report-schema.json`
  checks it; DESIGN.md §Observability documents the span and metric names.
  Commands accepting --trace FILE write a checksummed TINDTF trace of the
  request timeline; `tind trace FILE` renders it, `tind verify FILE`
  checks it, and `tind trace FILE --chrome OUT` exports Chrome JSON.

EXIT CODES:
  0 ok · 1 error · 2 bad usage · 3 corrupt or mismatched data · 4 i/o
  5 discovery failure · 130 interrupted (progress checkpointed when enabled)
";
