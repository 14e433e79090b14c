//! # tind-obs — hand-rolled observability for the tIND workspace
//!
//! Spans, a metrics registry, and checksummed `TINDRR` run reports, built
//! on `std` alone like the rest of the workspace — no `tracing`, no
//! `metrics`, no serde.
//!
//! * [`span`](mod@span) — the one recorder: one guard ([`span()`], or
//!   [`traced_span`] under a [`TraceContext`]) adds each interval to its
//!   name's per-thread aggregate and, inside a sampled request, writes the
//!   same interval to the thread's bounded trace ring; one per-thread
//!   state, registry and reset behind both.
//! * [`trace`] — request identity ([`TraceContext`]), the shared obs
//!   clock, ring collection into a [`ParsedTrace`], and the checksummed
//!   `TINDTF` / Chrome `trace_event` exporters.
//! * [`metrics`] — named counters (sharded atomics), gauges, and
//!   log2-bucket histograms (with p50/p90/p99 estimation) behind an
//!   interning registry.
//! * [`history`] — a fixed-size ring of periodic registry snapshots
//!   (delta-encoded counters) for `GET /metrics/history` and TINDRR.
//! * [`report`] — the `TINDRR` JSON artifact (`--report <path>`): phase
//!   timings, span aggregates, metric values, CRC-32 checksum, plus a
//!   schema-subset validator for `devtools/report-schema.json`.
//! * [`reporter`] — shared progress/stats line policy and formatting for
//!   the CLI (quiet/interval handling, uniform duration/rate/ETA shapes).
//! * [`json`] — the minimal canonical JSON model the above ride on.
//!
//! Span/metric state is process-global by design: one CLI invocation is
//! one run. [`reset`] clears it (the CLI calls this as dispatch starts).
//!
//! ## Metric families
//!
//! Producers register names lazily, so the registry only carries what a
//! run touched. Established families: `search.*` / `allpairs.*` /
//! `index.*` / `ingest.*` / `memory.*` from the pipeline crates, and the
//! `tind-serve` daemon's `serve.*` family — `serve.connections`,
//! `serve.requests`, `serve.responses_ok`, `serve.responses_error`,
//! `serve.shed_queue`, `serve.shed_memory`, `serve.panics`,
//! `serve.deadline_timeouts`, `serve.draining_rejects`, `serve.waves`,
//! `serve.coalesced_requests` (counters), `serve.queue_depth` (gauge),
//! and `serve.wave_size` / `serve.request_latency_ns` plus the
//! per-endpoint attribution split
//! `serve.latency.{search,reverse_search,explain}.{queued,coalesced,exec}_ns`
//! (histograms). The observability layer reports on itself through
//! `obs.spans.dropped_total`, counting trace events lost to ring
//! overflow. [`metrics_value`] snapshots the registry in the
//! exact JSON shape the `TINDRR` report embeds, which is also what
//! `/metrics` serves.
//!
//! Building with the `obs-off` feature compiles spans and metrics down to
//! no-ops (zero-sized guards, inert shared metric handles); reports can
//! still be emitted but carry only wall time. An example
//! (`examples/obs_overhead.rs`) asserts the enabled layer stays under 2%
//! of stage-4 validation cost.

pub mod history;
pub mod json;
pub mod metrics;
pub mod report;
pub mod reporter;
pub mod span;
pub mod trace;

pub use history::{history_tick, history_value, set_history_capacity};
pub use json::Value;
pub use metrics::{counter, gauge, histogram, histogram_quantile, metrics_snapshot, Counter,
    Gauge, Histogram, MetricSnapshot, MetricValue};
pub use report::{crc32, metrics_value, validate_schema, verify_report, RunReport, REPORT_MAGIC,
    REPORT_PREFIX, SCHEMA_VERSION};
pub use reporter::{fmt_duration_ns, fmt_eta_secs, fmt_pipeline, fmt_rate,
    fmt_validation_summary, Reporter};
pub use span::{span, span_snapshot, trace_only_span, traced_span, SpanGuard, SpanStats};
pub use trace::{collect_trace, verify_trace, ParsedEvent, ParsedTrace, TraceContext,
    TRACE_MAGIC, TRACE_PREFIX};

/// Clear all recorded spans, trace events, metrics, and history ticks.
/// Call once at the start of a run (the CLI does this in `dispatch`);
/// `&'static` metric handles stay valid.
pub fn reset() {
    span::reset_recorder();
    metrics::reset_metrics();
    history::reset_history();
}

/// Serializes tests that touch the process-global span/metric state.
#[cfg(test)]
#[allow(dead_code)] // unused when `obs-off` compiles the stateful tests out
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[cfg(not(feature = "obs-off"))]
    #[test]
    fn reset_clears_spans_and_metrics_together() {
        let _g = crate::test_guard();
        crate::counter("test.lib.reset").add(5);
        {
            let _s = crate::span("test.lib.reset_span");
        }
        crate::reset();
        assert_eq!(crate::counter("test.lib.reset").value(), 0);
        assert!(crate::span_snapshot().iter().all(|s| s.name != "test.lib.reset_span"));
    }

    #[cfg(feature = "obs-off")]
    #[test]
    fn obs_off_is_inert_but_api_complete() {
        let c = crate::counter("test.lib.off");
        c.add(5);
        assert_eq!(c.value(), 0);
        {
            let _s = crate::span("test.lib.off_span");
        }
        assert!(crate::span_snapshot().is_empty());
        crate::gauge("g").set(1.0);
        assert_eq!(crate::gauge("g").get(), 0.0);
        crate::histogram("h").record(7);
        assert_eq!(crate::histogram("h").count(), 0);
        crate::reset();
        let report = crate::RunReport::collect("off", &[], 100);
        assert!(crate::verify_report(&report.to_json()).is_ok());
    }
}
