//! One voice for CLI progress and stats lines.
//!
//! Before this module the four command families (search, batch search,
//! reverse, all-pairs) each formatted their own progress and summary
//! lines, and `ingest` printed rates as `{:.0}/s` while `all-pairs`
//! printed none at all. `Reporter` centralizes the quiet/interval policy
//! and the formatting helpers give every path the same shapes:
//! durations as `1.23s` / `45.6ms`, rates as `123.4 unit/s`, ETAs as
//! `~12s left`.
//!
//! This module is always compiled (it has no span/metric state), so
//! `--quiet` behaves identically under `obs-off`.

/// Progress/stat emission policy for one command invocation.
#[derive(Clone, Copy, Debug)]
pub struct Reporter {
    quiet: bool,
    /// Emit a progress line every `every` items; 0 disables progress.
    every: usize,
}

impl Reporter {
    pub fn new(quiet: bool, every: usize) -> Reporter {
        Reporter { quiet, every }
    }

    pub fn quiet(&self) -> bool {
        self.quiet
    }

    /// Progress interval in items (0 when progress is disabled).
    pub fn every(&self) -> usize {
        if self.quiet {
            0
        } else {
            self.every
        }
    }

    /// Should a progress line fire after finishing item number `done`?
    pub fn tick(&self, done: usize) -> bool {
        let every = self.every();
        every != 0 && done.is_multiple_of(every)
    }

    /// Progress lines go to stderr so piped stdout stays machine-readable.
    pub fn progress(&self, line: impl AsRef<str>) {
        if !self.quiet {
            eprintln!("{}", line.as_ref());
        }
    }

    /// Human-facing result/summary lines go to stdout.
    pub fn stat(&self, line: impl AsRef<str>) {
        if !self.quiet {
            println!("{}", line.as_ref());
        }
    }
}

/// `1.23s`, `45.6ms`, `789µs`, `123ns` — one duration shape everywhere.
pub fn fmt_duration_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{}µs", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// `123.4 pages/s`; an unmeasurably short elapsed prints `- pages/s`.
pub fn fmt_rate(count: u64, elapsed_secs: f64, unit: &str) -> String {
    if elapsed_secs <= 0.0 {
        format!("- {unit}/s")
    } else {
        format!("{:.1} {unit}/s", count as f64 / elapsed_secs)
    }
}

/// `~12s left` / `~3m left` / `~2h left`.
pub fn fmt_eta_secs(secs: f64) -> String {
    if !secs.is_finite() || secs < 0.0 {
        return "~? left".to_string();
    }
    if secs >= 5400.0 {
        format!("~{:.0}h left", secs / 3600.0)
    } else if secs >= 90.0 {
        format!("~{:.0}m left", secs / 60.0)
    } else {
        format!("~{secs:.0}s left")
    }
}

/// The Algorithm-1 funnel in one shape:
/// `initial 1000 → required 120 → slices 40 → exact 12 → valid 7`.
pub fn fmt_pipeline(stages: &[(&str, u64)]) -> String {
    stages
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect::<Vec<_>>()
        .join(" → ")
}

/// The stage-4 summary every search-family command prints:
/// `validation: 940 runs in 1.2ms (61 early-valid, 112 early-invalid exits)`.
pub fn fmt_validation_summary(
    validations: u64,
    early_valid: u64,
    early_invalid: u64,
    nanos: u64,
) -> String {
    format!(
        "validation: {validations} runs in {} ({early_valid} early-valid, {early_invalid} early-invalid exits)",
        fmt_duration_ns(nanos)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_pick_the_right_unit() {
        assert_eq!(fmt_duration_ns(0), "0ns");
        assert_eq!(fmt_duration_ns(999), "999ns");
        assert_eq!(fmt_duration_ns(45_600), "45µs");
        assert_eq!(fmt_duration_ns(45_600_000), "45.6ms");
        assert_eq!(fmt_duration_ns(1_230_000_000), "1.23s");
    }

    #[test]
    fn rates_and_etas_are_uniform() {
        assert_eq!(fmt_rate(500, 2.0, "pages"), "250.0 pages/s");
        assert_eq!(fmt_rate(500, 0.0, "queries"), "- queries/s");
        assert_eq!(fmt_eta_secs(12.4), "~12s left");
        assert_eq!(fmt_eta_secs(180.0), "~3m left");
        assert_eq!(fmt_eta_secs(7200.0), "~2h left");
        assert_eq!(fmt_eta_secs(f64::NAN), "~? left");
    }

    #[test]
    fn pipeline_and_validation_lines() {
        assert_eq!(
            fmt_pipeline(&[("initial", 1000), ("required", 120), ("valid", 7)]),
            "initial 1000 → required 120 → valid 7"
        );
        assert_eq!(
            fmt_validation_summary(940, 61, 112, 1_200_000),
            "validation: 940 runs in 1.2ms (61 early-valid, 112 early-invalid exits)"
        );
    }

    #[test]
    fn reporter_policy() {
        let loud = Reporter::new(false, 10);
        assert!(loud.tick(10));
        assert!(!loud.tick(11));
        assert_eq!(loud.every(), 10);
        let quiet = Reporter::new(true, 10);
        assert!(!quiet.tick(10));
        assert_eq!(quiet.every(), 0);
        let off = Reporter::new(false, 0);
        assert!(!off.tick(10));
    }
}
