//! Checksummed quarantine reports for resilient ingestion.
//!
//! Streaming ingestion (PR 2) skips malformed pages instead of aborting:
//! each skipped page is counted and a bounded sample is retained so an
//! operator can inspect *what* was dropped and *why* without the report
//! itself growing with the dump. The report is persisted alongside the
//! dataset using the workspace's on-disk conventions — 8-byte
//! magic-plus-version header, varint encoding ([`crate::binio`]), a
//! source fingerprint guard, and a CRC-32 trailer ([`crate::checksum`])
//! so truncated or bit-rotted reports are rejected with a typed error.

use std::path::Path;

use crate::binio::{self, put_str, put_varint, BinIoError};
use crate::checksum;

/// Magic bytes identifying a serialized quarantine report, including a
/// format version.
pub const QUARANTINE_MAGIC: &[u8; 8] = b"TINDQR\x00\x01";

/// Default cap on the number of sampled entries a report retains.
pub const DEFAULT_SAMPLE_CAP: usize = 64;

fn corrupt(msg: impl Into<String>) -> BinIoError {
    BinIoError::Corrupt(msg.into())
}

/// One quarantined page: where it sat in the source, which page it was,
/// and why it was skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Byte offset of the page's `<page>` open tag in the source stream.
    pub byte_offset: u64,
    /// Page title, or a synthesized description when no title survived.
    pub page: String,
    /// Human-readable reason the page was quarantined.
    pub error: String,
}

/// Counters plus a bounded sample of quarantined pages from one
/// ingestion run.
///
/// Invariant (checked on decode): `pages_seen == pages_kept +
/// pages_quarantined`, so the report can always reconcile against the
/// produced dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Fingerprint of the source stream the report belongs to.
    pub source_fingerprint: u64,
    /// Total `<page>` elements encountered.
    pub pages_seen: u64,
    /// Pages that contributed revisions to the dataset.
    pub pages_kept: u64,
    /// Pages skipped with a recorded reason.
    pub pages_quarantined: u64,
    /// Revisions kept across all kept pages.
    pub revisions_kept: u64,
    /// Revisions dropped inside otherwise-kept pages (bad timestamps,
    /// pre-epoch edits, duplicate keys).
    pub revisions_dropped: u64,
    /// Cap on `entries`; quarantines past the cap are counted only.
    pub sample_cap: usize,
    /// Sampled quarantined pages, in stream order, at most `sample_cap`.
    pub entries: Vec<QuarantineEntry>,
}

impl QuarantineReport {
    /// An empty report for a source with the given fingerprint.
    pub fn new(source_fingerprint: u64, sample_cap: usize) -> Self {
        QuarantineReport {
            source_fingerprint,
            pages_seen: 0,
            pages_kept: 0,
            pages_quarantined: 0,
            revisions_kept: 0,
            revisions_dropped: 0,
            sample_cap,
            entries: Vec::new(),
        }
    }

    /// Records one quarantined page, sampling it if under the cap.
    pub fn record(&mut self, byte_offset: u64, page: impl Into<String>, error: impl Into<String>) {
        self.pages_quarantined += 1;
        if self.entries.len() < self.sample_cap {
            self.entries.push(QuarantineEntry {
                byte_offset,
                page: page.into(),
                error: error.into(),
            });
        }
    }

    /// Fraction of seen pages that were quarantined (0 when nothing was
    /// seen yet).
    pub fn error_rate(&self) -> f64 {
        if self.pages_seen == 0 {
            0.0
        } else {
            self.pages_quarantined as f64 / self.pages_seen as f64
        }
    }

    /// Serializes the report.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 64 * self.entries.len());
        buf.extend_from_slice(QUARANTINE_MAGIC);
        buf.extend_from_slice(&self.source_fingerprint.to_le_bytes());
        put_varint(&mut buf, self.pages_seen);
        put_varint(&mut buf, self.pages_kept);
        put_varint(&mut buf, self.pages_quarantined);
        put_varint(&mut buf, self.revisions_kept);
        put_varint(&mut buf, self.revisions_dropped);
        put_varint(&mut buf, self.sample_cap as u64);
        put_varint(&mut buf, self.entries.len() as u64);
        for e in &self.entries {
            put_varint(&mut buf, e.byte_offset);
            put_str(&mut buf, &e.page);
            put_str(&mut buf, &e.error);
        }
        checksum::append_trailer(&mut buf);
        buf
    }

    /// Deserializes a report written by [`QuarantineReport::encode`],
    /// verifying magic, version, checksum trailer, and count invariants.
    pub fn decode(bytes: &[u8]) -> Result<QuarantineReport, BinIoError> {
        let mut buf = binio::open(bytes, QUARANTINE_MAGIC, "quarantine report")?;
        let source_fingerprint = buf.u64_le("quarantine header")?;
        let pages_seen = buf.varint()?;
        let pages_kept = buf.varint()?;
        let pages_quarantined = buf.varint()?;
        let revisions_kept = buf.varint()?;
        let revisions_dropped = buf.varint()?;
        let sample_cap = buf.varint()? as usize;
        let num_entries = buf.varint()? as usize;
        if pages_kept + pages_quarantined != pages_seen {
            return Err(corrupt("quarantine counts do not reconcile (kept + quarantined != seen)"));
        }
        if num_entries as u64 > pages_quarantined || num_entries > sample_cap {
            return Err(corrupt("quarantine sample larger than its own counters allow"));
        }
        let mut entries = Vec::with_capacity(num_entries.min(1 << 16));
        for _ in 0..num_entries {
            let byte_offset = buf.varint()?;
            let page = buf.str()?.to_owned();
            let error = buf.str()?.to_owned();
            entries.push(QuarantineEntry { byte_offset, page, error });
        }
        buf.finish("quarantine report")?;
        Ok(QuarantineReport {
            source_fingerprint,
            pages_seen,
            pages_kept,
            pages_quarantined,
            revisions_kept,
            revisions_dropped,
            sample_cap,
            entries,
        })
    }

    /// Atomically writes the report to `path` (temp file + rename).
    pub fn write_file(&self, path: &Path) -> Result<(), BinIoError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a report from `path`.
    pub fn read_file(path: &Path) -> Result<QuarantineReport, BinIoError> {
        QuarantineReport::decode(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> QuarantineReport {
        let mut r = QuarantineReport::new(0xDEAD_BEEF_CAFE_F00D, 4);
        r.pages_seen = 10;
        r.pages_kept = 7;
        r.revisions_kept = 41;
        r.revisions_dropped = 3;
        r.record(120, "Broken ▸ page", "missing <title>");
        r.record(4096, "Oversize", "page exceeds 64 B cap");
        r.record(9999, "Panicky", "wikitext parse panicked");
        r
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = sample_report();
        let decoded = QuarantineReport::decode(&r.encode()).expect("decodes");
        assert_eq!(decoded, r);
    }

    #[test]
    fn sampling_respects_the_cap() {
        let mut r = QuarantineReport::new(1, 2);
        r.pages_seen = 5;
        for i in 0..5 {
            r.record(i, format!("p{i}"), "bad");
        }
        assert_eq!(r.pages_quarantined, 5);
        assert_eq!(r.entries.len(), 2, "entries bounded by sample_cap");
        assert_eq!(r.error_rate(), 1.0);
        let decoded = QuarantineReport::decode(&r.encode()).expect("decodes");
        assert_eq!(decoded, r);
    }

    #[test]
    fn file_roundtrip_is_atomic_on_path() {
        let dir = std::env::temp_dir().join("tind-model-quarantine-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.tqr");
        let r = sample_report();
        r.write_file(&path).expect("writes");
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        assert_eq!(QuarantineReport::read_file(&path).expect("reads"), r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_and_bit_flips_are_rejected() {
        let bytes = sample_report().encode();
        for cut in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(QuarantineReport::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for bit in (0..bytes.len() * 8).step_by(5) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(QuarantineReport::decode(&bad).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn unreconciled_counts_are_rejected() {
        let mut r = sample_report();
        r.pages_kept = 99; // kept + quarantined != seen
        assert!(QuarantineReport::decode(&r.encode()).is_err());
        let mut r = sample_report();
        r.pages_quarantined = 1; // fewer quarantines than sampled entries
        r.pages_kept = 9;
        assert!(QuarantineReport::decode(&r.encode()).is_err());
    }

    #[test]
    fn error_rate_handles_zero_pages() {
        let r = QuarantineReport::new(0, 8);
        assert_eq!(r.error_rate(), 0.0);
    }
}
