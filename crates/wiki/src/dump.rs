//! MediaWiki XML export reader.
//!
//! The paper's corpus is the Wikimedia full-history dump. This module
//! reads the relevant subset of the `<mediawiki>` export format —
//! `<page>` / `<title>` / `<id>` / `<revision>` / `<timestamp>` /
//! `<text>` — into [`PageRevision`]s, converting ISO-8601 timestamps into
//! day indexes on a configurable epoch (the paper observes early 2001
//! through late 2017). Hand-rolled scanning parser: the format is rigid
//! machine output, and the dependency policy forbids an XML crate.
//!
//! ## Streaming
//!
//! Real full-history dumps run to hundreds of gigabytes, so the primary
//! interface is [`DumpReader`]: a chunked, pull-based reader over any
//! [`std::io::Read`] that yields one *page group* at a time and never
//! materializes more than one page (bounded by a hard per-page byte cap)
//! plus constant state. Malformed pages are not fatal: each one comes out
//! as a [`DumpItem::Quarantined`] carrying the page title, byte offset,
//! and typed [`DumpError`], so callers can count, sample, and skip — the
//! per-page failure model of resilient ingestion ([`crate::ingest`]).
//!
//! Within an otherwise healthy page, revisions with missing or
//! unparsable timestamps (or timestamps before the epoch) are dropped
//! and counted in [`PageGroup::revisions_dropped`] rather than aborting
//! the page: a malformed timestamp in a multi-GB dump must not abort
//! hours of extraction.
//!
//! [`parse_dump`] remains as an eager convenience for small, trusted
//! in-memory inputs; it fails fast on the first quarantined page.

use std::io::Read;

use tind_model::MemoryBudget;

use crate::revision::PageRevision;

/// Epoch and span configuration for dump ingestion.
#[derive(Debug, Clone)]
pub struct DumpConfig {
    /// Day 0 of the timeline as (year, month, day).
    pub epoch: (i64, u32, u32),
}

impl Default for DumpConfig {
    /// January 15, 2001 — Wikipedia's launch date, the natural epoch for
    /// the paper's observation period.
    fn default() -> Self {
        DumpConfig { epoch: (2001, 1, 15) }
    }
}

/// Default hard cap on one `<page>` element, in bytes. Pages larger than
/// this are quarantined unread; the streaming buffer never grows past it.
pub const DEFAULT_MAX_PAGE_BYTES: usize = 8 * 1024 * 1024;

/// Errors while reading a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpError {
    /// A `<page>` is missing a required child element.
    MissingField {
        /// The element that is absent.
        field: &'static str,
        /// Page title if known.
        page: String,
    },
    /// A timestamp could not be parsed as ISO-8601.
    BadTimestamp(String),
    /// A revision predates the configured epoch.
    BeforeEpoch(String),
    /// A numeric field failed to parse.
    BadNumber(String),
    /// A `<page>` element exceeded the per-page byte cap.
    Oversized {
        /// The configured cap that was exceeded.
        limit: usize,
    },
    /// A `<page>` element was not valid UTF-8.
    InvalidUtf8,
    /// The stream ended inside a `<page>` element.
    Truncated,
    /// The memory budget refused to hold the page.
    OverBudget,
}

impl std::fmt::Display for DumpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DumpError::MissingField { field, page } => {
                write!(f, "page '{page}': missing <{field}>")
            }
            DumpError::BadTimestamp(t) => write!(f, "unparsable timestamp '{t}'"),
            DumpError::BeforeEpoch(t) => write!(f, "revision timestamp '{t}' predates the epoch"),
            DumpError::BadNumber(s) => write!(f, "unparsable number '{s}'"),
            DumpError::Oversized { limit } => {
                write!(f, "page exceeds the {limit}-byte per-page cap")
            }
            DumpError::InvalidUtf8 => write!(f, "page is not valid UTF-8"),
            DumpError::Truncated => write!(f, "stream ended inside the page element"),
            DumpError::OverBudget => write!(f, "memory budget exhausted while holding the page"),
        }
    }
}

impl std::error::Error for DumpError {}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = i64::from((m + 9) % 12);
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Parses `YYYY-MM-DDThh:mm:ssZ` into `(days-since-epoch, seconds-in-day)`.
fn parse_timestamp(ts: &str, config: &DumpConfig) -> Result<(i64, u32), DumpError> {
    let bad = || DumpError::BadTimestamp(ts.to_string());
    let bytes = ts.trim();
    if bytes.len() < 19 || !bytes.is_ascii() {
        return Err(bad());
    }
    let year: i64 = bytes[0..4].parse().map_err(|_| bad())?;
    let month: u32 = bytes[5..7].parse().map_err(|_| bad())?;
    let day: u32 = bytes[8..10].parse().map_err(|_| bad())?;
    let hour: u32 = bytes[11..13].parse().map_err(|_| bad())?;
    let minute: u32 = bytes[14..16].parse().map_err(|_| bad())?;
    let second: u32 = bytes[17..19].parse().map_err(|_| bad())?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) || hour > 23 || minute > 59 || second > 60
    {
        return Err(bad());
    }
    let days = days_from_civil(year, month, day)
        - days_from_civil(config.epoch.0, config.epoch.1, config.epoch.2);
    Ok((days, hour * 3600 + minute * 60 + second))
}

/// Unescapes the XML entities MediaWiki exports use.
fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&#039;", "'")
        .replace("&apos;", "'")
        .replace("&amp;", "&") // last: escaped ampersands unescape once
}

/// Extracts the inner text of the next `<tag>..</tag>` occurrence in
/// `hay[from..]`, returning (inner, end-position). Attributes on the open
/// tag are tolerated (`<text xml:space="preserve">`).
fn next_element<'a>(hay: &'a str, from: usize, tag: &str) -> Option<(&'a str, usize)> {
    let open_a = format!("<{tag}>");
    let open_b = format!("<{tag} ");
    let close = format!("</{tag}>");
    let rest = &hay[from..];
    let (open_pos, open_len) = match (rest.find(&open_a), rest.find(&open_b)) {
        (Some(a), Some(b)) if b < a => (b, rest[b..].find('>')? + 1),
        (Some(a), _) => (a, open_a.len()),
        (None, Some(b)) => (b, rest[b..].find('>')? + 1),
        (None, None) => return None,
    };
    let content_start = from + open_pos + open_len;
    let close_pos = hay[content_start..].find(&close)?;
    Some((&hay[content_start..content_start + close_pos], content_start + close_pos + close.len()))
}

/// All revisions of one page, in canonical (day, seq) order, plus where
/// the page sat in the source stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageGroup {
    /// Absolute byte offset of the page's `<page` open tag.
    pub start_offset: u64,
    /// Absolute byte offset just past the page's `</page>` close tag —
    /// the resume point after this page.
    pub end_offset: u64,
    /// Revisions kept, sorted by (day, seq_in_day).
    pub revisions: Vec<PageRevision>,
    /// Revisions dropped inside this page (missing/unparsable timestamp,
    /// pre-epoch edit).
    pub revisions_dropped: u64,
}

/// One page skipped by the reader, with enough context to report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Absolute byte offset of the page's `<page` open tag.
    pub byte_offset: u64,
    /// Best-effort page title (`<unknown>` when none survived).
    pub page: String,
    /// Why the page was skipped.
    pub error: DumpError,
}

/// One item pulled from a [`DumpReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DumpItem {
    /// A successfully parsed page.
    Page(PageGroup),
    /// A page that was counted and skipped.
    Quarantined(Quarantined),
}

/// Chunked, pull-based streaming reader over a MediaWiki XML export.
///
/// Yields `io::Result<DumpItem>`: real I/O errors end the stream, while
/// per-page problems come out as [`DumpItem::Quarantined`] and the reader
/// continues with the next page. The internal buffer holds at most one
/// page (capped by [`DumpReader::with_max_page_bytes`]) plus one read
/// chunk; oversized pages are discarded tag-to-tag without buffering.
#[derive(Debug)]
pub struct DumpReader<R: Read> {
    src: R,
    config: DumpConfig,
    max_page_bytes: usize,
    budget: MemoryBudget,
    /// Bytes read but not yet consumed; `buf[0]` is at stream offset
    /// `offset`.
    buf: Vec<u8>,
    offset: u64,
    eof: bool,
    finished: bool,
    fallback_page_id: u32,
}

const OPEN_TAG: &[u8] = b"<page";
const CLOSE_TAG: &[u8] = b"</page>";
const READ_CHUNK: usize = 8 * 1024;
/// Tail bytes retained when discarding scanned data, so a tag straddling
/// a chunk boundary is never lost.
const BOUNDARY_KEEP: usize = CLOSE_TAG.len() + 1;

/// Naive subsequence search (the needles here are a handful of bytes).
fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    let region = hay.get(from..)?;
    if region.len() < needle.len() {
        return None;
    }
    region.windows(needle.len()).position(|w| w == needle).map(|p| p + from)
}

/// Finds a `<page` open tag whose follower byte (`>` or whitespace) is
/// already buffered. An occurrence right at the buffer end is *not*
/// reported — the caller refills and retries, so `<pagex` never matches.
fn find_page_open(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(pos) = find(buf, OPEN_TAG, from) {
        match buf.get(pos + OPEN_TAG.len()) {
            Some(b'>') | Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r') => return Some(pos),
            Some(_) => from = pos + 1,
            None => return None, // tag may continue past the buffer
        }
    }
    None
}

/// Best-effort title extraction from (possibly partial, possibly
/// non-UTF-8) page bytes, for quarantine reports.
fn sniff_title(page: &[u8]) -> String {
    let text = String::from_utf8_lossy(page);
    match next_element(&text, 0, "title") {
        Some((t, _)) => {
            let mut title = unescape(t.trim());
            if title.len() > 200 {
                title.truncate(200);
            }
            title
        }
        None => "<unknown>".to_string(),
    }
}

impl<R: Read> DumpReader<R> {
    /// Starts a reader at stream offset 0 with the default page cap and
    /// an unlimited memory budget.
    pub fn new(src: R, config: DumpConfig) -> Self {
        DumpReader {
            src,
            config,
            max_page_bytes: DEFAULT_MAX_PAGE_BYTES,
            budget: MemoryBudget::unlimited(),
            buf: Vec::new(),
            offset: 0,
            eof: false,
            finished: false,
            fallback_page_id: 1_000_000,
        }
    }

    /// Sets the hard per-page byte cap.
    pub fn with_max_page_bytes(mut self, n: usize) -> Self {
        self.max_page_bytes = n.max(CLOSE_TAG.len() + OPEN_TAG.len());
        self
    }

    /// Charges each held page against `budget`; pages that do not fit are
    /// quarantined as [`DumpError::OverBudget`].
    pub fn with_memory_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Declares that `src` is already positioned `base` bytes into the
    /// stream (checkpoint resume), so reported offsets stay absolute.
    pub fn with_base_offset(mut self, base: u64) -> Self {
        self.offset = base;
        self
    }

    /// Seeds the fallback id counter for pages without `<id>` (restored
    /// from a checkpoint so resumed runs assign identical ids).
    pub fn with_fallback_page_id(mut self, next: u32) -> Self {
        self.fallback_page_id = next;
        self
    }

    /// The next page without `<id>` will get this fallback id + 1.
    pub fn fallback_page_id(&self) -> u32 {
        self.fallback_page_id
    }

    /// Absolute stream offset consumed so far. Between items this is the
    /// resume point: just past the last emitted page.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    fn drain(&mut self, n: usize) {
        self.buf.drain(..n);
        self.offset += n as u64;
    }

    /// Reads one chunk, appending to the buffer; sets `eof` on end.
    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.src.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Discards an oversized page tag-to-tag without buffering it.
    fn skip_oversized(&mut self, page_offset: u64) -> std::io::Result<DumpItem> {
        let title = sniff_title(&self.buf);
        let error = DumpError::Oversized { limit: self.max_page_bytes };
        loop {
            if let Some(pos) = find(&self.buf, CLOSE_TAG, 0) {
                self.drain(pos + CLOSE_TAG.len());
                return Ok(DumpItem::Quarantined(Quarantined {
                    byte_offset: page_offset,
                    page: title,
                    error,
                }));
            }
            let keep = self.buf.len().min(BOUNDARY_KEEP);
            let n = self.buf.len() - keep;
            self.drain(n);
            if self.eof {
                self.finished = true;
                let rest = self.buf.len();
                self.drain(rest);
                return Ok(DumpItem::Quarantined(Quarantined {
                    byte_offset: page_offset,
                    page: title,
                    error,
                }));
            }
            self.fill()?;
        }
    }

    /// Parses a complete, buffered `<page>..</page>` element.
    fn parse_page_bytes(&mut self, page_offset: u64, end: usize) -> DumpItem {
        let bytes = &self.buf[..end];
        let quarantine = |error: DumpError, page: String| {
            DumpItem::Quarantined(Quarantined { byte_offset: page_offset, page, error })
        };
        // Hold a budget charge for the page while it is materialized; a
        // refusal means this page does not fit alongside the rest of the
        // process and is skipped rather than OOM-killing the run.
        let _charge = match self.budget.try_charge(bytes.len()) {
            Some(c) => c,
            None => return quarantine(DumpError::OverBudget, sniff_title(bytes)),
        };
        let text = match std::str::from_utf8(bytes) {
            Ok(t) => t,
            Err(_) => return quarantine(DumpError::InvalidUtf8, sniff_title(bytes)),
        };
        match parse_page_element(text, &self.config, &mut self.fallback_page_id) {
            Ok((revisions, revisions_dropped)) => DumpItem::Page(PageGroup {
                start_offset: page_offset,
                end_offset: page_offset + end as u64,
                revisions,
                revisions_dropped,
            }),
            Err(error) => {
                let page = sniff_title(bytes);
                quarantine(error, page)
            }
        }
    }
}

impl<R: Read> Iterator for DumpReader<R> {
    type Item = std::io::Result<DumpItem>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let _span = tind_obs::span("wiki.dump.read_page");
        // Phase 1: locate the next `<page` open tag, discarding preamble
        // (siteinfo, inter-page whitespace) as it is scanned.
        loop {
            if let Some(pos) = find_page_open(&self.buf) {
                self.drain(pos);
                break;
            }
            let keep = self.buf.len().min(BOUNDARY_KEEP);
            let n = self.buf.len() - keep;
            self.drain(n);
            if self.eof {
                self.finished = true;
                return None; // trailing non-page bytes are fine
            }
            if let Err(e) = self.fill() {
                self.finished = true;
                return Some(Err(e));
            }
        }
        let page_offset = self.offset;
        // Phase 2: buffer until `</page>`, enforcing the per-page cap.
        let mut search_from = 0usize;
        let end = loop {
            if let Some(pos) = find(&self.buf, CLOSE_TAG, search_from) {
                break pos + CLOSE_TAG.len();
            }
            search_from = self.buf.len().saturating_sub(CLOSE_TAG.len() - 1);
            if self.buf.len() > self.max_page_bytes {
                return Some(self.skip_oversized(page_offset));
            }
            if self.eof {
                self.finished = true;
                let title = sniff_title(&self.buf);
                let rest = self.buf.len();
                self.drain(rest);
                return Some(Ok(DumpItem::Quarantined(Quarantined {
                    byte_offset: page_offset,
                    page: title,
                    error: DumpError::Truncated,
                })));
            }
            if let Err(e) = self.fill() {
                self.finished = true;
                return Some(Err(e));
            }
        };
        // Phase 3: parse and consume.
        let item = self.parse_page_bytes(page_offset, end);
        self.drain(end);
        Some(Ok(item))
    }
}

/// Parses one complete `<page>..</page>` element.
///
/// Page-level problems (missing `<title>`, unparsable `<id>`) are errors;
/// revision-level problems (missing/bad/pre-epoch timestamps) drop the
/// revision and are returned as a count.
fn parse_page_element(
    page_xml: &str,
    config: &DumpConfig,
    fallback_page_id: &mut u32,
) -> Result<(Vec<PageRevision>, u64), DumpError> {
    let title = next_element(page_xml, 0, "title")
        .map(|(t, _)| unescape(t.trim()))
        .ok_or(DumpError::MissingField { field: "title", page: "<unknown>".into() })?;
    let page_id = match next_element(page_xml, 0, "id") {
        Some((raw, _)) => raw
            .trim()
            .parse::<u32>()
            .map_err(|_| DumpError::BadNumber(raw.trim().to_string()))?,
        None => {
            *fallback_page_id += 1;
            *fallback_page_id
        }
    };

    // Collect (day, within-day seconds, text) per revision.
    let mut revs: Vec<(i64, u32, String)> = Vec::new();
    let mut dropped = 0u64;
    let mut rc = 0usize;
    while let Some((rev_xml, rnext)) = next_element(page_xml, rc, "revision") {
        rc = rnext;
        let Some((ts_raw, _)) = next_element(rev_xml, 0, "timestamp") else {
            dropped += 1;
            continue;
        };
        // Bad, pre-epoch, or beyond-u32 timestamps drop the revision; a
        // single rotten edit must not discard the page, let alone the run.
        match parse_timestamp(ts_raw, config) {
            Ok((day, secs)) if (0..=i64::from(u32::MAX)).contains(&day) => {
                let text =
                    next_element(rev_xml, 0, "text").map(|(t, _)| unescape(t)).unwrap_or_default();
                revs.push((day, secs, text));
            }
            _ => dropped += 1,
        }
    }
    // Stable order by (day, seconds); assign seq_in_day.
    revs.sort_by_key(|&(day, secs, _)| (day, secs));
    let mut out = Vec::with_capacity(revs.len());
    let mut prev_day = i64::MIN;
    let mut seq = 0u32;
    for (day, _, text) in revs {
        seq = if day == prev_day { seq + 1 } else { 0 };
        prev_day = day;
        out.push(PageRevision {
            page_id,
            title: title.clone(),
            day: day as u32,
            seq_in_day: seq,
            wikitext: text,
        });
    }
    Ok((out, dropped))
}

/// Parses a MediaWiki XML export held in memory into a revision stream.
///
/// Revisions with the same page and day receive increasing `seq_in_day` in
/// timestamp order, matching the aggregation model of [`crate::aggregate`].
/// Revision-level timestamp problems drop the revision silently (use
/// [`DumpReader`] for the counted, quarantining interface); the first
/// *page-level* problem is returned as an error.
pub fn parse_dump(xml: &str, config: &DumpConfig) -> Result<Vec<PageRevision>, DumpError> {
    let mut revisions = Vec::new();
    for item in DumpReader::new(std::io::Cursor::new(xml.as_bytes()), config.clone()) {
        match item.map_err(|e| DumpError::BadNumber(e.to_string()))? {
            DumpItem::Page(group) => revisions.extend(group.revisions),
            DumpItem::Quarantined(q) => return Err(q.error),
        }
    }
    Ok(revisions)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = r#"<mediawiki>
  <siteinfo><sitename>Wikipedia</sitename></siteinfo>
  <page>
    <title>Pok&#039;mon games &amp; more</title>
    <id>42</id>
    <revision>
      <timestamp>2001-01-16T08:30:00Z</timestamp>
      <text xml:space="preserve">{|
! Game
|-
| Red
|}</text>
    </revision>
    <revision>
      <timestamp>2001-01-16T12:00:00Z</timestamp>
      <text>{|
! Game
|-
| Red
|-
| Blue
|}</text>
    </revision>
    <revision>
      <timestamp>2001-02-01T00:00:00Z</timestamp>
      <text>&lt;!-- cleared --&gt;</text>
    </revision>
  </page>
  <page>
    <title>Other</title>
    <id>7</id>
    <revision>
      <timestamp>2001-01-20T10:00:00Z</timestamp>
      <text>prose only</text>
    </revision>
  </page>
</mediawiki>"#;

    /// A reader that trickles out one byte per `read` call, to exercise
    /// every chunk-boundary code path.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.data.len() || out.is_empty() {
                return Ok(0);
            }
            out[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    fn stream_all(xml: &[u8]) -> Vec<DumpItem> {
        DumpReader::new(std::io::Cursor::new(xml), DumpConfig::default())
            .map(|r| r.expect("in-memory read"))
            .collect()
    }

    #[test]
    fn parses_pages_revisions_and_days() {
        let revs = parse_dump(DUMP, &DumpConfig::default()).expect("parses");
        assert_eq!(revs.len(), 4);
        // Epoch 2001-01-15 → Jan 16 is day 1, Feb 1 is day 17, Jan 20 is day 5.
        assert_eq!(revs[0].day, 1);
        assert_eq!(revs[0].seq_in_day, 0);
        assert_eq!(revs[1].day, 1);
        assert_eq!(revs[1].seq_in_day, 1, "same-day revisions sequence");
        assert_eq!(revs[2].day, 17);
        assert_eq!(revs[3].day, 5);
        assert_eq!(revs[0].page_id, 42);
        assert_eq!(revs[3].page_id, 7);
    }

    #[test]
    fn unescapes_entities() {
        let revs = parse_dump(DUMP, &DumpConfig::default()).expect("parses");
        assert_eq!(revs[0].title, "Pok'mon games & more");
        assert!(revs[2].wikitext.contains("<!-- cleared -->"));
    }

    #[test]
    fn parsed_dump_feeds_the_pipeline() {
        use crate::pipeline::{extract_dataset, PipelineConfig};
        let revs = parse_dump(DUMP, &DumpConfig::default()).expect("parses");
        // Not enough versions to survive filters, but the pipeline runs.
        let (dataset, report) = extract_dataset(revs, &PipelineConfig::new(100));
        assert_eq!(report.pages, 2);
        assert_eq!(report.revisions, 4);
        assert_eq!(dataset.len(), 0, "short histories are filtered");
    }

    #[test]
    fn days_from_civil_matches_known_dates() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(2000, 3, 1), 11_017);
        assert_eq!(days_from_civil(2001, 1, 15), 11_337);
        // Leap-year handling.
        assert_eq!(days_from_civil(2004, 2, 29) + 1, days_from_civil(2004, 3, 1));
        assert_eq!(days_from_civil(2100, 2, 28) + 1, days_from_civil(2100, 3, 1), "2100 is not a leap year");
    }

    #[test]
    fn bad_and_pre_epoch_timestamps_drop_the_revision_only() {
        let cfg = DumpConfig::default();
        assert!(parse_timestamp("garbage", &cfg).is_err());
        assert!(parse_timestamp("2001-13-01T00:00:00Z", &cfg).is_err());
        // A pre-epoch revision is dropped and counted, not fatal.
        let pre = DUMP.replace("2001-01-16T08:30:00Z", "2000-06-01T00:00:00Z");
        let items = stream_all(pre.as_bytes());
        let DumpItem::Page(first) = &items[0] else { panic!("page expected") };
        assert_eq!(first.revisions.len(), 2);
        assert_eq!(first.revisions_dropped, 1);
        assert_eq!(parse_dump(&pre, &cfg).expect("lenient").len(), 3);
        // Same for an unparsable timestamp.
        let bad = DUMP.replace("2001-01-16T08:30:00Z", "not-a-date-at-all!!");
        assert_eq!(parse_dump(&bad, &cfg).expect("lenient").len(), 3);
    }

    #[test]
    fn missing_timestamp_drops_the_revision() {
        let broken = "<page><title>X</title><id>1</id><revision><text>t</text></revision>\
                      <revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>u</text></revision></page>";
        let revs = parse_dump(broken, &DumpConfig::default()).expect("page survives");
        assert_eq!(revs.len(), 1, "only the timestamped revision is kept");
        let items = stream_all(broken.as_bytes());
        let DumpItem::Page(g) = &items[0] else { panic!("page expected") };
        assert_eq!(g.revisions_dropped, 1);
    }

    #[test]
    fn epoch_boundary_timestamps() {
        // Exactly the epoch day is day 0 and kept; one second before
        // midnight of the prior day is dropped.
        let xml = "<page><title>E</title><id>1</id>\
                   <revision><timestamp>2001-01-15T00:00:00Z</timestamp><text>a</text></revision>\
                   <revision><timestamp>2001-01-14T23:59:59Z</timestamp><text>b</text></revision></page>";
        let items = stream_all(xml.as_bytes());
        let DumpItem::Page(g) = &items[0] else { panic!("page expected") };
        assert_eq!(g.revisions.len(), 1);
        assert_eq!(g.revisions[0].day, 0);
        assert_eq!(g.revisions_dropped, 1);
    }

    #[test]
    fn pages_without_ids_get_fallback_ids() {
        let no_id = "<page><title>A</title><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>t</text></revision></page>\
                     <page><title>B</title><revision><timestamp>2001-02-02T00:00:00Z</timestamp><text>t</text></revision></page>";
        let revs = parse_dump(no_id, &DumpConfig::default()).expect("parses");
        assert_eq!(revs.len(), 2);
        assert_ne!(revs[0].page_id, revs[1].page_id);
    }

    #[test]
    fn custom_epoch_shifts_days() {
        let cfg = DumpConfig { epoch: (2001, 1, 1) };
        let revs = parse_dump(DUMP, &cfg).expect("parses");
        assert_eq!(revs[0].day, 15);
    }

    #[test]
    fn streaming_matches_eager_even_one_byte_at_a_time() {
        let eager = parse_dump(DUMP, &DumpConfig::default()).expect("parses");
        let mut streamed = Vec::new();
        let reader =
            DumpReader::new(Trickle { data: DUMP.as_bytes(), pos: 0 }, DumpConfig::default());
        for item in reader {
            match item.expect("no io error") {
                DumpItem::Page(g) => streamed.extend(g.revisions),
                DumpItem::Quarantined(q) => panic!("unexpected quarantine: {q:?}"),
            }
        }
        assert_eq!(streamed, eager);
    }

    #[test]
    fn page_offsets_are_absolute_and_resumable() {
        let bytes = DUMP.as_bytes();
        let items = stream_all(bytes);
        let groups: Vec<&PageGroup> = items
            .iter()
            .map(|i| match i {
                DumpItem::Page(g) => g,
                q => panic!("unexpected: {q:?}"),
            })
            .collect();
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(&bytes[g.start_offset as usize..g.start_offset as usize + 5], b"<page");
            let end = g.end_offset as usize;
            assert_eq!(&bytes[end - 7..end], b"</page>");
        }
        // Restart a reader at the first page's end: it sees only page two.
        let g0_end = groups[0].end_offset;
        let reader = DumpReader::new(
            std::io::Cursor::new(&bytes[g0_end as usize..]),
            DumpConfig::default(),
        )
        .with_base_offset(g0_end);
        let rest: Vec<DumpItem> = reader.map(|r| r.expect("reads")).collect();
        assert_eq!(rest.len(), 1);
        match &rest[0] {
            DumpItem::Page(g) => assert_eq!((g.start_offset, g.end_offset), (groups[1].start_offset, groups[1].end_offset)),
            q => panic!("unexpected: {q:?}"),
        }
    }

    #[test]
    fn missing_title_quarantines_the_page_and_continues() {
        let xml = "<page><id>1</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>t</text></revision></page>\
                   <page><title>Good</title><id>2</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>t</text></revision></page>";
        let items = stream_all(xml.as_bytes());
        assert_eq!(items.len(), 2);
        match &items[0] {
            DumpItem::Quarantined(q) => {
                assert!(matches!(q.error, DumpError::MissingField { field: "title", .. }));
                assert_eq!(q.byte_offset, 0);
            }
            p => panic!("unexpected: {p:?}"),
        }
        assert!(matches!(&items[1], DumpItem::Page(g) if g.revisions[0].title == "Good"));
        // The eager wrapper stays strict on page-level problems.
        assert!(parse_dump(xml, &DumpConfig::default()).is_err());
    }

    #[test]
    fn oversized_pages_are_skipped_without_buffering() {
        let big_text = "x".repeat(64 * 1024);
        let xml = format!(
            "<page><title>Big</title><id>1</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>{big_text}</text></revision></page>\
             <page><title>Small</title><id>2</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>t</text></revision></page>"
        );
        let items: Vec<DumpItem> =
            DumpReader::new(std::io::Cursor::new(xml.as_bytes()), DumpConfig::default())
                .with_max_page_bytes(4096)
                .map(|r| r.expect("reads"))
                .collect();
        assert_eq!(items.len(), 2);
        match &items[0] {
            DumpItem::Quarantined(q) => {
                assert_eq!(q.error, DumpError::Oversized { limit: 4096 });
                assert_eq!(q.page, "Big", "title sniffed before the skip");
            }
            p => panic!("unexpected: {p:?}"),
        }
        assert!(matches!(&items[1], DumpItem::Page(g) if g.revisions[0].title == "Small"));
    }

    #[test]
    fn non_utf8_pages_are_quarantined() {
        let mut xml = Vec::new();
        xml.extend_from_slice(b"<page><title>Bin</title><id>1</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>");
        xml.extend_from_slice(&[0xFF, 0xFE, 0x80]);
        xml.extend_from_slice(b"</text></revision></page>");
        xml.extend_from_slice(b"<page><title>Ok</title><id>2</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>t</text></revision></page>");
        let items = stream_all(&xml);
        assert_eq!(items.len(), 2);
        assert!(
            matches!(&items[0], DumpItem::Quarantined(q) if q.error == DumpError::InvalidUtf8 && q.page == "Bin")
        );
        assert!(matches!(&items[1], DumpItem::Page(_)));
    }

    #[test]
    fn truncated_stream_is_reported_not_hung() {
        let xml = "<page><title>Cut</title><id>1</id><revision><timestamp>2001-02-01T00:00:00Z</timestamp><text>never closed";
        let items = stream_all(xml.as_bytes());
        assert_eq!(items.len(), 1);
        assert!(
            matches!(&items[0], DumpItem::Quarantined(q) if q.error == DumpError::Truncated && q.page == "Cut")
        );
    }

    #[test]
    fn memory_budget_refusal_quarantines_the_page() {
        let budget = MemoryBudget::new(64);
        let items: Vec<DumpItem> =
            DumpReader::new(std::io::Cursor::new(DUMP.as_bytes()), DumpConfig::default())
                .with_memory_budget(budget.clone())
                .map(|r| r.expect("reads"))
                .collect();
        assert!(items
            .iter()
            .all(|i| matches!(i, DumpItem::Quarantined(q) if q.error == DumpError::OverBudget)));
        assert!(budget.peak_bytes() <= 64, "never charged past the limit");
        assert_eq!(budget.used_bytes(), 0, "charges released");
    }
}
