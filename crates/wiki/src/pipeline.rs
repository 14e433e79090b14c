//! End-to-end extraction: page revisions → attribute-history dataset.
//!
//! Orchestrates the §5.1 steps: parse each revision's tables, match tables
//! across revisions, match columns across table versions, record
//! per-column observations (including absences, so deleted tables close
//! their histories), aggregate to daily granularity, clean values, and
//! apply the attribute filters.
//!
//! Two interfaces:
//!
//! * [`extract_dataset`] — eager, over an in-memory revision stream.
//! * [`PipelineSession`] — incremental, one page group at a time, for
//!   streaming ingestion ([`crate::ingest`]). Pages are independent, so a
//!   session can be snapshotted after any page and resumed from a partial
//!   dataset with byte-identical results. Each page is processed in two
//!   stages: a pure, panic-isolated stage (parsing, matching,
//!   aggregation) followed by a commit stage that touches the builder —
//!   so a panic on a pathological page leaves the session untouched and
//!   the page can be quarantined. The commit goes by attribute name, and
//!   `stage_page` makes every name unique within its page, so a session
//!   over an existing dataset updates it in place ([`crate::delta`]).

use std::collections::{BTreeMap, HashSet};

use tind_model::binio::dataset_fingerprint;
use tind_model::hash::FastMap;
use tind_model::{AttrId, Dataset, DatasetBuilder, Timeline, Timestamp};

use crate::aggregate::{aggregate_daily, build_history, Observation};
use crate::column_match::ColumnMatcher;
use crate::delta::DeltaLog;
use crate::preprocess::{clean_value, AttributeFilters};
use crate::revision::{canonicalize_stream_lossy, PageRevision};
use crate::table_match::TableMatcher;
use crate::wikitext::parse_tables;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Global timeline length; every revision day must be below it.
    pub timeline_days: u32,
    /// Attribute-level filters (§5.1).
    pub filters: AttributeFilters,
    /// Drop revisions classified as vandalism *before* aggregation
    /// (explicit cleaning on top of the daily last-wins rule; see
    /// [`crate::vandalism`]).
    pub drop_vandalism: bool,
}

impl PipelineConfig {
    /// Standard configuration over a timeline of `timeline_days`.
    pub fn new(timeline_days: u32) -> Self {
        PipelineConfig {
            timeline_days,
            filters: AttributeFilters::default(),
            drop_vandalism: false,
        }
    }

    /// Enables explicit vandalism filtering.
    pub fn with_vandalism_filter(mut self) -> Self {
        self.drop_vandalism = true;
        self
    }
}

/// What the pipeline did, for logging and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Distinct pages processed (with at least one surviving revision).
    pub pages: usize,
    /// Revisions processed.
    pub revisions: usize,
    /// Revisions dropped by the explicit vandalism filter (0 when the
    /// filter is off).
    pub vandalism_dropped: usize,
    /// Revisions dropped because their day falls outside the configured
    /// timeline. A malformed timestamp in a multi-GB dump must not abort
    /// hours of extraction, so these are counted instead of panicking.
    pub out_of_range_dropped: usize,
    /// Revisions dropped because another revision carried the same
    /// `(page, day, seq)` key (corrupted stream; last occurrence wins).
    pub duplicate_dropped: usize,
    /// Distinct tables tracked across all pages.
    pub tables_tracked: usize,
    /// Distinct columns tracked across all tables.
    pub columns_tracked: usize,
    /// Column histories assembled before filtering.
    pub attributes_before_filters: usize,
    /// Attributes surviving the §5.1 filters (the dataset size).
    pub attributes_kept: usize,
}

#[derive(Default)]
struct ColumnState {
    header: String,
    observations: Vec<Observation>,
}

#[derive(Default)]
struct TableState {
    caption: Option<String>,
    col_matcher: ColumnMatcher,
    columns: BTreeMap<u32, ColumnState>,
}

/// Result of the pure, panic-isolated stage of one page: everything the
/// commit stage needs, with no references into the builder.
pub(crate) struct StagedPage {
    pub(crate) vandalism_dropped: usize,
    pub(crate) duplicate_dropped: usize,
    pub(crate) revisions: usize,
    pub(crate) out_of_range_dropped: usize,
    pub(crate) tables_tracked: usize,
    pub(crate) columns_tracked: usize,
    pub(crate) columns: Vec<StagedColumn>,
}

/// One column's aggregated daily states, with values still as strings
/// (interning happens at commit so a panic never leaves the dictionary
/// half-updated).
pub(crate) struct StagedColumn {
    pub(crate) name: String,
    pub(crate) daily: Vec<(Timestamp, Option<Vec<String>>)>,
}

/// Stage A: canonicalize, filter, parse, match, and aggregate one page.
/// Pure except for allocation — safe to run under `catch_unwind`.
pub(crate) fn stage_page(page_revs: Vec<PageRevision>, config: &PipelineConfig) -> StagedPage {
    let (revs, duplicate_dropped) = canonicalize_stream_lossy(page_revs);
    let total = revs.len();
    let revs = if config.drop_vandalism {
        let (kept, _) = crate::vandalism::filter_vandalism(revs);
        kept
    } else {
        revs
    };
    let vandalism_dropped = total - revs.len();
    let mut staged = StagedPage {
        vandalism_dropped,
        duplicate_dropped,
        revisions: revs.len(),
        out_of_range_dropped: 0,
        tables_tracked: 0,
        columns_tracked: 0,
        columns: Vec::new(),
    };
    let Some(last_rev) = revs.last() else {
        return staged;
    };
    let title = last_rev.title.clone();
    let mut table_matcher = TableMatcher::new();
    let mut tables: BTreeMap<u32, TableState> = BTreeMap::new();

    for rev in &revs {
        if rev.day >= config.timeline_days {
            staged.out_of_range_dropped += 1;
            continue;
        }
        let raw_tables = parse_tables(&rev.wikitext);
        let table_ids = table_matcher.match_revision(&raw_tables);
        let present: HashSet<u32> = table_ids.iter().copied().collect();

        for (raw, &tid) in raw_tables.iter().zip(&table_ids) {
            let state = tables.entry(tid).or_default();
            if raw.caption.is_some() {
                state.caption = raw.caption.clone();
            }
            let col_ids = state.col_matcher.match_table(raw);
            let seen: HashSet<u32> = col_ids.iter().copied().collect();
            for (ci, &cid) in col_ids.iter().enumerate() {
                let values: Vec<String> =
                    raw.column_values(ci).into_iter().filter_map(clean_value).collect();
                let col = state.columns.entry(cid).or_default();
                col.header = raw.headers[ci].clone();
                col.observations.push(Observation {
                    day: rev.day,
                    seq_in_day: rev.seq_in_day,
                    values: Some(values),
                });
            }
            // Columns of this table that vanished in this revision.
            for (&cid, col) in state.columns.iter_mut() {
                if !seen.contains(&cid) {
                    col.observations.push(Observation {
                        day: rev.day,
                        seq_in_day: rev.seq_in_day,
                        values: None,
                    });
                }
            }
        }
        // Whole tables absent from this revision.
        for (&tid, state) in tables.iter_mut() {
            if !present.contains(&tid) {
                for col in state.columns.values_mut() {
                    col.observations.push(Observation {
                        day: rev.day,
                        seq_in_day: rev.seq_in_day,
                        values: None,
                    });
                }
            }
        }
    }

    staged.tables_tracked = tables.len();
    for (tid, state) in tables {
        let table_label = state.caption.clone().unwrap_or_else(|| format!("table{}", tid + 1));
        staged.columns_tracked += state.columns.len();
        for (_cid, col) in state.columns {
            let daily = aggregate_daily(col.observations);
            let name = format!("{title} ▸ {table_label} ▸ {}", col.header);
            staged.columns.push(StagedColumn { name, daily });
        }
    }
    make_names_unique(&mut staged.columns);
    staged
}

/// Makes the column names of one page unique. Two tables with the same
/// caption, or two matched columns under the same header, would otherwise
/// share `"{title} ▸ {caption} ▸ {header}"`, and a commit by name would
/// fold one into the other. The first column keeps its name; each later
/// repeat takes the first suffix ` (2)`, ` (3)`, … that no column of the
/// page carries, so a suffixed name never collides with a real header.
fn make_names_unique(columns: &mut [StagedColumn]) {
    let mut sorted: Vec<&str> = columns.iter().map(|c| c.name.as_str()).collect();
    sorted.sort_unstable();
    if sorted.windows(2).all(|w| w[0] != w[1]) {
        return;
    }
    let mut taken: HashSet<String> = columns.iter().map(|c| c.name.clone()).collect();
    let mut seen = HashSet::new();
    for col in columns {
        if seen.insert(col.name.clone()) {
            continue;
        }
        let unique = (2u32..)
            .map(|n| format!("{} ({n})", col.name))
            .find(|candidate| !taken.contains(candidate))
            .expect("an unbounded suffix range has a free name");
        taken.insert(unique.clone());
        col.name = unique;
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Incremental extraction session: feed one page group at a time.
///
/// A session runs over a *base* dataset — the empty dataset for a cold
/// ingest, an existing one for an update — and commits each page by
/// attribute name: a column whose name the session already holds replaces
/// that slot and keeps its id, any other column that passes the §5.1
/// filters is appended. An existing column is replaced even when it no
/// longer passes the filters, because deleting it would renumber every
/// later id (see [`crate::delta`]).
///
/// Pages are processed independently and interned in arrival order, so a
/// given base and sequence of `push_page` calls always yields a
/// byte-identical dataset — including across [`PipelineSession::snapshot`]
/// / [`PipelineSession::resume`] boundaries, which is what makes
/// checkpointed ingestion deterministic.
pub struct PipelineSession {
    config: PipelineConfig,
    builder: DatasetBuilder,
    report: PipelineReport,
    /// Name → id of every attribute in the builder, so a re-staged column
    /// replaces its slot by id instead of scanning for its name.
    ids: FastMap<String, AttrId>,
    /// What a run over a non-empty base records; `None` for a cold run.
    delta: Option<DeltaLog>,
}

impl PipelineSession {
    /// Starts a cold session: the empty base over `config.timeline_days`.
    pub fn new(config: PipelineConfig) -> Self {
        let builder = DatasetBuilder::new(Timeline::new(config.timeline_days));
        PipelineSession {
            config,
            builder,
            report: PipelineReport::default(),
            ids: FastMap::default(),
            delta: None,
        }
    }

    /// Starts a session over `base`. A non-empty base turns on the
    /// [`DeltaLog`]. Refuses a base over another timeline, or one that
    /// holds an attribute name twice (the commit could not tell the two
    /// apart; such a dataset predates unique names and must be
    /// re-ingested).
    pub fn over(config: PipelineConfig, base: Dataset) -> Result<Self, String> {
        let delta = (!base.is_empty()).then(|| DeltaLog::new(dataset_fingerprint(&base)));
        Self::resume(config, base, PipelineReport::default(), delta)
    }

    /// Resumes from a snapshot: the partial dataset, report and delta log
    /// of an earlier session (e.g. decoded from an ingestion checkpoint).
    /// Refuses what [`Self::over`] refuses.
    pub fn resume(
        config: PipelineConfig,
        partial: Dataset,
        report: PipelineReport,
        delta: Option<DeltaLog>,
    ) -> Result<Self, String> {
        if partial.timeline() != Timeline::new(config.timeline_days) {
            return Err(format!(
                "the base dataset spans {} days, the run {} days",
                partial.timeline().len(),
                config.timeline_days
            ));
        }
        let mut ids = FastMap::default();
        ids.reserve(partial.len());
        for (id, history) in partial.iter() {
            if ids.insert(history.name().to_owned(), id).is_some() {
                return Err(format!(
                    "the base dataset holds the attribute name '{}' twice; it was written \
                     before column names were unique within a page — re-ingest its dump",
                    history.name()
                ));
            }
        }
        Ok(PipelineSession { config, builder: partial.into_builder(), report, ids, delta })
    }

    /// The session's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Progress so far (pages of this run only, not the base).
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// What this run over a non-empty base has touched so far; `None`
    /// for a cold run.
    pub fn delta(&self) -> Option<&DeltaLog> {
        self.delta.as_ref()
    }

    /// Processes all revisions of one page. A panic anywhere in parsing,
    /// matching, or aggregation is caught *before* any session state is
    /// touched and returned as `Err(message)` so the caller can
    /// quarantine the page and continue.
    pub fn push_page(&mut self, page_revs: Vec<PageRevision>) -> Result<(), String> {
        let _span = tind_obs::span("wiki.pipeline.page");
        let config = self.config.clone();
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stage_page(page_revs, &config)
        })) {
            Ok(staged) => {
                self.commit(staged);
                Ok(())
            }
            Err(payload) => Err(panic_message(payload)),
        }
    }

    /// [`Self::push_page`] without panic isolation, for eager callers
    /// that want panics to propagate.
    fn push_page_uncaught(&mut self, page_revs: Vec<PageRevision>) {
        let staged = stage_page(page_revs, &self.config);
        self.commit(staged);
    }

    /// Stage B: intern, filter, and commit the staged columns by name.
    fn commit(&mut self, staged: StagedPage) {
        let report = &mut self.report;
        report.vandalism_dropped += staged.vandalism_dropped;
        report.duplicate_dropped += staged.duplicate_dropped;
        if staged.revisions == 0 {
            return;
        }
        report.pages += 1;
        report.revisions += staged.revisions;
        report.out_of_range_dropped += staged.out_of_range_dropped;
        report.tables_tracked += staged.tables_tracked;
        report.columns_tracked += staged.columns_tracked;
        for col in staged.columns {
            let dict = self.builder.dictionary_mut();
            let Some(history) = build_history(&col.name, &col.daily, |s| dict.intern(s)) else {
                continue;
            };
            report.attributes_before_filters += 1;
            let keep = {
                let dict = self.builder.dictionary();
                self.config.filters.keep(&history, |v| dict.resolve(v).to_string())
            };
            let existing = self.ids.get(history.name()).copied();
            if existing.is_none() && !keep {
                continue;
            }
            if let Some(delta) = &mut self.delta {
                delta.filter_downgrades += u64::from(!keep);
                delta.touched.insert(col.name);
            }
            match existing {
                Some(id) => self.builder.replace_history(id, history),
                None => {
                    let name = history.name().to_owned();
                    let id = self.builder.add_history(history);
                    self.ids.insert(name, id);
                    report.attributes_kept += 1;
                }
            }
        }
    }

    /// The dataset as of the pages pushed so far (the session continues).
    pub fn snapshot(&self) -> Dataset {
        self.builder.clone().build()
    }

    /// Finalizes the session; the dataset keeps the session's name index.
    pub fn finish(self) -> (Dataset, PipelineReport) {
        (self.builder.build_with_names(self.ids), self.report)
    }
}

/// Runs the full extraction pipeline eagerly over an in-memory stream.
pub fn extract_dataset(
    mut revisions: Vec<PageRevision>,
    config: &PipelineConfig,
) -> (Dataset, PipelineReport) {
    // Group pages contiguously; per-page dedup/filtering happens inside
    // the session.
    revisions.sort_by_key(PageRevision::sort_key);
    let mut session = PipelineSession::new(config.clone());
    let mut i = 0;
    while i < revisions.len() {
        let page_id = revisions[i].page_id;
        let mut j = i;
        while j < revisions.len() && revisions[j].page_id == page_id {
            j += 1;
        }
        session.push_page_uncaught(revisions[i..j].to_vec());
        i = j;
    }
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders a one-table page with the given column of games.
    fn games_page(day: u32, seq: u32, games: &[&str], year_col: bool) -> PageRevision {
        let mut text = String::from("{| class=\"wikitable\"\n|+ Games\n! Game");
        if year_col {
            text.push_str(" !! Year");
        }
        text.push('\n');
        for (i, g) in games.iter().enumerate() {
            text.push_str("|-\n");
            if year_col {
                text.push_str(&format!("| [[{g}]] || {}\n", 1996 + i));
            } else {
                text.push_str(&format!("| [[{g}]]\n"));
            }
        }
        text.push_str("|}\n");
        PageRevision {
            page_id: 1,
            title: "Pokémon video games".to_string(),
            day,
            seq_in_day: seq,
            wikitext: text,
        }
    }

    #[test]
    fn extracts_growing_column_history() {
        // Six revisions so the Game column passes the ≥5-version filter.
        let revs = vec![
            games_page(0, 0, &["Red", "Blue", "Green", "Yellow", "Gold"], true),
            games_page(10, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver"], true),
            games_page(20, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal"], true),
            games_page(30, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby"], true),
            games_page(40, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire"], true),
            games_page(50, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald"], true),
        ];
        let (dataset, report) = extract_dataset(revs, &PipelineConfig::new(100));
        assert_eq!(report.pages, 1);
        assert_eq!(report.revisions, 6);
        assert_eq!(report.tables_tracked, 1);
        assert_eq!(report.columns_tracked, 2, "Game and Year");
        // Year is numeric → filtered; Game survives.
        assert_eq!(report.attributes_kept, 1);
        assert_eq!(dataset.len(), 1);
        let (_, h) = dataset
            .attribute_by_name("Pokémon video games ▸ Games ▸ Game")
            .expect("named attribute");
        assert_eq!(h.versions().len(), 6);
        assert_eq!(h.first_observed(), 0);
        assert_eq!(h.last_observed(), 50);
        assert_eq!(h.values_at(15).len(), 6);
        // Links resolved: value is the page title.
        let dict = dataset.dictionary();
        assert!(dict.get("Red").is_some());
    }

    #[test]
    fn same_day_vandalism_is_aggregated_away() {
        let clean = &["Red", "Blue", "Green", "Yellow", "Gold"];
        let mut revs = vec![
            games_page(0, 0, clean, false),
            games_page(10, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver"], false),
            games_page(20, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal"], false),
            games_page(30, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby"], false),
            games_page(40, 0, &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire"], false),
        ];
        // Day 25: vandal blanks the list, revert restores it.
        revs.push(games_page(25, 0, &["VANDALISM_JUNK", "MORE_JUNK", "X", "Y", "Z"], false));
        revs.push(games_page(
            25,
            1,
            &["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal"],
            false,
        ));
        let (dataset, _) = extract_dataset(revs, &PipelineConfig::new(100));
        let (_, h) = dataset
            .attribute_by_name("Pokémon video games ▸ Games ▸ Game")
            .expect("attribute");
        let dict = dataset.dictionary();
        // The junk never makes it into the daily history.
        assert!(dict.get("VANDALISM_JUNK").is_none() || {
            let junk = dict.get("VANDALISM_JUNK").unwrap();
            !h.value_universe().contains(&junk)
        });
    }

    #[test]
    fn deleted_table_closes_the_history() {
        let with_table: Vec<PageRevision> = (0..5)
            .map(|i| {
                games_page(
                    i * 5,
                    0,
                    &["Red", "Blue", "Green", "Yellow", "Gold", "Silver"][..5 + (i as usize % 2)],
                    false,
                )
            })
            .collect();
        let mut revs = with_table;
        revs.push(PageRevision {
            page_id: 1,
            title: "Pokémon video games".to_string(),
            day: 30,
            seq_in_day: 0,
            wikitext: "The table is gone.".to_string(),
        });
        let (dataset, _) = extract_dataset(revs, &PipelineConfig::new(100));
        if let Some((_, h)) = dataset.attribute_by_name("Pokémon video games ▸ Games ▸ Game") {
            // History must not extend past the deletion day.
            assert!(h.last_observed() <= 30);
        }
    }

    #[test]
    fn multiple_pages_are_independent() {
        let all = ["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire"];
        let mut revs = Vec::new();
        for (pid, title) in [(1u32, "Page A"), (2, "Page B")] {
            for i in 0..5u32 {
                let mut r = games_page(i * 7, 0, &all[..5 + i as usize], false);
                r.page_id = pid;
                r.title = title.to_string();
                // Vary page B's values so columns differ.
                if pid == 2 {
                    r.wikitext = r.wikitext.replace("Red", "Mario");
                }
                revs.push(r);
            }
        }
        let (dataset, report) = extract_dataset(revs, &PipelineConfig::new(100));
        assert_eq!(report.pages, 2);
        assert_eq!(dataset.len(), 2);
        assert!(dataset.attribute_by_name("Page A ▸ Games ▸ Game").is_some());
        assert!(dataset.attribute_by_name("Page B ▸ Games ▸ Game").is_some());
    }

    #[test]
    fn vandalism_filter_option_drops_reverted_revisions() {
        let all = ["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald"];
        let mut revs = Vec::new();
        for i in 0..6u32 {
            revs.push(games_page(i * 10, 0, &all[..5 + i as usize], false));
            // vandalize and revert on the same day (distinct junk each
            // time — identical repeated vandalism would itself look like a
            // revert to the fingerprint heuristic)
            let junk: Vec<String> = (0..5).map(|j| format!("JUNK{i}-{j}")).collect();
            let junk_refs: Vec<&str> = junk.iter().map(String::as_str).collect();
            let mut vandal = games_page(i * 10 + 1, 0, &junk_refs, false);
            vandal.seq_in_day = 0;
            let mut revert = games_page(i * 10 + 1, 1, &all[..5 + i as usize], false);
            revert.seq_in_day = 1;
            revs.push(vandal);
            revs.push(revert);
        }
        let config = PipelineConfig::new(100).with_vandalism_filter();
        let (dataset, report) = extract_dataset(revs, &config);
        assert_eq!(report.vandalism_dropped, 6);
        let dict = dataset.dictionary();
        assert!(dict.get("JUNK0-0").is_none(), "filtered content must not be interned");
    }

    #[test]
    fn out_of_range_revisions_are_dropped_not_fatal() {
        let all =
            ["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire"];
        let mut revs: Vec<PageRevision> =
            (0..6u32).map(|i| games_page(i * 10, 0, &all[..4 + i as usize], false)).collect();
        // A revision with a day beyond the timeline (malformed timestamp).
        revs.insert(3, games_page(5000, 0, &all, false));
        let (dataset, report) = extract_dataset(revs, &PipelineConfig::new(100));
        assert_eq!(report.out_of_range_dropped, 1);
        assert_eq!(report.pages, 1);
        assert!(dataset.attribute_by_name("Pokémon video games ▸ Games ▸ Game").is_some());
    }

    #[test]
    fn report_counts_are_consistent() {
        let revs = vec![games_page(0, 0, &["Red", "Blue", "Green", "Yellow", "Gold"], true)];
        let (dataset, report) = extract_dataset(revs, &PipelineConfig::new(10));
        assert_eq!(report.attributes_kept, dataset.len());
        assert!(report.attributes_before_filters >= report.attributes_kept);
        assert_eq!(dataset.len(), 0, "single-revision columns are filtered out");
    }

    #[test]
    fn duplicate_revisions_are_dropped_and_counted() {
        let all = ["Red", "Blue", "Green", "Yellow", "Gold", "Silver"];
        let mut revs: Vec<PageRevision> =
            (0..6u32).map(|i| games_page(i * 10, 0, &all[..5], false)).collect();
        // A corrupted stream repeats one (page, day, seq) key.
        revs.push(games_page(20, 0, &all[..5], false));
        let (_, report) = extract_dataset(revs, &PipelineConfig::new(100));
        assert_eq!(report.duplicate_dropped, 1);
        assert_eq!(report.revisions, 6);
    }

    #[test]
    fn session_matches_eager_extraction_byte_for_byte() {
        let all = ["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal", "Ruby", "Sapphire"];
        let mut revs = Vec::new();
        for (pid, title) in [(1u32, "Page A"), (2, "Page B")] {
            for i in 0..6u32 {
                let mut r = games_page(i * 9, 0, &all[..5 + i as usize % 4], false);
                r.page_id = pid;
                r.title = title.to_string();
                revs.push(r);
            }
        }
        let config = PipelineConfig::new(100);
        let (eager, eager_report) = extract_dataset(revs.clone(), &config);

        let mut session = PipelineSession::new(config);
        session.push_page(revs[..6].to_vec()).expect("page A");
        session.push_page(revs[6..].to_vec()).expect("page B");
        let (incremental, report) = session.finish();
        assert_eq!(report, eager_report);
        assert_eq!(
            tind_model::binio::encode_dataset(&incremental),
            tind_model::binio::encode_dataset(&eager),
            "incremental and eager runs must encode identically"
        );
    }

    #[test]
    fn snapshot_resume_is_byte_identical() {
        let all = ["Red", "Blue", "Green", "Yellow", "Gold", "Silver", "Crystal"];
        let page = |pid: u32, title: &str| -> Vec<PageRevision> {
            (0..6u32)
                .map(|i| {
                    let mut r = games_page(i * 9, 0, &all[..5 + i as usize % 3], false);
                    r.page_id = pid;
                    r.title = title.to_string();
                    r
                })
                .collect()
        };
        let config = PipelineConfig::new(100);
        // Uninterrupted reference run.
        let mut full = PipelineSession::new(config.clone());
        full.push_page(page(1, "A")).expect("a");
        full.push_page(page(2, "B")).expect("b");
        full.push_page(page(3, "C")).expect("c");
        let (reference, ref_report) = full.finish();

        // Interrupted after two pages, resumed from the snapshot.
        let mut first = PipelineSession::new(config.clone());
        first.push_page(page(1, "A")).expect("a");
        first.push_page(page(2, "B")).expect("b");
        let snap = first.snapshot();
        let snap_report = first.report().clone();
        drop(first);
        let mut resumed =
            PipelineSession::resume(config, snap, snap_report, None).expect("resumes");
        resumed.push_page(page(3, "C")).expect("c");
        let (rebuilt, report) = resumed.finish();
        assert_eq!(report, ref_report);
        assert_eq!(
            tind_model::binio::encode_dataset(&rebuilt),
            tind_model::binio::encode_dataset(&reference)
        );
    }
}
