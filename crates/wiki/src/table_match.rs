//! Matching tables across revisions of a page.
//!
//! Wikipedia tables carry no identifiers; to build *table histories* the
//! extractor must decide which table in revision `r+1` is "the same" as a
//! table in revision `r` (the paper relies on prior work \[5\] for this; we
//! implement the standard similarity matching). Tables are matched
//! greedily by header-set similarity with a caption-equality bonus; tables
//! that vanish are remembered so they can re-appear (vandalism reverts
//! routinely delete and restore whole tables).

use crate::wikitext::RawTable;

/// Jaccard similarity of two string sets (case-insensitive).
pub fn jaccard<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f64 {
    let sa: std::collections::HashSet<String> =
        a.into_iter().map(|s| s.to_lowercase()).collect();
    let sb: std::collections::HashSet<String> =
        b.into_iter().map(|s| s.to_lowercase()).collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

#[derive(Debug)]
struct TrackedTable {
    id: u32,
    headers: Vec<String>,
    caption: Option<String>,
}

/// Stateful matcher for one page's revision sequence.
#[derive(Debug, Default)]
pub struct TableMatcher {
    next_id: u32,
    tracked: Vec<TrackedTable>,
}

/// Minimum similarity for two tables to be considered the same.
const MATCH_THRESHOLD: f64 = 0.5;

impl TableMatcher {
    /// Creates a matcher with no known tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns a stable table id to every table of the next revision.
    pub fn match_revision(&mut self, tables: &[RawTable]) -> Vec<u32> {
        // Score every (tracked, raw) combination.
        let mut scored: Vec<(f64, usize, usize)> = Vec::new();
        for (ti, tracked) in self.tracked.iter().enumerate() {
            for (ri, raw) in tables.iter().enumerate() {
                let mut score = jaccard(
                    tracked.headers.iter().map(String::as_str),
                    raw.headers.iter().map(String::as_str),
                );
                if tracked.caption.is_some() && tracked.caption == raw.caption {
                    score += 0.5;
                }
                if score >= MATCH_THRESHOLD {
                    scored.push((score, ti, ri));
                }
            }
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut raw_assignment: Vec<Option<u32>> = vec![None; tables.len()];
        let mut tracked_taken = vec![false; self.tracked.len()];
        for (_, ti, ri) in scored {
            if tracked_taken[ti] || raw_assignment[ri].is_some() {
                continue;
            }
            tracked_taken[ti] = true;
            raw_assignment[ri] = Some(self.tracked[ti].id);
            // Refresh the tracked shape to the latest observation.
            self.tracked[ti].headers = tables[ri].headers.clone();
            self.tracked[ti].caption = tables[ri].caption.clone();
        }
        raw_assignment
            .into_iter()
            .enumerate()
            .map(|(ri, assigned)| {
                assigned.unwrap_or_else(|| {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.tracked.push(TrackedTable {
                        id,
                        headers: tables[ri].headers.clone(),
                        caption: tables[ri].caption.clone(),
                    });
                    id
                })
            })
            .collect()
    }

    /// Number of distinct tables seen so far.
    pub fn tables_seen(&self) -> usize {
        self.next_id as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(caption: Option<&str>, headers: &[&str]) -> RawTable {
        RawTable {
            caption: caption.map(str::to_string),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![vec!["x".to_string(); headers.len()]],
        }
    }

    #[test]
    fn stable_ids_across_identical_revisions() {
        let mut m = TableMatcher::new();
        let tables = vec![table(Some("Games"), &["Game", "Year"]), table(None, &["City"])];
        let ids1 = m.match_revision(&tables);
        let ids2 = m.match_revision(&tables);
        assert_eq!(ids1, vec![0, 1]);
        assert_eq!(ids1, ids2);
        assert_eq!(m.tables_seen(), 2);
    }

    #[test]
    fn survives_reordering() {
        let mut m = TableMatcher::new();
        let a = table(Some("A"), &["Game", "Year"]);
        let b = table(Some("B"), &["City", "Country"]);
        let ids1 = m.match_revision(&[a.clone(), b.clone()]);
        let ids2 = m.match_revision(&[b, a]);
        assert_eq!(ids1, vec![0, 1]);
        assert_eq!(ids2, vec![1, 0]);
    }

    #[test]
    fn header_drift_keeps_identity() {
        let mut m = TableMatcher::new();
        let ids1 = m.match_revision(&[table(None, &["Game", "Year", "Developer"])]);
        // One header renamed: Jaccard 2/4 = 0.5, still matched.
        let ids2 = m.match_revision(&[table(None, &["Game", "Year", "Studio"])]);
        assert_eq!(ids1, ids2);
    }

    #[test]
    fn dissimilar_table_gets_new_id() {
        let mut m = TableMatcher::new();
        let ids1 = m.match_revision(&[table(None, &["Game", "Year"])]);
        let ids2 = m.match_revision(&[table(None, &["Population", "Area"])]);
        assert_ne!(ids1[0], ids2[0]);
        assert_eq!(m.tables_seen(), 2);
    }

    #[test]
    fn vanished_table_can_reappear() {
        let mut m = TableMatcher::new();
        let t = table(Some("Games"), &["Game", "Year"]);
        let ids1 = m.match_revision(std::slice::from_ref(&t));
        let _ = m.match_revision(&[]); // vandalized: table removed
        let ids3 = m.match_revision(&[t]); // reverted
        assert_eq!(ids1, ids3, "reverted table keeps its id");
    }

    #[test]
    fn caption_bonus_disambiguates_similar_headers() {
        let mut m = TableMatcher::new();
        let a = table(Some("EU countries"), &["Name", "Capital"]);
        let b = table(Some("UN countries"), &["Name", "Capital"]);
        let ids1 = m.match_revision(&[a.clone(), b.clone()]);
        let ids2 = m.match_revision(&[b, a]);
        assert_eq!(ids2, vec![ids1[1], ids1[0]], "caption keeps twins apart");
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(["a", "b"], ["A", "B"]), 1.0);
        assert_eq!(jaccard(["a"], ["b"]), 0.0);
        assert!((jaccard(["a", "b", "c"], ["b", "c", "d"]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(std::iter::empty::<&str>(), std::iter::empty::<&str>()), 1.0);
    }
}
