//! Vandalism heuristics over revision streams.
//!
//! The paper aggregates to daily snapshots specifically "to reduce the
//! impact of vandalism, which frequently appears in Wikipedia" (§5.1,
//! citing \[2\]). Daily aggregation removes sub-day vandalism implicitly;
//! this module makes the phenomenon *observable*: it detects reverts and
//! page blankings in a revision stream, so pipelines can report how much
//! vandalism the aggregation absorbed and analyses can exclude known-bad
//! revisions explicitly (the paper's §3.3 also suggests zero-weighting
//! known bad periods via `w`).

use crate::revision::{canonicalize_stream, PageRevision};
use tind_model::hash::FastMap;

/// Classification of one revision relative to its page history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevisionClass {
    /// Ordinary content change.
    Normal,
    /// Content identical to an earlier revision of the page — an undo of
    /// everything in between.
    Revert {
        /// How many intermediate revisions were undone.
        undone: usize,
    },
    /// The page lost (nearly) all content relative to its predecessor.
    Blanking,
    /// A revision later undone by a revert — presumed vandalism.
    Vandalized,
}

/// Per-page vandalism statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VandalismReport {
    /// Revisions examined.
    pub revisions: usize,
    /// Detected reverts.
    pub reverts: usize,
    /// Detected blankings.
    pub blankings: usize,
    /// Revisions undone by a revert.
    pub vandalized: usize,
    /// Vandalized revisions living less than one day (the ones daily
    /// aggregation removes for free).
    pub vandalized_subday: usize,
}

/// Classifies every revision of a canonicalized stream. Returns one class
/// per input revision (in canonical order) plus aggregate statistics.
pub fn classify_stream(revisions: Vec<PageRevision>) -> (Vec<(PageRevision, RevisionClass)>, VandalismReport) {
    let revisions = canonicalize_stream(revisions);
    let mut report = VandalismReport { revisions: revisions.len(), ..VandalismReport::default() };
    let mut classified: Vec<(PageRevision, RevisionClass)> = Vec::with_capacity(revisions.len());

    let mut i = 0;
    while i < revisions.len() {
        let page_id = revisions[i].page_id;
        let mut j = i;
        while j < revisions.len() && revisions[j].page_id == page_id {
            j += 1;
        }
        classify_page(&revisions[i..j], &mut classified, &mut report);
        i = j;
    }
    (classified, report)
}

fn content_fingerprint(text: &str) -> u64 {
    tind_model::hash::hash_bytes(text.trim().as_bytes())
}

fn classify_page(
    page: &[PageRevision],
    out: &mut Vec<(PageRevision, RevisionClass)>,
    report: &mut VandalismReport,
) {
    let offset = out.len();
    // fingerprint → index of the most recent revision with that content.
    let mut seen: FastMap<u64, usize> = FastMap::default();
    let mut prev_len = 0usize;
    for (idx, rev) in page.iter().enumerate() {
        let fp = content_fingerprint(&rev.wikitext);
        let len = rev.wikitext.trim().len();
        let class = if let Some(&earlier) = seen.get(&fp) {
            if earlier + 1 < idx {
                // Everything between `earlier` and `idx` was undone.
                let undone = idx - earlier - 1;
                report.reverts += 1;
                for (k, slot) in out[offset + earlier + 1..offset + idx].iter_mut().enumerate() {
                    if slot.1 == RevisionClass::Normal || slot.1 == RevisionClass::Blanking {
                        if slot.1 == RevisionClass::Blanking {
                            // keep the more specific class but count it
                            // as vandalized too
                            report.vandalized += 1;
                        } else {
                            slot.1 = RevisionClass::Vandalized;
                            report.vandalized += 1;
                        }
                        let vandal_rev = &page[earlier + 1 + k];
                        if vandal_rev.day == rev.day {
                            report.vandalized_subday += 1;
                        }
                    }
                }
                RevisionClass::Revert { undone }
            } else {
                RevisionClass::Normal // identical to the direct predecessor
            }
        } else if idx > 0 && prev_len >= 40 && len * 10 < prev_len {
            report.blankings += 1;
            RevisionClass::Blanking
        } else {
            RevisionClass::Normal
        };
        seen.insert(fp, idx);
        prev_len = len;
        out.push((rev.clone(), class));
    }
}

/// Drops revisions classified as vandalized or blanking — an *explicit*
/// cleaning alternative to relying on daily aggregation alone.
pub fn filter_vandalism(revisions: Vec<PageRevision>) -> (Vec<PageRevision>, VandalismReport) {
    let (classified, report) = classify_stream(revisions);
    let kept = classified
        .into_iter()
        .filter(|(_, class)| {
            !matches!(class, RevisionClass::Vandalized | RevisionClass::Blanking)
        })
        .map(|(rev, _)| rev)
        .collect();
    (kept, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rev(day: u32, seq: u32, text: &str) -> PageRevision {
        PageRevision {
            page_id: 1,
            title: "Page".into(),
            day,
            seq_in_day: seq,
            wikitext: text.into(),
        }
    }

    const GOOD: &str = "{|\n! Game\n|-\n| Red\n|-\n| Blue\n|-\n| Gold\n|-\n| Silver\n|}";
    const VANDAL: &str = "{|\n! Game\n|-\n| HAHAHA PWNED\n|}";

    #[test]
    fn detects_revert_and_marks_vandalism() {
        let stream = vec![rev(0, 0, GOOD), rev(5, 0, VANDAL), rev(5, 1, GOOD)];
        let (classified, report) = classify_stream(stream);
        assert_eq!(classified[0].1, RevisionClass::Normal);
        assert_eq!(classified[1].1, RevisionClass::Vandalized);
        assert_eq!(classified[2].1, RevisionClass::Revert { undone: 1 });
        assert_eq!(report.reverts, 1);
        assert_eq!(report.vandalized, 1);
        assert_eq!(report.vandalized_subday, 1, "same-day vandalism");
    }

    #[test]
    fn detects_blanking() {
        let stream = vec![rev(0, 0, GOOD), rev(3, 0, "x")];
        let (classified, report) = classify_stream(stream);
        assert_eq!(classified[1].1, RevisionClass::Blanking);
        assert_eq!(report.blankings, 1);
    }

    #[test]
    fn multi_day_vandalism_counts_as_not_subday() {
        let stream = vec![rev(0, 0, GOOD), rev(5, 0, VANDAL), rev(8, 0, GOOD)];
        let (_, report) = classify_stream(stream);
        assert_eq!(report.vandalized, 1);
        assert_eq!(report.vandalized_subday, 0);
    }

    #[test]
    fn normal_growth_is_not_flagged() {
        let grown = format!("{GOOD}\nMore prose about the games.");
        let stream = vec![rev(0, 0, GOOD), rev(2, 0, &grown), rev(9, 0, GOOD)];
        // Day 9 returns to the old content — that IS a revert of day 2.
        let (classified, report) = classify_stream(stream);
        assert_eq!(classified[1].1, RevisionClass::Vandalized);
        assert_eq!(classified[2].1, RevisionClass::Revert { undone: 1 });
        assert_eq!(report.blankings, 0);
    }

    #[test]
    fn filter_removes_vandalized_revisions() {
        let stream =
            vec![rev(0, 0, GOOD), rev(5, 0, VANDAL), rev(5, 1, GOOD), rev(9, 0, VANDAL)];
        let (kept, report) = filter_vandalism(stream);
        // The trailing vandalism was never reverted → kept (no oracle).
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|r| r.day != 5 || r.seq_in_day != 0));
        assert_eq!(report.vandalized, 1);
    }

    #[test]
    fn pages_are_classified_independently() {
        let mut a = rev(0, 0, GOOD);
        a.page_id = 1;
        let mut b = rev(1, 0, GOOD);
        b.page_id = 2;
        // Identical content on different pages is NOT a revert.
        let (classified, report) = classify_stream(vec![a, b]);
        assert!(classified.iter().all(|(_, c)| *c == RevisionClass::Normal));
        assert_eq!(report.reverts, 0);
    }

    #[test]
    fn filtered_stream_improves_extraction() {
        use crate::pipeline::{extract_dataset, PipelineConfig};
        // 6 clean growing revisions + vandal/revert pairs sprinkled in.
        let games = ["Red", "Blue", "Gold", "Silver", "Crystal", "Ruby", "Sapphire", "Emerald", "Pearl", "Diamond"];
        let render = |upto: usize| {
            let mut t = String::from("{|\n|+ Games\n! Game\n");
            for g in &games[..upto] {
                t.push_str(&format!("|-\n| {g}\n"));
            }
            t.push_str("|}");
            t
        };
        let mut stream = Vec::new();
        for i in 0..6 {
            stream.push(rev(i as u32 * 10, 0, &render(5 + i)));
            // Same-day vandalism + revert.
            stream.push(rev(i as u32 * 10 + 1, 0, VANDAL));
            stream.push(rev(i as u32 * 10 + 1, 1, &render(5 + i)));
        }
        let (kept, report) = filter_vandalism(stream);
        assert_eq!(report.vandalized, 6);
        let (dataset, _) = extract_dataset(kept, &PipelineConfig::new(100));
        assert_eq!(dataset.len(), 1);
        let (_, h) = dataset.attribute_by_name("Page ▸ Games ▸ Game").expect("attribute");
        let dict = dataset.dictionary();
        assert!(dict.get("HAHAHA PWNED").is_none(), "vandal content filtered out");
        assert_eq!(h.versions().len(), 6);
    }
}
