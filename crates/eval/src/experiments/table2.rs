//! Table 2: share of genuine INDs per change-count bucket.
//!
//! Static INDs discovered on the latest snapshot are bucketed by the
//! change counts of their left- and right-hand sides ([4,8), [8,16),
//! [16,∞)); per bucket a sample of up to 100 INDs is labelled against the
//! ground truth. Paper expectation: genuineness density rises with change
//! frequency on both sides, peaking at [16,∞) ⊆ [16,∞) (24% in the paper).

use tind_model::rng::Rng;
use tind_baseline::ManyIndex;
use tind_model::AttrId;

use crate::context::ExpContext;
use crate::report::{Report, TextTable};
use crate::workload::{build_dataset, dataset_arc};

/// The paper's change-count buckets.
pub const BUCKETS: [(usize, usize); 3] = [(4, 8), (8, 16), (16, usize::MAX)];

fn bucket_label(b: (usize, usize)) -> String {
    if b.1 == usize::MAX {
        format!("[{},∞)", b.0)
    } else {
        format!("[{},{})", b.0, b.1)
    }
}

fn bucket_of(changes: usize) -> Option<usize> {
    BUCKETS.iter().position(|&(lo, hi)| changes >= lo && changes < hi)
}

/// Runs the bucketed annotation study.
pub fn run(ctx: &ExpContext) -> Report {
    let generated = build_dataset(ctx, None);
    let dataset = dataset_arc(&generated);
    let many = ManyIndex::build_latest(dataset.clone(), 2048, 2);
    let static_pairs = many.all_pairs();

    // Bucket all static INDs by (lhs changes, rhs changes).
    let mut buckets: Vec<Vec<(AttrId, AttrId)>> = vec![Vec::new(); BUCKETS.len() * BUCKETS.len()];
    for &(l, r) in &static_pairs {
        let lc = dataset.attribute(l).change_count();
        let rc = dataset.attribute(r).change_count();
        if let (Some(bl), Some(br)) = (bucket_of(lc), bucket_of(rc)) {
            buckets[bl * BUCKETS.len() + br].push((l, r));
        }
    }

    let mut rng = Rng::seed_from_u64(ctx.seed + 2);
    let mut table = TextTable::new(["bucket", "static INDs", "sampled", "TP [%]"]);
    for (bl, &lb) in BUCKETS.iter().enumerate() {
        for (br, &rb) in BUCKETS.iter().enumerate() {
            let pairs = &mut buckets[bl * BUCKETS.len() + br];
            rng.shuffle(pairs);
            let sample: Vec<(AttrId, AttrId)> = pairs.iter().copied().take(100).collect();
            let tp = sample.iter().filter(|&&(l, r)| generated.truth.is_genuine(l, r)).count();
            let tp_pct = if sample.is_empty() {
                "n/a".to_string()
            } else {
                format!("{:.0}", 100.0 * tp as f64 / sample.len() as f64)
            };
            table.push_row([
                format!("{} ⊆ {}", bucket_label(lb), bucket_label(rb)),
                pairs.len().to_string(),
                sample.len().to_string(),
                tp_pct,
            ]);
        }
    }

    let mut report =
        Report::new("table2", "Genuine-IND share per change-count bucket (static INDs)", table);
    report.note(format!("{} static INDs on the latest snapshot", static_pairs.len()));
    report.note("paper shape: TP% grows with change frequency, peaking at [16,∞) ⊆ [16,∞)");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_nine_buckets() {
        let report = run(&ExpContext::tiny(2));
        assert_eq!(report.table.num_rows(), 9);
        for row in report.table.rows() {
            let total: usize = row[1].parse().expect("count");
            let sampled: usize = row[2].parse().expect("sample");
            assert!(sampled <= 100);
            assert!(sampled <= total);
        }
    }

    #[test]
    fn bucket_of_matches_paper_ranges() {
        assert_eq!(bucket_of(3), None);
        assert_eq!(bucket_of(4), Some(0));
        assert_eq!(bucket_of(7), Some(0));
        assert_eq!(bucket_of(8), Some(1));
        assert_eq!(bucket_of(15), Some(1));
        assert_eq!(bucket_of(16), Some(2));
        assert_eq!(bucket_of(1000), Some(2));
    }
}
