//! Required values `R_{ε,w}(Q)` (Section 4.2.1).
//!
//! A value whose summed occurrence weight in `Q` exceeds ε must appear in
//! any valid right-hand side at least once: were it missing from `A[T]`
//! entirely, every timestamp where `Q` carries it would be violated — more
//! than the budget allows, for any δ. Querying the required values against
//! the full-history matrix `M_T` is therefore a sound first pruning step,
//! independent of δ.

use std::cmp::Ordering;

use tind_model::{AttributeHistory, Timeline, ValueId, ValueSet};

use crate::params::{TindParams, EPS_TOLERANCE};

/// The buffers [`required_values_into`] merges occurrence weights in: the
/// running sums land in `.0`, and `.1` is the merge's second buffer.
pub(crate) type WeightBufs = (Vec<(ValueId, f64)>, Vec<(ValueId, f64)>);

/// Summed occurrence weight `w_v(Q)` for every value of `Q` (Equation 6),
/// sorted by value.
pub fn occurrence_weights(
    q: &AttributeHistory,
    params: &TindParams,
    timeline: Timeline,
) -> Vec<(ValueId, f64)> {
    let _ = timeline; // validity intervals are already clipped to the timeline
    let mut bufs = WeightBufs::default();
    occurrence_weights_into(q, params, &mut bufs);
    bufs.0
}

/// [`occurrence_weights`] into `bufs.0`, allocating nothing once the two
/// buffers are warm.
///
/// A merge of each version's sorted values into the running sums, in
/// version order, so every sum adds the same weights in the same order as
/// a per-value fold over the versions would.
fn occurrence_weights_into(q: &AttributeHistory, params: &TindParams, bufs: &mut WeightBufs) {
    let (sums, merged) = bufs;
    sums.clear();
    for (i, version) in q.versions().iter().enumerate() {
        let w = params.weights.interval_weight(q.version_validity(i));
        let values = &version.values;
        merged.clear();
        // A value's first sum starts from zero, as a fold's would.
        let (mut a, mut b) = (0, 0);
        while a < sums.len() && b < values.len() {
            let ((v, sum), n) = (sums[a], values[b]);
            match v.cmp(&n) {
                Ordering::Less => {
                    merged.push((v, sum));
                    a += 1;
                }
                Ordering::Greater => {
                    merged.push((n, 0.0 + w));
                    b += 1;
                }
                Ordering::Equal => {
                    merged.push((v, sum + w));
                    a += 1;
                    b += 1;
                }
            }
        }
        merged.extend_from_slice(&sums[a..]);
        merged.extend(values[b..].iter().map(|&n| (n, 0.0 + w)));
        std::mem::swap(sums, merged);
    }
}

/// The required values `R_{ε,w}(Q) = {v | w_v(Q) > ε}` (Equation 7), as a
/// canonical sorted set.
///
/// The comparison uses a small tolerance *above* ε so that float noise can
/// never promote a borderline value into the required set (which could
/// wrongly prune a valid candidate); the cost of leaving a borderline value
/// out is only slightly weaker pruning, never a false negative.
pub fn required_values(
    q: &AttributeHistory,
    params: &TindParams,
    timeline: Timeline,
) -> ValueSet {
    let _ = timeline; // as for `occurrence_weights`
    let mut out = ValueSet::new();
    required_values_into(q, params, &mut out, &mut WeightBufs::default());
    out
}

/// [`required_values`] into `out`, the weights merged in `weights`: once
/// the caller's buffers are warm, nothing is allocated.
pub(crate) fn required_values_into(
    q: &AttributeHistory,
    params: &TindParams,
    out: &mut ValueSet,
    weights: &mut WeightBufs,
) {
    occurrence_weights_into(q, params, weights);
    out.clear();
    out.extend(weights.0.iter().filter(|&&(_, w)| w > params.eps + EPS_TOLERANCE).map(|&(v, _)| v));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_model::rng::cases;
    use tind_model::{DatasetBuilder, HistoryBuilder, WeightFn};

    fn history() -> (tind_model::Dataset, Timeline) {
        let tl = Timeline::new(20);
        let mut b = DatasetBuilder::new(tl);
        // "stable" present whole life [0,19] (weight 20); "brief" only
        // [0,2] (weight 3); "late" only [15,19] (weight 5).
        b.add_attribute(
            "q",
            &[
                (0, vec!["stable", "brief"]),
                (3, vec!["stable"]),
                (15, vec!["stable", "late"]),
            ],
            19,
        );
        (b.build(), tl)
    }

    #[test]
    fn occurrence_weights_sum_validity_intervals() {
        let (d, tl) = history();
        let q = d.attribute(0);
        let p = TindParams::weighted(0.0, 0, WeightFn::constant_one());
        let w = occurrence_weights(q, &p, tl);
        let dict = d.dictionary();
        let weight = |s: &str| {
            let v = dict.get(s).unwrap();
            w.iter().find(|&&(u, _)| u == v).expect("value of q").1
        };
        assert!(w.windows(2).all(|p| p[0].0 < p[1].0), "sorted by value");
        assert!((weight("stable") - 20.0).abs() < 1e-9);
        assert!((weight("brief") - 3.0).abs() < 1e-9);
        assert!((weight("late") - 5.0).abs() < 1e-9);
    }

    #[test]
    fn required_values_filter_by_eps() {
        let (d, tl) = history();
        let q = d.attribute(0);
        let dict = d.dictionary();
        let stable = dict.get("stable").unwrap();
        let brief = dict.get("brief").unwrap();
        let late = dict.get("late").unwrap();

        let all = required_values(q, &TindParams::weighted(0.0, 0, WeightFn::constant_one()), tl);
        assert_eq!(all, tind_model::value::canonicalize(vec![stable, brief, late]));

        let eps3 = required_values(q, &TindParams::paper_default(), tl);
        assert!(!eps3.contains(&brief), "weight 3 does not exceed ε = 3");
        assert!(eps3.contains(&late));
        assert!(eps3.contains(&stable));

        let eps10 = required_values(q, &TindParams::weighted(10.0, 0, WeightFn::constant_one()), tl);
        assert_eq!(eps10, vec![stable]);
    }

    #[test]
    fn exact_eps_boundary_is_not_required() {
        // w_v = ε must NOT make v required ("more than ε" in the paper).
        let (d, tl) = history();
        let q = d.attribute(0);
        let dict = d.dictionary();
        let brief = dict.get("brief").unwrap();
        let p = TindParams::weighted(3.0, 0, WeightFn::constant_one());
        assert!(!required_values(q, &p, tl).contains(&brief));
    }

    #[test]
    fn decay_weights_demote_old_values() {
        let (d, tl) = history();
        let q = d.attribute(0);
        let dict = d.dictionary();
        let w = WeightFn::exponential(0.5, tl);
        // "brief" lives in [0,2]; with decay its total weight is tiny.
        let p = TindParams::weighted(0.001, 0, w);
        let req = required_values(q, &p, tl);
        assert!(!req.contains(&dict.get("brief").unwrap()));
        assert!(req.contains(&dict.get("late").unwrap()));
    }

    /// The per-value hash-map fold the merge replaced, sorted by value.
    fn folded_weights(q: &AttributeHistory, params: &TindParams) -> Vec<(ValueId, f64)> {
        let mut weights: tind_model::hash::FastMap<ValueId, f64> = Default::default();
        for (i, version) in q.versions().iter().enumerate() {
            let w = params.weights.interval_weight(q.version_validity(i));
            for &v in &version.values {
                *weights.entry(v).or_insert(0.0) += w;
            }
        }
        let mut folded: Vec<_> = weights.into_iter().collect();
        folded.sort_unstable_by_key(|&(v, _)| v);
        folded
    }

    #[test]
    fn merged_weights_equal_the_hash_map_fold_bit_for_bit() {
        cases("required::merged_weights_equal_the_hash_map_fold_bit_for_bit", 64, |rng| {
            let n = rng.range(2..300u32);
            let tl = Timeline::new(n);
            let mut b = HistoryBuilder::new("q");
            let (mut t, mut last_start) = (rng.range(0..n), 0);
            while t < n {
                let size = rng.range(0..12u32);
                b.push(t, (0..size).map(|_| rng.range(0..50u32)).collect());
                last_start = t;
                t += rng.range(1..=20u32);
            }
            let q = b.finish(rng.range(last_start..n));
            let piecewise: Vec<f64> = (0..n).map(|_| rng.f64() * 3.0).collect();
            let mut dirty: (ValueSet, WeightBufs) = (vec![7, 9], (vec![(1, 2.0)], vec![(3, 4.0)]));
            for weights in [
                WeightFn::constant_one(),
                WeightFn::uniform_normalized(tl),
                WeightFn::exponential(0.9 + rng.f64() * 0.099, tl),
                WeightFn::piecewise(&piecewise),
            ] {
                let p = TindParams::weighted(f64::from(rng.range(0..6u32)), 0, weights);
                let bits = |w: Vec<(ValueId, f64)>| -> Vec<(ValueId, u64)> {
                    w.into_iter().map(|(v, w)| (v, w.to_bits())).collect()
                };
                let folded = folded_weights(&q, &p);
                assert_eq!(bits(occurrence_weights(&q, &p, tl)), bits(folded.clone()));
                let required: ValueSet = folded
                    .into_iter()
                    .filter(|&(_, w)| w > p.eps + EPS_TOLERANCE)
                    .map(|(v, _)| v)
                    .collect();
                assert_eq!(required_values(&q, &p, tl), required);
                // Warm buffers holding another query's sets change nothing.
                required_values_into(&q, &p, &mut dirty.0, &mut dirty.1);
                assert_eq!(dirty.0, required);
            }
        });
    }

    #[test]
    fn required_values_of_self_are_subset_of_universe() {
        let (d, tl) = history();
        let q = d.attribute(0);
        let req = required_values(q, &TindParams::strict(), tl);
        assert!(tind_model::value::is_subset(&req, &q.value_universe()));
    }
}
