//! Violation explanations for interactive exploration.
//!
//! The paper's use-case is a *user* exploring tIND relationships; when a
//! candidate fails, "not a tIND" is a dead end — the useful answer is
//! *where* and *why* it fails: which time intervals violate, which values
//! are missing from the δ-window, and how far the violation weight exceeds
//! the budget (or how much headroom a valid tIND has left). This module
//! walks Algorithm 2's [`QueryPlan`](crate::QueryPlan) with a test that
//! records that evidence, so its verdict and violation weight are the ones
//! stage 4 of search computes.

use tind_model::{AttributeHistory, Dataset, Interval, Timeline, ValueId};

use crate::params::TindParams;
use crate::validate::{with_thread_scratch, IntervalTest, ValidationScratch};

/// One maximal violated interval with its evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolatedInterval {
    /// The violated timestamps.
    pub interval: Interval,
    /// Weight this interval contributes to the violation total.
    pub weight: f64,
    /// Values of `Q` missing from `A`'s δ-window throughout the interval
    /// (capped at a handful for readability).
    pub missing_values: Vec<ValueId>,
}

/// A full explanation of a tIND candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// Whether the dependency holds under the given parameters.
    pub valid: bool,
    /// Exact total violation weight.
    pub violation: f64,
    /// The budget ε.
    pub eps: f64,
    /// Maximal violated intervals, chronological.
    pub violated: Vec<ViolatedInterval>,
}

/// How many missing values to record per interval.
const MAX_MISSING: usize = 5;

/// Explains the candidate `Q ⊆_{w,ε,δ} A`.
pub fn explain(
    q: &AttributeHistory,
    a: &AttributeHistory,
    params: &TindParams,
    timeline: Timeline,
) -> Explanation {
    let mut evidence = Evidence::default();
    let (valid, violation) = with_thread_scratch(|scratch| {
        scratch.plan(q, params, timeline).run(a, scratch, false, &mut evidence)
    });
    Explanation { valid, violation, eps: params.eps, violated: evidence.violated }
}

/// The interval test behind [`explain`]: exact containment that also
/// records which values are missing and merges the violated intervals.
#[derive(Default)]
struct Evidence {
    /// The first [`MAX_MISSING`] missing values of the interval last tested.
    missing: Vec<ValueId>,
    violated: Vec<ViolatedInterval>,
}

impl IntervalTest for Evidence {
    fn violated(&mut self, qv: &[ValueId], window: &ValidationScratch) -> bool {
        self.missing.clear();
        self.missing.extend(qv.iter().copied().filter(|&v| !window.in_union(v)).take(MAX_MISSING));
        !self.missing.is_empty()
    }

    fn record(&mut self, interval: Interval, weight: f64) {
        // Merge with the previous violated interval when contiguous and
        // equally evidenced (reads better: one long violation, not many
        // fragments).
        if let Some(last) = self.violated.last_mut() {
            if last.interval.end + 1 == interval.start && last.missing_values == self.missing {
                last.interval = Interval::new(last.interval.start, interval.end);
                last.weight += weight;
                return;
            }
        }
        self.violated.push(ViolatedInterval {
            interval,
            weight,
            missing_values: self.missing.clone(),
        });
    }
}

impl Explanation {
    /// Renders the explanation with value names resolved against a
    /// dataset's dictionary.
    pub fn render(&self, dataset: &Dataset) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.valid {
            let _ = writeln!(
                out,
                "VALID: violation weight {:.3} within budget ε = {} (headroom {:.3})",
                self.violation,
                self.eps,
                self.eps - self.violation
            );
        } else {
            let _ = writeln!(
                out,
                "INVALID: violation weight {:.3} exceeds budget ε = {} by {:.3}",
                self.violation,
                self.eps,
                self.violation - self.eps
            );
        }
        for v in &self.violated {
            let names: Vec<&str> = v
                .missing_values
                .iter()
                .filter_map(|&id| dataset.dictionary().try_resolve(id))
                .collect();
            let _ = writeln!(
                out,
                "  {} (weight {:.3}): missing {:?}",
                v.interval, v.weight, names
            );
        }
        if self.violated.is_empty() {
            let _ = writeln!(out, "  (no violated intervals)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::tests::{kernel_fixture, weight_families};
    use crate::validate::{delta_contained_at, naive_validate, naive_violation_weight, validate};
    use tind_model::{DatasetBuilder, Timestamp, WeightFn};

    fn dataset() -> (Dataset, Timeline) {
        let tl = Timeline::new(20);
        let mut b = DatasetBuilder::new(tl);
        // Q carries "gone" for days 5..=9 while A never has it; Q also has
        // "late" from day 15 which A only gains at day 18.
        b.add_attribute(
            "q",
            &[
                (0, vec!["base"]),
                (5, vec!["base", "gone"]),
                (10, vec!["base"]),
                (15, vec!["base", "late"]),
            ],
            19,
        );
        b.add_attribute("a", &[(0, vec!["base"]), (18, vec!["base", "late"])], 19);
        (b.build(), tl)
    }

    #[test]
    fn explanation_matches_the_validator() {
        let (d, tl) = dataset();
        for params in [
            TindParams::strict(),
            TindParams::paper_default(),
            TindParams::weighted(5.0, 1, WeightFn::constant_one()),
            TindParams::weighted(10.0, 0, WeightFn::constant_one()),
        ] {
            let e = explain(d.attribute(0), d.attribute(1), &params, tl);
            assert_eq!(e.valid, validate(d.attribute(0), d.attribute(1), &params, tl));
            let naive = naive_violation_weight(d.attribute(0), d.attribute(1), &params, tl);
            assert!((e.violation - naive).abs() < 1e-9, "{:?}", params);
            let total: f64 = e.violated.iter().map(|v| v.weight).sum();
            assert!((total - e.violation).abs() < 1e-9);
        }
    }

    #[test]
    fn explanation_names_the_missing_values() {
        let (d, tl) = dataset();
        let e = explain(d.attribute(0), d.attribute(1), &TindParams::strict(), tl);
        assert!(!e.valid);
        // Two distinct violation episodes: "gone" (5..=9) and "late" (15..=17).
        assert_eq!(e.violated.len(), 2, "{e:?}");
        assert_eq!(e.violated[0].interval, Interval::new(5, 9));
        let gone = d.dictionary().get("gone").expect("interned");
        assert_eq!(e.violated[0].missing_values, vec![gone]);
        let rendered = e.render(&d);
        assert!(rendered.contains("INVALID"));
        assert!(rendered.contains("gone"), "{rendered}");
        assert!(rendered.contains("late"), "{rendered}");
    }

    #[test]
    fn delta_shrinks_the_violated_intervals() {
        let (d, tl) = dataset();
        // δ = 3 heals the "late" episode entirely (window reaches day 18),
        // leaving only "gone".
        let p = TindParams::weighted(0.0, 3, WeightFn::constant_one());
        let e = explain(d.attribute(0), d.attribute(1), &p, tl);
        assert_eq!(e.violated.len(), 1);
        assert_eq!(e.violated[0].interval, Interval::new(5, 9));
    }

    #[test]
    fn valid_pairs_report_headroom() {
        let (d, tl) = dataset();
        let p = TindParams::weighted(10.0, 3, WeightFn::constant_one());
        let e = explain(d.attribute(0), d.attribute(1), &p, tl);
        assert!(e.valid);
        assert!((e.violation - 5.0).abs() < 1e-9, "only 'gone' violates: {e:?}");
        let rendered = e.render(&d);
        assert!(rendered.contains("VALID"));
        assert!(rendered.contains("headroom"));
    }

    /// The union of the violated intervals is exactly the set of
    /// timestamps the per-timestamp definition violates; each interval's
    /// weight is the sum of its w(t), and every missing value is missing at
    /// every timestamp of its interval.
    #[test]
    fn explanation_matches_the_per_timestamp_oracle() {
        let (d, tl) = kernel_fixture();
        for q in (0..2u32).map(|id| d.attribute(id)) {
            for a in (2..6u32).map(|id| d.attribute(id)) {
                for delta in [0u32, 1, 2, 5, 10, 40] {
                    for w in weight_families(tl) {
                        let unit = w == WeightFn::constant_one();
                        let p = TindParams::weighted(3.0, delta, w);
                        let ctx = format!("{}⊆{} δ={delta} {:?}", q.name(), a.name(), p.weights);
                        let e = explain(q, a, &p, tl);
                        let violated: Vec<Timestamp> = e
                            .violated
                            .iter()
                            .flat_map(|v| v.interval.start..=v.interval.end)
                            .collect();
                        let oracle: Vec<Timestamp> =
                            tl.iter().filter(|&t| !delta_contained_at(q, a, t, delta, tl)).collect();
                        assert_eq!(violated, oracle, "{ctx}");
                        for v in &e.violated {
                            let days = v.interval.start..=v.interval.end;
                            let sum: f64 = days.clone().map(|t| p.weights.weight(t)).sum();
                            assert!((v.weight - sum).abs() < 1e-9, "{ctx}: {v:?} vs Σw = {sum}");
                            assert!(!v.missing_values.is_empty(), "{ctx}: {v:?}");
                            for t in days {
                                let window = a.values_in(tl.delta_window(t, delta));
                                for m in &v.missing_values {
                                    assert!(q.values_at(t).contains(m), "{ctx}: {m} not in Q[{t}]");
                                    assert!(window.binary_search(m).is_err(), "{ctx}: {m} in A's window at {t}");
                                }
                            }
                        }
                        let naive = naive_violation_weight(q, a, &p, tl);
                        if unit {
                            assert_eq!(e.violation, naive, "{ctx}: w(t) = 1 sums exact integers");
                        }
                        assert!((e.violation - naive).abs() < 1e-9, "{ctx}");
                        assert_eq!(e.valid, naive_validate(q, a, &p, tl), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn perfect_pair_has_no_violations() {
        let (d, tl) = dataset();
        let e = explain(d.attribute(1), d.attribute(1), &TindParams::strict(), tl);
        assert!(e.valid);
        assert!(e.violated.is_empty());
        assert!(e.render(&d).contains("no violated intervals"));
    }
}
