//! Precision-recall analysis of genuine-IND discovery (Figure 15).
//!
//! Methodology, following §5.5: the labelled universe is the set of
//! **static INDs discovered on the latest snapshot** (the paper annotated
//! a bucket-stratified sample of 900 of them by hand; we label via the
//! generator's ground truth). Every tIND variant then classifies each
//! labelled IND as discovered (it validates as a tIND under the setting)
//! or not:
//!
//! * precision — genuine fraction of the discovered subset,
//! * recall — discovered fraction of the genuine labelled INDs.
//!
//! Static discovery itself is the point (precision = genuine share of the
//! universe, recall = 1). A variant family's curve is the Pareto frontier
//! over its parameter grid. Violation weights per (δ, weight-function)
//! combination are computed once per pair and thresholded per ε.

use std::sync::Arc;

use tind_baseline::ManyIndex;
use tind_core::params::EPS_TOLERANCE;
use tind_core::validate::violation_weight;
use tind_core::TindParams;
use tind_datagen::{GeneratedDataset, GroundTruth};
use tind_model::{AttrId, WeightFn};

/// The parameter grid swept per variant family.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// ε values in days (constant weights) / absolute budget (decay).
    pub eps_values: Vec<f64>,
    /// δ values in days.
    pub deltas: Vec<u32>,
    /// Exponential decay bases `a` (all in (0,1)).
    pub decay_bases: Vec<f64>,
}

impl GridSpec {
    /// A compact default grid.
    pub fn default_grid() -> Self {
        GridSpec {
            eps_values: vec![0.0, 1.0, 3.0, 7.0, 15.0, 39.0],
            deltas: vec![0, 1, 7, 31],
            decay_bases: vec![0.999, 0.9999],
        }
    }
}

/// One (precision, recall) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PrPoint {
    /// Fraction of discovered INDs that are genuine.
    pub precision: f64,
    /// Fraction of genuine INDs discovered.
    pub recall: f64,
    /// The parameter setting that produced the point.
    pub label: String,
}

/// A variant family's Pareto-frontier curve.
#[derive(Debug, Clone)]
pub struct FamilyCurve {
    /// Family name: `static`, `strict`, `eps`, `eps-delta`, `weighted`.
    pub family: &'static str,
    /// Frontier points, ascending in recall.
    pub points: Vec<PrPoint>,
}

/// Precision/recall of a discovered pair set against full ground truth.
pub fn precision_recall(discovered: &[(AttrId, AttrId)], truth: &GroundTruth) -> (f64, f64) {
    let genuine_total = truth.genuine_pairs().len();
    if discovered.is_empty() {
        return (1.0, 0.0); // vacuous precision, zero recall
    }
    let tp = discovered.iter().filter(|&&(l, r)| truth.is_genuine(l, r)).count();
    let precision = tp as f64 / discovered.len() as f64;
    let recall = if genuine_total == 0 { 0.0 } else { tp as f64 / genuine_total as f64 };
    (precision, recall)
}

/// Reduces points to their Pareto frontier (max precision per recall
/// level), ascending in recall.
pub fn pareto_frontier(mut points: Vec<PrPoint>) -> Vec<PrPoint> {
    points.sort_by(|a, b| {
        b.recall
            .partial_cmp(&a.recall)
            .expect("finite recalls")
            .then(b.precision.partial_cmp(&a.precision).expect("finite precisions"))
    });
    let mut frontier: Vec<PrPoint> = Vec::new();
    let mut best_precision = f64::NEG_INFINITY;
    for p in points {
        if p.precision > best_precision {
            best_precision = p.precision;
            frontier.push(p);
        }
    }
    frontier.reverse();
    frontier
}

/// The labelled evaluation universe: static INDs on the latest snapshot
/// with ground-truth genuineness labels.
#[derive(Debug, Clone)]
pub struct LabelledUniverse {
    /// The labelled pairs.
    pub pairs: Vec<(AttrId, AttrId)>,
    /// Per-pair genuineness.
    pub genuine: Vec<bool>,
    /// Number of genuine pairs.
    pub genuine_count: usize,
}

impl LabelledUniverse {
    /// Discovers static INDs at the latest snapshot and labels them.
    pub fn build(generated: &GeneratedDataset, bloom_m: u32) -> Self {
        let dataset = Arc::new(generated.dataset.clone());
        let pairs = ManyIndex::build_latest(dataset, bloom_m, 2).all_pairs();
        let genuine: Vec<bool> =
            pairs.iter().map(|&(l, r)| generated.truth.is_genuine(l, r)).collect();
        let genuine_count = genuine.iter().filter(|&&g| g).count();
        LabelledUniverse { pairs, genuine, genuine_count }
    }

    /// Number of labelled pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Precision/recall of a predicate over the universe.
    pub fn score(&self, discovered: &[bool]) -> (f64, f64) {
        assert_eq!(discovered.len(), self.len());
        let found = discovered.iter().filter(|&&d| d).count();
        let tp = discovered.iter().zip(&self.genuine).filter(|&(&d, &g)| d && g).count();
        let precision = if found == 0 { 1.0 } else { tp as f64 / found as f64 };
        let recall =
            if self.genuine_count == 0 { 0.0 } else { tp as f64 / self.genuine_count as f64 };
        (precision, recall)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum WeightKind {
    Constant,
    Decay(f64),
}

/// Evaluates all tIND variant families over the grid against the labelled
/// universe. Returns the curves plus the universe itself (for reporting).
pub fn evaluate_families(
    generated: &GeneratedDataset,
    grid: &GridSpec,
) -> (Vec<FamilyCurve>, LabelledUniverse) {
    assert!(!grid.eps_values.is_empty() && !grid.deltas.is_empty());
    let universe = LabelledUniverse::build(generated, 4096);
    let dataset = &generated.dataset;
    let timeline = dataset.timeline();

    // Violation weights per (δ, weight-kind) combination, one per pair.
    let mut combos: Vec<(u32, WeightKind)> = Vec::new();
    for &d in &grid.deltas {
        combos.push((d, WeightKind::Constant));
        for &a in &grid.decay_bases {
            combos.push((d, WeightKind::Decay(a)));
        }
    }
    let weights_per_combo: Vec<Vec<f64>> = combos
        .iter()
        .map(|&(delta, kind)| {
            let wf = match kind {
                WeightKind::Constant => WeightFn::constant_one(),
                WeightKind::Decay(a) => WeightFn::exponential(a, timeline),
            };
            // ε is irrelevant here: weights are computed exactly and
            // thresholded later per grid cell.
            let params = TindParams::weighted(1e18, delta, wf);
            universe
                .pairs
                .iter()
                .map(|&(l, r)| {
                    violation_weight(dataset.attribute(l), dataset.attribute(r), &params, timeline)
                })
                .collect()
        })
        .collect();

    let score_at = |delta: u32, kind: WeightKind, eps: f64| -> (f64, f64) {
        let idx = combos.iter().position(|&(d, k)| d == delta && k == kind).expect("combo");
        let discovered: Vec<bool> =
            weights_per_combo[idx].iter().map(|&w| w <= eps + EPS_TOLERANCE).collect();
        universe.score(&discovered)
    };

    let mut curves = Vec::new();

    // Static INDs: the whole universe (recall 1 by construction).
    let static_precision = if universe.is_empty() {
        1.0
    } else {
        universe.genuine_count as f64 / universe.len() as f64
    };
    curves.push(FamilyCurve {
        family: "static",
        points: vec![PrPoint {
            precision: static_precision,
            recall: if universe.genuine_count > 0 { 1.0 } else { 0.0 },
            label: "latest snapshot".into(),
        }],
    });

    // Strict tINDs.
    let (p, r) = score_at(0, WeightKind::Constant, 0.0);
    curves.push(FamilyCurve {
        family: "strict",
        points: vec![PrPoint { precision: p, recall: r, label: "ε=0 δ=0".into() }],
    });

    // ε-relaxed (δ = 0, constant weights).
    let mut eps_points = Vec::new();
    for &eps in &grid.eps_values {
        let (p, r) = score_at(0, WeightKind::Constant, eps);
        eps_points.push(PrPoint { precision: p, recall: r, label: format!("ε={eps}") });
    }
    curves.push(FamilyCurve { family: "eps", points: pareto_frontier(eps_points) });

    // ε,δ-relaxed (constant weights).
    let mut ed_points = Vec::new();
    for &delta in &grid.deltas {
        for &eps in &grid.eps_values {
            let (p, r) = score_at(delta, WeightKind::Constant, eps);
            ed_points.push(PrPoint { precision: p, recall: r, label: format!("ε={eps} δ={delta}") });
        }
    }
    curves.push(FamilyCurve { family: "eps-delta", points: pareto_frontier(ed_points) });

    // wεδ: decay bases plus the constant limit (the paper treats wεδ as the
    // generalization of all previous variants).
    let mut w_points = Vec::new();
    for &(delta, kind) in &combos {
        for &eps in &grid.eps_values {
            let (p, r) = score_at(delta, kind, eps);
            let label = match kind {
                WeightKind::Constant => format!("ε={eps} δ={delta} w=const"),
                WeightKind::Decay(a) => format!("ε={eps} δ={delta} a={a}"),
            };
            w_points.push(PrPoint { precision: p, recall: r, label });
        }
    }
    curves.push(FamilyCurve { family: "weighted", points: pareto_frontier(w_points) });

    (curves, universe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_datagen::GeneratorConfig;

    #[test]
    fn precision_recall_basics() {
        let truth = GroundTruth::from_kinds(vec![
            tind_datagen::AttrKind::Source,
            tind_datagen::AttrKind::Derived { source: 0, dirty: false, renamed: false },
            tind_datagen::AttrKind::Noise,
        ]);
        // One genuine pair: (1, 0).
        let (p, r) = precision_recall(&[(1, 0), (2, 0)], &truth);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 1.0).abs() < 1e-12);
        let (p, r) = precision_recall(&[], &truth);
        assert_eq!((p, r), (1.0, 0.0));
    }

    #[test]
    fn pareto_frontier_removes_dominated_points() {
        let pts = vec![
            PrPoint { precision: 0.9, recall: 0.1, label: "a".into() },
            PrPoint { precision: 0.5, recall: 0.5, label: "b".into() },
            PrPoint { precision: 0.4, recall: 0.4, label: "dominated".into() },
            PrPoint { precision: 0.2, recall: 0.9, label: "c".into() },
        ];
        let f = pareto_frontier(pts);
        let labels: Vec<&str> = f.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
        assert!(f.windows(2).all(|w| w[0].recall <= w[1].recall));
        assert!(f.windows(2).all(|w| w[0].precision >= w[1].precision));
    }

    #[test]
    fn universe_scoring() {
        let u = LabelledUniverse {
            pairs: vec![(0, 1), (0, 2), (1, 2), (3, 4)],
            genuine: vec![true, false, true, false],
            genuine_count: 2,
        };
        let (p, r) = u.score(&[true, true, false, false]);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
        let (p, r) = u.score(&[false, false, false, false]);
        assert_eq!((p, r), (1.0, 0.0));
    }

    #[test]
    fn families_show_the_paper_ordering() {
        let g = tind_datagen::generate(&GeneratorConfig::small(160, 2024));
        let grid = GridSpec {
            eps_values: vec![0.0, 3.0, 15.0],
            deltas: vec![0, 7],
            decay_bases: vec![0.995],
        };
        let (curves, universe) = evaluate_families(&g, &grid);
        assert!(!universe.is_empty(), "static discovery must find labelled INDs");
        let best_recall = |fam: &str| -> f64 {
            curves
                .iter()
                .find(|c| c.family == fam)
                .expect("family present")
                .points
                .iter()
                .map(|p| p.recall)
                .fold(0.0, f64::max)
        };
        // Relaxation helps recall: strict ≤ ε ≤ εδ ≤ weighted ≤ static(=1).
        assert!(best_recall("strict") <= best_recall("eps") + 1e-12);
        assert!(best_recall("eps") <= best_recall("eps-delta") + 1e-12);
        assert!(best_recall("eps-delta") <= best_recall("weighted") + 1e-12);
        assert!((best_recall("static") - 1.0).abs() < 1e-12 || universe.genuine_count == 0);
    }

    #[test]
    fn static_precision_is_low_on_noisy_data() {
        // The generator's noise must make the latest-snapshot static INDs
        // mostly spurious (the paper measures 11%).
        let g = tind_datagen::generate(&GeneratorConfig::small(400, 7));
        let universe = LabelledUniverse::build(&g, 2048);
        assert!(universe.len() > 50, "universe too small: {}", universe.len());
        let precision = universe.genuine_count as f64 / universe.len() as f64;
        assert!(
            precision < 0.5,
            "static precision {precision} too high — noise not spurious enough"
        );
    }
}
