//! Shared workload construction for the experiments.

use std::sync::Arc;

use tind_model::rng::Rng;
use tind_datagen::{generate, GeneratedDataset, GeneratorConfig};
use tind_model::AttrId;

use crate::context::ExpContext;

/// Generates the paper-shaped dataset for an experiment context, with
/// `num_attributes` attributes (defaults to the scale's size when `None`).
pub fn build_dataset(ctx: &ExpContext, num_attributes: Option<usize>) -> GeneratedDataset {
    let n = num_attributes.unwrap_or_else(|| ctx.num_attributes());
    let mut cfg = GeneratorConfig::paper_shaped(n, ctx.seed);
    cfg.timeline_days = ctx.scale.timeline_days();
    // Lifespans cannot exceed the scaled timeline.
    cfg.mean_lifespan_days = cfg.mean_lifespan_days.min(f64::from(cfg.timeline_days) * 0.4);
    generate(&cfg)
}

/// Samples `count` distinct query attribute ids (or all ids if fewer).
pub fn sample_queries(num_attributes: usize, count: usize, seed: u64) -> Vec<AttrId> {
    let mut rng = Rng::seed_from_u64(seed);
    if count >= num_attributes {
        return (0..num_attributes as AttrId).collect();
    }
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < count {
        chosen.insert(rng.range(0..num_attributes as AttrId));
    }
    chosen.into_iter().collect()
}

/// Wraps a generated dataset in the `Arc` the index requires.
pub fn dataset_arc(generated: &GeneratedDataset) -> Arc<tind_model::Dataset> {
    Arc::new(generated.dataset.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn build_dataset_honors_scale_and_override() {
        let ctx = ExpContext::at_scale(Scale::Quick);
        let g = build_dataset(&ctx, Some(120));
        assert!((115..=120).contains(&g.dataset.len()), "got {}", g.dataset.len());
        assert_eq!(g.dataset.timeline().len(), Scale::Quick.timeline_days());
    }

    #[test]
    fn sample_queries_distinct_and_bounded() {
        let q = sample_queries(1000, 50, 7);
        assert_eq!(q.len(), 50);
        assert!(q.windows(2).all(|w| w[0] < w[1]));
        assert!(q.iter().all(|&id| id < 1000));
        // Requesting more than available returns everything.
        let all = sample_queries(10, 50, 7);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn sampling_is_deterministic() {
        assert_eq!(sample_queries(500, 20, 3), sample_queries(500, 20, 3));
        assert_ne!(sample_queries(500, 20, 3), sample_queries(500, 20, 4));
    }
}
