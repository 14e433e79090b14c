//! Orchestrates full dataset generation.

use tind_model::rng::Rng;
use tind_model::{Dataset, DatasetBuilder, Timeline};

use crate::config::GeneratorConfig;
use crate::derived::{simulate_derived, Dirtiness};
use crate::domains::DomainPool;
use crate::noise::{build_noise_pool, simulate_noise};
use crate::source::{simulate_source, SourceSim};
use crate::truth::{AttrKind, GroundTruth};

/// A generated dataset together with its ground-truth labels.
#[derive(Debug)]
pub struct GeneratedDataset {
    /// The attribute histories (sources first, then derived, then noise).
    pub dataset: Dataset,
    /// Which pairs are genuine and what role each attribute plays.
    pub truth: GroundTruth,
}

/// Generates a dataset according to `config`; fully deterministic given
/// `config.seed`.
///
/// # Examples
///
/// ```
/// use tind_datagen::{generate, GeneratorConfig};
///
/// let generated = generate(&GeneratorConfig::small(50, 7));
/// assert!(generated.dataset.len() >= 45);
/// // Every planted genuine pair references real attributes.
/// for &(lhs, rhs) in generated.truth.genuine_pairs() {
///     assert!(generated.dataset.attribute(lhs).name().starts_with("derived"));
///     assert!(generated.dataset.attribute(rhs).name().starts_with("source"));
/// }
/// ```
pub fn generate(config: &GeneratorConfig) -> GeneratedDataset {
    config.validate();
    let mut rng = Rng::seed_from_u64(config.seed);
    let timeline = Timeline::new(config.timeline_days);
    let mut builder = DatasetBuilder::new(timeline);
    let pool = DomainPool::generate(
        builder.dictionary_mut(),
        config.num_domains,
        config.entities_per_domain,
        config.zipf_exponent,
    );

    let mut kinds: Vec<AttrKind> = Vec::with_capacity(config.total_attributes());

    // Sources.
    let sources: Vec<SourceSim> = (0..config.num_sources)
        .map(|_| simulate_source(&pool, config, &mut rng))
        .collect();
    for (i, s) in sources.iter().enumerate() {
        builder.add_history(s.into_history(&format!("source-{i}")));
        kinds.push(AttrKind::Source);
    }

    // Derived: spread round-robin over sources so every source gets some.
    for i in 0..config.num_derived {
        let source_idx = i % sources.len();
        let dirty = rng.f64() < config.dirty_fraction;
        let dirtiness = if dirty { Dirtiness::Dirty } else { Dirtiness::Clean };
        let renamed = rng.f64() < config.rename_fraction;
        let name = format!("derived-{i}-of-{source_idx}");
        let rename_value = renamed
            .then(|| builder.dictionary_mut().intern(&format!("renamed-entity:{name}")));
        let h = simulate_derived(
            &sources[source_idx],
            &pool,
            config,
            dirtiness,
            rename_value,
            &name,
            &mut rng,
        );
        builder.add_history(h);
        kinds.push(AttrKind::Derived { source: source_idx as u32, dirty, renamed });
    }

    // Noise: a mix of stable tiny sets, churning small sets, and large
    // core-covering sets so the latest snapshot carries realistic chance
    // containments (some persistent, most transient). Noise is organized
    // in *communities*, each with its own shared pool, so chance
    // containments — and thus spurious static INDs — scale linearly with
    // the dataset.
    let num_communities = config.num_noise.div_ceil(config.noise_community_size).max(1);
    let community_pools: Vec<Vec<tind_model::ValueId>> = (0..num_communities)
        .map(|c| {
            // Each community draws from a few domains of its own; overlap
            // between communities only arises through shared domains.
            let first = c * 3 % config.num_domains;
            let domains: Vec<usize> =
                (0..3.min(config.num_domains)).map(|k| (first + k) % config.num_domains).collect();
            build_noise_pool(&pool, config, &domains, &mut rng)
        })
        .collect();
    for i in 0..config.num_noise {
        let roll = rng.f64();
        let flavor = if roll < config.stable_noise_fraction {
            crate::noise::NoiseFlavor::StableSmall
        } else if roll < config.stable_noise_fraction + config.small_noise_fraction {
            crate::noise::NoiseFlavor::Small
        } else {
            crate::noise::NoiseFlavor::Large
        };
        let community = i % num_communities;
        let h = simulate_noise(
            &community_pools[community],
            config,
            flavor,
            &format!("noise-{i}-c{community}"),
            &mut rng,
        );
        builder.add_history(h);
        kinds.push(AttrKind::Noise);
    }

    GeneratedDataset { dataset: builder.build(), truth: GroundTruth::from_kinds(kinds) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_model::stats::DatasetStats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::small(60, 99);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.dataset.len(), b.dataset.len());
        for (id, h) in a.dataset.iter() {
            let h2 = b.dataset.attribute(id);
            assert_eq!(h.versions(), h2.versions(), "attribute {id} differs");
        }
        assert_eq!(a.truth.genuine_pairs(), b.truth.genuine_pairs());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::small(40, 1));
        let b = generate(&GeneratorConfig::small(40, 2));
        let same = a
            .dataset
            .iter()
            .zip(b.dataset.iter())
            .filter(|((_, x), (_, y))| x.versions() == y.versions())
            .count();
        assert!(same < a.dataset.len() / 2, "seeds produced near-identical data");
    }

    #[test]
    fn statistics_respect_paper_filters() {
        let g = generate(&GeneratorConfig::small(120, 7));
        let stats = DatasetStats::compute(&g.dataset);
        assert_eq!(stats.num_attributes, g.truth.len());
        for (_, h) in g.dataset.iter() {
            assert!(h.versions().len() >= 5, "'{}' has {} versions", h.name(), h.versions().len());
            assert!(h.median_cardinality() >= 5);
        }
        // Calibration sanity: changes in a plausible band around 13.
        assert!(stats.mean_changes > 6.0 && stats.mean_changes < 25.0, "{}", stats.mean_changes);
    }

    #[test]
    fn paper_shaped_statistics_are_calibrated() {
        let g = generate(&GeneratorConfig::paper_shaped(400, 5));
        let stats = DatasetStats::compute(&g.dataset);
        assert!(
            (stats.mean_changes - 13.0).abs() < 5.0,
            "mean changes {} too far from 13",
            stats.mean_changes
        );
        // Lifespans: exponential(2045) truncated by timeline and birth.
        assert!(
            stats.mean_lifespan > 700.0 && stats.mean_lifespan < 3000.0,
            "mean lifespan {}",
            stats.mean_lifespan
        );
        assert!(
            stats.mean_version_cardinality > 10.0 && stats.mean_version_cardinality < 80.0,
            "mean cardinality {}",
            stats.mean_version_cardinality
        );
    }

    #[test]
    fn planted_pairs_validate_at_generous_params() {
        use tind_core::validate::validate;
        use tind_core::TindParams;
        use tind_model::WeightFn;
        let cfg = GeneratorConfig::small(80, 123);
        let g = generate(&cfg);
        let tl = g.dataset.timeline();
        let generous = TindParams::weighted(
            200.0,
            cfg.dirty_delay_max,
            WeightFn::constant_one(),
        );
        for &(lhs, rhs) in g.truth.genuine_pairs() {
            // Renamed pairs are genuine but *deliberately* undiscoverable
            // without σ-partial containment (§3.3).
            if matches!(g.truth.kind(lhs), AttrKind::Derived { renamed: true, .. }) {
                continue;
            }
            assert!(
                validate(g.dataset.attribute(lhs), g.dataset.attribute(rhs), &generous, tl),
                "planted pair ({lhs}, {rhs}) fails even at generous params"
            );
        }
    }

    #[test]
    fn clean_planted_pairs_mostly_validate_at_paper_defaults() {
        use tind_core::validate::validate;
        use tind_core::TindParams;
        let cfg = GeneratorConfig::small(80, 321);
        let g = generate(&cfg);
        let tl = g.dataset.timeline();
        let p = TindParams::paper_default();
        let clean: Vec<u32> = g
            .truth
            .ids_where(|k| matches!(k, AttrKind::Derived { dirty: false, renamed: false, .. }));
        let valid = clean
            .iter()
            .filter(|&&id| {
                let AttrKind::Derived { source, .. } = g.truth.kind(id) else { unreachable!() };
                validate(g.dataset.attribute(id), g.dataset.attribute(source), &p, tl)
            })
            .count();
        assert!(
            valid * 10 >= clean.len() * 6,
            "only {valid}/{} clean pairs validate at paper defaults",
            clean.len()
        );
    }
}
