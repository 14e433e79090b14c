//! Noise attributes — the breeding ground for spurious INDs.
//!
//! Noise attributes draw value sets from a shared, popularity-skewed pool
//! and come in three flavors mirroring real open-data tables:
//!
//! * **Small** — a handful of very popular *core* values (country columns,
//!   status columns, ...). At a snapshot these are frequently contained in
//!   larger attributes by pure chance; their churn breaks the containments
//!   over time, so temporal discovery filters them (§5.5's 89% spurious
//!   static INDs).
//! * **Large** — a broad subset of the core plus a tail; the right-hand
//!   sides of the chance containments. A few *stable-core* values, once
//!   adopted, are kept permanently.
//! * **StableSmall** — tiny sets living entirely inside the stable core
//!   with subset-preserving toggle churn. Their containments persist
//!   across all of time while still being coincidental — the spurious INDs
//!   that even strict tIND discovery reports (why the paper's strict
//!   precision is only 25%, not 100%).

use tind_model::rng::Rng;
use tind_model::{HistoryBuilder, Timestamp, ValueId};

use crate::config::GeneratorConfig;
use crate::domains::{exponential, poisson, DomainPool};
use crate::source::sample_change_days;

/// Which kind of noise attribute to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseFlavor {
    /// Tiny, temporally persistent stable-core set.
    StableSmall,
    /// Small, churning core set.
    Small,
    /// Large core-covering set with a permanent stable-core subset.
    Large,
}

/// Builds one community's popular-value pool: Zipf-weighted picks from the
/// community's `domains`, so noise overlaps the source/derived attributes
/// of those domains (and noise of *other* communities only where domains
/// are shared). The first [`GeneratorConfig::stable_core_size`] entries
/// play the role of the stable core.
pub fn build_noise_pool(
    pool: &DomainPool,
    cfg: &GeneratorConfig,
    domains: &[usize],
    rng: &mut Rng,
) -> Vec<ValueId> {
    assert!(!domains.is_empty(), "community needs at least one domain");
    let mut values = std::collections::BTreeSet::new();
    let mut attempts = 0;
    while values.len() < cfg.noise_pool_size && attempts < cfg.noise_pool_size * 30 {
        let d = domains[rng.range(0..domains.len())];
        values.insert(pool.sample_entity(d, rng));
        attempts += 1;
    }
    values.into_iter().collect()
}

/// Samples a value from a slice with Zipf skew over positions: popular
/// entries recur across many noise attributes, which is what produces the
/// chance containments behind spurious static INDs.
fn sample_skewed(values: &[ValueId], exponent: f64, rng: &mut Rng) -> ValueId {
    // Inverse-CDF approximation of a Zipf-like skew: u^(1+s) concentrates
    // mass near index 0; exact Zipf is unnecessary for workload shaping.
    let u = rng.f64();
    let idx = ((values.len() as f64) * u.powf(1.0 + exponent)) as usize;
    values[idx.min(values.len() - 1)]
}

/// Samples birth/death honoring the survivor fraction.
fn life(cfg: &GeneratorConfig, rng: &mut Rng) -> (Timestamp, Timestamp) {
    let n = cfg.timeline_days;
    let birth = rng.range(0..n.saturating_sub(60).max(1));
    let death = if rng.f64() < cfg.survivor_fraction {
        n - 1
    } else {
        let lifespan = exponential(cfg.mean_lifespan_days, rng).max(60.0) as u32;
        birth.saturating_add(lifespan).min(n - 1)
    };
    (birth, death)
}

/// Simulates one noise attribute over the shared pool.
pub fn simulate_noise(
    noise_pool: &[ValueId],
    cfg: &GeneratorConfig,
    flavor: NoiseFlavor,
    name: &str,
    rng: &mut Rng,
) -> tind_model::AttributeHistory {
    match flavor {
        NoiseFlavor::StableSmall => simulate_stable_small(noise_pool, cfg, name, rng),
        NoiseFlavor::Small => simulate_churning(noise_pool, cfg, true, name, rng),
        NoiseFlavor::Large => simulate_churning(noise_pool, cfg, false, name, rng),
    }
}

/// Stable-core-only attribute with toggle churn: remove an owned value,
/// re-add it at the next change. Its value universe never grows, so any
/// containment it enjoys persists through all of time.
fn simulate_stable_small(
    noise_pool: &[ValueId],
    cfg: &GeneratorConfig,
    name: &str,
    rng: &mut Rng,
) -> tind_model::AttributeHistory {
    let (birth, death) = life(cfg, rng);
    let stable_core = &noise_pool[..cfg.stable_core_size.min(noise_pool.len())];
    // Cardinality ≥ 6 so the toggled-down versions still pass the
    // median-cardinality ≥ 5 filter.
    let card = rng.range(6..=8).min(stable_core.len());
    let mut owned = std::collections::BTreeSet::new();
    let mut guard = 0;
    while owned.len() < card && guard < card * 50 {
        owned.insert(sample_skewed(stable_core, cfg.noise_zipf_exponent, rng));
        guard += 1;
    }
    for &v in stable_core {
        if owned.len() >= card {
            break;
        }
        owned.insert(v);
    }

    let change_count = poisson(cfg.mean_changes * cfg.noise_change_factor, rng).max(4);
    let days = sample_change_days(birth, death, change_count, rng);
    let mut b = HistoryBuilder::new(name);
    b.push(birth, owned.iter().copied().collect());
    let mut removed: Option<ValueId> = None;
    for t in days {
        match removed.take() {
            Some(v) => {
                owned.insert(v);
            }
            None => {
                let idx = rng.range(0..owned.len());
                let v = *owned.iter().nth(idx).expect("non-empty");
                owned.remove(&v);
                removed = Some(v);
            }
        }
        b.push(t, owned.iter().copied().collect());
    }
    b.finish(death)
}

/// Small (core) or large (core + tail, with a permanent stable subset)
/// churning attribute.
fn simulate_churning(
    noise_pool: &[ValueId],
    cfg: &GeneratorConfig,
    small: bool,
    name: &str,
    rng: &mut Rng,
) -> tind_model::AttributeHistory {
    let (birth, death) = life(cfg, rng);
    let zipf = cfg.noise_zipf_exponent;
    let core = &noise_pool[..cfg.noise_core_size.min(noise_pool.len())];
    let stable_core = &noise_pool[..cfg.stable_core_size.min(noise_pool.len())];

    let mut permanent = std::collections::BTreeSet::new();
    let mut current: std::collections::BTreeSet<ValueId> = std::collections::BTreeSet::new();
    if small {
        let card = rng
            .range(cfg.noise_cardinality.0..=(cfg.noise_cardinality.0 + 4))
            .min(core.len());
        let mut guard = 0;
        while current.len() < card && guard < card * 50 {
            current.insert(sample_skewed(core, zipf, rng));
            guard += 1;
        }
        for &v in core.iter() {
            if current.len() >= card {
                break;
            }
            current.insert(v);
        }
    } else {
        // Permanently kept stable-core values.
        for &v in stable_core {
            if rng.f64() < cfg.stable_keep_prob {
                permanent.insert(v);
                current.insert(v);
            }
        }
        for &v in core {
            if rng.f64() < cfg.core_inclusion_prob {
                current.insert(v);
            }
        }
        let target = rng
            .range(
                (cfg.noise_cardinality.0 + cfg.noise_cardinality.1) / 2..=cfg.noise_cardinality.1,
            )
            .max(current.len());
        let mut guard = 0;
        while current.len() < target.min(noise_pool.len()) && guard < target * 50 {
            current.insert(sample_skewed(noise_pool, 0.2, rng));
            guard += 1;
        }
    }

    let change_count = poisson(cfg.mean_changes * cfg.noise_change_factor, rng).max(4);
    let days = sample_change_days(birth, death, change_count, rng);

    let mut b = HistoryBuilder::new(name);
    b.push(birth, current.iter().copied().collect());
    let replacement_pool = if small { core } else { noise_pool };
    // A removable (non-permanent) member, if any.
    let pick_removable = |current: &std::collections::BTreeSet<ValueId>,
                          permanent: &std::collections::BTreeSet<ValueId>,
                          rng: &mut Rng| {
        let removable: Vec<ValueId> =
            current.iter().copied().filter(|v| !permanent.contains(v)).collect();
        if removable.is_empty() {
            None
        } else {
            Some(removable[rng.range(0..removable.len())])
        }
    };
    // Inserts a value that is genuinely new (bounded resampling), so every
    // change produces a distinct version and the ≥5-version filter holds.
    let insert_fresh = |current: &mut std::collections::BTreeSet<ValueId>, rng: &mut Rng| {
        for _ in 0..64 {
            if current.insert(sample_skewed(replacement_pool, zipf, rng)) {
                return true;
            }
        }
        replacement_pool.iter().any(|&v| current.insert(v))
    };
    for t in days {
        // Random churn: replace, add, or remove a value (never a permanent
        // one).
        let roll = rng.f64();
        if roll < 0.5 && current.len() > cfg.noise_cardinality.0 {
            // Replace: removal alone already changes the set; the insert
            // keeps cardinality stable. Re-inserting the removed value
            // would be a no-op change, so it is excluded.
            if let Some(v) = pick_removable(&current, &permanent, rng) {
                current.remove(&v);
                for _ in 0..64 {
                    let w = sample_skewed(replacement_pool, zipf, rng);
                    if w != v && current.insert(w) {
                        break;
                    }
                }
            } else {
                insert_fresh(&mut current, rng);
            }
        } else if roll < 0.8 {
            if !insert_fresh(&mut current, rng) {
                if let Some(v) = pick_removable(&current, &permanent, rng) {
                    current.remove(&v);
                }
            }
        } else if current.len() > cfg.noise_cardinality.0 {
            if let Some(v) = pick_removable(&current, &permanent, rng) {
                current.remove(&v);
            } else {
                insert_fresh(&mut current, rng);
            }
        } else {
            insert_fresh(&mut current, rng);
        }
        b.push(t, current.iter().copied().collect());
    }
    b.finish(death)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(seed: u64) -> (Vec<ValueId>, GeneratorConfig, Rng) {
        let mut dict = tind_model::Dictionary::new();
        let cfg = GeneratorConfig::small(50, seed);
        let pool = DomainPool::generate(
            &mut dict,
            cfg.num_domains,
            cfg.entities_per_domain,
            cfg.zipf_exponent,
        );
        let mut rng = Rng::seed_from_u64(seed);
        let noise_pool = build_noise_pool(&pool, &cfg, &[0, 1], &mut rng);
        (noise_pool, cfg, rng)
    }

    #[test]
    fn noise_pool_has_requested_size() {
        let (pool, cfg, _) = setup(3);
        assert!(pool.len() >= cfg.noise_pool_size * 9 / 10, "pool {} too small", pool.len());
        assert!(pool.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn noise_attributes_stay_within_pool_and_bounds() {
        let (pool, cfg, mut rng) = setup(5);
        for (i, flavor) in [NoiseFlavor::Small, NoiseFlavor::Large, NoiseFlavor::StableSmall]
            .into_iter()
            .cycle()
            .take(21)
            .enumerate()
        {
            let h = simulate_noise(&pool, &cfg, flavor, &format!("n{i}"), &mut rng);
            assert!(h.versions().len() >= 5, "{flavor:?} has {} versions", h.versions().len());
            assert!(h.median_cardinality() >= 5, "{flavor:?} median too small");
            for v in h.value_universe() {
                assert!(pool.binary_search(&v).is_ok(), "value outside pool");
            }
            assert!(h.last_observed() < cfg.timeline_days);
        }
    }

    #[test]
    fn small_noise_stays_in_core() {
        let (pool, cfg, mut rng) = setup(9);
        let core: Vec<ValueId> = pool[..cfg.noise_core_size].to_vec();
        for i in 0..10 {
            let h = simulate_noise(&pool, &cfg, NoiseFlavor::Small, &format!("s{i}"), &mut rng);
            for v in h.value_universe() {
                assert!(core.binary_search(&v).is_ok(), "small noise left the core");
            }
            assert!(h.versions()[0].values.len() <= cfg.noise_cardinality.0 + 4);
        }
    }

    #[test]
    fn large_noise_covers_much_of_the_core() {
        let (pool, cfg, mut rng) = setup(13);
        let core: Vec<ValueId> = pool[..cfg.noise_core_size].to_vec();
        let mut coverage = 0usize;
        let trials = 10;
        for i in 0..trials {
            let h = simulate_noise(&pool, &cfg, NoiseFlavor::Large, &format!("l{i}"), &mut rng);
            let first = &h.versions()[0].values;
            coverage += core.iter().filter(|v| first.binary_search(v).is_ok()).count();
        }
        let mean_cov = coverage as f64 / (trials as f64 * core.len() as f64);
        assert!(
            mean_cov > cfg.core_inclusion_prob - 0.15,
            "core coverage {mean_cov} too low vs {}",
            cfg.core_inclusion_prob
        );
    }

    #[test]
    fn large_noise_keeps_permanent_stable_values() {
        let (pool, cfg, mut rng) = setup(17);
        let stable: Vec<ValueId> = pool[..cfg.stable_core_size].to_vec();
        for i in 0..10 {
            let h = simulate_noise(&pool, &cfg, NoiseFlavor::Large, &format!("l{i}"), &mut rng);
            let first: Vec<ValueId> =
                h.versions()[0].values.iter().copied().filter(|v| stable.binary_search(v).is_ok()).collect();
            // Wait until the attribute settles: every initially-held stable
            // value must still be present in the final version... unless it
            // was a non-permanent core pick. We can only assert the weaker
            // property that *most* initial stable values survive.
            let last = h.values_at(h.last_observed());
            let surviving = first.iter().filter(|v| last.binary_search(v).is_ok()).count();
            assert!(
                surviving * 3 >= first.len() * 2,
                "only {surviving}/{} stable values survived",
                first.len()
            );
        }
    }

    #[test]
    fn stable_small_universe_never_grows() {
        let (pool, cfg, mut rng) = setup(21);
        for i in 0..10 {
            let h =
                simulate_noise(&pool, &cfg, NoiseFlavor::StableSmall, &format!("t{i}"), &mut rng);
            let initial = &h.versions()[0].values;
            assert_eq!(
                &h.value_universe(),
                initial,
                "toggle churn must not introduce new values"
            );
            assert!(initial.len() >= 6 && initial.len() <= 8);
            // Every version is a subset of the initial one.
            for v in h.versions() {
                assert!(tind_model::value::is_subset(&v.values, initial));
            }
        }
    }

    #[test]
    fn noise_churns_over_time() {
        let (pool, cfg, mut rng) = setup(7);
        let h = simulate_noise(&pool, &cfg, NoiseFlavor::Large, "n", &mut rng);
        let first = h.versions().first().expect("has versions");
        let last = h.versions().last().expect("has versions");
        assert_ne!(first.values, last.values, "noise should drift");
    }
}
