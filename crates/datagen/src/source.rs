//! Source attribute simulation.
//!
//! A source is an authoritative entity list (the right-hand side of a
//! planted genuine IND). It is born somewhere in the first half of the
//! timeline, lives an exponentially distributed lifespan, and undergoes a
//! Poisson number of changes — mostly insertions (entity lists grow), with
//! occasional removals.

use tind_model::rng::Rng;
use tind_model::{HistoryBuilder, Timestamp, ValueId, ValueSet};

use crate::config::GeneratorConfig;
use crate::domains::{exponential, poisson, DomainPool};

/// One atomic change to an attribute's value set.
#[derive(Debug, Clone)]
pub struct ChangeEvent {
    /// Day the change takes effect.
    pub t: Timestamp,
    /// Values inserted.
    pub added: ValueSet,
    /// Values removed.
    pub removed: ValueSet,
}

/// A simulated source attribute, kept in diff form so derived attributes
/// can replay its changes with delays.
#[derive(Debug, Clone)]
pub struct SourceSim {
    /// Domain the source's entities come from.
    pub domain: usize,
    /// First observed day.
    pub birth: Timestamp,
    /// Last observed day (inclusive).
    pub death: Timestamp,
    /// Initial value set at `birth`.
    pub initial: ValueSet,
    /// Changes, strictly increasing in `t`, all within `(birth, death]`.
    pub changes: Vec<ChangeEvent>,
}

impl SourceSim {
    /// Materializes the value set valid at `t` (`None` outside life).
    pub fn set_at(&self, t: Timestamp) -> Option<ValueSet> {
        if t < self.birth || t > self.death {
            return None;
        }
        let mut set: std::collections::BTreeSet<ValueId> = self.initial.iter().copied().collect();
        for ch in &self.changes {
            if ch.t > t {
                break;
            }
            for &v in &ch.added {
                set.insert(v);
            }
            for &v in &ch.removed {
                set.remove(&v);
            }
        }
        Some(set.into_iter().collect())
    }

    /// Builds the attribute history.
    pub fn into_history(&self, name: &str) -> tind_model::AttributeHistory {
        let mut b = HistoryBuilder::new(name);
        b.push(self.birth, self.initial.clone());
        let mut set: std::collections::BTreeSet<ValueId> = self.initial.iter().copied().collect();
        for ch in &self.changes {
            for &v in &ch.added {
                set.insert(v);
            }
            for &v in &ch.removed {
                set.remove(&v);
            }
            b.push(ch.t, set.iter().copied().collect());
        }
        b.finish(self.death)
    }
}

/// Samples `count` distinct change days in `(birth, death]`.
pub(crate) fn sample_change_days(
    birth: Timestamp,
    death: Timestamp,
    count: usize,
    rng: &mut Rng,
) -> Vec<Timestamp> {
    let span = (death - birth) as usize;
    let count = count.min(span);
    let mut days = std::collections::BTreeSet::new();
    while days.len() < count {
        days.insert(rng.range(birth + 1..=death));
    }
    days.into_iter().collect()
}

/// Simulates one source attribute.
pub fn simulate_source(pool: &DomainPool, cfg: &GeneratorConfig, rng: &mut Rng) -> SourceSim {
    let n = cfg.timeline_days;
    let domain = rng.range(0..pool.num_domains());
    // Leave room for at least a 60-day life.
    let birth = rng.range(0..n.saturating_sub(60).max(1));
    let death = if rng.f64() < cfg.survivor_fraction {
        n - 1 // persists to the end of the observation period
    } else {
        let lifespan = exponential(cfg.mean_lifespan_days, rng).max(60.0) as u32;
        birth.saturating_add(lifespan).min(n - 1)
    };

    let card = rng.range(cfg.initial_cardinality.0..=cfg.initial_cardinality.1);
    let initial = pool.sample_distinct(domain, card, rng);

    let change_count = poisson(cfg.mean_changes * cfg.source_change_factor, rng).max(4);
    let days = sample_change_days(birth, death, change_count, rng);

    let mut current: std::collections::BTreeSet<ValueId> = initial.iter().copied().collect();
    let mut changes = Vec::with_capacity(days.len());
    for t in days {
        let mut added = ValueSet::new();
        let mut removed = ValueSet::new();
        if rng.f64() < 0.75 || current.len() <= 5 {
            // Growth: insert 1..=3 fresh entities.
            let how_many = rng.range(1..=3u32);
            for _ in 0..how_many {
                let v = pool.sample_entity(domain, rng);
                if current.insert(v) {
                    added.push(v);
                }
            }
            if added.is_empty() {
                // Zipf collisions: fall back to a guaranteed-fresh entity.
                if let Some(&v) = pool.domain(domain).iter().find(|v| !current.contains(v)) {
                    current.insert(v);
                    added.push(v);
                }
            }
        } else {
            // Shrink: remove one value (keeping the ≥5 floor).
            let idx = rng.range(0..current.len());
            let v = *current.iter().nth(idx).expect("non-empty");
            current.remove(&v);
            removed.push(v);
        }
        if added.is_empty() && removed.is_empty() {
            continue; // domain exhausted; nothing changed
        }
        added.sort_unstable();
        changes.push(ChangeEvent { t, added, removed });
    }
    SourceSim { domain, birth, death, initial, changes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DomainPool, GeneratorConfig) {
        let mut dict = tind_model::Dictionary::new();
        let cfg = GeneratorConfig::small(50, 3);
        let pool =
            DomainPool::generate(&mut dict, cfg.num_domains, cfg.entities_per_domain, cfg.zipf_exponent);
        (pool, cfg)
    }

    #[test]
    fn source_respects_structural_invariants() {
        let (pool, cfg) = setup();
        let mut rng = Rng::seed_from_u64(42);
        for _ in 0..50 {
            let s = simulate_source(&pool, &cfg, &mut rng);
            assert!(s.birth < s.death);
            assert!(s.death < cfg.timeline_days);
            assert!(s.initial.len() >= 5);
            assert!(s.changes.len() >= 4, "needs >= 4 changes, got {}", s.changes.len());
            assert!(s.changes.windows(2).all(|w| w[0].t < w[1].t));
            assert!(s.changes.iter().all(|c| c.t > s.birth && c.t <= s.death));
        }
    }

    #[test]
    fn history_matches_diff_replay() {
        let (pool, cfg) = setup();
        let mut rng = Rng::seed_from_u64(7);
        let s = simulate_source(&pool, &cfg, &mut rng);
        let h = s.into_history("src");
        assert_eq!(h.first_observed(), s.birth);
        assert_eq!(h.last_observed(), s.death);
        for probe in [s.birth, (s.birth + s.death) / 2, s.death] {
            let expected = s.set_at(probe).expect("alive");
            assert_eq!(h.values_at(probe), &expected[..], "mismatch at t={probe}");
        }
        assert!(h.values_at(s.birth.wrapping_sub(1).min(s.birth)).len() <= h.value_universe().len());
    }

    #[test]
    fn set_at_outside_life_is_none() {
        let (pool, cfg) = setup();
        let mut rng = Rng::seed_from_u64(9);
        let s = simulate_source(&pool, &cfg, &mut rng);
        if s.birth > 0 {
            assert!(s.set_at(s.birth - 1).is_none());
        }
        assert!(s.set_at(s.death + 1).is_none());
    }

    #[test]
    fn cardinality_never_drops_below_five() {
        let (pool, cfg) = setup();
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..20 {
            let s = simulate_source(&pool, &cfg, &mut rng);
            let h = s.into_history("src");
            for v in h.versions() {
                assert!(v.values.len() >= 5, "version with {} values", v.values.len());
            }
        }
    }

    #[test]
    fn sample_change_days_handles_tight_spans() {
        let mut rng = Rng::seed_from_u64(1);
        let days = sample_change_days(10, 13, 10, &mut rng);
        assert_eq!(days.len(), 3, "span of 3 caps the count");
        assert!(days.windows(2).all(|w| w[0] < w[1]));
    }
}
