//! Derived attribute simulation — the left-hand sides of planted genuine
//! INDs.
//!
//! A derived attribute adopts a subset of its source's values and replays
//! the source's changes with bounded delay:
//!
//! * **Insertions** are adopted late (or not at all) — harmless for
//!   containment, the derived side only lags behind.
//! * **Removals** are propagated late — this *does* break static
//!   containment during the lag window and is precisely the data-quality
//!   issue δ-containment heals (the source carried the value until the
//!   removal, so a δ at least as large as the lag finds it in the window).
//! * **Errors** occasionally insert a foreign value that no version of the
//!   source ever carries; it is fixed after a few days. These are the
//!   violations only ε can absorb.
//!
//! Attributes additionally receive containment-preserving *churn* (remove
//! an owned value, re-add it days later) when they would otherwise fall
//! under the paper's ≥5-version filter.

use tind_model::rng::Rng;
use tind_model::{HistoryBuilder, Timestamp, ValueId};

use crate::config::GeneratorConfig;
use crate::domains::DomainPool;
use crate::source::SourceSim;

/// A scheduled set mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Insert(ValueId),
    Remove(ValueId),
}

/// The simulated dirt level of a derived attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dirtiness {
    /// Short delays, errors fixed within days — discoverable at the
    /// paper's default (ε = 3, δ = 7).
    Clean,
    /// Long delays and slow fixes — needs generous relaxation settings.
    Dirty,
}

/// Simulates one derived attribute for `source`. Returns the history; the
/// genuine pair `(derived, source)` is recorded by the caller.
///
/// When `rename_value` is given, one adopted source value is permanently
/// replaced by it mid-life — the entity-rename dirt of §3.3 that makes
/// the (still genuine) pair undiscoverable without σ-partial containment.
pub fn simulate_derived(
    source: &SourceSim,
    pool: &DomainPool,
    cfg: &GeneratorConfig,
    dirtiness: Dirtiness,
    rename_value: Option<tind_model::ValueId>,
    name: &str,
    rng: &mut Rng,
) -> tind_model::AttributeHistory {
    let (delay_max, error_days) = match dirtiness {
        Dirtiness::Clean => (cfg.clean_delay_max, cfg.clean_error_days),
        Dirtiness::Dirty => (cfg.dirty_delay_max, cfg.dirty_error_days),
    };

    // Life nested within the source's life (a derived column that outlives
    // its source would trail permanent violations and stop being genuine).
    let latest_birth = source.death.saturating_sub(30).max(source.birth);
    let birth = if latest_birth > source.birth {
        rng.range(source.birth..=latest_birth)
    } else {
        source.birth
    };
    let death = source.death;

    let adopt_rate = 0.55 + (0.95 - 0.55) * rng.f64();
    // One characteristic lag per derived attribute (its maintainer's
    // responsiveness). A constant lag keeps propagated events in source
    // order — independent per-change delays could propagate a *removal*
    // before an earlier insertion, leaving a permanently leaked value.
    let delay: u32 = rng.range(0..=delay_max);

    // Initial set: an adopted subset of the source at birth.
    let source_at_birth = source.set_at(birth).expect("birth within source life");
    let mut initial: Vec<ValueId> =
        source_at_birth.iter().copied().filter(|_| rng.f64() < adopt_rate).collect();
    // Honor the ≥5 cardinality floor.
    for &v in &source_at_birth {
        if initial.len() >= 5 {
            break;
        }
        if !initial.contains(&v) {
            initial.push(v);
        }
    }
    initial.sort_unstable();
    let mut owned: std::collections::BTreeSet<ValueId> = initial.iter().copied().collect();

    // Replay source changes with delay.
    let mut events: Vec<(Timestamp, Op)> = Vec::new();
    for ch in &source.changes {
        if ch.t < birth {
            continue;
        }
        let te = ch.t.saturating_add(delay).min(death);
        for &v in &ch.added {
            if rng.f64() < adopt_rate && owned.insert(v) {
                events.push((te, Op::Insert(v)));
            }
        }
        for &v in &ch.removed {
            if owned.remove(&v) {
                events.push((te, Op::Remove(v)));
            }
        }
        // Transient erroneous insertion of a foreign value.
        if rng.f64() < cfg.error_rate {
            let dur = rng.range(error_days.0..=error_days.1);
            if te + dur <= death {
                let foreign = pool.sample_foreign(source.domain, rng);
                if !owned.contains(&foreign) {
                    events.push((te, Op::Insert(foreign)));
                    events.push((te + dur, Op::Remove(foreign)));
                }
            }
        }
    }

    // Permanent entity rename: from `tr` on, one adopted value appears
    // under a different name that the source never carries.
    if let Some(renamed) = rename_value {
        if death > birth + 4 {
            // Early in life, so the wrong name dominates the history (real
            // renames stick; a late rename would leave only a short
            // violation tail that ε could absorb).
            let tr = rng.range(birth + 1..=birth + (death - birth) / 4);
            if let Some(&victim) = owned.iter().next() {
                owned.remove(&victim);
                events.push((tr, Op::Remove(victim)));
                events.push((tr, Op::Insert(renamed)));
            }
        }
    }

    let mut history = materialize(name, birth, death, &initial, &mut events);

    // Containment-preserving churn until the ≥5-version filter is met.
    let mut guard = 0;
    while history.versions().len() < 5 && guard < 32 {
        guard += 1;
        if death - birth < 4 {
            break;
        }
        let t = rng.range(birth + 1..death);
        let owned_now: Vec<ValueId> = history.values_at(t).to_vec();
        if owned_now.len() <= 5 {
            continue;
        }
        // Churn only values the source carries both now and at the end —
        // re-adding anything else could plant a permanent violation.
        let source_now = source.set_at(t).unwrap_or_default();
        let source_end = source.set_at(death).unwrap_or_default();
        let Some(&v) = owned_now
            .iter()
            .find(|v| source_now.binary_search(v).is_ok() && source_end.binary_search(v).is_ok())
        else {
            continue;
        };
        events.push((t, Op::Remove(v)));
        events.push((t + 1, Op::Insert(v)));
        history = materialize(name, birth, death, &initial, &mut events);
    }
    history
}

/// Folds the event list into an attribute history.
fn materialize(
    name: &str,
    birth: Timestamp,
    death: Timestamp,
    initial: &[ValueId],
    events: &mut [(Timestamp, Op)],
) -> tind_model::AttributeHistory {
    events.sort_unstable();
    let mut set: std::collections::BTreeSet<ValueId> = initial.iter().copied().collect();
    let mut b = HistoryBuilder::new(name);
    b.push(birth, initial.to_vec());
    let mut i = 0;
    while i < events.len() {
        let t = events[i].0;
        while i < events.len() && events[i].0 == t {
            match events[i].1 {
                Op::Insert(v) => {
                    set.insert(v);
                }
                Op::Remove(v) => {
                    set.remove(&v);
                }
            }
            i += 1;
        }
        if t > birth {
            b.push(t, set.iter().copied().collect());
        }
        // Events at exactly `birth` are folded into the initial version by
        // the builder's dedup (same timestamp is not allowed twice).
    }
    b.finish(death)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::simulate_source;
    use tind_core::validate::{naive_violation_weight, validate};
    use tind_core::TindParams;
    use tind_model::{Timeline, WeightFn};

    fn setup(seed: u64) -> (DomainPool, GeneratorConfig, Rng) {
        let mut dict = tind_model::Dictionary::new();
        let cfg = GeneratorConfig::small(50, seed);
        let pool = DomainPool::generate(
            &mut dict,
            cfg.num_domains,
            cfg.entities_per_domain,
            cfg.zipf_exponent,
        );
        (pool, cfg, Rng::seed_from_u64(seed))
    }

    #[test]
    fn clean_derived_validates_at_generous_params() {
        let (pool, cfg, mut rng) = setup(21);
        let tl = Timeline::new(cfg.timeline_days);
        for i in 0..15 {
            let src = simulate_source(&pool, &cfg, &mut rng);
            let d = simulate_derived(&src, &pool, &cfg, Dirtiness::Clean, None, &format!("d{i}"), &mut rng);
            let s = src.into_history("s");
            // Generous: ε covers worst-case error budget, δ covers max delay.
            let p = TindParams::weighted(60.0, cfg.clean_delay_max, WeightFn::constant_one());
            assert!(
                validate(&d, &s, &p, tl),
                "derived {i} violates even at generous params: weight {}",
                naive_violation_weight(&d, &s, &p, tl)
            );
        }
    }

    #[test]
    fn derived_respects_life_nesting_and_filters() {
        let (pool, cfg, mut rng) = setup(5);
        for i in 0..20 {
            let src = simulate_source(&pool, &cfg, &mut rng);
            let d = simulate_derived(&src, &pool, &cfg, Dirtiness::Clean, None, &format!("d{i}"), &mut rng);
            assert!(d.first_observed() >= src.birth);
            assert!(d.last_observed() <= src.death);
            assert!(d.median_cardinality() >= 5, "median {} too small", d.median_cardinality());
        }
    }

    #[test]
    fn dirty_derived_violates_more_than_clean() {
        let (pool, cfg, mut rng) = setup(33);
        let tl = Timeline::new(cfg.timeline_days);
        let p = TindParams::strict();
        let mut clean_total = 0.0;
        let mut dirty_total = 0.0;
        for i in 0..12 {
            let src = simulate_source(&pool, &cfg, &mut rng);
            let c = simulate_derived(&src, &pool, &cfg, Dirtiness::Clean, None, &format!("c{i}"), &mut rng);
            let d = simulate_derived(&src, &pool, &cfg, Dirtiness::Dirty, None, &format!("d{i}"), &mut rng);
            let s = src.into_history("s");
            clean_total += naive_violation_weight(&c, &s, &p, tl);
            dirty_total += naive_violation_weight(&d, &s, &p, tl);
        }
        assert!(
            dirty_total > clean_total,
            "dirty ({dirty_total}) should violate more than clean ({clean_total})"
        );
    }

    #[test]
    fn errors_are_transient() {
        // Every foreign value must disappear again: the final version
        // contains only source-universe values.
        let (pool, cfg, mut rng) = setup(8);
        for i in 0..15 {
            let src = simulate_source(&pool, &cfg, &mut rng);
            let d = simulate_derived(&src, &pool, &cfg, Dirtiness::Clean, None, &format!("d{i}"), &mut rng);
            let s = src.into_history("s");
            let universe = s.value_universe();
            let last = d.values_at(d.last_observed());
            for v in last {
                assert!(universe.binary_search(v).is_ok(), "foreign value survived to the end");
            }
        }
    }
}
