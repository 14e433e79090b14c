//! Value domains with Zipf-skewed entity popularity.
//!
//! Each domain models a semantic type ("video games", "composers",
//! "countries"). Entities within a domain are drawn with Zipf-like skew:
//! popular entities appear in many attributes, which is what creates
//! realistic value overlap between related attributes and occasional
//! chance overlap between unrelated ones.

use tind_model::rng::Rng;
use tind_model::{Dictionary, ValueId, ValueSet};

/// Pre-interned entity pools, one per domain, with cumulative Zipf weights.
#[derive(Debug)]
pub struct DomainPool {
    /// `entities[d][i]` is the id of the `i`-th most popular entity of
    /// domain `d`.
    entities: Vec<Vec<ValueId>>,
    /// Cumulative (unnormalized) Zipf weights per domain, shared shape.
    zipf_cum: Vec<f64>,
}

impl DomainPool {
    /// Interns `num_domains × entities_per_domain` entity strings and
    /// precomputes the sampling distribution.
    pub fn generate(
        dictionary: &mut Dictionary,
        num_domains: usize,
        entities_per_domain: usize,
        zipf_exponent: f64,
    ) -> Self {
        assert!(num_domains > 0 && entities_per_domain > 0);
        let entities = (0..num_domains)
            .map(|d| {
                (0..entities_per_domain)
                    .map(|i| dictionary.intern(&format!("D{d}:E{i}")))
                    .collect()
            })
            .collect();
        let mut zipf_cum = Vec::with_capacity(entities_per_domain);
        let mut acc = 0.0;
        for i in 0..entities_per_domain {
            acc += 1.0 / ((i + 1) as f64).powf(zipf_exponent);
            zipf_cum.push(acc);
        }
        DomainPool { entities, zipf_cum }
    }

    /// Number of domains.
    pub fn num_domains(&self) -> usize {
        self.entities.len()
    }

    /// Entities per domain.
    pub fn domain_size(&self) -> usize {
        self.zipf_cum.len()
    }

    /// All entities of a domain in popularity order.
    pub fn domain(&self, d: usize) -> &[ValueId] {
        &self.entities[d]
    }

    /// Samples one entity from domain `d` with Zipf skew.
    pub fn sample_entity(&self, d: usize, rng: &mut Rng) -> ValueId {
        let total = *self.zipf_cum.last().expect("non-empty domain");
        let r = rng.f64() * total;
        let idx = self.zipf_cum.partition_point(|&c| c < r);
        self.entities[d][idx.min(self.domain_size() - 1)]
    }

    /// Samples `count` *distinct* entities from domain `d` (canonical set).
    /// Saturates at the domain size.
    pub fn sample_distinct(&self, d: usize, count: usize, rng: &mut Rng) -> ValueSet {
        let count = count.min(self.domain_size());
        let mut set = std::collections::BTreeSet::new();
        // Zipf rejection first; top up uniformly if skew keeps colliding.
        let mut attempts = 0;
        while set.len() < count && attempts < count * 20 {
            set.insert(self.sample_entity(d, rng));
            attempts += 1;
        }
        while set.len() < count {
            let idx = rng.range(0..self.domain_size());
            set.insert(self.entities[d][idx]);
        }
        set.into_iter().collect()
    }

    /// Samples an entity from any *other* domain — a foreign (erroneous)
    /// value relative to `own_domain`.
    pub fn sample_foreign(&self, own_domain: usize, rng: &mut Rng) -> ValueId {
        if self.num_domains() == 1 {
            // Degenerate case: fall back to an unpopular same-domain entity,
            // which is at least unlikely to be in any given attribute.
            let idx = rng.range(self.domain_size() / 2..self.domain_size());
            return self.entities[0][idx];
        }
        let mut d = rng.range(0..self.num_domains() - 1);
        if d >= own_domain {
            d += 1;
        }
        self.sample_entity(d, rng)
    }
}

/// Samples from a Poisson distribution (Knuth's method; fine for the small
/// λ used for change counts).
pub fn poisson(lambda: f64, rng: &mut Rng) -> usize {
    debug_assert!(lambda > 0.0 && lambda < 200.0, "Knuth sampling needs small λ");
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Samples from an exponential distribution with the given mean.
pub fn exponential(mean: f64, rng: &mut Rng) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = rng.f64().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> (Dictionary, DomainPool) {
        let mut dict = Dictionary::new();
        let pool = DomainPool::generate(&mut dict, 4, 100, 0.8);
        (dict, pool)
    }

    #[test]
    fn generates_distinct_interned_entities() {
        let (dict, pool) = pool();
        assert_eq!(dict.len(), 400);
        assert_eq!(pool.num_domains(), 4);
        assert_eq!(pool.domain_size(), 100);
        assert_eq!(dict.resolve(pool.domain(2)[5]), "D2:E5");
    }

    #[test]
    fn zipf_sampling_prefers_popular_entities() {
        let (_, pool) = pool();
        let mut rng = Rng::seed_from_u64(5);
        let mut top10 = 0;
        let trials = 5000;
        for _ in 0..trials {
            let v = pool.sample_entity(0, &mut rng);
            let rank = pool.domain(0).iter().position(|&e| e == v).unwrap();
            if rank < 10 {
                top10 += 1;
            }
        }
        // With s = 0.8 over 100 entities, the top-10 mass is ≈ 33%; uniform
        // would give 10%.
        assert!(top10 > trials / 5, "top-10 hit {top10}/{trials}");
    }

    #[test]
    fn sample_distinct_returns_canonical_sets() {
        let (_, pool) = pool();
        let mut rng = Rng::seed_from_u64(7);
        let set = pool.sample_distinct(1, 30, &mut rng);
        assert_eq!(set.len(), 30);
        assert!(set.windows(2).all(|w| w[0] < w[1]));
        // Saturation at domain size.
        let all = pool.sample_distinct(1, 1000, &mut rng);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn foreign_values_come_from_other_domains() {
        let (dict, pool) = pool();
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..200 {
            let v = pool.sample_foreign(2, &mut rng);
            let name = dict.resolve(v);
            assert!(!name.starts_with("D2:"), "foreign value {name} from own domain");
        }
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 3000;
        let sum: usize = (0..n).map(|_| poisson(13.0, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 13.0).abs() < 0.5, "got mean {mean}");
    }

    #[test]
    fn exponential_mean_is_roughly_mean() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 5000;
        let sum: f64 = (0..n).map(|_| exponential(500.0, &mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 500.0).abs() < 40.0, "got mean {mean}");
    }
}
