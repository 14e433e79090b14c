//! Property-based tests over the core invariants, driven by randomly
//! generated attribute histories (not the workload generator — raw
//! arbitrary version structures, to hit edge cases the simulator avoids).
//! Each property runs 64 seeded cases (`tind::model::rng::cases`).

mod common;

use std::collections::BTreeSet;

use common::strategies::{dataset_of, histories, history, TIMELINE};
use tind::bloom::{BitVec, BloomFilter};
use tind::core::search::brute_force_search;
use tind::core::validate::{naive_violation_weight, validate, violation_weight};
use tind::core::{IndexConfig, SliceConfig, TindIndex, TindParams};
use tind::model::hash::hash_bytes;
use tind::model::rng::{cases, Rng};
use tind::model::{binio, checksum, Interval, Timeline, ValueId, WeightFn};

const CASES: u32 = 64;

/// Up to `max_len - 1` draws from `0..bound`, as a set.
fn small_set(rng: &mut Rng, bound: u32, max_len: usize) -> BTreeSet<u32> {
    (0..rng.range(0..max_len)).map(|_| rng.range(0..bound)).collect()
}

/// Algorithm 2 must agree with the per-timestamp reference validator
/// on arbitrary history pairs and parameters.
#[test]
fn algorithm2_equals_naive() {
    cases("algorithm2_equals_naive", CASES, |rng| {
        let (q, a) = (history(rng), history(rng));
        let delta = rng.range(0..20u32);
        let eps = 10.0 * rng.f64();
        let decay = rng.bool().then(|| 0.5 + 0.49 * rng.f64());
        let d = dataset_of(vec![q, a]);
        let tl = d.timeline();
        let weights = match decay {
            Some(a) => WeightFn::exponential(a, tl),
            None => WeightFn::constant_one(),
        };
        let params = TindParams::weighted(eps, delta, weights);
        let fast = violation_weight(d.attribute(0), d.attribute(1), &params, tl);
        let naive = naive_violation_weight(d.attribute(0), d.attribute(1), &params, tl);
        assert!((fast - naive).abs() < 1e-9, "fast {fast} vs naive {naive}");
        assert_eq!(
            validate(d.attribute(0), d.attribute(1), &params, tl),
            params.within_budget(naive)
        );
    });
}

/// Reflexivity (Section 3.4): every attribute is included in itself
/// under every parameter setting.
#[test]
fn reflexivity() {
    cases("reflexivity", CASES, |rng| {
        let q = history(rng);
        let delta = rng.range(0..10u32);
        let eps = 5.0 * rng.f64();
        let d = dataset_of(vec![q]);
        let params = TindParams::weighted(eps, delta, WeightFn::constant_one());
        assert!(validate(d.attribute(0), d.attribute(0), &params, d.timeline()));
    });
}

/// Violation weight is monotone: growing δ never increases it.
#[test]
fn delta_monotonicity() {
    cases("delta_monotonicity", CASES, |rng| {
        let (q, a) = (history(rng), history(rng));
        let d = dataset_of(vec![q, a]);
        let tl = d.timeline();
        let mut prev = f64::INFINITY;
        for delta in [0u32, 1, 2, 4, 8, 16] {
            let params = TindParams::weighted(0.0, delta, WeightFn::constant_one());
            let w = violation_weight(d.attribute(0), d.attribute(1), &params, tl);
            assert!(w <= prev + 1e-9, "violation grew from {prev} to {w} at δ={delta}");
            prev = w;
        }
    });
}

/// Index search with arbitrary small datasets must equal brute force —
/// the index may prune only provably invalid candidates.
#[test]
fn index_search_equals_brute_force() {
    cases("index_search_equals_brute_force", CASES, |rng| {
        let histories = histories(rng, 2, 8);
        let delta = rng.range(0..8u32);
        let eps = 6.0 * rng.f64();
        let d = dataset_of(histories);
        let index = TindIndex::build(
            d.clone(),
            IndexConfig {
                m: 128,
                slices: SliceConfig::search_default(eps, WeightFn::constant_one(), 8),
                ..IndexConfig::default()
            },
        );
        let params = TindParams::weighted(eps, delta, WeightFn::constant_one());
        for qid in 0..d.len() as u32 {
            let fast = index.search(qid, &params).results;
            let brute = brute_force_search(&index, d.attribute(qid), Some(qid), &params);
            assert_eq!(&fast, &brute, "query {} differs", qid);
        }
    });
}

/// Bloom filters preserve subsets for arbitrary value sets and sizes.
#[test]
fn bloom_subset_preservation() {
    cases("bloom_subset_preservation", CASES, |rng| {
        let small = small_set(rng, 500, 30);
        let extra = small_set(rng, 500, 30);
        let m = rng.range(8..512u32);
        let k = rng.range(1..4u32);
        let small: Vec<ValueId> = small.into_iter().collect();
        let mut big = small.clone();
        big.extend(extra);
        big.sort_unstable();
        big.dedup();
        let fs = BloomFilter::from_values(&small, m, k);
        let fb = BloomFilter::from_values(&big, m, k);
        assert!(fs.may_be_subset_of(&fb));
        for &v in &small {
            assert!(fs.may_contain(v));
        }
    });
}

/// BitVec boolean algebra sanity: AND is intersection of one-sets.
#[test]
fn bitvec_and_is_intersection() {
    cases("bitvec_and_is_intersection", CASES, |rng| {
        let xs: BTreeSet<usize> = small_set(rng, 300, 60).into_iter().map(|x| x as usize).collect();
        let ys: BTreeSet<usize> = small_set(rng, 300, 60).into_iter().map(|y| y as usize).collect();
        let mut a = BitVec::zeros(300);
        let mut b = BitVec::zeros(300);
        for &x in &xs {
            a.set(x);
        }
        for &y in &ys {
            b.set(y);
        }
        let mut and = a.clone();
        and.and_assign(&b);
        let expected: Vec<usize> = xs.intersection(&ys).copied().collect();
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), expected);
        // Subset relation matches set inclusion.
        assert!(and.is_subset_of(&a));
        assert!(and.is_subset_of(&b));
    });
}

/// Weight functions: closed-form interval sums equal naive sums.
#[test]
fn weight_interval_sums() {
    cases("weight_interval_sums", CASES, |rng| {
        let start = rng.range(0..TIMELINE);
        let len = rng.range(1..TIMELINE);
        let a = 0.5 + 0.499 * rng.f64();
        let tl = Timeline::new(TIMELINE);
        let end = (start + len - 1).min(tl.last());
        let interval = Interval::new(start, end);
        for w in [
            WeightFn::constant_one(),
            WeightFn::uniform_normalized(tl),
            WeightFn::exponential(a, tl),
            WeightFn::linear(tl),
        ] {
            let closed = w.interval_weight(interval);
            let naive: f64 = interval.iter().map(|t| w.weight(t)).sum();
            assert!((closed - naive).abs() < 1e-9, "{w:?} on {interval}");
        }
    });
}

#[test]
fn partial_sigma_monotone() {
    cases("partial_sigma_monotone", CASES, |rng| {
        let (q, a) = (history(rng), history(rng));
        let delta = rng.range(0..6u32);
        use tind::core::partial::{partial_validate, PartialParams};
        let d = dataset_of(vec![q, a]);
        let tl = d.timeline();
        let base = TindParams::weighted(2.0, delta, WeightFn::constant_one());
        let mut prev_valid = false;
        for sigma in [1.0, 0.8, 0.6, 0.4, 0.2] {
            let p = PartialParams::new(base.clone(), sigma);
            let valid = partial_validate(d.attribute(0), d.attribute(1), &p, tl);
            assert!(!prev_valid || valid, "σ={sigma} invalidated a previously valid pair");
            prev_valid = valid;
        }
    });
}

/// The σ-partial walk's violation weight equals the per-timestamp sum over
/// `partial_contained_at`, under constant and decaying weights.
#[test]
fn partial_weight_equals_per_timestamp_sum() {
    use tind::core::partial::{partial_contained_at, partial_violation_weight, PartialParams};
    cases("partial_weight_equals_per_timestamp_sum", CASES, |rng| {
        let (q, a) = (history(rng), history(rng));
        let delta = rng.range(0..20u32);
        let sigma = [1.0, 0.9, 0.75, 0.56, 0.5, 0.25, 0.1][rng.range(0..7usize)];
        let decay = rng.bool().then(|| 0.5 + 0.49 * rng.f64());
        let d = dataset_of(vec![q, a]);
        let tl = d.timeline();
        let weights = match decay {
            Some(a) => WeightFn::exponential(a, tl),
            None => WeightFn::constant_one(),
        };
        let p = PartialParams::new(TindParams::weighted(0.0, delta, weights), sigma);
        let walked = partial_violation_weight(d.attribute(0), d.attribute(1), &p, tl, false);
        let naive: f64 = tl
            .iter()
            .filter(|&t| !partial_contained_at(d.attribute(0), d.attribute(1), t, &p, tl))
            .map(|t| p.base.weights.weight(t))
            .sum();
        assert!((walked - naive).abs() < 1e-9, "σ={sigma} δ={delta}: walk {walked} vs naive {naive}");
    });
}

/// Binary serialization round-trips arbitrary datasets.
#[test]
fn binio_roundtrip() {
    cases("binio_roundtrip", CASES, |rng| {
        let histories = histories(rng, 1, 6);
        let d = dataset_of(histories);
        let bytes = binio::encode_dataset(&d);
        let d2 = binio::decode_dataset(&bytes).expect("roundtrip decodes");
        assert_eq!(binio::dataset_fingerprint(&d2), hash_bytes(&bytes));
        assert_eq!(binio::dataset_fingerprint(&d2), binio::dataset_fingerprint(&d));
        assert_eq!(d2.len(), d.len());
        assert_eq!(d2.timeline(), d.timeline());
        for (id, h) in d.iter() {
            assert_eq!(d2.attribute(id).versions(), h.versions());
            assert_eq!(d2.attribute(id).last_observed(), h.last_observed());
        }
    });
}

/// The dataset decode is canonical: flip any one byte of an encoding,
/// re-sign the trailer so the CRC passes, and the decoder either refuses
/// the file or returns a dataset that re-encodes to exactly those bytes —
/// whose fingerprint is then the hash of those bytes.
#[test]
fn binio_mutations_are_refused_or_canonical() {
    cases("binio_mutations_are_refused_or_canonical", CASES, |rng| {
        let bytes = binio::encode_dataset(&dataset_of(histories(rng, 1, 6)));
        let payload = bytes.len() - checksum::TRAILER_LEN;
        for _ in 0..256 {
            let mut mutated = bytes.clone();
            let at = rng.range(0..payload);
            // A single bit flip, or a small value: the bytes that turn a
            // varint overlong or a version into a copy of its predecessor.
            if rng.bool() {
                mutated[at] ^= 1 << rng.range(0..8u32);
            } else {
                mutated[at] = rng.range(0..16u8);
            }
            let crc = checksum::crc32(&mutated[..payload]);
            mutated[payload..].copy_from_slice(&crc.to_le_bytes());
            if let Ok(d) = binio::decode_dataset(&mutated) {
                assert!(binio::encode_dataset(&d) == mutated, "accepted a non-canonical file");
                assert_eq!(binio::dataset_fingerprint(&d), hash_bytes(&mutated));
            }
        }
    });
}
