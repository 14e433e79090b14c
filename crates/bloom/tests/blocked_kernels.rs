//! Differential tests for the word-blocked kernels: the strip-wise BitVec
//! operations and the batched matrix narrowing must agree bit-for-bit with
//! their word-at-a-time / per-query references on arbitrary inputs.
//!
//! Property loops drive randomized shapes (ragged tails, empty query sets,
//! empty candidate sets); the plain `#[test]`s below pin the same
//! equivalences on fixed awkward shapes.

use tind_bloom::{BitVec, BloomFilter, BloomMatrix, BloomMatrixBuilder};
use tind_model::rng::cases;

/// Small deterministic generator so both the property tests and the fixed
/// tests can derive arbitrary-looking data from one seed.
fn lcg(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    }
}

/// A matrix over `num_cols` columns with pseudo-random small value sets
/// (some columns deliberately left empty), plus the per-column value sets.
fn random_matrix(num_cols: usize, m: u32, seed: u64) -> (BloomMatrix, Vec<Vec<u32>>) {
    let mut next = lcg(seed);
    let mut builder = BloomMatrixBuilder::new(m, num_cols, 2);
    let mut columns = Vec::with_capacity(num_cols);
    for col in 0..num_cols {
        let len = (next() % 12) as usize; // 0 => empty column
        let values: Vec<u32> = (0..len).map(|_| (next() % 5_000) as u32).collect();
        builder.insert_column(col, &values);
        columns.push(values);
    }
    (builder.build(), columns)
}

fn random_queries(count: usize, m: u32, seed: u64) -> Vec<BloomFilter> {
    let mut next = lcg(seed);
    (0..count)
        .map(|_| {
            let len = (next() % 9) as usize; // empty query sets included
            let values: Vec<u32> = (0..len).map(|_| (next() % 5_000) as u32).collect();
            BloomFilter::from_values(&values, m, 2)
        })
        .collect()
}

fn random_candidates(count: usize, num_cols: usize, seed: u64) -> Vec<BitVec> {
    let mut next = lcg(seed);
    (0..count)
        .map(|i| {
            let mut c = BitVec::ones(num_cols);
            if i % 4 == 0 {
                c.clear_all(); // empty candidate sets must survive the kernel
            } else {
                for _ in 0..(next() % 8) {
                    c.clear(next() as usize % num_cols.max(1));
                }
            }
            c
        })
        .collect()
}

/// The reference: per-query narrowing via the existing single-query kernel.
fn narrow_each(
    matrix: &BloomMatrix,
    queries: &[BloomFilter],
    candidates: &[BitVec],
    supersets: bool,
) -> Vec<BitVec> {
    queries
        .iter()
        .zip(candidates)
        .map(|(q, c)| {
            let mut c = c.clone();
            if supersets {
                matrix.narrow_to_supersets(q, &mut c);
            } else {
                matrix.narrow_to_subsets(q, &mut c);
            }
            c
        })
        .collect()
}

fn assert_batch_matches(num_cols: usize, m: u32, batch: usize, seed: u64) {
    let (matrix, _) = random_matrix(num_cols, m, seed);
    let queries = random_queries(batch, m, seed ^ 0xabcd);
    let candidates = random_candidates(batch, num_cols, seed ^ 0x1234);

    for supersets in [true, false] {
        let expected = narrow_each(&matrix, &queries, &candidates, supersets);
        let mut got = candidates.clone();
        if supersets {
            matrix.narrow_batch_to_supersets(&queries, &mut got);
        } else {
            matrix.narrow_batch_to_subsets(&queries, &mut got);
        }
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            assert_eq!(
                e, g,
                "query {i} diverged (supersets={supersets}, n={num_cols}, m={m}, seed={seed})"
            );
        }
    }
}

fn assert_strip_ops_match(len: usize, seed: u64) {
    let mut next = lcg(seed);
    let words_per = len.div_ceil(64);
    let base: Vec<u64> = (0..words_per).map(|_| next()).collect();
    let mut reference_and = BitVec::ones(len);
    reference_and.and_assign_words(&base);
    let mut reference_andnot = BitVec::ones(len);
    reference_andnot.andnot_assign_words(&base);

    for strip_words in [1usize, 3, 8] {
        let mut blocked_and = BitVec::ones(len);
        let mut blocked_andnot = BitVec::ones(len);
        let mut offset = 0;
        while offset < words_per {
            let end = (offset + strip_words).min(words_per);
            blocked_and.and_assign_words_at(offset, &base[offset..end]);
            blocked_andnot.andnot_assign_words_at(offset, &base[offset..end]);
            offset = end;
        }
        assert_eq!(reference_and, blocked_and, "AND strips of {strip_words} (len={len})");
        assert_eq!(reference_andnot, blocked_andnot, "ANDNOT strips of {strip_words} (len={len})");
    }
}

#[test]
fn batch_narrowing_matches_per_query_reference() {
    cases("batch_narrowing_matches_per_query_reference", 64, |rng| {
        let num_cols = rng.range(1..300usize);
        let m = 1u32 << rng.range(5..9u32);
        let batch = rng.range(0..12usize);
        assert_batch_matches(num_cols, m, batch, rng.next_u64());
    });
}

#[test]
fn strip_ops_match_full_width_reference() {
    cases("strip_ops_match_full_width_reference", 64, |rng| {
        let len = rng.range(1..500usize);
        assert_strip_ops_match(len, rng.next_u64());
    });
}

// Fixed-shape pins of the same properties.

#[test]
fn batch_narrowing_matches_on_ragged_column_counts() {
    for (num_cols, seed) in [(70usize, 3u64), (130, 5), (64, 7), (1, 11), (63, 13)] {
        assert_batch_matches(num_cols, 256, 6, seed);
    }
}

#[test]
fn batch_narrowing_handles_degenerate_batches() {
    // Empty batch: nothing to do, nothing to panic about.
    let (matrix, _) = random_matrix(50, 128, 21);
    matrix.narrow_batch_to_supersets(&[], &mut []);
    matrix.narrow_batch_to_subsets(&[], &mut []);
    // All-empty candidate sets and all-empty queries.
    assert_batch_matches(50, 128, 4, 0); // seed 0 → lcg starts empty-heavy
}

#[test]
fn strip_ops_match_on_ragged_tails() {
    for len in [1usize, 63, 64, 65, 70, 127, 128, 130, 447] {
        assert_strip_ops_match(len, len as u64 * 31 + 7);
    }
}
