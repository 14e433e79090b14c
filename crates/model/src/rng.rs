//! The workspace's seeded pseudo-random generator.
//!
//! Everything seeded — dataset generation, time-slice selection, query
//! workloads, the k-MANY attribute order, the property-test case loops —
//! draws from this generator, so a seed names the same dataset, index
//! bytes and test case on every machine and in every build. It is
//! xoshiro256++ seeded through SplitMix64, with the simplest possible
//! reductions (`% span` for ranges, the top 53 bits for floats): the
//! streams only have to be well mixed and reproducible, not unbiased to
//! the last bit. **Changing any reduction changes every recorded number**
//! (EXPERIMENTS.md, `dataset_fingerprint`s, the benchmark's datasets);
//! the `pinned_stream` test holds them still.

use std::ops::{Bound, RangeBounds};

/// Integer types [`Rng::range`] can sample. Values travel through `u64`,
/// so every supported type is unsigned and at most 64 bits wide.
pub trait RangeInt: Copy {
    #[doc(hidden)]
    fn to_u64(self) -> u64;
    #[doc(hidden)]
    fn from_u64(v: u64) -> Self;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

range_int!(u8, u16, u32, u64, usize);

/// Deterministic xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Expands `seed` into the 256-bit state with SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` (53 mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin (the low bit).
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform integer from `lo..hi` or `lo..=hi`. Panics on an empty
    /// range.
    pub fn range<T: RangeInt>(&mut self, range: impl RangeBounds<T>) -> T {
        let lo = match range.start_bound() {
            Bound::Included(&lo) => lo.to_u64(),
            Bound::Excluded(_) | Bound::Unbounded => panic!("range needs an inclusive start"),
        };
        let span = match range.end_bound() {
            Bound::Excluded(&hi) => {
                assert!(lo < hi.to_u64(), "empty range");
                hi.to_u64() - lo
            }
            Bound::Included(&hi) => {
                assert!(lo <= hi.to_u64(), "empty range");
                // 0 = the full 64-bit width.
                (hi.to_u64() - lo).wrapping_add(1)
            }
            Bound::Unbounded => panic!("range needs an end"),
        };
        let draw = self.next_u64();
        T::from_u64(if span == 0 { draw } else { lo + draw % span })
    }

    /// Shuffles `items` in place (Fisher–Yates, from the back).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The property-test loop: runs `body` on `count` generators, case *i* of
/// test `test` seeded from `hash(test, i)`, so a run is the same on every
/// machine. A failing case re-panics with its index and seed in the
/// message; there is no shrinking — rerun, it fails the same way.
pub fn cases(test: &str, count: u32, mut body: impl FnMut(&mut Rng)) {
    for case in 0..count {
        let seed = crate::hash::hash_bytes(test.as_bytes()) ^ crate::hash::splitmix64(case.into());
        let mut rng = Rng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("property '{test}' failed at case {case} of {count} (seed {seed:#018x}): {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every dataset, slice choice and index byte ever recorded depends on
    /// these exact streams.
    #[test]
    fn pinned_stream() {
        let mut rng = Rng::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0x53175d61490b23df);
        assert_eq!(rng.next_u64(), 0x61da6f3dc380d507);
        let mut rng = Rng::seed_from_u64(42);
        let drawn: Vec<u32> = (0..6).map(|_| rng.range(0..1000u32)).collect();
        let mut again = Rng::seed_from_u64(42);
        let expected: Vec<u32> = (0..6).map(|_| (again.next_u64() % 1000) as u32).collect();
        assert_eq!(drawn, expected);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut rng = Rng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v: usize = rng.range(3..=7);
            assert!((3..=7).contains(&v));
            seen[v - 3] = true;
            let w: u32 = rng.range(10..11);
            assert_eq!(w, 10);
            let f = rng.f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert!(seen.iter().all(|&s| s));
        // The full-width inclusive range must not divide by zero.
        let _: u64 = rng.range(0..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::seed_from_u64(1).range(5..5usize);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::seed_from_u64(9).shuffle(&mut a);
        Rng::seed_from_u64(9).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn cases_are_seeded_per_test_and_index() {
        let draws = |name: &str| {
            let mut out = Vec::new();
            cases(name, 5, |rng| out.push(rng.next_u64()));
            out
        };
        let a = draws("alpha");
        assert_eq!(a, draws("alpha"), "same test, same cases");
        assert_ne!(a, draws("beta"), "another test, other cases");
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 5, "each case has its own seed");
    }

    #[test]
    fn a_failing_case_names_its_index_and_seed() {
        let mut seen = 0;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cases("failing", 10, |_| {
                seen += 1;
                assert!(seen < 4, "oracle disagrees");
            });
        }))
        .expect_err("fourth case fails");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("'failing' failed at case 3 of 10 (seed 0x"), "{msg}");
        assert!(msg.contains("oracle disagrees"), "{msg}");
    }
}
