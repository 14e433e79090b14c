//! What building an index allocates, counted on every thread. The counter
//! is process-wide and armed only around the build, which is why this
//! file holds a single test: a second one would allocate on another thread
//! while it is armed.
//!
//! The pin: every value set a build renders (`A[T]` for `M_T`, `A[I^δ]` for
//! each slice, the required values of `M_R`) is merged into the worker's
//! own buffers, so a build's allocations do not grow with the number of
//! versions. Two datasets with the same attributes, the same value sets
//! and the same slices, one with 2 versions per attribute and one with 20,
//! build with the same number of allocations up to the buffers' warm-up,
//! forward and reverse. A fresh set per merged version would add one
//! allocation per extra version per column.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use tind::core::index::{IndexConfig, TindIndex};
use tind::core::slices::SliceStrategy;
use tind::model::{Dataset, DatasetBuilder, HistoryBuilder, Timeline, ValueId};

/// Whether allocations are being counted.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

fn count_one() {
    if ARMED.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counter is two atomics that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` came from this allocator, which is
        // `System` underneath; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const DAYS: u32 = 400;
const ATTRIBUTES: usize = 150;

/// `ATTRIBUTES` attributes observed over the whole timeline, each
/// alternating between two overlapping sets of 12 values in `versions`
/// evenly spaced versions, so every `A[I]` is one of the two sets or their
/// union whatever `versions` is.
fn dataset(versions: u32) -> Arc<Dataset> {
    let mut b = DatasetBuilder::new(Timeline::new(DAYS));
    let values: Vec<ValueId> =
        (0..ATTRIBUTES + 18).map(|i| b.dictionary_mut().intern(&format!("value {i}"))).collect();
    for attr in 0..ATTRIBUTES {
        let mut h = HistoryBuilder::new(format!("attribute {attr}"));
        for version in 0..versions {
            let first = attr + 6 * (version as usize % 2);
            h.push(version * (DAYS / versions), values[first..first + 12].to_vec());
        }
        b.add_history(h.finish(DAYS - 1));
    }
    Arc::new(b.build())
}

/// Allocations made on any thread while the index over `dataset` builds,
/// and the number of time slices that build rendered.
fn allocations_to_build(dataset: Arc<Dataset>, config: IndexConfig) -> (u64, usize) {
    ALLOCATIONS.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let index = TindIndex::build(dataset, config);
    ARMED.store(false, Relaxed);
    (ALLOCATIONS.load(Relaxed), index.time_slices().len())
}

#[test]
fn build_allocations_do_not_scale_with_versions() {
    let (few, many) = (dataset(2), dataset(20));
    for id in 0..ATTRIBUTES as u32 {
        assert_eq!(few.attribute(id).value_universe(), many.attribute(id).value_universe());
    }
    let forward = IndexConfig::default();
    assert_eq!(forward.slices.strategy, SliceStrategy::Random, "slices independent of the data");
    let slices = |d: &Arc<Dataset>| {
        let index = TindIndex::build(d.clone(), forward.clone());
        index.time_slices().iter().map(|s| s.expanded).collect::<Vec<_>>()
    };
    assert_eq!(slices(&few), slices(&many));
    // Reverse slices are weighted by the data and may start a day apart
    // here, but every `A[I]` is still one of the three sets.
    for config in [forward.clone(), IndexConfig::reverse_default()] {
        let (fewer, fewer_slices) = allocations_to_build(few.clone(), config.clone());
        let (more, more_slices) = allocations_to_build(many.clone(), config.clone());
        // The pin measures slice rendering only if the builds render slices.
        if config.build_reverse {
            assert!(fewer_slices > 0 && more_slices > 0, "{fewer_slices}, {more_slices} slices");
        } else {
            assert_eq!((fewer_slices, more_slices), (16, 16));
        }
        // The buffers grow to the largest set they merge once per build,
        // in an order that depends on the version count: a few
        // reallocations, however many attributes or versions there are.
        const WARM_UP: u64 = 4;
        assert!(
            fewer.abs_diff(more) <= WARM_UP,
            "build_reverse {}: {fewer} allocations at 2 versions per attribute, {more} at 20",
            config.build_reverse
        );
    }
}
