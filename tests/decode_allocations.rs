//! What decoding a dataset allocates, counted on every thread: the
//! decoder interns the dictionary on a worker thread, so a thread-local
//! count would not see the dictionary at all. The counter is process-wide
//! and armed only around the decode, which is why this file holds a single
//! test: a second one would allocate on another thread while it is armed.
//!
//! Two pins:
//! - The dictionary is one arena reserved at its exact size, so two
//!   datasets with the same attributes and versions decode with the same
//!   number of allocations however large their dictionaries are. A
//!   per-string `String` or `Arc<str>` would add one allocation per value,
//!   and a string buffer that regrows one per doubling.
//! - Each further attribute costs at most `versions + 4` allocations: its
//!   name, its version list sized once from the file, one set per version,
//!   its `Arc`, and its by-name key. A version list that regrows as it is
//!   filled would add one per doubling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use tind::model::binio::{decode_dataset, encode_dataset};
use tind::model::{Dataset, DatasetBuilder, HistoryBuilder, Timeline, ValueId};

/// Whether allocations are being counted. `Relaxed` is enough: the
/// worker's increments happen before the decode joins it, and the join
/// happens before the test reads the count.
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

/// `attributes` attributes of `versions` versions of 8 values each over a
/// dictionary of `values` strings.
fn dataset(values: usize, attributes: usize, versions: usize) -> Dataset {
    let mut b = DatasetBuilder::new(Timeline::new(10 * versions as u32));
    for i in 0..values {
        b.dictionary_mut().intern(&format!("value {i}"));
    }
    let stride = values / 8;
    for attr in 0..attributes {
        let mut h = HistoryBuilder::new(format!("attribute {attr}"));
        for version in 0..versions {
            let offset = (attr * versions + version) % stride;
            let set: Vec<ValueId> = (0..8).map(|k| (k * stride + offset) as ValueId).collect();
            h.push(version as u32 * 10, set);
        }
        b.add_history(h.finish(10 * versions as u32 - 1));
    }
    b.build()
}

/// Allocations made on any thread while `dataset` decodes.
fn allocations_to_decode(values: usize, attributes: usize, versions: usize) -> u64 {
    let bytes = encode_dataset(&dataset(values, attributes, versions));
    ALLOCATIONS.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let decoded = decode_dataset(&bytes);
    ARMED.store(false, Relaxed);
    let made = ALLOCATIONS.load(Relaxed);
    let decoded = decoded.expect("decodes");
    assert_eq!(decoded.dictionary().len(), values);
    let total_versions = decoded.attributes().iter().map(|h| h.versions().len()).sum::<usize>();
    assert_eq!(total_versions, attributes * versions);
    made
}

#[test]
fn decode_allocations_do_not_scale_with_the_dictionary() {
    // Once-per-process set-up (the first thread spawn's) is not counted.
    allocations_to_decode(2_000, 10, 3);

    let small = allocations_to_decode(2_000, 200, 3);
    let large = allocations_to_decode(20_000, 200, 3);
    // Equal, not merely close: the string arena is reserved at its exact
    // size, so 10x the bytes does not regrow it either.
    assert_eq!(small, large, "allocations for 2 000 values, then for 20 000");

    const VERSIONS: u64 = 9;
    let fewer = allocations_to_decode(2_000, 100, VERSIONS as usize);
    let more = allocations_to_decode(2_000, 200, VERSIONS as usize);
    assert!(
        more - fewer <= 100 * (VERSIONS + 4),
        "100 more attributes of {VERSIONS} versions took {} more allocations",
        more - fewer
    );
}
