//! Decoding a dataset must not allocate once per dictionary string: the
//! dictionary is one arena, so two datasets with the same attributes and
//! versions decode with nearly the same number of allocations however
//! large their dictionaries are. A per-string `String` or `Arc<str>`
//! would add one allocation per value and fail this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tind::model::binio::{decode_dataset, encode_dataset};
use tind::model::{Dataset, DatasetBuilder, HistoryBuilder, Timeline, ValueId};

thread_local! {
    /// Allocations made by this thread: other test threads cannot skew it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // A thread being torn down no longer has the counter; skip it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counter is a const-initialised thread-local that never allocates.
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

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// 200 attributes of 3 versions of 8 values each over a dictionary of
/// `values` strings: only the dictionary size varies between calls.
fn dataset(values: usize) -> Dataset {
    let mut b = DatasetBuilder::new(Timeline::new(30));
    for i in 0..values {
        b.dictionary_mut().intern(&format!("value {i}"));
    }
    let stride = values / 8;
    for attr in 0..200 {
        let mut h = HistoryBuilder::new(format!("attribute {attr}"));
        for version in 0..3 {
            let offset = (attr * 3 + version) % stride;
            let set: Vec<ValueId> = (0..8).map(|k| (k * stride + offset) as ValueId).collect();
            h.push(version as u32 * 10, set);
        }
        b.add_history(h.finish(29));
    }
    b.build()
}

fn allocations_to_decode(values: usize) -> u64 {
    let bytes = encode_dataset(&dataset(values));
    let before = allocations();
    let decoded = decode_dataset(&bytes).expect("decodes");
    let made = allocations() - before;
    assert_eq!(decoded.dictionary().len(), values);
    assert_eq!(decoded.attributes().iter().map(|h| h.versions().len()).sum::<usize>(), 600);
    made
}

#[test]
fn decode_allocations_do_not_scale_with_the_dictionary() {
    let small = allocations_to_decode(2_000);
    let large = allocations_to_decode(20_000);
    // The arena's byte buffer doubles a few more times for 10x the bytes.
    assert!(large.abs_diff(small) < 16, "{small} allocations for 2 000 values, {large} for 20 000");
}
