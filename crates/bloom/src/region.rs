//! Word-region backings for Bloom matrix segments.
//!
//! A [`WordRegion`] is a run of `u64` words that one [`crate::Segment`]
//! of a [`crate::BloomMatrix`] reads its rows from:
//!
//! * `Heap` — words the segment owns. Built and decoded matrices are one
//!   heap segment; cloning a heap region copies its words, so two clones
//!   never share (or contend on) a buffer.
//! * `Mapped` — a window into an `mmap`'d arena file, borrowed with no
//!   decode and no copy;
//! * `Windowed` — a `pread`-on-demand window managed by a [`WindowPool`],
//!   charged against a [`MemoryBudget`] and evicted LRU under pressure,
//!   so an index larger than RAM still serves every query.
//!
//! Kernels read a region through a [`RegionGuard`]. Heap and mapped
//! regions lend their words as a plain borrow of the region (the mapping
//! lives as long as the region's `Arc`); only a windowed region hands out
//! the loaded window's `Arc`, so a concurrent eviction can drop the
//! *pool's* reference but never the words a guard is reading. Writes go
//! through [`WordRegion::to_mut`], which first copies a mapped or windowed
//! region into an owned `Heap` buffer — arena bytes are never written.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError, Weak};

use tind_model::{Charge, MemoryBudget};

/// A read-only memory-mapped file whose 64-byte-aligned sections can be
/// borrowed directly as `&[u64]`.
///
/// On unix this is a real `mmap(PROT_READ, MAP_PRIVATE)` — opening is
/// O(1) regardless of file size, and cold pages are paged in (and
/// reclaimed) by the kernel. Elsewhere the file is read into an aligned
/// heap buffer, preserving the API at the cost of residency.
#[derive(Debug)]
pub struct MmapFile {
    ptr: *const u8,
    len: usize,
    /// Heap fallback (non-unix): the buffer `ptr` points into.
    _fallback: Option<Vec<u64>>,
    /// Keeps the unix fd's file open for the mapping's lifetime.
    _file: Option<std::fs::File>,
}

// The mapping is immutable and read-only for its whole lifetime.
unsafe impl Send for MmapFile {}
unsafe impl Sync for MmapFile {}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub fn map_failed(p: *mut c_void) -> bool {
        p as isize == -1
    }
}

impl MmapFile {
    /// Maps `path` read-only. The whole file is visible immediately; no
    /// byte is read until a page is touched.
    pub fn map(path: &Path) -> io::Result<MmapFile> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "cannot map an empty file"));
        }
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if sys::map_failed(ptr) {
                return Err(io::Error::last_os_error());
            }
            Ok(MmapFile { ptr: ptr as *const u8, len, _fallback: None, _file: Some(file) })
        }
        #[cfg(not(unix))]
        {
            // Aligned heap fallback: read everything into a u64 buffer so
            // word views stay valid on platforms without mmap.
            use std::io::Read;
            let mut file = file;
            let mut raw = Vec::with_capacity(len);
            file.read_to_end(&mut raw)?;
            let mut words = vec![0u64; len.div_ceil(8)];
            unsafe {
                std::ptr::copy_nonoverlapping(raw.as_ptr(), words.as_mut_ptr() as *mut u8, len);
            }
            let ptr = words.as_ptr() as *const u8;
            Ok(MmapFile { ptr, len, _fallback: Some(words), _file: None })
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Borrows `len_words` words starting at `byte_off`, or `None` when
    /// the range is out of bounds or not 8-byte aligned. The mmap base is
    /// page-aligned, so an aligned file offset yields an aligned pointer.
    pub fn words_at(&self, byte_off: usize, len_words: usize) -> Option<&[u64]> {
        let byte_len = len_words.checked_mul(8)?;
        let end = byte_off.checked_add(byte_len)?;
        if end > self.len || !byte_off.is_multiple_of(8) {
            return None;
        }
        let ptr = unsafe { self.ptr.add(byte_off) } as *const u64;
        Some(unsafe { std::slice::from_raw_parts(ptr, len_words) })
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self._fallback.is_none() {
            unsafe {
                sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }
}

/// A file handle windows `pread` from; shared by every slot of one shard.
#[derive(Debug)]
pub struct WindowFile {
    file: std::fs::File,
    /// Serializes seek+read on platforms without positional reads.
    #[cfg(not(unix))]
    lock: Mutex<()>,
}

impl WindowFile {
    /// Opens `path` for positional reads.
    pub fn open(path: &Path) -> io::Result<WindowFile> {
        Ok(WindowFile {
            file: std::fs::File::open(path)?,
            #[cfg(not(unix))]
            lock: Mutex::new(()),
        })
    }

    /// Reads exactly `buf.len()` bytes at absolute offset `off`.
    pub fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, off)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let _guard = self.lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut f = &self.file;
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(buf)
        }
    }
}

/// Counters describing a [`WindowPool`]'s behavior, for metrics mirrors
/// and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Windows read from disk (cold loads, including re-loads after
    /// eviction).
    pub loads: u64,
    /// Windows evicted to make room under the memory budget.
    pub evictions: u64,
    /// Loads that exceeded the budget even after evicting everything
    /// evictable — served uncharged, because correctness beats accounting.
    pub overcommits: u64,
}

/// Shared manager for `pread`-on-demand windows: owns the memory budget
/// and the LRU registry used to evict cold windows under pressure.
#[derive(Debug)]
pub struct WindowPool {
    budget: Option<MemoryBudget>,
    slots: Mutex<Vec<Weak<WindowSlot>>>,
    tick: AtomicU64,
    loads: AtomicU64,
    evictions: AtomicU64,
    overcommits: AtomicU64,
}

impl WindowPool {
    /// Creates a pool; window bytes are charged against `budget` when
    /// one is given, and loads evict the coldest resident windows until
    /// the charge fits.
    pub fn new(budget: Option<MemoryBudget>) -> Arc<WindowPool> {
        Arc::new(WindowPool {
            budget,
            slots: Mutex::new(Vec::new()),
            tick: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            overcommits: AtomicU64::new(0),
        })
    }

    /// Registers a new window over `len_words` words at `byte_off` of
    /// `file`. Nothing is read until the first [`WindowSlot::load`].
    pub fn slot(
        self: &Arc<WindowPool>,
        file: Arc<WindowFile>,
        byte_off: u64,
        len_words: usize,
    ) -> Arc<WindowSlot> {
        let slot = Arc::new(WindowSlot {
            pool: Arc::clone(self),
            file,
            byte_off,
            len_words,
            resident: Mutex::new(None),
            last_used: AtomicU64::new(0),
        });
        lock(&self.slots).push(Arc::downgrade(&slot));
        slot
    }

    /// Point-in-time load/eviction/overcommit counters.
    pub fn stats(&self) -> WindowStats {
        WindowStats {
            loads: self.loads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            overcommits: self.overcommits.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently resident across all live windows.
    pub fn resident_bytes(&self) -> usize {
        self.live_slots()
            .iter()
            .filter(|s| lock(&s.resident).is_some())
            .map(|s| s.len_words * 8)
            .sum()
    }

    /// Snapshot of the live slots, taken under the registry lock and
    /// returned with it released. Lock order: a thread may hold one slot's
    /// `resident` lock (a loader holds its own) and then take `slots`, so
    /// nothing may *block* on a `resident` lock while holding `slots` —
    /// callers lock slots only after this returns.
    fn live_slots(&self) -> Vec<Arc<WindowSlot>> {
        let mut slots = lock(&self.slots);
        slots.retain(|w| w.strong_count() > 0);
        slots.iter().filter_map(Weak::upgrade).collect()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Charges `bytes`, evicting the coldest resident windows (other than
    /// `requester`) until the charge fits. `None` with `overcommit`
    /// counted means the budget can never cover this window — the load
    /// proceeds uncharged rather than failing the query.
    fn acquire(&self, bytes: usize, requester: *const WindowSlot) -> Option<Charge> {
        let budget = self.budget.as_ref()?;
        loop {
            if let Some(charge) = budget.try_charge(bytes) {
                return Some(charge);
            }
            if !self.evict_coldest(requester) {
                self.overcommits.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
    }

    /// Drops the least-recently-used resident window except `requester`;
    /// false when nothing is evictable.
    ///
    /// The caller is a loader holding its own slot's `resident` lock, so
    /// victims are only ever `try_lock`ed: a slot whose lock is taken is
    /// mid-load (or being read) — not cold — and two loaders each waiting
    /// for the other's slot would deadlock.
    fn evict_coldest(&self, requester: *const WindowSlot) -> bool {
        let mut candidates = self.live_slots();
        // Cached: other loaders bump `last_used` while this sorts, and a
        // key that moves mid-sort is not a total order.
        candidates.sort_by_cached_key(|s| s.last_used.load(Ordering::Relaxed));
        for slot in candidates.iter().filter(|s| Arc::as_ptr(s) != requester) {
            let mut resident = match slot.resident.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => continue,
            };
            // Dropping the Resident releases its Charge; a RegionGuard
            // still reading the old Arc keeps the words alive until it
            // finishes.
            if resident.take().is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

#[derive(Debug)]
struct Resident {
    words: Arc<Vec<u64>>,
    _charge: Option<Charge>,
}

/// One on-demand window: a fixed `(file, byte_off, len_words)` range
/// that loads lazily through its pool and may be evicted between uses.
#[derive(Debug)]
pub struct WindowSlot {
    pool: Arc<WindowPool>,
    file: Arc<WindowFile>,
    byte_off: u64,
    len_words: usize,
    resident: Mutex<Option<Resident>>,
    last_used: AtomicU64,
}

impl WindowSlot {
    /// Window length in words.
    pub fn len_words(&self) -> usize {
        self.len_words
    }

    /// Whether the window is currently resident.
    pub fn is_resident(&self) -> bool {
        lock(&self.resident).is_some()
    }

    /// Returns the window's words, reading them from disk if evicted.
    ///
    /// # Errors
    /// Propagates the positional read's I/O error; the window stays
    /// non-resident so a later load can retry.
    pub fn load(self: &Arc<WindowSlot>) -> io::Result<Arc<Vec<u64>>> {
        self.last_used.store(self.pool.next_tick(), Ordering::Relaxed);
        let mut resident = lock(&self.resident);
        if let Some(r) = resident.as_ref() {
            return Ok(Arc::clone(&r.words));
        }
        let bytes = self.len_words * 8;
        let charge = self.pool.acquire(bytes, Arc::as_ptr(self));
        let mut words = vec![0u64; self.len_words];
        let buf = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, bytes)
        };
        self.file.read_exact_at(buf, self.byte_off)?;
        #[cfg(target_endian = "big")]
        for w in &mut words {
            *w = u64::from_le(w.to_ne_bytes().iter().fold(0u64, |acc, &b| acc << 8 | u64::from(b)));
        }
        self.pool.loads.fetch_add(1, Ordering::Relaxed);
        let words = Arc::new(words);
        *resident = Some(Resident { words: Arc::clone(&words), _charge: charge });
        Ok(words)
    }
}

/// A run of `u64` words with one of three backings.
#[derive(Debug, Clone)]
pub enum WordRegion {
    /// Owned, resident words; a clone is a deep copy.
    Heap(Vec<u64>),
    /// A window into an mmap'd file (`byte_off` must be 8-byte aligned).
    Mapped {
        /// The mapping the window borrows from.
        file: Arc<MmapFile>,
        /// Absolute byte offset of the window's first word.
        byte_off: usize,
        /// Window length in words.
        len_words: usize,
    },
    /// A `pread`-on-demand window managed by a [`WindowPool`].
    Windowed(Arc<WindowSlot>),
}

impl WordRegion {
    /// Region length in words.
    pub fn len_words(&self) -> usize {
        match self {
            WordRegion::Heap(v) => v.len(),
            WordRegion::Mapped { len_words, .. } => *len_words,
            WordRegion::Windowed(slot) => slot.len_words(),
        }
    }

    /// Whether the region owns its words.
    pub fn is_heap(&self) -> bool {
        matches!(self, WordRegion::Heap(_))
    }

    /// Bytes of this region resident on the heap right now (mmap windows
    /// are the kernel's pages, not ours).
    pub fn resident_bytes(&self) -> usize {
        match self {
            WordRegion::Heap(v) => v.len() * 8,
            WordRegion::Mapped { .. } => 0,
            WordRegion::Windowed(slot) => {
                if slot.is_resident() {
                    slot.len_words() * 8
                } else {
                    0
                }
            }
        }
    }

    /// Pins the region's words for reading.
    ///
    /// # Panics
    /// Panics when a windowed backing's disk read fails or a mapped
    /// window is out of the mapping's bounds — search kernels have no
    /// error channel, and the serve layer quarantines the panic into a
    /// typed 500 rather than returning silently wrong results.
    pub fn load(&self) -> RegionGuard<'_> {
        match self {
            WordRegion::Heap(v) => RegionGuard(GuardInner::Borrowed(v)),
            WordRegion::Mapped { file, byte_off, len_words } => RegionGuard(GuardInner::Borrowed(
                file.words_at(*byte_off, *len_words)
                    .expect("mapped window must lie inside its validated arena"),
            )),
            WordRegion::Windowed(slot) => RegionGuard(GuardInner::Window(
                slot.load().unwrap_or_else(|e| panic!("window read failed: {e}")),
            )),
        }
    }

    /// The region's words for writing. A mapped or windowed region is
    /// first replaced by an owned `Heap` copy of its words, so the write
    /// lands in private memory, never in the file it was read from.
    ///
    /// # Panics
    /// As [`WordRegion::load`], when the copy's read fails.
    pub fn to_mut(&mut self) -> &mut [u64] {
        if !self.is_heap() {
            *self = WordRegion::Heap(self.load().to_vec());
        }
        let WordRegion::Heap(words) = self else { unreachable!("materialized above") };
        words
    }
}

#[derive(Debug)]
enum GuardInner<'a> {
    Borrowed(&'a [u64]),
    Window(Arc<Vec<u64>>),
}

/// Pins a [`WordRegion`]'s words (`Deref<Target = [u64]>`): a borrow of a
/// heap or mapped region, or the loaded window's `Arc`, so eviction or
/// drops elsewhere never invalidate it.
#[derive(Debug)]
pub struct RegionGuard<'a>(GuardInner<'a>);

impl std::ops::Deref for RegionGuard<'_> {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match &self.0 {
            GuardInner::Borrowed(words) => words,
            GuardInner::Window(words) => words,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Write;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tind-bloom-region-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name)
    }

    /// A file of `n` little-endian words `0, 10, 20, ...` with `pad`
    /// leading bytes of zeros.
    fn word_file(name: &str, n: usize, pad: usize) -> std::path::PathBuf {
        let words: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
        words_file(name, &words, pad)
    }

    /// A file of `words` in little-endian order after `pad` zero bytes.
    pub(crate) fn words_file(name: &str, words: &[u64], pad: usize) -> std::path::PathBuf {
        let path = scratch(name);
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(&vec![0u8; pad]).expect("pad");
        for w in words {
            f.write_all(&w.to_le_bytes()).expect("word");
        }
        f.sync_all().expect("sync");
        path
    }

    #[test]
    fn mmap_words_match_file_contents() {
        let path = word_file("map-basic.bin", 64, 64);
        let map = Arc::new(MmapFile::map(&path).expect("map"));
        assert_eq!(map.len(), 64 + 64 * 8);
        let words = map.words_at(64, 64).expect("aligned in-bounds window");
        assert_eq!(words[0], 0);
        assert_eq!(words[63], 630);
        // Misaligned and out-of-bounds windows are refused.
        assert!(map.words_at(63, 4).is_none(), "misaligned offset");
        assert!(map.words_at(64, 65).is_none(), "past the end");
        let region =
            WordRegion::Mapped { file: Arc::clone(&map), byte_off: 64 + 8, len_words: 3 };
        let guard = region.load();
        assert_eq!(&*guard, &[10, 20, 30]);
        assert_eq!(region.resident_bytes(), 0, "mapped windows are not heap-resident");
    }

    #[test]
    fn windowed_loads_evict_under_budget_and_stay_correct() {
        let path = word_file("window-evict.bin", 128, 0);
        // Budget covers exactly one 32-word window at a time.
        let pool = WindowPool::new(Some(MemoryBudget::new(32 * 8)));
        let file = Arc::new(WindowFile::open(&path).expect("open"));
        let a = pool.slot(Arc::clone(&file), 0, 32);
        let b = pool.slot(Arc::clone(&file), 32 * 8, 32);

        let wa = a.load().expect("load a");
        assert_eq!(wa[0], 0);
        assert!(a.is_resident());
        // Loading b must evict a (the only other resident window).
        let wb = b.load().expect("load b");
        assert_eq!(wb[0], 320);
        assert!(!a.is_resident(), "a evicted to fit b");
        // The guard-style Arc from before eviction still reads fine.
        assert_eq!(wa[31], 310);
        // Reloading a evicts b and re-reads identical words.
        let wa2 = a.load().expect("reload a");
        assert_eq!(&*wa2, &*wa);
        let stats = pool.stats();
        assert_eq!(stats.loads, 3);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.overcommits, 0);
    }

    #[test]
    fn window_too_large_for_budget_overcommits_instead_of_failing() {
        let path = word_file("window-overcommit.bin", 64, 0);
        let pool = WindowPool::new(Some(MemoryBudget::new(8)));
        let file = Arc::new(WindowFile::open(&path).expect("open"));
        let slot = pool.slot(file, 0, 64);
        let words = slot.load().expect("overcommitted load still succeeds");
        assert_eq!(words[5], 50);
        assert_eq!(pool.stats().overcommits, 1);
    }

    #[test]
    fn unbudgeted_pool_never_evicts() {
        let path = word_file("window-unbudgeted.bin", 96, 0);
        let pool = WindowPool::new(None);
        let file = Arc::new(WindowFile::open(&path).expect("open"));
        let slots: Vec<_> = (0..3).map(|i| pool.slot(Arc::clone(&file), i * 32 * 8, 32)).collect();
        for s in &slots {
            s.load().expect("load");
        }
        assert!(slots.iter().all(|s| s.is_resident()));
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(pool.resident_bytes(), 3 * 32 * 8);
    }

    #[test]
    fn concurrent_loaders_under_a_one_slot_budget_never_deadlock() {
        // 8 loaders over 4 windows with room for one: every load evicts.
        // A loader holds its own slot's lock while it looks for a victim;
        // if it ever waits on another slot's lock, two loaders wait on
        // each other (ABBA) and this test dies by the watchdog.
        let path = word_file("window-stress.bin", 4 * 32, 0);
        let pool = WindowPool::new(Some(MemoryBudget::new(32 * 8)));
        let file = Arc::new(WindowFile::open(&path).expect("open"));
        let slots: Vec<_> =
            (0..4).map(|i| pool.slot(Arc::clone(&file), i * 32 * 8, 32)).collect();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let start = Arc::new(std::sync::Barrier::new(8));
        let workers: Vec<_> = (0..8usize)
            .map(|t| {
                let (slots, pool, done) = (slots.clone(), Arc::clone(&pool), done_tx.clone());
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..4000usize {
                        let s = (i * 7 + t * 3) % 4;
                        let words = slots[s].load().expect("load");
                        assert_eq!(words[1], (s as u64 * 32 + 1) * 10, "window {s} contents");
                        if i % 64 == 0 {
                            assert!(pool.resident_bytes() <= 4 * 32 * 8);
                        }
                    }
                    done.send(()).expect("watchdog alive");
                })
            })
            .collect();
        for _ in 0..workers.len() {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("window loaders deadlocked");
        }
        for w in workers {
            w.join().expect("loader panicked");
        }
        let stats = pool.stats();
        assert!(stats.evictions > 0, "the budget must have forced evictions: {stats:?}");
    }

    #[test]
    fn heap_region_roundtrip() {
        let region = WordRegion::Heap(vec![7, 8, 9]);
        assert_eq!(region.len_words(), 3);
        assert_eq!(region.resident_bytes(), 24);
        assert_eq!(&*region.load(), &[7, 8, 9]);
        // A clone owns its own words: writing one leaves the other alone.
        let mut copy = region.clone();
        copy.to_mut()[0] = 70;
        assert_eq!(&*region.load(), &[7, 8, 9]);
        assert_eq!(&*copy.load(), &[70, 8, 9]);
    }
}
