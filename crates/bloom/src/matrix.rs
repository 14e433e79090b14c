//! The Bloom filter matrix: MANY's candidate index (Section 4.1).
//!
//! An `m × |D|` bit matrix whose `j`-th *column* is the Bloom filter of
//! attribute `j`'s value set, stored row-major so a query touches whole
//! rows:
//!
//! * **Superset candidates** (who may contain `Q`): AND together the rows
//!   where `h(Q)` is 1. A column that survives has every query bit set.
//! * **Subset candidates** (who may be contained in `Q`): AND together the
//!   *complements* of the rows where `h(Q)` is 0. A column that survives has
//!   no bit outside `h(Q)`.
//!
//! ## Storage backings
//!
//! A matrix is always a tiling of its row width by column-range
//! **segments** ([`Segment`]), each holding the row-major words of its
//! columns in a [`WordRegion`]: owned heap words, an mmap'd arena window,
//! or a `pread`-on-demand window. A built or decoded matrix is one
//! full-width heap segment; the arena store opens one segment per shard.
//! Every kernel has one body over that tiling and produces bit-identical
//! candidate sets on any of them. Writes copy only what they touch:
//! [`BloomMatrix::retarget_column`] turns the one segment holding its
//! column into heap words and flips bits there, while
//! [`BloomMatrix::grow_cols`] re-lays the whole matrix out as one heap
//! segment.

use crate::bitvec::BitVec;
use crate::filter::BloomFilter;
use crate::region::{RegionGuard, WordRegion};
use tind_model::hash::Hash128;
use tind_model::ValueId;

/// One column-range slice of a matrix: `width` words of every row
/// (columns `64·word_start .. 64·(word_start+width)`), stored row-major
/// inside a [`WordRegion`] of exactly `m × width` words.
#[derive(Debug, Clone)]
pub struct Segment {
    /// First word column this segment covers.
    pub word_start: usize,
    /// Words per row in this segment.
    pub width: usize,
    /// The segment's `m × width` row-major words.
    pub words: WordRegion,
}

/// An immutable `m × num_cols` Bloom filter matrix.
///
/// # Examples
///
/// ```
/// use tind_bloom::{BitVec, BloomMatrixBuilder};
///
/// let mut builder = BloomMatrixBuilder::new(512, 2, 2);
/// builder.insert_column(0, &[1, 2, 3]);
/// builder.insert_column(1, &[100, 200]);
/// let matrix = builder.build();
///
/// // Which columns may contain {1, 2}? Only column 0.
/// let query = matrix.query_filter(&[1, 2]);
/// let mut candidates = BitVec::ones(2);
/// matrix.narrow_to_supersets(&query, &mut candidates);
/// assert!(candidates.get(0));
/// assert!(!candidates.get(1));
/// ```
#[derive(Debug, Clone)]
pub struct BloomMatrix {
    m: u32,
    num_cols: usize,
    k_hashes: u32,
    words_per_row: usize,
    /// Sorted by `word_start`, tiling `0..words_per_row` contiguously.
    segments: Vec<Segment>,
}

/// Mutable assembly stage for a [`BloomMatrix`]: plain row-major words.
#[derive(Debug)]
pub struct BloomMatrixBuilder {
    m: u32,
    num_cols: usize,
    k_hashes: u32,
    words_per_row: usize,
    rows: Vec<u64>,
}

impl BloomMatrixBuilder {
    /// Creates an all-zero matrix of `m` rows and `num_cols` columns.
    ///
    /// # Panics
    /// Panics if `m == 0` or `k_hashes == 0`.
    pub fn new(m: u32, num_cols: usize, k_hashes: u32) -> Self {
        assert!(m > 0, "matrix needs at least one row");
        assert!(k_hashes > 0, "need at least one hash probe");
        let words_per_row = num_cols.div_ceil(64);
        BloomMatrixBuilder {
            m,
            num_cols,
            k_hashes,
            words_per_row,
            rows: vec![0u64; m as usize * words_per_row],
        }
    }

    /// Inserts `values` into column `col` (the attribute's Bloom filter).
    /// May be called repeatedly for the same column; bits accumulate.
    pub fn insert_column(&mut self, col: usize, values: &[ValueId]) {
        assert!(col < self.num_cols, "column {col} out of range");
        let (m, k, words_per_row) = (self.m, self.k_hashes, self.words_per_row);
        let (word, bit) = (col / 64, col % 64);
        for &v in values {
            let h = Hash128::of_key(u64::from(v));
            for i in 0..k {
                let row = h.probe(i, m) as usize;
                self.rows[row * words_per_row + word] |= 1u64 << bit;
            }
        }
    }

    /// Finalizes the matrix as one full-width heap segment.
    pub fn build(self) -> BloomMatrix {
        BloomMatrix::from_rows(self.m, self.num_cols, self.k_hashes, self.rows)
    }

    /// ORs a pre-built 64-column strip into word-block `block` (columns
    /// `64·block .. 64·block + 64`). Bit-identical to having called
    /// [`BloomMatrixBuilder::insert_column`] for each of the strip's lanes:
    /// every lane's probes land in exactly the same `(row, bit)` positions,
    /// and because the merge is a pure OR of disjoint word columns, the
    /// order in which strips are merged is irrelevant. This is what makes
    /// parallel index construction byte-identical to the sequential build.
    ///
    /// Lanes that would fall past `num_cols` (a ragged final block) are
    /// masked off.
    pub fn merge_strip(&mut self, block: usize, strip: &BloomColumnStrip) {
        assert!(block < self.words_per_row, "block {block} out of range");
        assert_eq!(strip.m, self.m, "strip row count must match matrix");
        assert_eq!(strip.k_hashes, self.k_hashes, "strip probe count must match matrix");
        let lanes = self.num_cols - block * 64;
        let mask = if lanes >= 64 { u64::MAX } else { (1u64 << lanes) - 1 };
        let words_per_row = self.words_per_row;
        for (row, &w) in strip.words.iter().enumerate() {
            self.rows[row * words_per_row + block] |= w & mask;
        }
    }
}

/// A standalone strip of up to 64 Bloom-matrix columns (`m` rows × one
/// `u64` of column lanes), built independently of the full matrix so column
/// blocks can be populated by parallel workers and positionally merged with
/// [`BloomMatrixBuilder::merge_strip`].
#[derive(Debug, Clone)]
pub struct BloomColumnStrip {
    m: u32,
    k_hashes: u32,
    words: Vec<u64>,
}

impl BloomColumnStrip {
    /// Creates an all-zero strip compatible with an `(m, k_hashes)` matrix.
    ///
    /// # Panics
    /// Panics if `m == 0` or `k_hashes == 0`.
    pub fn new(m: u32, k_hashes: u32) -> Self {
        assert!(m > 0, "strip needs at least one row");
        assert!(k_hashes > 0, "need at least one hash probe");
        BloomColumnStrip { m, k_hashes, words: vec![0u64; m as usize] }
    }

    /// Inserts `values` into column lane `lane` (`0..64`); bits accumulate,
    /// exactly like [`BloomMatrixBuilder::insert_column`].
    pub fn insert_lane(&mut self, lane: usize, values: &[ValueId]) {
        assert!(lane < 64, "lane {lane} out of range");
        let m = self.m;
        for &v in values {
            let h = Hash128::of_key(u64::from(v));
            for i in 0..self.k_hashes {
                let row = h.probe(i, m) as usize;
                self.words[row] |= 1u64 << lane;
            }
        }
    }

    /// Zeroes every lane so a worker can reuse the buffer for its next
    /// column block instead of allocating a fresh strip per work unit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Heap bytes held by the strip (one word per row) — the scratch a
    /// parallel build worker charges against a memory budget.
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Reconstitutes a strip from raw row words (one `u64` of column lanes
    /// per row), the inverse of [`BloomColumnStrip::words`]. Used by the
    /// sharded index store, which persists strips as plain word arrays.
    ///
    /// # Panics
    /// Panics if `m == 0`, `k_hashes == 0`, or `words.len() != m`.
    pub fn from_words(m: u32, k_hashes: u32, words: Vec<u64>) -> Self {
        assert!(m > 0, "strip needs at least one row");
        assert!(k_hashes > 0, "need at least one hash probe");
        assert_eq!(words.len(), m as usize, "one word of lanes per row");
        BloomColumnStrip { m, k_hashes, words }
    }

    /// The strip's raw row words: element `r` holds the 64 column lanes of
    /// row `r`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl BloomMatrix {
    /// Number of rows `m` (the Bloom filter size).
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Number of columns (attributes).
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Hash probes per value.
    pub fn k_hashes(&self) -> u32 {
        self.k_hashes
    }

    /// The one-segment heap tiling of row-major `rows`.
    fn from_rows(m: u32, num_cols: usize, k_hashes: u32, rows: Vec<u64>) -> Self {
        let words_per_row = num_cols.div_ceil(64);
        debug_assert_eq!(rows.len(), m as usize * words_per_row);
        let segments =
            vec![Segment { word_start: 0, width: words_per_row, words: WordRegion::Heap(rows) }];
        BloomMatrix { m, num_cols, k_hashes, words_per_row, segments }
    }

    /// Assembles a matrix from column-range segments — the zero-copy open
    /// path of the arena store. Segments may arrive in any order but must
    /// tile the row width exactly: sorted by `word_start` they must be
    /// contiguous from word 0 through `num_cols.div_ceil(64)`, and each
    /// must hold `m × width` words.
    ///
    /// # Panics
    /// Panics on degenerate dimensions or a gap / overlap / length
    /// mismatch in the segment tiling.
    pub fn from_segments(
        m: u32,
        num_cols: usize,
        k_hashes: u32,
        mut segments: Vec<Segment>,
    ) -> Self {
        assert!(m > 0, "matrix needs at least one row");
        assert!(k_hashes > 0, "need at least one hash probe");
        let words_per_row = num_cols.div_ceil(64);
        segments.sort_by_key(|s| s.word_start);
        let mut expect = 0usize;
        for seg in &segments {
            assert_eq!(seg.word_start, expect, "segments must tile the row width contiguously");
            assert!(seg.width > 0, "segment must cover at least one word");
            assert_eq!(
                seg.words.len_words(),
                m as usize * seg.width,
                "segment must hold m × width words"
            );
            expect += seg.width;
        }
        assert_eq!(expect, words_per_row, "segments must cover the full row width");
        BloomMatrix { m, num_cols, k_hashes, words_per_row, segments }
    }

    /// Whether the matrix owns all its words (every segment is heap).
    pub fn is_owned(&self) -> bool {
        self.segments.iter().all(|s| s.words.is_heap())
    }

    /// Materializes borrowed segments into one owned heap segment; a no-op
    /// when every segment already owns its words.
    pub fn ensure_owned(&mut self) {
        if !self.is_owned() {
            self.relayout(self.num_cols);
        }
    }

    /// Copies every segment into one heap segment of `num_cols` columns
    /// (at least the current count; appended columns are zero).
    fn relayout(&mut self, num_cols: usize) {
        let words_per_row = num_cols.div_ceil(64);
        let mut rows = vec![0u64; self.m as usize * words_per_row];
        for seg in &self.segments {
            let guard = seg.words.load();
            for row in 0..self.m as usize {
                rows[row * words_per_row + seg.word_start..][..seg.width]
                    .copy_from_slice(&guard[row * seg.width..][..seg.width]);
            }
        }
        *self = BloomMatrix::from_rows(self.m, num_cols, self.k_hashes, rows);
    }

    /// Index of the segment covering word column `word`.
    #[inline]
    fn segment_index(&self, word: usize) -> usize {
        let idx = self.segments.partition_point(|s| s.word_start + s.width <= word);
        debug_assert!(word >= self.segments[idx].word_start);
        idx
    }

    /// The segment holding word column `word`: its pinned words, its
    /// width, and `word`'s position within each of its rows.
    #[inline]
    fn column_words(&self, word: usize) -> (RegionGuard<'_>, usize, usize) {
        let seg = &self.segments[self.segment_index(word)];
        (seg.words.load(), seg.width, word - seg.word_start)
    }

    /// Hashes a value set into a query filter compatible with this matrix.
    pub fn query_filter(&self, values: &[ValueId]) -> BloomFilter {
        BloomFilter::from_values(values, self.m, self.k_hashes)
    }

    /// Narrows `candidates` to columns that may be **supersets** of the
    /// queried value set: `candidates &= ⋀_{r: h(Q)[r]=1} M[r]`.
    ///
    /// No false negatives: a column whose value set truly contains the query
    /// set is never cleared.
    pub fn narrow_to_supersets(&self, query: &BloomFilter, candidates: &mut BitVec) {
        self.check_query(query, candidates);
        self.narrow(|| query.set_rows(), candidates, BitVec::and_assign_words_at);
    }

    /// [`BloomMatrix::narrow_to_supersets`] of `query_filter(values)`,
    /// without building the filter: the same rows in value order, each
    /// value hashed only while candidates remain. A probe whose candidates
    /// die after the first few values never pays for the rest — and
    /// allocates nothing. Each segment hashes afresh, so this suits a
    /// one-segment (built) matrix best.
    pub fn narrow_to_supersets_of_values(&self, values: &[ValueId], candidates: &mut BitVec) {
        assert_eq!(candidates.len(), self.num_cols, "candidate set must cover all columns");
        let (m, k) = (self.m, self.k_hashes);
        let rows = || {
            values.iter().flat_map(move |&v| {
                let h = Hash128::of_key(u64::from(v));
                (0..k).map(move |i| h.probe(i, m) as usize)
            })
        };
        self.narrow(rows, candidates, BitVec::and_assign_words_at);
    }

    /// Narrows `candidates` to columns that may be **subsets** of the
    /// queried value set: `candidates &= ⋀_{r: h(Q)[r]=0} ¬M[r]`.
    pub fn narrow_to_subsets(&self, query: &BloomFilter, candidates: &mut BitVec) {
        self.check_query(query, candidates);
        self.narrow(|| query.zero_rows(), candidates, BitVec::andnot_assign_words_at);
    }

    /// The single-query sweep: for each segment, combine the query's `rows`
    /// into the candidate words it covers. AND and AND-NOT keep zero words
    /// zero, so a segment whose candidate words are all zero is skipped
    /// before its backing is pinned, and its row loop stops once they
    /// become zero — on a one-segment matrix exactly the classic per-row
    /// early exit.
    fn narrow<R: Iterator<Item = usize>>(
        &self,
        rows: impl Fn() -> R,
        candidates: &mut BitVec,
        combine: impl Fn(&mut BitVec, usize, &[u64]),
    ) {
        for seg in &self.segments {
            let (start, width) = (seg.word_start, seg.width);
            if !live(candidates, start, width) {
                continue;
            }
            let guard = seg.words.load();
            let words = &*guard;
            for row in rows() {
                combine(candidates, start, &words[row * width..][..width]);
                if !live(candidates, start, width) {
                    break;
                }
            }
        }
    }

    /// Batched [`BloomMatrix::narrow_to_supersets`]: narrows one candidate
    /// set per query in a word-blocked sweep of the matrix.
    ///
    /// The candidate width is walked in fixed word strips and every query
    /// narrows its strip words before the sweep advances, so all row and
    /// candidate traffic stays within one column slice of the matrix at a
    /// time — the batch amortization of §4.2.2: on matrices too large for
    /// cache, a strip's column slice is fetched once per batch instead of
    /// re-streamed per query. Produces bit-identical candidate sets to the
    /// per-query loop (a query whose filter has no set rows — e.g. an
    /// empty value set — narrows nothing, matching the single-query
    /// path).
    pub fn narrow_batch_to_supersets(&self, queries: &[BloomFilter], candidates: &mut [BitVec]) {
        self.narrow_batch(queries, candidates, false);
    }

    /// Batched [`BloomMatrix::narrow_to_subsets`]; same blocked sweep over
    /// the complemented rows (the rows where each query's filter is zero).
    pub fn narrow_batch_to_subsets(&self, queries: &[BloomFilter], candidates: &mut [BitVec]) {
        self.narrow_batch(queries, candidates, true);
    }

    fn narrow_batch(&self, queries: &[BloomFilter], candidates: &mut [BitVec], complement: bool) {
        assert_eq!(queries.len(), candidates.len(), "one candidate set per query");
        for (query, cands) in queries.iter().zip(candidates.iter()) {
            self.check_query(query, cands);
        }
        // Strip width: 8 words = one 64-byte cache line of candidate bits.
        const STRIP_WORDS: usize = 8;
        // Strips never straddle a segment, so each backing is pinned at
        // most once per batch — and not at all when no query has a live
        // candidate word in it.
        for seg in &self.segments {
            let (start, width) = (seg.word_start, seg.width);
            if !candidates.iter().any(|c| live(c, start, width)) {
                continue;
            }
            let guard = seg.words.load();
            let words = &*guard;
            let mut local_start = 0;
            while local_start < width {
                let local_end = (local_start + STRIP_WORDS).min(width);
                let off = start + local_start;
                let len = local_end - local_start;
                for (query, c) in queries.iter().zip(candidates.iter_mut()) {
                    // The blocked analogue of the single-query early exit:
                    // skip a dead strip, stop once the strip dies.
                    if !live(c, off, len) {
                        continue;
                    }
                    let strip_row =
                        |row: usize| &words[row * width + local_start..row * width + local_end];
                    if complement {
                        for row in query.zero_rows() {
                            c.andnot_assign_words_at(off, strip_row(row));
                            if !live(c, off, len) {
                                break;
                            }
                        }
                    } else {
                        for row in query.set_rows() {
                            c.and_assign_words_at(off, strip_row(row));
                            if !live(c, off, len) {
                                break;
                            }
                        }
                    }
                }
                local_start = local_end;
            }
        }
    }

    #[inline]
    fn check_query(&self, query: &BloomFilter, candidates: &BitVec) {
        assert_eq!(query.m(), self.m, "query filter size must match matrix rows");
        assert_eq!(query.k_hashes(), self.k_hashes, "query probe count must match matrix");
        assert_eq!(candidates.len(), self.num_cols, "candidate set must cover all columns");
    }

    /// Whether column `col`'s filter may contain all `values`
    /// (per-candidate check without materializing the column).
    pub fn column_may_contain_all(&self, col: usize, values: &[ValueId]) -> bool {
        debug_assert!(col < self.num_cols);
        let (guard, width, local) = self.column_words(col / 64);
        let (words, bit) = (&*guard, col % 64);
        for &v in values {
            let h = Hash128::of_key(u64::from(v));
            for i in 0..self.k_hashes {
                let row = h.probe(i, self.m) as usize;
                if words[row * width + local] >> bit & 1 == 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Whether every set bit of column `col` lies within `filter` — the
    /// per-candidate subset-direction test (equivalent to surviving
    /// [`BloomMatrix::narrow_to_subsets`], but O(m) per column instead of
    /// O(zero-bits · |D|/64) for the whole matrix).
    pub fn column_within_filter(&self, col: usize, filter: &BloomFilter) -> bool {
        debug_assert!(col < self.num_cols);
        debug_assert_eq!(filter.m(), self.m);
        let (guard, width, local) = self.column_words(col / 64);
        let (words, bit) = (&*guard, col % 64);
        (0..self.m as usize)
            .all(|row| words[row * width + local] >> bit & 1 == 0 || filter.bits().get(row))
    }

    /// Extracts column `col` as a standalone Bloom filter (diagnostics and
    /// reverse-search violation checks).
    pub fn column_filter(&self, col: usize) -> BloomFilter {
        debug_assert!(col < self.num_cols);
        let (guard, width, local) = self.column_words(col / 64);
        let (words, bit) = (&*guard, col % 64);
        let mut f = BloomFilter::new(self.m, self.k_hashes);
        for row in 0..self.m as usize {
            if words[row * width + local] >> bit & 1 == 1 {
                f.set_raw_bit(row);
            }
        }
        f
    }

    /// Set bits over all `m × num_cols` cells — equal to
    /// `Σ_c column_filter(c).count_ones()`, computed as one popcount pass
    /// over the row words instead of a gather per column. Lanes of a
    /// ragged final word past `num_cols` are excluded, so stray padding
    /// bits in a borrowed backing never count.
    pub fn count_ones(&self) -> usize {
        let padding = match self.num_cols % 64 {
            0 => 0,
            lanes => u64::MAX << lanes,
        };
        let mut ones = 0;
        for seg in &self.segments {
            let words = seg.words.load();
            ones += words.iter().map(|w| w.count_ones() as usize).sum::<usize>();
            // Minus padding bits set in the rows of the segment that ends
            // on the matrix's final word column.
            if padding != 0 && seg.word_start + seg.width == self.words_per_row {
                let stray = words.chunks_exact(seg.width).map(|r| r[seg.width - 1] & padding);
                ones -= stray.map(|w| w.count_ones() as usize).sum::<usize>();
            }
        }
        ones
    }

    /// Heap bytes *resident* for the row storage — the `(k+1)·|D|·m / 8`
    /// of the paper's memory-tradeoff discussion (Section 4.2.2) for an
    /// owned matrix. Borrowed segments report only what is currently on
    /// our heap: mmap'd windows are the kernel's pages (0 here) and `pread`
    /// windows count only while resident — those bytes are charged to the
    /// `MemoryBudget` by the window pool itself.
    pub fn heap_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.words.resident_bytes()).sum()
    }

    /// Extracts word-block `block` (columns `64·block .. 64·block + 64`) as
    /// a standalone strip — the exact inverse of
    /// [`BloomMatrixBuilder::merge_strip`], so
    /// `merge_strip(b, &extract_strip(b))` on an all-zero builder
    /// reproduces the block bit-for-bit. The sharded index store uses this
    /// to slice a built matrix into per-shard payloads.
    ///
    /// # Panics
    /// Panics if `block` is past the matrix's word width.
    pub fn extract_strip(&self, block: usize) -> BloomColumnStrip {
        assert!(block < self.words_per_row, "block {block} out of range");
        let (guard, width, local) = self.column_words(block);
        let words = &*guard;
        let lanes = (0..self.m as usize).map(|row| words[row * width + local]).collect();
        BloomColumnStrip { m: self.m, k_hashes: self.k_hashes, words: lanes }
    }

    /// Retargets column `col` from the filter it holds (`old`) to `new` —
    /// the in-place update primitive of the delta path. Only the rows where
    /// the two filters differ are flipped, so the cost is the size of the
    /// change, not of the column, and bits the superseded contents set are
    /// cleared as well as new ones set: the column ends up exactly as a
    /// cold build from `new`'s value set would leave it. `old == new`
    /// writes nothing (a borrowed segment is not even materialized).
    ///
    /// The caller vouches that the column currently equals `old` — true
    /// whenever a column is a pure function of data the caller still holds
    /// (see `tind_core::delta`); a debug build asserts it for every flipped
    /// bit. Only the segment holding the column is written: a borrowed one
    /// is first copied into heap words of its own, so arena bytes are never
    /// written through and every other segment stays as it was.
    ///
    /// # Panics
    /// Panics if `col` is out of range or a filter's `(m, k_hashes)`
    /// disagree with the matrix.
    pub fn retarget_column(&mut self, col: usize, old: &BloomFilter, new: &BloomFilter) {
        assert!(col < self.num_cols, "column {col} out of range");
        for f in [old, new] {
            assert_eq!(f.m(), self.m, "filter size must match matrix rows");
            assert_eq!(f.k_hashes(), self.k_hashes, "filter probe count must match matrix");
        }
        if old == new {
            return;
        }
        let lane = 1u64 << (col % 64);
        let idx = self.segment_index(col / 64);
        let seg = &mut self.segments[idx];
        let (width, local) = (seg.width, col / 64 - seg.word_start);
        let words = seg.words.to_mut();
        for (i, (&o, &n)) in old.bits().words().iter().zip(new.bits().words()).enumerate() {
            let mut flips = o ^ n;
            while flips != 0 {
                let bit = flips.trailing_zeros() as usize;
                flips &= flips - 1;
                let cell = &mut words[(i * 64 + bit) * width + local];
                debug_assert_eq!(
                    *cell & lane != 0,
                    o >> bit & 1 == 1,
                    "column {col} row {} did not hold the old filter",
                    i * 64 + bit
                );
                *cell ^= lane;
            }
        }
    }

    /// Widens the matrix to `new_num_cols` columns; appended columns start
    /// all-zero and existing column bits are preserved row by row. Used by
    /// the delta path when a revision batch introduces new attributes. The
    /// result is one heap segment: a matrix of any other tiling, or one
    /// whose word width grows, is re-laid out first.
    ///
    /// # Panics
    /// Panics if `new_num_cols < num_cols` (matrices only grow).
    pub fn grow_cols(&mut self, new_num_cols: usize) {
        assert!(new_num_cols >= self.num_cols, "matrices only grow");
        if new_num_cols.div_ceil(64) != self.words_per_row
            || self.segments.len() != 1
            || !self.is_owned()
        {
            self.relayout(new_num_cols);
        }
        self.num_cols = new_num_cols;
    }

    /// Serializes the matrix (for index persistence). Byte-identical
    /// across tilings: the words go out row by row, left to right.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        use tind_model::binio::put_varint;
        put_varint(buf, u64::from(self.m));
        put_varint(buf, self.num_cols as u64);
        put_varint(buf, u64::from(self.k_hashes));
        let guards: Vec<_> = self.segments.iter().map(|s| (s.words.load(), s.width)).collect();
        for row in 0..self.m as usize {
            for (guard, width) in &guards {
                for &w in &guard[row * width..][..*width] {
                    buf.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
    }

    /// Deserializes a matrix written by [`BloomMatrix::encode`].
    pub fn decode(
        buf: &mut tind_model::binio::Reader<'_>,
    ) -> Result<Self, tind_model::binio::BinIoError> {
        use tind_model::binio::BinIoError;
        let m = u32::try_from(buf.varint()?)
            .map_err(|_| BinIoError::Corrupt("matrix m overflow".into()))?;
        let num_cols = buf.varint()? as usize;
        let k_hashes = u32::try_from(buf.varint()?)
            .map_err(|_| BinIoError::Corrupt("matrix k overflow".into()))?;
        if m == 0 || k_hashes == 0 {
            return Err(BinIoError::Corrupt("degenerate matrix dimensions".into()));
        }
        let words_per_row = num_cols.div_ceil(64);
        let total_bytes = (m as usize)
            .checked_mul(words_per_row)
            .and_then(|words| words.checked_mul(8))
            .ok_or_else(|| BinIoError::Corrupt("matrix size overflow".into()))?;
        let rows = buf
            .bytes(total_bytes, "matrix rows")?
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect();
        Ok(BloomMatrix::from_rows(m, num_cols, k_hashes, rows))
    }
}

/// Whether any of `c`'s words `start .. start + len` is nonzero.
#[inline]
fn live(c: &BitVec, start: usize, len: usize) -> bool {
    c.words()[start..start + len].iter().any(|&w| w != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::tests::words_file;
    use crate::region::{MmapFile, WindowFile, WindowPool};
    use std::sync::Arc;

    /// Three attributes: 0 = {0..10}, 1 = {0..5}, 2 = {100..110}.
    fn sample_matrix(m: u32) -> BloomMatrix {
        let mut b = BloomMatrixBuilder::new(m, 3, 2);
        let a0: Vec<ValueId> = (0..10).collect();
        let a1: Vec<ValueId> = (0..5).collect();
        let a2: Vec<ValueId> = (100..110).collect();
        b.insert_column(0, &a0);
        b.insert_column(1, &a1);
        b.insert_column(2, &a2);
        b.build()
    }

    #[test]
    fn superset_search_finds_true_supersets() {
        let m = sample_matrix(1024);
        let query: Vec<ValueId> = (0..5).collect();
        let qf = m.query_filter(&query);
        let mut cands = BitVec::ones(3);
        m.narrow_to_supersets(&qf, &mut cands);
        assert!(cands.get(0), "0..10 contains 0..5");
        assert!(cands.get(1), "0..5 contains itself");
        assert!(!cands.get(2), "100..110 disjoint (bloom should prune at this size)");
    }

    #[test]
    fn subset_search_finds_true_subsets() {
        let m = sample_matrix(1024);
        let query: Vec<ValueId> = (0..10).collect();
        let qf = m.query_filter(&query);
        let mut cands = BitVec::ones(3);
        m.narrow_to_subsets(&qf, &mut cands);
        assert!(cands.get(0));
        assert!(cands.get(1));
        assert!(!cands.get(2));
    }

    #[test]
    fn no_false_negatives_even_with_tiny_filters() {
        // With m = 8 there will be many collisions, but a true superset can
        // never be pruned.
        let m = sample_matrix(8);
        let query: Vec<ValueId> = (0..10).collect();
        let qf = m.query_filter(&query);
        let mut cands = BitVec::ones(3);
        m.narrow_to_supersets(&qf, &mut cands);
        assert!(cands.get(0), "true superset survived");
    }

    #[test]
    fn column_may_contain_all_matches_column_semantics() {
        let m = sample_matrix(2048);
        assert!(m.column_may_contain_all(0, &[0, 5, 9]));
        assert!(m.column_may_contain_all(1, &[0, 4]));
        assert!(!m.column_may_contain_all(1, &[0, 4, 99]));
        assert!(!m.column_may_contain_all(2, &[0]));
        assert!(m.column_may_contain_all(2, &[105]));
    }

    #[test]
    fn column_within_filter_matches_subset_search() {
        let m = sample_matrix(512);
        for query in [(0u32..10).collect::<Vec<_>>(), (0..5).collect(), (100..110).collect()] {
            let qf = m.query_filter(&query);
            let mut cands = BitVec::ones(3);
            m.narrow_to_subsets(&qf, &mut cands);
            for col in 0..3 {
                assert_eq!(
                    m.column_within_filter(col, &qf),
                    cands.get(col),
                    "probe and row mode disagree on column {col} for query {query:?}"
                );
            }
        }
    }

    #[test]
    fn column_filter_roundtrip() {
        let m = sample_matrix(256);
        let col0 = m.column_filter(0);
        let direct = BloomFilter::from_values(&(0..10).collect::<Vec<_>>(), 256, 2);
        assert_eq!(col0, direct);
    }

    #[test]
    fn empty_query_keeps_all_superset_candidates() {
        let m = sample_matrix(512);
        let qf = m.query_filter(&[]);
        let mut cands = BitVec::ones(3);
        m.narrow_to_supersets(&qf, &mut cands);
        assert_eq!(cands.count_ones(), 3, "empty set contained everywhere");
    }

    #[test]
    fn incremental_column_insertion_accumulates() {
        let mut b = BloomMatrixBuilder::new(512, 1, 2);
        b.insert_column(0, &[1, 2]);
        b.insert_column(0, &[3]);
        let m = b.build();
        assert!(m.column_may_contain_all(0, &[1, 2, 3]));
    }

    #[test]
    fn many_columns_across_word_boundaries() {
        let n = 200;
        let mut b = BloomMatrixBuilder::new(1024, n, 2);
        for col in 0..n {
            b.insert_column(col, &[col as ValueId, (col + 1) as ValueId]);
        }
        let m = b.build();
        // Query {70, 71} — only column 70 has both.
        let qf = m.query_filter(&[70, 71]);
        let mut cands = BitVec::ones(n);
        m.narrow_to_supersets(&qf, &mut cands);
        assert!(cands.get(70));
        // Surviving candidates must at least bloom-contain the query.
        for c in cands.iter_ones() {
            assert!(m.column_may_contain_all(c, &[70, 71]));
        }
    }

    #[test]
    fn heap_bytes_matches_paper_formula() {
        let m = BloomMatrixBuilder::new(4096, 128, 2).build();
        // 4096 rows × ceil(128/64)=2 words × 8 bytes.
        assert_eq!(m.heap_bytes(), 4096 * 2 * 8);
    }

    #[test]
    fn matrix_encode_decode_roundtrip() {
        let m = sample_matrix(512);
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut bytes = tind_model::binio::Reader::new(&buf);
        let m2 = BloomMatrix::decode(&mut bytes).expect("decodes");
        assert_eq!(m2.m(), m.m());
        assert_eq!(m2.num_cols(), m.num_cols());
        assert_eq!(m2.k_hashes(), m.k_hashes());
        for col in 0..3 {
            assert_eq!(m2.column_filter(col), m.column_filter(col));
        }
        bytes.finish("matrix").expect("all read");
    }

    #[test]
    fn matrix_decode_rejects_truncation() {
        let m = sample_matrix(128);
        let mut full = Vec::new();
        m.encode(&mut full);
        let mut truncated = tind_model::binio::Reader::new(&full[..full.len() / 2]);
        assert!(BloomMatrix::decode(&mut truncated).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_rejects_bad_column() {
        let mut b = BloomMatrixBuilder::new(64, 2, 2);
        b.insert_column(2, &[1]);
    }

    /// Column `col`'s values in the strip-equivalence tests.
    fn strip_test_values(col: usize) -> Vec<ValueId> {
        (0..(col % 7)).map(|i| (col * 13 + i) as ValueId).collect()
    }

    #[test]
    fn strip_merge_equals_sequential_insertion() {
        // 150 columns: two full blocks plus a ragged 22-lane block.
        let (m, n, k) = (512u32, 150usize, 2u32);
        let mut sequential = BloomMatrixBuilder::new(m, n, k);
        for col in 0..n {
            sequential.insert_column(col, &strip_test_values(col));
        }
        let sequential = sequential.build();

        let mut merged = BloomMatrixBuilder::new(m, n, k);
        // Merge blocks in reverse order to show order-independence.
        for block in (0..n.div_ceil(64)).rev() {
            let mut strip = BloomColumnStrip::new(m, k);
            for col in block * 64..((block + 1) * 64).min(n) {
                strip.insert_lane(col - block * 64, &strip_test_values(col));
            }
            merged.merge_strip(block, &strip);
        }
        let merged = merged.build();
        for col in 0..n {
            assert_eq!(merged.column_filter(col), sequential.column_filter(col), "column {col}");
        }
        // Byte-identical, not merely filter-equivalent.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        sequential.encode(&mut a);
        merged.encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn strip_merge_masks_ragged_lanes() {
        // A strip with bits in lanes past num_cols must not corrupt the
        // matrix: only the 6 valid lanes of the final block survive.
        let mut b = BloomMatrixBuilder::new(64, 70, 2);
        let mut strip = BloomColumnStrip::new(64, 2);
        for lane in 0..64 {
            strip.insert_lane(lane, &[lane as ValueId]);
        }
        b.merge_strip(1, &strip);
        let m = b.build();
        let mut cands = BitVec::ones(70);
        m.narrow_to_subsets(&m.query_filter(&[]), &mut cands);
        // Columns 0..64 are empty (subset of anything), 64..70 got values;
        // the masked lanes 6..64 of block 1 must not have leaked anywhere.
        for col in 64..70 {
            assert!(m.column_filter(col).count_ones() > 0, "column {col} populated");
        }
        assert_eq!(cands.count_ones(), 64, "exactly the 64 empty columns survive");
    }

    #[test]
    fn extract_strip_inverts_merge_strip() {
        // 150 columns: two full blocks plus a ragged 22-lane block.
        let (m, n, k) = (512u32, 150usize, 2u32);
        let mut b = BloomMatrixBuilder::new(m, n, k);
        for col in 0..n {
            b.insert_column(col, &strip_test_values(col));
        }
        let original = b.build();
        let mut rebuilt = BloomMatrixBuilder::new(m, n, k);
        for block in 0..n.div_ceil(64) {
            rebuilt.merge_strip(block, &original.extract_strip(block));
        }
        let rebuilt = rebuilt.build();
        let (mut a, mut c) = (Vec::new(), Vec::new());
        original.encode(&mut a);
        rebuilt.encode(&mut c);
        assert_eq!(a, c, "extract → merge must reproduce the matrix bit-for-bit");
        // from_words(words().to_vec()) is the identity on strips.
        let strip = original.extract_strip(1);
        let copy = BloomColumnStrip::from_words(m, k, strip.words().to_vec());
        assert_eq!(strip.words(), copy.words());
    }

    fn encoded(m: &BloomMatrix) -> Vec<u8> {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        buf
    }

    #[test]
    fn retarget_column_equals_cold_build_of_the_column() {
        // 150 columns: two full blocks plus a ragged 22-lane block. Every
        // column moves from its old value set to a new one — grown, shrunk
        // (stale bits must clear), disjoint, emptied, or appended (old
        // empty) — and the result must be byte-identical to a cold build,
        // the exact contract the delta path relies on.
        let (m, n, k) = (512u32, 150usize, 2u32);
        let new_values = |col: usize| -> Vec<ValueId> {
            let old = strip_test_values(col);
            match col % 5 {
                0 => old.iter().copied().chain([(col * 31 + 5) as ValueId]).collect(),
                1 => old[..old.len() / 2].to_vec(),
                2 => (0..3).map(|i| (10_000 + col * 3 + i) as ValueId).collect(),
                3 => Vec::new(),
                _ => old,
            }
        };
        // Columns 140.. start empty, as freshly grown columns do.
        let old_values =
            |col: usize| if col < 140 { strip_test_values(col) } else { Vec::new() };
        let mut stale = BloomMatrixBuilder::new(m, n, k);
        let mut fresh = BloomMatrixBuilder::new(m, n, k);
        for col in 0..n {
            stale.insert_column(col, &old_values(col));
            fresh.insert_column(col, &new_values(col));
        }
        let (stale, fresh) = (stale.build(), fresh.build());
        let mut updated = stale.clone();
        for col in 0..n {
            let old = updated.query_filter(&old_values(col));
            let new = updated.query_filter(&new_values(col));
            updated.retarget_column(col, &old, &new);
            assert_eq!(updated.column_filter(col), new, "column {col}");
        }
        assert_eq!(encoded(&updated), encoded(&fresh), "retargeted ≠ cold build");
        // Padding lanes of the ragged block stay clear.
        for &w in updated.extract_strip(2).words() {
            assert_eq!(w >> (n - 128), 0, "padding lanes written");
        }

        // And back again: a column touched repeatedly stays exact.
        for col in 0..n {
            let old = updated.query_filter(&new_values(col));
            let new = updated.query_filter(&old_values(col));
            updated.retarget_column(col, &old, &new);
        }
        assert_eq!(encoded(&updated), encoded(&stale));
    }

    #[test]
    fn retarget_column_with_equal_filters_writes_nothing() {
        let n = 150;
        let mut b = BloomMatrixBuilder::new(128, n, 2);
        for col in 0..n {
            b.insert_column(col, &strip_test_values(col));
        }
        let owned = b.build();
        let mut seg = tiling(&owned, &[1], |i, words| mapped(&format!("equal-{i}.bin"), &words));
        let same = seg.column_filter(70);
        seg.retarget_column(70, &same, &same);
        assert_eq!(seg.heap_bytes(), 0, "an unchanged column must not materialize a segment");
        assert_eq!(encoded(&seg), encoded(&owned));
    }

    #[test]
    fn retarget_column_materializes_only_the_segment_it_writes() {
        // Four word blocks mapped as three segments: words 0, 1..3, 3.
        let (m, n, k) = (128u32, 200usize, 2u32);
        let col = 130; // word 2, inside the two-word middle segment
        let moved = |c: usize| if c == col { vec![999, 1000] } else { strip_test_values(c) };
        let (mut before, mut after) =
            (BloomMatrixBuilder::new(m, n, k), BloomMatrixBuilder::new(m, n, k));
        for c in 0..n {
            before.insert_column(c, &strip_test_values(c));
            after.insert_column(c, &moved(c));
        }
        let (before, after) = (before.build(), after.build());
        let mut tiled =
            tiling(&before, &[1, 3], |i, words| mapped(&format!("retarget-one-{i}.bin"), &words));
        assert_eq!(tiled.heap_bytes(), 0);

        tiled.retarget_column(col, &before.column_filter(col), &after.column_filter(col));
        assert_eq!(tiled.heap_bytes(), m as usize * 2 * 8, "exactly the written segment");
        assert!(!tiled.is_owned(), "the other segments stay mapped");
        assert_eq!(encoded(&tiled), encoded(&after), "retargeted tiling ≠ cold build");
    }

    #[test]
    fn narrowing_never_loads_a_window_with_no_live_candidates() {
        let n = 200; // 4 word blocks, one windowed segment each
        let mut b = BloomMatrixBuilder::new(256, n, 2);
        for col in 0..n {
            b.insert_column(col, &strip_test_values(col));
        }
        let built = b.build();
        let pool = WindowPool::new(None);
        let tiled = tiling(&built, &[1, 2, 3], |i, words| {
            windowed(&pool, &format!("live-{i}.bin"), &words)
        });
        // Candidates only in segment 0 (columns 0..64).
        let mut only_first = BitVec::zeros(n);
        for col in 0..64 {
            only_first.set(col);
        }
        let qf = built.query_filter(&[13, 14]);
        for subsets in [false, true] {
            let (mut single, mut reference) = (only_first.clone(), only_first.clone());
            let mut batch = vec![only_first.clone(), only_first.clone()];
            let filters = [qf.clone(), built.query_filter(&[])];
            if subsets {
                tiled.narrow_to_subsets(&qf, &mut single);
                built.narrow_to_subsets(&qf, &mut reference);
                tiled.narrow_batch_to_subsets(&filters, &mut batch);
            } else {
                tiled.narrow_to_supersets(&qf, &mut single);
                built.narrow_to_supersets(&qf, &mut reference);
                tiled.narrow_batch_to_supersets(&filters, &mut batch);
            }
            assert_eq!(single, reference, "subsets={subsets}");
            assert_eq!(batch[0], reference, "batch, subsets={subsets}");
        }
        assert_eq!(pool.stats().loads, 1, "only segment 0's window is ever read");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "did not hold the old filter")]
    fn retarget_column_checks_the_old_filter_in_debug_builds() {
        let mut m = sample_matrix(256);
        let wrong_old = m.query_filter(&[100, 101]);
        let new = m.query_filter(&[1]);
        m.retarget_column(1, &wrong_old, &new);
    }

    #[test]
    fn grow_cols_preserves_existing_columns_and_appends_zeros() {
        // 60 → 70 columns crosses a word boundary; 70 → 100 does not.
        let (m, k) = (256u32, 2u32);
        let mut b = BloomMatrixBuilder::new(m, 60, k);
        for col in 0..60 {
            b.insert_column(col, &strip_test_values(col));
        }
        let mut grown = b.build();
        grown.grow_cols(70);
        grown.grow_cols(100);
        assert_eq!(grown.num_cols(), 100);

        let mut cold = BloomMatrixBuilder::new(m, 100, k);
        for col in 0..60 {
            cold.insert_column(col, &strip_test_values(col));
        }
        let cold = cold.build();
        let (mut a, mut c) = (Vec::new(), Vec::new());
        grown.encode(&mut a);
        cold.encode(&mut c);
        assert_eq!(a, c, "grown matrix must equal a cold build with zero new columns");
    }

    #[test]
    fn batch_narrowing_matches_per_query_loop() {
        let n = 200;
        let mut b = BloomMatrixBuilder::new(256, n, 2);
        for col in 0..n {
            let vals: Vec<ValueId> = (0..col % 9).map(|i| (col * 3 + i) as ValueId).collect();
            b.insert_column(col, &vals);
        }
        let m = b.build();
        let query_sets: Vec<Vec<ValueId>> =
            vec![(0..5).collect(), vec![], (100..120).collect(), (7..9).collect()];
        let filters: Vec<BloomFilter> = query_sets.iter().map(|q| m.query_filter(q)).collect();

        for subsets in [false, true] {
            // Start from distinct candidate sets so per-query state is
            // genuinely independent.
            let mut batch: Vec<BitVec> = (0..filters.len())
                .map(|i| {
                    let mut c = BitVec::ones(n);
                    c.clear((i * 31) % n);
                    c
                })
                .collect();
            let mut reference = batch.clone();
            if subsets {
                m.narrow_batch_to_subsets(&filters, &mut batch);
                for (f, c) in filters.iter().zip(reference.iter_mut()) {
                    m.narrow_to_subsets(f, c);
                }
            } else {
                m.narrow_batch_to_supersets(&filters, &mut batch);
                for (f, c) in filters.iter().zip(reference.iter_mut()) {
                    m.narrow_to_supersets(f, c);
                }
            }
            assert_eq!(batch, reference, "subsets={subsets}");
        }
    }

    #[test]
    fn batch_narrowing_handles_empty_batch_and_empty_candidates() {
        let m = sample_matrix(512);
        m.narrow_batch_to_supersets(&[], &mut []);
        let qf = m.query_filter(&[1, 2]);
        let mut empty = vec![BitVec::zeros(3)];
        m.narrow_batch_to_supersets(std::slice::from_ref(&qf), &mut empty);
        assert!(empty[0].is_zero(), "an empty candidate set stays empty");
        let mut empty = vec![BitVec::zeros(3)];
        m.narrow_batch_to_subsets(&[qf], &mut empty);
        assert!(empty[0].is_zero());
    }

    /// Re-tiles `owned` into segments cut at the given word boundaries,
    /// handing segment `i`'s row-major words to `region(i, words)`.
    fn tiling(
        owned: &BloomMatrix,
        cuts: &[usize],
        mut region: impl FnMut(usize, Vec<u64>) -> WordRegion,
    ) -> BloomMatrix {
        let wpr = owned.words_per_row;
        let mut bounds = vec![0usize];
        bounds.extend(cuts.iter().copied().filter(|&c| c > 0 && c < wpr));
        bounds.push(wpr);
        bounds.dedup();
        let segments = bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let (start, end) = (w[0], w[1]);
                let mut words = Vec::with_capacity(owned.m as usize * (end - start));
                for row in 0..owned.m as usize {
                    for block in start..end {
                        words.push(owned.extract_strip(block).words()[row]);
                    }
                }
                Segment { word_start: start, width: end - start, words: region(i, words) }
            })
            .collect();
        BloomMatrix::from_segments(owned.m, owned.num_cols, owned.k_hashes, segments)
    }

    /// `words` written to a file and mapped back.
    fn mapped(name: &str, words: &[u64]) -> WordRegion {
        let file = Arc::new(MmapFile::map(&words_file(name, words, 0)).expect("map"));
        WordRegion::Mapped { file, byte_off: 0, len_words: words.len() }
    }

    /// `words` written to a file and read back through `pool` on demand.
    fn windowed(pool: &Arc<WindowPool>, name: &str, words: &[u64]) -> WordRegion {
        let file = Arc::new(WindowFile::open(&words_file(name, words, 0)).expect("open"));
        WordRegion::Windowed(pool.slot(file, 0, words.len()))
    }

    #[test]
    fn every_tiling_matches_the_built_matrix_on_every_kernel() {
        let n = 200; // 4 word blocks, ragged tail
        let mut b = BloomMatrixBuilder::new(256, n, 2);
        for col in 0..n {
            b.insert_column(col, &strip_test_values(col));
        }
        let owned = b.build();
        let pool = WindowPool::new(None);
        let cut_sets = [vec![], vec![1], vec![2, 3], vec![1, 2, 3]];
        let tilings = cut_sets.iter().enumerate().flat_map(|(t, cuts)| {
            let name = move |i: usize| format!("tiling-{t}-{i}.bin");
            let in_windows = |i: usize, words: Vec<u64>| windowed(&pool, &name(i), &words);
            [
                (cuts, "heap", tiling(&owned, cuts, |_, words| WordRegion::Heap(words))),
                (cuts, "mapped", tiling(&owned, cuts, |i, words| mapped(&name(i), &words))),
                (cuts, "windowed", tiling(&owned, cuts, in_windows)),
            ]
        });
        for (cuts, backing, seg) in tilings {
            let cuts = format!("{backing} {cuts:?}");

            // Encode byte-identity across backings.
            let (mut a, mut c) = (Vec::new(), Vec::new());
            owned.encode(&mut a);
            seg.encode(&mut c);
            assert_eq!(a, c, "encode differs for cuts {cuts:?}");

            // Single-query and batch narrowing, both directions.
            let queries: Vec<Vec<ValueId>> =
                vec![(0..5).collect(), vec![], (100..120).collect(), (13..26).collect()];
            let filters: Vec<BloomFilter> = queries.iter().map(|q| owned.query_filter(q)).collect();
            for (values, qf) in queries.iter().zip(&filters) {
                let mut by_values = BitVec::ones(n);
                seg.narrow_to_supersets_of_values(values, &mut by_values);
                let mut by_filter = BitVec::ones(n);
                owned.narrow_to_supersets(qf, &mut by_filter);
                assert_eq!(by_values, by_filter, "cuts {cuts:?} values {values:?}");
                for subsets in [false, true] {
                    let mut co = BitVec::ones(n);
                    let mut cs = BitVec::ones(n);
                    if subsets {
                        owned.narrow_to_subsets(qf, &mut co);
                        seg.narrow_to_subsets(qf, &mut cs);
                    } else {
                        owned.narrow_to_supersets(qf, &mut co);
                        seg.narrow_to_supersets(qf, &mut cs);
                    }
                    assert_eq!(co, cs, "cuts {cuts:?} subsets={subsets}");
                }
            }
            let mut batch_o: Vec<BitVec> = filters.iter().map(|_| BitVec::ones(n)).collect();
            let mut batch_s = batch_o.clone();
            owned.narrow_batch_to_supersets(&filters, &mut batch_o);
            seg.narrow_batch_to_supersets(&filters, &mut batch_s);
            assert_eq!(batch_o, batch_s, "batch supersets, cuts {cuts:?}");
            let mut batch_o: Vec<BitVec> = filters.iter().map(|_| BitVec::ones(n)).collect();
            let mut batch_s = batch_o.clone();
            owned.narrow_batch_to_subsets(&filters, &mut batch_o);
            seg.narrow_batch_to_subsets(&filters, &mut batch_s);
            assert_eq!(batch_o, batch_s, "batch subsets, cuts {cuts:?}");

            // Column-granular ops.
            for col in [0usize, 63, 64, 127, 128, n - 1] {
                assert_eq!(owned.column_filter(col), seg.column_filter(col), "col {col}");
                assert_eq!(
                    owned.column_may_contain_all(col, &[13, 14]),
                    seg.column_may_contain_all(col, &[13, 14])
                );
                let qf = owned.query_filter(&(0..40).collect::<Vec<_>>());
                assert_eq!(
                    owned.column_within_filter(col, &qf),
                    seg.column_within_filter(col, &qf)
                );
            }
            for block in 0..owned.words_per_row {
                assert_eq!(
                    owned.extract_strip(block).words(),
                    seg.extract_strip(block).words(),
                    "strip {block}"
                );
            }
        }
    }

    #[test]
    fn count_ones_equals_the_sum_of_column_popcounts() {
        let by_columns = |m: &BloomMatrix| -> usize {
            (0..m.num_cols()).map(|c| m.column_filter(c).count_ones()).sum()
        };
        // Widths on both sides of a word boundary, and a multi-word ragged tail.
        for n in [1usize, 63, 64, 65, 130] {
            let mut b = BloomMatrixBuilder::new(96, n, 2);
            for col in 0..n {
                // At least one value per column, so even n = 1 sets bits.
                b.insert_column(col, &[col as ValueId, (col * 13 + 1) as ValueId]);
            }
            let owned = b.build();
            let expected = by_columns(&owned);
            assert!(expected > 0);
            assert_eq!(owned.count_ones(), expected, "owned, {n} columns");
            for cuts in [vec![], vec![1], vec![1, 2]] {
                let seg = tiling(&owned, &cuts, |_, words| WordRegion::Heap(words));
                assert_eq!(seg.count_ones(), expected, "{n} columns cut at {cuts:?}");
            }

            // Set padding lanes in a borrowed copy (an owned matrix cannot
            // hold any): they belong to no column and must not count.
            let wpr = owned.words_per_row;
            let mut words: Vec<u64> = (0..owned.m as usize)
                .flat_map(|row| (0..wpr).map(move |block| (row, block)))
                .map(|(row, block)| owned.extract_strip(block).words()[row])
                .collect();
            if n % 64 != 0 {
                for row in words.chunks_exact_mut(wpr) {
                    row[wpr - 1] |= u64::MAX << (n % 64);
                }
            }
            let dirty = BloomMatrix::from_segments(
                owned.m,
                n,
                owned.k_hashes,
                vec![Segment { word_start: 0, width: wpr, words: WordRegion::Heap(words) }],
            );
            assert_eq!(by_columns(&dirty), expected);
            assert_eq!(dirty.count_ones(), expected, "{n} columns with padding bits set");
        }
        assert_eq!(BloomMatrixBuilder::new(8, 0, 1).build().count_ones(), 0, "no columns");
    }

    #[test]
    fn ensure_owned_materializes_byte_identically_and_allows_mutation() {
        let n = 150;
        let mut b = BloomMatrixBuilder::new(128, n, 2);
        for col in 0..n {
            b.insert_column(col, &strip_test_values(col));
        }
        let owned = b.build();
        let mut seg = tiling(&owned, &[1, 2], |i, words| mapped(&format!("owned-{i}.bin"), &words));
        assert!(!seg.is_owned());
        seg.ensure_owned();
        assert!(seg.is_owned());
        let (mut a, mut c) = (Vec::new(), Vec::new());
        owned.encode(&mut a);
        seg.encode(&mut c);
        assert_eq!(a, c);

        // A mutation on a mapped matrix must transparently materialize
        // and match the same mutation on the owned twin.
        let mut seg = tiling(&owned, &[2], |i, words| mapped(&format!("mutate-{i}.bin"), &words));
        let mut owned_mut = owned.clone();
        let old = owned.column_filter(67);
        let new = owned.query_filter(&[999]);
        for m in [&mut seg, &mut owned_mut] {
            m.retarget_column(67, &old, &new);
            m.grow_cols(200);
            // Fill an appended column past the old word width.
            m.retarget_column(199, &BloomFilter::new(128, 2), &new);
        }
        assert!(seg.is_owned());
        assert_eq!(seg.column_filter(67), new);
        assert_eq!(
            encoded(&seg),
            encoded(&owned_mut),
            "mutations over a materialized segmented matrix diverged"
        );
    }

    #[test]
    #[should_panic(expected = "tile the row width")]
    fn from_segments_rejects_gaps() {
        let m = 16u32;
        let seg = |start: usize, width: usize| Segment {
            word_start: start,
            width,
            words: WordRegion::Heap(vec![0u64; m as usize * width]),
        };
        // Words 0 and 2 present, word 1 missing.
        BloomMatrix::from_segments(m, 192, 2, vec![seg(0, 1), seg(2, 1)]);
    }
}
