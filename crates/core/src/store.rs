//! Crash-safe sharded index store (`TINDIS` manifest + `TINDSH` shards).
//!
//! The monolithic index file of [`crate::persist`] is all-or-nothing: one
//! torn write or flipped bit loses the whole artifact. This module stores
//! the same index as a **directory** of independently checksummed shards —
//! each shard a contiguous range of the parallel builder's 64-column
//! blocks — bound together by a manifest that carries the dataset
//! fingerprint, the build configuration, per-shard digests, and a
//! generation number.
//!
//! Durability discipline (the `.tcp` checkpoint rules applied to the index
//! itself):
//!
//! * every file is published via temp-file → fsync → atomic rename →
//!   directory fsync, so a killed writer can never leave a half-written
//!   shard under its final name;
//! * the manifest rename is the *single commit point* of a pack: until it
//!   lands, the previous generation is untouched and fully servable;
//! * opening a store sweeps orphan `*.tmp` files and shards of stale
//!   generations, so a crashed pack leaves no debris behind.
//!
//! There is one shard layout — an offset-table arena whose matrix
//! sections are borrowed as `&[u64]` without decoding — and two backings
//! for it ([`StoreBacking`]): zero-copy `mmap`, or budget-charged `pread`
//! windows. Each matrix section is tile-major: a run of column tiles of
//! [`TILE_BYTES`] each, every tile the row-major words of its columns, so
//! a tile is one [`Segment`] of the opened matrix and one `pread` window —
//! probing a candidate column reads its tile, not the shard's width. An
//! open checks each shard's header CRC, section bounds and manifest
//! binding only; [`verify_store`] and [`repair_store`] run the deep
//! check (manifest digest, file trailer, header, universes).
//!
//! On the read side the store degrades instead of dying: a shard that is
//! missing or fails its checks is **quarantined** with a typed
//! [`StoreError`], its attribute range is recorded in a
//! [`crate::index::ShardMask`] on the returned [`TindIndex`], and every
//! other shard keeps serving. [`repair_store`] rebuilds quarantined shards
//! from the dataset and proves byte-identity against the manifest digest
//! before publishing them.
//!
//! With zero quarantined shards the loaded index is byte-identical
//! (`persist::encode_index`) to the index that was packed, at any shard
//! count — the differential contract pinned by `tests/store_roundtrip.rs`.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tind_bloom::{
    BloomMatrix, BloomMatrixBuilder, MmapFile, Segment, WindowFile, WindowPool, WordRegion,
};
use tind_model::binio::{
    self, corrupt, dataset_fingerprint, publish, BinIoError, Container, Killed, OpBudget, Reader,
    Writer,
};
use tind_model::checksum::{self, crc32};
use tind_model::{AttrId, Dataset, Interval, MemoryBudget, ValueSet};

use crate::index::{
    ColumnContents, FullHistory, MaskedShard, ShardMask, TimeSlice, TindIndex, ValueBufs,
};
use crate::persist::{get_config, get_interval, put_config, put_interval};

/// Magic bytes of the store manifest, including a format version.
pub const MANIFEST_MAGIC: &[u8; 8] = b"TINDIS\x00\x01";

/// Magic bytes of one store shard, including a format version: the
/// tile-major arena layout, the only one written or read.
pub const SHARD_MAGIC: &[u8; 8] = b"TINDSH\x00\x03";

/// Versions of retired layouts — v1 (varint strip stream) and v2 (one
/// row-major run per section) — kept only so [`check_shard_magic`] can
/// refuse them by name.
const RETIRED_SHARD_VERSIONS: [u8; 2] = [1, 2];

/// Target bytes of one column tile of an arena matrix section: the unit
/// a mapped segment covers and a `pread` window loads. 4 KiB — one page —
/// is one word column (64 attributes) at the default `m` = 512; stated in
/// bytes so that every `m` gets windows of about the same size. Of 4, 8,
/// 16 and 32 KiB it served windowed searches fastest.
pub const TILE_BYTES: usize = 4 << 10;

/// Word columns per tile of an `m`-row matrix: [`TILE_BYTES`] worth, and
/// at least one.
pub fn tile_words(m: u32) -> usize {
    (TILE_BYTES / (m as usize * 8)).max(1)
}

/// Section alignment of the arena layout: every matrix section starts on
/// a 64-byte boundary so mapped word views are cache-line aligned.
pub const ARENA_ALIGN: usize = 64;

/// Fixed arena header: magic(8) + generation(8) + id(4) + block_start(4) +
/// block_count(4) + num_targets(4) + fingerprint(8) + m(4) +
/// section_count(4) + tile_words(4). The section table follows it.
pub const ARENA_FIXED_HEADER: usize = 52;

/// One section-table entry: byte offset (u64) + byte length (u64).
const ARENA_SECTION_ENTRY: usize = 16;

/// On-disk layout of one shard. One variant: the type survives only
/// because the benchmark harness names `ShardFormat::Arena` — remove with
/// the next benchmark PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardFormat {
    /// Offset-table arena with 64-byte-aligned tile-major matrix sections,
    /// borrowable straight from an mmap — open validates the header CRC
    /// and section bounds only, never decoding the words.
    #[default]
    Arena,
}

impl std::fmt::Display for ShardFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "arena")
    }
}

/// How matrix words of an opened store are backed in memory. A
/// big-endian host always opens [`StoreBacking::Windowed`], whose loader
/// byte-swaps; zero-copy word views are only sound little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBacking {
    /// Borrow matrix sections zero-copy from an mmap'd shard file.
    #[default]
    Mmap,
    /// `pread` each matrix tile on demand, charged to the open's
    /// [`MemoryBudget`] and evicted by a CLOCK hand under pressure.
    Windowed,
}

impl std::fmt::Display for StoreBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreBacking::Mmap => write!(f, "mmap"),
            StoreBacking::Windowed => write!(f, "windowed"),
        }
    }
}

/// Options for [`open_store_with`].
#[derive(Debug, Clone, Default)]
pub struct OpenOptions {
    /// How matrix words are backed; see [`StoreBacking`].
    pub backing: StoreBacking,
    /// Budget windowed sections are charged to (and evicted under).
    /// `None` leaves windows unaccounted. Ignored by other backings.
    pub memory_budget: Option<MemoryBudget>,
}

/// File name of the manifest inside a store directory.
pub const MANIFEST_NAME: &str = "index.manifest";

/// Errors arising from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (including a missing shard file).
    Io(std::io::Error),
    /// A store file does not conform to its format or fails its own
    /// checksum trailer.
    Bin(BinIoError),
    /// A shard's bytes do not hash to the digest the manifest committed —
    /// bit rot, a torn write, or a file swapped in from another store.
    ShardCorrupt {
        /// Shard id within the store generation.
        shard: usize,
        /// CRC-32 the manifest recorded at pack time.
        expected: u32,
        /// CRC-32 the shard file actually hashes to.
        actual: u32,
    },
    /// A shard in a retired TINDSH layout (v1 or v2). A store is a cache
    /// of the dataset, so there is no reader to fall back to — re-pack.
    LegacyShard {
        /// The layout version the shard's magic names.
        version: u8,
    },
    /// The store and the caller disagree on identity: wrong dataset
    /// fingerprint, wrong attribute count, inconsistent shard geometry, or
    /// an operation that is not meaningful in the current state.
    Mismatch(String),
    /// Injected kill: the operation stopped after the configured number of
    /// write, fsync, rename and directory-fsync steps, leaving the
    /// directory exactly as a SIGKILL at that boundary would.
    Killed {
        /// Steps performed before the kill.
        ops: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Bin(e) => write!(f, "{e}"),
            StoreError::ShardCorrupt { shard, expected, actual } => write!(
                f,
                "shard {shard} corrupt: manifest digest {expected:#010x} but file hashes to \
                 {actual:#010x}"
            ),
            StoreError::LegacyShard { version } => write!(
                f,
                "TINDSH v{version} is no longer supported; re-pack with `tind store pack`"
            ),
            StoreError::Mismatch(msg) => write!(f, "store mismatch: {msg}"),
            StoreError::Killed { ops } => {
                write!(f, "injected kill after {ops} store write operations")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Bin(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        match Killed::find(&e) {
            Some(Killed { ops }) => StoreError::Killed { ops },
            None => StoreError::Io(e),
        }
    }
}

impl From<BinIoError> for StoreError {
    fn from(e: BinIoError) -> Self {
        StoreError::Bin(e)
    }
}

fn mismatch(msg: impl Into<String>) -> StoreError {
    StoreError::Mismatch(msg.into())
}

/// One quarantined (or otherwise unloadable) shard, with the attribute
/// range its loss masks and the typed error that condemned it.
#[derive(Debug)]
pub struct ShardFault {
    /// Shard id within the store generation.
    pub shard: usize,
    /// First attribute the shard covered.
    pub attr_start: u32,
    /// One past the last attribute the shard covered.
    pub attr_end: u32,
    /// Why the shard was rejected.
    pub error: StoreError,
}

impl std::fmt::Display for ShardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} (attributes {}..{}): {}",
            self.shard, self.attr_start, self.attr_end, self.error
        )
    }
}

/// Options for [`pack_store`].
#[derive(Debug, Clone, Default)]
pub struct PackOptions {
    /// Desired shard count; clamped to `[1, column blocks]`. `0` picks
    /// `min(8, blocks)`.
    pub shards: usize,
    /// On-disk shard layout to write. One value; the field survives only
    /// because the benchmark harness sets it — remove with the next
    /// benchmark PR.
    pub format: ShardFormat,
    /// Fault injection: stop (with [`StoreError::Killed`]) after this many
    /// write, fsync, rename and directory-fsync steps, leaving the
    /// directory as a SIGKILL at that boundary would. `None` disables.
    pub kill_after_ops: Option<u64>,
}

/// Options for [`repair_store`].
#[derive(Debug, Clone, Default)]
pub struct RepairOptions {
    /// Fault injection, as in [`PackOptions::kill_after_ops`].
    pub kill_after_ops: Option<u64>,
}

/// Outcome of a successful [`pack_store`].
#[derive(Debug)]
pub struct PackReport {
    /// Generation number the pack committed.
    pub generation: u64,
    /// Number of shards written.
    pub shards: usize,
    /// Total bytes across shards and manifest.
    pub bytes_written: u64,
    /// Orphan temp files swept after commit.
    pub swept_temps: usize,
    /// Stale-generation shard files swept after commit.
    pub swept_stale: usize,
}

/// Outcome of a successful [`open_store`] — including a degraded one.
#[derive(Debug)]
pub struct LoadReport {
    /// Generation that was opened.
    pub generation: u64,
    /// Shards the manifest committed.
    pub shards_total: usize,
    /// Shards that failed to load and were quarantined (empty for a clean
    /// load).
    pub quarantined: Vec<ShardFault>,
    /// Orphan temp files swept during recovery.
    pub swept_temps: usize,
    /// Stale-generation shard files swept during recovery.
    pub swept_stale: usize,
    /// Backing actually used for matrix words (the requested one, except
    /// on a big-endian host).
    pub backing: StoreBacking,
    /// The window pool managing `pread` windows, when the windowed
    /// backing was used — exposes load/eviction/overcommit counters.
    pub window_pool: Option<Arc<WindowPool>>,
}

impl LoadReport {
    /// Whether every shard loaded cleanly.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// Outcome of [`verify_store`].
#[derive(Debug)]
pub struct VerifyReport {
    /// Generation the manifest commits.
    pub generation: u64,
    /// Dataset fingerprint the store was packed against.
    pub fingerprint: u64,
    /// Shards the manifest commits.
    pub shards_total: usize,
    /// Shards that fail verification.
    pub faults: Vec<ShardFault>,
}

/// Outcome of a successful [`repair_store`].
#[derive(Debug)]
pub struct RepairReport {
    /// Generation that was repaired (repair never changes it).
    pub generation: u64,
    /// Ids of the shards that were rebuilt and republished.
    pub rebuilt: Vec<usize>,
    /// Shards that were already intact.
    pub intact: usize,
}

/// Decoded manifest, internal to the module.
struct Manifest {
    generation: u64,
    fingerprint: u64,
    config: crate::index::IndexConfig,
    num_attrs: usize,
    /// Per slice: `(interval, expanded)` — expansion is persisted so
    /// repair never re-runs the seeded slice selection.
    slices: Vec<(Interval, Interval)>,
    has_m_r: bool,
    shards: Vec<ShardEntry>,
}

struct ShardEntry {
    id: usize,
    block_start: usize,
    block_count: usize,
    byte_len: u64,
    /// Content digest: CRC-32 over the shard's bytes *excluding* its own
    /// integrity trailer, i.e. the value that trailer stores, so writing or
    /// deep-checking a shard computes it once. The trailer must stay
    /// outside the hash — the CRC of any message with its own CRC appended
    /// is the fixed residue `0x2144df1c`, so hashing the whole file would
    /// give every valid shard the same "digest" and bind nothing beyond
    /// what the trailer already checks.
    digest: u32,
}

impl ShardEntry {
    fn attr_range(&self, num_attrs: usize) -> (u32, u32) {
        let start = (self.block_start * 64).min(num_attrs) as u32;
        let end = ((self.block_start + self.block_count) * 64).min(num_attrs) as u32;
        (start, end)
    }

    /// A file of any other length than the manifest committed is refused
    /// before a byte of it is trusted.
    fn check_len(&self, file_len: u64) -> Result<(), StoreError> {
        if file_len != self.byte_len {
            return Err(mismatch(format!(
                "shard {} is {file_len} bytes but the manifest committed {}",
                self.id, self.byte_len
            )));
        }
        Ok(())
    }
}

impl Manifest {
    fn num_targets(&self) -> usize {
        1 + self.slices.len() + usize::from(self.has_m_r)
    }

    fn blocks(&self) -> usize {
        self.num_attrs.div_ceil(64)
    }
}

fn shard_name(generation: u64, id: usize) -> String {
    format!("g{generation}-s{id}.shard")
}

/// Parses `g{gen}-s{id}.shard`, returning the generation.
fn parse_shard_gen(name: &str) -> Option<u64> {
    let rest = name.strip_prefix('g')?;
    let dash = rest.find('-')?;
    let gen: u64 = rest[..dash].parse().ok()?;
    let id = rest[dash + 1..].strip_prefix('s')?.strip_suffix(".shard")?;
    let _: u64 = id.parse().ok()?;
    Some(gen)
}

/// Removes orphan `*.tmp` files and shards of generations other than
/// `live_gen`; returns `(temps, stale)` counts.
fn sweep(dir: &Path, live_gen: u64) -> Result<(usize, usize), StoreError> {
    let (mut temps, mut stale) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".tmp") {
            std::fs::remove_file(entry.path())?;
            temps += 1;
        } else if let Some(gen) = parse_shard_gen(&name) {
            if gen != live_gen {
                std::fs::remove_file(entry.path())?;
                stale += 1;
            }
        }
    }
    Ok((temps, stale))
}

impl Container for Manifest {
    fn magic(&self) -> &'static [u8; 8] {
        MANIFEST_MAGIC
    }

    fn write_fields<W: Write>(&self, w: &mut Writer<W>) {
        w.varint(self.generation);
        w.u64_le(self.fingerprint);
        put_config(w, &self.config);
        w.varint(self.num_attrs as u64);
        w.varint(self.slices.len() as u64);
        for &(interval, expanded) in &self.slices {
            put_interval(w, interval);
            put_interval(w, expanded);
        }
        w.u8(u8::from(self.has_m_r));
        w.varint(self.shards.len() as u64);
        for s in &self.shards {
            w.varint(s.id as u64);
            w.varint(s.block_start as u64);
            w.varint(s.block_count as u64);
            w.varint(s.byte_len);
            w.u32_le(s.digest);
        }
    }
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StoreError> {
    let mut buf = binio::open(bytes, MANIFEST_MAGIC, "store manifest")?;
    let generation = buf.varint()?;
    let fingerprint = buf.u64_le("manifest fingerprint")?;
    let config = get_config(&mut buf)?;
    let num_attrs = buf.varint()? as usize;
    if num_attrs == 0 {
        return Err(corrupt("manifest over zero attributes").into());
    }
    let num_slices = buf.varint()? as usize;
    let mut slices = Vec::with_capacity(num_slices);
    for _ in 0..num_slices {
        let interval = get_interval(&mut buf)?;
        let expanded = get_interval(&mut buf)?;
        slices.push((interval, expanded));
    }
    let has_m_r = match buf.u8("m_r flag")? {
        0 => false,
        1 => true,
        other => return Err(corrupt(format!("bad m_r flag {other}")).into()),
    };
    let shard_count = buf.varint()? as usize;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let id = buf.varint()? as usize;
        let block_start = buf.varint()? as usize;
        let block_count = buf.varint()? as usize;
        let byte_len = buf.varint()?;
        let digest = buf.u32_le("shard digest")?;
        shards.push(ShardEntry { id, block_start, block_count, byte_len, digest });
    }
    buf.finish("manifest")?;
    let manifest =
        Manifest { generation, fingerprint, config, num_attrs, slices, has_m_r, shards };
    // Shards must partition the column blocks: ids 0..n in order, each
    // range starting where the previous ended, covering every block.
    let mut next_block = 0usize;
    for (i, s) in manifest.shards.iter().enumerate() {
        if s.id != i || s.block_start != next_block || s.block_count == 0 {
            return Err(mismatch(format!(
                "shard table is not a partition of the column blocks at shard {i}"
            )));
        }
        next_block += s.block_count;
    }
    if next_block != manifest.blocks() {
        return Err(mismatch(format!(
            "shard table covers {next_block} blocks but the index has {}",
            manifest.blocks()
        )));
    }
    Ok(manifest)
}

fn read_manifest(dir: &Path) -> Result<Manifest, StoreError> {
    decode_manifest(&std::fs::read(dir.join(MANIFEST_NAME))?)
}

/// Byte length of the arena header region before alignment padding:
/// fixed fields, the section table, and the header CRC.
fn arena_header_len(num_targets: usize) -> usize {
    ARENA_FIXED_HEADER + (num_targets + 1) * ARENA_SECTION_ENTRY + 4
}

/// Word-column ranges of the tiles a `width`-word matrix section is cut
/// into, left to right: `tile` words each, the last one possibly fewer.
fn tiles(width: usize, tile: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..width).step_by(tile).map(move |lo| lo..(lo + tile).min(width))
}

/// Writes one shard in the arena layout to `w`, which holds its magic
/// and nothing else. `target(t)` is called once per target in ascending
/// order and returns a matrix holding the target's words together with
/// the word column the shard starts at in it; each target's section is
/// written tile-major — the shard's `block_count` word columns cut into
/// tiles of `tile_words(m)`, each tile the row-major little-endian words
/// of its columns (cut from [`BloomMatrix::encode_words`] of the shard).
/// `universe` is called once per attribute in the shard's range. Shared
/// by pack (the built matrices, streamed to the file) and repair (the
/// range re-rendered from the dataset) so the two paths are byte-equal by
/// construction. Each target's section is 64-byte aligned behind an
/// offset table, so an open can borrow any tile as `&[u64]` without
/// decoding. The caller finishes
/// `w`; its trailer is the shard's digest (see [`ShardEntry::digest`]).
fn write_shard<W: Write, M: std::borrow::Borrow<BloomMatrix>>(
    w: &mut Writer<W>,
    manifest: &Manifest,
    entry_id: usize,
    block_start: usize,
    block_count: usize,
    mut target: impl FnMut(usize) -> (M, usize),
    mut universe: impl FnMut(usize, &mut Writer),
) {
    let m = manifest.config.m as usize;
    let tile = tile_words(manifest.config.m);
    let num_targets = manifest.num_targets();
    let matrix_bytes = m * block_count * 8;
    let header_end = arena_header_len(num_targets).next_multiple_of(ARENA_ALIGN);

    // Universes are rendered first so the section table can commit their
    // exact byte length.
    let mut ublob = Writer::default();
    let attr_lo = block_start * 64;
    let attr_hi = ((block_start + block_count) * 64).min(manifest.num_attrs);
    for attr in attr_lo..attr_hi {
        universe(attr, &mut ublob);
    }

    let mut sections = Vec::with_capacity(num_targets + 1);
    let mut off = header_end;
    for _ in 0..num_targets {
        sections.push((off as u64, matrix_bytes as u64));
        off += matrix_bytes.next_multiple_of(ARENA_ALIGN);
    }
    sections.push((off as u64, ublob.written()));

    w.u64_le(manifest.generation);
    for v in [entry_id, block_start, block_count, num_targets] {
        w.u32_le(v as u32);
    }
    w.u64_le(manifest.fingerprint);
    w.u32_le(manifest.config.m);
    w.u32_le(sections.len() as u32);
    w.u32_le(tile as u32);
    for &(o, l) in &sections {
        w.u64_le(o);
        w.u64_le(l);
    }
    // The header CRC covers every byte before it.
    let header_crc = w.crc();
    w.u32_le(header_crc);
    let align = |w: &mut Writer<W>| {
        let len = w.written() as usize;
        w.bytes(&[0; ARENA_ALIGN][..len.next_multiple_of(ARENA_ALIGN) - len]);
    };
    align(w);
    debug_assert_eq!(w.written(), header_end as u64);

    for t in 0..num_targets {
        let start = w.written();
        let (matrix, first) = target(t);
        // The shard's row-major words first — sequential reads of the
        // matrix — then cut into tiles from that cache-sized copy: reading
        // the matrix tile by tile strides across every row per word.
        let mut rows = Writer::default();
        matrix.borrow().encode_words(first..first + block_count, &mut rows);
        let rows = rows.as_slice();
        for cols in tiles(block_count, tile) {
            for row in 0..m {
                w.bytes(&rows[(row * block_count + cols.start) * 8..][..cols.len() * 8]);
            }
        }
        debug_assert_eq!(w.written() - start, matrix_bytes as u64, "m rows of block_count words");
        align(w);
    }
    debug_assert_eq!(w.written(), off as u64, "sections laid out exactly as the table commits");
    w.bytes(ublob.as_slice());
}

/// Checks the first eight bytes of a shard file: the arena magic passes,
/// a retired layout's magic is refused by name
/// ([`StoreError::LegacyShard`]), anything else is corrupt. Every open /
/// verify / repair path and `tind verify FILE` come through here.
pub fn check_shard_magic(raw: &[u8]) -> Result<(), StoreError> {
    match raw.get(..8) {
        Some(magic) if magic == SHARD_MAGIC => Ok(()),
        Some(&[b'T', b'I', b'N', b'D', b'S', b'H', 0, version])
            if RETIRED_SHARD_VERSIONS.contains(&version) =>
        {
            Err(StoreError::LegacyShard { version })
        }
        _ => Err(corrupt("bad arena shard magic").into()),
    }
}

/// Parsed and bounds-checked arena shard header.
struct ArenaHeader {
    generation: u64,
    id: usize,
    block_start: usize,
    block_count: usize,
    num_targets: usize,
    fingerprint: u64,
    m: u32,
    /// Word columns per tile of every matrix section.
    tile_words: usize,
    /// `(byte offset, byte length)` per section: one tile-major matrix
    /// per target, then the value-universe blob.
    sections: Vec<(usize, usize)>,
}

/// Parses the arena header from the first bytes of a shard file and
/// validates it self-consistently: magic, header CRC, section alignment
/// and bounds against `file_len`. This is everything an arena open
/// checks — the matrix words themselves are never touched.
fn parse_arena_header(raw: &[u8], file_len: u64) -> Result<ArenaHeader, StoreError> {
    if raw.len() < ARENA_FIXED_HEADER + 4 {
        return Err(corrupt("truncated arena shard header").into());
    }
    check_shard_magic(raw)?;
    let u32_at = |o: usize| u32::from_le_bytes(raw[o..o + 4].try_into().expect("4 bytes"));
    let u64_at = |o: usize| u64::from_le_bytes(raw[o..o + 8].try_into().expect("8 bytes"));
    let generation = u64_at(8);
    let id = u32_at(16) as usize;
    let block_start = u32_at(20) as usize;
    let block_count = u32_at(24) as usize;
    let num_targets = u32_at(28) as usize;
    let fingerprint = u64_at(32);
    let m = u32_at(40);
    let section_count = u32_at(44) as usize;
    let tile_words = u32_at(48) as usize;
    if num_targets == 0 || section_count != num_targets + 1 || section_count > 1 << 20 {
        return Err(corrupt("arena section count disagrees with target count").into());
    }
    let table_end = ARENA_FIXED_HEADER + section_count * ARENA_SECTION_ENTRY;
    if raw.len() < table_end + 4 {
        return Err(corrupt("truncated arena section table").into());
    }
    let stored = u32_at(table_end);
    let computed = crc32(&raw[..table_end]);
    if stored != computed {
        // Carries the offset of the failing check so `tind verify` can
        // report exactly where the header went bad.
        return Err(BinIoError::Checksum { stored, computed, offset: table_end as u64 }.into());
    }
    if tile_words == 0 {
        return Err(corrupt("arena tiles of zero words").into());
    }
    let payload_end = (file_len as usize).saturating_sub(checksum::TRAILER_LEN);
    let matrix_bytes = (m as usize)
        .checked_mul(block_count)
        .and_then(|w| w.checked_mul(8))
        .ok_or_else(|| StoreError::from(corrupt("arena matrix section overflows")))?;
    let mut sections = Vec::with_capacity(section_count);
    let mut prev_end = table_end + 4;
    for s in 0..section_count {
        let off = u64_at(ARENA_FIXED_HEADER + s * ARENA_SECTION_ENTRY) as usize;
        let len = u64_at(ARENA_FIXED_HEADER + s * ARENA_SECTION_ENTRY + 8) as usize;
        if !off.is_multiple_of(ARENA_ALIGN) {
            return Err(mismatch(format!(
                "arena section {s} at byte offset {off} is not {ARENA_ALIGN}-byte aligned"
            )));
        }
        if off < prev_end || off.checked_add(len).is_none_or(|end| end > payload_end) {
            return Err(corrupt(format!(
                "arena section {s} (offset {off}, {len} bytes) overruns the file"
            ))
            .into());
        }
        if s < num_targets && len != matrix_bytes {
            return Err(corrupt(format!(
                "arena matrix section {s} is {len} bytes but m×blocks needs {matrix_bytes}"
            ))
            .into());
        }
        prev_end = off + len;
        sections.push((off, len));
    }
    Ok(ArenaHeader {
        generation,
        id,
        block_start,
        block_count,
        num_targets,
        fingerprint,
        m,
        tile_words,
        sections,
    })
}

/// Rejects an arena header whose identity fields disagree with the
/// manifest entry the shard was opened under.
fn check_arena_binding(
    h: &ArenaHeader,
    manifest: &Manifest,
    entry: &ShardEntry,
) -> Result<(), StoreError> {
    if h.generation != manifest.generation
        || h.id != entry.id
        || h.block_start != entry.block_start
        || h.block_count != entry.block_count
        || h.fingerprint != manifest.fingerprint
        || h.num_targets != manifest.num_targets()
        || h.m != manifest.config.m
    {
        return Err(mismatch(format!(
            "shard {} arena header disagrees with the manifest entry",
            entry.id
        )));
    }
    Ok(())
}

/// Decodes the value-universe blob of an arena shard.
fn arena_universes(
    blob: &[u8],
    manifest: &Manifest,
    entry: &ShardEntry,
) -> Result<Vec<ValueSet>, StoreError> {
    let (attr_lo, attr_hi) = entry.attr_range(manifest.num_attrs);
    let mut buf = Reader::new(blob);
    let mut universes = Vec::with_capacity((attr_hi - attr_lo) as usize);
    for _ in attr_lo..attr_hi {
        universes.push(buf.ascending(1 << 32, "value set")?);
    }
    buf.finish("arena universes")?;
    Ok(universes)
}

/// One loaded shard: `targets[t]` holds the segments of the shard's
/// tiles of target `t`, one per tile, regardless of backing.
struct ShardRegions {
    targets: Vec<Vec<Segment>>,
    universes: Vec<ValueSet>,
}

/// One [`Segment`] per tile of every matrix section of `h`; `region`
/// backs the `len_words` words at absolute byte offset `byte_off`.
fn tile_segments(
    h: &ArenaHeader,
    mut region: impl FnMut(usize, usize) -> Result<WordRegion, StoreError>,
) -> Result<Vec<Vec<Segment>>, StoreError> {
    let row_bytes = h.m as usize * 8;
    h.sections[..h.num_targets]
        .iter()
        .map(|&(off, _)| {
            tiles(h.block_count, h.tile_words)
                .map(|cols| {
                    let words = region(off + cols.start * row_bytes, h.m as usize * cols.len())?;
                    Ok(Segment { word_start: h.block_start + cols.start, width: cols.len(), words })
                })
                .collect()
        })
        .collect()
}

/// Deep verification of one shard — what `verify_store` and
/// `repair_store` run, never an open: full read, committed length,
/// manifest digest, file trailer, header CRC + section bounds + manifest
/// binding, and a decode of the universes.
fn deep_check_shard(
    dir: &Path,
    manifest: &Manifest,
    entry: &ShardEntry,
) -> Result<(), StoreError> {
    let path = dir.join(shard_name(manifest.generation, entry.id));
    let raw = std::fs::read(&path)?;
    entry.check_len(raw.len() as u64)?;
    // One CRC pass serves both checks: the digest covers exactly the bytes
    // the trailer does.
    let split = raw.len().saturating_sub(checksum::TRAILER_LEN);
    let actual = crc32(&raw[..split]);
    if actual != entry.digest {
        return Err(StoreError::ShardCorrupt { shard: entry.id, expected: entry.digest, actual });
    }
    if raw.len() < checksum::TRAILER_LEN {
        return Err(corrupt("arena shard shorter than its trailer").into());
    }
    // The digest excludes the trailer, so check the file's own integrity
    // trailer too — a rotted trailer is corruption even when the payload
    // is intact.
    let stored = u32::from_le_bytes(raw[split..].try_into().expect("4-byte trailer"));
    if stored != actual {
        return Err(BinIoError::Checksum { stored, computed: actual, offset: split as u64 }.into());
    }
    let h = parse_arena_header(&raw, raw.len() as u64)?;
    check_arena_binding(&h, manifest, entry)?;
    let (uoff, ulen) = h.sections[h.num_targets];
    arena_universes(&raw[uoff..uoff + ulen], manifest, entry).map(|_| ())
}

/// Opens an arena shard zero-copy: maps the file, validates header CRC +
/// bounds + manifest binding, and hands out borrowed word windows. No
/// matrix word is read until a kernel touches its page.
fn arena_load_mmap(
    dir: &Path,
    manifest: &Manifest,
    entry: &ShardEntry,
) -> Result<ShardRegions, StoreError> {
    let path = dir.join(shard_name(manifest.generation, entry.id));
    let file = Arc::new(MmapFile::map(&path)?);
    entry.check_len(file.len() as u64)?;
    let bytes = file.bytes();
    let h = parse_arena_header(bytes, file.len() as u64)?;
    check_arena_binding(&h, manifest, entry)?;
    let targets = tile_segments(&h, |byte_off, len_words| {
        file.words_at(byte_off, len_words)
            .map(|_| WordRegion::Mapped { file: Arc::clone(&file), byte_off, len_words })
            .ok_or_else(|| mismatch(format!("arena tile at {byte_off} cannot be mapped")))
    })?;
    let (uoff, ulen) = h.sections[h.num_targets];
    let universes = arena_universes(&bytes[uoff..uoff + ulen], manifest, entry)?;
    Ok(ShardRegions { targets, universes })
}

/// Opens an arena shard with `pread`-on-demand windows: only the header
/// and universes are read eagerly; each matrix tile becomes a
/// [`WindowPool`] slot loaded lazily and evicted under memory pressure.
fn arena_load_windowed(
    dir: &Path,
    manifest: &Manifest,
    entry: &ShardEntry,
    pool: &Arc<WindowPool>,
) -> Result<ShardRegions, StoreError> {
    let path = dir.join(shard_name(manifest.generation, entry.id));
    let file_len = std::fs::metadata(&path)?.len();
    entry.check_len(file_len)?;
    let file = Arc::new(WindowFile::open(&path)?);
    let hlen = arena_header_len(manifest.num_targets()).min(file_len as usize);
    let mut header = vec![0u8; hlen];
    file.read_exact_at(&mut header, 0)?;
    let h = parse_arena_header(&header, file_len)?;
    check_arena_binding(&h, manifest, entry)?;
    let targets = tile_segments(&h, |byte_off, len_words| {
        Ok(WordRegion::Windowed(pool.slot(Arc::clone(&file), byte_off as u64, len_words)))
    })?;
    let (uoff, ulen) = h.sections[h.num_targets];
    let mut ublob = vec![0u8; ulen];
    file.read_exact_at(&mut ublob, uoff as u64)?;
    let universes = arena_universes(&ublob, manifest, entry)?;
    Ok(ShardRegions { targets, universes })
}

/// Splits `blocks` column blocks into `shards` near-equal contiguous
/// ranges.
fn partition_blocks(blocks: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.clamp(1, blocks);
    let base = blocks / shards;
    let extra = blocks % shards;
    let mut parts = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let count = base + usize::from(i < extra);
        parts.push((start, count));
        start += count;
    }
    parts
}

/// Highest generation any artifact in `dir` claims — used to pick the next
/// generation even when the manifest itself is unreadable.
fn scan_max_generation(dir: &Path) -> u64 {
    let from_manifest = read_manifest(dir).map(|m| m.generation).unwrap_or(0);
    let from_shards = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| parse_shard_gen(&e.file_name().to_string_lossy()))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    from_manifest.max(from_shards)
}

/// Packs `index` into the store directory `dir` as a new generation.
///
/// Every shard and the manifest are published atomically; the manifest
/// rename is the commit point. A crash (or injected kill) at any step
/// leaves either the previous generation fully intact or the new one
/// fully committed — never a mix — and [`open_store`] sweeps whatever
/// temps or stale shards the crash stranded.
pub fn pack_store(
    index: &TindIndex,
    dir: &Path,
    options: &PackOptions,
) -> Result<PackReport, StoreError> {
    let _span = tind_obs::span("core.store.pack");
    if index.shard_mask().is_some() {
        return Err(mismatch(
            "refusing to pack a degraded index (quarantined shards would be persisted as zeros); \
             repair its store first",
        ));
    }
    let num_attrs = index.dataset().len();
    if num_attrs == 0 {
        return Err(mismatch("cannot pack an index over an empty dataset"));
    }
    std::fs::create_dir_all(dir)?;
    let generation = scan_max_generation(dir) + 1;
    let blocks = num_attrs.div_ceil(64);
    let shards = if options.shards == 0 { blocks.min(8) } else { options.shards };
    let parts = partition_blocks(blocks, shards);
    let fingerprint = dataset_fingerprint(index.dataset());

    let mut manifest = Manifest {
        generation,
        fingerprint,
        config: index.config().clone(),
        num_attrs,
        slices: index.time_slices().iter().map(|s| (s.interval, s.expanded)).collect(),
        has_m_r: index.m_r().is_some(),
        shards: Vec::with_capacity(parts.len()),
    };

    let matrices: Vec<&BloomMatrix> = index.matrices().collect();

    let mut budget = OpBudget::new(options.kill_after_ops);
    let mut bytes_written = 0u64;
    for (id, &(block_start, block_count)) in parts.iter().enumerate() {
        let (byte_len, digest) = publish(&dir.join(shard_name(generation, id)), &mut budget, |f| {
            let mut w = Writer::streaming(f, SHARD_MAGIC);
            write_shard(
                &mut w,
                &manifest,
                id,
                block_start,
                block_count,
                |target| (matrices[target], block_start),
                |attr, w| w.ascending(index.universe(attr as AttrId)),
            );
            let byte_len = w.written() + checksum::TRAILER_LEN as u64;
            Ok((byte_len, w.finish()?))
        })?;
        bytes_written += byte_len;
        manifest.shards.push(ShardEntry { id, block_start, block_count, byte_len, digest });
    }

    let manifest_bytes = binio::encode(&manifest);
    bytes_written += manifest_bytes.len() as u64;
    publish(&dir.join(MANIFEST_NAME), &mut budget, |f| f.write_all(&manifest_bytes))?;
    let (swept_temps, swept_stale) = sweep(dir, generation)?;
    Ok(PackReport {
        generation,
        shards: parts.len(),
        bytes_written,
        swept_temps,
        swept_stale,
    })
}

/// Opens the store at `dir`, binding it to `dataset`.
///
/// Recovery runs first: orphan temps and stale-generation shards are
/// swept. Each manifest-committed shard is then loaded and verified
/// independently; a shard that is missing, truncated, bit-rotted, or
/// inconsistent with the manifest is **quarantined** — its attribute range
/// is masked on the returned index (see [`crate::index::ShardMask`]) and
/// reported in the [`LoadReport`] — while every other shard loads
/// normally. With zero quarantined shards the result is byte-identical to
/// the packed index.
pub fn open_store(
    dir: &Path,
    dataset: Arc<Dataset>,
) -> Result<(TindIndex, LoadReport), StoreError> {
    open_store_with(dir, dataset, &OpenOptions::default())
}

/// [`open_store`] with an explicit [`StoreBacking`] and memory budget.
///
/// An open validates only each shard's header CRC, section bounds, and
/// manifest binding — matrix words are borrowed, not decoded, so open time
/// is independent of index size. Digest and trailer checks are
/// [`verify_store`]'s job.
pub fn open_store_with(
    dir: &Path,
    dataset: Arc<Dataset>,
    options: &OpenOptions,
) -> Result<(TindIndex, LoadReport), StoreError> {
    let _span = tind_obs::span("core.store.open");
    let manifest = read_manifest(dir)?;
    if manifest.fingerprint != dataset_fingerprint(&dataset) {
        return Err(mismatch(
            "store fingerprint does not match the dataset (stale or mismatched files)",
        ));
    }
    if manifest.num_attrs != dataset.len() {
        return Err(mismatch("store attribute count does not match the dataset"));
    }
    let (swept_temps, swept_stale) = sweep(dir, manifest.generation)?;

    let num_attrs = manifest.num_attrs;
    let num_targets = manifest.num_targets();
    let (m, k_hashes) = (manifest.config.m, manifest.config.k_hashes);
    let pool = WindowPool::new(options.memory_budget.clone());
    let mut target_segments: Vec<Vec<Segment>> = vec![Vec::new(); num_targets];
    let mut universes = vec![ValueSet::new(); num_attrs];
    let mut quarantined = Vec::new();
    let backing =
        if cfg!(target_endian = "big") { StoreBacking::Windowed } else { options.backing };

    for entry in &manifest.shards {
        let started = Instant::now();
        let loaded = match backing {
            StoreBacking::Mmap => arena_load_mmap(dir, &manifest, entry),
            StoreBacking::Windowed => arena_load_windowed(dir, &manifest, entry, &pool),
        };
        match loaded {
            Ok(regions) => {
                for (segments, tiles) in target_segments.iter_mut().zip(regions.targets) {
                    segments.extend(tiles);
                }
                let (attr_lo, _) = entry.attr_range(num_attrs);
                for (offset, u) in regions.universes.into_iter().enumerate() {
                    universes[attr_lo as usize + offset] = u;
                }
            }
            Err(error) => {
                let (attr_start, attr_end) = entry.attr_range(num_attrs);
                quarantined.push(ShardFault { shard: entry.id, attr_start, attr_end, error });
                // A quarantined shard's range serves as zeros (masked on
                // the index) so the segment tiling stays complete.
                for segments in &mut target_segments {
                    segments.push(Segment {
                        word_start: entry.block_start,
                        width: entry.block_count,
                        words: WordRegion::Heap(vec![0u64; m as usize * entry.block_count]),
                    });
                }
            }
        }
        tind_obs::histogram("store.shard.load_ns")
            .record(started.elapsed().as_nanos() as u64);
    }

    tind_obs::gauge("store.shards.total").set(manifest.shards.len() as f64);
    tind_obs::gauge("store.shards.quarantined").set(quarantined.len() as f64);

    let masked = (!quarantined.is_empty()).then(|| {
        Arc::new(ShardMask::new(
            num_attrs,
            manifest.shards.len(),
            quarantined
                .iter()
                .map(|f| MaskedShard {
                    shard: f.shard,
                    attr_start: f.attr_start,
                    attr_end: f.attr_end,
                })
                .collect(),
        ))
    });

    let mut segments = target_segments.into_iter();
    let mut next_matrix = || {
        BloomMatrix::from_segments(m, num_attrs, k_hashes, segments.next().expect("target"))
    };
    let m_t = next_matrix();
    let time_slices = manifest
        .slices
        .iter()
        .map(|&(interval, expanded)| TimeSlice { interval, expanded, matrix: next_matrix() })
        .collect();
    let m_r = manifest.has_m_r.then(next_matrix);
    let index = TindIndex {
        dataset,
        config: manifest.config.clone(),
        full: Arc::new(FullHistory { m_t, universes }),
        time_slices,
        m_r,
        masked,
    };
    let report = LoadReport {
        generation: manifest.generation,
        shards_total: manifest.shards.len(),
        quarantined,
        swept_temps,
        swept_stale,
        backing,
        window_pool: (backing == StoreBacking::Windowed).then_some(pool),
    };
    Ok((index, report))
}

/// Verifies the store at `dir` without binding it to a dataset: manifest
/// container integrity, then every shard against its committed digest and
/// structure. Read-only — performs no recovery sweep.
pub fn verify_store(dir: &Path) -> Result<VerifyReport, StoreError> {
    let _span = tind_obs::span("core.store.verify");
    let manifest = read_manifest(dir)?;
    let mut faults = Vec::new();
    for entry in &manifest.shards {
        if let Err(error) = deep_check_shard(dir, &manifest, entry) {
            let (attr_start, attr_end) = entry.attr_range(manifest.num_attrs);
            faults.push(ShardFault { shard: entry.id, attr_start, attr_end, error });
        }
    }
    Ok(VerifyReport {
        generation: manifest.generation,
        fingerprint: manifest.fingerprint,
        shards_total: manifest.shards.len(),
        faults,
    })
}

/// Rebuilds every quarantined shard of the store at `dir` from `dataset`
/// and republishes it atomically.
///
/// A rebuilt shard must hash to the digest the manifest committed — the
/// per-lane render is deterministic, so anything else means the dataset or
/// build config drifted and the repair is refused rather than silently
/// rewriting history. The manifest (and generation) never changes: a crash
/// mid-repair leaves the store exactly as recoverable as before.
pub fn repair_store(
    dir: &Path,
    dataset: &Dataset,
    options: &RepairOptions,
) -> Result<RepairReport, StoreError> {
    let _span = tind_obs::span("core.store.repair");
    let manifest = read_manifest(dir)?;
    if manifest.fingerprint != dataset_fingerprint(dataset) {
        return Err(mismatch(
            "store fingerprint does not match the dataset (stale or mismatched files)",
        ));
    }
    if manifest.num_attrs != dataset.len() {
        return Err(mismatch("store attribute count does not match the dataset"));
    }
    sweep(dir, manifest.generation)?;
    let expanded = manifest.slices.iter().map(|&(_, expanded)| expanded).collect();
    let columns = ColumnContents::new(&manifest.config, expanded, manifest.has_m_r);
    let (m, k_hashes) = (manifest.config.m, manifest.config.k_hashes);
    let mut budget = OpBudget::new(options.kill_after_ops);
    let mut rebuilt = Vec::new();
    let mut intact = 0;
    let (mut bufs, mut universe_bufs) = (ValueBufs::default(), ValueBufs::default());
    for entry in &manifest.shards {
        match deep_check_shard(dir, &manifest, entry) {
            Ok(()) => {
                intact += 1;
                continue;
            }
            // A retired layout's committed digest describes its bytes,
            // which no render reproduces any more: refuse by name, not as
            // "drift".
            Err(e @ StoreError::LegacyShard { .. }) => return Err(e),
            Err(_) => {}
        }
        // Re-render the shard's columns with the build's tile renderer,
        // over the manifest's persisted slice windows and config.
        let first_attr = entry.block_start * 64;
        let num_cols = (first_attr + entry.block_count * 64).min(dataset.len()) - first_attr;
        let section = |target: usize| {
            let mut builder = BloomMatrixBuilder::new(m, num_cols, k_hashes);
            for mut tile in builder.tiles() {
                columns.render_tile(dataset, target, first_attr, &mut tile, &mut bufs, |_, _| {});
            }
            (builder.build(), 0)
        };
        let universe_fn = |attr: usize, w: &mut Writer| {
            columns.values_into(0, dataset.attribute(attr as AttrId), &mut universe_bufs);
            w.ascending(&universe_bufs.0)
        };
        let mut w = Writer::new(SHARD_MAGIC);
        let (id, start, count) = (entry.id, entry.block_start, entry.block_count);
        write_shard(&mut w, &manifest, id, start, count, section, universe_fn);
        let digest = w.crc();
        let payload = w.into_bytes();
        if digest != entry.digest || payload.len() as u64 != entry.byte_len {
            return Err(mismatch(format!(
                "rebuilt shard {} hashes to {digest:#010x} but the manifest committed \
                 {:#010x} — dataset or config drift; re-pack instead of repairing",
                entry.id, entry.digest
            )));
        }
        let path = dir.join(shard_name(manifest.generation, entry.id));
        publish(&path, &mut budget, |f| f.write_all(&payload))?;
        rebuilt.push(entry.id);
    }
    Ok(RepairReport { generation: manifest.generation, rebuilt, intact })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexConfig;
    use tind_model::{DatasetBuilder, Timeline};

    fn dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(80));
        b.add_attribute("q", &[(0, vec!["a", "b"]), (40, vec!["a", "b", "c"])], 79);
        b.add_attribute("big", &[(0, vec!["a", "b", "c", "d"])], 79);
        b.add_attribute("other", &[(5, vec!["x", "y"])], 60);
        Arc::new(b.build())
    }

    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("tind-core-store-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn manifest_digests_are_content_hashes_not_the_crc_residue() {
        // CRC-32 of any message with its own CRC appended is the constant
        // residue 0x2144df1c; if digests were taken over the whole file
        // every valid shard would share it and a swapped-in shard from
        // another store would pass. Pin that digests vary with content and
        // that a foreign shard of identical geometry is rejected by the
        // digest alone.
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("digest-content");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        let manifest = read_manifest(&dir).expect("manifest");
        for entry in &manifest.shards {
            assert_ne!(entry.digest, 0x2144df1c, "digest must not be the CRC residue");
        }

        // Doctor the shard: flip a Bloom-strip byte, then *re-sign* the
        // file's own trailer. The result is the same length and fully
        // self-consistent — only a real content digest can reject it.
        let shard_path = dir.join(shard_name(1, 0));
        let mut raw = std::fs::read(&shard_path).expect("read shard");
        let body = raw.len() - checksum::TRAILER_LEN;
        raw[body / 2] ^= 0xff;
        let resigned = crc32(&raw[..body]).to_le_bytes();
        raw[body..].copy_from_slice(&resigned);
        std::fs::write(&shard_path, &raw).expect("write doctored shard");
        let report = verify_store(&dir).expect("verify runs");
        assert_eq!(report.faults.len(), 1, "doctored shard must fail verification");
        assert!(
            matches!(report.faults[0].error, StoreError::ShardCorrupt { .. }),
            "digest mismatch, not a structural error: {}",
            report.faults[0].error
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shard_is_quarantined_and_masked() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("missing-shard");
        // 3 attrs → 1 block → 1 shard; delete it.
        pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        std::fs::remove_file(dir.join(shard_name(1, 0))).expect("remove shard");
        let (loaded, load) = open_store(&dir, d.clone()).expect("open degraded");
        assert_eq!(load.quarantined.len(), 1);
        assert_eq!(load.quarantined[0].shard, 0);
        let mask = loaded.shard_mask().expect("mask present");
        assert_eq!(mask.masked_attrs(), 3);
        assert_eq!(mask.live_fraction(), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_shard_is_refused_by_name_at_open_verify_and_repair() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        for version in RETIRED_SHARD_VERSIONS {
            let dir = store_dir(&format!("v{version}-refusal"));
            pack_store(&index, &dir, &PackOptions::default()).expect("pack");
            // Dress the shard as a leftover of a retired layout: its magic,
            // its own trailer re-signed, and the manifest committed to
            // exactly these bytes — every check before the magic passes.
            let path = dir.join(shard_name(1, 0));
            let mut raw = std::fs::read(&path).expect("read shard");
            raw[7] = version;
            let body = raw.len() - checksum::TRAILER_LEN;
            let resigned = crc32(&raw[..body]);
            raw[body..].copy_from_slice(&resigned.to_le_bytes());
            std::fs::write(&path, &raw).expect("write retired shard");
            let mut manifest = read_manifest(&dir).expect("manifest");
            manifest.shards[0].digest = resigned;
            std::fs::write(dir.join(MANIFEST_NAME), binio::encode(&manifest)).expect("manifest");

            let refused = |e: &StoreError| {
                assert!(
                    matches!(e, StoreError::LegacyShard { version: v } if *v == version),
                    "typed refusal, got {e}"
                );
                assert_eq!(
                    e.to_string(),
                    format!(
                        "TINDSH v{version} is no longer supported; re-pack with `tind store pack`"
                    )
                );
            };
            for backing in [StoreBacking::Mmap, StoreBacking::Windowed] {
                let (_, load) =
                    open_store_with(&dir, d.clone(), &OpenOptions { backing, memory_budget: None })
                        .expect("open degraded");
                assert_eq!(load.quarantined.len(), 1, "{backing}: v{version} shard quarantined");
                refused(&load.quarantined[0].error);
            }
            let verify = verify_store(&dir).expect("verify runs");
            assert_eq!(verify.faults.len(), 1);
            refused(&verify.faults[0].error);
            let repair = repair_store(&dir, &d, &RepairOptions::default());
            refused(&repair.expect_err("repair refuses"));
            assert_eq!(std::fs::read(&path).expect("reread"), raw, "refusal rewrites nothing");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn second_pack_bumps_generation_and_sweeps_stale() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("generations");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack 1");
        let report = pack_store(&index, &dir, &PackOptions::default()).expect("pack 2");
        assert_eq!(report.generation, 2);
        assert!(report.swept_stale >= 1, "generation-1 shards swept");
        let (_, load) = open_store(&dir, d.clone()).expect("open");
        assert_eq!(load.generation, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_pack_leaves_previous_generation_intact() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("killed-pack");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack 1");
        let err = pack_store(
            &index,
            &dir,
            &PackOptions { kill_after_ops: Some(1), ..PackOptions::default() },
        )
        .expect_err("killed");
        assert!(matches!(err, StoreError::Killed { .. }));
        // Generation 1 still opens cleanly; the stranded temp is swept.
        let (loaded, load) = open_store(&dir, d.clone()).expect("open");
        assert_eq!(load.generation, 1);
        assert!(load.is_clean());
        assert!(load.swept_temps >= 1, "orphan temp swept");
        assert_eq!(
            crate::persist::encode_index(&loaded),
            crate::persist::encode_index(&index)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_faults_without_sweeping() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("verify");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        let clean = verify_store(&dir).expect("verify");
        assert!(clean.faults.is_empty());
        assert_eq!(clean.generation, 1);
        crate::fault::flip_file_byte(&dir.join(shard_name(1, 0)), 12).expect("flip");
        let report = verify_store(&dir).expect("verify");
        assert_eq!(report.faults.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_name_parses_back() {
        assert_eq!(parse_shard_gen(&shard_name(12, 3)), Some(12));
        assert_eq!(parse_shard_gen("index.manifest"), None);
        assert_eq!(parse_shard_gen("g12-s3.shard.tmp"), None);
        assert_eq!(parse_shard_gen("gX-s3.shard"), None);
    }

    #[test]
    fn partition_covers_all_blocks_contiguously() {
        for blocks in 1..40 {
            for shards in 1..10 {
                let parts = partition_blocks(blocks, shards);
                assert_eq!(parts.len(), shards.min(blocks));
                let mut next = 0;
                for &(start, count) in &parts {
                    assert_eq!(start, next);
                    assert!(count >= 1);
                    next += count;
                }
                assert_eq!(next, blocks);
            }
        }
    }

    #[test]
    fn pack_open_is_byte_identical_across_backings() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("arena-roundtrip");
        let report = pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        assert_eq!(report.generation, 1);
        let golden = crate::persist::encode_index(&index);
        for backing in [StoreBacking::Mmap, StoreBacking::Windowed] {
            let (loaded, load) = open_store_with(
                &dir,
                d.clone(),
                &OpenOptions { backing, memory_budget: None },
            )
            .expect("open");
            assert!(load.is_clean(), "{backing}: clean load");
            assert_eq!(load.backing, backing);
            assert!(loaded.shard_mask().is_none());
            assert_eq!(
                crate::persist::encode_index(&loaded),
                golden,
                "{backing}: arena round-trip must be byte-identical"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arena_header_corruption_quarantines_with_checksum_offset() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("arena-head-corrupt");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        // Flip a generation byte: the header CRC must catch it at open,
        // before any word is trusted.
        crate::fault::flip_file_byte(&dir.join(shard_name(1, 0)), 9).expect("flip");
        let (loaded, load) = open_store(&dir, d.clone()).expect("open degraded");
        assert_eq!(load.quarantined.len(), 1);
        match &load.quarantined[0].error {
            StoreError::Bin(BinIoError::Checksum { offset, .. }) => {
                assert!(*offset > 0, "failing offset reported");
            }
            other => panic!("expected header checksum error, got {other}"),
        }
        assert!(loaded.shard_mask().is_some());
        // Deep verification names the shard with expected vs actual CRC.
        let verify = verify_store(&dir).expect("verify runs");
        match &verify.faults[0].error {
            StoreError::ShardCorrupt { shard, expected, actual } => {
                assert_eq!(*shard, 0);
                assert_ne!(expected, actual);
            }
            other => panic!("expected ShardCorrupt, got {other}"),
        }
        // Repair re-renders the arena shard byte-identically.
        let repair = repair_store(&dir, &d, &RepairOptions::default()).expect("repair");
        assert_eq!(repair.rebuilt, vec![0]);
        let (loaded, load) = open_store(&dir, d.clone()).expect("open clean");
        assert!(load.is_clean());
        assert_eq!(
            crate::persist::encode_index(&loaded),
            crate::persist::encode_index(&index)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misaligned_arena_section_is_refused() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("arena-misaligned");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        // Doctor section 0's offset to a non-64-multiple and re-sign the
        // header CRC so only the alignment check can refuse it.
        let path = dir.join(shard_name(1, 0));
        let mut raw = std::fs::read(&path).expect("read");
        let entry = ARENA_FIXED_HEADER..ARENA_FIXED_HEADER + 8;
        let off = u64::from_le_bytes(raw[entry.clone()].try_into().expect("8"));
        raw[entry].copy_from_slice(&(off + 8).to_le_bytes());
        let section_count = u32::from_le_bytes(raw[44..48].try_into().expect("4")) as usize;
        let table_end = ARENA_FIXED_HEADER + section_count * ARENA_SECTION_ENTRY;
        let crc = crc32(&raw[..table_end]).to_le_bytes();
        raw[table_end..table_end + 4].copy_from_slice(&crc);
        std::fs::write(&path, &raw).expect("write");
        let (_, load) = open_store_with(
            &dir,
            d.clone(),
            &OpenOptions { backing: StoreBacking::Mmap, memory_budget: None },
        )
        .expect("open degraded");
        assert_eq!(load.quarantined.len(), 1);
        assert!(
            matches!(load.quarantined[0].error, StoreError::Mismatch(_)),
            "alignment refusal is typed: {}",
            load.quarantined[0].error
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_arena_shard_is_refused_at_open() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("arena-truncated");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        let path = dir.join(shard_name(1, 0));
        let raw = std::fs::read(&path).expect("read");
        std::fs::write(&path, &raw[..raw.len() / 2]).expect("truncate");
        for backing in [StoreBacking::Mmap, StoreBacking::Windowed] {
            let (_, load) = open_store_with(
                &dir,
                d.clone(),
                &OpenOptions { backing, memory_budget: None },
            )
            .expect("open degraded");
            assert_eq!(load.quarantined.len(), 1, "{backing}: truncated shard quarantined");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn windowed_open_respects_memory_budget() {
        let d = dataset();
        let index =
            TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = store_dir("arena-windowed-budget");
        pack_store(&index, &dir, &PackOptions::default()).expect("pack");
        // Budget far below the index's word footprint: windows must load,
        // evict, and reload rather than fail.
        let budget = MemoryBudget::new(128 * 8 + 1);
        let (loaded, load) = open_store_with(
            &dir,
            d.clone(),
            &OpenOptions {
                backing: StoreBacking::Windowed,
                memory_budget: Some(budget.clone()),
            },
        )
        .expect("open windowed");
        assert!(load.is_clean());
        assert_eq!(
            crate::persist::encode_index(&loaded),
            crate::persist::encode_index(&index),
            "every window readable under a tiny budget"
        );
        let pool = load.window_pool.expect("windowed pool");
        assert!(pool.stats().loads > 0, "windows were demand-loaded");
        std::fs::remove_dir_all(&dir).ok();
    }
}
