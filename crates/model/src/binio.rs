//! Compact hand-rolled binary serialization for datasets.
//!
//! Datasets at experiment scale hold millions of versions; a dedicated
//! binary format (varints, delta-encoded timestamps and value ids) keeps
//! files small and loading fast without pulling in a serialization
//! framework. The format is versioned via a magic header.
//!
//! Every checksummed container of the workspace is read through
//! [`open`] + [`Reader`] and written through [`Writer`] (a
//! [`Container`] names its magic and fields), and every file is published
//! by [`publish`]: streamed to a temp file, fsynced, renamed into place.
//!
//! The dataset encoding is canonical: [`decode_dataset`] accepts only what
//! [`encode_dataset`] produces, so a verified file's bytes *are* the
//! dataset's encoding and [`dataset_fingerprint`] (the hash of that
//! encoding) is read off them once, at load, instead of re-encoding.
//!
//! [`decode_dataset`] runs on two threads. The caller checks the magic
//! and CRC, then scans the dictionary's string lengths to find where the
//! histories begin. One scoped worker checks the dictionary's UTF-8,
//! copies its strings into the arena, builds the interning index over
//! all of them at once (hash every string, sort the `(home slot, id)`
//! keys, place them in slot order — sequential writes instead of one
//! cache-missing probe per string), rejects duplicates and hashes the
//! file for the fingerprint; meanwhile the caller decodes the histories
//! straight into place, which needs only the dictionary's stated length,
//! then joins the worker. A worker panic resumes on the caller. Errors
//! are reported in byte order — the one a sequential decode meets first —
//! and a failed spawn runs the worker's closure inline, so there is one
//! decode path, not two.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::checksum::Crc32;
use crate::dataset::{Dataset, DatasetBuilder};
use crate::history::{AttributeHistory, Version};
use crate::time::Timeline;
use crate::value::{Dictionary, ValueId};

/// Magic bytes identifying a serialized dataset, including a format version.
/// Version 2 appended the CRC-32 integrity trailer (see [`crate::checksum`]).
pub const MAGIC: &[u8; 8] = b"TINDDS\x00\x02";

/// Errors arising while decoding a serialized dataset.
#[derive(Debug)]
pub enum BinIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The byte stream does not conform to the format.
    Corrupt(String),
    /// The integrity trailer does not match the payload: the file was
    /// truncated or bit-flipped after it was written.
    Checksum {
        /// CRC-32 stored in the trailer.
        stored: u32,
        /// CRC-32 recomputed over the payload.
        computed: u32,
        /// Byte offset of the trailer within the file — everything before
        /// this offset is covered by the checksum, so this is also the
        /// payload length the verifier hashed. Operators use it to locate
        /// where a file was cut or copied short.
        offset: u64,
    },
}

impl std::fmt::Display for BinIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinIoError::Io(e) => write!(f, "i/o error: {e}"),
            BinIoError::Corrupt(msg) => write!(f, "corrupt dataset file: {msg}"),
            BinIoError::Checksum { stored, computed, offset } => write!(
                f,
                "checksum mismatch over bytes 0..{offset}: trailer at byte offset {offset} says \
                 {stored:#010x} but payload hashes to {computed:#010x} (file truncated or \
                 corrupted)"
            ),
        }
    }
}

impl std::error::Error for BinIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinIoError::Io(e) => Some(e),
            BinIoError::Corrupt(_) | BinIoError::Checksum { .. } => None,
        }
    }
}

impl From<std::io::Error> for BinIoError {
    fn from(e: std::io::Error) -> Self {
        BinIoError::Io(e)
    }
}

/// A [`BinIoError::Corrupt`] saying `msg`.
pub fn corrupt(msg: impl Into<String>) -> BinIoError {
    BinIoError::Corrupt(msg.into())
}

/// Validates an 8-byte magic header (7-byte identifier + version byte),
/// distinguishing "not this kind of file" from "right file, wrong
/// version" so operators see an actionable message.
fn check_magic(bytes: &[u8], magic: &[u8; 8], what: &str) -> Result<(), BinIoError> {
    if bytes.len() < magic.len() || bytes[..magic.len() - 1] != magic[..magic.len() - 1] {
        return Err(corrupt(format!("bad {what} magic header")));
    }
    let version = bytes[magic.len() - 1];
    if version != magic[magic.len() - 1] {
        return Err(corrupt(format!(
            "unsupported {what} format version {version} (this build reads version {}; \
             re-generate the file)",
            magic[magic.len() - 1]
        )));
    }
    Ok(())
}

/// Opens a checksummed container: checks the magic header, verifies and
/// strips the CRC-32 trailer, and returns a reader positioned just after
/// the magic. Every on-disk container starts its decode here.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8], what: &str) -> Result<Reader<'a>, BinIoError> {
    check_magic(bytes, magic, what)?;
    let payload = crate::checksum::verify_and_strip(bytes)?;
    Ok(Reader::new(&payload[magic.len()..]))
}

/// Checked read cursor over a byte slice: every accessor returns
/// `Corrupt("truncated {what}")` instead of reading past the end, so no
/// decoder needs a length check of its own.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over all of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The next `n` bytes, borrowed from the underlying buffer.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], BinIoError> {
        if self.buf.len() < n {
            return Err(corrupt(format!("truncated {what}")));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], BinIoError> {
        Ok(self.bytes(N, what)?.try_into().expect("N-byte slice"))
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, BinIoError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32_le(&mut self, what: &str) -> Result<u32, BinIoError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self, what: &str) -> Result<u64, BinIoError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// A big-endian `f64` (the byte order the formats have always used).
    pub fn f64(&mut self, what: &str) -> Result<f64, BinIoError> {
        Ok(f64::from_be_bytes(self.array(what)?))
    }

    /// Decodes a varint, failing on truncation, on encodings that do not
    /// fit a `u64` (more than 10 bytes, or a 10th byte carrying more than
    /// the one bit that is left), and on overlong encodings (a final zero
    /// byte after the first): every accepted varint is the one
    /// [`Writer::varint`] writes for its value.
    ///
    /// On failure the reader has consumed the bytes up to and including
    /// the one that failed (all of them, for a truncation).
    pub fn varint(&mut self) -> Result<u64, BinIoError> {
        let buf = self.buf;
        if let Some(&byte) = buf.first().filter(|&&b| b < 0x80) {
            self.buf = &buf[1..];
            return Ok(u64::from(byte));
        }
        let mut v: u64 = 0;
        for (i, &byte) in buf.iter().enumerate() {
            let shift = 7 * i as u32;
            if shift >= 64 || (shift == 63 && byte & 0x7f > 1) {
                self.buf = &buf[i + 1..];
                return Err(corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                self.buf = &buf[i + 1..];
                if byte == 0 && i > 0 {
                    return Err(corrupt("overlong varint"));
                }
                return Ok(v);
            }
        }
        self.buf = &[];
        Err(corrupt("truncated varint"))
    }

    /// Decodes an ascending set written by [`Writer::ascending`], refusing
    /// a repeated id and any id at or above `bound`; `what` names the set.
    pub fn ascending(&mut self, bound: u64, what: &str) -> Result<Vec<u32>, BinIoError> {
        let len = self.varint()?;
        // At least one byte per id: a hostile count cannot out-allocate its file.
        let mut out = Vec::with_capacity((len as usize).min(self.remaining()));
        let mut id = 0u64;
        for i in 0..len {
            let d = self.varint()?;
            if i > 0 && d == 0 {
                return Err(corrupt(format!("duplicate id in {what}")));
            }
            id = id.saturating_add(d);
            if id >= bound.min(1 << 32) {
                return Err(corrupt(format!("{what} id {id} out of range")));
            }
            out.push(id as u32);
        }
        Ok(out)
    }

    /// Decodes a length-prefixed UTF-8 string, validated where it lies.
    pub fn str(&mut self) -> Result<&'a str, BinIoError> {
        let len = usize::try_from(self.varint()?).map_err(|_| corrupt("string length overflow"))?;
        std::str::from_utf8(self.bytes(len, "string")?)
            .map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// Fails with `Corrupt("trailing bytes after {what}")` unless every
    /// byte was read.
    pub fn finish(self, what: &str) -> Result<(), BinIoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(corrupt(format!("trailing bytes after {what}")))
        }
    }
}

/// Bytes a [`Writer`] buffers before it checksums them (and, when it
/// streams, hands them to its sink).
const CHUNK: usize = 64 * 1024;

/// A checksummed container: an 8-byte magic (7-byte identifier + version
/// byte), then the fields [`Container::write_fields`] writes, then the
/// CRC-32 trailer. [`encode`] renders one in memory, [`write_file`] to a
/// file.
pub trait Container {
    /// The magic the container starts with.
    fn magic(&self) -> &'static [u8; 8];

    /// Writes every field after the magic.
    fn write_fields<W: Write>(&self, w: &mut Writer<W>);
}

/// The mirror of [`Reader`]: writes one container — the magic, the fields,
/// and last the CRC-32 trailer over every byte before it.
///
/// The CRC runs over buffered chunks, not field by field, so a varint
/// costs a copy and not a CRC call, and [`Writer::crc`] is the CRC of
/// every byte so far at any point (a store shard's header CRC is read off
/// it). An in-memory writer ([`Writer::new`]) keeps every byte for
/// [`Writer::into_bytes`]; a streaming one ([`Writer::streaming`]) hands
/// each checksummed chunk to its sink. Field writes cannot fail: the first
/// error of the sink is kept and [`Writer::finish`] returns it.
#[derive(Debug)]
pub struct Writer<W = Vec<u8>> {
    buf: Vec<u8>,
    /// The prefix of `buf` the CRC has seen.
    summed: usize,
    crc: Crc32,
    /// Bytes handed to the sink before `buf`.
    drained: u64,
    /// `None` keeps every byte in `buf`.
    sink: Option<W>,
    error: Option<io::Error>,
}

impl Default for Writer {
    /// An in-memory writer without a magic: the fields of a digest, or a
    /// blob embedded in a container.
    fn default() -> Self {
        Writer::over(&[], None)
    }
}

impl Writer {
    /// An in-memory writer that starts with `magic`.
    pub fn new(magic: &[u8; 8]) -> Self {
        Writer::over(magic, None)
    }

    /// The bytes written so far, without a trailer.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends the trailer and returns the container's bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.seal();
        self.buf
    }
}

impl<W: Write> Writer<W> {
    /// A writer that streams to `sink`, starting with `magic`.
    pub fn streaming(sink: W, magic: &[u8; 8]) -> Self {
        Writer::over(magic, Some(sink))
    }

    fn over(magic: &[u8], sink: Option<W>) -> Self {
        let mut buf = Vec::with_capacity(CHUNK);
        buf.extend_from_slice(magic);
        Writer { buf, summed: 0, crc: Crc32::new(), drained: 0, sink, error: None }
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.drained + self.buf.len() as u64
    }

    /// CRC-32 of every byte written so far.
    pub fn crc(&self) -> u32 {
        let mut crc = self.crc.clone();
        crc.update(&self.buf[self.summed..]);
        crc.finish()
    }

    /// Room for `additional` more bytes, which only an in-memory writer
    /// holds all at once.
    pub fn reserve(&mut self, additional: usize) {
        if self.sink.is_none() {
            self.buf.reserve(additional);
        }
    }

    /// LEB128-style unsigned varint, the one [`Reader::varint`] reads.
    #[inline]
    pub fn varint(&mut self, v: u64) {
        push_varint(&mut self.buf, v);
        self.spill();
    }

    /// An ascending `u32` set: its length, then each id's difference from
    /// the one before.
    pub fn ascending(&mut self, ids: &[u32]) {
        push_varint(&mut self.buf, ids.len() as u64);
        let mut prev = 0;
        for &id in ids {
            push_varint(&mut self.buf, u64::from(id - prev));
            prev = id;
        }
        self.spill();
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
        self.spill();
    }

    /// A little-endian `u32`.
    pub fn u32_le(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    pub fn u64_le(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Little-endian `u64`s, back to back.
    pub fn u64s_le(&mut self, words: &[u64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * words.len(), 0);
        for (out, word) in self.buf[start..].chunks_exact_mut(8).zip(words) {
            out.copy_from_slice(&word.to_le_bytes());
        }
        self.spill();
    }

    /// A big-endian `f64` (the byte order the formats have always used).
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_be_bytes());
    }

    /// Raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.spill();
    }

    #[inline]
    fn spill(&mut self) {
        if self.buf.len() - self.summed >= CHUNK {
            self.spill_chunk();
        }
    }

    /// Checksums the buffered bytes and, when streaming, drains them.
    #[cold]
    fn spill_chunk(&mut self) {
        self.crc.update(&self.buf[self.summed..]);
        self.summed = self.buf.len();
        if self.sink.is_some() {
            self.drain();
        }
    }

    /// Hands the whole buffer to the sink.
    fn drain(&mut self) {
        if let (Some(sink), None) = (&mut self.sink, &self.error) {
            self.error = sink.write_all(&self.buf).err();
        }
        self.drained += self.buf.len() as u64;
        self.buf.clear();
        self.summed = 0;
    }

    /// Appends the trailer and returns its value.
    fn seal(&mut self) -> u32 {
        let crc = self.crc();
        self.buf.extend_from_slice(&crc.to_le_bytes());
        crc
    }

    /// Appends the trailer, drains and flushes the sink, and returns the
    /// trailer's value, or the first error of the sink.
    pub fn finish(mut self) -> io::Result<u32> {
        let crc = self.seal();
        self.drain();
        if let (Some(sink), None) = (&mut self.sink, &self.error) {
            self.error = sink.flush().err();
        }
        self.error.map_or(Ok(crc), Err)
    }
}

#[inline]
fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// `container`'s bytes, trailer included.
pub fn encode<C: Container + ?Sized>(container: &C) -> Vec<u8> {
    let mut w = Writer::new(container.magic());
    container.write_fields(&mut w);
    w.into_bytes()
}

/// Streams `container` to `path` through [`publish`].
pub fn write_file<C: Container + ?Sized>(container: &C, path: &Path) -> io::Result<()> {
    publish(path, &mut OpBudget::default(), |file| {
        let mut w = Writer::streaming(file, container.magic());
        container.write_fields(&mut w);
        w.finish().map(drop)
    })
}

/// Publishes the file at `path`: `write` streams it into `path` + `.tmp`,
/// which is fsynced and renamed over `path`, so a reader or a crash sees
/// the old file or the new one, never part of one. The parent directory
/// (`.` for a bare file name) is then fsynced, so the rename survives a
/// power loss once this returns. Creating and writing the temp, the fsync,
/// the rename and the directory fsync are one [`OpBudget`] step each. A
/// failed write or fsync removes the temp; a temp a crash left behind is
/// truncated by the next publish to the same path.
pub fn publish<T>(
    path: &Path,
    budget: &mut OpBudget,
    write: impl FnOnce(&mut std::fs::File) -> io::Result<T>,
) -> io::Result<T> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    budget.step()?;
    let mut file = std::fs::File::create(&tmp)?;
    let written = write(&mut file).and_then(|out| {
        budget.step()?;
        file.sync_all().map(|()| out)
    });
    drop(file);
    if written.as_ref().is_err_and(|e| Killed::find(e).is_none()) {
        let _ = std::fs::remove_file(&tmp);
    }
    let out = written?;
    budget.step()?;
    std::fs::rename(&tmp, path)?;
    budget.step()?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::File::open(dir)?.sync_all()?;
    Ok(out)
}

/// Counted [`publish`] steps, for kill injection: a limit of `n` allows
/// exactly `n` steps and fails the next with [`Killed`], so sweeping `n`
/// upward reaches every boundary. The default never kills.
#[derive(Debug, Default)]
pub struct OpBudget {
    limit: Option<u64>,
    performed: u64,
}

impl OpBudget {
    /// A budget of `limit` steps; `None` never kills.
    pub fn new(limit: Option<u64>) -> Self {
        OpBudget { limit, performed: 0 }
    }

    /// Accounts one step, or fails with the [`Killed`] error.
    pub fn step(&mut self) -> io::Result<()> {
        if self.limit.is_some_and(|limit| self.performed >= limit) {
            return Err(io::Error::other(Killed { ops: self.performed }));
        }
        self.performed += 1;
        Ok(())
    }
}

/// An injected kill after `ops` [`OpBudget`] steps: the files are left as
/// a SIGKILL at that boundary would leave them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Killed {
    /// Steps performed before the kill.
    pub ops: u64,
}

impl Killed {
    /// The kill `e` carries, if it is one.
    pub fn find(e: &io::Error) -> Option<Killed> {
        e.get_ref()?.downcast_ref::<Killed>().copied()
    }
}

impl std::fmt::Display for Killed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected kill after {} write operations", self.ops)
    }
}

impl std::error::Error for Killed {}

/// Serializes `dataset` into a byte buffer.
pub fn encode_dataset(dataset: &Dataset) -> Vec<u8> {
    encode(dataset)
}

impl Container for Dataset {
    fn magic(&self) -> &'static [u8; 8] {
        MAGIC
    }

    fn write_fields<W: Write>(&self, w: &mut Writer<W>) {
        w.reserve(1 << 20);
        w.varint(u64::from(self.timeline().len()));
        // Dictionary, in id order so ids are implicit.
        w.varint(self.dictionary().len() as u64);
        for (_, s) in self.dictionary().iter() {
            w.str(s);
        }
        w.varint(self.len() as u64);
        for h in self.attributes() {
            w.str(h.name());
            w.varint(u64::from(h.last_observed()));
            w.varint(h.versions().len() as u64);
            let mut prev_start = 0u32;
            for v in h.versions() {
                w.varint(u64::from(v.start - prev_start));
                prev_start = v.start;
                w.ascending(&v.values);
            }
        }
    }
}

/// Deserializes a dataset from bytes produced by [`encode_dataset`].
///
/// The decode is canonical: it accepts exactly the byte strings
/// [`encode_dataset`] can produce, so re-encoding an accepted file gives
/// back the same bytes. Everything else — overlong varints, a version
/// equal to its predecessor (which [`HistoryBuilder::push`] would merge
/// away), start or value-id delta sums that overflow — is `Corrupt`. That
/// is what lets the returned dataset carry `hash_bytes(bytes)` as its
/// [`dataset_fingerprint`] without re-encoding anything.
///
/// The dictionary and the histories decode on two threads (see the module
/// docs). The dictionary's index is built in one pass over all its
/// strings, not by interning them one at a time; the result is the
/// dictionary sequential interning gives. The error reported is still the
/// one a sequential decode meets first: magic and checksum, then the
/// dictionary (if the length scan stops at a truncated entry, an invalid
/// or duplicate entry before it still wins), then the histories, then
/// trailing bytes.
///
/// [`HistoryBuilder::push`]: crate::history::HistoryBuilder::push
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset, BinIoError> {
    let mut buf = open(bytes, MAGIC, "dataset")?;
    let timeline_len =
        u32::try_from(buf.varint()?).map_err(|_| corrupt("timeline length overflow"))?;
    if timeline_len == 0 {
        return Err(corrupt("zero-length timeline"));
    }
    let dict_len = buf.varint()? as usize;
    let entries = buf.clone();
    let arena_bytes = match skip_strings(&mut buf, dict_len) {
        Ok(total) => total,
        // The scan reads only lengths: an entry before the one it stopped
        // at may be invalid or a duplicate, and that fault comes first.
        Err(scan) => return Err(decode_dictionary(entries, dict_len, 0).err().unwrap_or(scan)),
    };
    // Captures only shared references, so the closure is `Copy`: a failed
    // spawn drops one copy and the caller runs another.
    let dictionary_and_fingerprint = || {
        let dictionary = decode_dictionary(entries.clone(), dict_len, arena_bytes);
        (dictionary, crate::hash::hash_bytes(bytes))
    };
    let (dictionary, fingerprint, attributes) = std::thread::scope(|scope| {
        let worker = std::thread::Builder::new().spawn_scoped(scope, dictionary_and_fingerprint);
        let attributes = decode_histories(buf, dict_len, timeline_len);
        let (dictionary, fingerprint) = match worker {
            Ok(handle) => handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Err(_) => dictionary_and_fingerprint(),
        };
        (dictionary, fingerprint, attributes)
    });
    // Byte order: a dictionary fault precedes any history fault.
    let dictionary = dictionary?;
    let attributes = attributes?;
    let dataset =
        DatasetBuilder::from_parts(Timeline::new(timeline_len), dictionary, attributes).build();
    dataset.fingerprint_cell().get_or_init(|| fingerprint);
    Ok(dataset)
}

/// Steps over `count` length-prefixed strings without looking inside
/// them, and returns their total length in bytes.
fn skip_strings(buf: &mut Reader<'_>, count: usize) -> Result<usize, BinIoError> {
    let mut total = 0;
    for _ in 0..count {
        let len = usize::try_from(buf.varint()?).map_err(|_| corrupt("string length overflow"))?;
        total += buf.bytes(len, "string")?.len();
    }
    Ok(total)
}

/// Decodes the `len` dictionary entries at the front of `buf`, whose
/// strings total `arena_bytes` (0 when unknown): the strings are copied
/// into the arena in one pass, then [`Dictionary`]'s index is built over
/// all of them at once. A repeated string is reported at its second
/// occurrence and an unreadable entry where it stands, whichever comes
/// first in the file.
fn decode_dictionary(
    mut buf: Reader<'_>,
    len: usize,
    arena_bytes: usize,
) -> Result<Dictionary, BinIoError> {
    let mut bytes = String::with_capacity(arena_bytes);
    // Every entry takes at least its length byte, so the bytes left bound
    // the count: a hostile `len` cannot out-allocate its own file.
    let mut ends = Vec::with_capacity(len.min(buf.remaining()));
    let mut unreadable = None;
    for _ in 0..len {
        match buf.str() {
            Ok(s) => {
                bytes.push_str(s);
                ends.push(bytes.len());
            }
            Err(e) => {
                unreadable = Some(e);
                break;
            }
        }
    }
    // Only entries before the unreadable one are in the arena, so a
    // repeat found among them precedes it.
    let dictionary = Dictionary::from_arena(bytes, ends)
        .map_err(|s| corrupt(format!("duplicate dictionary entry '{s}'")))?;
    unreadable.map_or(Ok(dictionary), Err)
}

/// Decodes the attribute section, which must end the payload, straight
/// into place. Each history's invariants are proven as its bytes are read
/// — starts strictly increase, every id is above its predecessor and
/// inside the dictionary, no version repeats the one before — so nothing
/// is sorted or scanned twice.
fn decode_histories(
    mut buf: Reader<'_>,
    dict_len: usize,
    timeline_len: u32,
) -> Result<Vec<Arc<AttributeHistory>>, BinIoError> {
    // One compare per id: at or past this bound an id is either outside
    // the dictionary or not a `u32`, and the cold path says which.
    let id_bound = (dict_len as u64).min(1 << 32);
    let num_attrs = buf.varint()? as usize;
    // Counts are bounded by the bytes left, as for the dictionary.
    let mut attributes = Vec::with_capacity(num_attrs.min(buf.remaining()));
    for _ in 0..num_attrs {
        let name = buf.str()?;
        let last_observed =
            u32::try_from(buf.varint()?).map_err(|_| corrupt("last_observed overflow"))?;
        let num_versions = buf.varint()? as usize;
        if num_versions == 0 {
            return Err(corrupt(format!("attribute '{name}' has no versions")));
        }
        let mut versions: Vec<Version> = Vec::with_capacity(num_versions.min(buf.remaining()));
        let mut start = 0u32;
        for vi in 0..num_versions {
            let delta =
                u32::try_from(buf.varint()?).map_err(|_| corrupt("start delta overflow"))?;
            if vi > 0 && delta == 0 {
                return Err(corrupt(format!("attribute '{name}': non-increasing version start")));
            }
            start = start
                .checked_add(delta)
                .ok_or_else(|| corrupt(format!("attribute '{name}': version start overflow")))?;
            let card = buf.varint()? as usize;
            let mut values: Vec<ValueId> = Vec::with_capacity(card.min(buf.remaining()));
            let mut val: u64 = 0;
            for ci in 0..card {
                let d = buf.varint()?;
                if ci > 0 && d == 0 {
                    return Err(corrupt("duplicate value id in version"));
                }
                val = val.checked_add(d).ok_or_else(|| corrupt("value id overflow"))?;
                if val >= id_bound {
                    return Err(match u32::try_from(val) {
                        Ok(id) => corrupt(format!("value id {id} outside dictionary")),
                        Err(_) => corrupt("value id overflow"),
                    });
                }
                values.push(val as ValueId);
            }
            // The encoder never writes a version equal to its predecessor
            // (`HistoryBuilder::push` merges one away).
            if versions.last().is_some_and(|prev| prev.values == values) {
                return Err(corrupt(format!("attribute '{name}': repeated version")));
            }
            versions.push(Version { start, values });
        }
        if last_observed < start || last_observed >= timeline_len {
            return Err(corrupt(format!("attribute '{name}': invalid last_observed")));
        }
        let history = AttributeHistory::from_canonical(name.to_owned(), versions, last_observed);
        attributes.push(Arc::new(history));
    }
    buf.finish("dataset")?;
    Ok(attributes)
}

/// Serializes a weight function (tag byte + payload).
pub fn put_weight_fn<W: Write>(w: &mut Writer<W>, f: &crate::WeightFn) {
    use crate::WeightFn;
    match f {
        WeightFn::Constant { per_timestamp } => {
            w.u8(0);
            w.f64(*per_timestamp);
        }
        WeightFn::ExponentialDecay { a, n } => {
            w.u8(1);
            w.f64(*a);
            w.varint(u64::from(*n));
        }
        WeightFn::LinearDecay { n } => {
            w.u8(2);
            w.varint(u64::from(*n));
        }
        WeightFn::Piecewise { prefix } => {
            w.u8(3);
            w.varint(prefix.len() as u64);
            for &p in prefix.iter() {
                w.f64(p);
            }
        }
    }
}

/// Deserializes a weight function written by [`put_weight_fn`].
pub fn get_weight_fn(buf: &mut Reader<'_>) -> Result<crate::WeightFn, BinIoError> {
    use crate::WeightFn;
    const PAYLOAD: &str = "weight function payload";
    match buf.u8("weight function")? {
        0 => Ok(WeightFn::Constant { per_timestamp: buf.f64(PAYLOAD)? }),
        1 => {
            let a = buf.f64(PAYLOAD)?;
            let n = u32::try_from(buf.varint()?).map_err(|_| corrupt("n overflow"))?;
            if !(a > 0.0 && a < 1.0) {
                return Err(corrupt("decay base out of range"));
            }
            Ok(WeightFn::ExponentialDecay { a, n })
        }
        2 => {
            let n = u32::try_from(buf.varint()?).map_err(|_| corrupt("n overflow"))?;
            Ok(WeightFn::LinearDecay { n })
        }
        3 => {
            let len = buf.varint()? as usize;
            let bytes = len.checked_mul(8).ok_or_else(|| corrupt("prefix overflow"))?;
            let prefix: Vec<f64> = buf
                .bytes(bytes, PAYLOAD)?
                .chunks_exact(8)
                .map(|c| f64::from_be_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            if prefix.windows(2).any(|w| w[1] < w[0]) || prefix.first() != Some(&0.0) {
                return Err(corrupt("invalid weight prefix sums"));
            }
            Ok(WeightFn::Piecewise { prefix: std::sync::Arc::new(prefix) })
        }
        other => Err(corrupt(format!("unknown weight function tag {other}"))),
    }
}

/// A 64-bit fingerprint of a dataset's serialized form —
/// `hash_bytes(encode_dataset(dataset))`, trailer included; persisted
/// indexes store it so a stale index cannot silently be used with a
/// different dataset.
///
/// Computed at most once per dataset value: [`decode_dataset`] records the
/// hash of the file bytes it verified (the canonical encoding, so the same
/// number), and a built dataset encodes itself on the first call.
pub fn dataset_fingerprint(dataset: &Dataset) -> u64 {
    *dataset.fingerprint_cell().get_or_init(|| crate::hash::hash_bytes(&encode_dataset(dataset)))
}

/// Writes `dataset` to the file at `path` (see [`publish`]).
pub fn write_dataset_file(dataset: &Dataset, path: &Path) -> Result<(), BinIoError> {
    Ok(write_file(dataset, path)?)
}

/// Reads a dataset from the file at `path`.
pub fn read_dataset_file(path: &Path) -> Result<Dataset, BinIoError> {
    decode_dataset(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timeline;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(100));
        b.add_attribute(
            "games",
            &[(0, vec!["red", "blue"]), (40, vec!["red", "blue", "gold"])],
            99,
        );
        b.add_attribute("devs", &[(10, vec!["masuda", "morimoto"])], 80);
        b.add_attribute("empty-ish", &[(5, Vec::<&str>::new())], 9);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = sample();
        let d2 = decode_dataset(&encode_dataset(&d)).expect("decodes");
        assert_eq!(d2.timeline(), d.timeline());
        assert_eq!(d2.len(), d.len());
        assert_eq!(d2.dictionary().len(), d.dictionary().len());
        for (id, h) in d.iter() {
            let h2 = d2.attribute(id);
            assert_eq!(h2.name(), h.name());
            assert_eq!(h2.versions(), h.versions());
            assert_eq!(h2.last_observed(), h.last_observed());
        }
        // Interning must produce identical ids after roundtrip.
        assert_eq!(d.dictionary().get("gold"), d2.dictionary().get("gold"));
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Writer::default();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.varint(v);
        }
        let mut bytes = Reader::new(buf.as_slice());
        for &v in &values {
            assert_eq!(bytes.varint().expect("decodes"), v);
        }
        bytes.finish("varints").expect("all read");
    }

    /// The byte-at-a-time decoder `Reader::varint` replaced: the oracle.
    fn reference_varint(r: &mut Reader<'_>) -> Result<u64, BinIoError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = r.u8("varint")?;
            if shift >= 64 || (shift == 63 && byte & 0x7f > 1) {
                return Err(corrupt("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(corrupt("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Same value or same error text, and the same bytes consumed.
    fn assert_varint_agrees(bytes: &[u8]) {
        let (mut fast, mut slow) = (Reader::new(bytes), Reader::new(bytes));
        let got = fast.varint().map_err(|e| e.to_string());
        let want = reference_varint(&mut slow).map_err(|e| e.to_string());
        assert_eq!(got, want, "{bytes:02x?}");
        assert_eq!(fast.remaining(), slow.remaining(), "{bytes:02x?}");
    }

    #[test]
    fn varint_matches_the_byte_loop_reference() {
        let mut values = vec![0u64, 127, 128, u64::MAX];
        for k in 0..64 {
            let p = 1u64 << k;
            values.extend([p - 1, p, p + 1]);
        }
        let mut inputs = Vec::new();
        for v in values {
            let mut w = Writer::default();
            w.varint(v);
            let enc = w.as_slice().to_vec();
            // Overlong forms: the last byte continued, then zero or more
            // empty continuation bytes and a final zero, up to 11 bytes.
            for pad in 0..=11usize.saturating_sub(enc.len() + 1) {
                let mut long = enc.clone();
                *long.last_mut().expect("non-empty") |= 0x80;
                long.resize(long.len() + pad, 0x80);
                long.push(0x00);
                inputs.push(long);
            }
            inputs.push(enc);
        }
        for input in &inputs {
            for cut in 0..=input.len() {
                assert_varint_agrees(&input[..cut]);
            }
            let mut followed = input.clone();
            followed.push(0x2a);
            assert_varint_agrees(&followed);
        }
        crate::rng::cases("varint_matches_the_byte_loop_reference", 4096, |rng| {
            let len = rng.range(0..=12usize);
            // Mostly continuation bytes, so long runs and the 10th-byte
            // limit come up often.
            let bytes: Vec<u8> = (0..len)
                .map(|_| rng.range(0..=255u8) | if rng.range(0..4u32) == 0 { 0 } else { 0x80 })
                .collect();
            assert_varint_agrees(&bytes);
        });
    }

    /// Regression: the 10th byte has one payload bit left (bit 63). A
    /// larger payload used to be shifted out silently, so a non-canonical
    /// encoding decoded as a different number.
    #[test]
    fn varint_tenth_byte_overflow_is_rejected() {
        let mut max = [0xffu8; 10];
        max[9] = 0x01;
        assert_eq!(Reader::new(&max).varint().expect("u64::MAX"), u64::MAX);
        let mut over = max;
        over[9] = 0x02;
        let err = Reader::new(&over).varint().expect_err("bit 64 does not exist");
        assert!(err.to_string().contains("varint overflows u64"), "{err}");
        // An 11th byte is still refused, and a cut-off run is a truncation.
        let err = Reader::new(&[0xff; 11]).varint().expect_err("overlong");
        assert!(err.to_string().contains("varint overflows u64"), "{err}");
        let err = Reader::new(&[0xff; 9]).varint().expect_err("cut");
        assert!(err.to_string().contains("truncated varint"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = decode_dataset(b"NOTADATASET").expect_err("must fail");
        assert!(matches!(err, BinIoError::Corrupt(_)));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = encode_dataset(&sample());
        for cut in [MAGIC.len(), bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_dataset(&bytes[..cut]).is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut raw = encode_dataset(&sample());
        raw.push(0x42);
        assert!(decode_dataset(&raw).is_err());
    }

    /// A CRC-valid dataset file: `body` between the magic and the trailer.
    fn sealed(body: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::new(MAGIC);
        w.varint(100); // timeline
        body(&mut w);
        w.into_bytes()
    }

    #[test]
    fn hostile_counts_cannot_out_allocate_the_file() {
        // 40 bytes in all, claiming 2^40 dictionary entries. Sizing
        // anything by the claim would ask the allocator for terabytes and
        // abort the process; the claim must instead run into the end of
        // the file (here: a second empty string is a duplicate entry).
        let file = sealed(|buf| {
            buf.varint(1 << 40);
            buf.bytes(&[0u8; 21]);
        });
        assert_eq!(file.len(), 40);
        assert!(matches!(decode_dataset(&file), Err(BinIoError::Corrupt(_))));

        // Same for a version claiming 2^40 values.
        let file = sealed(|buf| {
            buf.varint(1); // dictionary: one entry
            buf.str("a");
            buf.varint(1); // attributes: one
            buf.str("x");
            buf.varint(5); // last_observed
            buf.varint(1); // versions: one
            buf.varint(0); // start
            buf.varint(1 << 40); // cardinality
        });
        assert!(matches!(decode_dataset(&file), Err(BinIoError::Corrupt(_))));
    }

    /// One attribute "x" over a two-entry dictionary, observed through 5,
    /// whose version list is `versions` (count included).
    fn sealed_versions(versions: impl FnOnce(&mut Writer)) -> Vec<u8> {
        sealed_versions_over(2, versions)
    }

    /// [`sealed_versions`] over a dictionary of `entries` one-letter strings.
    fn sealed_versions_over(entries: u8, versions: impl FnOnce(&mut Writer)) -> Vec<u8> {
        sealed(|buf| {
            buf.varint(u64::from(entries));
            for letter in b'a'..b'a' + entries {
                buf.str(std::str::from_utf8(&[letter]).expect("ascii"));
            }
            buf.varint(1);
            buf.str("x");
            buf.varint(5); // last_observed
            versions(buf);
        })
    }

    fn assert_corrupt(file: &[u8], needle: &str) {
        match decode_dataset(file) {
            Err(BinIoError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected Corrupt({needle}), got {other:?}"),
        }
    }

    /// Regression: start deltas summing past `u32::MAX` overflowed (debug)
    /// or wrapped into `HistoryBuilder::push`'s ordering assert (release).
    #[test]
    fn version_start_overflow_is_corrupt() {
        let file = sealed_versions(|buf| {
            buf.varint(2);
            buf.varint(u64::from(u32::MAX)); // start u32::MAX
            buf.varint(0);
            buf.varint(1); // start u32::MAX + 1
            buf.varint(1);
            buf.varint(0);
        });
        assert_corrupt(&file, "version start overflow");
    }

    /// Regression: value-id deltas summing past `u64::MAX` overflowed
    /// (debug) or wrapped to id 0 and decoded as `{0, 1}` (release).
    #[test]
    fn value_id_delta_overflow_is_corrupt() {
        let file = sealed_versions(|buf| {
            buf.varint(1);
            buf.varint(0);
            buf.varint(2); // cardinality
            buf.varint(1); // id 1
            buf.varint(u64::MAX); // 1 + u64::MAX
        });
        assert_corrupt(&file, "value id overflow");
    }

    /// Regression: a varint with a redundant zero continuation byte
    /// decoded like the short form, so the file re-encoded differently.
    #[test]
    fn overlong_varint_is_corrupt() {
        let file = sealed_versions(|buf| {
            buf.varint(1);
            buf.varint(0);
            buf.bytes(&[0x81, 0x00]); // cardinality 1, overlong
            buf.varint(0);
        });
        assert_corrupt(&file, "overlong varint");
        assert_eq!(Reader::new(&[0x80, 0x01]).varint().expect("128"), 128);
        assert!(Reader::new(&[0x80, 0x80, 0x00]).varint().is_err());
    }

    /// Regression: a version repeating its predecessor's set was merged
    /// away by `HistoryBuilder::push`, so the file re-encoded differently.
    #[test]
    fn repeated_version_is_corrupt() {
        let file = sealed_versions(|buf| {
            buf.varint(2);
            for start_delta in [0, 3] {
                buf.varint(start_delta);
                buf.varint(1);
                buf.varint(1);
            }
        });
        assert_corrupt(&file, "repeated version");
    }

    /// One attribute "x", over the two-entry dictionary, whose only
    /// version holds the ids encoded by the delta list `deltas`.
    fn sealed_ids(deltas: &[u64]) -> Vec<u8> {
        sealed_versions(|buf| {
            buf.varint(1);
            buf.varint(0);
            buf.varint(deltas.len() as u64);
            for &d in deltas {
                buf.varint(d);
            }
        })
    }

    #[test]
    fn every_history_fault_is_named() {
        // Id 0 is inside the two-entry dictionary; id 2 is the first past it.
        assert_corrupt(&sealed_ids(&[0, 2]), "value id 2 outside dictionary");
        assert_corrupt(&sealed_ids(&[1, 0]), "duplicate value id in version");
        assert_corrupt(&sealed_versions(|buf| buf.varint(0)), "attribute 'x' has no versions");
        let file = sealed_versions(|buf| {
            buf.varint(2);
            for start_delta in [1, 0] {
                buf.varint(start_delta);
                buf.varint(0);
            }
        });
        assert_corrupt(&file, "attribute 'x': non-increasing version start");
        // Observed through 5, but the only version starts at 6.
        let file = sealed_versions(|buf| {
            buf.varint(1);
            buf.varint(6);
            buf.varint(0);
        });
        assert_corrupt(&file, "attribute 'x': invalid last_observed");
    }

    /// A dictionary of `entries`, then one attribute whose only version
    /// holds id 7 — outside any dictionary below eight entries.
    fn sealed_with_bad_history(entries: impl FnOnce(&mut Writer)) -> Vec<u8> {
        sealed(|buf| {
            entries(buf);
            buf.varint(1);
            buf.str("x");
            buf.varint(5);
            buf.varint(1);
            buf.varint(0);
            buf.varint(1);
            buf.varint(7);
        })
    }

    #[test]
    fn faults_are_reported_in_byte_order() {
        let history_only = sealed_with_bad_history(|buf| {
            buf.varint(1);
            buf.str("a");
        });
        assert_corrupt(&history_only, "value id 7 outside dictionary");
        // The dictionary is decoded on another thread, but its fault comes
        // first in the file, so it is the one reported.
        let duplicate = sealed_with_bad_history(|buf| {
            buf.varint(2);
            buf.str("a");
            buf.str("a");
        });
        assert_corrupt(&duplicate, "duplicate dictionary entry 'a'");
        let bad_utf8 = sealed_with_bad_history(|buf| {
            buf.varint(1);
            buf.varint(1);
            buf.u8(0xff);
        });
        assert_corrupt(&bad_utf8, "invalid utf-8 in string");
        // The length scan stops at entry 2, whose length never ends; a
        // fault in an entry before it comes first and wins.
        let cut_after_bad_utf8 = sealed(|buf| {
            buf.varint(3);
            buf.varint(1);
            buf.u8(0xff);
            buf.str("b");
            buf.u8(0x80); // entry 2's length: a varint that never ends
        });
        assert_corrupt(&cut_after_bad_utf8, "invalid utf-8 in string");
        let cut_after_duplicate = sealed(|buf| {
            buf.varint(3);
            buf.str("b");
            buf.str("b");
            buf.u8(0x80);
        });
        assert_corrupt(&cut_after_duplicate, "duplicate dictionary entry 'b'");
        let cut_after_valid = sealed(|buf| {
            buf.varint(3);
            buf.str("a");
            buf.str("b");
            buf.u8(0x80);
        });
        assert_corrupt(&cut_after_valid, "truncated varint");
        // A checksum mismatch beats every fault of the payload.
        for file in [history_only, duplicate, cut_after_bad_utf8] {
            let mut flipped = file.clone();
            flipped[MAGIC.len()] ^= 0x01; // the timeline length
            assert!(matches!(decode_dataset(&flipped), Err(BinIoError::Checksum { .. })));
        }
    }

    #[test]
    fn empty_dictionary_and_empty_attribute_list_decode() {
        let no_values = sealed_versions_over(0, |buf| {
            buf.varint(1);
            buf.varint(3);
            buf.varint(0); // the empty set
        });
        let d = decode_dataset(&no_values).expect("an empty dictionary is valid");
        assert_eq!((d.dictionary().len(), d.len()), (0, 1));
        assert!(d.attribute(0).values_at(4).is_empty());
        assert_eq!(encode_dataset(&d), no_values);
        // An id is outside an empty dictionary, whatever it is.
        assert_corrupt(
            &sealed_versions_over(0, |buf| {
                buf.varint(1);
                buf.varint(0);
                buf.varint(1);
                buf.varint(0);
            }),
            "value id 0 outside dictionary",
        );

        let no_attributes = sealed(|buf| {
            buf.varint(2);
            buf.str("a");
            buf.str("b");
            buf.varint(0);
        });
        let d = decode_dataset(&no_attributes).expect("an empty attribute list is valid");
        assert_eq!((d.dictionary().len(), d.len()), (2, 0));
        assert_eq!(encode_dataset(&d), no_attributes);
        let empty = DatasetBuilder::new(Timeline::new(1)).build();
        let d = decode_dataset(&encode_dataset(&empty)).expect("the empty dataset decodes");
        assert_eq!((d.dictionary().len(), d.len()), (0, 0));
    }

    #[test]
    fn fingerprint_is_the_file_hash_and_retain_resets_it() {
        let bytes = encode_dataset(&sample());
        let mut d = decode_dataset(&bytes).expect("decodes");
        assert_eq!(dataset_fingerprint(&d), crate::hash::hash_bytes(&bytes));
        assert_eq!(dataset_fingerprint(&d.clone()), crate::hash::hash_bytes(&bytes));
        d.retain(|h| h.name() != "devs");
        let fp = dataset_fingerprint(&d);
        assert_ne!(fp, crate::hash::hash_bytes(&bytes), "retain must drop the cached value");
        assert_eq!(fp, crate::hash::hash_bytes(&encode_dataset(&d)));
    }

    #[test]
    fn rejects_duplicate_dictionary_entry_and_bad_utf8() {
        let dup = sealed(|buf| {
            buf.varint(2);
            buf.str("red");
            buf.str("red");
            buf.varint(0);
        });
        let err = decode_dataset(&dup).expect_err("duplicate entry");
        assert!(err.to_string().contains("duplicate dictionary entry 'red'"), "{err}");

        let bad = sealed(|buf| {
            buf.varint(1);
            buf.varint(2);
            buf.bytes(&[0xff, 0xfe]);
            buf.varint(0);
        });
        let err = decode_dataset(&bad).expect_err("invalid utf-8");
        assert!(err.to_string().contains("invalid utf-8"), "{err}");
    }

    #[test]
    fn decoded_dictionary_keeps_its_ids_through_clone_and_into_builder() {
        let d = decode_dataset(&encode_dataset(&sample())).expect("decodes");
        assert_eq!(dataset_fingerprint(&d), dataset_fingerprint(&sample()));
        let mut b = d.clone().into_builder();
        for (id, s) in d.dictionary().iter() {
            assert_eq!(b.dictionary_mut().intern(s), id, "'{s}' re-interns to its id");
        }
        assert_eq!(dataset_fingerprint(&b.build()), dataset_fingerprint(&d));
        let mut b = d.clone().into_builder();
        assert_eq!(b.dictionary_mut().intern("brand-new") as usize, d.dictionary().len());
        assert_eq!(d.dictionary().get("brand-new"), None, "the clone interned, not the source");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("tind-model-binio-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sample.tind");
        let d = sample();
        write_dataset_file(&d, &path).expect("write");
        let d2 = read_dataset_file(&path).expect("read");
        assert_eq!(d2.len(), d.len());
        std::fs::remove_file(&path).ok();
    }

    /// A dataset of a few hundred KiB: several writer chunks.
    fn large() -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(400));
        for a in 0..300 {
            let values: Vec<String> = (0..80).map(|v| format!("value-{a}-{v}")).collect();
            b.add_attribute(&format!("a{a}"), &[(a % 50, values)], 399);
        }
        b.build()
    }

    /// Streams `d` to `sink`; returns the trailer's value.
    fn stream<W: Write>(d: &Dataset, sink: W) -> io::Result<u32> {
        let mut w = Writer::streaming(sink, MAGIC);
        d.write_fields(&mut w);
        w.finish()
    }

    #[test]
    fn streaming_writes_the_bytes_of_an_in_memory_encode() {
        let d = large();
        let bytes = encode_dataset(&d);
        assert!(bytes.len() > 3 * CHUNK, "{} bytes", bytes.len());
        let mut streamed = Vec::new();
        let crc = stream(&d, &mut streamed).expect("a Vec sink does not fail");
        assert_eq!(streamed, bytes);
        assert_eq!(crc.to_le_bytes(), bytes[bytes.len() - 4..]);

        // Runs of several chunks; the running CRC is the CRC of the prefix
        // at every point.
        let blob: Vec<u8> = (0..3 * CHUNK + 5).map(|i| (i * 31 % 251) as u8).collect();
        let (mut mem, mut sink) = (Writer::new(MAGIC), Vec::new());
        mem.varint(300);
        mem.bytes(&blob);
        mem.u32_le(7);
        let mut streaming = Writer::streaming(&mut sink, MAGIC);
        streaming.varint(300);
        streaming.bytes(&blob);
        streaming.u32_le(7);
        assert_eq!(streaming.written(), mem.written());
        assert_eq!(mem.crc(), crate::checksum::crc32(mem.as_slice()));
        assert_eq!(streaming.crc(), mem.crc());
        streaming.finish().expect("a Vec sink does not fail");
        assert_eq!(sink, mem.into_bytes());
    }

    /// A sink that fails every write.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_fails_finish() {
        let err = stream(&large(), Broken).expect_err("the sink error surfaces");
        assert!(err.to_string().contains("disk full"), "{err}");
        let err = stream(&sample(), Broken).expect_err("also when it fails only at the end");
        assert!(err.to_string().contains("disk full"), "{err}");
    }

    #[test]
    fn op_budget_allows_exactly_the_limit() {
        let mut unlimited = OpBudget::default();
        for _ in 0..100 {
            unlimited.step().expect("no limit never kills");
        }
        let mut budget = OpBudget::new(Some(2));
        let mut step = || budget.step().map_err(|e| Killed::find(&e));
        assert_eq!(step(), Ok(()));
        assert_eq!(step(), Ok(()));
        assert_eq!(step(), Err(Some(Killed { ops: 2 })), "the third step is killed");
        assert_eq!(step(), Err(Some(Killed { ops: 2 })), "killed budgets stay killed");
        assert_eq!(Killed::find(&io::Error::other("disk full")), None);
    }

    /// Kill [`publish`] at every step: the destination holds the old
    /// bytes or the new ones, never part of either, and the next publish
    /// over whatever temp the kill left succeeds.
    #[test]
    fn publish_kill_sweep_leaves_old_or_new_bytes() {
        let dir = std::env::temp_dir().join("tind-model-publish-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (old, new) = (encode_dataset(&sample()), encode_dataset(&large()));
        let put = |path: &Path, bytes: &[u8], budget: &mut OpBudget| {
            publish(path, budget, |f| f.write_all(bytes))
        };
        // A destination ending in `.tmp` is not its own temp.
        for name in ["data.tind", "data.tmp"] {
            let path = dir.join(name);
            put(&path, &old, &mut OpBudget::default()).expect("publish");
            let mut limit = 0;
            while let Err(e) = put(&path, &new, &mut OpBudget::new(Some(limit))) {
                assert_eq!(Killed::find(&e), Some(Killed { ops: limit }), "{e}");
                // Killed before the rename: the old bytes; after it, before
                // the directory fsync: the new ones.
                let kept = std::fs::read(&path).expect("read");
                assert_eq!(&kept, if limit < 3 { &old } else { &new }, "{name}, kill {limit}");
                put(&path, &new, &mut OpBudget::default()).expect("publish over the temp");
                assert_eq!(std::fs::read(&path).expect("read"), new);
                put(&path, &old, &mut OpBudget::default()).expect("publish");
                limit += 1;
            }
            assert_eq!(
                limit, 4,
                "create + write, fsync, rename and directory fsync are the steps"
            );
            assert_eq!(std::fs::read(&path).expect("read"), new);
            let mut tmp = path.clone().into_os_string();
            tmp.push(".tmp");
            assert!(!Path::new(&tmp).exists(), "{name}: temp renamed away");

            // A failed write keeps the old file and removes the temp.
            let err = publish(&path, &mut OpBudget::default(), |f| {
                f.write_all(&old[..10])?;
                Err::<(), _>(io::Error::other("disk full"))
            })
            .expect_err("write fails");
            assert!(err.to_string().contains("disk full"));
            assert_eq!(std::fs::read(&path).expect("read"), new);
            assert!(!Path::new(&tmp).exists(), "{name}: failed temp removed");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn weight_fn_roundtrip() {
        let tl = Timeline::new(30);
        let fns = [
            crate::WeightFn::constant_one(),
            crate::WeightFn::uniform_normalized(tl),
            crate::WeightFn::exponential(0.97, tl),
            crate::WeightFn::linear(tl),
            crate::WeightFn::piecewise(&[1.0, 0.5, 0.0, 2.0]),
        ];
        for w in fns {
            let mut buf = Writer::default();
            put_weight_fn(&mut buf, &w);
            let mut bytes = Reader::new(buf.as_slice());
            let w2 = get_weight_fn(&mut bytes).expect("roundtrip decodes");
            assert_eq!(w, w2);
            bytes.finish("weight function").expect("all read");
        }
    }

    #[test]
    fn weight_fn_rejects_garbage() {
        assert!(get_weight_fn(&mut Reader::new(&[9])).is_err());
        assert!(get_weight_fn(&mut Reader::new(&[])).is_err());
        assert!(get_weight_fn(&mut Reader::new(&[1, 0, 0])).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_datasets() {
        let a = sample();
        let mut b = DatasetBuilder::new(Timeline::new(100));
        b.add_attribute("other", &[(0, vec!["x", "y", "z", "w", "v"])], 99);
        let b = b.build();
        assert_eq!(dataset_fingerprint(&a), dataset_fingerprint(&a));
        assert_ne!(dataset_fingerprint(&a), dataset_fingerprint(&b));
    }

    #[test]
    fn error_display_and_source() {
        let e = corrupt("boom");
        assert!(e.to_string().contains("boom"));
        let io: BinIoError = std::io::Error::other("disk on fire").into();
        assert!(io.to_string().contains("disk on fire"));
        use std::error::Error;
        assert!(io.source().is_some());
    }
}
