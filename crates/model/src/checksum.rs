//! Hand-rolled CRC-32 integrity trailers for persisted files.
//!
//! Every on-disk artifact (datasets, indexes, checkpoints) ends with a
//! 4-byte little-endian CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant)
//! computed over everything before the trailer. Structural decoding alone
//! catches malformed files, but not silent truncation at a value boundary
//! or single-bit rot inside a varint run; the trailer turns both into a
//! typed [`BinIoError::Checksum`] instead of a garbage decode.
//!
//! The implementation is a portable slice-by-16 table kernel (no
//! `std::arch`), dependency-free per the workspace policy (see DESIGN.md);
//! it is the workspace's only CRC-32, and `tind_obs` re-exports it for the
//! TINDRR/TINDTF envelopes.
//!
//! A verified TINDDS file is also the canonical encoding of the dataset it
//! decodes to (`binio::decode_dataset` refuses everything
//! `binio::encode_dataset` cannot produce), so the dataset fingerprint is
//! hashed straight off the bytes this trailer check has just read.

use crate::binio::BinIoError;

/// Size in bytes of the checksum trailer appended to persisted files.
pub const TRAILER_LEN: usize = 4;

/// Slice-by-16 tables for the reflected polynomial `0xEDB88320`, built at
/// compile time. `CRC_TABLES[0]` is the classic byte table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` is followed by `k`
/// zero bytes, so sixteen lookups advance the state over sixteen bytes.
static CRC_TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (ISO-HDLC / zlib variant) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = Crc32::new();
    state.update(bytes);
    state.finish()
}

/// Incremental CRC-32 state, for hashing data produced in chunks.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to hashing zero bytes).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum: sixteen bytes per step through
    /// [`CRC_TABLES`], then a byte loop for the tail. Every container
    /// trailer, shard digest and header CRC in the workspace runs here.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            let word = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
            let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
            let lane = |x: u32, k: usize| {
                t[k + 3][(x & 0xFF) as usize]
                    ^ t[k + 2][((x >> 8) & 0xFF) as usize]
                    ^ t[k + 1][((x >> 16) & 0xFF) as usize]
                    ^ t[k][(x >> 24) as usize]
            };
            crc = lane(a, 12) ^ lane(b, 8) ^ lane(c, 4) ^ lane(d, 0);
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalizes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends the CRC-32 of everything currently in `buf` as a 4-byte
/// little-endian trailer, and returns it (a store shard's manifest digest
/// is this same value).
pub fn append_trailer(buf: &mut Vec<u8>) -> u32 {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    crc
}

/// Verifies the trailing CRC-32 of `bytes` and returns the payload with
/// the trailer stripped.
///
/// Fails with [`BinIoError::Corrupt`] if the buffer is too short to hold a
/// trailer at all, and with [`BinIoError::Checksum`] if the stored and
/// recomputed values disagree (truncation, bit rot, or concatenated
/// garbage).
pub fn verify_and_strip(bytes: &[u8]) -> Result<&[u8], BinIoError> {
    if bytes.len() < TRAILER_LEN {
        return Err(BinIoError::Corrupt("file too short for checksum trailer".into()));
    }
    let split = bytes.len() - TRAILER_LEN;
    let stored = u32::from_le_bytes(bytes[split..].try_into().expect("4-byte slice"));
    let computed = crc32(&bytes[..split]);
    if stored != computed {
        return Err(BinIoError::Checksum { stored, computed, offset: split as u64 });
    }
    Ok(&bytes[..split])
}

/// Streams the file at `path` through a fixed-size buffer and verifies its
/// trailing CRC-32, returning the payload length (bytes before the
/// trailer) on success.
///
/// Unlike read-then-[`verify_and_strip`], this never allocates the file's
/// size: a truncated or bit-rotted multi-GB artifact is rejected after one
/// sequential pass with a constant 64 KiB of scratch, before any decoder
/// commits memory to it. The returned [`BinIoError::Checksum`] carries the
/// trailer offset so operators can see where the file was cut.
pub fn stream_verify_file(path: &std::path::Path) -> Result<u64, BinIoError> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    if len < TRAILER_LEN as u64 {
        return Err(BinIoError::Corrupt("file too short for checksum trailer".into()));
    }
    let payload_len = len - TRAILER_LEN as u64;
    let mut crc = Crc32::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut remaining = payload_len;
    while remaining > 0 {
        let want = remaining.min(scratch.len() as u64) as usize;
        file.read_exact(&mut scratch[..want])?;
        crc.update(&scratch[..want]);
        remaining -= want as u64;
    }
    let mut trailer = [0u8; TRAILER_LEN];
    file.read_exact(&mut trailer)?;
    let stored = u32::from_le_bytes(trailer);
    let computed = crc.finish();
    if stored != computed {
        return Err(BinIoError::Checksum { stored, computed, offset: payload_len });
    }
    Ok(payload_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The reference oracle: bit-serial CRC-32 straight from the
    /// polynomial, no tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"hello checksummed world";
        let mut inc = Crc32::new();
        inc.update(&data[..5]);
        inc.update(&data[5..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    /// The slice-by-16 kernel against the bitwise oracle: every length up
    /// to 4 KiB, unaligned starts, and incremental updates split at random
    /// points (so chunk boundaries fall anywhere relative to the 16-byte
    /// steps).
    #[test]
    fn kernel_equals_bitwise_reference() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        let mut rng = crate::rng::Rng::seed_from_u64(26);
        let base: Vec<u8> = (0..4096 + 16).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=4096 {
            let offset = len % 16;
            let data = &base[offset..offset + len];
            assert_eq!(crc32(data), crc32_bitwise(data), "len {len} at offset {offset}");
        }
        crate::rng::cases("crc32_incremental_splits", 256, |rng| {
            let len = rng.range(0..=4096usize);
            let offset = rng.range(0..16usize);
            let data = &base[offset..offset + len];
            let mut inc = Crc32::new();
            let mut at = 0;
            while at < len {
                let step = rng.range(0..=(len - at).min(70));
                inc.update(&data[at..at + step]);
                at += step;
            }
            assert_eq!(inc.finish(), crc32_bitwise(data), "len {len} at offset {offset}");
        });
    }

    #[test]
    fn trailer_roundtrip() {
        let mut buf = b"payload bytes".to_vec();
        append_trailer(&mut buf);
        let stripped = verify_and_strip(&buf).expect("valid trailer");
        assert_eq!(stripped, b"payload bytes");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut clean = b"some serialized structure follows here".to_vec();
        append_trailer(&mut clean);
        for bit in 0..clean.len() * 8 {
            let mut corrupted = clean.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let err = verify_and_strip(&corrupted).expect_err("flipped bit must be detected");
            assert!(matches!(err, BinIoError::Checksum { .. }), "bit {bit}: {err}");
        }
    }

    #[test]
    fn stream_verify_matches_in_memory_verdict() {
        let dir = std::env::temp_dir().join("tind-model-checksum-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("streamed.bin");
        // Payload bigger than the 64 KiB scratch so the loop takes
        // multiple passes.
        let mut clean: Vec<u8> = (0..200_000u32).map(|i| (i * 7 + 3) as u8).collect();
        append_trailer(&mut clean);
        std::fs::write(&path, &clean).expect("write");
        assert_eq!(stream_verify_file(&path).expect("clean file verifies"), 200_000);

        // Truncation mid-payload: the stored "trailer" is now payload
        // bytes, so the streamed CRC must mismatch with the cut offset.
        std::fs::write(&path, &clean[..clean.len() / 2]).expect("write truncated");
        let err = stream_verify_file(&path).expect_err("truncated file rejected");
        match err {
            BinIoError::Checksum { offset, .. } => {
                assert_eq!(offset, (clean.len() / 2 - TRAILER_LEN) as u64);
            }
            other => panic!("expected checksum error, got {other}"),
        }
        // Single flipped byte mid-payload.
        let mut flipped = clean.clone();
        flipped[1234] ^= 0xFF;
        std::fs::write(&path, &flipped).expect("write flipped");
        assert!(matches!(
            stream_verify_file(&path),
            Err(BinIoError::Checksum { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let mut clean = b"0123456789abcdef".to_vec();
        append_trailer(&mut clean);
        for cut in 0..clean.len() {
            assert!(verify_and_strip(&clean[..cut]).is_err(), "cut at {cut}");
        }
    }
}
