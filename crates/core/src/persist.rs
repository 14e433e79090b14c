//! Index persistence: build once, query many sessions.
//!
//! Index construction over a large dataset takes orders of magnitude
//! longer than a single query, so the CLI supports saving a built
//! [`TindIndex`] to disk. The file embeds a fingerprint of the dataset it
//! was built over; loading verifies the fingerprint so a stale index can
//! never silently answer queries for different data.

use std::io::Write;
use std::sync::Arc;

use tind_bloom::BloomMatrix;
use tind_model::binio::{
    self, corrupt, dataset_fingerprint, get_weight_fn, put_weight_fn, BinIoError, Container, Reader,
    Writer,
};
use tind_model::{Dataset, Interval};

use crate::index::{IndexConfig, TimeSlice, TindIndex};
use crate::slices::{SliceConfig, SliceStrategy};

/// Magic bytes identifying a serialized index, including a format version.
/// Version 2 appended the CRC-32 integrity trailer (see
/// [`tind_model::checksum`]).
pub const INDEX_MAGIC: &[u8; 8] = b"TINDIX\x00\x02";

pub(crate) fn put_interval<W: Write>(w: &mut Writer<W>, i: Interval) {
    w.varint(u64::from(i.start));
    w.varint(u64::from(i.end - i.start));
}

pub(crate) fn get_interval(buf: &mut Reader<'_>) -> Result<Interval, BinIoError> {
    let start = u32::try_from(buf.varint()?).map_err(|_| corrupt("interval start overflow"))?;
    let len = u32::try_from(buf.varint()?).map_err(|_| corrupt("interval length overflow"))?;
    Ok(Interval::new(start, start + len))
}

/// Encodes an [`IndexConfig`] in the exact byte layout the monolithic index
/// file uses; shared with the sharded store manifest (`core::store`) so the
/// two formats stay byte-compatible on the config section.
pub(crate) fn put_config<W: Write>(w: &mut Writer<W>, cfg: &IndexConfig) {
    w.varint(u64::from(cfg.m));
    w.varint(u64::from(cfg.k_hashes));
    w.varint(cfg.seed);
    w.u8(u8::from(cfg.build_reverse));
    let s = &cfg.slices;
    w.varint(s.k as u64);
    w.u8(match s.strategy {
        SliceStrategy::Random => 0,
        SliceStrategy::WeightedRandom => 1,
    });
    w.f64(s.sizing_eps);
    put_weight_fn(w, &s.sizing_weights);
    w.varint(u64::from(s.max_delta));
    w.u8(u8::from(s.expanded_disjoint));
    w.varint(u64::from(s.start_stride));
    w.varint(s.attr_sample as u64);
}

/// Decodes an [`IndexConfig`] written by [`put_config`].
pub(crate) fn get_config(buf: &mut Reader<'_>) -> Result<IndexConfig, BinIoError> {
    let m = u32::try_from(buf.varint()?).map_err(|_| corrupt("m overflow"))?;
    let k_hashes = u32::try_from(buf.varint()?).map_err(|_| corrupt("k overflow"))?;
    let seed = buf.varint()?;
    let build_reverse = buf.u8("config")? != 0;
    let k = buf.varint()? as usize;
    let strategy = match buf.u8("strategy")? {
        0 => SliceStrategy::Random,
        1 => SliceStrategy::WeightedRandom,
        other => return Err(corrupt(format!("unknown slice strategy {other}"))),
    };
    let sizing_eps = buf.f64("sizing eps")?;
    let sizing_weights = get_weight_fn(buf)?;
    let max_delta = u32::try_from(buf.varint()?).map_err(|_| corrupt("δ overflow"))?;
    let expanded_disjoint = buf.u8("disjoint flag")? != 0;
    let start_stride = u32::try_from(buf.varint()?).map_err(|_| corrupt("stride overflow"))?;
    let attr_sample = buf.varint()? as usize;
    Ok(IndexConfig {
        m,
        k_hashes,
        seed,
        build_reverse,
        slices: SliceConfig {
            k,
            strategy,
            sizing_eps,
            sizing_weights,
            max_delta,
            expanded_disjoint,
            start_stride,
            attr_sample,
        },
    })
}

/// Serializes `index` into a byte buffer.
pub fn encode_index(index: &TindIndex) -> Vec<u8> {
    binio::encode(index)
}

impl Container for TindIndex {
    fn magic(&self) -> &'static [u8; 8] {
        INDEX_MAGIC
    }

    fn write_fields<W: Write>(&self, w: &mut Writer<W>) {
        w.reserve(self.bloom_bytes() + (1 << 16));
        w.u64_le(dataset_fingerprint(self.dataset()));
        put_config(w, self.config());
        self.m_t.encode(w);
        w.varint(self.time_slices.len() as u64);
        for slice in &self.time_slices {
            put_interval(w, slice.interval);
            put_interval(w, slice.expanded);
            slice.matrix.encode(w);
        }
        w.varint(self.universes.len() as u64);
        for u in &self.universes {
            w.ascending(u);
        }
        match &self.m_r {
            Some(m) => {
                w.u8(1);
                m.encode(w);
            }
            None => w.u8(0),
        }
    }
}

/// Verifies the container integrity of a serialized index — magic header,
/// format version, and CRC-32 trailer — without binding it to a dataset.
/// Returns the embedded dataset fingerprint. Used by `tind verify`, which
/// has the file but not necessarily the dataset it was built over.
pub fn verify_index_container(bytes: &[u8]) -> Result<u64, BinIoError> {
    binio::open(bytes, INDEX_MAGIC, "index")?.u64_le("fingerprint")
}

/// Deserializes an index and re-binds it to `dataset`, verifying the
/// embedded fingerprint.
pub fn decode_index(bytes: &[u8], dataset: Arc<Dataset>) -> Result<TindIndex, BinIoError> {
    let mut buf = binio::open(bytes, INDEX_MAGIC, "index")?;
    let fingerprint = buf.u64_le("fingerprint")?;
    if fingerprint != dataset_fingerprint(&dataset) {
        return Err(corrupt(
            "index fingerprint does not match the dataset (stale or mismatched files)",
        ));
    }

    let config = get_config(&mut buf)?;

    let m_t = BloomMatrix::decode(&mut buf)?;
    let num_slices = buf.varint()? as usize;
    let mut time_slices = Vec::with_capacity(num_slices);
    for _ in 0..num_slices {
        let interval = get_interval(&mut buf)?;
        let expanded = get_interval(&mut buf)?;
        let matrix = BloomMatrix::decode(&mut buf)?;
        time_slices.push(TimeSlice { interval, expanded, matrix });
    }
    let num_universes = buf.varint()? as usize;
    if num_universes != dataset.len() {
        return Err(corrupt("universe count does not match dataset"));
    }
    let mut universes = Vec::with_capacity(num_universes);
    for _ in 0..num_universes {
        universes.push(buf.ascending(1 << 32, "value set")?);
    }
    let m_r = match buf.u8("m_r flag")? {
        0 => None,
        1 => Some(BloomMatrix::decode(&mut buf)?),
        other => return Err(corrupt(format!("bad m_r flag {other}"))),
    };
    buf.finish("index")?;
    if m_t.num_cols() != dataset.len() {
        return Err(corrupt("matrix width does not match dataset"));
    }
    Ok(TindIndex { dataset, config, m_t, time_slices, universes, m_r, masked: None })
}

/// Writes `index` to the file at `path`, streamed: no second copy of it
/// is held in memory (see [`binio::publish`]).
pub fn write_index_file(index: &TindIndex, path: &std::path::Path) -> Result<(), BinIoError> {
    Ok(binio::write_file(index, path)?)
}

/// Reads an index from `path`, binding it to `dataset`. The bytes are read
/// once and hashed once: [`decode_index`] verifies the CRC-32 trailer
/// before it decodes anything.
pub fn read_index_file(
    path: &std::path::Path,
    dataset: Arc<Dataset>,
) -> Result<TindIndex, BinIoError> {
    decode_index(&std::fs::read(path)?, dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TindParams;
    use tind_model::{DatasetBuilder, Timeline};

    fn dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(80));
        b.add_attribute("q", &[(0, vec!["a", "b"]), (40, vec!["a", "b", "c"])], 79);
        b.add_attribute("big", &[(0, vec!["a", "b", "c", "d"])], 79);
        b.add_attribute("other", &[(5, vec!["x", "y"])], 60);
        Arc::new(b.build())
    }

    #[test]
    fn roundtrip_preserves_search_results() {
        let d = dataset();
        for config in [IndexConfig::default(), IndexConfig::reverse_default()] {
            let index = TindIndex::build(d.clone(), config);
            let bytes = encode_index(&index);
            let loaded = decode_index(&bytes, d.clone()).expect("decodes");
            assert_eq!(loaded.m_t().m(), index.m_t().m());
            assert_eq!(loaded.time_slices().len(), index.time_slices().len());
            assert_eq!(loaded.m_r().is_some(), index.m_r().is_some());
            let p = TindParams::paper_default();
            for q in 0..d.len() as u32 {
                assert_eq!(loaded.search(q, &p).results, index.search(q, &p).results);
                assert_eq!(
                    loaded.reverse_search(q, &p).results,
                    index.reverse_search(q, &p).results
                );
            }
        }
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let d = dataset();
        let index = TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let bytes = encode_index(&index);
        let mut b2 = DatasetBuilder::new(Timeline::new(80));
        b2.add_attribute("different", &[(0, vec!["z"])], 79);
        let other = Arc::new(b2.build());
        let err = decode_index(&bytes, other).expect_err("must reject");
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn truncation_is_rejected() {
        let d = dataset();
        let index = TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let bytes = encode_index(&index);
        for cut in [4usize, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_index(&bytes[..cut], d.clone()).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn truncated_file_fails_fast_with_offset() {
        // A truncated index file is rejected by the trailer check, before
        // the decoder reads a field, with a typed checksum error naming
        // the cut point.
        let d = dataset();
        let index = TindIndex::build(d.clone(), IndexConfig { m: 256, ..IndexConfig::default() });
        let dir = std::env::temp_dir().join("tind-core-persist-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("truncated.tidx");
        let full = encode_index(&index);
        for cut in [full.len() / 3, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).expect("write fixture");
            let err = read_index_file(&path, d.clone()).expect_err("truncation rejected");
            match err {
                BinIoError::Checksum { offset, .. } => {
                    assert_eq!(
                        offset,
                        (cut - tind_model::checksum::TRAILER_LEN) as u64,
                        "offset names the payload length at cut {cut}"
                    );
                }
                other => panic!("cut {cut}: expected checksum error, got {other}"),
            }
        }
        // Shorter than the trailer itself: typed corrupt, not a panic.
        std::fs::write(&path, b"ab").expect("write fixture");
        assert!(matches!(
            read_index_file(&path, d.clone()),
            Err(BinIoError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_roundtrip() {
        let d = dataset();
        let index = TindIndex::build(d.clone(), IndexConfig { m: 128, ..IndexConfig::default() });
        let dir = std::env::temp_dir().join("tind-core-persist-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("index.tidx");
        write_index_file(&index, &path).expect("write");
        let loaded = read_index_file(&path, d.clone()).expect("read");
        assert_eq!(loaded.config().m, 128);
        std::fs::remove_file(&path).ok();
    }
}
