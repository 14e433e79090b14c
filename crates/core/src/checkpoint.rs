//! Checkpointed all-pairs discovery state.
//!
//! A full all-pairs run at paper scale takes hours (§5.2); losing all of
//! it to a panic, OOM kill, or operator interrupt is not acceptable for a
//! production service. A [`Checkpoint`] persists the exact set of
//! completed query ids together with the pairs, poisoned queries, and
//! validation counts they produced, so a restarted run can skip finished
//! work and still produce **byte-identical** output: per-query search is
//! deterministic and the final pair list is sorted, so any
//! completed-query subset resumes to the same result.
//!
//! The on-disk format follows the workspace conventions: hand-rolled
//! varint encoding (`tind_model::binio`), an 8-byte magic-plus-version
//! header, a dataset fingerprint guard like `persist.rs` — plus a digest
//! of the (ε, δ, w) parameters, since resuming under different parameters
//! would silently mix incompatible results — and a CRC-32 trailer
//! ([`tind_model::checksum`]) so truncated or bit-rotted checkpoints are
//! rejected with a typed error. Writes go through a temp file + rename so
//! a crash mid-write never destroys the previous good checkpoint.

use std::path::Path;

use tind_model::binio::{self, dataset_fingerprint, put_varint, put_weight_fn, BinIoError, Reader};
use tind_model::checksum;
use tind_model::{AttrId, Dataset};

use crate::params::TindParams;

/// Magic bytes identifying a serialized checkpoint, including a format
/// version.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"TINDCP\x00\x01";

fn corrupt(msg: impl Into<String>) -> BinIoError {
    BinIoError::Corrupt(msg.into())
}

/// A digest of the search parameters a run was started with. Resuming
/// requires identical parameters; otherwise completed and pending queries
/// would be answered under different definitions.
pub fn params_digest(params: &TindParams) -> u64 {
    let mut buf = params.eps.to_be_bytes().to_vec();
    put_varint(&mut buf, u64::from(params.delta));
    put_weight_fn(&mut buf, &params.weights);
    tind_model::hash::hash_bytes(&buf)
}

/// Persistent snapshot of an all-pairs run's progress.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the dataset the run was started over.
    pub dataset_fingerprint: u64,
    /// Digest of the (ε, δ, w) parameters (see [`params_digest`]).
    pub params_digest: u64,
    /// Total number of query attributes in the run.
    pub total_queries: usize,
    /// Query ids whose search finished (successfully or poisoned),
    /// sorted ascending.
    pub completed: Vec<AttrId>,
    /// Subset of `completed` whose search panicked and was quarantined,
    /// sorted ascending.
    pub poisoned: Vec<AttrId>,
    /// Pairs discovered by the completed queries, sorted.
    pub pairs: Vec<(AttrId, AttrId)>,
    /// Algorithm-2 validations accumulated by the completed queries.
    pub validations_run: usize,
}

impl Checkpoint {
    /// An empty checkpoint for a fresh run over `dataset`.
    pub fn fresh(dataset: &Dataset, params: &TindParams) -> Self {
        Checkpoint {
            dataset_fingerprint: dataset_fingerprint(dataset),
            params_digest: params_digest(params),
            total_queries: dataset.len(),
            completed: Vec::new(),
            poisoned: Vec::new(),
            pairs: Vec::new(),
            validations_run: 0,
        }
    }

    /// Whether every query has completed.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.total_queries
    }

    /// Verifies that this checkpoint belongs to `dataset` searched under
    /// `params`; a mismatch means the operator pointed a resume at the
    /// wrong file, and blindly continuing would corrupt the result set.
    pub fn verify_matches(
        &self,
        dataset: &Dataset,
        params: &TindParams,
    ) -> Result<(), BinIoError> {
        if self.dataset_fingerprint != dataset_fingerprint(dataset) {
            return Err(corrupt(
                "checkpoint fingerprint does not match the dataset (wrong or stale checkpoint)",
            ));
        }
        if self.params_digest != params_digest(params) {
            return Err(corrupt(
                "checkpoint was created under different search parameters (ε, δ, or weights)",
            ));
        }
        if self.total_queries != dataset.len() {
            return Err(corrupt("checkpoint query count does not match the dataset"));
        }
        Ok(())
    }

    /// Serializes the checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + 4 * self.completed.len() + 8 * self.pairs.len());
        buf.extend_from_slice(CHECKPOINT_MAGIC);
        buf.extend_from_slice(&self.dataset_fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.params_digest.to_le_bytes());
        put_varint(&mut buf, self.total_queries as u64);
        put_varint(&mut buf, self.validations_run as u64);
        put_id_set(&mut buf, &self.completed);
        put_id_set(&mut buf, &self.poisoned);
        put_varint(&mut buf, self.pairs.len() as u64);
        let mut prev_lhs = 0u64;
        for &(lhs, rhs) in &self.pairs {
            put_varint(&mut buf, u64::from(lhs) - prev_lhs);
            prev_lhs = u64::from(lhs);
            put_varint(&mut buf, u64::from(rhs));
        }
        checksum::append_trailer(&mut buf);
        buf
    }

    /// Deserializes a checkpoint written by [`Checkpoint::encode`],
    /// verifying magic, version, and checksum trailer.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, BinIoError> {
        let mut buf = binio::open(bytes, CHECKPOINT_MAGIC, "checkpoint")?;
        let dataset_fingerprint = buf.u64_le("checkpoint header")?;
        let params_digest = buf.u64_le("checkpoint header")?;
        let total_queries = buf.varint()? as usize;
        let validations_run = buf.varint()? as usize;
        let completed = get_id_set(&mut buf, total_queries)?;
        let poisoned = get_id_set(&mut buf, total_queries)?;
        let num_pairs = buf.varint()? as usize;
        let mut pairs = Vec::with_capacity(num_pairs.min(1 << 20));
        let mut prev = (0u64, 0u64);
        for _ in 0..num_pairs {
            let lhs = prev.0 + buf.varint()?;
            let rhs = buf.varint()?;
            if (lhs, rhs) <= prev && !pairs.is_empty() {
                return Err(corrupt("checkpoint pairs out of order"));
            }
            if lhs >= total_queries as u64 || rhs >= total_queries as u64 {
                return Err(corrupt("checkpoint pair id outside dataset"));
            }
            prev = (lhs, rhs);
            pairs.push((lhs as AttrId, rhs as AttrId));
        }
        buf.finish("checkpoint")?;
        for &p in &poisoned {
            if completed.binary_search(&p).is_err() {
                return Err(corrupt("poisoned query not marked completed"));
            }
        }
        Ok(Checkpoint {
            dataset_fingerprint,
            params_digest,
            total_queries,
            completed,
            poisoned,
            pairs,
            validations_run,
        })
    }

    /// Atomically writes the checkpoint to `path` (temp file + rename, so
    /// an interrupted write never clobbers the previous checkpoint).
    pub fn write_file(&self, path: &Path) -> Result<(), BinIoError> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads a checkpoint from `path`.
    pub fn read_file(path: &Path) -> Result<Checkpoint, BinIoError> {
        Checkpoint::decode(&std::fs::read(path)?)
    }
}

/// Encodes a sorted, duplicate-free id set (count + delta varints).
fn put_id_set(buf: &mut Vec<u8>, ids: &[AttrId]) {
    put_varint(buf, ids.len() as u64);
    let mut prev = 0u64;
    for &id in ids {
        put_varint(buf, u64::from(id) - prev);
        prev = u64::from(id);
    }
}

/// Decodes a sorted id set, rejecting duplicates and out-of-range ids.
fn get_id_set(buf: &mut Reader<'_>, total: usize) -> Result<Vec<AttrId>, BinIoError> {
    let len = buf.varint()? as usize;
    if len > total {
        return Err(corrupt("id set larger than dataset"));
    }
    let mut out = Vec::with_capacity(len.min(buf.remaining()));
    let mut acc = 0u64;
    for i in 0..len {
        let d = buf.varint()?;
        if i > 0 && d == 0 {
            return Err(corrupt("duplicate id in checkpoint set"));
        }
        acc += d;
        if acc >= total as u64 {
            return Err(corrupt("checkpoint id outside dataset"));
        }
        out.push(acc as AttrId);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tind_model::{DatasetBuilder, Timeline};

    fn dataset() -> Arc<Dataset> {
        let mut b = DatasetBuilder::new(Timeline::new(40));
        b.add_attribute("a", &[(0, vec!["1"])], 39);
        b.add_attribute("b", &[(0, vec!["1", "2"])], 39);
        b.add_attribute("c", &[(0, vec!["1", "2", "3"])], 39);
        Arc::new(b.build())
    }

    fn sample_checkpoint() -> Checkpoint {
        let d = dataset();
        let mut cp = Checkpoint::fresh(&d, &TindParams::paper_default());
        cp.completed = vec![0, 2];
        cp.poisoned = vec![2];
        cp.pairs = vec![(0, 1), (0, 2)];
        cp.validations_run = 17;
        cp
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cp = sample_checkpoint();
        let decoded = Checkpoint::decode(&cp.encode()).expect("decodes");
        assert_eq!(decoded, cp);
    }

    #[test]
    fn file_roundtrip_is_atomic_on_path() {
        let dir = std::env::temp_dir().join("tind-core-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.tcp");
        let cp = sample_checkpoint();
        cp.write_file(&path).expect("writes");
        assert!(!path.with_extension("tmp").exists(), "temp file renamed away");
        assert_eq!(Checkpoint::read_file(&path).expect("reads"), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_and_bit_flips_are_rejected() {
        let bytes = sample_checkpoint().encode();
        for cut in [0usize, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for bit in (0..bytes.len() * 8).step_by(7) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Checkpoint::decode(&bad).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn mismatched_dataset_or_params_is_refused() {
        let d = dataset();
        let p = TindParams::paper_default();
        let cp = Checkpoint::fresh(&d, &p);
        cp.verify_matches(&d, &p).expect("matches itself");

        let mut other = DatasetBuilder::new(Timeline::new(40));
        other.add_attribute("x", &[(0, vec!["9"])], 39);
        let other = other.build();
        assert!(cp.verify_matches(&other, &p).is_err(), "wrong dataset refused");

        let p2 = TindParams::weighted(5.0, 7, tind_model::WeightFn::constant_one());
        assert!(cp.verify_matches(&d, &p2).is_err(), "wrong params refused");
    }

    #[test]
    fn params_digest_distinguishes_all_three_components() {
        let tl = Timeline::new(20);
        let base = TindParams::paper_default();
        let mut eps = base.clone();
        eps.eps = 4.0;
        let mut delta = base.clone();
        delta.delta = 8;
        let weights = TindParams::weighted(3.0, 7, tind_model::WeightFn::linear(tl));
        let d0 = params_digest(&base);
        assert_eq!(d0, params_digest(&base.clone()));
        assert_ne!(d0, params_digest(&eps));
        assert_ne!(d0, params_digest(&delta));
        assert_ne!(d0, params_digest(&weights));
    }

    #[test]
    fn semantic_garbage_is_rejected() {
        // Poisoned id not in completed.
        let mut cp = sample_checkpoint();
        cp.poisoned = vec![1];
        assert!(Checkpoint::decode(&cp.encode()).is_err());
        // Pair id outside the dataset.
        let mut cp = sample_checkpoint();
        cp.pairs = vec![(0, 9)];
        assert!(Checkpoint::decode(&cp.encode()).is_err());
    }
}
