//! Deterministic fault injection for testing the fault-tolerance layer.
//!
//! Robustness claims are only as good as the failures they were tested
//! against. This module provides the three failure modes the all-pairs
//! layer defends against, in deterministic, test-controllable form:
//!
//! * **Panicking queries** — [`poison_hook`] builds a
//!   [`FaultHook`] that panics when the worker reaches a planted
//!   "poison" attribute, exercising the `catch_unwind` quarantine path.
//! * **Truncation** — [`truncated`] cuts a serialized file short at an
//!   arbitrary byte, as a crashed writer or full disk would.
//! * **Bit rot** — [`flip_bit`] flips a single bit, as silent media
//!   corruption would; the CRC-32 trailer must catch every such flip.
//!
//! The hook is a regular (cheap) option on [`crate::AllPairsOptions`]
//! rather than a `cfg(test)` field so integration tests in dependent
//! crates can use it; production callers simply leave it `None`.

use std::sync::Arc;

use tind_model::AttrId;

/// A callback run at the start of every per-query search in all-pairs
/// discovery. Intended for fault injection (panics) and test
/// instrumentation (counting progress, triggering cancellation at a
/// chosen boundary).
pub type FaultHook = Arc<dyn Fn(AttrId) + Send + Sync>;

/// A hook that panics when asked to search any of `poison` — simulating a
/// query whose validation trips a latent bug (bad history, arithmetic
/// overflow, ...). All other queries pass through untouched.
pub fn poison_hook(poison: &[AttrId]) -> FaultHook {
    let poison = poison.to_vec();
    Arc::new(move |q| {
        if poison.contains(&q) {
            panic!("injected fault: poisoned query {q}");
        }
    })
}

/// Returns `bytes` truncated to its first `keep` bytes.
pub fn truncated(bytes: &[u8], keep: usize) -> Vec<u8> {
    bytes[..keep.min(bytes.len())].to_vec()
}

/// Flips the single bit at `bit_index` (counted from byte 0, LSB first).
pub fn flip_bit(bytes: &mut [u8], bit_index: usize) {
    bytes[bit_index / 8] ^= 1 << (bit_index % 8);
}

/// Inverts byte `byte_index` of the file at `path` in place (XOR `0xFF`),
/// simulating on-disk media corruption of an already-published artifact.
/// Flipping the same byte twice restores the original file.
///
/// # Errors
/// Fails if the file cannot be read or written, or is shorter than
/// `byte_index + 1` bytes.
pub fn flip_file_byte(path: &std::path::Path, byte_index: usize) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    if byte_index >= bytes.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("byte {byte_index} out of range for {}-byte file", bytes.len()),
        ));
    }
    bytes[byte_index] ^= 0xFF;
    std::fs::write(path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_hook_panics_only_on_planted_ids() {
        let hook = poison_hook(&[3, 5]);
        hook(0);
        hook(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(5)))
            .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("poisoned query 5"), "{msg}");
    }

    #[test]
    fn corruption_helpers_do_what_they_say() {
        let data = vec![0b1010_1010u8, 0xFF, 0x00];
        assert_eq!(truncated(&data, 2), vec![0b1010_1010, 0xFF]);
        assert_eq!(truncated(&data, 99), data);
        let mut flipped = data.clone();
        flip_bit(&mut flipped, 0);
        assert_eq!(flipped[0], 0b1010_1011);
        flip_bit(&mut flipped, 0);
        assert_eq!(flipped, data, "flipping twice restores");
    }

    #[test]
    fn flip_file_byte_inverts_in_place_and_bounds_checks() {
        let dir = std::env::temp_dir().join("tind-core-fault-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("flip.bin");
        std::fs::write(&path, [1u8, 2, 3]).expect("write");
        flip_file_byte(&path, 1).expect("flip");
        assert_eq!(std::fs::read(&path).expect("read"), vec![1, 2 ^ 0xFF, 3]);
        flip_file_byte(&path, 1).expect("unflip");
        assert_eq!(std::fs::read(&path).expect("read"), vec![1, 2, 3]);
        assert!(flip_file_byte(&path, 3).is_err(), "out of range rejected");
        std::fs::remove_file(&path).ok();
    }
}
