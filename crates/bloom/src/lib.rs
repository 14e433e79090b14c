//! # tind-bloom
//!
//! Bit vectors, Bloom filters, and the Bloom-filter **matrix** candidate
//! index of MANY (Tschirschnitz et al.), reused by the tIND index of
//! Section 4 of the paper.
//!
//! The central trick (Section 4.1): hash each attribute's value set into a
//! Bloom filter of `m` bits and lay the filters out as the *columns* of an
//! `m × |D|` bit matrix. Because Bloom filters preserve subset
//! relationships, all candidate supersets of a query `Q` are found by
//! AND-ing together the rows where `h(Q)` has a set bit — a handful of
//! word-parallel row conjunctions instead of `|D|` pairwise checks.
//! Candidate *subsets* are found by AND-ing the complements of the rows
//! where `h(Q)` is zero.

pub mod bitvec;
pub mod filter;
pub mod matrix;
pub mod region;

pub use bitvec::BitVec;
pub use filter::BloomFilter;
pub use matrix::{BloomMatrix, BloomMatrixBuilder, BloomTile, BloomTiles, Segment, TILE_WORDS};
pub use region::{MmapFile, RegionGuard, WindowFile, WindowPool, WindowSlot, WindowStats, WordRegion};
