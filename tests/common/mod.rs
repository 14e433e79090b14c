//! Helpers shared by the workspace integration suites.
//!
//! Each file in `tests/` is its own crate root; this directory module is
//! pulled in with `mod common;` and is NOT itself a test target (cargo
//! only treats `tests/*.rs` files as roots). Every suite uses a different
//! subset of the helpers, so the module-wide unused allow is deliberate.
#![allow(dead_code)]

pub mod strategies;
