//! Poison-recovering access to `std::sync::Mutex`.
//!
//! A worker that panics while holding a lock poisons it. The state these
//! locks guard is append-only bookkeeping that stays consistent between
//! statements, and all-pairs quarantines a panicking query with
//! `catch_unwind` — one poisoned query must not become a second panic in
//! every other worker — so a poisoned guard is taken as it is.

use std::sync::{Mutex, MutexGuard, PoisonError};

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}
