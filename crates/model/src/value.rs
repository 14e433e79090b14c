//! Interned values and sorted value sets.
//!
//! All attribute contents are strings in the Wikipedia setting. We intern
//! every distinct string into a dense [`ValueId`] so that version histories
//! store compact sorted `u32` slices, set containment is a merge over sorted
//! ids, and Bloom filters hash the stable id instead of the string.

use std::sync::Arc;

use crate::hash::FastMap;

/// Identifier of an interned value. Dense: the `i`-th distinct interned
/// string receives id `i`.
pub type ValueId = u32;

/// A sorted, deduplicated set of interned values: the contents of one
/// attribute version (`A[t]` in the paper).
pub type ValueSet = Vec<ValueId>;

/// Sorts and deduplicates ids in place, producing a canonical [`ValueSet`].
pub fn canonicalize(mut ids: Vec<ValueId>) -> ValueSet {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Returns true iff sorted set `a` is a subset of sorted set `b`.
///
/// Linear merge over the two sorted slices; the workhorse of exact
/// (non-Bloom) containment checks.
pub fn is_subset(a: &[ValueId], b: &[ValueId]) -> bool {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "lhs must be canonical");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "rhs must be canonical");
    if a.len() > b.len() {
        return false;
    }
    let mut j = 0;
    'outer: for &x in a {
        while j < b.len() {
            match b[j].cmp(&x) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Computes the sorted union of two canonical sets.
pub fn union(a: &[ValueId], b: &[ValueId]) -> ValueSet {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Computes the sorted intersection of two canonical sets.
pub fn intersection(a: &[ValueId], b: &[ValueId]) -> ValueSet {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// String interner mapping each distinct value string to a dense [`ValueId`].
/// Each string is stored once and shared by both directions of the
/// mapping — and by every clone of the dictionary.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    by_string: FastMap<Arc<str>, ValueId>,
    strings: Vec<Arc<str>>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id (allocating a new one if unseen).
    pub fn intern(&mut self, s: &str) -> ValueId {
        if let Some(&id) = self.by_string.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("more than u32::MAX distinct values");
        let shared: Arc<str> = s.into();
        self.strings.push(Arc::clone(&shared));
        self.by_string.insert(shared, id);
        id
    }

    /// Makes room for `additional` more distinct values, so a bulk load of
    /// known size does not regrow the table as it goes.
    pub fn reserve(&mut self, additional: usize) {
        self.by_string.reserve(additional);
        self.strings.reserve(additional);
    }

    /// Looks up the id of `s` without interning.
    pub fn get(&self, s: &str) -> Option<ValueId> {
        self.by_string.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn resolve(&self, id: ValueId) -> &str {
        &self.strings[id as usize]
    }

    /// Resolves an id if it is in range.
    pub fn try_resolve(&self, id: ValueId) -> Option<&str> {
        self.strings.get(id as usize).map(AsRef::as_ref)
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (i as ValueId, s.as_ref()))
    }

    /// The first id this dictionary and `successor` disagree on — an id
    /// `successor` lacks or spells differently — or `None` when `successor`
    /// extends this dictionary. A successor derived from this one
    /// ([`Clone`], `Dataset::into_builder`) shares the strings themselves,
    /// so the usual check is a pointer compare per id, not a byte compare.
    pub fn first_divergence(&self, successor: &Dictionary) -> Option<ValueId> {
        let shared = self.strings.iter().zip(&successor.strings);
        let agreeing = shared.take_while(|(a, b)| Arc::ptr_eq(a, b) || a == b).count();
        (agreeing < self.strings.len()).then_some(agreeing as ValueId)
    }

    /// Interns every string of `values` and returns the canonical set.
    pub fn intern_set<I, S>(&mut self, values: I) -> ValueSet
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        canonicalize(values.into_iter().map(|s| self.intern(s.as_ref())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut d = Dictionary::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        let a2 = d.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(a), "alpha");
        assert_eq!(d.get("beta"), Some(b));
        assert_eq!(d.get("gamma"), None);
        assert_eq!(d.try_resolve(99), None);
    }

    #[test]
    fn clones_intern_to_the_same_ids_and_then_diverge() {
        let mut d = Dictionary::new();
        d.reserve(2);
        let (a, b) = (d.intern("alpha"), d.intern("beta"));
        let mut c = d.clone();
        assert_eq!((c.intern("alpha"), c.intern("beta")), (a, b));
        let g = c.intern("gamma");
        assert_eq!((g, c.resolve(g)), (2, "gamma"));
        assert_eq!(d.get("gamma"), None, "a clone's new values stay its own");
        assert_eq!(d.intern("delta"), 2);
        assert_eq!(c.get("delta"), None);
    }

    #[test]
    fn first_divergence_accepts_extensions_and_names_the_first_bad_id() {
        let mut d = Dictionary::new();
        d.intern_set(["alpha", "beta", "gamma"]);
        // A clone (shared strings) and an independent re-intern (equal
        // bytes, different allocations) both extend `d`.
        let mut clone = d.clone();
        clone.intern("delta");
        let mut rebuilt = Dictionary::new();
        rebuilt.intern_set(["alpha", "beta", "gamma", "delta"]);
        for successor in [&d, &clone, &rebuilt] {
            assert_eq!(d.first_divergence(successor), None);
        }
        // The longer one is not extended by the shorter: id 3 is missing.
        assert_eq!(clone.first_divergence(&d), Some(3));
        let mut reordered = Dictionary::new();
        reordered.intern_set(["alpha", "gamma", "beta"]);
        assert_eq!(d.first_divergence(&reordered), Some(1));
        assert_eq!(Dictionary::new().first_divergence(&d), None);
    }

    #[test]
    fn intern_set_canonicalizes() {
        let mut d = Dictionary::new();
        let set = d.intern_set(["b", "a", "b", "c", "a"]);
        assert_eq!(set.len(), 3);
        assert!(set.windows(2).all(|w| w[0] < w[1]));
        let mut names: Vec<&str> = set.iter().map(|&id| d.resolve(id)).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn subset_checks() {
        assert!(is_subset(&[], &[]));
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[0], &[1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn union_and_intersection() {
        assert_eq!(union(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(union(&[], &[7]), vec![7]);
        assert_eq!(intersection(&[1, 3, 5], &[2, 3, 5]), vec![3, 5]);
        assert_eq!(intersection(&[1, 2], &[3, 4]), Vec::<ValueId>::new());
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        assert_eq!(canonicalize(vec![5, 1, 5, 3, 1]), vec![1, 3, 5]);
        assert_eq!(canonicalize(vec![]), Vec::<ValueId>::new());
    }
}
