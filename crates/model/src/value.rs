//! Interned values and sorted value sets.
//!
//! All attribute contents are strings in the Wikipedia setting. We intern
//! every distinct string into a dense [`ValueId`] so that version histories
//! store compact sorted `u32` slices, set containment is a merge over sorted
//! ids, and Bloom filters hash the stable id instead of the string.
//!
//! The [`Dictionary`] is one string arena: every string back to back in id
//! order, a table of end offsets, and an open-addressing index of ids. A
//! dictionary of any size is three allocations, so decoding one costs about
//! what parsing its bytes costs, and freeing it is three `free`s.

use crate::hash::hash_bytes;

/// Identifier of an interned value. Dense: the `i`-th distinct interned
/// string receives id `i`.
pub type ValueId = u32;

/// A sorted, deduplicated set of interned values: the contents of one
/// attribute version (`A[t]` in the paper).
pub type ValueSet = Vec<ValueId>;

/// Sorts and deduplicates ids in place, producing a canonical [`ValueSet`].
/// Input that is already strictly increasing (every set the dataset
/// decoder produces) costs one pass and no sort.
pub fn canonicalize(mut ids: Vec<ValueId>) -> ValueSet {
    if ids.windows(2).all(|w| w[0] < w[1]) {
        return ids;
    }
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

/// Marks an unused slot of [`Dictionary`]'s index; never a valid id.
const EMPTY: ValueId = ValueId::MAX;

/// String interner mapping each distinct value string to a dense [`ValueId`].
///
/// One string arena in three buffers:
/// - `bytes` holds every string back to back in id order;
/// - `ends[id]` is where string `id` ends in `bytes` (it starts where
///   string `id - 1` ends, or at 0);
/// - `slots` is an open-addressing index of ids keyed by
///   [`hash_bytes`] of the string: power-of-two size, at most half full,
///   linear probing, `EMPTY` (`ValueId::MAX`) marking a free slot.
///
/// A clone copies the three buffers rather than sharing strings with its
/// source: that is three `memcpy`s, no per-string reference count to
/// touch on clone or drop, and still fewer bytes than a pointer per id in
/// each direction would take.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    bytes: String,
    ends: Vec<usize>,
    slots: Vec<ValueId>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id (allocating a new one if unseen).
    pub fn intern(&mut self, s: &str) -> ValueId {
        let hash = hash_bytes(s.as_bytes());
        let slot = match self.probe(hash, s) {
            Ok(id) => return id,
            Err(_) if 2 * (self.len() + 1) > self.slots.len() => {
                self.reserve(1);
                self.probe(hash, s).expect_err("a new string is absent")
            }
            Err(slot) => slot,
        };
        let id = ValueId::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("more than u32::MAX - 1 distinct values");
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
        self.slots[slot] = id;
        id
    }

    /// Makes room for `additional` more distinct values, so a bulk load of
    /// known size does not regrow the table as it goes.
    pub fn reserve(&mut self, additional: usize) {
        self.ends.reserve(additional);
        let wanted = 2 * (self.len() + additional);
        if wanted <= self.slots.len() {
            return;
        }
        self.slots = vec![EMPTY; wanted.next_power_of_two()];
        for id in 0..self.len() as ValueId {
            let s = self.resolve(id);
            let slot = self.probe(hash_bytes(s.as_bytes()), s).expect_err("ids are distinct");
            self.slots[slot] = id;
        }
    }

    /// [`Dictionary::reserve`] plus room for exactly `bytes` more string
    /// bytes: a bulk load that knows both totals allocates each of the
    /// three buffers once.
    pub(crate) fn reserve_exact(&mut self, additional: usize, bytes: usize) {
        self.reserve(additional);
        self.bytes.reserve_exact(bytes);
    }

    /// The id of `s` (`Ok`), or the free slot where it belongs (`Err`; 0
    /// for a table not yet allocated).
    fn probe(&self, hash: u64, s: &str) -> Result<ValueId, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut slot = hash as usize & mask;
        while let Some(&id) = self.slots.get(slot) {
            if id == EMPTY {
                return Err(slot);
            }
            if self.resolve(id) == s {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
        Err(0)
    }

    /// Looks up the id of `s` without interning.
    pub fn get(&self, s: &str) -> Option<ValueId> {
        self.probe(hash_bytes(s.as_bytes()), s).ok()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn resolve(&self, id: ValueId) -> &str {
        self.try_resolve(id).expect("value id not produced by this dictionary")
    }

    /// Resolves an id if it is in range.
    pub fn try_resolve(&self, id: ValueId) -> Option<&str> {
        let i = id as usize;
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.bytes[start..end])
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &str)> {
        (0..self.len() as ValueId).map(|id| (id, self.resolve(id)))
    }

    /// The first id this dictionary and `successor` disagree on — an id
    /// `successor` lacks or spells differently — or `None` when `successor`
    /// extends this dictionary. Equal offset and byte prefixes prove an
    /// extension with two slice compares, and the very same dictionary
    /// with none; only a divergent successor is scanned id by id.
    pub fn first_divergence(&self, successor: &Dictionary) -> Option<ValueId> {
        if std::ptr::eq(self, successor) {
            return None;
        }
        let n = self.len();
        if successor.ends.get(..n) == Some(&self.ends[..])
            && successor.bytes.as_bytes().get(..self.bytes.len()) == Some(self.bytes.as_bytes())
        {
            return None;
        }
        let agreeing = self.iter().take_while(|&(id, s)| successor.try_resolve(id) == Some(s));
        Some(agreeing.count() as ValueId)
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
    use crate::rng::Rng;

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
    fn canonicalize_sorts_and_dedups() {
        assert_eq!(canonicalize(vec![5, 1, 5, 3, 1]), vec![1, 3, 5]);
        assert_eq!(canonicalize(vec![]), Vec::<ValueId>::new());
        assert_eq!(canonicalize(vec![1, 3, 5]), vec![1, 3, 5]);
        assert_eq!(canonicalize(vec![1, 3, 3]), vec![1, 3]);
        assert_eq!(canonicalize(vec![7]), vec![7]);
    }

    /// The reference a [`Dictionary`] must behave like.
    #[derive(Clone, Default)]
    struct Model {
        strings: Vec<String>,
        ids: std::collections::HashMap<String, ValueId>,
    }

    impl Model {
        fn divergence(&self, successor: &Model) -> Option<ValueId> {
            let pairs = self.strings.iter().zip(&successor.strings);
            let agreeing = pairs.take_while(|(a, b)| a == b).count();
            (agreeing < self.strings.len()).then_some(agreeing as ValueId)
        }
    }

    fn intern_both(d: &mut Dictionary, m: &mut Model, s: &str) {
        let next = m.strings.len() as ValueId;
        let expected = *m.ids.entry(s.to_owned()).or_insert(next);
        if expected == next {
            m.strings.push(s.to_owned());
        }
        assert_eq!(d.intern(s), expected, "intern {s:?}");
        assert_eq!(d.len(), m.strings.len());
    }

    fn assert_matches(d: &Dictionary, m: &Model) {
        assert_eq!(d.len(), m.strings.len());
        assert_eq!(d.is_empty(), m.strings.is_empty());
        for (id, s) in m.strings.iter().enumerate() {
            assert_eq!(d.resolve(id as ValueId), s);
            assert_eq!(d.get(s), Some(id as ValueId), "get {s:?}");
        }
        assert_eq!(d.try_resolve(m.strings.len() as ValueId), None);
        assert!(d.iter().map(|(_, s)| s).eq(m.strings.iter().map(String::as_str)));
    }

    /// Empty, ASCII, multi-byte UTF-8, and prefixes or extensions of
    /// strings already interned.
    fn random_string(rng: &mut Rng, m: &Model) -> String {
        const CHARS: [char; 8] = ['a', 'b', 'z', '0', 'é', 'ß', '€', '𝄞'];
        let fresh = |rng: &mut Rng, len: usize| -> String {
            (0..len).map(|_| CHARS[rng.range(0..CHARS.len())]).collect()
        };
        match rng.range(0..6u32) {
            0 => String::new(),
            1 | 2 if !m.strings.is_empty() => {
                let base = &m.strings[rng.range(0..m.strings.len())];
                let keep = rng.range(0..=base.chars().count());
                let mut s: String = base.chars().take(keep).collect();
                if rng.bool() {
                    s.push_str(&fresh(rng, 1));
                }
                s
            }
            _ => {
                let len = rng.range(1..=6usize);
                fresh(rng, len)
            }
        }
    }

    /// Sizes at which the index has just grown or is about to.
    fn at_growth_boundary(len: usize) -> bool {
        [len.saturating_sub(1), len, len + 1].iter().any(|n| n.is_power_of_two())
    }

    #[test]
    fn dictionary_matches_a_map_model() {
        crate::rng::cases("dictionary_matches_a_map_model", 48, |rng| {
            let target = rng.range(300..=600usize);
            let (mut d, mut m) = (Dictionary::new(), Model::default());
            let mut clones: Vec<(Dictionary, Model)> = Vec::new();
            while m.strings.len() < target {
                let before = m.strings.len();
                match rng.range(0..10u32) {
                    0..=3 => {
                        let s = random_string(rng, &m);
                        intern_both(&mut d, &mut m, &s);
                    }
                    4 if before > 0 => {
                        let s = m.strings[rng.range(0..before)].clone();
                        intern_both(&mut d, &mut m, &s);
                    }
                    5 => {
                        let s = random_string(rng, &m);
                        assert_eq!(d.get(&s), m.ids.get(&s).copied(), "get {s:?}");
                    }
                    6 => {
                        let id = rng.range(0..=before) as ValueId;
                        let want = m.strings.get(id as usize).map(String::as_str);
                        assert_eq!(d.try_resolve(id), want);
                    }
                    7 if clones.len() < 3 => clones.push((d.clone(), m.clone())),
                    _ if !clones.is_empty() => {
                        let pick = rng.range(0..clones.len());
                        let (c, cm) = &mut clones[pick];
                        let s = random_string(rng, cm);
                        intern_both(c, cm, &s);
                        assert_eq!(d.get(&s), m.ids.get(&s).copied(), "the clone's, not ours");
                        assert_eq!(d.first_divergence(c), m.divergence(cm));
                        assert_eq!(c.first_divergence(&d), cm.divergence(&m));
                    }
                    _ => {}
                }
                if m.strings.len() != before && at_growth_boundary(m.strings.len()) {
                    assert_matches(&d, &m);
                }
            }
            assert_matches(&d, &m);
            let mut rebuilt = Dictionary::new();
            for s in &m.strings {
                rebuilt.intern(s);
            }
            assert_eq!(d.first_divergence(&rebuilt), None, "equal bytes, separate arenas");
            for (c, cm) in &clones {
                assert_matches(c, cm);
                assert_eq!(d.first_divergence(c), m.divergence(cm));
                assert_eq!(c.first_divergence(&d), cm.divergence(&m));
            }
        });
    }
}
