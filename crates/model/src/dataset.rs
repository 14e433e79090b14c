//! Datasets: the attribute collection `D` of the discovery problem.

use std::sync::{Arc, OnceLock};

use crate::hash::FastMap;
use crate::history::AttributeHistory;
use crate::time::{Timeline, Timestamp};
use crate::value::{Dictionary, ValueId, ValueSet};

/// Dense identifier of an attribute within a dataset: the index into
/// [`Dataset::attributes`]. Bloom-matrix columns use the same numbering.
pub type AttrId = u32;

/// A collection of attribute histories over a shared timeline and value
/// dictionary — the input `D` of tIND search and discovery.
///
/// Histories are immutable once built and held behind an [`Arc`], so a
/// clone is shallow: it shares every history with the original, and a
/// successor made by [`Dataset::into_builder`] plus
/// [`DatasetBuilder::upsert_history`] owns only the slots it replaced.
/// Unchanged history is shared between snapshots, never copied — which is
/// what lets a delta diff skip an untouched attribute with one pointer
/// compare.
#[derive(Debug, Clone)]
pub struct Dataset {
    timeline: Timeline,
    dictionary: Dictionary,
    attributes: Vec<Arc<AttributeHistory>>,
    by_name: FastMap<String, AttrId>,
    /// [`crate::binio::dataset_fingerprint`]'s cache: filled by the decoder
    /// from the verified file bytes, or on first use by encoding. Every
    /// `&mut self` method that changes the content must reset it.
    fingerprint: OnceLock<u64>,
}

impl Dataset {
    /// The shared timeline.
    pub fn timeline(&self) -> Timeline {
        self.timeline
    }

    /// The shared value dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// All attribute histories, indexed by [`AttrId`]. Each is shared with
    /// every clone and successor of the dataset that did not replace it.
    pub fn attributes(&self) -> &[Arc<AttributeHistory>] {
        &self.attributes
    }

    /// Number of attributes `|D|`.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the dataset holds no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The history with the given id.
    pub fn attribute(&self, id: AttrId) -> &AttributeHistory {
        &self.attributes[id as usize]
    }

    /// Looks an attribute up by name.
    pub fn attribute_by_name(&self, name: &str) -> Option<(AttrId, &AttributeHistory)> {
        self.by_name.get(name).map(|&id| (id, self.attribute(id)))
    }

    /// Resolves an attribute as a user names it: by name, else by a
    /// numeric id below [`Dataset::len`].
    pub fn resolve(&self, raw: &str) -> Option<AttrId> {
        self.attribute_by_name(raw)
            .map(|(id, _)| id)
            .or_else(|| raw.parse::<AttrId>().ok().filter(|&id| (id as usize) < self.len()))
    }

    /// Iterates `(id, history)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttributeHistory)> {
        self.attributes.iter().enumerate().map(|(i, h)| (i as AttrId, &**h))
    }

    /// `A[t]` for every attribute: the dataset state at one timestamp.
    pub fn snapshot_at(&self, t: Timestamp) -> crate::snapshot::Snapshot<'_> {
        crate::snapshot::Snapshot::of(self, t)
    }

    /// Resolves a set of value ids to their strings (diagnostics/UI).
    pub fn resolve_set(&self, set: &[ValueId]) -> Vec<&str> {
        set.iter().map(|&v| self.dictionary.resolve(v)).collect()
    }

    /// Dissolves the dataset back into a builder so more attributes can be
    /// appended. Used by checkpointed ingestion: a partial dataset decoded
    /// from a checkpoint resumes exactly where it left off, preserving the
    /// dictionary's intern order so the final encoding stays byte-identical.
    /// Every history stays shared with the dataset's other clones.
    pub fn into_builder(self) -> DatasetBuilder {
        DatasetBuilder {
            timeline: self.timeline,
            dictionary: self.dictionary,
            attributes: self.attributes,
        }
    }

    pub(crate) fn fingerprint_cell(&self) -> &OnceLock<u64> {
        &self.fingerprint
    }

    /// Keeps only attributes satisfying `keep`, renumbering ids densely;
    /// kept histories stay shared. Returns the mapping
    /// `old AttrId -> new AttrId`.
    pub fn retain<F>(&mut self, mut keep: F) -> FastMap<AttrId, AttrId>
    where
        F: FnMut(&AttributeHistory) -> bool,
    {
        let mut mapping = FastMap::default();
        let mut kept = Vec::with_capacity(self.attributes.len());
        for (old_id, hist) in self.attributes.drain(..).enumerate() {
            if keep(&hist) {
                mapping.insert(old_id as AttrId, kept.len() as AttrId);
                kept.push(hist);
            }
        }
        self.attributes = kept;
        self.fingerprint = OnceLock::new();
        self.by_name = self
            .attributes
            .iter()
            .enumerate()
            .map(|(i, h)| (h.name().to_owned(), i as AttrId))
            .collect();
        mapping
    }
}

/// Builder assembling a [`Dataset`] from interned histories.
///
/// `Clone` so long-running ingestion can snapshot the partial build into a
/// checkpoint without disturbing the in-progress state; like a
/// [`Dataset`] clone, it shares the histories added so far.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    timeline: Timeline,
    dictionary: Dictionary,
    attributes: Vec<Arc<AttributeHistory>>,
}

impl DatasetBuilder {
    /// Starts an empty dataset over `timeline`.
    pub fn new(timeline: Timeline) -> Self {
        DatasetBuilder { timeline, dictionary: Dictionary::new(), attributes: Vec::new() }
    }

    /// A builder holding `attributes` over `dictionary`, from a decoder
    /// that has already proven every history fits `timeline`.
    pub(crate) fn from_parts(
        timeline: Timeline,
        dictionary: Dictionary,
        attributes: Vec<Arc<AttributeHistory>>,
    ) -> Self {
        debug_assert!(attributes.iter().all(|h| timeline.contains(h.last_observed())));
        DatasetBuilder { timeline, dictionary, attributes }
    }

    /// Mutable access to the dictionary for interning values.
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        &mut self.dictionary
    }

    /// Read access to the dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dictionary
    }

    /// The timeline this dataset is being built over.
    pub fn timeline(&self) -> Timeline {
        self.timeline
    }

    /// Adds a fully built history; returns its id.
    ///
    /// # Panics
    /// Panics if the history extends beyond the timeline.
    pub fn add_history(&mut self, history: AttributeHistory) -> AttrId {
        assert!(
            self.timeline.contains(history.last_observed()),
            "history '{}' ends at {} beyond timeline of length {}",
            history.name(),
            history.last_observed(),
            self.timeline.len()
        );
        let id = self.attributes.len() as AttrId;
        self.attributes.push(Arc::new(history));
        id
    }

    /// Adds `history`, or replaces the existing history of the same name
    /// in place, keeping its [`AttrId`]. Returns `(id, replaced)`. Only the
    /// upserted slot gets a new history; every other slot stays shared.
    ///
    /// This is the delta-ingestion primitive: a page re-staged with newer
    /// revisions yields fresh histories for columns that already have ids,
    /// and those ids must stay stable so an incrementally maintained index
    /// can update the touched columns instead of appending duplicates.
    ///
    /// Name lookup is a linear scan — callers batch at page granularity,
    /// where the handful of columns per page is dwarfed by re-staging cost.
    ///
    /// # Panics
    /// Panics if the history extends beyond the timeline.
    pub fn upsert_history(&mut self, history: AttributeHistory) -> (AttrId, bool) {
        if let Some(pos) = self.attributes.iter().position(|h| h.name() == history.name()) {
            self.replace_history(pos as AttrId, history);
            (pos as AttrId, true)
        } else {
            (self.add_history(history), false)
        }
    }

    /// Replaces the history in slot `id`, keeping the id; every other slot
    /// stays shared. For callers that keep their own name → id map.
    ///
    /// # Panics
    /// Panics if `id` is out of range or the history extends beyond the
    /// timeline.
    pub fn replace_history(&mut self, id: AttrId, history: AttributeHistory) {
        assert!(
            self.timeline.contains(history.last_observed()),
            "history '{}' ends at {} beyond timeline of length {}",
            history.name(),
            history.last_observed(),
            self.timeline.len()
        );
        self.attributes[id as usize] = Arc::new(history);
    }

    /// Convenience: builds and adds a history from `(start, values)` string
    /// versions, observed through `last_observed`.
    pub fn add_attribute<S: AsRef<str>>(
        &mut self,
        name: &str,
        versions: &[(Timestamp, Vec<S>)],
        last_observed: Timestamp,
    ) -> AttrId {
        let mut b = crate::history::HistoryBuilder::new(name);
        for (start, values) in versions {
            let set: ValueSet = values.iter().map(|s| self.dictionary.intern(s.as_ref())).collect();
            b.push(*start, set);
        }
        self.add_history(b.finish(last_observed))
    }

    /// Number of attributes added so far.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether no attribute has been added.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Finalizes the dataset.
    pub fn build(self) -> Dataset {
        let by_name = self
            .attributes
            .iter()
            .enumerate()
            .map(|(i, h)| (h.name().to_owned(), i as AttrId))
            .collect();
        self.finish(by_name)
    }

    /// Finalizes the dataset with a name index the caller kept while
    /// adding: `by_name` must map each attribute's name, held once, to its
    /// id. Saves indexing every name a second time.
    pub fn build_with_names(self, by_name: FastMap<String, AttrId>) -> Dataset {
        debug_assert!(
            by_name.len() == self.attributes.len()
                && self
                    .attributes
                    .iter()
                    .enumerate()
                    .all(|(i, h)| by_name.get(h.name()) == Some(&(i as AttrId))),
            "the name index must match the attributes"
        );
        self.finish(by_name)
    }

    fn finish(self, by_name: FastMap<String, AttrId>) -> Dataset {
        Dataset {
            timeline: self.timeline,
            dictionary: self.dictionary,
            attributes: self.attributes,
            by_name,
            fingerprint: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> Dataset {
        let mut b = DatasetBuilder::new(Timeline::new(10));
        b.add_attribute("games", &[(0, vec!["red", "blue"]), (4, vec!["red", "blue", "gold"])], 9);
        b.add_attribute("all", &[(0, vec!["red", "blue", "gold", "silver"])], 9);
        b.build()
    }

    #[test]
    fn builder_assembles_and_indexes() {
        let d = small_dataset();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        let (id, hist) = d.attribute_by_name("games").expect("exists");
        assert_eq!(id, 0);
        assert_eq!(hist.change_count(), 1);
        assert!(d.attribute_by_name("nope").is_none());
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn shared_dictionary_assigns_same_ids() {
        let d = small_dataset();
        let games = d.attribute(0).values_at(0);
        let all = d.attribute(1).values_at(0);
        // "red" and "blue" must have identical ids in both attributes.
        assert!(crate::value::is_subset(games, all));
        assert_eq!(d.resolve_set(games).len(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond timeline")]
    fn rejects_history_past_timeline() {
        let mut b = DatasetBuilder::new(Timeline::new(5));
        b.add_attribute::<&str>("x", &[(0, vec!["a"])], 5);
    }

    #[test]
    fn upsert_replaces_in_place_and_appends_new() {
        let base = small_dataset();
        let mut b = base.clone().into_builder();
        let mut fresh = crate::history::HistoryBuilder::new("games");
        fresh.push(0, vec![0, 1]);
        fresh.push(6, vec![0, 1, 2]);
        let (id, replaced) = b.upsert_history(fresh.finish(9));
        assert_eq!((id, replaced), (0, true), "existing name keeps its id");

        let mut new = crate::history::HistoryBuilder::new("brand-new");
        new.push(2, vec![3]);
        let (id, replaced) = b.upsert_history(new.finish(9));
        assert_eq!((id, replaced), (2, false), "new name appends");

        let d = b.build();
        assert_eq!(d.len(), 3);
        assert_eq!(d.attribute(0).change_count(), 1);
        assert_eq!(d.attribute(0).versions().len(), 2);
        assert_eq!(d.attribute_by_name("brand-new").map(|(i, _)| i), Some(2));
        // Exactly the upserted slot is new; the original is unchanged.
        assert!(!Arc::ptr_eq(&base.attributes()[0], &d.attributes()[0]));
        assert!(Arc::ptr_eq(&base.attributes()[1], &d.attributes()[1]));
        assert_eq!(base.attribute(0).versions()[1].start, 4);
    }

    #[test]
    fn clones_builders_and_retain_share_histories() {
        let d = small_dataset();
        let shared = |a: &Dataset, b: &Dataset, ia: usize, ib: usize| {
            Arc::ptr_eq(&a.attributes()[ia], &b.attributes()[ib])
        };
        let clone = d.clone();
        assert!((0..d.len()).all(|i| shared(&d, &clone, i, i)), "clone is shallow");
        let rebuilt = d.clone().into_builder().build();
        assert!((0..d.len()).all(|i| shared(&d, &rebuilt, i, i)), "into_builder shares");
        let mut kept = d.clone();
        kept.retain(|h| h.name() == "all");
        assert!(shared(&d, &kept, 1, 0), "retain keeps the shared history");
    }

    #[test]
    fn retain_renumbers_densely() {
        let mut d = small_dataset();
        let mapping = d.retain(|h| h.name() == "all");
        assert_eq!(d.len(), 1);
        assert_eq!(d.attribute(0).name(), "all");
        assert_eq!(mapping.get(&1), Some(&0));
        assert_eq!(mapping.get(&0), None);
        assert_eq!(d.attribute_by_name("all").map(|(id, _)| id), Some(0));
        assert!(d.attribute_by_name("games").is_none());
    }
}
