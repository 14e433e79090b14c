//! n-ary temporal inclusion dependencies — the paper's §6 future-work item
//! ("the discovery of n-ary tINDs could be studied").
//!
//! An n-ary tIND `T1[A1..An] ⊆_{w,ε,δ} T2[B1..Bn]` demands that at (almost)
//! every timestamp the *tuple* set projected from columns `A1..An` is
//! δ-contained in the tuple set projected from `B1..Bn`. Two observations
//! make the unary machinery reusable:
//!
//! * projecting a [`TemporalTable`] on a column list and interning each
//!   tuple ([`TupleInterner`]) yields an ordinary unary attribute history,
//!   so Algorithm 2 validates n-ary candidates unchanged;
//! * validity is anti-monotone in the column list (dropping a position
//!   from both sides can only make containment easier), so candidates can
//!   be generated level-wise MIND-style: an n-ary candidate is tried only
//!   if all its (n−1)-ary projections validated.
//!
//! Left-hand column lists are kept in canonical ascending order (the
//! permutation property of n-ary INDs makes reorderings equivalent).

use tind_model::hash::FastMap;
use tind_model::{AttributeHistory, TemporalTable, Timeline, TupleInterner};

use crate::params::TindParams;
use crate::validate::validate;

/// One side of an n-ary IND: a table and an ordered column list.
pub type Side = (usize, Vec<usize>);

/// A discovered n-ary temporal IND.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NaryInd {
    /// Left-hand side (included); columns ascending.
    pub lhs: Side,
    /// Right-hand side (including); columns aligned positionally with
    /// `lhs`.
    pub rhs: Side,
}

impl NaryInd {
    /// Human-readable rendering against the table list.
    pub fn describe(&self, tables: &[TemporalTable]) -> String {
        let side = |s: &Side| {
            let t = &tables[s.0];
            let cols: Vec<&str> = s.1.iter().map(|&c| t.columns()[c].as_str()).collect();
            format!("{}[{}]", t.name(), cols.join(", "))
        };
        format!("{} ⊆ {}", side(&self.lhs), side(&self.rhs))
    }

    /// Arity of the dependency.
    pub fn arity(&self) -> usize {
        self.lhs.1.len()
    }
}

/// Results of level-wise discovery: `levels[i]` holds the (i+1)-ary tINDs.
#[derive(Debug, Clone)]
pub struct NaryResults {
    /// Valid INDs per arity level.
    pub levels: Vec<Vec<NaryInd>>,
    /// Candidates validated per level (pruning diagnostics).
    pub candidates_checked: Vec<usize>,
}

impl NaryResults {
    /// All INDs of every arity, flattened.
    pub fn all(&self) -> impl Iterator<Item = &NaryInd> {
        self.levels.iter().flatten()
    }
}

/// Cache of projected unary histories, keyed by (table, column list).
struct ProjectionCache<'a> {
    tables: &'a [TemporalTable],
    interner: TupleInterner,
    cache: FastMap<u64, AttributeHistory>,
    keys: FastMap<u64, Side>,
}

impl<'a> ProjectionCache<'a> {
    fn new(tables: &'a [TemporalTable]) -> Self {
        ProjectionCache {
            tables,
            interner: TupleInterner::new(),
            cache: FastMap::default(),
            keys: FastMap::default(),
        }
    }

    fn key(side: &Side) -> u64 {
        let mut h = tind_model::hash::splitmix64(side.0 as u64 ^ 0x51ab);
        for &c in &side.1 {
            h = tind_model::hash::splitmix64(h ^ (c as u64).wrapping_add(0x9e37));
        }
        h
    }

    fn get(&mut self, side: &Side) -> &AttributeHistory {
        let key = Self::key(side);
        if let Some(existing) = self.keys.get(&key) {
            debug_assert_eq!(existing, side, "projection key collision");
        } else {
            let history = self.tables[side.0].project_history(&side.1, &mut self.interner);
            self.cache.insert(key, history);
            self.keys.insert(key, side.clone());
        }
        &self.cache[&key]
    }
}

/// Discovers all n-ary tINDs among `tables` up to `max_arity`.
///
/// Trivial dependencies are excluded: the two sides must not be the
/// identical (table, column) list, and within one table a column may not
/// map to itself at the same position.
///
/// # Examples
///
/// ```
/// use tind_core::nary::{discover_nary, NaryInd};
/// use tind_core::TindParams;
/// use tind_model::{TableVersion, TemporalTable, Timeline};
///
/// let catalog = TemporalTable::new(
///     "catalog",
///     vec!["Game".into(), "Composer".into()],
///     vec![TableVersion { start: 0, rows: vec![
///         vec![Some(1), Some(10)],
///         vec![Some(2), Some(11)],
///     ]}],
///     9,
/// );
/// let credits = TemporalTable::new(
///     "credits",
///     vec!["Game".into(), "Composer".into()],
///     vec![TableVersion { start: 0, rows: vec![vec![Some(1), Some(10)]] }],
///     9,
/// );
/// let tables = vec![catalog, credits];
/// let results = discover_nary(&tables, Timeline::new(10), &TindParams::strict(), 2);
/// let want = NaryInd { lhs: (1, vec![0, 1]), rhs: (0, vec![0, 1]) };
/// assert!(results.levels[1].contains(&want));
/// ```
pub fn discover_nary(
    tables: &[TemporalTable],
    timeline: Timeline,
    params: &TindParams,
    max_arity: usize,
) -> NaryResults {
    let mut cache = ProjectionCache::new(tables);
    let mut levels: Vec<Vec<NaryInd>> = Vec::new();
    let mut candidates_checked: Vec<usize> = Vec::new();

    // Level 1: all unary column pairs.
    let mut unary: Vec<NaryInd> = Vec::new();
    let mut checked = 0usize;
    for (ti, t) in tables.iter().enumerate() {
        for ci in 0..t.columns().len() {
            for (tj, u) in tables.iter().enumerate() {
                for cj in 0..u.columns().len() {
                    if ti == tj && ci == cj {
                        continue;
                    }
                    let cand = NaryInd { lhs: (ti, vec![ci]), rhs: (tj, vec![cj]) };
                    checked += 1;
                    if validates(&cand, &mut cache, params, timeline) {
                        unary.push(cand);
                    }
                }
            }
        }
    }
    unary.sort_unstable();
    candidates_checked.push(checked);
    levels.push(unary);

    // Levels 2..=max_arity: MIND-style generation.
    for arity in 2..=max_arity {
        let prev = &levels[arity - 2];
        if prev.is_empty() {
            break;
        }
        let prev_set: std::collections::BTreeSet<&NaryInd> = prev.iter().collect();
        let mut next: Vec<NaryInd> = Vec::new();
        let mut checked = 0usize;
        for (i, a) in prev.iter().enumerate() {
            for b in &prev[i + 1..] {
                let Some(cand) = join(a, b) else { continue };
                if !projections_valid(&cand, &prev_set) {
                    continue;
                }
                checked += 1;
                if validates(&cand, &mut cache, params, timeline) {
                    next.push(cand);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        candidates_checked.push(checked);
        let stop = next.is_empty();
        levels.push(next);
        if stop {
            break;
        }
    }
    NaryResults { levels, candidates_checked }
}

/// Joins two (n−1)-ary INDs sharing tables and all but the last position
/// into an n-ary candidate (lhs columns kept strictly ascending).
fn join(a: &NaryInd, b: &NaryInd) -> Option<NaryInd> {
    if a.lhs.0 != b.lhs.0 || a.rhs.0 != b.rhs.0 {
        return None;
    }
    let n = a.lhs.1.len();
    if a.lhs.1[..n - 1] != b.lhs.1[..n - 1] || a.rhs.1[..n - 1] != b.rhs.1[..n - 1] {
        return None;
    }
    let (la, lb) = (a.lhs.1[n - 1], b.lhs.1[n - 1]);
    let (ra, rb) = (a.rhs.1[n - 1], b.rhs.1[n - 1]);
    if la >= lb || ra == rb {
        return None; // keep lhs ascending; rhs columns must be distinct
    }
    // Same-table self-mapping at one position is trivial, skip.
    let mut lhs_cols = a.lhs.1.clone();
    lhs_cols.push(lb);
    let mut rhs_cols = a.rhs.1.clone();
    rhs_cols.push(rb);
    if a.lhs.0 == a.rhs.0 && lhs_cols == rhs_cols {
        return None;
    }
    Some(NaryInd { lhs: (a.lhs.0, lhs_cols), rhs: (a.rhs.0, rhs_cols) })
}

/// Anti-monotonicity check: every (n−1)-ary projection must be in the
/// previous level.
fn projections_valid(cand: &NaryInd, prev: &std::collections::BTreeSet<&NaryInd>) -> bool {
    let n = cand.lhs.1.len();
    for skip in 0..n {
        let lhs_cols: Vec<usize> = cand
            .lhs
            .1
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, &c)| c)
            .collect();
        let rhs_cols: Vec<usize> = cand
            .rhs
            .1
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, &c)| c)
            .collect();
        let projection = NaryInd {
            lhs: (cand.lhs.0, lhs_cols),
            rhs: (cand.rhs.0, rhs_cols),
        };
        // The trivial self-projection cannot be in prev but is vacuously
        // valid.
        if projection.lhs == projection.rhs {
            continue;
        }
        if !prev.contains(&projection) {
            return false;
        }
    }
    true
}

fn validates(
    cand: &NaryInd,
    cache: &mut ProjectionCache<'_>,
    params: &TindParams,
    timeline: Timeline,
) -> bool {
    // Clone the LHS history handle out of the cache to sidestep double
    // mutable borrows; histories are small relative to validation cost.
    let lhs = cache.get(&cand.lhs).clone();
    validate(&lhs, cache.get(&cand.rhs), params, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_model::{TableVersion, Timeline};

    fn v(id: u32) -> Option<u32> {
        Some(id)
    }

    /// Two tables where (Game, Composer) of `credits` ⊆ (Game, Composer)
    /// of `catalog`, but the unary parts also hold individually.
    fn tables() -> Vec<TemporalTable> {
        let catalog = TemporalTable::new(
            "catalog",
            vec!["Game".into(), "Composer".into(), "Year".into()],
            vec![TableVersion {
                start: 0,
                rows: vec![
                    vec![v(1), v(20), v(90)],
                    vec![v(2), v(21), v(91)],
                    vec![v(3), v(20), v(92)],
                ],
            }],
            19,
        );
        let credits = TemporalTable::new(
            "credits",
            vec!["Game".into(), "Composer".into()],
            vec![TableVersion {
                start: 0,
                rows: vec![vec![v(1), v(20)], vec![v(2), v(21)]],
            }],
            19,
        );
        // A decoy where the unary INDs hold but the *pairing* differs:
        // games and composers both appear in the catalog, but mismatched.
        let decoy = TemporalTable::new(
            "decoy",
            vec!["Game".into(), "Composer".into()],
            vec![TableVersion {
                start: 0,
                rows: vec![vec![v(1), v(21)], vec![v(2), v(20)]],
            }],
            19,
        );
        vec![catalog, credits, decoy]
    }

    fn timeline() -> Timeline {
        Timeline::new(20)
    }

    #[test]
    fn unary_level_finds_column_containments() {
        let t = tables();
        let r = discover_nary(&t, timeline(), &TindParams::strict(), 1);
        assert_eq!(r.levels.len(), 1);
        // credits.Game ⊆ catalog.Game must be found.
        let want = NaryInd { lhs: (1, vec![0]), rhs: (0, vec![0]) };
        assert!(r.levels[0].contains(&want), "{:?}", r.levels[0]);
        assert!(r.candidates_checked[0] > 0);
    }

    #[test]
    fn binary_level_distinguishes_true_pairings_from_decoys() {
        let t = tables();
        let r = discover_nary(&t, timeline(), &TindParams::strict(), 2);
        assert!(r.levels.len() >= 2);
        let good = NaryInd { lhs: (1, vec![0, 1]), rhs: (0, vec![0, 1]) };
        assert!(
            r.levels[1].contains(&good),
            "credits[Game, Composer] ⊆ catalog[Game, Composer] missing: {:?}",
            r.levels[1].iter().map(|i| i.describe(&t)).collect::<Vec<_>>()
        );
        // The decoy's unary columns are each contained, but the tuple
        // pairing is wrong → no binary IND into the catalog.
        let bad = NaryInd { lhs: (2, vec![0, 1]), rhs: (0, vec![0, 1]) };
        assert!(!r.levels[1].contains(&bad), "decoy pairing wrongly validated");
    }

    #[test]
    fn describe_renders_readably() {
        let t = tables();
        let ind = NaryInd { lhs: (1, vec![0, 1]), rhs: (0, vec![0, 1]) };
        assert_eq!(ind.describe(&t), "credits[Game, Composer] ⊆ catalog[Game, Composer]");
        assert_eq!(ind.arity(), 2);
    }

    #[test]
    fn anti_monotone_generation_stops_when_level_empties() {
        let t = tables();
        let r = discover_nary(&t, timeline(), &TindParams::strict(), 5);
        // With 2-column LHS tables, level 3 cannot have candidates.
        assert!(r.levels.len() <= 3);
        for level in &r.levels {
            for ind in level {
                assert!(ind.lhs.1.windows(2).all(|w| w[0] < w[1]), "lhs not ascending: {ind:?}");
            }
        }
    }

    #[test]
    fn temporal_relaxation_applies_to_nary() {
        // The pairing breaks for 3 days mid-history, then recovers.
        let lhs = TemporalTable::new(
            "lhs",
            vec!["A".into(), "B".into()],
            vec![
                TableVersion { start: 0, rows: vec![vec![v(1), v(2)]] },
                TableVersion { start: 8, rows: vec![vec![v(1), v(99)]] },
                TableVersion { start: 11, rows: vec![vec![v(1), v(2)]] },
            ],
            19,
        );
        let rhs = TemporalTable::new(
            "rhs",
            vec!["A".into(), "B".into()],
            vec![TableVersion { start: 0, rows: vec![vec![v(1), v(2)], vec![v(3), v(4)]] }],
            19,
        );
        let t = vec![lhs, rhs];
        let strict = discover_nary(&t, timeline(), &TindParams::strict(), 2);
        let want = NaryInd { lhs: (0, vec![0, 1]), rhs: (1, vec![0, 1]) };
        assert!(!strict.levels.get(1).is_some_and(|l| l.contains(&want)));
        let relaxed = discover_nary(
            &t,
            timeline(),
            &TindParams::weighted(3.0, 0, tind_model::WeightFn::constant_one()),
            2,
        );
        assert!(
            relaxed.levels[1].contains(&want),
            "ε = 3 must absorb the 3-day pairing error: {:?}",
            relaxed.levels[1]
        );
    }
}
