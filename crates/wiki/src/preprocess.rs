//! Value cleaning and attribute filtering (§5.1).
//!
//! Four steps, mirroring the paper (which in turn follows MANY \[22\]):
//!
//! 1. **Link resolution** — `[[Target|shown text]]` → `Target`: linked
//!    entities get one canonical representation across all tables, which
//!    largely defuses the differing-entity-name problem of §3.3.
//! 2. **Null unification** — common null markers (`-`, `n/a`, `unknown`,
//!    `?`, …) are dropped from value sets.
//! 3. **Numeric-attribute filter** — attributes whose values are mostly
//!    numeric are discarded (numbers produce meaningless INDs).
//! 4. **History filters** — at least 5 versions (4 changes) and a median
//!    version cardinality of at least 5.

use tind_model::AttributeHistory;

/// Resolves wiki links in a single cell value:
/// `[[Page|text]]` → `Page`, `[[Page]]` → `Page`; other text is untouched.
pub fn resolve_links(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut rest = value;
    while let Some(start) = rest.find("[[") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 2..];
        match after.find("]]") {
            Some(end) => {
                let inner = &after[..end];
                let target = inner.split('|').next().unwrap_or(inner).trim();
                out.push_str(target);
                rest = &after[end + 2..];
            }
            None => {
                // Unclosed link: keep the raw text.
                out.push_str(&rest[start..]);
                rest = "";
            }
        }
    }
    out.push_str(rest);
    out.trim().to_string()
}

/// Null markers unified away by the paper's preprocessing.
const NULL_MARKERS: &[&str] =
    &["", "-", "—", "–", "n/a", "na", "none", "null", "unknown", "?", "tba", "tbd", "..."];

/// Whether a cleaned value represents a null.
pub fn is_null_marker(value: &str) -> bool {
    let lower = value.trim().to_lowercase();
    NULL_MARKERS.contains(&lower.as_str())
}

/// Whether a value is (mostly) numeric: integers, decimals, years, and
/// simple formatted numbers like `1,234` or `85%`.
pub fn is_numeric_value(value: &str) -> bool {
    let trimmed = value.trim().trim_start_matches(['+', '-', '$', '€', '~']);
    let trimmed = trimmed.trim_end_matches('%');
    if trimmed.is_empty() {
        return false;
    }
    let mut digits = 0usize;
    for c in trimmed.chars() {
        if c.is_ascii_digit() {
            digits += 1;
        } else if !matches!(c, '.' | ',' | ' ') {
            return false;
        }
    }
    digits > 0
}

/// Cleans one raw cell: resolve links, then drop if null.
pub fn clean_value(raw: &str) -> Option<String> {
    let resolved = resolve_links(raw);
    if is_null_marker(&resolved) {
        None
    } else {
        Some(resolved)
    }
}

/// Fraction of an attribute's distinct values that are numeric.
pub fn numeric_fraction(history: &AttributeHistory, resolve: impl Fn(u32) -> String) -> f64 {
    let universe = history.value_universe();
    if universe.is_empty() {
        return 0.0;
    }
    let numeric = universe.iter().filter(|&&v| is_numeric_value(&resolve(v))).count();
    numeric as f64 / universe.len() as f64
}

/// The paper's attribute-level filters.
#[derive(Debug, Clone)]
pub struct AttributeFilters {
    /// Maximum tolerated numeric fraction (paper: "mostly numeric" is
    /// dropped; we use 0.5).
    pub max_numeric_fraction: f64,
    /// Minimum number of versions (paper: 5).
    pub min_versions: usize,
    /// Minimum median version cardinality (paper: 5).
    pub min_median_cardinality: usize,
}

impl Default for AttributeFilters {
    fn default() -> Self {
        AttributeFilters {
            max_numeric_fraction: 0.5,
            min_versions: 5,
            min_median_cardinality: 5,
        }
    }
}

impl AttributeFilters {
    /// Whether `history` survives all filters.
    pub fn keep(&self, history: &AttributeHistory, resolve: impl Fn(u32) -> String) -> bool {
        history.versions().len() >= self.min_versions
            && history.median_cardinality() >= self.min_median_cardinality
            && numeric_fraction(history, resolve) <= self.max_numeric_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tind_model::HistoryBuilder;

    #[test]
    fn resolves_piped_and_plain_links() {
        assert_eq!(resolve_links("[[Pokémon Red|Red]]"), "Pokémon Red");
        assert_eq!(resolve_links("[[Tokyo]]"), "Tokyo");
        assert_eq!(resolve_links("plain text"), "plain text");
        assert_eq!(resolve_links("mix [[A|a]] and [[B]]"), "mix A and B");
        assert_eq!(resolve_links("broken [[link"), "broken [[link");
    }

    #[test]
    fn null_markers_detected() {
        for m in ["", "-", "N/A", "n/a", "Unknown", "?", "TBA", " none "] {
            assert!(is_null_marker(m), "{m:?} should be null");
        }
        for m in ["0", "USA", "-1"] {
            assert!(!is_null_marker(m), "{m:?} should not be null");
        }
    }

    #[test]
    fn numeric_detection() {
        for v in ["1996", "3.14", "-7", "1,234,567", "85%", "$100", "12 345"] {
            assert!(is_numeric_value(v), "{v:?} should be numeric");
        }
        for v in ["USA", "Route 66", "1996 (remake)", "", "-"] {
            assert!(!is_numeric_value(v), "{v:?} should not be numeric");
        }
    }

    #[test]
    fn clean_value_combines_steps() {
        assert_eq!(clean_value("[[USA|United States]]"), Some("USA".to_string()));
        assert_eq!(clean_value(" - "), None);
        assert_eq!(clean_value("[[Unknown]]"), None, "link resolving to null is null");
        assert_eq!(clean_value("Tokyo"), Some("Tokyo".to_string()));
    }

    #[test]
    fn filters_enforce_paper_rules() {
        let mut dict = tind_model::Dictionary::new();
        let names: Vec<u32> = (0..6).map(|i| dict.intern(&format!("city{i}"))).collect();
        let years: Vec<u32> = (0..6).map(|i| dict.intern(&format!("{}", 1990 + i))).collect();

        let mut good = HistoryBuilder::new("good");
        for v in 0..5 {
            good.push(v * 2, names.iter().copied().take(5 + (v as usize % 2)).collect());
        }
        let good = good.finish(20);

        let mut numeric = HistoryBuilder::new("numeric");
        for v in 0..5 {
            numeric.push(v * 2, years.iter().copied().take(5).collect());
        }
        let numeric = numeric.finish(20);

        let mut short = HistoryBuilder::new("short");
        short.push(0, names.iter().copied().take(5).collect());
        let short = short.finish(20);

        let f = AttributeFilters::default();
        let resolve = |v: u32| dict.resolve(v).to_string();
        assert!(f.keep(&good, resolve));
        assert!(!f.keep(&numeric, resolve), "mostly-numeric attribute dropped");
        assert!(!f.keep(&short, resolve), "single-version attribute dropped");
    }

    #[test]
    fn small_cardinality_filtered() {
        let mut dict = tind_model::Dictionary::new();
        let ids: Vec<u32> = (0..3).map(|i| dict.intern(&format!("v{i}"))).collect();
        let mut tiny = HistoryBuilder::new("tiny");
        for v in 0..6 {
            tiny.push(v * 2, ids.iter().copied().take(1 + (v as usize % 3)).collect());
        }
        let tiny = tiny.finish(20);
        let f = AttributeFilters::default();
        assert!(!f.keep(&tiny, |v| dict.resolve(v).to_string()));
    }
}
