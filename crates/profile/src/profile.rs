//! Whole-table profiling: one call aggregating every statistical detector.
//!
//! This is the "traditional statistical methods to profile the tables
//! (e.g., value distribution, missing percentages)" of §2 — the context
//! Cocoon embeds in LLM prompts so the model understands the data without
//! seeing all of it.

use crate::distribution::Distribution;
use crate::entropy::FdCandidate;
use crate::numeric::NumericProfile;
use crate::partial::PartialProfile;
use crate::patterns::PatternCensus;
use crate::uniqueness::{DuplicateProfile, UniquenessProfile};
use cocoon_table::{DataType, Table, TypeInference};

/// Complete statistical profile of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProfile {
    /// Column name.
    pub name: String,
    /// Declared type from the table's schema ("the database catalog").
    pub declared_type: DataType,
    /// What the values actually look like, with a confidence score.
    pub inference: TypeInference,
    /// Value frequencies and null counts.
    pub distribution: Distribution,
    /// Distinct/duplicate structure — the key-likeness signal.
    pub uniqueness: UniquenessProfile,
    /// Numeric summary, when enough cells parse as numbers.
    pub numeric: Option<NumericProfile>,
    /// Character-pattern census (LD/LDL shapes).
    pub patterns: PatternCensus,
}

impl ColumnProfile {
    /// Compact, prompt-ready description of this column.
    pub fn prompt_summary(&self, max_values: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "column {:?}: declared {}, inferred {} ({:.0}% conforming)\n",
            self.name,
            self.declared_type.sql_name(),
            self.inference.data_type.sql_name(),
            self.inference.confidence * 100.0
        ));
        out.push_str(&format!(
            "nulls: {:.1}%, distinct: {}, unique ratio: {:.2}\n",
            self.distribution.null_fraction() * 100.0,
            self.distribution.distinct_count(),
            self.uniqueness.unique_ratio
        ));
        if let Some(num) = &self.numeric {
            out.push_str(&format!(
                "numeric range: [{}, {}], mean {:.2}\n",
                num.stats.min, num.stats.max, num.stats.mean
            ));
        }
        out.push_str(&format!("values: {}\n", self.distribution.summary(max_values)));
        out
    }
}

/// Complete statistical profile of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableProfile {
    /// Per-column profiles, in schema order.
    pub columns: Vec<ColumnProfile>,
    /// Exact-duplicate-row census.
    pub duplicates: DuplicateProfile,
    /// Scored single-attribute functional-dependency candidates.
    pub fd_candidates: Vec<FdCandidate>,
    /// Table height at profiling time.
    pub rows: usize,
    /// The options the profile was computed with.
    pub options: ProfileOptions,
}

/// Tunables for table profiling.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileOptions {
    /// Tolerance for type inference (fraction of values that must parse).
    pub type_tolerance: f64,
    /// Minimum entropy-based strength for FD candidates.
    pub fd_min_strength: f64,
    /// Skip key-like FD left-hand sides above this unique ratio.
    pub fd_max_unique_ratio: f64,
    /// Use exact (counted) pattern digests.
    pub exact_patterns: bool,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            type_tolerance: 0.90,
            fd_min_strength: 0.95,
            fd_max_unique_ratio: 0.9,
            exact_patterns: true,
        }
    }
}

/// Profiles every column of `table` plus table-level statistics.
///
/// Implemented as the one-chunk case of the mergeable-partial machinery
/// ([`PartialProfile`]): the whole table is accumulated as a single chunk
/// and finalised. There is deliberately **no second code path** — the
/// chunk-parallel profiler ([`profile_table_chunked`](crate::profile_table_chunked))
/// produces the same bytes because it runs the same code, not because two
/// implementations are kept in sync by hand.
pub fn profile_table(table: &Table, options: &ProfileOptions) -> TableProfile {
    PartialProfile::of_rows(table, 0..table.height()).finalize(options)
}

impl TableProfile {
    /// Finds a column's profile by name.
    pub fn column(&self, name: &str) -> Option<&ColumnProfile> {
        self.columns.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_table::Table;

    fn sample_table() -> Table {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "eng".into(), "10".into()],
            vec!["2".into(), "eng".into(), "20".into()],
            vec!["3".into(), "English".into(), "30".into()],
            vec!["4".into(), "fre".into(), "".into()],
            vec!["4".into(), "fre".into(), "".into()],
        ];
        let mut t = Table::from_text_rows(&["id", "lang", "score"], &rows).unwrap();
        // Blank cells to NULL, as ingestion would do.
        for c in 0..t.width() {
            let col = t.column_mut(c).unwrap();
            col.map_in_place(|v| match v.as_text() {
                Some("") => cocoon_table::Value::Null,
                _ => v.clone(),
            });
        }
        t
    }

    #[test]
    fn profiles_every_column() {
        let profile = profile_table(&sample_table(), &ProfileOptions::default());
        assert_eq!(profile.columns.len(), 3);
        assert_eq!(profile.rows, 5);
        let lang = profile.column("lang").unwrap();
        assert_eq!(lang.distribution.distinct_count(), 3);
        let score = profile.column("score").unwrap();
        assert!(score.numeric.is_some());
        assert_eq!(score.inference.data_type, DataType::Int);
    }

    #[test]
    fn duplicates_surface_in_profile() {
        let profile = profile_table(&sample_table(), &ProfileOptions::default());
        assert_eq!(profile.duplicates.duplicate_rows, 1);
    }

    #[test]
    fn prompt_summary_contains_key_facts() {
        let profile = profile_table(&sample_table(), &ProfileOptions::default());
        let text = profile.column("lang").unwrap().prompt_summary(10);
        assert!(text.contains("column \"lang\""));
        assert!(text.contains("distinct: 3"));
        assert!(text.contains("eng"));
    }

    #[test]
    fn missing_column_lookup() {
        let profile = profile_table(&sample_table(), &ProfileOptions::default());
        assert!(profile.column("nope").is_none());
    }
}
