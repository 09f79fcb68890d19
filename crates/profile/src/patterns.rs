//! Pattern (value-shape) census over a column.
//!
//! The statistical side of §2.1.2 Pattern Outliers: group the distinct text
//! values of a column by their regex-like shape digest. A column whose
//! values split across several shapes (`\d{2}/\d{2}/\d{4}` vs
//! `\d{4}-\d{2}-\d{2}`) has representation inconsistencies for the LLM to
//! review.

use cocoon_pattern::{exact_digest, loose_digest};
use cocoon_table::{Column, Value};
use std::collections::HashMap;

/// One shape bucket of the census.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternBucket {
    /// The shape digest (a valid pattern for `cocoon_pattern::Regex`).
    pub pattern: String,
    /// Number of cells (not distinct values) with this shape.
    pub count: usize,
    /// Up to a handful of example values, most frequent first.
    pub examples: Vec<String>,
}

/// Census of the value shapes in a column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PatternCensus {
    /// Buckets ordered by descending count (deterministic tie-break on the
    /// pattern text).
    pub buckets: Vec<PatternBucket>,
    /// Cells skipped because they were NULL or non-text.
    pub skipped: usize,
}

/// Builds the census using the exact digest when `exact` is true (counted
/// classes: `\d{2}`), the loose digest otherwise (`\d+`).
pub fn pattern_census(column: &Column, exact: bool) -> PatternCensus {
    pattern_census_from_distinct(&column.distinct_by_frequency(), column.null_count(), exact)
}

/// [`pattern_census`] over an already-censused column: distinct
/// `(value, count)` pairs in [`Column::distinct_by_frequency`] order
/// (which frequency-ranks the example lists) plus the null count. Shared
/// with the chunk-merged profile path (`crate::PartialProfile`) and read
/// off a [`crate::ColumnCensus`].
pub fn pattern_census_from_distinct(
    distinct: &[(Value, usize)],
    null_count: usize,
    exact: bool,
) -> PatternCensus {
    const MAX_EXAMPLES: usize = 5;
    let mut counts: HashMap<String, (usize, Vec<(String, usize)>)> = HashMap::new();
    let mut skipped = null_count;

    for (value, count) in distinct {
        let Some(text) = value.as_text() else {
            skipped += count;
            continue;
        };
        let digest = if exact { exact_digest(text) } else { loose_digest(text) };
        let entry = counts.entry(digest).or_insert((0, Vec::new()));
        entry.0 += count;
        if entry.1.len() < MAX_EXAMPLES {
            entry.1.push((text.to_string(), *count));
        }
    }

    let mut buckets: Vec<PatternBucket> = counts
        .into_iter()
        .map(|(pattern, (count, examples))| PatternBucket {
            pattern,
            count,
            examples: examples.into_iter().map(|(v, _)| v).collect(),
        })
        .collect();
    buckets.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.pattern.cmp(&b.pattern)));
    PatternCensus { buckets, skipped }
}

impl PatternCensus {
    /// Dominant bucket, if any.
    pub fn dominant(&self) -> Option<&PatternBucket> {
        self.buckets.first()
    }

    /// Total counted cells.
    pub fn total(&self) -> usize {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// True when more than one shape covers at least `min_share` of cells —
    /// the signature of an inconsistent-representation column.
    pub fn is_multimodal(&self, min_share: f64) -> bool {
        let total = self.total();
        if total == 0 {
            return false;
        }
        self.buckets.iter().filter(|b| b.count as f64 / total as f64 >= min_share).count() > 1
    }

    /// One line per bucket for LLM prompts: `pattern (count): ex1, ex2`.
    pub fn summary(&self, max_buckets: usize) -> String {
        self.buckets
            .iter()
            .take(max_buckets)
            .map(|b| {
                format!(
                    "{} ({} values; e.g. {})",
                    b.pattern,
                    b.count,
                    b.examples
                        .iter()
                        .take(3)
                        .map(|e| format!("{e:?}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_groups_by_shape() {
        let col = Column::from_strings(["01/02/2003", "11/12/2014", "2003-01-02", "05/06/2007"]);
        let census = pattern_census(&col, true);
        assert_eq!(census.buckets.len(), 2);
        assert_eq!(census.dominant().unwrap().pattern, r"\d{2}/\d{2}/\d{4}");
        assert_eq!(census.dominant().unwrap().count, 3);
        assert!(census.is_multimodal(0.2));
    }

    #[test]
    fn loose_census_collapses_lengths() {
        let col = Column::from_strings(["1/2/2003", "11/12/2014"]);
        let exact = pattern_census(&col, true);
        assert_eq!(exact.buckets.len(), 2);
        let loose = pattern_census(&col, false);
        assert_eq!(loose.buckets.len(), 1);
    }

    #[test]
    fn nulls_and_non_text_skipped() {
        let mut col = Column::from_strings(["abc"]);
        col.push(Value::Null);
        col.push(Value::Int(7));
        let census = pattern_census(&col, true);
        assert_eq!(census.total(), 1);
        assert_eq!(census.skipped, 2);
    }

    #[test]
    fn unimodal_not_flagged() {
        let col = Column::from_strings(["aa", "bb", "cc"]);
        let census = pattern_census(&col, true);
        assert_eq!(census.buckets.len(), 1);
        assert!(!census.is_multimodal(0.05));
    }

    #[test]
    fn examples_frequency_ranked() {
        let col = Column::from_strings(["xx", "yy", "yy", "zz"]);
        let census = pattern_census(&col, true);
        assert_eq!(census.buckets[0].examples[0], "yy");
    }

    #[test]
    fn summary_mentions_patterns() {
        let col = Column::from_strings(["01/02/2003", "2003-01-02"]);
        let census = pattern_census(&col, true);
        let s = census.summary(5);
        assert!(s.contains(r"\d{2}/\d{2}/\d{4}"));
        assert!(s.contains("e.g."));
    }
}
