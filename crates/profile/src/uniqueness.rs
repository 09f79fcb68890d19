//! Column uniqueness and duplicate-row statistics.
//!
//! §2.1.7 (duplication) and §2.1.8 (column uniqueness): the statistical
//! detections are exact-duplicate row counting and per-column unique ratios.

use crate::census::ColumnCensus;
use cocoon_table::{Column, Table, Value};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Uniqueness profile of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct UniquenessProfile {
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Number of non-null cells.
    pub non_null: usize,
    /// distinct / non_null in [0, 1]; 1.0 means fully unique (key-like).
    pub unique_ratio: f64,
    /// Values occurring more than once, with their counts (desc).
    pub duplicated_values: Vec<(Value, usize)>,
}

/// Profiles the uniqueness of `column`.
pub fn uniqueness_profile(column: &Column) -> UniquenessProfile {
    uniqueness_from_distinct(&column.distinct_by_frequency())
}

/// [`uniqueness_profile`] over an already-censused column: distinct
/// `(value, count)` pairs in [`Column::distinct_by_frequency`] order. The
/// duplicated-value ordering (descending count, ties by ascending value)
/// is exactly the census order, so filtering preserves it. Shared with the
/// chunk-merged profile path (`crate::PartialProfile`).
pub fn uniqueness_from_distinct(sorted: &[(Value, usize)]) -> UniquenessProfile {
    let non_null: usize = sorted.iter().map(|(_, count)| count).sum();
    let distinct = sorted.len();
    let duplicated_values: Vec<(Value, usize)> =
        sorted.iter().filter(|(_, count)| *count > 1).cloned().collect();
    UniquenessProfile {
        distinct,
        non_null,
        unique_ratio: if non_null == 0 { 0.0 } else { distinct as f64 / non_null as f64 },
        duplicated_values,
    }
}

/// Duplicate-row profile of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct DuplicateProfile {
    /// Total rows in the table.
    pub rows: usize,
    /// Rows that are an exact copy of an earlier row.
    pub duplicate_rows: usize,
    /// Number of distinct row values that occur more than once.
    pub duplicated_groups: usize,
}

/// Profiles exact row duplication.
pub fn duplicate_profile(table: &Table) -> DuplicateProfile {
    let censuses: Vec<ColumnCensus> = (0..table.width())
        .map(|c| ColumnCensus::of(table.column(c).expect("index in range")))
        .collect();
    duplicates_from_censuses(&censuses)
}

/// [`duplicate_profile`] over the censuses of a table's columns. Rows are
/// `Value`-equal exactly when their per-column code tuples are equal
/// (codes identify `Value`-equality classes, NULLs included), so rows are
/// grouped by codes without cloning a cell. A table without columns has no
/// duplicates.
pub fn duplicates_from_censuses<C: Borrow<ColumnCensus>>(censuses: &[C]) -> DuplicateProfile {
    let rows = censuses.first().map_or(0, |census| census.borrow().rows());
    // Each row's group, refined one column at a time: two rows share a
    // group exactly when their codes agree on every column folded in so
    // far. Once every row is alone in its group, later columns cannot
    // merge any.
    let mut groups = vec![0u32; rows];
    let mut group_count = usize::from(rows > 0);
    for census in censuses {
        if group_count == rows {
            break;
        }
        let mut refined: HashMap<(u32, u32), u32> = HashMap::with_capacity(group_count);
        for (group, &code) in groups.iter_mut().zip(census.borrow().codes()) {
            let next = refined.len() as u32;
            *group = *refined.entry((*group, code)).or_insert(next);
        }
        group_count = refined.len();
    }
    let mut sizes = vec![0usize; group_count];
    for &group in &groups {
        sizes[group as usize] += 1;
    }
    let (mut duplicated_groups, mut duplicate_rows) = (0usize, 0usize);
    for size in sizes.into_iter().filter(|&size| size > 1) {
        duplicated_groups += 1;
        duplicate_rows += size - 1;
    }
    DuplicateProfile { rows, duplicate_rows, duplicated_groups }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_ratio_of_key_column() {
        let col = Column::from_strings(["a", "b", "c"]);
        let p = uniqueness_profile(&col);
        assert_eq!(p.unique_ratio, 1.0);
        assert!(p.duplicated_values.is_empty());
    }

    #[test]
    fn duplicated_values_listed() {
        let col = Column::from_strings(["a", "a", "a", "b", "b", "c"]);
        let p = uniqueness_profile(&col);
        assert_eq!(p.distinct, 3);
        assert_eq!(p.duplicated_values[0], (Value::from("a"), 3));
        assert_eq!(p.duplicated_values[1], (Value::from("b"), 2));
    }

    #[test]
    fn nulls_excluded_from_ratio() {
        let col = Column::new(vec![Value::Null, Value::from("a")]);
        let p = uniqueness_profile(&col);
        assert_eq!(p.non_null, 1);
        assert_eq!(p.unique_ratio, 1.0);
        let empty = uniqueness_profile(&Column::default());
        assert_eq!(empty.unique_ratio, 0.0);
    }

    #[test]
    fn duplicate_rows_counted() {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "x".into()],
            vec!["1".into(), "x".into()],
            vec!["1".into(), "x".into()],
            vec!["2".into(), "y".into()],
        ];
        let t = Table::from_text_rows(&["a", "b"], &rows).unwrap();
        let p = duplicate_profile(&t);
        assert_eq!(p.rows, 4);
        assert_eq!(p.duplicate_rows, 2);
        assert_eq!(p.duplicated_groups, 1);
    }
}
