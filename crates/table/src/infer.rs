//! Column type inference over text columns.
//!
//! Dirty CSV columns arrive as text. The profiler (and the paper's
//! column-type step, §2.1.4) needs a *statistical* guess of what type a
//! column "really" is: the fraction of non-null values that parse as each
//! candidate type, with a tolerance for dirty cells.

use crate::column::Column;
use crate::value::{DataType, Value};

/// Outcome of inferring one column's type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeInference {
    /// Best-fitting type.
    pub data_type: DataType,
    /// Fraction of non-null cells that parse as `data_type` (1.0 = all).
    pub confidence: f64,
    /// Number of non-null cells that do not parse as `data_type`.
    pub violations: usize,
}

/// Candidate types, ordered from most to least specific. `Text` always fits.
const CANDIDATES: [DataType; 5] =
    [DataType::Bool, DataType::Int, DataType::Float, DataType::Date, DataType::Time];

/// Infers the dominant type of a column.
///
/// A candidate wins if at least `tolerance` of the non-null values parse as
/// it; among winners the most specific type is chosen (`Bool` ≺ `Int` ≺
/// `Float` ≺ `Date` ≺ `Time` ≺ `Text`). With no winner the column stays
/// `Text` with confidence 1.0.
pub fn infer_column_type(column: &Column, tolerance: f64) -> TypeInference {
    infer_from_distinct(&column.distinct_by_frequency(), tolerance)
}

/// [`infer_column_type`] over an already-censused column: distinct
/// `(value, count)` pairs standing in for the cells themselves. Casting is
/// deterministic per value, so weighing each distinct value by its count
/// yields exactly the per-cell success ratio — which is what lets
/// chunk-merged profiles (`cocoon_profile::PartialProfile`) reproduce the
/// whole-column inference without keeping the cells around.
///
/// A candidate type is dropped as soon as `(ok + count still unread) /
/// total` falls below `tolerance`: the final `ok` cannot exceed that sum,
/// so its ratio would fall below too. Census pairs come most frequent
/// first, so a type most cells fail is dropped after a few casts. The
/// winner's values are all cast, so its confidence is exact.
pub fn infer_from_distinct(distinct: &[(Value, usize)], tolerance: f64) -> TypeInference {
    let total: usize = distinct.iter().map(|(_, count)| count).sum();
    if total == 0 {
        return TypeInference { data_type: DataType::Text, confidence: 1.0, violations: 0 };
    }
    'candidates: for candidate in CANDIDATES {
        let (mut ok, mut unread) = (0usize, total);
        for (value, count) in distinct {
            unread -= count;
            if value.cast(candidate).is_ok() {
                ok += count;
            } else if ((ok + unread) as f64 / total as f64) < tolerance {
                continue 'candidates;
            }
        }
        let ratio = ok as f64 / total as f64;
        if ratio >= tolerance {
            let violations = ((1.0 - ratio) * total as f64).round() as usize;
            return TypeInference { data_type: candidate, confidence: ratio, violations };
        }
    }
    TypeInference { data_type: DataType::Text, confidence: 1.0, violations: 0 }
}

/// Values that successfully parse as `target` in `column` (for reporting).
pub fn parse_failures(column: &Column, target: DataType) -> Vec<Value> {
    column.non_null().filter(|v| v.cast(target).is_err()).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_int_column() {
        let col = Column::from_strings(["1", "2", "3"]);
        let inf = infer_column_type(&col, 0.95);
        assert_eq!(inf.data_type, DataType::Int);
        assert_eq!(inf.confidence, 1.0);
        assert_eq!(inf.violations, 0);
    }

    #[test]
    fn mostly_int_with_typo_still_int_under_tolerance() {
        let mut vals: Vec<String> = (0..99).map(|i| i.to_string()).collect();
        vals.push("4x2".to_string());
        let col = Column::from_strings(vals);
        let inf = infer_column_type(&col, 0.95);
        assert_eq!(inf.data_type, DataType::Int);
        assert_eq!(inf.violations, 1);
    }

    #[test]
    fn floats_not_claimed_as_int() {
        let col = Column::from_strings(["1.5", "2.5", "3.0"]);
        let inf = infer_column_type(&col, 0.95);
        assert_eq!(inf.data_type, DataType::Float);
    }

    #[test]
    fn yes_no_is_bool() {
        let col = Column::from_strings(["yes", "no", "yes", "no"]);
        let inf = infer_column_type(&col, 0.95);
        assert_eq!(inf.data_type, DataType::Bool);
    }

    #[test]
    fn dates_detected() {
        let col = Column::from_strings(["2020-01-01", "1/2/2021", "2022-03-04"]);
        let inf = infer_column_type(&col, 0.95);
        assert_eq!(inf.data_type, DataType::Date);
    }

    #[test]
    fn times_detected() {
        let col = Column::from_strings(["10:30 p.m.", "7:05 a.m.", "22:00"]);
        let inf = infer_column_type(&col, 0.95);
        assert_eq!(inf.data_type, DataType::Time);
    }

    #[test]
    fn free_text_stays_text() {
        let col = Column::from_strings(["alice", "bob", "carol"]);
        let inf = infer_column_type(&col, 0.95);
        assert_eq!(inf.data_type, DataType::Text);
        assert_eq!(inf.confidence, 1.0);
    }

    #[test]
    fn empty_column_is_text() {
        let col = Column::default();
        assert_eq!(infer_column_type(&col, 0.95).data_type, DataType::Text);
    }

    #[test]
    fn parse_failures_lists_offenders() {
        let col = Column::from_strings(["1", "x", "2", "y"]);
        let fails = parse_failures(&col, DataType::Int);
        assert_eq!(fails.len(), 2);
        assert!(fails.contains(&Value::Text("x".into())));
    }

    #[test]
    fn distinct_census_matches_per_cell_inference() {
        let col = Column::from_strings(["1", "2", "2", "x", "3", "3", "3", "3"]);
        for tolerance in [0.5, 0.8, 0.95] {
            assert_eq!(
                infer_from_distinct(&col.distinct_by_frequency(), tolerance),
                infer_column_type(&col, tolerance)
            );
        }
    }

    #[test]
    fn numeric_like_ints_prefer_int_over_float() {
        // "0"/"1" columns are bool-ambiguous; with mixed digits Int wins.
        let col = Column::from_strings(["10", "20", "30"]);
        assert_eq!(infer_column_type(&col, 0.95).data_type, DataType::Int);
    }
}
