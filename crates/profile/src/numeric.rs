//! Numeric column profiling: ranges and statistical outlier fences.
//!
//! §2.1.5: "We capture the minimum and maximum values statistically and
//! review the acceptable range semantically."

use crate::stats::NumericStats;
use cocoon_table::{Column, Value};

/// Numeric profile of a column (cells that don't parse as numbers are
/// ignored — mid-cleaning columns are often mixed).
#[derive(Debug, Clone, PartialEq)]
pub struct NumericProfile {
    /// Summary statistics over the cells that parsed as numbers.
    pub stats: NumericStats,
    /// Tukey 1.5·IQR fences.
    pub fence_low: f64,
    /// Upper Tukey fence (see `fence_low`).
    pub fence_high: f64,
    /// Count of parsed values outside the fences.
    pub outlier_count: usize,
    /// Number of cells that could not be read as numbers.
    pub non_numeric_count: usize,
}

/// Profiles the numeric content of `column`. Returns `None` if no cell is
/// numeric (neither a numeric value nor numeric-looking text).
pub fn numeric_profile(column: &Column) -> Option<NumericProfile> {
    numeric_from_distinct(&column.distinct_by_frequency())
}

/// [`numeric_profile`] over an already-censused column: each distinct
/// `(value, count)` pair whose value parses to a finite number becomes one
/// `(number, count)` pair of [`NumericStats::compute`], which sorts and sums
/// the pairs as the per-cell list would be sorted and summed, and the
/// outlier count adds up the counts outside the fences. Parsing is
/// deterministic per value, so every field equals the per-cell statistic
/// bit for bit, while the work follows the distinct values, not the rows.
/// Shared with the chunk-merged profile path (`crate::PartialProfile`).
pub fn numeric_from_distinct(distinct: &[(Value, usize)]) -> Option<NumericProfile> {
    let mut parsed: Vec<(f64, usize)> = Vec::new();
    let mut non_numeric = 0usize;
    for (v, count) in distinct {
        match v.as_f64().or_else(|| v.as_text().and_then(|s| s.trim().parse::<f64>().ok())) {
            Some(x) if x.is_finite() => parsed.push((x, *count)),
            _ => non_numeric += count,
        }
    }
    let stats = NumericStats::compute(&parsed)?;
    let (fence_low, fence_high) = stats.tukey_fences(1.5);
    let outlier_count = parsed
        .iter()
        .filter(|&&(x, _)| x < fence_low || x > fence_high)
        .map(|&(_, count)| count)
        .sum();
    Some(NumericProfile {
        stats,
        fence_low,
        fence_high,
        outlier_count,
        non_numeric_count: non_numeric,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_table::Value;

    #[test]
    fn profiles_numeric_text() {
        let col = Column::from_strings(["1", "2", "3", "4", "hello"]);
        let p = numeric_profile(&col).unwrap();
        assert_eq!(p.stats.count, 4);
        assert_eq!(p.non_numeric_count, 1);
    }

    #[test]
    fn mixes_native_numbers() {
        let col = Column::new(vec![Value::Int(10), Value::Float(20.0), Value::Null]);
        let p = numeric_profile(&col).unwrap();
        assert_eq!(p.stats.count, 2);
        assert_eq!(p.stats.min, 10.0);
        assert_eq!(p.stats.max, 20.0);
    }

    #[test]
    fn outliers_counted() {
        let mut vals: Vec<String> = (1..=50).map(|i| i.to_string()).collect();
        vals.push("99999".to_string());
        let col = Column::from_strings(vals);
        let p = numeric_profile(&col).unwrap();
        assert_eq!(p.outlier_count, 1);
        assert!(p.fence_high < 99999.0);
    }

    #[test]
    fn no_numeric_content() {
        let col = Column::from_strings(["a", "b"]);
        assert!(numeric_profile(&col).is_none());
        assert!(numeric_profile(&Column::default()).is_none());
    }
}
