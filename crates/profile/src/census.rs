//! The value census of one column: the single dictionary pass every
//! per-column statistic, the FD scan and duplicate-row grouping read.
//!
//! A [`ColumnCensus`] holds each row's dictionary code and the column's
//! distinct `(value, count)` pairs in [`Column::distinct_by_frequency`]
//! order. The statistics take the pairs through their `*_from_distinct`
//! forms ([`crate::numeric_from_distinct`],
//! [`crate::uniqueness_from_distinct`],
//! [`crate::pattern_census_from_distinct`],
//! [`cocoon_table::infer_from_distinct`]); [`crate::FdScan`] and
//! [`crate::duplicates_from_censuses`] read the codes. So a caller that
//! keeps one census per column version hashes each version's cells once,
//! however many statistics it reads.

use crate::entropy::CodedColumn;
use cocoon_table::{Column, Value};

/// The value census of one column version.
///
/// Codes are dense in first-appearance order (NULL cells apart), exactly as
/// the chunk-merged profile path codes them. They must stay in that order:
/// the FD scan sums entropies in code order, so relabelling codes (by
/// frequency, say) could move a float bit and reorder FD candidates.
#[derive(Debug, Clone)]
pub struct ColumnCensus {
    /// One code per row, `NULL_CODE` for NULL cells.
    codes: Vec<u32>,
    /// Rows per code, indexed by code.
    counts: Vec<usize>,
    /// Distinct non-null values with their counts, in
    /// [`Column::distinct_by_frequency`] order.
    distinct: Vec<(Value, usize)>,
    /// Each code's position in `distinct`: the decode table.
    rank: Vec<u32>,
}

impl ColumnCensus {
    /// Censuses `column`: one hashing pass over its cells, then a sort of
    /// its distinct values.
    pub fn of(column: &Column) -> Self {
        ColumnCensus::from_coded(CodedColumn::encode(column.values()))
    }

    /// Orders a coding's dictionary the way [`Column::distinct_by_frequency`]
    /// orders a column's values: the same comparator (descending count,
    /// ties by ascending value) in the same stable sort over the same
    /// first-appearance sequence, so the two agree pair for pair even where
    /// the value order is not total (NaN). Dictionary values move into the
    /// pairs; none is cloned.
    pub(crate) fn from_coded(coded: CodedColumn) -> Self {
        let CodedColumn { codes, counts, mut dict } = coded;
        let mut order: Vec<u32> = (0..dict.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            counts[b].cmp(&counts[a]).then_with(|| dict[a].cmp(&dict[b]))
        });
        let mut rank = vec![0u32; order.len()];
        for (position, &code) in order.iter().enumerate() {
            rank[code as usize] = position as u32;
        }
        let distinct = order
            .iter()
            .map(|&code| {
                (std::mem::replace(&mut dict[code as usize], Value::Null), counts[code as usize])
            })
            .collect();
        ColumnCensus { codes, counts, distinct, rank }
    }

    /// Distinct non-null values with their counts, in
    /// [`Column::distinct_by_frequency`] order: the input of every
    /// `*_from_distinct` statistic.
    pub fn distinct(&self) -> &[(Value, usize)] {
        &self.distinct
    }

    /// Rows censused, NULL cells included.
    pub fn rows(&self) -> usize {
        self.codes.len()
    }

    /// NULL cells.
    pub fn null_count(&self) -> usize {
        self.codes.len() - self.distinct.iter().map(|(_, count)| count).sum::<usize>()
    }

    /// One code per row (`NULL_CODE` for NULL cells): rows hold
    /// `Value`-equal cells exactly when their codes are equal.
    pub(crate) fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Rows per code, in code order.
    pub(crate) fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Distinct non-null values.
    pub(crate) fn cardinality(&self) -> usize {
        self.counts.len()
    }

    /// The value a code stands for.
    pub(crate) fn value(&self, code: u32) -> &Value {
        &self.distinct[self.rank[code as usize] as usize].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::NULL_CODE;

    #[test]
    fn codes_keep_first_appearance_order() {
        let column = Column::new(vec![
            Value::from("b"),
            Value::Null,
            Value::from("a"),
            Value::from("a"),
            Value::Int(1),
            Value::Float(1.0),
        ]);
        let census = ColumnCensus::of(&column);
        assert_eq!(census.codes(), [0, NULL_CODE, 1, 1, 2, 2]);
        assert_eq!(census.counts(), [1, 2, 2]);
        assert_eq!(census.distinct(), column.distinct_by_frequency());
        assert_eq!(census.value(0), &Value::from("b"));
        assert_eq!(census.value(2), &Value::Int(1), "the first spelling represents its class");
        assert_eq!((census.rows(), census.null_count(), census.cardinality()), (6, 1, 3));
    }
}
