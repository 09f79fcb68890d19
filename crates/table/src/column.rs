//! A single column of values.

use crate::error::{Result, TableError};
use crate::value::Value;
use std::collections::HashMap;

/// A columnar vector of [`Value`]s.
///
/// Columns are untyped at the storage level (any cell may be NULL or text
/// even in a "numeric" column mid-cleaning); the declared type lives in the
/// table's [`Schema`](crate::schema::Schema).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Column {
    values: Vec<Value>,
}

impl Column {
    /// Wraps a cell vector as a column.
    pub fn new(values: Vec<Value>) -> Self {
        Column { values }
    }

    /// Builds a text column from string-like items.
    pub fn from_strings<S: Into<String>, I: IntoIterator<Item = S>>(items: I) -> Self {
        Column { values: items.into_iter().map(|s| Value::Text(s.into())).collect() }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the zero-row column.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The cells, in row order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consumes the column, yielding its cells (used by the vectorised
    /// evaluator to rewrite a column without re-cloning every value).
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The cell at `row`.
    pub fn get(&self, row: usize) -> Result<&Value> {
        self.values
            .get(row)
            .ok_or(TableError::RowIndexOutOfBounds { index: row, height: self.values.len() })
    }

    /// Overwrites the cell at `row`.
    pub fn set(&mut self, row: usize, value: Value) -> Result<()> {
        let height = self.values.len();
        let slot = self
            .values
            .get_mut(row)
            .ok_or(TableError::RowIndexOutOfBounds { index: row, height })?;
        *slot = value;
        Ok(())
    }

    /// Appends a cell.
    pub fn push(&mut self, value: Value) {
        self.values.push(value);
    }

    /// Number of NULL cells.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_null()).count()
    }

    /// Iterator over non-null values.
    pub fn non_null(&self) -> impl Iterator<Item = &Value> {
        self.values.iter().filter(|v| !v.is_null())
    }

    /// Frequency census of the column (NULLs excluded), the input to the
    /// paper's statistical profiling step.
    pub fn value_counts(&self) -> HashMap<Value, usize> {
        let mut counts = HashMap::new();
        for v in self.non_null() {
            *counts.entry(v.clone()).or_insert(0) += 1;
        }
        counts
    }

    /// Distinct non-null values ordered by descending frequency, ties broken
    /// by value order. The stable sort runs over first-appearance order, so
    /// the output is deterministic even where the value order is not total
    /// (NaN compares equal to every number).
    pub fn distinct_by_frequency(&self) -> Vec<(Value, usize)> {
        let mut index: HashMap<&Value, usize> = HashMap::new();
        let mut pairs: Vec<(Value, usize)> = Vec::new();
        for v in self.non_null() {
            let next = pairs.len();
            let slot = *index.entry(v).or_insert(next);
            if slot == next {
                pairs.push((v.clone(), 0));
            }
            pairs[slot].1 += 1;
        }
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs
    }

    /// Applies `f` to every cell in place.
    pub fn map_in_place(&mut self, mut f: impl FnMut(&Value) -> Value) {
        for v in &mut self.values {
            let updated = f(v);
            *v = updated;
        }
    }
}

impl FromIterator<Value> for Column {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Column { values: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Column {
        Column::new(vec![
            Value::Text("a".into()),
            Value::Null,
            Value::Text("b".into()),
            Value::Text("a".into()),
        ])
    }

    #[test]
    fn null_count_and_non_null() {
        let col = sample();
        assert_eq!(col.null_count(), 1);
        assert_eq!(col.non_null().count(), 3);
    }

    #[test]
    fn value_counts_excludes_nulls() {
        let col = sample();
        let counts = col.value_counts();
        assert_eq!(counts.get(&Value::Text("a".into())), Some(&2));
        assert_eq!(counts.get(&Value::Text("b".into())), Some(&1));
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn distinct_sorted_by_frequency_then_value() {
        let col = Column::from_strings(["b", "a", "b", "c", "a"]);
        let distinct = col.distinct_by_frequency();
        assert_eq!(distinct[0].0, Value::Text("a".into()));
        assert_eq!(distinct[1].0, Value::Text("b".into()));
        assert_eq!(distinct[2], (Value::Text("c".into()), 1));
    }

    #[test]
    fn set_and_get_bounds() {
        let mut col = sample();
        col.set(0, Value::Int(9)).unwrap();
        assert_eq!(col.get(0).unwrap(), &Value::Int(9));
        assert!(col.set(99, Value::Null).is_err());
        assert!(col.get(99).is_err());
    }

    #[test]
    fn map_in_place_rewrites_cells() {
        let mut col = Column::from_strings(["x", "y"]);
        col.map_in_place(|v| match v.as_text() {
            Some("x") => Value::Text("z".into()),
            _ => v.clone(),
        });
        assert_eq!(col.values()[0], Value::Text("z".into()));
        assert_eq!(col.values()[1], Value::Text("y".into()));
    }
}
