//! Shared machinery for compiling and applying column rewrites.

use crate::error::Result;
use crate::state::Compile;
use cocoon_sql::{execute, Expr, Projection, Select};
use cocoon_table::{Table, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Builds the `SELECT` that rewrites exactly one column with `expr`
/// (all other columns pass through unchanged).
pub fn column_rewrite_select(table: &Table, column: &str, expr: Expr) -> Select {
    let projections = table
        .schema()
        .fields()
        .iter()
        .map(|field| {
            if field.name() == column {
                Projection::aliased(expr.clone(), field.name())
            } else {
                Projection::Expr { expr: Expr::col(field.name()), alias: None }
            }
        })
        .collect();
    Select {
        distinct: false,
        projections,
        from: "input".into(),
        where_clause: None,
        qualify: None,
        comment: None,
    }
}

/// The rule that compiles a value map on `column` ("" = NULL) into its
/// column rewrite: string outliers' and DMV's.
pub(crate) fn value_map_rule(column: String) -> Compile {
    Box::new(move |table, mapping| {
        column_rewrite_select(table, &column, Expr::value_map(&column, &mapping_to_values(mapping)))
    })
}

/// Executes a select against `table` and counts cell-level differences
/// when the shape is unchanged, else the rows dropped.
///
/// [`execute`] hands every pass-through column on as the input's own
/// storage, and the diff skips physically shared columns, so a
/// [`column_rewrite_select`] evaluates and compares only its target column.
pub fn apply_and_count(select: &Select, table: &Table) -> Result<(Table, usize)> {
    let output = execute(select, table)?;
    let mut changed = 0usize;
    if output.height() == table.height() && output.width() == table.width() {
        for c in 0..table.width() {
            // Physically shared columns cannot differ.
            if Arc::ptr_eq(table.shared_column(c)?, output.shared_column(c)?) {
                continue;
            }
            let before = table.column(c)?.values();
            let after = output.column(c)?.values();
            changed += before.iter().zip(after).filter(|(b, a)| b != a).count();
        }
    } else {
        changed = table.height().saturating_sub(output.height());
    }
    Ok((output, changed))
}

/// Converts a textual cleaning mapping into `(Value, Value)` pairs; an
/// empty new value means NULL (the Figure 3 convention for "meaningless").
pub fn mapping_to_values(mapping: &[(String, String)]) -> Vec<(Value, Value)> {
    mapping
        .iter()
        .map(|(old, new)| {
            let new_value = if new.is_empty() { Value::Null } else { Value::Text(new.clone()) };
            (Value::Text(old.clone()), new_value)
        })
        .collect()
}

/// Restricts a mapping to entries whose old value actually occurs in the
/// census, preserving order and dropping identity entries.
pub fn restrict_mapping(
    mapping: &[(String, String)],
    census: &[(String, usize)],
) -> Vec<(String, String)> {
    let present: HashSet<&str> = census.iter().map(|(v, _)| v.as_str()).collect();
    mapping
        .iter()
        .filter(|(old, new)| old != new && present.contains(old.as_str()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_table::DataType;

    fn table() -> Table {
        let rows: Vec<Vec<String>> =
            vec![vec!["1".into(), "English".into()], vec!["2".into(), "eng".into()]];
        Table::from_text_rows(&["id", "lang"], &rows).unwrap()
    }

    #[test]
    fn rewrite_replaces_one_column() {
        let t = table();
        let map = Expr::value_map("lang", &[(Value::from("English"), Value::from("eng"))]);
        let select = column_rewrite_select(&t, "lang", map);
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(changed, 1);
        assert_eq!(out.cell(0, 1).unwrap(), &Value::from("eng"));
        assert_eq!(out.cell(0, 0).unwrap(), &Value::from("1"));
        assert_eq!(out.schema().names(), vec!["id", "lang"]);
    }

    #[test]
    fn rewrite_shares_untouched_columns() {
        let t = table();
        let map = Expr::value_map("lang", &[(Value::from("English"), Value::from("eng"))]);
        let select = column_rewrite_select(&t, "lang", map);
        let (out, _) = apply_and_count(&select, &t).unwrap();
        // The id column must be the very same allocation, not a copy.
        assert!(Arc::ptr_eq(t.shared_column(0).unwrap(), out.shared_column(0).unwrap()));
        assert!(!Arc::ptr_eq(t.shared_column(1).unwrap(), out.shared_column(1).unwrap()));
    }

    #[test]
    fn try_cast_rewrite_retypes_its_column_and_counts_changed_cells() {
        let t = table();
        let cast = Expr::try_cast(Expr::col("id"), DataType::Int);
        let select = column_rewrite_select(&t, "id", cast);
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(changed, 2); // "1" → 1, "2" → 2
        assert_eq!(out.cell(1, 0).unwrap(), &Value::Int(2));
        assert_eq!(out.schema().field(0).unwrap().data_type(), DataType::Int);
        assert_eq!(out.schema().names(), vec!["id", "lang"]);
        assert!(Arc::ptr_eq(t.shared_column(1).unwrap(), out.shared_column(1).unwrap()));
    }

    #[test]
    fn zero_row_rewrite_changes_nothing_and_still_retypes() {
        let t = Table::from_text_rows(&["id", "lang"], &[]).unwrap();
        let cast = Expr::try_cast(Expr::col("id"), DataType::Float);
        let select = column_rewrite_select(&t, "id", cast);
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(changed, 0);
        assert_eq!((out.height(), out.width()), (0, 2));
        assert_eq!(out.schema().field(0).unwrap().data_type(), DataType::Float);
        assert_eq!(out.schema().field(1).unwrap().data_type(), DataType::Text);
    }

    #[test]
    fn mapping_to_values_handles_null() {
        let pairs = mapping_to_values(&[("N/A".into(), String::new()), ("a".into(), "b".into())]);
        assert_eq!(pairs[0].1, Value::Null);
        assert_eq!(pairs[1].1, Value::from("b"));
    }

    #[test]
    fn restrict_mapping_filters() {
        let census = vec![("a".to_string(), 2), ("b".to_string(), 1)];
        let mapping = vec![
            ("a".to_string(), "x".to_string()),
            ("zz".to_string(), "y".to_string()),
            ("b".to_string(), "b".to_string()),
        ];
        assert_eq!(restrict_mapping(&mapping, &census), vec![("a".to_string(), "x".to_string())]);
    }

    #[test]
    fn row_dropping_counts_rows() {
        let t = table();
        let mut select = Select::star("input");
        select.where_clause = Some(Expr::eq(Expr::col("id"), Expr::lit("1")));
        let (out, changed) = apply_and_count(&select, &t).unwrap();
        assert_eq!(out.height(), 1);
        assert_eq!(changed, 1);
    }
}
