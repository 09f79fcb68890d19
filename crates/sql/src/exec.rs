//! Executing `SELECT` statements against in-memory tables.
//!
//! [`execute`] is the production path: it drives `WHERE`/`QUALIFY` through
//! a selection vector (row indices, never an intermediate table) and
//! computes each projection column-at-a-time via [`eval_column`], sharing
//! untouched columns with the input table (`Arc` pass-through) instead of
//! cloning cells. The differential property tests hold it to a
//! cell-by-cell oracle, the original row-wise executor, which they keep.

use crate::ast::{Projection, RowNumberFilter, Select, SortOrder};
use crate::error::Result;
use crate::eval::{eval_column, infer_expr_type, Selection};
use crate::render::render_expr;
use cocoon_table::{Column, Field, Schema, Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Executes `select` against `input`, producing a new table.
///
/// Evaluation order matches SQL semantics for the supported subset:
/// `WHERE` → window `QUALIFY` filter → projection → `DISTINCT`.
pub fn execute(select: &Select, input: &Table) -> Result<Table> {
    // WHERE: keep rows whose predicate is exactly TRUE. The predicate is
    // evaluated as a column; surviving rows become the selection vector.
    let height = input.height();
    let filtered: Option<Vec<usize>> = match &select.where_clause {
        Some(pred) if height > 0 => {
            let mask = eval_column(pred, input, &Selection::All(height))?;
            Some(
                mask.values()
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| matches!(v, Value::Bool(true)))
                    .map(|(r, _)| r)
                    .collect(),
            )
        }
        Some(_) => Some(Vec::new()),
        None => None,
    };

    // QUALIFY: row_number() over (partition by … order by …) <= keep.
    let qualified: Option<Vec<usize>> = match &select.qualify {
        Some(filter) => {
            let rows: Vec<usize> = match &filtered {
                Some(rows) => rows.clone(),
                None => (0..height).collect(),
            };
            Some(apply_row_number_filter(filter, input, &rows)?)
        }
        None => filtered,
    };
    let sel = match &qualified {
        Some(rows) => Selection::Rows(rows),
        None => Selection::All(height),
    };

    // Projection, column at a time.
    let schema = projected_schema(select, input)?;
    let mut columns: Vec<Arc<Column>> = Vec::with_capacity(schema.len());
    for projection in &select.projections {
        match projection {
            Projection::Star => {
                for c in 0..input.width() {
                    columns.push(pass_through(input, c, &sel)?);
                }
            }
            Projection::Expr { expr, .. } => match expr {
                // A bare column reference passes storage through.
                crate::ast::Expr::Column(name) if input.schema().contains(name) => {
                    let c = input.schema().index_of(name)?;
                    columns.push(pass_through(input, c, &sel)?);
                }
                // Row-wise execution never evaluates projections when no
                // row survives; mirror that (including its error
                // behaviour) by skipping evaluation entirely.
                _ if sel.is_empty() => columns.push(Arc::new(Column::default())),
                _ => columns.push(Arc::new(eval_column(expr, input, &sel)?)),
            },
        }
    }
    let mut table = Table::from_shared(schema, columns)?;

    if select.distinct {
        table.distinct();
    }
    Ok(table)
}

/// Projects input column `c` under `sel`: a full selection shares the
/// column's storage (`Arc` clone, zero cell copies); a subset gathers.
fn pass_through(input: &Table, c: usize, sel: &Selection<'_>) -> Result<Arc<Column>> {
    if sel.is_all() {
        return Ok(Arc::clone(input.shared_column(c)?));
    }
    let values = input.column(c)?.values();
    Ok(Arc::new(sel.iter().map(|r| values[r].clone()).collect()))
}

/// Builds the output schema for the projection list.
fn projected_schema(select: &Select, input: &Table) -> Result<Schema> {
    let mut fields: Vec<Field> = Vec::new();
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut push_field = |name: String, ty| {
        // Disambiguate duplicate output names deterministically.
        let n = used.entry(name.clone()).or_insert(0);
        let final_name = if *n == 0 { name.clone() } else { format!("{name}_{n}") };
        *n += 1;
        fields.push(Field::new(final_name, ty));
    };
    for projection in &select.projections {
        match projection {
            Projection::Star => {
                for field in input.schema().fields() {
                    push_field(field.name().to_string(), field.data_type());
                }
            }
            Projection::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr));
                push_field(name, infer_expr_type(expr, input.schema()));
            }
        }
    }
    Schema::new(fields).map_err(Into::into)
}

/// Output name for an unaliased projection: bare columns keep their name;
/// anything else uses its SQL rendering.
fn default_name(expr: &crate::ast::Expr) -> String {
    match expr {
        crate::ast::Expr::Column(name) => name.clone(),
        other => render_expr(other),
    }
}

/// Applies the ROW_NUMBER window filter over the surviving rows.
///
/// Partition and order keys are evaluated column-at-a-time over the
/// surviving selection, then grouped and sorted by index.
fn apply_row_number_filter(
    filter: &RowNumberFilter,
    input: &Table,
    rows: &[usize],
) -> Result<Vec<usize>> {
    if rows.is_empty() {
        return Ok(Vec::new());
    }
    let sel = Selection::Rows(rows);
    let partition_cols: Vec<Column> = filter
        .partition_by
        .iter()
        .map(|expr| eval_column(expr, input, &sel))
        .collect::<Result<_>>()?;
    let order_cols: Vec<Column> = filter
        .order_by
        .iter()
        .map(|(expr, _)| eval_column(expr, input, &sel))
        .collect::<Result<_>>()?;

    // Group selection positions by partition key.
    let mut partitions: HashMap<Vec<&Value>, Vec<usize>> = HashMap::new();
    let mut partition_order: Vec<Vec<&Value>> = Vec::new();
    for i in 0..rows.len() {
        let key: Vec<&Value> = partition_cols.iter().map(|c| &c.values()[i]).collect();
        let entry = partitions.entry(key.clone()).or_default();
        if entry.is_empty() {
            partition_order.push(key);
        }
        entry.push(i);
    }

    // Order each partition and keep the first `keep` rows.
    let mut kept: Vec<usize> = Vec::new();
    for key in partition_order {
        let mut members = partitions.remove(&key).expect("partition recorded");
        members.sort_by(|&a, &b| {
            for (c, (_, dir)) in filter.order_by.iter().enumerate() {
                let ord = order_cols[c].values()[a].cmp(&order_cols[c].values()[b]);
                let ord = match dir {
                    SortOrder::Asc => ord,
                    SortOrder::Desc => ord.reverse(),
                };
                if !ord.is_eq() {
                    return ord;
                }
            }
            rows[a].cmp(&rows[b]) // stable tie-break on original position
        });
        kept.extend(members.into_iter().take(filter.keep).map(|i| rows[i]));
    }
    kept.sort_unstable(); // restore original row order
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use cocoon_table::DataType;

    fn table() -> Table {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "eng".into(), "2020-01-01".into()],
            vec!["1".into(), "English".into(), "2021-01-01".into()],
            vec!["2".into(), "fre".into(), "2020-06-01".into()],
            vec!["2".into(), "fre".into(), "2020-06-01".into()],
        ];
        Table::from_text_rows(&["id", "lang", "updated"], &rows).unwrap()
    }

    #[test]
    fn select_star_is_identity() {
        let out = execute(&Select::star("t"), &table()).unwrap();
        assert_eq!(out, table());
    }

    #[test]
    fn select_star_shares_column_storage() {
        let input = table();
        let out = execute(&Select::star("t"), &input).unwrap();
        for c in 0..input.width() {
            assert!(
                Arc::ptr_eq(input.shared_column(c).unwrap(), out.shared_column(c).unwrap()),
                "column {c} was deep-copied"
            );
        }
    }

    #[test]
    fn bare_column_projection_shares_storage() {
        let input = table();
        let s = Select {
            distinct: false,
            projections: vec![
                Projection::Expr { expr: Expr::col("lang"), alias: None },
                Projection::aliased(Expr::col("id"), "renamed"),
            ],
            from: "t".into(),
            where_clause: None,
            qualify: None,
            comment: None,
        };
        let out = execute(&s, &input).unwrap();
        assert!(Arc::ptr_eq(input.shared_column(1).unwrap(), out.shared_column(0).unwrap()));
        assert!(Arc::ptr_eq(input.shared_column(0).unwrap(), out.shared_column(1).unwrap()));
        assert_eq!(out.schema().names(), vec!["lang", "renamed"]);
    }

    #[test]
    fn where_filters_rows() {
        let mut s = Select::star("t");
        s.where_clause = Some(Expr::eq(Expr::col("id"), Expr::lit("2")));
        let out = execute(&s, &table()).unwrap();
        assert_eq!(out.height(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let mut s = Select::star("t");
        s.distinct = true;
        let out = execute(&s, &table()).unwrap();
        assert_eq!(out.height(), 3);
    }

    #[test]
    fn projection_with_value_map() {
        let map = Expr::value_map("lang", &[(Value::from("English"), Value::from("eng"))]);
        let s = Select {
            distinct: false,
            projections: vec![
                Projection::Expr { expr: Expr::col("id"), alias: None },
                Projection::aliased(map, "lang"),
            ],
            from: "t".into(),
            where_clause: None,
            qualify: None,
            comment: None,
        };
        let out = execute(&s, &table()).unwrap();
        assert_eq!(out.schema().names(), vec!["id", "lang"]);
        assert_eq!(out.cell(1, 1).unwrap(), &Value::from("eng"));
    }

    #[test]
    fn qualify_keeps_latest_per_id() {
        let s = Select {
            distinct: false,
            projections: vec![Projection::Star],
            from: "t".into(),
            where_clause: None,
            qualify: Some(RowNumberFilter {
                partition_by: vec![Expr::col("id")],
                order_by: vec![(Expr::col("updated"), SortOrder::Desc)],
                keep: 1,
            }),
            comment: None,
        };
        let out = execute(&s, &table()).unwrap();
        assert_eq!(out.height(), 2);
        // id=1 keeps the 2021 row.
        assert_eq!(out.cell(0, 1).unwrap(), &Value::from("English"));
        // id=2 keeps the first of the tied rows.
        assert_eq!(out.cell(1, 2).unwrap(), &Value::from("2020-06-01"));
    }

    #[test]
    fn projected_types_follow_casts() {
        let s = Select {
            distinct: false,
            projections: vec![Projection::aliased(
                Expr::try_cast(Expr::col("id"), DataType::Int),
                "id",
            )],
            from: "t".into(),
            where_clause: None,
            qualify: None,
            comment: None,
        };
        let out = execute(&s, &table()).unwrap();
        assert_eq!(out.schema().field(0).unwrap().data_type(), DataType::Int);
        assert_eq!(out.cell(0, 0).unwrap(), &Value::Int(1));
    }

    #[test]
    fn duplicate_output_names_disambiguated() {
        let s = Select {
            distinct: false,
            projections: vec![
                Projection::Expr { expr: Expr::col("id"), alias: None },
                Projection::Expr { expr: Expr::col("id"), alias: None },
            ],
            from: "t".into(),
            where_clause: None,
            qualify: None,
            comment: None,
        };
        let out = execute(&s, &table()).unwrap();
        assert_eq!(out.schema().names(), vec!["id", "id_1"]);
    }

    #[test]
    fn where_null_predicate_drops_row() {
        let mut s = Select::star("t");
        // NULL = 'x' is NULL → row dropped.
        s.where_clause = Some(Expr::eq(Expr::null(), Expr::lit("x")));
        let out = execute(&s, &table()).unwrap();
        assert_eq!(out.height(), 0);
    }
}
