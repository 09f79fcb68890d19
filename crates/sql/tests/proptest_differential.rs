//! Differential property tests: the columnar executor must be
//! indistinguishable from the retained row-wise oracle on every generated
//! `SELECT` (projections, `WHERE`, `QUALIFY`, `DISTINCT`), and pass-through
//! projections must share column storage rather than deep-copying cells.

use cocoon_sql::{
    execute, execute_rowwise, BinaryOp, Expr, Projection, RowNumberFilter, Select, SortOrder,
    UnaryOp,
};
use cocoon_table::{Column, Schema, Table, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Cell values mixing NULLs, text, ints and floats (cross-type numeric
/// equality and NULL routing are the interesting value-map edge cases).
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        "[a-c]{0,2}".prop_map(Value::from),
        (-5i64..5).prop_map(Value::Int),
        (-5i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
        // -0.0 == 0.0 == Int(0) under Value::eq; exercises the Hash/Eq
        // agreement the value-map fast path's lookup table relies on.
        Just(Value::Float(-0.0)),
    ]
}

/// A two-column table `a`, `b` of 0..12 rows with mixed cell values.
fn table() -> impl Strategy<Value = Table> {
    table_of(value)
}

/// A two-column table `a`, `b` of 0..12 rows with cells drawn from `cell()`.
fn table_of<S: Strategy<Value = Value>>(cell: fn() -> S) -> impl Strategy<Value = Table> {
    proptest::collection::vec((cell(), cell()), 0..12).prop_map(|cells| {
        let (a, b): (Vec<Value>, Vec<Value>) = cells.into_iter().unzip();
        Table::new(
            Schema::all_text(&["a", "b"]).expect("schema"),
            vec![Column::new(a), Column::new(b)],
        )
        .expect("table")
    })
}

fn column_ref() -> impl Strategy<Value = Expr> {
    prop_oneof![Just(Expr::col("a")), Just(Expr::col("b"))]
}

/// Scalar expressions covering every evaluator fast path (literal, column,
/// cast, literal value map) plus shapes that force the scalar fallback
/// (logic, arithmetic, searched CASE, IN lists).
fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![value().prop_map(Expr::Literal), column_ref()];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::eq(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::or(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(BinaryOp::Add, l, r)),
            inner.clone().prop_map(Expr::is_null),
            inner.clone().prop_map(|e| Expr::Unary { op: UnaryOp::Not, expr: Box::new(e) }),
            // Simple CASE with literal arms: the value-map fast path…
            (column_ref(), proptest::collection::vec((value(), value()), 1..4), value()).prop_map(
                |(col, arms, otherwise)| Expr::Case {
                    operand: Some(Box::new(col)),
                    arms: arms
                        .into_iter()
                        .map(|(w, t)| (Expr::Literal(w), Expr::Literal(t)))
                        .collect(),
                    otherwise: Some(Box::new(Expr::Literal(otherwise))),
                }
            ),
            // …and the canonical cleaning shape, ELSE'ing the operand back.
            (column_ref(), proptest::collection::vec((value(), value()), 1..4)).prop_map(
                |(col, arms)| Expr::Case {
                    operand: Some(Box::new(col.clone())),
                    arms: arms
                        .into_iter()
                        .map(|(w, t)| (Expr::Literal(w), Expr::Literal(t)))
                        .collect(),
                    otherwise: Some(Box::new(col)),
                }
            ),
            // General searched CASE: runs arm by arm (`eval_case_lazy`).
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, o)| Expr::Case {
                operand: None,
                arms: vec![(c, t)],
                otherwise: Some(Box::new(o)),
            }),
            (inner.clone(), proptest::collection::vec(inner.clone(), 1..3))
                .prop_map(|(e, list)| Expr::InList { expr: Box::new(e), list, negated: false }),
            inner.clone().prop_map(|e| Expr::try_cast(e, cocoon_table::DataType::Int)),
            inner.clone().prop_map(|e| Expr::cast(e, cocoon_table::DataType::Text)),
            // Strict fallible cast: both executors must error on the same
            // inputs (non-numeric text → CAST error).
            inner.prop_map(|e| Expr::cast(e, cocoon_table::DataType::Int)),
        ]
    })
}

/// Key cells for the pair-map tables: a narrow domain, so generated arms
/// hit rows often. NULL, Int/Float cross-type equality and -0.0 are the
/// pair-key probe's edge cases.
fn key() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::from("a")),
        Just(Value::from("b")),
        Just(Value::Int(0)),
        Just(Value::Float(-0.0)),
        Just(Value::Int(1)),
        Just(Value::Float(1.0)),
    ]
}

fn column_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b")]
}

fn other_column(name: &str) -> &'static str {
    if name == "a" {
        "b"
    } else {
        "a"
    }
}

/// The FD stage's repair, built by `Expr::pair_map` over a column pair
/// (possibly one column twice), with duplicate keys across arms and each
/// ELSE form the pair-key probe accepts: the rhs column (as built), the
/// lhs column, a literal, or none.
fn pair_map() -> impl Strategy<Value = Expr> {
    (
        column_name(),
        column_name(),
        proptest::collection::vec((key(), key(), key()), 1..6),
        any::<bool>(),
        0usize..4,
        key(),
    )
        .prop_map(|(lhs, rhs, mut arms, repeat_key, else_form, literal)| {
            if repeat_key {
                let (group, old, _) = arms[0].clone();
                arms.push((group, old, Value::from("dup")));
            }
            let Expr::Case { arms, otherwise, .. } = Expr::pair_map(lhs, rhs, &arms) else {
                unreachable!("pair_map builds a searched CASE")
            };
            let otherwise = match else_form {
                0 => otherwise,
                1 => Some(Box::new(Expr::col(lhs))),
                2 => Some(Box::new(Expr::Literal(literal))),
                _ => None,
            };
            Expr::Case { operand: None, arms, otherwise }
        })
}

/// Pair maps one step off the shape, which must take the arm-by-arm path:
/// `lit = col`, arms over two column pairs, a non-literal THEN, or an ELSE
/// that can error (a strict CAST, only reached by rows no arm claims).
fn pair_map_near_miss() -> impl Strategy<Value = Expr> {
    (
        column_name(),
        column_name(),
        proptest::collection::vec((key(), key(), key()), 1..6),
        0usize..4,
    )
        .prop_map(|(lhs, rhs, mapping, miss)| {
            let Expr::Case { mut arms, mut otherwise, .. } = Expr::pair_map(lhs, rhs, &mapping)
            else {
                unreachable!("pair_map builds a searched CASE")
            };
            let (group, old, _) = mapping[0].clone();
            let cast = |column: &str| Expr::cast(Expr::col(column), cocoon_table::DataType::Int);
            match miss {
                0 => {
                    arms[0].0 = Expr::and(
                        Expr::eq(Expr::Literal(group), Expr::col(lhs)),
                        Expr::eq(Expr::col(rhs), Expr::Literal(old)),
                    )
                }
                1 => arms.push((
                    Expr::and(
                        Expr::eq(Expr::col(other_column(lhs)), Expr::Literal(group)),
                        Expr::eq(Expr::col(rhs), Expr::Literal(old)),
                    ),
                    Expr::lit("other pair"),
                )),
                2 => arms[0].1 = cast(rhs),
                _ => otherwise = Some(Box::new(cast(lhs))),
            }
            Expr::Case { operand: None, arms, otherwise }
        })
}

fn projection() -> impl Strategy<Value = Projection> {
    prop_oneof![
        Just(Projection::Star),
        column_ref().prop_map(|e| Projection::Expr { expr: e, alias: None }),
        (expr(), "[a-z]{1,3}").prop_map(|(e, alias)| Projection::aliased(e, alias)),
    ]
}

fn qualify() -> impl Strategy<Value = Option<RowNumberFilter>> {
    prop_oneof![
        Just(None),
        (column_ref(), column_ref(), any::<bool>(), 1usize..3).prop_map(
            |(part, order, desc, keep)| {
                Some(RowNumberFilter {
                    partition_by: vec![part],
                    order_by: vec![(order, if desc { SortOrder::Desc } else { SortOrder::Asc })],
                    keep,
                })
            }
        ),
    ]
}

fn select() -> impl Strategy<Value = Select> {
    (
        proptest::collection::vec(projection(), 1..4),
        prop_oneof![Just(None), expr().prop_map(Some)],
        qualify(),
        any::<bool>(),
    )
        .prop_map(|(projections, where_clause, qualify, distinct)| Select {
            distinct,
            projections,
            from: "t".into(),
            where_clause,
            qualify,
            comment: None,
        })
}

/// Columnar and row-wise execution of `s` agree: the same table on
/// success, and when one errors (bad cast, untyped comparison, …) so does
/// the other.
fn executors_agree(s: &Select, t: &Table) -> Result<(), String> {
    match (execute(s, t), execute_rowwise(s, t)) {
        (Ok(c), Ok(r)) => prop_assert_eq!(c, r),
        (Err(_), Err(_)) => {}
        (c, r) => prop_assert!(
            false,
            "executors disagree: columnar={:?} rowwise={:?}",
            c.map(|t| t.to_string()),
            r.map(|t| t.to_string())
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline property: the executors agree on every generated query.
    #[test]
    fn columnar_matches_rowwise_oracle(t in table(), s in select()) {
        executors_agree(&s, &t)?;
    }

    /// The pair-key probe and its near misses agree with the oracle, over
    /// every row and under a `WHERE` selection.
    #[test]
    fn pair_maps_match_rowwise_oracle(
        t in table_of(key),
        map in prop_oneof![pair_map(), pair_map_near_miss()],
        where_clause in prop_oneof![Just(None), expr().prop_map(Some)],
    ) {
        let s = Select {
            distinct: false,
            projections: vec![Projection::Star, Projection::aliased(map, "m")],
            from: "t".into(),
            where_clause,
            qualify: None,
            comment: None,
        };
        executors_agree(&s, &t)?;
    }

    /// Pass-through projections must share storage, not deep-copy: every
    /// `SELECT *` (and bare-column projection) output column is the same
    /// allocation as its input column.
    #[test]
    fn pass_through_projections_share_columns(t in table()) {
        let star = execute(&Select::star("t"), &t).expect("star executes");
        for c in 0..t.width() {
            prop_assert!(
                Arc::ptr_eq(t.shared_column(c).expect("col"), star.shared_column(c).expect("col")),
                "star projection deep-copied column {}", c
            );
        }
        let bare = Select {
            distinct: false,
            projections: vec![
                Projection::Expr { expr: Expr::col("b"), alias: None },
                Projection::aliased(Expr::col("a"), "renamed"),
            ],
            from: "t".into(),
            where_clause: None,
            qualify: None,
            comment: None,
        };
        let out = execute(&bare, &t).expect("bare executes");
        prop_assert!(Arc::ptr_eq(t.shared_column(1).expect("col"), out.shared_column(0).expect("col")));
        prop_assert!(Arc::ptr_eq(t.shared_column(0).expect("col"), out.shared_column(1).expect("col")));
    }
}
