//! Differential property tests for [`ColumnCensus`]: every per-column
//! statistic read off a census equals its `&Column` original, an FD scan
//! built from censuses equals the table scan and an independent entropy
//! oracle (before and after a re-coded column), and grouping rows by code
//! tuples counts the same duplicates as grouping cloned rows.

use cocoon_profile::{
    conditional_entropy, duplicate_profile, duplicates_from_censuses, entropy, fd_violating_groups,
    numeric_from_distinct, numeric_profile, pattern_census, pattern_census_from_distinct,
    uniqueness_from_distinct, uniqueness_profile, ColumnCensus, Distribution, DuplicateProfile,
    FdCandidate, FdScan,
};
use cocoon_table::{infer_column_type, infer_from_distinct, Column, Schema, Table, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Cells mixing text (numeric-looking too), ints, floats and NULL: `1`
/// beside `1.0`, `-0.0` beside `0`, and NaN, which the value order ranks
/// equal to every number.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        "[ab]{0,2}".prop_map(Value::from),
        "[0-2]".prop_map(Value::from),
        Just(Value::from("2020-01-02")),
        (-2i64..3).prop_map(Value::Int),
        (-2i64..3).prop_map(|i| Value::Float(i as f64)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.5)),
        Just(Value::Float(f64::NAN)),
    ]
}

/// A three-column table of 0..20 generated rows plus up to 5 repeats of
/// earlier rows, so exact duplicates occur.
fn table() -> impl Strategy<Value = Table> {
    (
        proptest::collection::vec((value(), value(), value()), 0..20),
        proptest::collection::vec(0usize..20, 0..6),
    )
        .prop_map(|(mut rows, repeats)| {
            if !rows.is_empty() {
                for i in repeats {
                    rows.push(rows[i % rows.len()].clone());
                }
            }
            let mut columns = vec![Vec::new(), Vec::new(), Vec::new()];
            for (a, b, c) in rows {
                columns[0].push(a);
                columns[1].push(b);
                columns[2].push(c);
            }
            Table::new(
                Schema::all_text(&["a", "b", "c"]).expect("schema"),
                columns.into_iter().map(Column::new).collect(),
            )
            .expect("table")
        })
}

fn censuses(table: &Table) -> Vec<Arc<ColumnCensus>> {
    (0..table.width()).map(|c| Arc::new(ColumnCensus::of(table.column(c).unwrap()))).collect()
}

/// `Debug` text: equal exactly when every float is bit-equal up to NaN
/// payloads (`-0.0` prints apart from `0.0`, NaN equals NaN).
fn debug(value: impl std::fmt::Debug) -> String {
    format!("{value:?}")
}

/// Counts per distinct non-null value, in first-appearance order: the
/// order the FD scan's entropy sums run in.
fn first_appearance_counts(values: &[Value]) -> Vec<usize> {
    let mut index: HashMap<&Value, usize> = HashMap::new();
    let mut counts = Vec::new();
    for v in values.iter().filter(|v| !v.is_null()) {
        let next = counts.len();
        let slot = *index.entry(v).or_insert(next);
        if slot == next {
            counts.push(0);
        }
        counts[slot] += 1;
    }
    counts
}

/// FD candidates scored pair by pair from the cells, with the scan's
/// eligibility rules and ordering.
fn oracle_candidates(table: &Table, min_strength: f64, max_unique_ratio: f64) -> Vec<FdCandidate> {
    let height = table.height();
    let values = |c: usize| table.column(c).unwrap().values();
    let mut out = Vec::new();
    if height == 0 {
        return out;
    }
    let eligible = |cardinality: usize| {
        cardinality > 1 && cardinality as f64 / height as f64 <= max_unique_ratio
    };
    for lhs in 0..table.width() {
        for rhs in (0..table.width()).filter(|&rhs| rhs != lhs) {
            let rhs_counts = first_appearance_counts(values(rhs));
            if !eligible(first_appearance_counts(values(lhs)).len()) || !eligible(rhs_counts.len())
            {
                continue;
            }
            let h_cond = conditional_entropy(values(lhs), values(rhs));
            let h_rhs = entropy(&rhs_counts);
            let strength = if h_rhs == 0.0 { 0.0 } else { 1.0 - h_cond / h_rhs };
            if strength < min_strength {
                continue;
            }
            let violating_groups = fd_violating_groups(values(lhs), values(rhs)).len();
            out.push(FdCandidate {
                lhs,
                rhs,
                conditional_entropy: h_cond,
                strength,
                violating_groups,
            });
        }
    }
    out.sort_by(|a, b| {
        b.strength
            .partial_cmp(&a.strength)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.lhs, a.rhs).cmp(&(b.lhs, b.rhs)))
    });
    out
}

/// Candidates with their floats as bits, so equality is bit equality.
fn bits(candidates: &[FdCandidate]) -> Vec<(usize, usize, u64, u64, usize)> {
    candidates
        .iter()
        .map(|c| {
            (
                c.lhs,
                c.rhs,
                c.conditional_entropy.to_bits(),
                c.strength.to_bits(),
                c.violating_groups,
            )
        })
        .collect()
}

/// Asserts `scan` describes `table`: candidates bit-equal to a fresh table
/// scan's and to the oracle's, and every ordered pair's violating groups
/// equal to the direct extraction.
fn assert_scan_describes(scan: &FdScan, table: &Table) -> Result<(), String> {
    let fresh = FdScan::new(table);
    for (min_strength, max_unique_ratio) in [(0.0, 1.0), (0.5, 0.9)] {
        let candidates = bits(&scan.candidates(min_strength, max_unique_ratio));
        prop_assert_eq!(&candidates, &bits(&fresh.candidates(min_strength, max_unique_ratio)));
        prop_assert_eq!(
            &candidates,
            &bits(&oracle_candidates(table, min_strength, max_unique_ratio))
        );
    }
    for lhs in 0..table.width() {
        for rhs in (0..table.width()).filter(|&rhs| rhs != lhs) {
            let direct = fd_violating_groups(
                table.column(lhs).unwrap().values(),
                table.column(rhs).unwrap().values(),
            );
            prop_assert_eq!(debug(scan.violating_groups(lhs, rhs)), debug(&direct));
            prop_assert_eq!(debug(fresh.violating_groups(lhs, rhs)), debug(&direct));
        }
    }
    Ok(())
}

/// The oracle: rows cloned and grouped by value.
fn row_cloning_duplicates(table: &Table) -> DuplicateProfile {
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    for row in table.rows() {
        *groups.entry(row).or_insert(0) += 1;
    }
    let repeated = groups.values().filter(|&&rows| rows > 1);
    DuplicateProfile {
        rows: table.height(),
        duplicate_rows: repeated.clone().map(|rows| rows - 1).sum(),
        duplicated_groups: repeated.count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn census_statistics_equal_their_column_originals(table in table()) {
        for c in 0..table.width() {
            let column = table.column(c).unwrap();
            let census = ColumnCensus::of(column);
            let distinct = census.distinct();
            prop_assert_eq!(debug(distinct), debug(column.distinct_by_frequency()));
            prop_assert_eq!((census.rows(), census.null_count()), (column.len(), column.null_count()));
            for tolerance in [0.5, 0.9] {
                prop_assert_eq!(
                    debug(infer_from_distinct(distinct, tolerance)),
                    debug(infer_column_type(column, tolerance))
                );
            }
            prop_assert_eq!(debug(numeric_from_distinct(distinct)), debug(numeric_profile(column)));
            prop_assert_eq!(
                debug(uniqueness_from_distinct(distinct)),
                debug(uniqueness_profile(column))
            );
            for exact in [true, false] {
                prop_assert_eq!(
                    debug(pattern_census_from_distinct(distinct, census.null_count(), exact)),
                    debug(pattern_census(column, exact))
                );
            }
            prop_assert_eq!(
                debug(Distribution::from_distinct(distinct.to_vec(), census.null_count())),
                debug(Distribution::of(column))
            );
        }
    }

    #[test]
    fn fd_scan_from_censuses_equals_the_table_scan(
        table in table(),
        rewritten in proptest::collection::vec(value(), 25),
        column in 0usize..3,
    ) {
        let mut scan = FdScan::from_censuses(censuses(&table));
        assert_scan_describes(&scan, &table)?;

        // Replace one column, as a repair does, and hand the scan its new
        // census.
        let mut table = table;
        let height = table.height();
        table.replace_column(column, Arc::new(Column::new(rewritten[..height].to_vec()))).unwrap();
        scan.recode(column, Arc::new(ColumnCensus::of(table.column(column).unwrap())));
        assert_scan_describes(&scan, &table)?;
    }

    #[test]
    fn code_tuple_duplicates_equal_the_row_cloning_count(table in table()) {
        let oracle = row_cloning_duplicates(&table);
        prop_assert_eq!(duplicates_from_censuses(&censuses(&table)), oracle.clone());
        prop_assert_eq!(duplicate_profile(&table), oracle);
    }
}
