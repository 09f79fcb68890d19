//! Differential property tests for [`ColumnCensus`]: every per-column
//! statistic read off a census equals its `&Column` original, an FD scan
//! built from censuses equals the table scan and independent entropy and
//! violating-group oracles (at any pool width and group limit, before and
//! after a re-coded column), and grouping rows by code tuples counts the
//! same duplicates as grouping cloned rows.

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
use threadpool::ThreadPool;

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

/// Distinct non-null values in first-appearance order, each represented by
/// its first spelling: the order of a census's codes.
fn first_appearances(values: &[Value]) -> Vec<&Value> {
    let mut seen: Vec<&Value> = Vec::new();
    for v in values.iter().filter(|v| !v.is_null()) {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    seen
}

/// One violating group: the lhs value and its rhs census.
type Group = (Value, Vec<(Value, usize)>);

/// Violating groups of `lhs → rhs` counted cell by cell: each lhs value
/// (first-appearance order) with its rhs values (first-appearance order in
/// the whole rhs column) and their co-occurrence counts; a group violates
/// when it holds more than one rhs value. Censuses are sorted by
/// descending count, then by value, and groups by lhs value, each by one
/// stable sort over those first-appearance sequences.
fn oracle_groups(lhs: &[Value], rhs: &[Value]) -> Vec<Group> {
    let rhs_values = first_appearances(rhs);
    let mut groups: Vec<Group> = Vec::new();
    for l in first_appearances(lhs) {
        let mut census: Vec<(Value, usize)> = rhs_values
            .iter()
            .map(|&r| {
                let rows = lhs.iter().zip(rhs).filter(|&(a, b)| a == l && b == r).count();
                (r.clone(), rows)
            })
            .filter(|&(_, rows)| rows > 0)
            .collect();
        if census.len() > 1 {
            census.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            groups.push((l.clone(), census));
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    groups
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
            let violating_groups = oracle_groups(values(lhs), values(rhs)).len();
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

/// Asserts `scan` describes `table`: every ordered pair's violating groups
/// (as the scan's memo stands, then again once scoring has memoised every
/// candidate pair) equal the oracle's at every limit, and candidates scored
/// on 1-, 2- and 8-thread pools are bit-equal to a fresh table scan's and
/// to the oracle's.
fn assert_scan_describes(scan: &mut FdScan, table: &Table) -> Result<(), String> {
    let mut fresh = FdScan::new(table);
    assert_groups_describe(scan, table)?;
    for (min_strength, max_unique_ratio) in [(0.0, 1.0), (0.5, 0.9)] {
        let oracle = bits(&oracle_candidates(table, min_strength, max_unique_ratio));
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let scored = scan.candidates(&pool, min_strength, max_unique_ratio);
            prop_assert_eq!(&bits(&scored), &oracle, "{} threads", threads);
            let fresh_scored = fresh.candidates(&pool, min_strength, max_unique_ratio);
            prop_assert_eq!(&bits(&fresh_scored), &oracle, "{} threads, fresh scan", threads);
        }
    }
    assert_groups_describe(scan, table)?;
    assert_groups_describe(&fresh, table)
}

/// Asserts each ordered pair's first `limit` violating groups are the
/// oracle's first `limit`, for limits 0, 1, 5 and all, that the group count
/// is the full list's length, and that [`fd_violating_groups`] is the
/// oracle's full list.
fn assert_groups_describe(scan: &FdScan, table: &Table) -> Result<(), String> {
    for lhs in 0..table.width() {
        for rhs in (0..table.width()).filter(|&rhs| rhs != lhs) {
            let (lhs_values, rhs_values) =
                (table.column(lhs).unwrap().values(), table.column(rhs).unwrap().values());
            let oracle = oracle_groups(lhs_values, rhs_values);
            prop_assert_eq!(debug(fd_violating_groups(lhs_values, rhs_values)), debug(&oracle));
            for limit in [0, 1, 5, usize::MAX] {
                prop_assert_eq!(
                    debug(scan.violating_groups(lhs, rhs, limit)),
                    debug(&oracle[..oracle.len().min(limit)]),
                    "{} → {}, limit {}",
                    lhs,
                    rhs,
                    limit
                );
            }
            prop_assert_eq!(scan.violating_group_count(lhs, rhs), oracle.len());
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
        assert_scan_describes(&mut scan, &table)?;

        // Replace one column, as a repair does, and hand the scan its new
        // census.
        let mut table = table;
        let height = table.height();
        table.replace_column(column, Arc::new(Column::new(rewritten[..height].to_vec()))).unwrap();
        scan.recode(column, Arc::new(ColumnCensus::of(table.column(column).unwrap())));
        assert_scan_describes(&mut scan, &table)?;
    }

    #[test]
    fn code_tuple_duplicates_equal_the_row_cloning_count(table in table()) {
        let oracle = row_cloning_duplicates(&table);
        prop_assert_eq!(duplicates_from_censuses(&censuses(&table)), oracle.clone());
        prop_assert_eq!(duplicate_profile(&table), oracle);
    }
}
