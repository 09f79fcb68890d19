//! Differential property tests for [`ColumnCensus`] and the statistics
//! read off it:
//! - every per-column statistic read off a census equals its `&Column`
//!   original;
//! - type inference equals a full count, and numeric statistics equal the
//!   computation over one sorted `f64` per cell, bit for bit;
//! - an FD scan built from censuses equals the table scan and independent
//!   entropy and violating-group oracles (at any pool width, strength
//!   threshold and group limit, before and after a re-coded column, with
//!   NULLs on either side);
//! - grouping rows by code tuples counts the same duplicates as grouping
//!   cloned rows.

use cocoon_profile::{
    conditional_entropy, duplicate_profile, duplicates_from_censuses, entropy, fd_violating_groups,
    numeric_from_distinct, numeric_profile, pattern_census, pattern_census_from_distinct,
    uniqueness_from_distinct, uniqueness_profile, ColumnCensus, Distribution, DuplicateProfile,
    FdCandidate, FdScan, NumericProfile, NumericStats,
};
use cocoon_table::{
    infer_column_type, infer_from_distinct, Column, DataType, Schema, Table, TypeInference, Value,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
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

/// Distinct non-null values, each mapped to its first-appearance position:
/// the census code it gets.
fn first_appearance_index(values: &[Value]) -> HashMap<&Value, usize> {
    let mut index = HashMap::new();
    for v in values.iter().filter(|v| !v.is_null()) {
        let next = index.len();
        index.entry(v).or_insert(next);
    }
    index
}

/// Scores `lhs → rhs` from the cells alone, with nothing skipped, bounded
/// or stopped early. Returns H(rhs | lhs) over the rows where both sides
/// are non-null, summed group by group in lhs first-appearance order and,
/// within each group, in rhs first-appearance order (the orders of census
/// codes); then the strength against H(rhs) over the rhs column's own
/// non-null rows; then how many lhs groups hold more than one rhs value.
fn oracle_score(lhs: &[Value], rhs: &[Value]) -> (f64, f64, usize) {
    let term = |count: usize, total: usize| {
        let p = count as f64 / total as f64;
        -p * p.log2()
    };
    let (lhs_index, rhs_index) = (first_appearance_index(lhs), first_appearance_index(rhs));
    let mut groups: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); lhs_index.len()];
    let mut total = 0;
    for (l, r) in lhs.iter().zip(rhs).filter(|(l, r)| !l.is_null() && !r.is_null()) {
        *groups[lhs_index[l]].entry(rhs_index[r]).or_insert(0) += 1;
        total += 1;
    }
    let mut h = 0.0;
    for group in groups.iter().filter(|group| !group.is_empty()) {
        let n: usize = group.values().sum();
        h += (n as f64 / total as f64) * group.values().map(|&c| term(c, n)).sum::<f64>();
    }
    let rhs_counts = first_appearance_counts(rhs);
    let rhs_total = rhs_counts.iter().sum();
    let h_rhs: f64 = rhs_counts.iter().map(|&c| term(c, rhs_total)).sum();
    let strength = if h_rhs == 0.0 { 0.0 } else { 1.0 - h / h_rhs };
    (h, strength, groups.iter().filter(|group| group.len() > 1).count())
}

/// FD candidates scored pair by pair by [`oracle_score`], with the scan's
/// eligibility rules and ordering.
fn oracle_candidates(table: &Table, min_strength: f64, max_unique_ratio: f64) -> Vec<FdCandidate> {
    let height = table.height();
    let values = |c: usize| table.column(c).unwrap().values();
    let mut out = Vec::new();
    if height == 0 {
        return out;
    }
    let eligible = |c: usize| {
        let cardinality = first_appearance_counts(values(c)).len();
        cardinality > 1 && cardinality as f64 / height as f64 <= max_unique_ratio
    };
    for lhs in (0..table.width()).filter(|&lhs| eligible(lhs)) {
        for rhs in (0..table.width()).filter(|&rhs| rhs != lhs && eligible(rhs)) {
            let (conditional_entropy, strength, violating_groups) =
                oracle_score(values(lhs), values(rhs));
            if strength < min_strength {
                continue;
            }
            out.push(FdCandidate { lhs, rhs, conditional_entropy, strength, violating_groups });
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
        *table.column_mut(column).unwrap() = Column::new(rewritten[..height].to_vec());
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

/// FNV-1a of a value's rendering: a fixed function of the value.
fn fingerprint(value: &Value) -> u64 {
    value
        .render()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, b| (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// A table of 4 to 6 columns and up to 80 rows. Each column is one of:
/// - low cardinality (three text values);
/// - high cardinality (up to 60 ints);
/// - a function of the column before it into five or two values, with one
///   row in ten broken, so near-exact FDs occur. Where the source is NULL
///   it holds `"?"`, so the pair's shared rows are fewer than its own.
///
/// Each column draws NULLs at its own rate (none, 1 in 8 or 1 in 4), so
/// pairs have NULLs on neither side, one side or both.
fn wide_table() -> impl Strategy<Value = Table> {
    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    (4usize..=6, 0usize..=80)
        .prop_flat_map(|(width, rows)| {
            (
                proptest::collection::vec((0u8..4, 0u32..3), width),
                proptest::collection::vec(proptest::collection::vec(0u32..1_000_000, rows), width),
            )
        })
        .prop_map(|(kinds, draws)| {
            let mut columns: Vec<Vec<Value>> = Vec::new();
            for (&(kind, null_level), draws) in kinds.iter().zip(&draws) {
                let source = columns.last();
                let column: Vec<Value> = draws
                    .iter()
                    .enumerate()
                    .map(|(row, &draw)| {
                        if null_level > 0 && draw % (16 >> null_level) == 0 {
                            return Value::Null;
                        }
                        let draw = draw / 16;
                        let buckets = match (kind, source) {
                            (1, _) => return Value::Int(i64::from(draw % 60)),
                            (2, Some(_)) => 5,
                            (3, Some(_)) => 2,
                            _ => return Value::from(["x", "y", "z"][draw as usize % 3]),
                        };
                        match source.map(|source| &source[row]) {
                            Some(Value::Null) => Value::from("?"),
                            _ if draw % 10 == 0 => Value::from(format!("broken {}", draw % 3)),
                            Some(from) => Value::from(format!("f{}", fingerprint(from) % buckets)),
                            None => unreachable!("derived columns have a source"),
                        }
                    })
                    .collect();
                columns.push(column);
            }
            Table::new(
                Schema::all_text(&NAMES[..columns.len()]).expect("schema"),
                columns.into_iter().map(Column::new).collect(),
            )
            .expect("table")
        })
}

/// Numeric cells: one number spelled as an int, a float and padded text,
/// NaN, an infinity, a finite extreme, text that is no number, many
/// distinct floats, and zeros of both signs (`-0.0`, `"-0"`, `0`, `0.0`)
/// often enough that the order of equal values shows in the minimum and
/// the quantiles.
fn numeric_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Float(-0.0)),
        Just(Value::from("-0")),
        Just(Value::Int(0)),
        Just(Value::Float(0.0)),
        (-3i64..4).prop_map(Value::Int),
        (-3i64..4).prop_map(|i| Value::Float(i as f64)),
        (-6i64..7).prop_map(|i| Value::from(format!(" {} ", i as f64 / 2.0))),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::from("1e308")),
        Just(Value::from("n/a")),
        (0i64..1000).prop_map(|i| Value::Float(i as f64 * 0.37)),
    ]
}

/// The numeric profile the way it was first computed: one `f64` per cell,
/// sorted by a stable sort, summed and indexed as a list.
fn row_expanded_numeric(distinct: &[(Value, usize)]) -> Option<NumericProfile> {
    let mut parsed = Vec::new();
    let mut non_numeric_count = 0;
    for (v, count) in distinct {
        match v.as_f64().or_else(|| v.as_text().and_then(|s| s.trim().parse::<f64>().ok())) {
            Some(x) if x.is_finite() => parsed.extend(std::iter::repeat_n(x, *count)),
            _ => non_numeric_count += count,
        }
    }
    let mut sorted = parsed.clone();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let count = sorted.len();
    let mean = sorted.iter().sum::<f64>() / count as f64;
    let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
    let quantile = |q: f64| {
        if count == 1 {
            return sorted[0];
        }
        let pos = q * (count - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    };
    let stats = NumericStats {
        count,
        min: sorted[0],
        max: sorted[count - 1],
        mean,
        std_dev: var.sqrt(),
        median: quantile(0.5),
        q1: quantile(0.25),
        q3: quantile(0.75),
    };
    let (fence_low, fence_high) = stats.tukey_fences(1.5);
    let outlier_count = parsed.iter().filter(|&&x| x < fence_low || x > fence_high).count();
    Some(NumericProfile { stats, fence_low, fence_high, outlier_count, non_numeric_count })
}

/// Cells type inference reads: booleans, ints (some also booleans),
/// floats, dates, times and free text.
fn typed_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::from("yes")),
        Just(Value::from("no")),
        (0i64..3).prop_map(|i| Value::from(i.to_string())),
        (-50i64..50).prop_map(Value::Int),
        Just(Value::from("3.5")),
        Just(Value::Float(2.25)),
        Just(Value::from("2020-01-02")),
        Just(Value::from("1/2/2021")),
        Just(Value::from("10:30 p.m.")),
        Just(Value::from("22:00")),
        "[a-z]{1,3}".prop_map(Value::from),
    ]
}

/// Type inference the way it was first computed: each candidate type's
/// matching count taken over every pair, with no early exit.
fn full_count_inference(distinct: &[(Value, usize)], tolerance: f64) -> TypeInference {
    let total: usize = distinct.iter().map(|(_, count)| count).sum();
    if total == 0 {
        return TypeInference { data_type: DataType::Text, confidence: 1.0, violations: 0 };
    }
    for candidate in
        [DataType::Bool, DataType::Int, DataType::Float, DataType::Date, DataType::Time]
    {
        let ok: usize = distinct
            .iter()
            .filter(|(value, _)| value.cast(candidate).is_ok())
            .map(|(_, count)| count)
            .sum();
        let ratio = ok as f64 / total as f64;
        if ratio >= tolerance {
            let violations = ((1.0 - ratio) * total as f64).round() as usize;
            return TypeInference { data_type: candidate, confidence: ratio, violations };
        }
    }
    TypeInference { data_type: DataType::Text, confidence: 1.0, violations: 0 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fd_scan_scores_wide_tables_like_the_oracle(table in wide_table()) {
        let censuses = censuses(&table);
        let values = |c: usize| table.column(c).unwrap().values();
        for min_strength in [0.0, 0.6, 0.9] {
            let oracle = bits(&oracle_candidates(&table, min_strength, 0.95));
            for threads in [1, 2] {
                let mut scan = FdScan::from_censuses(censuses.clone());
                let scored = scan.candidates(&ThreadPool::new(threads), min_strength, 0.95);
                prop_assert_eq!(
                    &bits(&scored),
                    &oracle,
                    "min strength {}, {} threads",
                    min_strength,
                    threads
                );
                for c in &scored {
                    prop_assert_eq!(
                        debug(scan.violating_groups(c.lhs, c.rhs, usize::MAX)),
                        debug(fd_violating_groups(values(c.lhs), values(c.rhs))),
                        "{} → {}",
                        c.lhs,
                        c.rhs
                    );
                }
            }
        }
        for lhs in 0..table.width() {
            for rhs in (0..table.width()).filter(|&rhs| rhs != lhs) {
                prop_assert_eq!(
                    conditional_entropy(values(lhs), values(rhs)).to_bits(),
                    oracle_score(values(lhs), values(rhs)).0.to_bits()
                );
            }
        }
    }

    #[test]
    fn numeric_stats_equal_the_row_expanded_computation(
        distinct in proptest::collection::vec((numeric_value(), 0usize..7), 0..60),
    ) {
        prop_assert_eq!(debug(numeric_from_distinct(&distinct)), debug(row_expanded_numeric(&distinct)));
    }

    #[test]
    fn type_inference_equals_a_full_count(
        distinct in proptest::collection::vec((typed_value(), 0usize..9), 0..10),
    ) {
        for tolerance in [0.0, 0.5, 0.9, 1.0] {
            prop_assert_eq!(
                debug(infer_from_distinct(&distinct, tolerance)),
                debug(full_count_inference(&distinct, tolerance)),
                "tolerance {}",
                tolerance
            );
        }
    }
}

/// The entropy bound holds only on shared rows. Here the lhs determines
/// the rhs on the 8 rows both hold, but is NULL on the other 32, where the
/// rhs holds 32 distinct values: over each column's own rows, H(lhs) (1
/// bit) is below 0.6·H(rhs) (about 4.9 bits), yet the strength is 1.
#[test]
fn fd_bound_keeps_an_exact_fd_whose_lhs_has_nulls() {
    let lhs: Vec<Value> = (0..40)
        .map(|row| match row {
            0..=3 => Value::from("a"),
            4..=7 => Value::from("b"),
            _ => Value::Null,
        })
        .collect();
    let rhs: Vec<Value> = (0..40)
        .map(|row| match row {
            0..=3 => Value::from("x"),
            4..=7 => Value::from("y"),
            row => Value::from(format!("v{row}")),
        })
        .collect();
    let (h_lhs, h_rhs) =
        (entropy(&first_appearance_counts(&lhs)), entropy(&first_appearance_counts(&rhs)));
    assert!(h_lhs < 0.6 * h_rhs, "H(lhs) {h_lhs} against H(rhs) {h_rhs}");
    let table = Table::new(
        Schema::all_text(&["lhs", "rhs"]).expect("schema"),
        vec![Column::new(lhs), Column::new(rhs)],
    )
    .expect("table");
    let scored = FdScan::new(&table).candidates(&ThreadPool::new(1), 0.6, 0.95);
    assert_eq!(bits(&scored), bits(&oracle_candidates(&table, 0.6, 0.95)));
    assert!(scored.iter().any(|c| (c.lhs, c.rhs, c.strength) == (0, 1, 1.0)), "{scored:?}");
}
