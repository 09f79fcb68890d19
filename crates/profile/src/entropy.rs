//! Entropy measurements and functional-dependency candidate scoring.
//!
//! Following §2.1.6 (and Beskales et al., the paper's \[2\]), Cocoon only
//! considers FDs with a single attribute on each side, ranks candidate pairs
//! by an entropy measurement, and hands the statistically strong ones to the
//! LLM for a semantic meaningfulness review.

use cocoon_table::{Table, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shannon entropy (bits) of a discrete distribution given by counts.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Code reserved for NULL cells in a [`CodedColumn`].
pub(crate) const NULL_CODE: u32 = u32::MAX;

/// A dictionary-coded column: one `u32` code per row (`NULL_CODE` for NULL,
/// otherwise codes are dense in first-appearance order), per-code row
/// counts, and the dictionary itself (one representative [`Value`] per
/// code, in code order). Encoding each column **once** turns every pairwise
/// FD scan from nested `Value`-keyed hash maps (string hashing per row per
/// pair) into integer passes — the difference between an O(width²·rows)
/// string-hash workload and an O(width·rows) one.
///
/// A `CodedColumn` is also a *complete sufficient statistic* for every
/// per-column profile: value counts are `dict × counts`, the null count is
/// `codes.len() − Σcounts`, and [`absorb`](Self::absorb) merges the coded
/// state of consecutive row chunks into exactly the coding a whole-column
/// pass would produce — the foundation of [`crate::PartialProfile`].
#[derive(Debug, Clone)]
pub(crate) struct CodedColumn {
    /// One code per row, `NULL_CODE` for NULL cells.
    pub(crate) codes: Vec<u32>,
    /// Rows per code, indexed by code.
    pub(crate) counts: Vec<usize>,
    /// The value each code stands for, indexed by code. Codes are dense in
    /// first-appearance order, so `dict` doubles as the decode table.
    pub(crate) dict: Vec<Value>,
}

impl CodedColumn {
    pub(crate) fn encode(values: &[Value]) -> CodedColumn {
        let mut index: HashMap<&Value, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        let mut counts: Vec<usize> = Vec::new();
        let mut dict: Vec<Value> = Vec::new();
        for v in values {
            if v.is_null() {
                codes.push(NULL_CODE);
                continue;
            }
            let next = dict.len() as u32;
            let code = *index.entry(v).or_insert(next);
            if code == next {
                counts.push(0);
                dict.push(v.clone());
            }
            counts[code as usize] += 1;
            codes.push(code);
        }
        CodedColumn { codes, counts, dict }
    }

    /// Merges the coding of the *next* row chunk into this one.
    ///
    /// Folding chunk codings in row order through `absorb` yields exactly
    /// `CodedColumn::encode` of the concatenated rows: values new to `self`
    /// are appended in `other`'s first-appearance order — which is their
    /// first-appearance order in the concatenation — so codes, counts and
    /// dictionary all come out identical to the whole-column pass. This is
    /// the associativity proof obligation of the mergeable-profile design,
    /// pinned by the differential proptests in `partial.rs`.
    pub(crate) fn absorb(&mut self, other: CodedColumn) {
        let mut index: HashMap<Value, u32> = self.dict.iter().cloned().zip(0u32..).collect();
        let mut remap: Vec<u32> = Vec::with_capacity(other.dict.len());
        for (value, count) in other.dict.into_iter().zip(other.counts) {
            let code = match index.get(&value) {
                Some(&code) => code,
                None => {
                    let code = self.dict.len() as u32;
                    index.insert(value.clone(), code);
                    self.dict.push(value);
                    self.counts.push(0);
                    code
                }
            };
            self.counts[code as usize] += count;
            remap.push(code);
        }
        self.codes.extend(other.codes.iter().map(|&c| {
            if c == NULL_CODE {
                NULL_CODE
            } else {
                remap[c as usize]
            }
        }));
    }

    /// Distinct non-null values.
    pub(crate) fn cardinality(&self) -> usize {
        self.counts.len()
    }

    /// Rows covered by this coding (NULL cells included).
    #[cfg(test)]
    fn rows(&self) -> usize {
        self.codes.len()
    }

    /// NULL cells in this coding.
    pub(crate) fn null_count(&self) -> usize {
        self.codes.len() - self.counts.iter().sum::<usize>()
    }
}

/// Sorted `(lhs_code << 32 | rhs_code)` keys with pair counts, plus the
/// number of rows where both sides are non-null. Sorting (instead of a
/// hash map) keeps the downstream float summation order deterministic.
fn pair_counts(lhs: &CodedColumn, rhs: &CodedColumn) -> (Vec<(u64, usize)>, usize) {
    let mut keys: Vec<u64> = lhs
        .codes
        .iter()
        .zip(&rhs.codes)
        .filter(|(&l, &r)| l != NULL_CODE && r != NULL_CODE)
        .map(|(&l, &r)| (u64::from(l) << 32) | u64::from(r))
        .collect();
    let total = keys.len();
    keys.sort_unstable();
    let mut pairs: Vec<(u64, usize)> = Vec::new();
    for key in keys {
        match pairs.last_mut() {
            Some((last, count)) if *last == key => *count += 1,
            _ => pairs.push((key, 1)),
        }
    }
    (pairs, total)
}

/// Row indices grouped by lhs code: `rows[starts[c]..starts[c + 1]]` are
/// the rows holding code `c`, built by one counting-sort pass. Computed
/// once per eligible lhs column and reused across every rhs — the
/// lhs-grouped scan that replaces the per-pair key sort.
struct LhsGroups {
    rows: Vec<u32>,
    starts: Vec<usize>,
}

fn group_rows_by_code(coded: &CodedColumn) -> LhsGroups {
    let cardinality = coded.cardinality();
    let mut starts = vec![0usize; cardinality + 1];
    for &c in &coded.codes {
        if c != NULL_CODE {
            starts[c as usize + 1] += 1;
        }
    }
    for i in 1..=cardinality {
        starts[i] += starts[i - 1];
    }
    let mut cursor = starts.clone();
    let mut rows = vec![0u32; starts[cardinality]];
    for (row, &c) in coded.codes.iter().enumerate() {
        if c != NULL_CODE {
            rows[cursor[c as usize]] = row as u32;
            cursor[c as usize] += 1;
        }
    }
    LhsGroups { rows, starts }
}

/// [`pair_counts`] served from a prebuilt lhs grouping: for each lhs group
/// (codes ascending) the rhs codes are tallied into a scratch table and
/// emitted in sorted order, so the output is *identical* to the sort-based
/// scan — same keys, same order, same counts — without sorting a
/// row-length key vector per pair. `scratch` must be all-zero on entry and
/// is restored to all-zero before returning.
fn pair_counts_grouped(
    groups: &LhsGroups,
    rhs: &CodedColumn,
    scratch: &mut Vec<usize>,
    touched: &mut Vec<u32>,
) -> (Vec<(u64, usize)>, usize) {
    if scratch.len() < rhs.cardinality() {
        scratch.resize(rhs.cardinality(), 0);
    }
    let mut pairs: Vec<(u64, usize)> = Vec::new();
    let mut total = 0usize;
    for lhs_code in 0..groups.starts.len() - 1 {
        touched.clear();
        for &row in &groups.rows[groups.starts[lhs_code]..groups.starts[lhs_code + 1]] {
            let r = rhs.codes[row as usize];
            if r == NULL_CODE {
                continue;
            }
            if scratch[r as usize] == 0 {
                touched.push(r);
            }
            scratch[r as usize] += 1;
            total += 1;
        }
        touched.sort_unstable();
        for &r in touched.iter() {
            pairs.push(((u64::from(lhs_code as u32) << 32) | u64::from(r), scratch[r as usize]));
            scratch[r as usize] = 0;
        }
    }
    (pairs, total)
}

/// H(rhs | lhs) from sorted pair counts: groups are runs sharing a lhs code.
fn conditional_entropy_from_pairs(pairs: &[(u64, usize)], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    let mut counts: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let group = pairs[i].0 >> 32;
        counts.clear();
        while i < pairs.len() && pairs[i].0 >> 32 == group {
            counts.push(pairs[i].1);
            i += 1;
        }
        let group_total: usize = counts.iter().sum();
        h += (group_total as f64 / total as f64) * entropy(&counts);
    }
    h
}

/// Number of lhs groups mapping to more than one distinct rhs value.
fn violating_groups_from_pairs(pairs: &[(u64, usize)]) -> usize {
    let mut violating = 0;
    let mut i = 0;
    while i < pairs.len() {
        let group = pairs[i].0 >> 32;
        let start = i;
        while i < pairs.len() && pairs[i].0 >> 32 == group {
            i += 1;
        }
        if i - start > 1 {
            violating += 1;
        }
    }
    violating
}

/// Conditional entropy H(rhs | lhs) over the rows of two columns,
/// considering only rows where both sides are non-null.
pub fn conditional_entropy(lhs: &[Value], rhs: &[Value]) -> f64 {
    debug_assert_eq!(lhs.len(), rhs.len());
    let (pairs, total) = pair_counts(&CodedColumn::encode(lhs), &CodedColumn::encode(rhs));
    conditional_entropy_from_pairs(&pairs, total)
}

/// A scored single-attribute functional-dependency candidate
/// `lhs_column → rhs_column`.
#[derive(Debug, Clone, PartialEq)]
pub struct FdCandidate {
    /// Determinant column index.
    pub lhs: usize,
    /// Dependent column index.
    pub rhs: usize,
    /// H(rhs | lhs) in bits; 0 means the FD holds exactly.
    pub conditional_entropy: f64,
    /// 1 − H(rhs|lhs)/H(rhs) in \[0,1\]; 1 means the FD holds exactly,
    /// 0 means lhs tells us nothing about rhs.
    pub strength: f64,
    /// Number of lhs groups containing more than one distinct rhs value.
    pub violating_groups: usize,
}

/// Sorted pair counts of one `(lhs, rhs)` column pair, shared between the
/// scoring pass that produced them and later group extraction.
type PairMemo = Mutex<HashMap<(usize, usize), Arc<Vec<(u64, usize)>>>>;

/// A reusable FD scan over one table: every column dictionary-coded once,
/// serving both candidate scoring and per-candidate violating-group
/// extraction without re-hashing any value. Shareable across detection
/// workers (`&self` methods only; the pair memo locks internally).
///
/// The scan owns its codings, so it can be built either from a table
/// ([`FdScan::new`]) or from codings merged out of row-chunk partials
/// (`from_columns`, the [`crate::PartialProfile`] path) — the two produce
/// identical candidates because chunk merging reproduces the whole-column
/// coding exactly.
pub struct FdScan {
    /// Per column: the coding (None for columns that cannot be read).
    columns: Vec<Option<CodedColumn>>,
    height: usize,
    /// Sorted pair scans kept from [`candidates`](Self::candidates) for the
    /// pairs that became candidates — exactly the ones
    /// [`violating_groups`](Self::violating_groups) is later asked about,
    /// so the group extraction skips the re-scan (~20 ms across Movies' 43
    /// candidates).
    pair_memo: PairMemo,
}

impl FdScan {
    /// Prepares a scan over `table`, encoding each column once.
    pub fn new(table: &Table) -> Self {
        let columns = (0..table.width())
            .map(|c| table.column(c).ok().map(|col| CodedColumn::encode(col.values())))
            .collect();
        FdScan::from_columns(columns, table.height())
    }

    /// Wraps prebuilt codings (the merged-partial path).
    pub(crate) fn from_columns(columns: Vec<Option<CodedColumn>>, height: usize) -> Self {
        FdScan { columns, height, pair_memo: Mutex::new(HashMap::new()) }
    }

    /// Scores every ordered column pair as an FD candidate and returns
    /// those with `strength ≥ min_strength`, strongest first.
    ///
    /// Pairs where either side is almost-unique (key-like, unique ratio
    /// above `max_unique_ratio`) are skipped: `id → anything` is trivially
    /// strong but semantically vacuous, and the paper's LLM review would
    /// reject it anyway.
    ///
    /// Each eligible lhs column's rows are grouped by code **once**
    /// (counting sort) and every rhs is tallied in a single pass over those
    /// groups — no per-pair sort of a row-length key vector. The emitted
    /// pair counts are identical to the sort-based scan, so downstream
    /// entropy summation order (and thus every float) is unchanged.
    pub fn candidates(&self, min_strength: f64, max_unique_ratio: f64) -> Vec<FdCandidate> {
        let height = self.height;
        if height == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let column_entropy: Vec<f64> = self
            .columns
            .iter()
            .map(|c| c.as_ref().map(|coded| entropy(&coded.counts)).unwrap_or(0.0))
            .collect();
        let mut scratch: Vec<usize> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        for lhs in 0..self.columns.len() {
            let Some(lhs_coded) = self.columns[lhs].as_ref() else { continue };
            let lhs_unique_ratio = lhs_coded.cardinality() as f64 / height as f64;
            if lhs_unique_ratio > max_unique_ratio || lhs_coded.cardinality() <= 1 {
                continue;
            }
            let groups = group_rows_by_code(lhs_coded);
            for (rhs, rhs_column) in self.columns.iter().enumerate() {
                if lhs == rhs {
                    continue;
                }
                let Some(rhs_coded) = rhs_column.as_ref() else { continue };
                let rhs_distinct = rhs_coded.cardinality();
                if rhs_distinct <= 1 {
                    continue;
                }
                // Key-like rhs columns cannot be FD-determined: every group
                // would be all-singletons and majority repair meaningless.
                if rhs_distinct as f64 / height as f64 > max_unique_ratio {
                    continue;
                }
                let (pairs, total) =
                    pair_counts_grouped(&groups, rhs_coded, &mut scratch, &mut touched);
                let h_cond = conditional_entropy_from_pairs(&pairs, total);
                let h_rhs = column_entropy[rhs];
                let strength = if h_rhs == 0.0 { 0.0 } else { 1.0 - h_cond / h_rhs };
                if strength < min_strength {
                    continue;
                }
                let violating_groups = violating_groups_from_pairs(&pairs);
                self.pair_memo.lock().expect("pair memo lock").insert((lhs, rhs), Arc::new(pairs));
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

    /// Violating groups of `lhs → rhs` (see [`fd_violating_groups`]),
    /// served from the prebuilt encodings — and from the memoised pair
    /// scan when [`candidates`](Self::candidates) already scored this pair.
    /// Empty when either column index is unreadable.
    pub fn violating_groups(&self, lhs: usize, rhs: usize) -> Vec<(Value, Vec<(Value, usize)>)> {
        let (Some(Some(lhs_coded)), Some(Some(rhs_coded))) =
            (self.columns.get(lhs), self.columns.get(rhs))
        else {
            return Vec::new();
        };
        let memoised = self.pair_memo.lock().expect("pair memo lock").get(&(lhs, rhs)).cloned();
        let pairs = match memoised {
            Some(pairs) => pairs,
            None => Arc::new(pair_counts(lhs_coded, rhs_coded).0),
        };
        groups_from_pairs(lhs_coded, rhs_coded, &pairs)
    }

    /// Re-codes `column` from `table` after a repair rewrote it, and drops
    /// the memoised pair scans that read it. Every other column keeps its
    /// coding, so the scan keeps answering for the live table as long as
    /// each rewritten column is re-coded and the rows stay the same.
    pub fn recode(&mut self, table: &Table, column: usize) {
        assert_eq!(table.height(), self.height, "recode needs the rows the scan was built from");
        if let Some(coded) = self.columns.get_mut(column) {
            *coded = table.column(column).ok().map(|col| CodedColumn::encode(col.values()));
        }
        self.pair_memo
            .get_mut()
            .expect("pair memo lock")
            .retain(|&(lhs, rhs), _| lhs != column && rhs != column);
    }

    /// Number of memoised pair scans (test observability).
    #[cfg(test)]
    fn memoised_pairs(&self) -> usize {
        self.pair_memo.lock().expect("pair memo lock").len()
    }
}

/// Scores every ordered column pair of `table` as an FD candidate; see
/// [`FdScan::candidates`]. Prefer [`FdScan`] when groups are needed too.
pub fn fd_candidates(table: &Table, min_strength: f64, max_unique_ratio: f64) -> Vec<FdCandidate> {
    FdScan::new(table).candidates(min_strength, max_unique_ratio)
}

/// Groups of rows violating `lhs → rhs`: for each lhs value mapping to more
/// than one distinct rhs value, returns `(lhs value, rhs value census)` with
/// the census ordered by descending count.
pub fn fd_violating_groups(lhs: &[Value], rhs: &[Value]) -> Vec<(Value, Vec<(Value, usize)>)> {
    let lhs_coded = CodedColumn::encode(lhs);
    let rhs_coded = CodedColumn::encode(rhs);
    let (pairs, _) = pair_counts(&lhs_coded, &rhs_coded);
    groups_from_pairs(&lhs_coded, &rhs_coded, &pairs)
}

/// Shared group extraction: read the violating groups off the sorted pair
/// keys; values are decoded straight from the dictionaries (and cloned)
/// only for the violating minority.
fn groups_from_pairs(
    lhs_coded: &CodedColumn,
    rhs_coded: &CodedColumn,
    pairs: &[(u64, usize)],
) -> Vec<(Value, Vec<(Value, usize)>)> {
    let mut out: Vec<(Value, Vec<(Value, usize)>)> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let group = pairs[i].0 >> 32;
        let start = i;
        while i < pairs.len() && pairs[i].0 >> 32 == group {
            i += 1;
        }
        if i - start <= 1 {
            continue;
        }
        let mut census: Vec<(Value, usize)> = pairs[start..i]
            .iter()
            .map(|&(key, count)| (rhs_coded.dict[(key & 0xFFFF_FFFF) as usize].clone(), count))
            .collect();
        census.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.push((lhs_coded.dict[group as usize].clone(), census));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_table::Table;

    fn table(rows: &[[&str; 3]]) -> Table {
        let data: Vec<Vec<String>> =
            rows.iter().map(|r| r.iter().map(|s| s.to_string()).collect()).collect();
        Table::from_text_rows(&["zip", "city", "name"], &data).unwrap()
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(&[]), 0.0);
        assert_eq!(entropy(&[10]), 0.0);
        assert!((entropy(&[1, 1]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn conditional_entropy_exact_fd_is_zero() {
        let lhs: Vec<Value> = ["a", "a", "b", "b"].iter().map(|s| Value::from(*s)).collect();
        let rhs: Vec<Value> = ["x", "x", "y", "y"].iter().map(|s| Value::from(*s)).collect();
        assert_eq!(conditional_entropy(&lhs, &rhs), 0.0);
    }

    #[test]
    fn conditional_entropy_detects_violations() {
        let lhs: Vec<Value> = ["a", "a", "a", "a"].iter().map(|s| Value::from(*s)).collect();
        let rhs: Vec<Value> = ["x", "x", "x", "y"].iter().map(|s| Value::from(*s)).collect();
        let h = conditional_entropy(&lhs, &rhs);
        assert!(h > 0.0 && h < 1.0);
    }

    #[test]
    fn violating_groups_census_ordered() {
        let lhs: Vec<Value> = ["z1", "z1", "z1", "z2"].iter().map(|s| Value::from(*s)).collect();
        let rhs: Vec<Value> =
            ["Austin", "Austin", "Autsin", "Dallas"].iter().map(|s| Value::from(*s)).collect();
        let groups = fd_violating_groups(&lhs, &rhs);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, Value::from("z1"));
        assert_eq!(groups[0].1[0], (Value::from("Austin"), 2));
        assert_eq!(groups[0].1[1], (Value::from("Autsin"), 1));
    }

    #[test]
    fn fd_candidates_finds_near_fd() {
        // zip → city holds except one typo'd row.
        let t = table(&[
            ["1", "Austin", "a"],
            ["1", "Austin", "b"],
            ["1", "Austin", "c"],
            ["1", "Autsin", "d"],
            ["2", "Dallas", "e"],
            ["2", "Dallas", "f"],
            ["3", "Waco", "g"],
            ["3", "Waco", "h"],
        ]);
        let candidates = fd_candidates(&t, 0.5, 0.9);
        let zip_city = candidates.iter().find(|c| c.lhs == 0 && c.rhs == 1).expect("zip→city");
        assert!(zip_city.strength > 0.5);
        assert_eq!(zip_city.violating_groups, 1);
        // name is key-like: never a lhs.
        assert!(candidates.iter().all(|c| c.lhs != 2));
    }

    #[test]
    fn violating_groups_reuse_the_candidate_scan() {
        let t = table(&[
            ["1", "Austin", "a"],
            ["1", "Austin", "b"],
            ["1", "Autsin", "c"],
            ["2", "Dallas", "d"],
            ["2", "Dallas", "e"],
            ["3", "Waco", "f"],
            ["3", "Waco", "g"],
        ]);
        let scan = FdScan::new(&t);
        assert_eq!(scan.memoised_pairs(), 0, "nothing memoised before scoring");
        let candidates = scan.candidates(0.5, 0.9);
        assert_eq!(scan.memoised_pairs(), candidates.len(), "one memo per candidate");
        // Memoised and from-scratch extraction agree exactly.
        for c in &candidates {
            let via_scan = scan.violating_groups(c.lhs, c.rhs);
            let direct = fd_violating_groups(
                t.column(c.lhs).unwrap().values(),
                t.column(c.rhs).unwrap().values(),
            );
            assert_eq!(via_scan, direct, "{} → {}", c.lhs, c.rhs);
        }
        // A pair candidates() never scored still works (un-memoised path).
        let cold = scan.violating_groups(2, 0);
        assert_eq!(
            cold,
            fd_violating_groups(t.column(2).unwrap().values(), t.column(0).unwrap().values(),)
        );
    }

    #[test]
    fn recode_keeps_the_scan_live() {
        let mut t = table(&[
            ["1", "Austin", "a"],
            ["1", "Austin", "a"],
            ["1", "Autsin", "b"],
            ["2", "Dallas", "b"],
            ["2", "Dallas", "b"],
            ["3", "Waco", "c"],
            ["3", "Waco", "c"],
        ]);
        let mut scan = FdScan::new(&t);
        let candidates = scan.candidates(0.0, 1.0);
        // Fix the typo and move a Dallas row into a new conflict.
        t.set_cell(2, 1, Value::from("Austin")).unwrap();
        t.set_cell(4, 1, Value::from("Houston")).unwrap();
        scan.recode(&t, 1);
        assert_eq!(
            scan.memoised_pairs(),
            candidates.iter().filter(|c| c.lhs != 1 && c.rhs != 1).count(),
            "memos reading the re-coded column are dropped, the rest kept"
        );
        for lhs in 0..3 {
            for rhs in (0..3).filter(|&rhs| rhs != lhs) {
                let live = fd_violating_groups(
                    t.column(lhs).unwrap().values(),
                    t.column(rhs).unwrap().values(),
                );
                assert_eq!(scan.violating_groups(lhs, rhs), live, "{lhs} → {rhs}");
            }
        }
        assert_eq!(
            scan.violating_groups(0, 1),
            vec![(Value::from("2"), vec![(Value::from("Dallas"), 1), (Value::from("Houston"), 1)])]
        );
    }

    #[test]
    fn grouped_scan_matches_sorted_scan_exactly() {
        // The lhs-grouped pass must emit the identical sorted pair vector
        // (keys, order, counts, total) as the sort-based pass — including
        // NULLs on either side.
        let lhs = CodedColumn::encode(
            &["b", "a", "", "b", "c", "a", "b", ""]
                .iter()
                .map(|s| if s.is_empty() { Value::Null } else { Value::from(*s) })
                .collect::<Vec<_>>(),
        );
        let rhs = CodedColumn::encode(
            &["y", "x", "z", "", "z", "x", "y", "w"]
                .iter()
                .map(|s| if s.is_empty() { Value::Null } else { Value::from(*s) })
                .collect::<Vec<_>>(),
        );
        let groups = group_rows_by_code(&lhs);
        let mut scratch = Vec::new();
        let mut touched = Vec::new();
        assert_eq!(
            pair_counts_grouped(&groups, &rhs, &mut scratch, &mut touched),
            pair_counts(&lhs, &rhs)
        );
        assert!(scratch.iter().all(|&c| c == 0), "scratch restored to zero");
    }

    #[test]
    fn absorb_reproduces_whole_column_encoding() {
        let values: Vec<Value> = ["b", "", "a", "b", "c", "a", "", "d", "b"]
            .iter()
            .map(|s| if s.is_empty() { Value::Null } else { Value::from(*s) })
            .collect();
        let whole = CodedColumn::encode(&values);
        for split in 0..=values.len() {
            let mut merged = CodedColumn::encode(&values[..split]);
            merged.absorb(CodedColumn::encode(&values[split..]));
            assert_eq!(merged.codes, whole.codes, "split at {split}");
            assert_eq!(merged.counts, whole.counts, "split at {split}");
            assert_eq!(merged.dict, whole.dict, "split at {split}");
        }
        assert_eq!(whole.null_count(), 2);
        assert_eq!(whole.rows(), 9);
    }

    #[test]
    fn nulls_ignored() {
        let lhs = vec![Value::Null, Value::from("a")];
        let rhs = vec![Value::from("x"), Value::Null];
        assert_eq!(conditional_entropy(&lhs, &rhs), 0.0);
        assert!(fd_violating_groups(&lhs, &rhs).is_empty());
    }

    #[test]
    fn empty_table_no_candidates() {
        let t = Table::from_text_rows::<&str>(&["a", "b", "c"], &[]).unwrap();
        assert!(fd_candidates(&t, 0.5, 0.9).is_empty());
    }
}
