//! Entropy measurements and functional-dependency candidate scoring.
//!
//! Following §2.1.6 (and Beskales et al., the paper's \[2\]), Cocoon only
//! considers FDs with a single attribute on each side, ranks candidate pairs
//! by an entropy measurement, and hands the statistically strong ones to the
//! LLM for a semantic meaningfulness review.

use crate::census::ColumnCensus;
use cocoon_table::{Table, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use threadpool::ThreadPool;

/// Shannon entropy (bits) of a discrete distribution given by counts.
pub fn entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    counts.iter().filter(|&&c| c > 0).map(|&c| entropy_term(c, total)).sum()
}

/// One value's term of [`entropy`]: −p·log2 p for p = `count / total`. It
/// is never negative (−0.0 when `count == total`).
fn entropy_term(count: usize, total: usize) -> f64 {
    let p = count as f64 / total as f64;
    -p * p.log2()
}

/// Groups below this many rows read their entropy terms from
/// [`small_group_terms`].
const SMALL_GROUP: usize = 64;

/// [`entropy_term`]`(c, n)` at index `n · SMALL_GROUP + c`, built once by
/// the same function, so a term read from the table is bit-equal to the
/// term computed. Only the entries with `1 ≤ c ≤ n` are read.
fn small_group_terms() -> &'static [f64] {
    static TERMS: OnceLock<Vec<f64>> = OnceLock::new();
    TERMS.get_or_init(|| {
        (0..SMALL_GROUP * SMALL_GROUP)
            .map(|i| entropy_term(i % SMALL_GROUP, i / SMALL_GROUP))
            .collect()
    })
}

/// [`entropy`] of one lhs group's rhs counts (`n` rows, every count
/// positive), summed in the same order with the same `Sum`.
fn group_entropy(pairs: &[(u64, usize)], n: usize) -> f64 {
    if n < SMALL_GROUP {
        let terms = &small_group_terms()[n * SMALL_GROUP..(n + 1) * SMALL_GROUP];
        pairs.iter().map(|&(_, c)| terms[c]).sum()
    } else {
        pairs.iter().map(|&(_, c)| entropy_term(c, n)).sum()
    }
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
/// pass would produce — the foundation of [`crate::PartialProfile`]. It is
/// the coder behind every [`ColumnCensus`].
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
}

/// Sorted `(lhs_code << 32 | rhs_code)` keys with pair counts, plus the
/// number of rows where both sides are non-null. Sorting (instead of a
/// hash map) keeps the downstream float summation order deterministic.
fn pair_counts(lhs: &ColumnCensus, rhs: &ColumnCensus) -> (Vec<(u64, usize)>, usize) {
    let mut keys: Vec<u64> = lhs
        .codes()
        .iter()
        .zip(rhs.codes())
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

fn group_rows_by_code(coded: &ColumnCensus) -> LhsGroups {
    let cardinality = coded.cardinality();
    let mut starts = vec![0usize; cardinality + 1];
    for &c in coded.codes() {
        if c != NULL_CODE {
            starts[c as usize + 1] += 1;
        }
    }
    for i in 1..=cardinality {
        starts[i] += starts[i - 1];
    }
    let mut cursor = starts.clone();
    let mut rows = vec![0u32; starts[cardinality]];
    for (row, &c) in coded.codes().iter().enumerate() {
        if c != NULL_CODE {
            rows[cursor[c as usize]] = row as u32;
            cursor[c as usize] += 1;
        }
    }
    LhsGroups { rows, starts }
}

/// Buffers reused across every rhs scored against one lhs: a tally per rhs
/// code (all zero between groups), the rhs codes one group touched, and the
/// pair counts of the pair being scored.
#[derive(Default)]
struct PairScratch {
    tally: Vec<usize>,
    touched: Vec<u32>,
    pairs: Vec<(u64, usize)>,
}

/// How one pair scored: H(rhs | lhs), its strength and its violating group
/// count, as [`FdCandidate`] reports them.
struct PairScore {
    conditional_entropy: f64,
    strength: f64,
    violating_groups: usize,
}

/// Scores `lhs → rhs` in one pass over the lhs groups, leaving the pair's
/// counts in `scratch.pairs`, keyed and ordered as [`pair_counts`] builds
/// them. `None` as soon as the strength is known to fall below
/// `min_strength`.
///
/// H(rhs | lhs) is summed group by group in lhs code order, each group's
/// entropy in rhs code order, as [`conditional_entropy_from_pairs`] sums
/// it, with two exact shortcuts:
/// - a group holding one rhs value adds (n/total)·(±0.0) to an `h` that
///   starts at +0.0, which leaves `h` as it is, so it is skipped (its one
///   pair is still recorded);
/// - no term is negative, so the partial `h` only grows and
///   `1 − h/H(rhs)` only falls: once that is below `min_strength`, so is
///   the final strength.
fn score_pair(
    groups: &LhsGroups,
    rhs: &ColumnCensus,
    rhs_has_nulls: bool,
    h_rhs: f64,
    min_strength: f64,
    scratch: &mut PairScratch,
) -> Option<PairScore> {
    let strength = |h: f64| if h_rhs == 0.0 { 0.0 } else { 1.0 - h / h_rhs };
    // `h` starts at +0.0 and never falls: this is the best the pair can do.
    if strength(0.0) < min_strength {
        return None;
    }
    let rhs_codes = rhs.codes();
    // Rows where both sides are non-null: the weights' denominator.
    let total = if rhs_has_nulls {
        groups.rows.iter().filter(|&&row| rhs_codes[row as usize] != NULL_CODE).count()
    } else {
        groups.rows.len()
    };
    let PairScratch { tally, touched, pairs } = scratch;
    if tally.len() < rhs.cardinality() {
        tally.resize(rhs.cardinality(), 0);
    }
    pairs.clear();
    let (mut h, mut violating_groups) = (0.0, 0);
    for (lhs_code, bounds) in groups.starts.windows(2).enumerate() {
        let key = u64::from(lhs_code as u32) << 32;
        let rows = &groups.rows[bounds[0]..bounds[1]];
        if let [row] = rows {
            // One row: at most one pair, and no entropy.
            let r = rhs_codes[*row as usize];
            if r != NULL_CODE {
                pairs.push((key | u64::from(r), 1));
            }
            continue;
        }
        touched.clear();
        for &row in rows {
            let r = rhs_codes[row as usize];
            if r == NULL_CODE {
                continue;
            }
            if tally[r as usize] == 0 {
                touched.push(r);
            }
            tally[r as usize] += 1;
        }
        // Rhs code order: the pair keys' order and the entropy's float
        // summation order.
        touched.sort_unstable();
        let start = pairs.len();
        pairs.extend(
            touched.iter().map(|&r| (key | u64::from(r), std::mem::take(&mut tally[r as usize]))),
        );
        if touched.len() > 1 {
            let group = &pairs[start..];
            let n: usize = group.iter().map(|&(_, count)| count).sum();
            h += (n as f64 / total as f64) * group_entropy(group, n);
            violating_groups += 1;
            if strength(h) < min_strength {
                return None;
            }
        }
    }
    Some(PairScore { conditional_entropy: h, strength: strength(h), violating_groups })
}

/// Margin of the entropy bound in [`FdScan::candidates`], in units of
/// H(rhs): far above the float error of the entropy sums, which is about
/// the row count times 2⁻⁵³ of each sum.
const BOUND_MARGIN: f64 = 1e-6;

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

/// The lhs groups of sorted pair counts that map to more than one distinct
/// rhs value, as `(lhs code, the group's range of pairs)` in code order.
fn violating_runs(pairs: &[(u64, usize)]) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || loop {
        let group = pairs.get(start)?.0 >> 32;
        let end = start + pairs[start..].iter().take_while(|(key, _)| key >> 32 == group).count();
        let run = start..end;
        start = end;
        if run.len() > 1 {
            return Some((group as u32, run));
        }
    })
}

/// Number of lhs groups mapping to more than one distinct rhs value.
fn violating_groups_from_pairs(pairs: &[(u64, usize)]) -> usize {
    violating_runs(pairs).count()
}

/// Conditional entropy H(rhs | lhs) over the rows of two columns,
/// considering only rows where both sides are non-null.
pub fn conditional_entropy(lhs: &[Value], rhs: &[Value]) -> f64 {
    debug_assert_eq!(lhs.len(), rhs.len());
    let (pairs, total) = pair_counts(&census_of(lhs), &census_of(rhs));
    conditional_entropy_from_pairs(&pairs, total)
}

fn census_of(values: &[Value]) -> ColumnCensus {
    ColumnCensus::from_coded(CodedColumn::encode(values))
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

/// One violating group: the lhs value and its rhs census, by descending
/// count.
type Group = (Value, Vec<(Value, usize)>);

/// A reusable FD scan over one table: the codes of every column's
/// [`ColumnCensus`], serving both candidate scoring and per-candidate
/// violating-group extraction without re-hashing any value. Scoring takes
/// `&mut self` (it memoises pair scans); everything read afterwards takes
/// `&self`, so one scan is shared across detection workers.
///
/// The scan has no coder of its own: it reads censuses, whether a caller
/// keeps them per column version ([`FdScan::from_censuses`]), builds them
/// from a table ([`FdScan::new`]), or merges them out of row-chunk
/// partials (the [`crate::PartialProfile`] path). All three produce
/// identical candidates because they share one coding.
pub struct FdScan {
    /// Per column: its census, in column order.
    columns: Vec<Arc<ColumnCensus>>,
    height: usize,
    /// Sorted pair counts kept from [`candidates`](Self::candidates) for
    /// the pairs that became candidates — exactly the ones the group
    /// readers are later asked about, so they skip the re-scan.
    pair_memo: HashMap<(usize, usize), Vec<(u64, usize)>>,
}

impl FdScan {
    /// Prepares a scan over `table`, censusing each column once.
    pub fn new(table: &Table) -> Self {
        let columns = (0..table.width())
            .map(|c| Arc::new(ColumnCensus::of(table.column(c).expect("index in range"))))
            .collect();
        FdScan::from_censuses(columns)
    }

    /// A scan over the columns these censuses describe, in column order.
    ///
    /// # Panics
    ///
    /// Panics when the censuses cover different row counts: they must
    /// describe the columns of one table.
    pub fn from_censuses(columns: Vec<Arc<ColumnCensus>>) -> Self {
        let height = columns.first().map_or(0, |census| census.rows());
        assert!(
            columns.iter().all(|census| census.rows() == height),
            "censuses of one table cover the same rows"
        );
        FdScan { columns, height, pair_memo: HashMap::new() }
    }

    /// Scores every ordered column pair as an FD candidate and returns
    /// those with `strength ≥ min_strength`, strongest first.
    ///
    /// Pairs where either side is almost-unique (key-like, unique ratio
    /// above `max_unique_ratio`) are skipped: `id → anything` is trivially
    /// strong but semantically vacuous, and the paper's LLM review would
    /// reject it anyway.
    ///
    /// Each eligible lhs column is one task on `pool`: its rows are grouped
    /// by code **once** (counting sort), and each rhs is scored in one pass
    /// over those groups that tallies its pair counts, sums H(rhs | lhs) and
    /// counts the violating groups together. Three exact exits skip work
    /// whose outcome is already fixed:
    /// - **The entropy bound.** On shared rows H(rhs | lhs) ≥ H(rhs) −
    ///   H(lhs), so strength ≤ H(lhs)/H(rhs), and a pair whose bound falls
    ///   below `min_strength` (by more than a margin far above float error)
    ///   is not scanned. Only when neither column has NULLs: NULLs put
    ///   H(lhs), H(rhs) and H(rhs | lhs) on different rows, where the
    ///   bound does not hold.
    /// - **Single-valued groups.** A group whose rows share one rhs value
    ///   adds nothing to H(rhs | lhs), so its entropy is not computed.
    /// - **The early stop.** The partial H(rhs | lhs) only grows, so a pair
    ///   stops as soon as its strength falls below `min_strength`.
    ///
    /// Groups under 64 rows read their entropy terms from a table built with
    /// the same expression. Only the pairs that become candidates have their
    /// pair counts copied out of the task's buffer, into the memo the group
    /// readers use.
    ///
    /// Every float is the one the sort-based scan computes: each entropy is
    /// summed in the same order with the same `Sum`. The output does not
    /// depend on the thread count: a task's result is a function of its lhs
    /// alone, and the per-lhs results are concatenated in lhs order before
    /// the stable sort by strength with its `(lhs, rhs)` tie-break.
    pub fn candidates(
        &mut self,
        pool: &ThreadPool,
        min_strength: f64,
        max_unique_ratio: f64,
    ) -> Vec<FdCandidate> {
        let height = self.height;
        if height == 0 {
            return Vec::new();
        }
        let key_like =
            |census: &ColumnCensus| census.cardinality() as f64 / height as f64 > max_unique_ratio;
        // Constant and key-like columns take part on neither side: nothing
        // depends on a constant, and key-like groups are all singletons.
        let eligible: Vec<bool> = self
            .columns
            .iter()
            .map(|census| census.cardinality() > 1 && !key_like(census))
            .collect();
        let has_nulls: Vec<bool> =
            self.columns.iter().map(|census| census.null_count() > 0).collect();
        // Code-order counts: the entropy's float summation order.
        let column_entropy: Vec<f64> =
            self.columns.iter().map(|census| entropy(census.counts())).collect();
        let columns = &self.columns;
        let lhs_columns: Vec<usize> = (0..columns.len()).filter(|&lhs| eligible[lhs]).collect();
        let scored = pool.map_ordered(lhs_columns, |lhs| {
            let groups = group_rows_by_code(&columns[lhs]);
            let mut scratch = PairScratch::default();
            let mut scored = Vec::new();
            for rhs in (0..columns.len()).filter(|&rhs| rhs != lhs && eligible[rhs]) {
                let h_rhs = column_entropy[rhs];
                if !has_nulls[lhs]
                    && !has_nulls[rhs]
                    && column_entropy[lhs] / h_rhs + BOUND_MARGIN < min_strength
                {
                    continue;
                }
                let Some(score) = score_pair(
                    &groups,
                    &columns[rhs],
                    has_nulls[rhs],
                    h_rhs,
                    min_strength,
                    &mut scratch,
                ) else {
                    continue;
                };
                let candidate = FdCandidate {
                    lhs,
                    rhs,
                    conditional_entropy: score.conditional_entropy,
                    strength: score.strength,
                    violating_groups: score.violating_groups,
                };
                scored.push((candidate, scratch.pairs.clone()));
            }
            scored
        });
        let mut out = Vec::new();
        for (candidate, pairs) in scored.into_iter().flatten() {
            self.pair_memo.insert((candidate.lhs, candidate.rhs), pairs);
            out.push(candidate);
        }
        out.sort_by(|a, b| {
            b.strength
                .partial_cmp(&a.strength)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| (a.lhs, a.rhs).cmp(&(b.lhs, b.rhs)))
        });
        out
    }

    /// The first `limit` violating groups of `lhs → rhs` in
    /// [`fd_violating_groups`] order (pass `usize::MAX` for all of them),
    /// served from the censuses' codes and from the memoised pair scan when
    /// [`candidates`](Self::candidates) scored this pair. Only the groups
    /// returned are decoded. Empty when either column index is out of
    /// range.
    pub fn violating_groups(&self, lhs: usize, rhs: usize, limit: usize) -> Vec<Group> {
        match self.pair_scan(lhs, rhs) {
            Some(pairs) => groups_from_pairs(&self.columns[lhs], &self.columns[rhs], &pairs, limit),
            None => Vec::new(),
        }
    }

    /// How many violating groups `lhs → rhs` has, counted off the pair scan
    /// without decoding any value: the length of the full
    /// [`violating_groups`](Self::violating_groups) list. 0 when either
    /// column index is out of range.
    pub fn violating_group_count(&self, lhs: usize, rhs: usize) -> usize {
        self.pair_scan(lhs, rhs).map_or(0, |pairs| violating_groups_from_pairs(&pairs))
    }

    /// The sorted pair counts of `lhs → rhs`: memoised by scoring, or
    /// scanned afresh. `None` when either column index is out of range.
    fn pair_scan(&self, lhs: usize, rhs: usize) -> Option<Cow<'_, [(u64, usize)]>> {
        let (lhs_census, rhs_census) = (self.columns.get(lhs)?, self.columns.get(rhs)?);
        Some(match self.pair_memo.get(&(lhs, rhs)) {
            Some(pairs) => Cow::Borrowed(pairs),
            None => Cow::Owned(pair_counts(lhs_census, rhs_census).0),
        })
    }

    /// Replaces `column`'s coding with `census`, the census of the column
    /// a repair rewrote, and drops the memoised pair scans that read it.
    /// Every other column keeps its coding, so the scan keeps answering for
    /// the live table as long as each rewritten column is re-coded and the
    /// rows stay the same.
    pub fn recode(&mut self, column: usize, census: Arc<ColumnCensus>) {
        assert_eq!(census.rows(), self.height, "recode needs the rows the scan was built from");
        if let Some(coded) = self.columns.get_mut(column) {
            *coded = census;
        }
        self.pair_memo.retain(|&(lhs, rhs), _| lhs != column && rhs != column);
    }

    /// Number of memoised pair scans (test observability).
    #[cfg(test)]
    fn memoised_pairs(&self) -> usize {
        self.pair_memo.len()
    }
}

/// Scores every ordered column pair of `table` as an FD candidate on the
/// calling thread; see [`FdScan::candidates`]. Prefer [`FdScan`] when
/// groups are needed too, or to score on a wider pool.
pub fn fd_candidates(table: &Table, min_strength: f64, max_unique_ratio: f64) -> Vec<FdCandidate> {
    FdScan::new(table).candidates(&ThreadPool::new(1), min_strength, max_unique_ratio)
}

/// Groups of rows violating `lhs → rhs`: for each lhs value mapping to more
/// than one distinct rhs value, returns `(lhs value, rhs value census)` with
/// the census ordered by descending count, groups ordered by lhs value.
pub fn fd_violating_groups(lhs: &[Value], rhs: &[Value]) -> Vec<Group> {
    let lhs_coded = census_of(lhs);
    let rhs_coded = census_of(rhs);
    let (pairs, _) = pair_counts(&lhs_coded, &rhs_coded);
    groups_from_pairs(&lhs_coded, &rhs_coded, &pairs, usize::MAX)
}

/// The one group decoder: reads the violating groups off the sorted pair
/// keys and decodes the first `limit` of them, cloning values out of the
/// censuses only for those.
///
/// Groups are ordered by one stable sort by lhs value over lhs code order,
/// done before anything is decoded, so every limit sees the same order:
/// ties, and values the order does not rank (NaN beside numbers), resolve
/// the same way whether one group is read or all of them.
fn groups_from_pairs(
    lhs_coded: &ColumnCensus,
    rhs_coded: &ColumnCensus,
    pairs: &[(u64, usize)],
    limit: usize,
) -> Vec<Group> {
    let mut violating: Vec<(u32, Range<usize>)> = violating_runs(pairs).collect();
    violating.sort_by(|a, b| lhs_coded.value(a.0).cmp(lhs_coded.value(b.0)));
    violating
        .into_iter()
        .take(limit)
        .map(|(lhs_code, range)| {
            let mut census: Vec<(Value, usize)> = pairs[range]
                .iter()
                .map(|&(key, count)| (rhs_coded.value((key & 0xFFFF_FFFF) as u32).clone(), count))
                .collect();
            census.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            (lhs_coded.value(lhs_code).clone(), census)
        })
        .collect()
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
        let mut scan = FdScan::new(&t);
        assert_eq!(scan.memoised_pairs(), 0, "nothing memoised before scoring");
        let candidates = scan.candidates(&ThreadPool::new(2), 0.5, 0.9);
        assert_eq!(scan.memoised_pairs(), candidates.len(), "one memo per candidate");
        // Memoised and from-scratch extraction agree exactly.
        for c in &candidates {
            let via_scan = scan.violating_groups(c.lhs, c.rhs, usize::MAX);
            let direct = fd_violating_groups(
                t.column(c.lhs).unwrap().values(),
                t.column(c.rhs).unwrap().values(),
            );
            assert_eq!(via_scan, direct, "{} → {}", c.lhs, c.rhs);
            assert_eq!(scan.violating_group_count(c.lhs, c.rhs), direct.len());
            assert_eq!(scan.violating_groups(c.lhs, c.rhs, 1), direct[..direct.len().min(1)]);
        }
        // A pair candidates() never scored still works (un-memoised path).
        let cold = scan.violating_groups(2, 0, usize::MAX);
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
        let candidates = scan.candidates(&ThreadPool::new(1), 0.0, 1.0);
        // Fix the typo and move a Dallas row into a new conflict.
        t.set_cell(2, 1, Value::from("Austin")).unwrap();
        t.set_cell(4, 1, Value::from("Houston")).unwrap();
        scan.recode(1, Arc::new(ColumnCensus::of(t.column(1).unwrap())));
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
                assert_eq!(scan.violating_groups(lhs, rhs, usize::MAX), live, "{lhs} → {rhs}");
            }
        }
        assert_eq!(
            scan.violating_groups(0, 1, usize::MAX),
            vec![(Value::from("2"), vec![(Value::from("Dallas"), 1), (Value::from("Houston"), 1)])]
        );
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
        let census = ColumnCensus::from_coded(whole);
        assert_eq!((census.null_count(), census.rows()), (2, 9));
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
