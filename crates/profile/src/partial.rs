//! Mergeable partial profiles: chunk-accumulated sufficient statistics.
//!
//! Every statistic [`crate::profile_table`] reports — type inference,
//! value distributions, uniqueness, numeric summaries, pattern censuses,
//! duplicate rows, FD candidates — is a deterministic function of the
//! per-column dictionary codings (`CodedColumn`): value counts are
//! `dict × counts`, rows are code tuples, and the FD scan already runs on
//! codes. A [`PartialProfile`] is exactly that coding, accumulated over a
//! row chunk; [`merge`](PartialProfile::merge) folds the coding of the
//! next chunk in, reproducing the whole-table coding *bit for bit* (new
//! values are appended in first-appearance order, which is their
//! first-appearance order in the concatenation). So
//!
//! ```text
//! finalize(merge(of_rows(t, 0..k), of_rows(t, k..n))) == profile_table(t)
//! ```
//!
//! holds exactly — not approximately — for every split, which is what lets
//! profiling run chunk-parallel ([`profile_table_chunked`]) without any
//! consumer being able to tell the difference. The differential proptests
//! at the bottom of this file pin the identity across random tables, chunk
//! sizes and thread counts.

use crate::census::ColumnCensus;
use crate::distribution::Distribution;
use crate::entropy::{CodedColumn, FdScan};
use crate::numeric::numeric_from_distinct;
use crate::patterns::pattern_census_from_distinct;
use crate::profile::{ColumnProfile, ProfileOptions, TableProfile};
use crate::uniqueness::{duplicates_from_censuses, uniqueness_from_distinct};
use cocoon_table::{infer_from_distinct, DataType, Table};
use std::ops::Range;
use std::sync::Arc;
use threadpool::ThreadPool;

/// Default rows per profiling chunk.
///
/// Large enough that per-chunk dictionary setup amortises, small enough
/// that a chunk holds only a few thousand decoded rows of profiling state
/// beyond the dictionary itself.
pub const DEFAULT_PROFILE_CHUNK_ROWS: usize = 4096;

/// Profile state accumulated over a contiguous run of rows: the schema
/// header plus one `CodedColumn` per column.
///
/// Build one per row chunk with [`of_rows`](Self::of_rows), fold chunks
/// together **in row order** with [`merge`](Self::merge), and turn the
/// result into a [`TableProfile`] with [`finalize`](Self::finalize). The
/// fold is associative — merging is code remapping plus count addition —
/// so any chunking of the same rows yields the same final profile.
pub struct PartialProfile {
    names: Vec<String>,
    declared: Vec<DataType>,
    columns: Vec<CodedColumn>,
    rows: usize,
}

impl PartialProfile {
    /// Accumulates the rows of `range` (clamped to the table) into a fresh
    /// partial.
    pub fn of_rows(table: &Table, range: Range<usize>) -> Self {
        let start = range.start.min(table.height());
        let end = range.end.min(table.height());
        let columns = (0..table.width())
            .map(|c| {
                let values = table.column(c).expect("index in range").values();
                CodedColumn::encode(&values[start..end])
            })
            .collect();
        PartialProfile {
            names: table.schema().names().iter().map(|n| n.to_string()).collect(),
            declared: table.schema().fields().iter().map(|f| f.data_type()).collect(),
            columns,
            rows: end - start,
        }
    }

    /// Rows accumulated so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Folds `next` — the partial of the rows immediately following this
    /// one — into `self`.
    ///
    /// # Panics
    ///
    /// Panics when the two partials disagree on the schema (different
    /// column names or declared types): merging profiles of different
    /// tables is a logic error, not a recoverable condition.
    pub fn merge(&mut self, next: PartialProfile) {
        assert_eq!(self.names, next.names, "partial profiles of different schemas");
        assert_eq!(self.declared, next.declared, "partial profiles of different schemas");
        for (mine, theirs) in self.columns.iter_mut().zip(next.columns) {
            mine.absorb(theirs);
        }
        self.rows += next.rows;
    }

    /// Turns the accumulated state into the [`TableProfile`] the
    /// whole-table pass would have produced over the same rows, scoring the
    /// FD candidates on `pool` (the profile is the same at any width).
    pub fn finalize(self, options: &ProfileOptions, pool: &ThreadPool) -> TableProfile {
        let rows = self.rows;
        let censuses: Vec<Arc<ColumnCensus>> = self
            .columns
            .into_iter()
            .map(|coded| Arc::new(ColumnCensus::from_coded(coded)))
            .collect();
        let profiles = censuses
            .iter()
            .zip(&self.names)
            .zip(&self.declared)
            .map(|((census, name), declared)| {
                let (sorted, null_count) = (census.distinct(), census.null_count());
                ColumnProfile {
                    name: name.clone(),
                    declared_type: *declared,
                    inference: infer_from_distinct(sorted, options.type_tolerance),
                    distribution: Distribution::from_distinct(sorted.to_vec(), null_count),
                    uniqueness: uniqueness_from_distinct(sorted),
                    numeric: numeric_from_distinct(sorted),
                    patterns: pattern_census_from_distinct(
                        sorted,
                        null_count,
                        options.exact_patterns,
                    ),
                }
            })
            .collect();
        let duplicates = duplicates_from_censuses(&censuses);
        let fd_candidates = FdScan::from_censuses(censuses).candidates(
            pool,
            options.fd_min_strength,
            options.fd_max_unique_ratio,
        );
        TableProfile {
            columns: profiles,
            duplicates,
            fd_candidates,
            rows,
            options: options.clone(),
        }
    }
}

/// Profiles `table` chunk-parallel: rows are split into `chunk_rows`-sized
/// chunks, each chunk's [`PartialProfile`] is accumulated on `pool`, the
/// partials are folded in row order, and the FD candidates are scored on
/// `pool` too.
///
/// The result is identical to [`crate::profile_table`] — same floats, same
/// orderings — at every chunk size and thread count: chunk boundaries
/// depend only on `chunk_rows`, [`ThreadPool::map_ordered`] returns the
/// partials in submission order whatever the scheduling, and the ordered
/// fold reproduces the whole-table coding exactly.
pub fn profile_table_chunked(
    table: &Table,
    options: &ProfileOptions,
    pool: &ThreadPool,
    chunk_rows: usize,
) -> TableProfile {
    let chunk_rows = chunk_rows.max(1);
    let height = table.height();
    let ranges: Vec<Range<usize>> = (0..height)
        .step_by(chunk_rows)
        .map(|start| start..(start + chunk_rows).min(height))
        .collect();
    if ranges.len() <= 1 {
        return PartialProfile::of_rows(table, 0..height).finalize(options, pool);
    }
    let mut partials = pool.map_ordered(ranges, |range| PartialProfile::of_rows(table, range));
    let mut merged = partials.remove(0);
    for partial in partials {
        merged.merge(partial);
    }
    merged.finalize(options, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile_table;
    use cocoon_table::Value;
    use proptest::prelude::*;

    fn movies_like_rows(rows: usize, seed: usize) -> Vec<Vec<String>> {
        // Deterministic pseudo-random dirty data: repeated categories with
        // typo variants, numeric strings with outliers, blanks, dates in
        // two formats, near-FD pairs and duplicate rows.
        let langs = ["eng", "eng", "eng", "English", "fre", ""];
        let cities = ["Austin", "Dallas", "Waco", "Autsin"];
        let zips = ["73301", "75201", "76701"];
        (0..rows)
            .map(|r| {
                let x = r.wrapping_mul(2654435761).wrapping_add(seed);
                let zip = zips[x % zips.len()];
                let city = if x % 17 == 0 { cities[3] } else { cities[(x / 3) % 3] };
                let score =
                    if x % 23 == 0 { "99999".to_string() } else { ((x % 90) + 10).to_string() };
                let date = if x % 2 == 0 {
                    format!("20{:02}-0{}-1{}", x % 30, (x % 9) + 1, x % 9)
                } else {
                    format!("0{}/1{}/20{:02}", (x % 9) + 1, x % 9, x % 30)
                };
                vec![
                    zip.to_string(),
                    city.to_string(),
                    langs[x % langs.len()].to_string(),
                    score,
                    date,
                ]
            })
            .collect()
    }

    fn movies_like(rows: usize, seed: usize) -> Table {
        let mut t = Table::from_text_rows(
            &["zip", "city", "lang", "score", "date"],
            &movies_like_rows(rows, seed),
        )
        .unwrap();
        for c in 0..t.width() {
            t.column_mut(c).unwrap().map_in_place(|v| match v.as_text() {
                Some("") => Value::Null,
                _ => v.clone(),
            });
        }
        t
    }

    #[test]
    fn single_chunk_is_the_whole_table_pass() {
        let t = movies_like(97, 1);
        let options = ProfileOptions::default();
        let whole = profile_table(&t, &options);
        let partial =
            PartialProfile::of_rows(&t, 0..t.height()).finalize(&options, &ThreadPool::new(2));
        assert_eq!(whole, partial);
    }

    #[test]
    fn every_split_matches_the_whole_table_pass() {
        let t = movies_like(53, 7);
        let options = ProfileOptions::default();
        let whole = profile_table(&t, &options);
        for split in 0..=t.height() {
            let mut merged = PartialProfile::of_rows(&t, 0..split);
            merged.merge(PartialProfile::of_rows(&t, split..t.height()));
            assert_eq!(merged.finalize(&options, &ThreadPool::new(1)), whole, "split at {split}");
        }
    }

    #[test]
    fn chunked_profile_matches_at_any_chunk_size_and_thread_count() {
        let t = movies_like(211, 3);
        let options = ProfileOptions::default();
        let whole = profile_table(&t, &options);
        for threads in [1usize, 4] {
            let pool = ThreadPool::new(threads);
            for chunk_rows in [1usize, 7, 64, 211, 10_000] {
                let chunked = profile_table_chunked(&t, &options, &pool, chunk_rows);
                assert_eq!(chunked, whole, "chunk_rows={chunk_rows} threads={threads}");
            }
        }
    }

    #[test]
    fn duplicate_groups_from_code_tuples() {
        let rows: Vec<Vec<String>> = vec![
            vec!["1".into(), "x".into()],
            vec!["1".into(), "x".into()],
            vec!["1".into(), "x".into()],
            vec!["2".into(), "y".into()],
        ];
        let t = Table::from_text_rows(&["a", "b"], &rows).unwrap();
        let profile = PartialProfile::of_rows(&t, 0..4)
            .finalize(&ProfileOptions::default(), &ThreadPool::new(1));
        assert_eq!(profile.duplicates, crate::duplicate_profile(&t));
        assert_eq!(profile.duplicates.duplicate_rows, 2);
    }

    #[test]
    fn empty_and_degenerate_tables() {
        let options = ProfileOptions::default();
        let empty = Table::from_text_rows::<&str>(&["a", "b"], &[]).unwrap();
        let pool = ThreadPool::new(2);
        assert_eq!(
            profile_table(&empty, &options),
            PartialProfile::of_rows(&empty, 0..0).finalize(&options, &pool)
        );
        assert_eq!(
            profile_table_chunked(&empty, &options, &pool, 8),
            profile_table(&empty, &options)
        );
    }

    #[test]
    #[should_panic(expected = "different schemas")]
    fn merging_different_schemas_panics() {
        let a = Table::from_text_rows::<&str>(&["a"], &[]).unwrap();
        let b = Table::from_text_rows::<&str>(&["b"], &[]).unwrap();
        let mut pa = PartialProfile::of_rows(&a, 0..0);
        pa.merge(PartialProfile::of_rows(&b, 0..0));
    }

    proptest! {
        /// The headline identity: chunked-then-merged equals whole-table,
        /// for random tables, random chunk sizes and both pool widths.
        #[test]
        fn prop_chunked_profile_identity(
            rows in 0usize..120,
            seed in 0usize..1000,
            chunk_rows in 1usize..40,
            threads in 1usize..5,
        ) {
            let t = movies_like(rows, seed);
            let options = ProfileOptions::default();
            let whole = profile_table(&t, &options);
            let pool = ThreadPool::new(threads);
            let chunked = profile_table_chunked(&t, &options, &pool, chunk_rows);
            prop_assert_eq!(chunked, whole);
        }

        /// Merge associativity at the partial level: fold left-to-right in
        /// any grouping, same final profile.
        #[test]
        fn prop_merge_is_associative(
            rows in 3usize..80,
            seed in 0usize..1000,
            a in 1usize..40,
            b in 1usize..40,
        ) {
            let t = movies_like(rows, seed);
            let options = ProfileOptions::default();
            let h = t.height();
            let (i, j) = (a.min(h), (a + b).min(h));
            // ((p0 + p1) + p2)
            let mut left = PartialProfile::of_rows(&t, 0..i);
            left.merge(PartialProfile::of_rows(&t, i..j));
            left.merge(PartialProfile::of_rows(&t, j..h));
            // (p0 + (p1 + p2))
            let mut tail = PartialProfile::of_rows(&t, i..j);
            tail.merge(PartialProfile::of_rows(&t, j..h));
            let mut right = PartialProfile::of_rows(&t, 0..i);
            right.merge(tail);
            let pool = ThreadPool::new(1);
            prop_assert_eq!(left.finalize(&options, &pool), right.finalize(&options, &pool));
        }
    }
}
