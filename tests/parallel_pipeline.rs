//! Concurrency and caching guarantees of the detect/decide pipeline:
//! byte-identical output at any thread count, and repeat-clean completions
//! served from the prompt cache.

use cocoon_core::{Cleaner, CleanerConfig, CleaningRun};
use cocoon_llm::{CachedLlm, SimLlm, Transcript};
use cocoon_table::csv;

/// The multi-issue fixture from the pipeline unit tests: string outliers,
/// pattern outliers, DMVs, casts and numeric outliers all at once.
fn messy() -> cocoon_table::Table {
    let mut csv_text = String::from("record_id,lang,admission,EmergencyService,rating\n");
    for i in 0..20 {
        csv_text.push_str(&format!("r{i},eng,01/02/2003,yes,7.5\n"));
    }
    csv_text.push_str("r20,English,2003-04-05,no,8.0\n");
    csv_text.push_str("r21,eng,01/02/2003,N/A,99.0\n");
    csv::read_str(&csv_text).unwrap()
}

fn clean_with_threads(table: &cocoon_table::Table, threads: usize) -> CleaningRun {
    let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
    let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
    cleaner.clean(table).expect("pipeline")
}

/// Byte-level comparison of two runs: table cells and schema, op order and
/// content (via the rendered SQL script), and every note.
fn assert_runs_identical(a: &CleaningRun, b: &CleaningRun) {
    assert_eq!(a.table, b.table);
    assert_eq!(a.sql_script(), b.sql_script());
    assert_eq!(
        a.ops.iter().map(|o| (o.issue, o.column.clone(), o.cells_changed)).collect::<Vec<_>>(),
        b.ops.iter().map(|o| (o.issue, o.column.clone(), o.cells_changed)).collect::<Vec<_>>(),
    );
    assert_eq!(a.notes, b.notes);
}

#[test]
fn messy_fixture_identical_at_1_and_8_threads() {
    let table = messy();
    let sequential = clean_with_threads(&table, 1);
    let parallel = clean_with_threads(&table, 8);
    assert!(!sequential.ops.is_empty());
    assert_runs_identical(&sequential, &parallel);
}

#[test]
fn movies_and_hospital_identical_at_1_and_8_threads() {
    // Movies has the widest FD scan. Hospital's FD stage applies many
    // repairs, so the candidates decided after the first one count or
    // decode their groups on the live table.
    let movies = cocoon_datasets::movies::generate();
    let hospital = cocoon_datasets::hospital::generate();
    for (dataset, min_fd_repairs) in [(movies, 0), (hospital, 2)] {
        let sequential = clean_with_threads(&dataset.dirty, 1);
        let parallel = clean_with_threads(&dataset.dirty, 8);
        assert!(!sequential.ops.is_empty());
        let fd_repairs = sequential
            .ops
            .iter()
            .filter(|op| op.issue == cocoon_core::IssueKind::FunctionalDependency)
            .count();
        assert!(fd_repairs >= min_fd_repairs, "{fd_repairs} FD repairs");
        assert_runs_identical(&sequential, &parallel);
    }
}

#[test]
fn cached_llm_cuts_call_count_on_repeat_clean() {
    let table = messy();
    let cleaner = Cleaner::new(CachedLlm::new(Transcript::new(SimLlm::new())));

    let first = cleaner.clean(&table).expect("first clean");
    let calls_after_first = cleaner.llm().inner().exchange_count();
    assert!(calls_after_first > 0, "the first clean must reach the model");
    assert_eq!(cleaner.llm().hits(), 0, "a cold cache cannot hit");

    let second = cleaner.clean(&table).expect("second clean");
    let calls_after_second = cleaner.llm().inner().exchange_count();
    assert_eq!(
        calls_after_second, calls_after_first,
        "a repeat clean of the same table must be served entirely from the cache"
    );
    assert!(cleaner.llm().hits() >= calls_after_first, "every repeat prompt hits");
    // Cache replay is invisible in the output.
    assert_eq!(first.table, second.table);
    assert_eq!(first.sql_script(), second.sql_script());
    assert_eq!(first.notes, second.notes);
}

#[test]
fn cached_llm_is_transparent_for_a_cold_clean() {
    let table = messy();
    let cached = Cleaner::new(CachedLlm::new(SimLlm::new())).clean(&table).expect("cached");
    let plain = Cleaner::new(SimLlm::new()).clean(&table).expect("plain");
    assert_eq!(cached.table, plain.table);
    assert_eq!(cached.sql_script(), plain.sql_script());
    assert_eq!(cached.notes, plain.notes);
}

mod confidence_differential {
    use super::*;
    use proptest::prelude::*;

    /// A generated messy table: a unique-id column (so the deduplication
    /// stage never collapses it), a skewed text column with optional typo
    /// variants and a disguised-missing token, and a numeric column with
    /// an optional outlier — enough surface to trigger several stages and
    /// their confidence sampling.
    fn messy_table() -> impl Strategy<Value = cocoon_table::Table> {
        let dominant = "[a-d]{3}";
        (dominant, 14usize..24, 0usize..3, prop_oneof![Just(""), Just("N/A"), Just("unknown")])
            .prop_map(|(word, rows, typos, dmv)| {
                let mut text = String::from("record_id,token,rating\n");
                for i in 0..rows {
                    text.push_str(&format!("r{i},{word},7.5\n"));
                }
                for i in 0..typos {
                    // A doubled first letter: the SimLlm oracle repairs it
                    // as a high-confidence typo of the dominant token.
                    let first = word.chars().next().unwrap();
                    text.push_str(&format!("t{i},{first}{word},8.0\n"));
                }
                if !dmv.is_empty() {
                    text.push_str(&format!("d0,{dmv},99.0\n"));
                }
                csv::read_str(&text).expect("generated csv parses")
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The threshold-policy differential: at `confidence_threshold`
        /// 0.0 the gate is unconditional — nothing is ever withheld, and
        /// the run (table, SQL script, ops, notes) is byte-identical at
        /// any thread count, so the confidence machinery (self-reports,
        /// sampled cross-variant re-asks through the batch path) cannot
        /// perturb the output it annotates.
        #[test]
        fn threshold_zero_is_unconditional_at_any_thread_count(
            table in messy_table(),
            threads in 2usize..9,
        ) {
            let zero = |threads: usize| {
                let config = CleanerConfig {
                    confidence_threshold: 0.0,
                    threads: Some(threads),
                    ..CleanerConfig::default()
                };
                Cleaner::with_config(SimLlm::new(), config).unwrap().clean(&table).expect("clean")
            };
            let sequential = zero(1);
            let parallel = zero(threads);
            prop_assert!(sequential.pending.is_empty(), "threshold 0.0 withholds nothing");
            prop_assert!(parallel.pending.is_empty());
            prop_assert_eq!(&sequential.table, &parallel.table);
            prop_assert_eq!(sequential.sql_script(), parallel.sql_script());
            prop_assert_eq!(&sequential.notes, &parallel.notes);
            // Every op carries a confidence in range, identically scored
            // on both runs.
            let scores = |run: &CleaningRun| -> Vec<String> {
                run.ops.iter().map(|o| o.confidence.describe()).collect()
            };
            prop_assert_eq!(scores(&sequential), scores(&parallel));
            for op in &sequential.ops {
                let score = op.confidence.score();
                prop_assert!((0.0..=1.0).contains(&score));
            }
        }
    }
}
