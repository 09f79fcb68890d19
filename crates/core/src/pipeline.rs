//! The Cocoon cleaning pipeline.
//!
//! Figure 1 of the paper: cleaning is decomposed (a) by issue type and (b),
//! within each issue, into statistical detection → semantic detection →
//! semantic cleaning. The order follows the §2.1 note: per-column issues
//! run string outliers → pattern outliers → DMV → column type → numeric
//! outliers (typos must be fixed before patterns can be read, patterns
//! before casts, casts before numeric distributions); whole-table issues
//! run afterwards: functional dependencies → duplication → uniqueness.
//!
//! Stages execute in that fixed order, but inside each stage detection
//! runs as prompt waves: the per-column (or per-candidate) steps run
//! concurrently, and each wave's prompts reach the model as one batch (the
//! paper's hosted deployment issues per-issue prompts concurrently; a
//! batch is the shape a hosted API amortises). Decisions and applies stay
//! sequential, so with a prompt-deterministic model a [`CleaningRun`] is
//! byte-identical at any thread count ([`CleanerConfig::threads`] spells
//! out the precondition). See [`crate::issues`] for the detect/decide model
//! and [`CleanerConfig::threads`] / `COCOON_THREADS` for the worker policy.

use crate::config::CleanerConfig;
use crate::decision::{AutoApprove, DecisionHook};
use crate::error::Result;
use crate::issues;
use crate::ops::{CleaningOp, IssueKind};
use crate::progress::RunProgress;
use crate::state::PipelineState;
use cocoon_llm::ChatModel;
use cocoon_table::Table;

/// The stages of the pipeline, in execution order (Figure 1a).
pub const STAGE_ORDER: [IssueKind; 8] = [
    IssueKind::StringOutliers,
    IssueKind::PatternOutliers,
    IssueKind::DisguisedMissing,
    IssueKind::ColumnType,
    IssueKind::NumericOutliers,
    IssueKind::FunctionalDependency,
    IssueKind::Duplication,
    IssueKind::Uniqueness,
];

/// The result of cleaning one table.
#[derive(Debug, Clone)]
pub struct CleaningRun {
    /// The cleaned table.
    pub table: Table,
    /// Applied operations, in order.
    pub ops: Vec<CleaningOp>,
    /// Repairs withheld by the confidence threshold policy
    /// ([`CleanerConfig::confidence_threshold`]): compiled, scored, but not
    /// applied — awaiting human review. Empty at the default threshold 0.0.
    pub pending: Vec<CleaningOp>,
    /// Narrative notes (rejected FDs, degraded steps, reviewer decisions).
    pub notes: Vec<String>,
}

impl CleaningRun {
    /// Total cells changed (including rows dropped, counted as one each).
    pub fn total_changes(&self) -> usize {
        self.ops.iter().map(|op| op.cells_changed).sum()
    }

    /// Ops of one issue kind.
    pub fn ops_for(&self, issue: IssueKind) -> Vec<&CleaningOp> {
        self.ops.iter().filter(|op| op.issue == issue).collect()
    }

    /// The full SQL script: every op's commented SQL, in order — the
    /// paper's final output artifact (Figure 5).
    pub fn sql_script(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("-- step {} --------------------------------\n", i + 1));
            out.push_str(&op.rendered_sql());
            out.push_str(";\n\n");
        }
        out
    }
}

/// The Cocoon cleaner: an LLM plus a configuration.
///
/// ```
/// use cocoon_core::Cleaner;
/// use cocoon_llm::SimLlm;
/// use cocoon_table::csv;
///
/// let dirty =
///     csv::read_str("id,lang\n1,eng\n2,eng\n3,eng\n4,English\n").unwrap();
/// let run = Cleaner::new(SimLlm::new()).clean(&dirty).unwrap();
/// assert_eq!(run.table.render_cell(3, 1).unwrap(), "eng");
/// ```
pub struct Cleaner<M> {
    llm: M,
    config: CleanerConfig,
}

impl<M: ChatModel> Cleaner<M> {
    /// A cleaner with the paper's default configuration.
    pub fn new(llm: M) -> Self {
        Cleaner { llm, config: CleanerConfig::default() }
    }

    /// A cleaner with a custom configuration.
    pub fn with_config(llm: M, config: CleanerConfig) -> Result<Self> {
        Ok(Cleaner { llm, config: config.validated()? })
    }

    /// The validated configuration this cleaner runs with.
    pub fn config(&self) -> &CleanerConfig {
        &self.config
    }

    /// The underlying model (e.g. to read a transcript).
    pub fn llm(&self) -> &M {
        &self.llm
    }

    /// Cleans a table with every step auto-approved — the paper's benchmark
    /// mode ("we skip \[HIL\] and use the LLM provided ground truth").
    pub fn clean(&self, table: &Table) -> Result<CleaningRun> {
        let mut hook = AutoApprove;
        self.clean_observed(table, &mut hook, None)
    }

    /// Cleans with every step auto-approved, publishing stage-by-stage
    /// [`ProgressSnapshot`](crate::ProgressSnapshot)s to `progress` — the
    /// shape a polling service needs: the cleaning thread owns the run,
    /// observers share the `RunProgress`.
    pub fn clean_with_progress(
        &self,
        table: &Table,
        progress: &RunProgress,
    ) -> Result<CleaningRun> {
        let mut hook = AutoApprove;
        self.clean_observed(table, &mut hook, Some(progress))
    }

    /// The fully general entry point: consults `hook` at every detection
    /// and cleaning decision (the HIL mode of §2.2 / Appendix A) and, when
    /// given, publishes progress to `progress`. The other `clean_*` methods
    /// are conveniences over this.
    pub fn clean_observed(
        &self,
        table: &Table,
        hook: &mut dyn DecisionHook,
        progress: Option<&RunProgress>,
    ) -> Result<CleaningRun> {
        let mut state = PipelineState::new(table.clone(), &self.llm, &self.config, hook);
        state.progress = progress;
        self.run_stages(&mut state);
        Ok(CleaningRun {
            table: state.table,
            ops: state.ops,
            pending: state.pending,
            notes: state.notes,
        })
    }

    /// Runs every enabled stage over `state`, in pipeline order, reporting
    /// to `state.progress` when observed, then sends the confidence re-asks
    /// the stages deferred as one model batch.
    fn run_stages(&self, state: &mut PipelineState<'_>) {
        let enabled = STAGE_ORDER.into_iter().filter(|&kind| self.config.issues.enabled(kind));
        let progress = state.progress;
        if let Some(p) = progress {
            p.begin(enabled.clone().count());
        }
        for kind in enabled {
            if let Some(p) = progress {
                p.start_stage(kind.name());
            }
            match kind {
                IssueKind::StringOutliers => issues::string_outlier::run(state),
                IssueKind::PatternOutliers => issues::pattern_outlier::run(state),
                IssueKind::DisguisedMissing => issues::dmv::run(state),
                IssueKind::ColumnType => issues::column_type::run(state),
                IssueKind::NumericOutliers => issues::numeric_outlier::run(state),
                IssueKind::FunctionalDependency => issues::functional_dependency::run(state),
                IssueKind::Duplication => issues::duplication::run(state),
                IssueKind::Uniqueness => issues::uniqueness::run(state),
            }
            if let Some(p) = progress {
                p.finish_stage(state.ops.len());
            }
        }
        state.verify_deferred();
        if let Some(p) = progress {
            p.finish(state.ops.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocoon_llm::{SimLlm, Transcript};
    use cocoon_table::{csv, DataType, Value};

    /// A small table exercising several issue types at once.
    fn messy() -> Table {
        let mut csv_text = String::from("record_id,lang,admission,EmergencyService,rating\n");
        for i in 0..20 {
            csv_text.push_str(&format!("r{i},eng,01/02/2003,yes,7.5\n"));
        }
        csv_text.push_str("r20,English,2003-04-05,no,8.0\n");
        csv_text.push_str("r21,eng,01/02/2003,N/A,99.0\n");
        csv::read_str(&csv_text).unwrap()
    }

    #[test]
    fn full_pipeline_fixes_multiple_issues() {
        let cleaner = Cleaner::new(SimLlm::new());
        let run = cleaner.clean(&messy()).unwrap();
        let kinds: Vec<IssueKind> = run.ops.iter().map(|o| o.issue).collect();
        assert!(kinds.contains(&IssueKind::StringOutliers), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::PatternOutliers), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::DisguisedMissing), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::ColumnType), "{kinds:?}");
        assert!(kinds.contains(&IssueKind::NumericOutliers), "{kinds:?}");

        // lang standardised.
        assert_eq!(run.table.render_cell(20, 1).unwrap(), "eng");
        // date standardised (pattern step) then cast to DATE (type step):
        // the value parses as the real calendar date either way.
        assert_eq!(run.table.schema().field(2).unwrap().data_type(), DataType::Date);
        assert_eq!(
            run.table.cell(20, 2).unwrap(),
            &Value::Date(cocoon_table::Date::new(2003, 4, 5).unwrap())
        );
        // EmergencyService cast to boolean, DMV nulled.
        assert_eq!(run.table.schema().field(3).unwrap().data_type(), DataType::Bool);
        assert_eq!(run.table.cell(21, 3).unwrap(), &Value::Null);
        // rating outlier nulled.
        assert_eq!(run.table.cell(21, 4).unwrap(), &Value::Null);
    }

    /// title → journal_abbreviation → region over 10 journals × 8 rows.
    /// Row 1 carries another journal's abbreviation and region, row 9 a
    /// wrong region: two FD repairs of two columns in one stage (the second
    /// reads groups the first re-coded), then a dedup of the repeated rows.
    fn journals() -> Table {
        let regions = [
            "europe", "europe", "europe", "europe", "asia", "asia", "asia", "america", "america",
            "america",
        ];
        let mut csv_text = String::from("title,journal_abbreviation,region\n");
        for i in 0..80 {
            let (abbreviation, region) = match i {
                1 => ("J5".to_string(), "asia"),
                9 => ("J1".to_string(), "america"),
                _ => (format!("J{}", i / 8), regions[i / 8]),
            };
            csv_text.push_str(&format!("journal {},{abbreviation},{region}\n", i / 8));
        }
        csv::read_str(&csv_text).unwrap()
    }

    #[test]
    fn each_column_version_is_censused_once_per_clean() {
        // `messy` rewrites a column in five stages; `journals` rewrites two
        // inside the FD stage and then every column in a dedup.
        for (table, fd_repairs) in [(messy(), 0), (journals(), 2)] {
            let width = table.width();
            let mut builds_at = Vec::new();
            for threads in [1usize, 8] {
                let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
                let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
                let mut hook = AutoApprove;
                let mut state =
                    PipelineState::new(table.clone(), cleaner.llm(), cleaner.config(), &mut hook);
                cleaner.run_stages(&mut state);
                // A column repair makes one new column version; a row
                // filter (dedup) makes a new version of every column.
                let versions: usize = width
                    + state
                        .ops
                        .iter()
                        .map(|op| match op.issue {
                            IssueKind::Duplication | IssueKind::Uniqueness => width,
                            _ => 1,
                        })
                        .sum::<usize>();
                let fd = state.ops.iter().filter(|op| op.issue == IssueKind::FunctionalDependency);
                assert_eq!(fd.count(), fd_repairs);
                let builds = state.census_builds();
                assert!(builds <= versions, "{builds} builds for {versions} column versions");
                builds_at.push((builds, state.ops.len()));
            }
            assert_eq!(builds_at[0], builds_at[1], "same builds and ops at 1 and 8 threads");
        }
    }

    #[test]
    fn ops_render_to_sql_script() {
        let cleaner = Cleaner::new(SimLlm::new());
        let run = cleaner.clean(&messy()).unwrap();
        let script = run.sql_script();
        assert!(script.contains("-- step 1"));
        assert!(script.contains("CASE"));
        assert!(script.contains("TRY_CAST"));
        // Total change accounting is consistent.
        assert_eq!(run.total_changes(), run.ops.iter().map(|o| o.cells_changed).sum::<usize>());
    }

    #[test]
    fn stage_order_matches_paper() {
        assert_eq!(STAGE_ORDER[0], IssueKind::StringOutliers);
        assert_eq!(STAGE_ORDER[3], IssueKind::ColumnType);
        assert_eq!(STAGE_ORDER[7], IssueKind::Uniqueness);
    }

    #[test]
    fn toggles_disable_stages() {
        let config = CleanerConfig::only_issue(IssueKind::DisguisedMissing);
        let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
        let run = cleaner.clean(&messy()).unwrap();
        assert!(run.ops.iter().all(|o| o.issue == IssueKind::DisguisedMissing));
    }

    #[test]
    fn clean_table_is_a_fixpoint() {
        let cleaner = Cleaner::new(SimLlm::new());
        let once = cleaner.clean(&messy()).unwrap();
        let twice = cleaner.clean(&once.table).unwrap();
        // Cleaning an already-clean table must not change it further —
        // string/pattern/DMV issues are gone; types are preserved.
        assert_eq!(once.table, twice.table);
    }

    #[test]
    fn transcript_counts_llm_calls() {
        let cleaner = Cleaner::new(Transcript::new(SimLlm::new()));
        let run = cleaner.clean(&messy()).unwrap();
        let llm = cleaner.llm();
        assert!(llm.round_trips() > 5);
        // Prompt waves carry several prompts per round trip.
        assert!(llm.exchange_count() > llm.round_trips());
        assert!(llm.total_usage().total() > 100);
        assert!(!run.ops.is_empty());
    }

    #[test]
    fn progress_reports_enabled_stage_count_and_finishes() {
        let cleaner = Cleaner::new(SimLlm::new());
        let progress = RunProgress::new();
        let run = cleaner.clean_with_progress(&messy(), &progress).unwrap();
        let snap = progress.snapshot();
        assert!(snap.finished);
        assert_eq!(snap.total_stages, 8);
        assert_eq!(snap.completed_stages, 8);
        assert_eq!(snap.current_stage, None);
        assert_eq!(snap.ops_applied, run.ops.len());
        // Progress observation is invisible in the run itself.
        let plain = cleaner.clean(&messy()).unwrap();
        assert_eq!(run.table, plain.table);
        assert_eq!(run.sql_script(), plain.sql_script());
    }

    #[test]
    fn stage_observer_times_every_enabled_stage() {
        use crate::progress::{StageObserver, StageTiming};
        use std::sync::{Arc, Mutex};
        struct Collect(Mutex<Vec<StageTiming>>);
        impl StageObserver for Collect {
            fn stage_finished(&self, timing: StageTiming) {
                self.0.lock().unwrap().push(timing);
            }
        }
        let cleaner = Cleaner::new(SimLlm::new());
        let collect = Arc::new(Collect(Mutex::new(Vec::new())));
        let progress = RunProgress::new();
        progress.set_observer(collect.clone());
        let run = cleaner.clean_with_progress(&messy(), &progress).unwrap();
        let events = collect.0.lock().unwrap().clone();
        // One event per enabled stage, in pipeline order, detect ≤ total,
        // and the final cumulative op count matches the run.
        let names: Vec<&str> = events.iter().map(|e| e.stage).collect();
        let expected: Vec<&str> = STAGE_ORDER.iter().map(|k| k.name()).collect();
        assert_eq!(names, expected);
        assert!(events.iter().all(|e| e.detect <= e.total));
        assert_eq!(events.last().unwrap().ops_applied, run.ops.len());
        // Observation stays invisible in the run output.
        let plain = cleaner.clean(&messy()).unwrap();
        assert_eq!(run.table, plain.table);
    }

    #[test]
    fn progress_counts_only_enabled_stages() {
        let config = CleanerConfig::only_issue(IssueKind::DisguisedMissing);
        let cleaner = Cleaner::with_config(SimLlm::new(), config).unwrap();
        let progress = RunProgress::new();
        cleaner.clean_with_progress(&messy(), &progress).unwrap();
        let snap = progress.snapshot();
        assert_eq!((snap.total_stages, snap.completed_stages), (1, 1));
    }

    #[test]
    fn confidence_threshold_withholds_low_confidence_repairs() {
        // Two text columns: a typo (self-report 0.95, applies) and a
        // misplaced concept token (self-report 0.65, withheld at 0.9).
        let mut text = String::from("drink,country\n");
        for _ in 0..50 {
            text.push_str("coffee,USA\n");
        }
        for _ in 0..10 {
            text.push_str("tea,India\n");
        }
        text.push_str("cofffee,Hindi\n");
        let table = csv::read_str(&text).unwrap();

        let strict = CleanerConfig {
            confidence_threshold: 0.9,
            ..CleanerConfig::only_issue(IssueKind::StringOutliers)
        };
        let withheld = Cleaner::with_config(SimLlm::new(), strict).unwrap().clean(&table).unwrap();
        assert_eq!(withheld.ops.len(), 1, "typo repair applies");
        assert_eq!(withheld.pending.len(), 1, "misplaced repair withheld");
        assert_eq!(withheld.pending[0].column.as_deref(), Some("country"));
        assert!(withheld.pending[0].confidence.score() < 0.9);
        // The withheld column is untouched…
        assert_eq!(withheld.table.render_cell(60, 1).unwrap(), "Hindi");
        // …while the applied one is repaired, and the run says why.
        assert_eq!(withheld.table.render_cell(60, 0).unwrap(), "coffee");
        assert!(withheld.notes.iter().any(|n| n.contains("withheld for review")));

        // Accepting the pending repair afterwards reaches the same table as
        // an unconditional (threshold 0.0) run — the review queue only
        // defers work, it never changes it.
        let lenient = CleanerConfig {
            confidence_threshold: 0.0,
            ..CleanerConfig::only_issue(IssueKind::StringOutliers)
        };
        let full = Cleaner::with_config(SimLlm::new(), lenient).unwrap().clean(&table).unwrap();
        assert!(full.pending.is_empty());
        let (accepted, _) =
            crate::apply::apply_and_count(&withheld.pending[0].sql, &withheld.table).unwrap();
        assert_eq!(accepted, full.table);
    }

    #[test]
    fn default_threshold_is_observational() {
        // Threshold 0.0 (the default): every op carries a confidence, none
        // are withheld, and the run behaves exactly as before the policy.
        let run = Cleaner::new(SimLlm::new()).clean(&messy()).unwrap();
        assert!(run.pending.is_empty());
        assert!(!run.ops.is_empty());
        for op in &run.ops {
            let score = op.confidence.score();
            assert!((0.0..=1.0).contains(&score), "{score}");
            assert!(op.rendered_sql().contains("confidence: "), "{}", op.rendered_sql());
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let config = CleanerConfig { fd_min_strength: 7.0, ..CleanerConfig::default() };
        assert!(Cleaner::with_config(SimLlm::new(), config).is_err());
    }
}
