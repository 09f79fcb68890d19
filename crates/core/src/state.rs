//! Pipeline state and the detect/decide execution model.
//!
//! Every issue stage is split in two:
//!
//! * a **detect** phase — read-only against the table as it stood when the
//!   stage began, run as **prompt waves** by `PipelineState::detect_waves`.
//!   Each unit of detection (a column, an FD candidate, the whole table)
//!   first runs a `start` step on the stage's thread pool: it profiles and
//!   either concludes or asks. The prompts of every asking unit then go to
//!   the model as one [`ChatModel::complete_batch`] call, in unit order,
//!   and each asking unit runs a `resume` step on its own answers, which
//!   concludes it or asks again for the next wave. Outcomes
//!   (`Outcome::Finding` for a candidate finding) come back in unit order,
//!   so output never depends on worker scheduling.
//! * a **decide** phase — sequential and ordered. Findings pass through the
//!   [`DecisionHook`] reviews, compile to SQL, and are applied one at a
//!   time; `ops` and `notes` record them in deterministic order. Its model
//!   calls are batched too, as far as the order allows: the FD stage asks
//!   a candidate's mapping prompt together with those of the later
//!   candidates whose groups no repair before their turn can change (see
//!   [`crate::issues::functional_dependency`]), and
//!   [`PipelineState::commit_op`] queues the confidence re-asks of every
//!   repair whose outcome they cannot change, which the clean sends as one
//!   batch after its last stage (`PipelineState::verify_deferred`). Only
//!   a repair whose fate hangs on its agreement re-asks at once.
//!
//! A prompt asked ahead of its turn is spent even if the [`DecisionHook`]
//! then rejects its finding: under a hook that rejects some FD candidates
//! and not others, a candidate batched ahead may have asked its mapping
//! prompt before the rejection. The auto-approving hook of
//! `Cleaner::clean` and the server spends nothing extra.
//!
//! [`PipelineState`] is the mutable half threaded through the decide
//! phases; [`DetectCtx`] is the shared read-only view handed to detection
//! steps, which never call the model themselves.
//!
//! Both read column statistics from one per-clean census cache: a column
//! version (an `Arc<Column>`) is censused the first time any stage asks,
//! and every later statistic of that version, in any stage, reads the same
//! [`ColumnCensus`]. Copy-on-write keeps an untouched column the same
//! `Arc` across ops and stages; a rewrite makes a new `Arc`, which is
//! censused afresh when first read.

use crate::config::CleanerConfig;
use crate::decision::DecisionHook;
use crate::error::{CoreError, Result};
use crate::ops::CleaningOp;
use crate::progress::RunProgress;
use cocoon_llm::responses::parse_repair_verdict;
use cocoon_llm::{one_per_request, prompts, ChatModel, ChatRequest};
use cocoon_profile::ColumnCensus;
use cocoon_sql::render_select;
use cocoon_table::{Column as TableColumn, DataType, Table};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use threadpool::ThreadPool;

/// A census slot, filled by whichever caller first asks for its version.
type CensusSlot = Arc<OnceLock<Arc<ColumnCensus>>>;

/// One [`ColumnCensus`] per column version, for the length of one clean.
///
/// Entries are keyed by the address of the version's `Arc<Column>` and hold
/// that `Arc`, so the address cannot be freed and reused by another column
/// while its entry lives. Each version is censused once: concurrent askers
/// of one version wait on its slot. When an applied op replaces the working
/// table, the entries of versions it no longer holds are dropped.
#[derive(Default)]
struct CensusCache {
    slots: Mutex<HashMap<usize, (Arc<TableColumn>, CensusSlot)>>,
    /// Census builds so far (test observability).
    #[cfg(test)]
    builds: std::sync::atomic::AtomicUsize,
}

impl CensusCache {
    /// The census of `column`'s version, built on first request.
    fn census(&self, column: &Arc<TableColumn>) -> Arc<ColumnCensus> {
        let key = Arc::as_ptr(column) as usize;
        let slot = {
            let mut slots = self.slots.lock().expect("census cache lock poisoned");
            let (_, slot) =
                slots.entry(key).or_insert_with(|| (Arc::clone(column), CensusSlot::default()));
            Arc::clone(slot)
        };
        let census = slot.get_or_init(|| {
            #[cfg(test)]
            self.builds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Arc::new(ColumnCensus::of(column))
        });
        Arc::clone(census)
    }

    /// Whether `column`'s version has been censused.
    fn holds(&self, column: &Arc<TableColumn>) -> bool {
        let slots = self.slots.lock().expect("census cache lock poisoned");
        slots.get(&(Arc::as_ptr(column) as usize)).is_some_and(|(_, slot)| slot.get().is_some())
    }

    /// Drops the censuses of column versions `table` does not hold.
    fn retain_columns_of(&mut self, table: &Table) {
        let live: Vec<usize> = (0..table.width())
            .filter_map(|c| table.shared_column(c).ok())
            .map(|column| Arc::as_ptr(column) as usize)
            .collect();
        let slots = self.slots.get_mut().expect("census cache lock poisoned");
        slots.retain(|key, _| live.contains(key));
    }
}

/// Read-only view for concurrent detection: the stage-entry table, the
/// configuration and the clean's column censuses. Cheap to share by
/// reference across detection workers.
pub struct DetectCtx<'a> {
    /// The table as it stood when the stage began.
    pub table: &'a Table,
    /// Pipeline configuration (thresholds, toggles).
    pub config: &'a CleanerConfig,
    censuses: &'a CensusCache,
    /// The stage pool, for [`table_censuses`](Self::table_censuses).
    pool: &'a ThreadPool,
}

impl DetectCtx<'_> {
    /// The value census of the column at `column_index`, shared with every
    /// other reader of the same column version in this clean.
    pub(crate) fn column_census(&self, column_index: usize) -> Result<Arc<ColumnCensus>> {
        Ok(self.censuses.census(self.table.shared_column(column_index)?))
    }

    /// The census of every column, in column order. The versions not
    /// censused yet are censused concurrently on the stage pool, each still
    /// once, and only they: a cached census is a lookup, not worth a
    /// thread. Ask from the stage's own thread or a one-unit wave, since a
    /// worker of a wider wave would stack a second fan-out on the first.
    pub(crate) fn table_censuses(&self) -> Vec<Arc<ColumnCensus>> {
        let columns: Vec<&Arc<TableColumn>> = (0..self.table.width())
            .map(|c| self.table.shared_column(c).expect("column index below the table width"))
            .collect();
        let missing = columns.iter().filter(|column| !self.censuses.holds(column)).collect();
        self.pool.map_ordered(missing, |column| self.censuses.census(column));
        columns.into_iter().map(|column| self.censuses.census(column)).collect()
    }

    /// Distinct-value census of a column (rendered text, ordered by
    /// descending frequency), truncated to `limit` values. When
    /// [`CleanerConfig::statistical_context`] is off, counts are erased to 1
    /// — the ablation of the paper's "statistics give the LLM context"
    /// claim.
    pub fn census(&self, column_index: usize, limit: usize) -> Vec<(String, usize)> {
        let Ok(census) = self.column_census(column_index) else {
            return Vec::new();
        };
        let mut out: Vec<(String, usize)> = census
            .distinct()
            .iter()
            .take(limit)
            .map(|(v, c)| (v.render(), if self.config.statistical_context { *c } else { 1 }))
            .collect();
        if !self.config.statistical_context {
            // Without statistics the model sees values in an arbitrary but
            // deterministic order rather than frequency-ranked.
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }
}

/// What one read-only detection unit concluded, queued for the decide phase.
pub(crate) enum Outcome<F> {
    /// Nothing to report.
    Clean,
    /// No finding, but a note for the run report (degraded step, FD judged
    /// not meaningful, unknown type suggestion).
    Note(String),
    /// A candidate finding awaiting review and application.
    Finding(F),
}

/// Where a detection step left its unit: concluded, or asking the next
/// wave's prompts and keeping `P` to resume with on their answers.
pub(crate) enum Step<P, F> {
    /// The unit concluded.
    Done(Outcome<F>),
    /// The unit asks these prompts.
    Ask(P, Vec<String>),
}

impl<P, F> Step<P, F> {
    /// Concludes with nothing to report.
    pub(crate) fn clean() -> Self {
        Step::Done(Outcome::Clean)
    }

    /// Asks one prompt.
    pub(crate) fn ask(pending: P, prompt: String) -> Self {
        Step::Ask(pending, vec![prompt])
    }
}

/// The answers to one unit's prompts, in prompt order.
pub(crate) type Answers = Vec<Result<String>>;

/// A column a per-column stage examines.
pub(crate) struct Column {
    pub(crate) index: usize,
    pub(crate) name: String,
}

/// State shared by all issue steps while a table is being cleaned.
pub struct PipelineState<'a> {
    /// The table, progressively rewritten by each applied op.
    pub table: Table,
    /// The model consulted by detection and cleaning prompts.
    pub llm: &'a dyn ChatModel,
    /// Pipeline configuration (thresholds, toggles).
    pub config: &'a CleanerConfig,
    /// Human-in-the-loop decision boundary.
    pub hook: &'a mut dyn DecisionHook,
    /// Worker policy for the detection steps of each prompt wave.
    pub pool: ThreadPool,
    /// Applied operations, in order.
    pub ops: Vec<CleaningOp>,
    /// Repairs whose confidence fell below
    /// [`CleanerConfig::confidence_threshold`]: fully compiled but **not**
    /// applied, queued for human review (`/v1/reviews` on the server).
    pub pending: Vec<CleaningOp>,
    /// Narrative notes: rejected FDs, skipped steps, LLM failures.
    pub notes: Vec<String>,
    /// Progress channel of the run, when observed: each stage's prompt
    /// waves report their wall time here so stage timings can split detect
    /// from decide.
    pub progress: Option<&'a RunProgress>,
    /// Column censuses of this clean, one per column version.
    censuses: CensusCache,
    /// Indices into `ops` of the applied repairs whose confidence re-asks
    /// wait for `verify_deferred`.
    deferred: Vec<usize>,
}

impl<'a> PipelineState<'a> {
    /// Fresh state for one cleaning run over `table`.
    pub fn new(
        table: Table,
        llm: &'a dyn ChatModel,
        config: &'a CleanerConfig,
        hook: &'a mut dyn DecisionHook,
    ) -> Self {
        let pool = match config.threads {
            Some(n) => ThreadPool::new(n),
            None => ThreadPool::from_env(),
        };
        PipelineState {
            table,
            llm,
            config,
            hook,
            pool,
            ops: Vec::new(),
            pending: Vec::new(),
            notes: Vec::new(),
            progress: None,
            censuses: CensusCache::default(),
            deferred: Vec::new(),
        }
    }

    /// The read-only view detection steps receive. Borrows the *current*
    /// table: stages construct it once, before their decide phase mutates
    /// anything, so every detection unit of a stage sees the same snapshot.
    pub fn detect_ctx(&self) -> DetectCtx<'_> {
        DetectCtx {
            table: &self.table,
            config: self.config,
            censuses: &self.censuses,
            pool: &self.pool,
        }
    }

    /// Column censuses built so far in this clean.
    #[cfg(test)]
    pub(crate) fn census_builds(&self) -> usize {
        self.censuses.builds.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The columns whose declared type passes `keep`, in table order.
    pub(crate) fn columns(&self, keep: impl Fn(DataType) -> bool) -> Vec<Column> {
        self.table
            .schema()
            .fields()
            .iter()
            .enumerate()
            .filter(|(_, field)| keep(field.data_type()))
            .map(|(index, field)| Column { index, name: field.name().to_string() })
            .collect()
    }

    /// Runs a stage's detection over `units` as prompt waves and returns
    /// one outcome per unit, in unit order.
    ///
    /// `start` runs for every unit on the stage pool. The prompts of every
    /// unit that asks go to the model as one [`ChatModel::complete_batch`]
    /// call, in unit order; then `resume` runs for each asking unit on the
    /// pool with its own answers, and either concludes or asks again, for
    /// the next wave. A failed slot reaches only the unit that asked it. A
    /// step that errs concludes its unit with `degraded`'s note.
    ///
    /// Determinism contract: outcome `i` depends only on unit `i`, its
    /// answers and the snapshot, whatever the thread count; and a wave's
    /// batch lists its prompts in unit order, so the model sees the same
    /// batches at any thread count.
    pub(crate) fn detect_waves<U, P, F>(
        &self,
        units: Vec<U>,
        start: impl Fn(&DetectCtx<'_>, &U) -> Result<Step<P, F>> + Sync,
        resume: impl Fn(&DetectCtx<'_>, &U, P, Answers) -> Result<Step<P, F>> + Sync,
        degraded: impl Fn(&U, &CoreError) -> String + Sync,
    ) -> Vec<Outcome<F>>
    where
        U: Sync,
        P: Send,
        F: Send,
    {
        let ctx = self.detect_ctx();
        let started = std::time::Instant::now();
        let settle = |i: usize, step: Result<Step<P, F>>| match step {
            Ok(step) => (i, step),
            Err(err) => (i, Step::Done(Outcome::Note(degraded(&units[i], &err)))),
        };
        let mut steps = self
            .pool
            .map_ordered((0..units.len()).collect(), |i| settle(i, start(&ctx, &units[i])));
        let mut outcomes: Vec<Option<Outcome<F>>> = units.iter().map(|_| None).collect();
        loop {
            let mut asking = Vec::new();
            let mut prompts = Vec::new();
            for (i, step) in steps {
                match step {
                    Step::Done(outcome) => outcomes[i] = Some(outcome),
                    Step::Ask(pending, asked) => {
                        asking.push((i, pending, asked.len()));
                        prompts.extend(asked);
                    }
                }
            }
            if asking.is_empty() {
                break;
            }
            let mut answers = self.ask_all(prompts).into_iter();
            let answered: Vec<(usize, P, Answers)> = asking
                .into_iter()
                .map(|(i, pending, asked)| (i, pending, answers.by_ref().take(asked).collect()))
                .collect();
            steps = self.pool.map_ordered(answered, |(i, pending, own)| {
                settle(i, resume(&ctx, &units[i], pending, own))
            });
        }
        if let Some(progress) = self.progress {
            progress.add_detect_time(started.elapsed());
        }
        outcomes.into_iter().map(|outcome| outcome.expect("every unit concludes")).collect()
    }

    /// The decide phase shared by every stage but FD (which carries state
    /// across findings): outcomes are consumed in detection order, notes
    /// pass straight through, findings go to `decide`, and a decide-phase
    /// error degrades the finding to the stage's note via `degraded_note`.
    pub(crate) fn decide_outcomes<F>(
        &mut self,
        outcomes: Vec<Outcome<F>>,
        mut decide: impl FnMut(&mut Self, &F) -> Result<()>,
        degraded_note: impl Fn(&F, &crate::error::CoreError) -> String,
    ) {
        for outcome in outcomes {
            match outcome {
                Outcome::Clean => {}
                Outcome::Note(note) => self.note(note),
                Outcome::Finding(finding) => {
                    if let Err(err) = decide(self, &finding) {
                        self.note(degraded_note(&finding, &err));
                    }
                }
            }
        }
    }

    /// Sends `prompts` to the model as one [`ChatModel::complete_batch`]
    /// call and returns one answer per prompt, in prompt order
    /// ([`one_per_request`]: a model that answers short fails the missing
    /// slots).
    pub(crate) fn ask_all(&self, prompts: Vec<String>) -> Answers {
        let requests: Vec<ChatRequest> = prompts.into_iter().map(ChatRequest::simple).collect();
        one_per_request(self.llm.complete_batch(&requests), requests.len())
            .into_iter()
            .map(|answer| Ok(answer?.content))
            .collect()
    }

    /// Records a note for the run report.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Commits a compiled repair through the confidence policy. A
    /// deterministically sampled subset of repairs is re-verified through
    /// three [`prompts::repair_verify`] variants, and the fraction that
    /// agree is blended into the op's [`Confidence`](crate::Confidence).
    /// Repairs scoring at or above [`CleanerConfig::confidence_threshold`]
    /// apply (`table` replaces the working table, the op is recorded);
    /// repairs below are withheld into [`pending`](PipelineState::pending)
    /// with a note, leaving the table untouched.
    ///
    /// Agreement can at worst halve the self-report, so when even zero
    /// agreement leaves the score at or above the threshold
    /// (`self_report / 2 ≥ threshold`, every repair at the default 0.0) the
    /// repair applies now and its re-asks join the queue that
    /// `verify_deferred` sends as one model batch when the clean ends. Only
    /// a repair whose outcome hangs on agreement re-asks at once, in one
    /// model batch of its own.
    ///
    /// Returns whether the repair applied (`false` means withheld) — FD
    /// iteration uses this to know the table is unchanged.
    ///
    /// Runs in the sequential decide phase, so sampling and re-asks are
    /// identical at any thread count.
    pub fn commit_op(&mut self, table: Table, mut op: CleaningOp) -> bool {
        let threshold = self.config.confidence_threshold;
        let sampled = sampled_for_verification(&op);
        let deferred = sampled && op.confidence.self_report / 2.0 >= threshold;
        if sampled && !deferred {
            op.confidence.agreement = agreement(self.ask_all(verify_prompts(&op)));
        }
        if op.confidence.score() >= threshold {
            self.table = table;
            self.censuses.retain_columns_of(&self.table);
            if deferred {
                self.deferred.push(self.ops.len());
            }
            self.ops.push(op);
            true
        } else {
            self.note(format!(
                "{} repair on {} withheld for review: confidence {} below threshold {:.2}",
                op.issue.name(),
                op.column.as_deref().map(|c| format!("{c:?}")).unwrap_or_else(|| "table".into()),
                op.confidence.describe(),
                threshold,
            ));
            self.pending.push(op);
            false
        }
    }

    /// Sends the re-asks [`commit_op`](Self::commit_op) deferred, every
    /// applied repair's variants in one model batch in commit order, and
    /// fills in each op's agreement. The pipeline calls it once, after the
    /// last stage; an empty queue asks nothing.
    pub(crate) fn verify_deferred(&mut self) {
        let deferred = std::mem::take(&mut self.deferred);
        if deferred.is_empty() {
            return;
        }
        let prompts = deferred.iter().flat_map(|&i| verify_prompts(&self.ops[i])).collect();
        let mut answers = self.ask_all(prompts).into_iter();
        for i in deferred {
            self.ops[i].confidence.agreement =
                agreement(answers.by_ref().take(VERIFY_VARIANTS).collect());
        }
    }
}

/// How many [`prompts::repair_verify`] variants an agreement re-ask sends.
const VERIFY_VARIANTS: usize = 3;

/// One in this many repairs is sampled for cross-variant verification.
const SAMPLE_MODULUS: u64 = 4;

/// The [`VERIFY_VARIANTS`] re-ask prompts of a sampled repair.
fn verify_prompts(op: &CleaningOp) -> Vec<String> {
    let sql_text = render_select(&op.sql);
    (0..VERIFY_VARIANTS)
        .map(|variant| {
            prompts::repair_verify(
                op.issue.name(),
                op.column.as_deref(),
                &op.statistical_evidence,
                &op.llm_reasoning,
                &sql_text,
                variant,
            )
        })
        .collect()
}

/// The fraction of parsed re-ask verdicts that endorse the repair. All
/// failed or unparseable answers leave agreement unsampled (`None`) rather
/// than punishing the repair for a flaky backend.
fn agreement(answers: Answers) -> Option<f64> {
    let verdicts: Vec<bool> = answers
        .into_iter()
        .filter_map(|answer| parse_repair_verdict(&answer.ok()?).ok())
        .map(|verdict| verdict.agree)
        .collect();
    let agree = verdicts.iter().filter(|&&agree| agree).count();
    (!verdicts.is_empty()).then(|| agree as f64 / verdicts.len() as f64)
}

/// Whether a repair is in the ~25% agreement sample: a pure function of the
/// op's identity (issue, column, evidence), so runs are reproducible across
/// machines and thread counts — no RNG anywhere in the pipeline.
fn sampled_for_verification(op: &CleaningOp) -> bool {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(op.issue.name().as_bytes());
    eat(b"\x1f");
    eat(op.column.as_deref().unwrap_or("").as_bytes());
    eat(b"\x1f");
    eat(op.statistical_evidence.as_bytes());
    hash.is_multiple_of(SAMPLE_MODULUS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::AutoApprove;
    use cocoon_llm::{ChatResponse, LlmError, SimLlm};

    fn table() -> Table {
        let rows: Vec<Vec<String>> = vec![vec!["a".into()], vec!["a".into()], vec!["b".into()]];
        Table::from_text_rows(&["x"], &rows).unwrap()
    }

    #[test]
    fn census_orders_by_frequency() {
        let llm = SimLlm::new();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        let census = state.detect_ctx().census(0, 10);
        assert_eq!(census, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert!(state.detect_ctx().census(9, 10).is_empty());
    }

    #[test]
    fn census_without_statistics_erases_counts() {
        let llm = SimLlm::new();
        let config = CleanerConfig { statistical_context: false, ..CleanerConfig::default() };
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        let census = state.detect_ctx().census(0, 10);
        assert!(census.iter().all(|(_, c)| *c == 1));
    }

    #[test]
    fn concurrent_askers_of_one_version_share_one_build() {
        let cache = CensusCache::default();
        let column = Arc::new(TableColumn::from_strings(["a", "b", "a"]));
        let barrier = std::sync::Barrier::new(8);
        let censuses: Vec<Arc<ColumnCensus>> = std::thread::scope(|scope| {
            let askers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.census(&column)
                    })
                })
                .collect();
            askers.into_iter().map(|asker| asker.join().expect("asker")).collect()
        });
        assert_eq!(cache.builds.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert!(censuses.iter().all(|census| Arc::ptr_eq(census, &censuses[0])));
        assert_eq!(censuses[0].distinct()[0], (cocoon_table::Value::from("a"), 2));

        // A rewrite is a new version, censused afresh; once the working
        // table holds only the new version, the first one's entry goes.
        let mut cache = cache;
        let rewritten = Arc::new(TableColumn::from_strings(["a", "a", "a"]));
        assert_eq!(cache.census(&rewritten).distinct()[0].1, 3);
        assert_eq!(cache.builds.load(std::sync::atomic::Ordering::Relaxed), 2);
        let schema = cocoon_table::Schema::new(vec![cocoon_table::Field::new("x", DataType::Text)]);
        let table = Table::from_shared(schema.unwrap(), vec![rewritten]).unwrap();
        cache.retain_columns_of(&table);
        let held: Vec<usize> = cache.slots.lock().unwrap().keys().copied().collect();
        assert_eq!(held, [Arc::as_ptr(table.shared_column(0).unwrap()) as usize]);
    }

    #[test]
    fn pool_size_follows_config() {
        let llm = SimLlm::new();
        let config = CleanerConfig { threads: Some(3), ..CleanerConfig::default() };
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        assert_eq!(state.pool.threads(), 3);
    }

    /// Answers each prompt with its own text and records every batch; fails
    /// the prompts containing "bad".
    #[derive(Default)]
    struct Echo(std::sync::Mutex<Vec<Vec<String>>>);

    impl ChatModel for Echo {
        fn model_name(&self) -> &str {
            "echo"
        }

        fn complete_batch(
            &self,
            requests: &[ChatRequest],
        ) -> Vec<cocoon_llm::Result<ChatResponse>> {
            let answer = |request: &ChatRequest| {
                let text = request.user_text();
                if text.contains("bad") {
                    return Err(LlmError::Completion(format!("refused {text}")));
                }
                Ok(ChatResponse { content: text, usage: Default::default() })
            };
            self.0.lock().unwrap().push(requests.iter().map(ChatRequest::user_text).collect());
            requests.iter().map(answer).collect()
        }
    }

    #[test]
    fn detect_waves_order_outcomes_at_any_thread_count() {
        // Unit i asks `i % 4` waves before concluding, so units finish in
        // different waves; outcome i is still unit i's, and each wave is one
        // batch listing its prompts in unit order.
        let mut hook = AutoApprove;
        for threads in [1usize, 8] {
            let llm = Echo::default();
            let config = CleanerConfig { threads: Some(threads), ..CleanerConfig::default() };
            let state = PipelineState::new(table(), &llm, &config, &mut hook);
            let step = |i: usize, waves_left: usize| match waves_left {
                0 => Step::Done(Outcome::Finding(i * 2)),
                n => Step::ask(n, format!("unit {i} wave {n}")),
            };
            let out = state.detect_waves(
                (0..32).collect(),
                |_, &i| Ok(step(i, i % 4)),
                |_, &i, waves_left, answers| {
                    assert_eq!(answers, vec![Ok(format!("unit {i} wave {waves_left}"))]);
                    Ok(step(i, waves_left - 1))
                },
                |_, err| panic!("no step fails: {err}"),
            );
            let findings: Vec<usize> = out
                .into_iter()
                .map(|outcome| match outcome {
                    Outcome::Finding(value) => value,
                    _ => panic!("every unit finds"),
                })
                .collect();
            assert_eq!(findings, (0..32).map(|i| i * 2).collect::<Vec<_>>());
            // Wave w carries the units with at least w waves to ask, in unit
            // order: units 1, 2, 3, 5, 6, 7, … ask first, units 3, 7, … last.
            let wave = |w: usize| -> Vec<String> {
                (0..32)
                    .filter(|i| i % 4 >= w)
                    .map(|i| format!("unit {i} wave {}", i % 4 - w + 1))
                    .collect()
            };
            assert_eq!(llm.0.into_inner().unwrap(), [wave(1), wave(2), wave(3)]);
        }
    }

    #[test]
    fn detect_waves_degrade_only_the_unit_whose_step_failed() {
        // Unit 1's prompt fails in a batch whose other slots succeed, and
        // unit 3's start step errs: each concludes with its own note while
        // the others keep their answers.
        let llm = Echo::default();
        let config = CleanerConfig::default();
        let mut hook = AutoApprove;
        let state = PipelineState::new(table(), &llm, &config, &mut hook);
        let out = state.detect_waves(
            (0..4).collect(),
            |_, &i| match i {
                3 => Err(CoreError::Config("no start".into())),
                1 => Ok(Step::ask((), "bad prompt".to_string())),
                _ => Ok(Step::ask((), format!("prompt {i}"))),
            },
            |_, _, (), mut answers| Ok(Step::Done(Outcome::Finding(answers.remove(0)?))),
            |i, err| format!("unit {i} degraded: {err}"),
        );
        let described: Vec<String> = out
            .into_iter()
            .map(|outcome| match outcome {
                Outcome::Finding(answer) => answer,
                Outcome::Note(note) => note,
                Outcome::Clean => "clean".into(),
            })
            .collect();
        assert_eq!(described[0], "prompt 0");
        assert!(
            described[1].starts_with("unit 1 degraded: llm: completion failed"),
            "{described:?}"
        );
        assert_eq!(described[2], "prompt 2");
        assert_eq!(described[3], "unit 3 degraded: config: no start");
        assert_eq!(llm.0.into_inner().unwrap().len(), 1, "one wave, one batch");
    }

    #[test]
    fn commit_op_applies_or_withholds_by_threshold() {
        use crate::ops::{CleaningOp, Confidence, IssueKind};
        let op_with = |self_report: f64| CleaningOp {
            issue: IssueKind::StringOutliers,
            column: Some("x".into()),
            statistical_evidence: "evidence".into(),
            llm_reasoning: "reasoning".into(),
            sql: cocoon_sql::Select::star("input"),
            cells_changed: 1,
            confidence: Confidence { self_report, agreement: None },
        };
        let llm = SimLlm::new();
        let config = CleanerConfig { confidence_threshold: 0.9, ..CleanerConfig::default() };
        let mut hook = AutoApprove;
        let mut state = PipelineState::new(table(), &llm, &config, &mut hook);
        let rewritten = {
            let rows: Vec<Vec<String>> = vec![vec!["z".into()]];
            Table::from_text_rows(&["x"], &rows).unwrap()
        };
        // High self-report applies (agreement re-asks, if sampled, endorse).
        assert!(state.commit_op(rewritten.clone(), op_with(0.95)));
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.table, rewritten);
        // Low self-report is withheld: table untouched, op queued, noted.
        let before = state.table.clone();
        assert!(!state.commit_op(table(), op_with(0.3)));
        assert_eq!(state.ops.len(), 1);
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.table, before);
        assert!(state.notes.iter().any(|n| n.contains("withheld for review")));
    }

    /// `SimLlm` that records the size of every batch it answers.
    #[derive(Default)]
    struct Batches(std::sync::Mutex<Vec<usize>>);

    impl Batches {
        fn sizes(&self) -> Vec<usize> {
            self.0.lock().unwrap().clone()
        }
    }

    impl ChatModel for Batches {
        fn model_name(&self) -> &str {
            "batches"
        }

        fn complete_batch(
            &self,
            requests: &[ChatRequest],
        ) -> Vec<cocoon_llm::Result<ChatResponse>> {
            self.0.lock().unwrap().push(requests.len());
            SimLlm::new().complete_batch(requests)
        }
    }

    #[test]
    fn re_asks_wait_for_the_clean_to_end_unless_agreement_decides_the_repair() {
        use crate::ops::{CleaningOp, Confidence, IssueKind};
        // The first op identity the agreement sample picks.
        let sampled_op = |self_report: f64| {
            (0..)
                .map(|i| CleaningOp {
                    issue: IssueKind::StringOutliers,
                    column: Some("x".into()),
                    statistical_evidence: format!("evidence {i}"),
                    llm_reasoning: "reasoning".into(),
                    sql: cocoon_sql::Select::star("input"),
                    cells_changed: 1,
                    confidence: Confidence { self_report, agreement: None },
                })
                .find(sampled_for_verification)
                .expect("a quarter of identities are sampled")
        };
        let rewritten = {
            let rows: Vec<Vec<String>> = vec![vec!["z".into()]];
            Table::from_text_rows(&["x"], &rows).unwrap()
        };
        let mut hook = AutoApprove;

        // 0.95 / 2 ≥ 0.4: even zero agreement applies the repair, so it
        // applies at once and its re-asks wait for the deferred batch.
        let llm = Batches::default();
        let config = CleanerConfig { confidence_threshold: 0.4, ..CleanerConfig::default() };
        let mut state = PipelineState::new(table(), &llm, &config, &mut hook);
        assert!(state.commit_op(rewritten.clone(), sampled_op(0.95)));
        assert_eq!(state.table, rewritten);
        assert_eq!(state.ops[0].confidence.agreement, None);
        assert!(llm.sizes().is_empty(), "nothing asked before the clean ends");
        state.verify_deferred();
        assert_eq!(llm.sizes(), [VERIFY_VARIANTS]);
        assert!(state.ops[0].confidence.agreement.is_some());
        state.verify_deferred();
        assert_eq!(llm.sizes(), [VERIFY_VARIANTS], "an empty queue asks nothing");

        // 0.95 / 2 < 0.9: agreement decides, so commit_op re-asks first.
        let llm = Batches::default();
        let config = CleanerConfig { confidence_threshold: 0.9, ..CleanerConfig::default() };
        let mut state = PipelineState::new(table(), &llm, &config, &mut hook);
        let applied = state.commit_op(rewritten, sampled_op(0.95));
        assert_eq!(llm.sizes(), [VERIFY_VARIANTS]);
        let op = if applied { &state.ops[0] } else { &state.pending[0] };
        assert!(op.confidence.agreement.is_some());
        assert_eq!(applied, op.confidence.score() >= 0.9);
        state.verify_deferred();
        assert_eq!(llm.sizes(), [VERIFY_VARIANTS], "nothing was deferred");
    }

    #[test]
    fn verification_sampling_is_deterministic() {
        use crate::ops::{CleaningOp, Confidence, IssueKind};
        let op = |evidence: &str| CleaningOp {
            issue: IssueKind::StringOutliers,
            column: Some("x".into()),
            statistical_evidence: evidence.into(),
            llm_reasoning: String::new(),
            sql: cocoon_sql::Select::star("input"),
            cells_changed: 1,
            confidence: Confidence::default(),
        };
        // Pure function of op identity: same op, same answer, ~1/4 sampled.
        let sampled = (0..64)
            .filter(|i| super::sampled_for_verification(&op(&format!("evidence {i}"))))
            .count();
        assert!(sampled > 0 && sampled < 64, "{sampled} of 64 sampled");
        assert_eq!(
            super::sampled_for_verification(&op("evidence 0")),
            super::sampled_for_verification(&op("evidence 0")),
        );
    }
}
